"""Regenerate the expected outputs under ``perfbench/expected/``.

    PYTHONPATH=src python3 perfbench/record_expected.py [WORKLOAD ...]

Expected outputs are recorded once and committed; a benchmark run fails
any op whose output differs. Where an independent path exists it is
used instead of the path being timed:

* ``sim_weak`` — each ``SimReport``'s digest. Points at <= 1,024 nodes
  are simulated by the uncompressed ``batched`` interpreter (independent
  of ``orbit``, which the benchmark times); 4,096-node points use
  ``orbit`` (the batched interpreter would take minutes each there).
* ``fig_sweep`` — the figure rows, OOM notes and headline ratios.
* ``tune_cold`` — each tune's winning decision, cost and search counts.
* ``serve_mix`` — canonical answer records from offline
  ``repro.api.tune_request``: cold tunes for the hot set, warm-started
  tunes (from the anchor's decision) for the misses.
"""

from __future__ import annotations

import json
import sys

import batch
import common


def record_sim_weak() -> dict:
    """Batched reports at <= 1,024 nodes, orbit beyond.

    ``total_flops`` of an ``n x n`` GEMM is ``2 n^3`` whatever the
    schedule, so every point's flop count is also checked against that
    closed form. Where the batched and orbit reports disagree, the
    closed form decides: a flop-count difference is resolved to the
    report that equals ``2 n^3``; any other difference aborts.
    """
    workload = batch.SimWeak()
    out = {}
    for name in workload.op_names():
        kernel = workload.kernel(name)
        nodes = int(name.split("@")[1])
        exact_flops = float(2 * kernel.plan.tensors["B"].shape[0] ** 3)
        orbit = batch.report_record(kernel.simulate(workload.params))
        record = orbit
        if nodes <= 1024:
            record = batch.report_record(
                kernel.simulate(workload.params, mode="batched"))
            differ = {k for k in record if record[k] != orbit[k]}
            if differ == {"total_flops"} and (
                    orbit["total_flops"] == exact_flops):
                print(f"sim_weak {name}: batched total_flops "
                      f"{record['total_flops']!r} != 2n^3 "
                      f"{exact_flops!r}; orbit matches 2n^3",
                      file=sys.stderr)
                record = dict(record, total_flops=exact_flops)
            elif differ:
                raise SystemExit(f"{name}: orbit and batched reports "
                                 f"differ on {sorted(differ)}")
        if record["total_flops"] != exact_flops:
            raise SystemExit(f"{name}: total_flops {record['total_flops']!r}"
                             f" != 2n^3 {exact_flops!r}")
        print(f"sim_weak {name}: recorded", file=sys.stderr)
        out[name] = batch.report_digest(record)
    return out


def record_batch(name: str) -> dict:
    workload = batch.WORKLOADS[name]()
    order = batch.op_order(workload, seed=0)
    _times, _scaled, outputs, _counters = batch.run_pass(workload, order)
    for op, value in outputs.items():
        if isinstance(value, dict) and "error" in value:
            raise SystemExit(f"{name}/{op} failed: {value['error']}")
    return outputs


def record_serve_mix() -> dict:
    import serve_mix

    return serve_mix.offline_answers()


RECORDERS = {
    "sim_weak": record_sim_weak,
    "fig_sweep": lambda: record_batch("fig_sweep"),
    "tune_cold": lambda: record_batch("tune_cold"),
    "serve_mix": record_serve_mix,
}


def main(argv) -> int:
    names = argv or list(RECORDERS)
    unknown = set(names) - set(RECORDERS)
    if unknown:
        print(f"unknown workloads {sorted(unknown)}", file=sys.stderr)
        return 2
    common.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        data = json.loads(common.canonical(RECORDERS[name]()))
        path = common.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
