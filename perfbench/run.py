"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/`` must sit next to this
directory). ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` is the separate traced run that reports the
per-layer metrics. The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``, holding every
metric ``BENCHMARK.json`` lists for that kind of run. Exits non-zero
without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("sim_weak", "fig_sweep", "tune_cold", "serve_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = common.src_path()
    if src is None:
        print(f"no program sources at {common.ROOT / 'src'}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.workload == "serve_mix":
        import serve_mix

        ops, metrics = serve_mix.run(args.seed, args.seconds,
                                     bool(args.trace))
    else:
        import batch

        ops, metrics = batch.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    common.emit(ops, common.complete(metrics, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
