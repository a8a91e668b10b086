"""The batch workloads: ``sim_weak``, ``fig_sweep`` and ``tune_cold``.

Each workload is a fixed list of operations (one *pass*). Set-up builds
what a user builds on every start (clusters, machines, assignments) and
runs one warm-up operation; the seed only fixes the order of the
operations inside a pass, so every seed measures the same work. The
process-global caches (``SIM_CACHE``, the baseline store, the tuner's
``SKELETONS``) are cleared before every pass — and, for ``tune_cold``,
before every tune — so each pass repeats identical cold work. The
program's own counters (``repro.obs.metrics``) must then repeat exactly
from pass to pass; a pass whose counters differ fails all its ops.

Run ``python3 perfbench/batch.py --setup WORKLOAD`` to perform one
set-up in a fresh interpreter (what ``setup_s`` times); it prints the
factor that scales its time to the reference CPU speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import random
import statistics
import sys
import time
from typing import Dict, List, Tuple

import common

#: Figure sweep axis: the paper's 1..256 nodes.
NODE_COUNTS = [1, 2, 4, 8, 16, 32, 64, 128, 256]
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9


def report_record(report) -> Dict:
    """Every compared field of a ``SimReport`` (full float digits)."""
    return {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.compare
    }


def report_digest(record: Dict) -> Dict:
    """A report record as its SHA-256 (the per-memory high-water table
    makes records large) plus the headline fields, for reading diffs."""
    return {
        "sha256": hashlib.sha256(
            common.canonical(record).encode()).hexdigest(),
        "total_time": record["total_time"],
        "total_flops": record["total_flops"],
    }


def clear_caches():
    from repro.bench import cache
    from repro.tuner.oracle import SKELETONS

    cache.SIM_CACHE.clear()
    cache._BASELINE_STORE.clear()
    SKELETONS.clear()


def program_counters() -> Dict[str, float]:
    """The program's deterministic work counters."""
    from repro.bench.cache import SIM_CACHE
    from repro.obs.metrics import METRICS

    counters = dict(METRICS.export()["counters"])
    counters["sim_cache.hits"] = SIM_CACHE.hits
    counters["sim_cache.misses"] = SIM_CACHE.misses
    return counters


def counter_delta(after: Dict, before: Dict) -> Dict:
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    return {k: v for k, v in delta.items() if v}


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


class SimWeak:
    """Build and orbit-``simulate`` weak-scaled matmul at 1k/4k nodes."""

    name = "sim_weak"
    clear_per_op = False
    NODES = (1024, 4096)
    ALGORITHMS = ("cannon", "summa", "johnson")

    def __init__(self):
        from repro.algorithms import matmul
        from repro.bench.weak_scaling import (
            cube_grid,
            square_grid,
            weak_matrix_size,
        )
        from repro.machine.cluster import Cluster
        from repro.machine.grid import Grid
        from repro.machine.machine import Machine
        from repro.sim.params import LASSEN

        self.params = LASSEN
        self.matmul = matmul
        #: op name -> (algorithm, machine, matrix side)
        self.points = {}
        for nodes in self.NODES:
            cluster = Cluster.cpu_cluster(nodes)
            p = cluster.num_processors
            n = weak_matrix_size(8192, nodes)
            for algo in self.ALGORITHMS:
                grid = cube_grid(p) if algo == "johnson" else square_grid(p)
                self.points[f"{algo}@{nodes}"] = (
                    algo, Machine(cluster, Grid(*grid)), n)
        # Warm-up: the cheapest op of the pass.
        self.run_op("johnson@1024")

    def kernel(self, name: str):
        algo, machine, n = self.points[name]
        # Looked up per call, so the traced run sees the wrapped builder.
        return getattr(self.matmul, algo)(machine, n)

    def op_names(self) -> List[str]:
        return list(self.points)

    def run_op(self, name: str):
        return self.kernel(name).simulate(self.params)

    @staticmethod
    def output(result) -> Dict:
        return report_digest(report_record(result))


class FigSweep:
    """Cold Fig 15a/15b/16 sweeps at 1..256 nodes, then the headline."""

    name = "fig_sweep"
    clear_per_op = False
    FIG16 = ("ttv", "innerprod", "ttm", "mttkrp")

    def __init__(self):
        from repro.bench import figures

        self.figures = figures
        # Warm-up: one sweep point (the figure drivers build their own
        # clusters and kernels).
        self.figures.fig16_higher_order("innerprod", node_counts=[1])
        clear_caches()

    def op_names(self) -> List[str]:
        return ["fig15a", "fig15b"] + [f"fig16_{k}" for k in self.FIG16]

    #: Always last: its points were simulated by fig15a/fig16 (all hits).
    final_op = "headline"

    def run_op(self, name: str):
        f = self.figures
        if name == "fig15a":
            return f.fig15a_cpu_matmul(node_counts=NODE_COUNTS)
        if name == "fig15b":
            return f.fig15b_gpu_matmul(node_counts=NODE_COUNTS)
        if name == "headline":
            return f.headline_speedups(node_counts=[NODE_COUNTS[-1]])
        kernel = name[len("fig16_"):]
        return f.fig16_higher_order(kernel, node_counts=NODE_COUNTS)

    @staticmethod
    def output(result):
        return result


class TuneCold:
    """Cold single-process ``Kernel.tune`` runs (seed 0, no ledger)."""

    name = "tune_cold"
    clear_per_op = True

    def __init__(self):
        from repro.bench.weak_scaling import weak_matrix_size
        from repro.core.kernel import Kernel
        from repro.machine.cluster import Cluster
        from repro.sim.params import LASSEN
        from repro.tuner import workloads

        self.tune = Kernel.tune
        self.params = LASSEN
        self.problems = {
            # Fig 9: matmul at 512 nodes, beam search.
            "fig9_matmul_512": (
                workloads.matmul(weak_matrix_size(8192, 512)),
                Cluster.cpu_cluster(512, system_mem_gib=16),
                {"strategy": "beam", "beam_width": 8},
            ),
            # Many small-grid traces: exhaustive MTTKRP on 4 nodes.
            "mttkrp_4": (
                workloads.mttkrp(256),
                Cluster.cpu_cluster(4),
                {"strategy": "exhaustive"},
            ),
            # ``python -m repro.tune --demo``.
            "demo_matmul_4": (
                workloads.matmul(4096),
                Cluster.cpu_cluster(4),
                {"strategy": "exhaustive"},
            ),
        }
        self.tune(workloads.matmul(256), Cluster.cpu_cluster(1),
                  self.params, jobs=1, seed=0)
        clear_caches()

    def op_names(self) -> List[str]:
        return list(self.problems)

    def run_op(self, name: str):
        assignment, cluster, options = self.problems[name]
        return self.tune(assignment, cluster, self.params, jobs=1, seed=0,
                         **options)

    @staticmethod
    def output(result) -> Dict:
        search = result.search
        return {
            "decision": result.answer.decision,
            "cost": search.best.cost,
            "space_size": search.space_size,
            "pruned_static": search.pruned_static,
            "evaluations": search.evaluations,
            "trace_executions": search.trace_executions,
            "repriced": search.repriced,
            "structures": search.structures,
        }


WORKLOADS = {w.name: w for w in (SimWeak, FigSweep, TuneCold)}


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------


def op_order(workload, seed: int) -> List[str]:
    names = workload.op_names()
    random.Random(seed).shuffle(names)
    final = getattr(workload, "final_op", None)
    return names + [final] if final else names


def run_pass(workload, order: List[str], between_ops=None,
             sampler: common.SpeedSampler = None
             ) -> Tuple[Dict[str, float], Dict[str, float], Dict, Dict]:
    """One pass; returns ``(op times, scaled op times, outputs, counter
    delta)``.

    The pass's wall time is the sum of its ops' times;
    ``between_ops(seconds so far)``, if given, runs after each op,
    outside the timed part. An op that raises records the exception
    text as its output, which never matches an expected output. With a
    ``sampler``, each op runs inside it and its scaled time is its time
    at the reference CPU speed: scaled by the samples taken during the
    op, or, for an op too short to be sampled, by the whole pass's.
    Without one, the scaled times are the times.
    """
    clear_caches()
    before = program_counters()
    results = {}
    times: Dict[str, float] = {}
    spans: Dict[str, Tuple[int, int]] = {}
    pass_first = len(sampler.samples) if sampler else 0
    for name in order:
        first = len(sampler.samples) if sampler else 0
        start = time.perf_counter()
        with sampler if sampler is not None else contextlib.nullcontext():
            if workload.clear_per_op:
                clear_caches()
            try:
                results[name] = workload.run_op(name)
            except Exception as err:  # an op failure, reported not raised
                results[name] = err
        times[name] = time.perf_counter() - start
        if sampler is not None:
            spans[name] = (first, len(sampler.samples))
        if between_ops is not None:
            between_ops(sum(times.values()))
    scaled = dict(times)
    if sampler is not None:
        pass_scale = sampler.scale(pass_first)
        if pass_scale is None:
            raise RuntimeError("no CPU speed sample in a whole pass")
        for name, (first, last) in spans.items():
            scaled[name] *= sampler.scale(first, last) or pass_scale
    outputs = {
        name: ({"error": f"{type(r).__name__}: {r}"}
               if isinstance(r, Exception) else workload.output(r))
        for name, r in results.items()
    }
    return times, scaled, outputs, counter_delta(program_counters(), before)


class SetupTimer:
    """Fresh-interpreter set-ups spread over the measured window.

    Set-up ``k`` of :data:`SETUP_SAMPLES` runs after the first op that
    ends past ``(k + 1/2) / SETUP_SAMPLES`` of the window (op time only:
    the set-ups themselves are not counted), so the samples see the
    whole run rather than one moment of it. Each set-up samples its own
    CPU speed (:class:`common.SpeedSampler`) and prints the scale;
    :attr:`times` holds the set-ups' times at the reference speed and
    :attr:`measured` their measured times. A set-up that fails or times
    out is a failed op.
    """

    def __init__(self, name: str, seconds: float, ops: common.OpLedger):
        self.name = name
        self.ops = ops
        self.slots = [seconds * (k + 0.5) / SETUP_SAMPLES
                      for k in range(SETUP_SAMPLES)]
        self.times: List[float] = []
        self.measured: List[float] = []

    def due(self, measured: float = math.inf):
        """Run every set-up whose slot ``measured`` seconds of op time
        have reached; with no argument, every one left."""
        while self.slots and measured >= self.slots[0]:
            self.slots.pop(0)
            tag = f"setup{SETUP_SAMPLES - len(self.slots) - 1}"
            try:
                took, out = common.timed_run(
                    [sys.executable, __file__, "--setup", self.name],
                    timeout=120)
                scale = float(out.split()[-1])
            except (OSError, RuntimeError, ValueError, IndexError) as err:
                self.ops.record(tag, False, f"{type(err).__name__}: {err}")
            else:
                self.ops.record(tag, True)
                self.measured.append(took)
                self.times.append(took * scale)


def check_pass(ops: common.OpLedger, expected: Dict, outputs: Dict,
               counters: Dict, reference_counters: Dict, tag: str):
    """Score one pass's outputs; a pass whose work counters differ from
    the first pass's fails every op."""
    same_work = counters == reference_counters
    for name, actual in outputs.items():
        if not same_work:
            ops.record(f"{tag}/{name}", False,
                       f"pass counters {counters} != first pass "
                       f"{reference_counters}")
        else:
            ops.check(f"{tag}/{name}", actual, expected[name])


def run(name: str, seed: int, seconds: float, trace: bool,
        expected: Dict = None) -> Tuple[common.OpLedger, Dict]:
    """One benchmark run of a batch workload; returns ops and metrics."""
    workload = WORKLOADS[name]()
    expected = expected if expected is not None else common.load_expected(
        name)
    order = op_order(workload, seed)
    ops = common.OpLedger()
    if trace:
        return ops, run_traced(workload, order, ops, expected, seconds)
    setups = SetupTimer(name, seconds, ops)
    sampler = common.SpeedSampler()
    measured = 0.0
    walls, scaled_walls = [], []
    op_times: Dict[str, List[float]] = {name: [] for name in order}
    reference = None
    while not walls or measured < seconds:
        times, scaled, outputs, counters = run_pass(
            workload, order, lambda t: setups.due(measured + t), sampler)
        walls.append(sum(times.values()))
        scaled_walls.append(sum(scaled.values()))
        measured += walls[-1]
        reference = counters if reference is None else reference
        check_pass(ops, expected, outputs, counters, reference,
                   f"pass{len(walls) - 1}")
        for op, took in scaled.items():
            op_times[op].append(took)
    setups.due()
    latency = op_latency_s(op_times)
    op_medians = {op: round(common.median(t), 3)
                  for op, t in op_times.items()}
    print(f"{name}: {len(walls)} passes, measured wall_s "
          f"{[round(w, 3) for w in walls]}, at the reference speed "
          f"{[round(w, 3) for w in scaled_walls]} ("
          f"{len(sampler.samples)} speed samples); measured setups "
          f"{[round(s, 3) for s in setups.measured]}, at the reference "
          f"speed {[round(s, 3) for s in setups.times]}; scaled op medians "
          f"{op_medians}", file=sys.stderr)
    return ops, {
        "setup_s": common.metric(common.median(setups.times), "s"),
        "wall_s": common.metric(common.median(scaled_walls), "s"),
        "latency_p50_ms": common.metric(latency * 1e3, "ms"),
        "success_rate": common.metric(ops.success_rate, "ratio"),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
    }


def op_latency_s(op_times: Dict[str, List[float]]) -> float:
    """The median op of the pass, each op taken at its median over the
    passes: the time a user waits for one answer. Medians of medians,
    so the value moves continuously with the ops' times even where the
    op list's times cluster."""
    return common.median([common.median(t) for t in op_times.values()])


# ----------------------------------------------------------------------
# The traced run.
# ----------------------------------------------------------------------

#: Layer labels whose self time the batch report carries.
SELF_TIME_LAYERS = (
    "runtime.orbit", "runtime.batched", "sim.time_trace", "sim.skeleton",
    "sim.price", "codegen.lower", "algorithms.build", "baselines",
    "bench.cache", "bench.figures", "analysis.prune", "tuner.enumerate",
    "tuner.realize", "tuner.oracle", "tuner.search",
)
#: Layer labels whose per-pass call count the batch report carries.
CALL_LAYERS = ("runtime.orbit", "runtime.batched", "codegen.lower",
               "baselines", "analysis.prune", "tuner.realize")


@dataclasses.dataclass
class TracedPass:
    wall: float
    layers: Dict[str, Dict]  # label -> calls, self_s, ...
    counts: Dict[str, float]  # counters the wrappers derived
    counters: Dict[str, float]  # the program's own counters

    def self_s(self, label: str) -> float:
        return self.layers.get(label, {}).get("self_s", 0.0)

    def calls(self, label: str) -> int:
        return self.layers.get(label, {}).get("calls", 0)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """This pass's per-layer metrics: name -> (value, unit)."""
        def ratio(num, den):
            return num / den if den else 0.0

        m = {f"{label}.self_s": (self.self_s(label), "s")
             for label in SELF_TIME_LAYERS}
        m.update({f"{label}.calls": (self.calls(label), "count")
                  for label in CALL_LAYERS})
        lookups = self.calls("bench.cache")
        misses = (self.counters.get("sim_cache.misses", 0)
                  + self.calls("baselines"))
        evaluations = self.counts.get("tuner.evaluations", 0)
        traces = self.counts.get("tuner.trace_executions", 0)
        m.update({
            "runtime.trace.copy_rows": (
                self.counts.get("runtime.trace.copy_rows", 0), "count"),
            "bench.cache.lookups": (lookups, "count"),
            "bench.cache.hit_ratio": (
                ratio(lookups - misses, lookups), "ratio"),
            "analysis.prune.ratio": (
                ratio(self.counts.get("analysis.prune.pruned", 0),
                      self.calls("analysis.prune")), "ratio"),
            "tuner.evaluations": (evaluations, "count"),
            "tuner.trace_executions": (traces, "count"),
            "tuner.trace_ratio": (ratio(traces, evaluations), "ratio"),
            "unattributed_s": (self.wall - sum(
                v["self_s"] for v in self.layers.values()), "s"),
        })
        return m


def run_traced(workload, order, ops, expected, seconds) -> Dict:
    """Untraced and traced passes, alternating, at least one of each.

    The untraced passes are the reference for the tracing overhead. Per
    traced pass, every wrapped label's self time and call count is
    taken; call counts must repeat exactly across traced passes.
    """
    import layers

    deadline = common.Deadline(seconds)
    untraced_walls: List[float] = []
    passes: List[TracedPass] = []
    reference = None
    while not (untraced_walls and passes) or not deadline.expired():
        traced = len(passes) < len(untraced_walls)
        tracer = layers.Tracer()
        if traced:
            layers.install_program_layers(tracer)
        try:
            times, _scaled, outputs, counters = run_pass(workload, order)
        finally:
            tracer.uninstall()
        wall = sum(times.values())
        reference = counters if reference is None else reference
        tag = (f"traced{len(passes)}" if traced
               else f"untraced{len(untraced_walls)}")
        check_pass(ops, expected, outputs, counters, reference, tag)
        if traced:
            passes.append(TracedPass(wall, tracer.snapshot(),
                                     dict(tracer.counts), counters))
        else:
            untraced_walls.append(wall)

    first_calls = {k: v["calls"] for k, v in passes[0].layers.items()}
    for i, p in enumerate(passes[1:], 1):
        calls = {k: v["calls"] for k, v in p.layers.items()}
        ops.record(f"traced{i}/call-counts", calls == first_calls,
                   f"{calls} != {first_calls}")

    per_pass = [p.metrics() for p in passes]
    m = {name: common.metric(
            statistics.median(values[name][0] for values in per_pass), unit)
         for name, (_value, unit) in per_pass[0].items()}
    untraced_wall = statistics.median(untraced_walls)
    traced_wall = statistics.median(p.wall for p in passes)
    m["trace_overhead_ratio"] = common.metric(traced_wall / untraced_wall,
                                              "ratio")
    print_layer_table(workload.name, passes, traced_wall, untraced_wall)
    return m


def print_layer_table(name: str, passes: List[TracedPass],
                      traced_wall: float, untraced_wall: float):
    """The per-layer report: median self time and calls per pass."""
    labels = sorted({k for p in passes for k in p.layers})
    rows = sorted(
        ((statistics.median(p.self_s(label) for p in passes), label,
          statistics.median(p.calls(label) for p in passes))
         for label in labels),
        reverse=True)
    rest = traced_wall - sum(r[0] for r in rows)
    print(f"\n== {name}: per-layer self time, median of {len(passes)} "
          f"traced passes ==")
    print(f"{'layer':<22}{'self_s':>10}{'share':>8}{'calls':>10}")
    for self_s, label, calls in rows:
        print(f"{label:<22}{self_s:>10.3f}{self_s / traced_wall:>8.1%}"
              f"{calls:>10.0f}")
    print(f"{'unattributed':<22}{rest:>10.3f}{rest / traced_wall:>8.1%}")
    print(f"traced pass {traced_wall:.3f}s vs untraced {untraced_wall:.3f}s "
          f"(overhead x{traced_wall / untraced_wall:.3f})\n")


def _setup_main(argv: List[str]) -> int:
    if len(argv) != 2 or argv[0] != "--setup" or argv[1] not in WORKLOADS:
        print(f"usage: batch.py --setup {{{','.join(WORKLOADS)}}}",
              file=sys.stderr)
        return 2
    with common.SpeedSampler() as sampler:
        WORKLOADS[argv[1]]()
    # The scale to the reference speed, for the timing parent.
    print(sampler.scale())
    return 0


if __name__ == "__main__":
    sys.exit(_setup_main(sys.argv[1:]))
