"""Shared plumbing: statistics, memory, the result line, the op ledger."""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
#: The benchmark's manifest: its workloads and metrics with their units.
MANIFEST = ROOT / "BENCHMARK.json"
#: Scratch space for sockets, ledgers and logs — inside the checkout.
RUN_DIR = ROOT / ".perfbench_run"


def median(values: Sequence[float]) -> float:
    """The median; 0 for no values (only a run with failed ops has
    none)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class SpeedSampler:
    """The CPU's speed, sampled while an op runs.

    On a shared host the CPU this process runs on switches between a
    fast and a slow state (1.4–2x apart) that last from seconds to
    minutes, so op times from runs a few minutes apart disagree by more
    than any regression bound. Inside ``with sampler:`` a timer signal
    every :attr:`INTERVAL_S` runs :meth:`_sample` on the main thread
    between two bytecodes: it times a fixed loop of integer additions
    on the thread's CPU clock, so waiting for the GIL or for a CPU is
    not counted, only how fast the CPU executes. No change to the
    program can make that loop faster or slower. :meth:`scale` turns
    seconds measured over a range of samples into seconds at the
    reference speed. The samples take about 2% of the op's time, on
    every run alike.
    """

    LOOPS = 10_000
    INTERVAL_S = 0.02
    #: The loop's CPU time on the reference host: a 2-vCPU VM in its
    #: fast state.
    REFERENCE_S = 0.0004

    def __init__(self):
        self.samples: List[float] = []
        self._previous = None

    def _sample(self, _signum, _frame):
        start = time.thread_time()
        x = 0
        for k in range(self.LOOPS):
            x += k
        took = time.thread_time() - start
        if took > 0:
            self.samples.append(took)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int = 0, last: Optional[int] = None
              ) -> Optional[float]:
        """Reference seconds per measured second over
        ``samples[first:last]``: the mean speed relative to the
        reference, as time runs uniformly. ``None`` without samples."""
        window = self.samples[first:last]
        if not window:
            return None
        return self.REFERENCE_S * statistics.fmean(1 / t for t in window)


def load_expected(workload: str) -> Dict:
    with open(EXPECTED_DIR / f"{workload}.json") as handle:
        return json.load(handle)


def canonical(value) -> str:
    """One comparable rendering: floats keep every digit (``repr``)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class OpLedger:
    """Counts attempted and failed operations, remembering why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, name: str, ok: bool, why: str = "", count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.reasons) < 20:
                self.reasons.append(f"{name}: {why}")

    def check(self, name: str, actual, expected) -> bool:
        ok = canonical(actual) == canonical(expected)
        self.record(name, ok, "" if ok else
                    f"got {canonical(actual)[:300]} expected "
                    f"{canonical(expected)[:300]}")
        return ok

    @property
    def success_rate(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def manifest_units(trace: bool) -> Dict[str, str]:
    """The manifest's metrics of one kind of run: name -> unit."""
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    kind = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in manifest[kind]}


def complete(metrics: Dict[str, Dict], trace: bool) -> Dict[str, Dict]:
    """Every manifest metric of the run's kind, in the manifest's order.

    A traced run reports 0 for the per-layer metrics of layers it does
    not measure on its workload (the batch layers on ``serve_mix``, the
    serve layers on the batch workloads). Every end-to-end metric must
    be measured. A metric the manifest does not name, or one in
    another unit, is a fault in the benchmark and raises.
    """
    units = manifest_units(trace)
    stray = sorted(set(metrics) - set(units))
    wrong = sorted(name for name, m in metrics.items()
                   if name in units and m["unit"] != units[name])
    missing = [name for name in units if name not in metrics]
    if stray or wrong or (missing and not trace):
        raise ValueError(f"metrics disagree with {MANIFEST.name}: stray "
                         f"{stray}, wrong unit {wrong}, missing {missing}")
    return {name: metrics.get(name, metric(0.0, unit))
            for name, unit in units.items()}


def emit(ops: OpLedger, metrics: Dict[str, Dict], correct: bool = True):
    """Print the result object as the last line of standard output."""
    for reason in ops.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    payload = {
        "correct": bool(correct and ops.failed == 0 and ops.attempted > 0),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)


class Deadline:
    """The measurement window of one run."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def expired(self) -> bool:
        return self.elapsed() >= self.seconds


def timed_run(cmd: List[str], timeout: float) -> Tuple[float, str]:
    """Run ``cmd`` from the checkout root; returns the seconds from
    spawn to exit and its standard output.

    The wait blocks in reading the output to its end and then in
    ``waitpid`` (``subprocess.run(timeout=...)`` polls with growing
    sleeps, which would quantize the time); a timer kills the child if
    it outlives ``timeout``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{cmd} exited with {code}")
    return elapsed, out


def src_path() -> Optional[Path]:
    src = ROOT / "src"
    return src if (src / "repro" / "__init__.py").is_file() else None


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
