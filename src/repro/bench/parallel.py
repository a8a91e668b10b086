"""Process-parallel sweep driver for the figure generators.

Weak-scaling sweeps are embarrassingly parallel across node counts —
each point compiles and simulates its own kernels — but the paper's
figure tables must come back in axis order, and the keyed plan/trace
cache (:mod:`repro.bench.cache`) should stay warm across the whole
benchmark session. The driver therefore:

* forks one worker per point (``fork`` start method, so workers inherit
  the parent's warm cache for free);
* has every worker return its rows *plus* the cache entries it added
  (both the simulation cache and the baseline store) and its
  observability deltas (metric counters, wall-clock spans);
* merges those deltas back into the parent's process-global caches, so
  a figure computed with ``--jobs 8`` leaves the same cache state
  behind as a sequential run, and later figures (or
  ``headline_speedups``) reuse every simulated configuration.

On platforms without ``fork`` (or with ``jobs <= 1``) the driver simply
runs the points sequentially in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from typing import Callable, Dict, List, Sequence

from repro.bench.cache import (
    SIM_CACHE,
    baseline_key_set,
    export_baselines,
    install_baselines,
)
from repro.obs.metrics import METRICS
from repro.obs.spans import export_spans, install_spans, span_mark

#: Resolved lazily per worker; maps registered sweep names to callables.
_SWEEPS: Dict[str, Callable] = {}

#: Serializes the parent-side cache/metrics merge (and the sequential
#: fallback, which mutates the globals directly). The serving daemon
#: dispatches sweeps from an executor thread while its event loop keeps
#: answering hits on the main thread; without this, two concurrent
#: ``run_points`` calls could interleave their installs.
_DISPATCH_LOCK = threading.Lock()


def register_sweep(name: str, fn: Callable):
    """Make a sweep callable addressable by name (picklable dispatch)."""
    _SWEEPS[name] = fn


def _resolve(name: str) -> Callable:
    fn = _SWEEPS.get(name)
    if fn is not None:
        return fn
    # Import lazily so workers resolve the callable after the fork.
    from repro.bench import figures, weak_scaling
    from repro.tuner import oracle as tuner_oracle

    from repro.serve import worker as serve_worker

    for module in (figures, weak_scaling, tuner_oracle, serve_worker):
        fn = getattr(module, name, None)
        if fn is not None:
            return fn
    raise ValueError(f"unknown sweep {name!r}")


def _run_point(payload):
    """One worker task; never raises.

    Exceptions are shipped back as ``("err", traceback text)`` instead
    of propagating: a raising worker would poison the whole
    ``pool.map`` and lose the other points' finished work, so the
    parent decides what to do (retry in-process, then surface the
    original worker traceback).
    """
    name, kwargs = payload
    sim_before = SIM_CACHE.key_set()
    base_before = baseline_key_set()
    metrics_before = METRICS.export()
    mark = span_mark()
    try:
        rows = _resolve(name)(**kwargs)
    except Exception:
        return ("err", traceback.format_exc())
    # The observability deltas ride the same envelope as the cache
    # deltas: a forked worker inherited the parent's counters and span
    # list, so only what accumulated after the fork ships back.
    return ("ok", (
        rows,
        SIM_CACHE.export(exclude=sim_before),
        export_baselines(exclude=base_before),
        METRICS.delta(metrics_before),
        export_spans(since=mark),
    ))


def run_points(
    name: str,
    per_point_kwargs: Sequence[dict],
    jobs: int,
    costs: Sequence[float] = None,
    always_fork: bool = False,
) -> List:
    """Run one sweep function over many kwargs sets, possibly in parallel.

    Returns the concatenated row lists in input order. With ``jobs > 1``
    the points run in forked worker processes and their cache deltas are
    merged back into this process's global caches.

    ``costs`` (optional, one per point) orders the dispatch: expensive
    points start first, one task per worker pull (no chunk batching), so
    a sweep's largest configurations never serialize behind each other
    in one worker while the others sit idle. Row order is unaffected.

    ``always_fork`` forks even for a single point or ``jobs=1``: the
    serving daemon uses it so a lone cold tune still runs in a child
    process, keeping the parent's event loop (the microsecond hit path)
    free of GIL-heavy simulation work. Platforms without ``fork`` fall
    back to the sequential path regardless.
    """
    tasks = [(name, kwargs) for kwargs in per_point_kwargs]
    # More workers than cores just adds fork and scheduling overhead —
    # single-core runners (CI containers) degrade to a clean sequential
    # pass instead of time-slicing forks.
    jobs = max(1, min(jobs, len(tasks), os.cpu_count() or 1))
    sequential = jobs <= 1 or len(tasks) <= 1
    if always_fork and tasks:
        sequential = False
    if sequential or not _fork_available():
        with _DISPATCH_LOCK:
            rows: List = []
            for task in tasks:
                rows.extend(_resolve(name)(**task[1]))
            return rows
    order = list(range(len(tasks)))
    if costs is not None:
        order.sort(key=lambda i: -costs[i])
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=jobs) as pool:
        dispatched = pool.map(
            _run_point, [tasks[i] for i in order], chunksize=1
        )
    results = [None] * len(tasks)
    for slot, result in zip(order, dispatched):
        results[slot] = result
    rows = []
    with _DISPATCH_LOCK:
        for slot, outcome in enumerate(results):
            status, result = outcome
            if status == "err":
                # Retry the failed point once, sequentially in this
                # process: transient worker trouble (a fork inheriting a
                # torn cache, resource exhaustion under full fan-out)
                # often clears on resubmission. A second failure
                # surfaces the *original worker* traceback — the retry
                # may fail differently, but the first crash is what to
                # debug.
                status, result = _retry_point(tasks[slot], result)
            point_rows, sim_delta, base_delta, metrics_delta, spans = result
            SIM_CACHE.install(sim_delta)
            install_baselines(base_delta)
            METRICS.install(metrics_delta)
            install_spans(spans)
            rows.extend(point_rows)
    return rows


def _retry_point(task, worker_traceback: str):
    """Second (in-process) attempt at a point whose worker failed."""
    METRICS.inc("bench.pool_retries")
    try:
        return _run_point_strict(task)
    except Exception as retry_err:
        raise RuntimeError(
            f"sweep point {task[0]!r} failed in a pool worker and "
            f"again on in-process retry ({type(retry_err).__name__}: "
            f"{retry_err}); original worker traceback:\n"
            f"{worker_traceback}"
        ) from retry_err


def _run_point_strict(payload):
    """Like :func:`_run_point`, but lets exceptions propagate.

    Runs in the parent process, where metrics and spans accumulate in
    the live registry directly — the envelope ships empty deltas so the
    caller's install is a no-op rather than a double count.
    """
    name, kwargs = payload
    sim_before = SIM_CACHE.key_set()
    base_before = baseline_key_set()
    rows = _resolve(name)(**kwargs)
    return ("ok", (
        rows,
        SIM_CACHE.export(exclude=sim_before),
        export_baselines(exclude=base_before),
        {},
        [],
    ))


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False
