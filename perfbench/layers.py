"""Per-layer attribution for the traced benchmark run.

The benchmark never edits the program: it wraps the public functions
each layer exports, from outside, and records for every wrapped label

* ``calls`` — how many times it was entered;
* ``total_s`` — wall time inside it, nested wrapped calls included;
* ``self_s`` — ``total_s`` minus the time spent in nested wrapped calls,
  so the self times of all labels partition the covered time;
* ``self_cpu_s`` — the same partition of the calling thread's CPU time.

A wrapper replaces the function in its defining module *and* under every
alias another loaded module imported it as (``from x import f`` copies
the reference), so call sites that bound the name early are traced too.
Nesting is tracked per thread: the serving daemon calls into the tuner
from executor threads while its event loop answers hits.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    self_cpu_s: float = 0.0
    #: Per-call durations, kept only for labels that report percentiles.
    samples: List[float] = field(default_factory=list)


class Tracer:
    """Self-time and call-count accounting for wrapped callables."""

    def __init__(self, keep_samples=()):
        self.stats: Dict[str, LayerStat] = {}
        self.keep_samples = set(keep_samples)
        #: Counters the wrappers derive from arguments or results.
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, label, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``label`` (a string, or a function of the
        call's arguments returning one). ``on_result(tracer, result,
        args, kwargs)`` runs after a successful call."""

        label_of = label if callable(label) else (lambda *a, **k: label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label_of(*args, **kwargs)
            stack = self._stack()
            stack.append([0.0, 0.0])  # nested wall, nested CPU
            start_cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                elapsed_cpu = time.thread_time() - start_cpu
                nested, nested_cpu = stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += elapsed_cpu
                with self._lock:
                    stat = self.stats.setdefault(name, LayerStat())
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - nested
                    stat.self_cpu_s += elapsed_cpu - nested_cpu
                    if name in self.keep_samples:
                        stat.samples.append(elapsed)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def patch_function(self, module, name: str, label,
                       on_result: Optional[Callable] = None):
        """Wrap ``module.name`` and every loaded alias of it."""
        original = getattr(module, name)
        traced = self.wrap(label, original, on_result)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._undo.append(
                        functools.partial(setattr, mod, attr, original)
                    )

    def patch_method(self, owner, name: str, label,
                     on_result: Optional[Callable] = None):
        """Wrap a method (plain or static) on a class or an instance."""
        static = inspect.getattr_static(owner, name)
        if isinstance(static, staticmethod):
            traced = staticmethod(self.wrap(label, static.__func__,
                                            on_result))
        else:
            traced = self.wrap(label, getattr(owner, name), on_result)
        instance_attr = not inspect.isclass(owner) and name in vars(owner)
        setattr(owner, name, traced)
        if inspect.isclass(owner) or instance_attr:
            self._undo.append(
                functools.partial(setattr, owner, name, static)
            )
        else:
            self._undo.append(functools.partial(delattr, owner, name))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                name: {
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "self_cpu_s": s.self_cpu_s,
                    "samples": list(s.samples),
                }
                for name, s in self.stats.items()
            }


# ----------------------------------------------------------------------
# The layer map: which public functions belong to which layer.
# ----------------------------------------------------------------------

def _trace_label(kernel, *args, **kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "batched")
    return f"runtime.{mode}"


def _count_copy_rows(tracer: Tracer, result, args, kwargs):
    tracer.count(
        "runtime.trace.copy_rows",
        sum(len(step.copies) for step in result.trace.steps),
    )


def _count_prune(tracer: Tracer, result, args, kwargs):
    if result is not None:
        tracer.count("analysis.prune.pruned")


def _count_search(tracer: Tracer, result, args, kwargs):
    search = result.search
    tracer.count("tuner.evaluations", search.evaluations)
    tracer.count("tuner.trace_executions", search.trace_executions)


def install_program_layers(tracer: Tracer):
    """Wrap the simulate/figure/tune layers (the batch workloads)."""
    from repro.algorithms import higher_order, matmul
    from repro.analysis import prune
    from repro.baselines import cosma, ctf, scalapack
    from repro.bench import cache, figures, weak_scaling
    from repro.codegen import lower
    from repro.core.kernel import Kernel
    from repro.sim.costmodel import CostModel
    from repro.tuner import oracle, search, space
    import repro.api  # noqa: F401  (load every alias site first)
    import repro.bench.parallel  # noqa: F401
    import repro.runtime.orbit  # noqa: F401

    for module, names in (
        (matmul, ("cannon", "summa", "pumma", "johnson", "solomonik",
                  "cosma")),
        (higher_order, ("ttv", "innerprod", "ttm", "mttkrp")),
    ):
        for name in names:
            tracer.patch_function(module, name, "algorithms.build")
    tracer.patch_function(lower, "lower_to_plan", "codegen.lower")
    tracer.patch_method(Kernel, "trace", _trace_label, _count_copy_rows)
    tracer.patch_method(CostModel, "time_trace", "sim.time_trace")
    tracer.patch_method(CostModel, "skeleton_of", "sim.skeleton")
    tracer.patch_method(CostModel, "price_skeleton", "sim.price")
    for module, names in (
        (ctf, ("ctf_matmul", "ctf_ttv", "ctf_innerprod", "ctf_ttm",
               "ctf_mttkrp")),
        (scalapack, ("scalapack_matmul",)),
        (cosma, ("cosma_reference_matmul",)),
    ):
        for name in names:
            tracer.patch_function(module, name, "baselines")
    tracer.patch_method(cache.SIM_CACHE, "simulate", "bench.cache")
    tracer.patch_function(cache, "cached_baseline", "bench.cache")
    for name in ("fig15a_cpu_matmul", "fig15b_gpu_matmul",
                 "fig16_higher_order", "headline_speedups"):
        tracer.patch_function(figures, name, "bench.figures")
    tracer.patch_function(weak_scaling, "matmul_weak_scaling",
                          "bench.figures")
    tracer.patch_function(prune, "prune_reason", "analysis.prune",
                          _count_prune)
    tracer.patch_function(space, "enumerate_space", "tuner.enumerate")
    tracer.patch_function(space, "realize", "tuner.realize")
    tracer.patch_method(oracle.Oracle, "evaluate", "tuner.oracle")
    tracer.patch_function(oracle, "oracle_simulate", "tuner.oracle")
    tracer.patch_function(search, "tune", "tuner.search", _count_search)


def install_serve_layers(tracer: Tracer):
    """Wrap the daemon-side layers (inside the daemon process)."""
    from repro.api import ScheduleRequest
    from repro.serve import daemon, protocol, supervise

    tracer.patch_function(protocol, "decode", "serve.protocol")
    tracer.patch_function(protocol, "encode", "serve.protocol")
    tracer.patch_method(ScheduleRequest, "from_record",
                        "serve.daemon.fingerprint")
    tracer.patch_method(ScheduleRequest, "fingerprint",
                        "serve.daemon.fingerprint")
    tracer.patch_method(daemon.ScheduleServer, "_hit_response",
                        "serve.daemon.index")
    tracer.patch_function(supervise, "run_supervised", "serve.supervise")
    tracer.patch_method(daemon.ScheduleServer, "__init__",
                        "serve.index_load")
