"""Parity: every baseline prices the same through orbit and batched traces.

The comparison-system models (reference COSMA, CTF, ScaLAPACK) trace
real DISTAL kernels with the orbit-compressed interpreter. These tests
recompute each baseline with its traces forced onto the uncompressed
``batched`` interpreter and pin the two ``SimReport``s ``repr``-equal,
at the figure sweeps' weak-scaled problem sizes.
"""

import pytest

from repro.baselines.cosma import cosma_reference_matmul
from repro.baselines.ctf import (
    ctf_innerprod,
    ctf_matmul,
    ctf_mttkrp,
    ctf_ttm,
    ctf_ttv,
)
from repro.baselines.scalapack import scalapack_matmul
from repro.bench.weak_scaling import weak_cube_side, weak_matrix_size
from repro.core.kernel import Kernel
from repro.machine.cluster import Cluster
from repro.util.errors import OutOfMemoryError

NODES = [1, 4, 16]


def _matmul_cases(nodes):
    cpu = Cluster.cpu_cluster(nodes)
    n = weak_matrix_size(8192, nodes)
    return [
        (cosma_reference_matmul, (cpu, n), {}),
        (cosma_reference_matmul, (cpu, n), {"restricted_cpus": True}),
        (
            cosma_reference_matmul,
            (Cluster.gpu_cluster(nodes), weak_matrix_size(20000, nodes)),
            {},
        ),
        (ctf_matmul, (cpu, n), {}),
        (scalapack_matmul, (cpu, n), {}),
    ]


def _higher_order_cases(nodes):
    cpu = Cluster.cpu_cluster(nodes)
    n = weak_cube_side(700, nodes)
    return [
        (ctf_ttv, (cpu, n), {}),
        (ctf_innerprod, (cpu, n), {}),
        (ctf_ttm, (cpu, n, 64), {}),
        (ctf_mttkrp, (cpu, n, 64), {}),
    ]


def _report(fn, args, kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except OutOfMemoryError as err:  # OOM outcomes must match too
        return f"raised {err.memory_name} {err.needed_bytes}"


def _assert_parity(monkeypatch, cases):
    orbit = [_report(*case) for case in cases]
    original = Kernel.trace

    def batched_trace(self, *args, **kwargs):
        kwargs["mode"] = "batched"
        return original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "trace", batched_trace)
        batched = [_report(*case) for case in cases]
    for case, o, b in zip(cases, orbit, batched):
        assert o == b, f"{case[0].__name__}{case[1:]}: {o} != {b}"


@pytest.mark.parametrize("nodes", NODES)
def test_matmul_baselines_orbit_parity(monkeypatch, nodes):
    _assert_parity(monkeypatch, _matmul_cases(nodes))


@pytest.mark.parametrize("nodes", NODES)
def test_ctf_higher_order_orbit_parity(monkeypatch, nodes):
    _assert_parity(monkeypatch, _higher_order_cases(nodes))


def test_baselines_trace_through_orbit(monkeypatch):
    """No baseline falls back onto an uncompressed interpreter."""
    modes = []
    original = Kernel.trace

    def recording_trace(self, *args, **kwargs):
        modes.append(kwargs.get("mode", "batched"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "trace", recording_trace)
    for case in _matmul_cases(1) + _higher_order_cases(1):
        _report(*case)
    assert modes and set(modes) == {"orbit"}
