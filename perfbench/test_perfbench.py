"""The benchmark's own checks: a wrong expected output must fail its op.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

Each test corrupts one expected output in memory (the shipped files are
never touched) and runs the real workload code, briefly.
"""

import asyncio
import copy
import os
import signal
import time

import pytest

import batch
import common
import layers
import serve_mix


def test_corrupted_sim_report_fails_only_its_op():
    expected = copy.deepcopy(common.load_expected("sim_weak"))
    expected["cannon@4096"]["total_time"] *= 1.0000001
    ops, metrics = batch.run("sim_weak", seed=0, seconds=0.001,
                             trace=False, expected=expected)
    assert ops.attempted == 6 + batch.SETUP_SAMPLES
    assert ops.failed == 1
    assert ops.reasons[0].startswith("pass0/cannon@4096")
    assert metrics["success_rate"]["value"] == pytest.approx(
        1 - 1 / ops.attempted)


def test_failed_setup_is_a_failed_op(monkeypatch):
    def exits_nonzero(cmd, timeout):
        raise RuntimeError(f"{cmd} exited with 1")

    monkeypatch.setattr(common, "timed_run", exits_nonzero)
    ops = common.OpLedger()
    setups = batch.SetupTimer("tune_cold", seconds=1.0, ops=ops)
    setups.due(0.6)
    setups.due()
    assert (ops.attempted, ops.failed) == (batch.SETUP_SAMPLES,
                                           batch.SETUP_SAMPLES)
    assert setups.times == []
    assert common.median(setups.times) == 0.0


def test_setup_time_is_scaled_by_the_setups_own_speed(monkeypatch):
    monkeypatch.setattr(common, "timed_run",
                        lambda cmd, timeout: (0.5, "0.8\n"))
    ops = common.OpLedger()
    setups = batch.SetupTimer("tune_cold", seconds=1.0, ops=ops)
    setups.due()
    assert (ops.attempted, ops.failed) == (batch.SETUP_SAMPLES, 0)
    assert setups.measured == [0.5] * batch.SETUP_SAMPLES
    assert setups.times == [pytest.approx(0.4)] * batch.SETUP_SAMPLES


def test_corrupted_serve_answer_fails_its_hits():
    expected = copy.deepcopy(common.load_expected("serve_mix"))
    expected["miss"]["ttv-cpu/size-up"]["decision"] = "grid=1;dist=i"
    ops, metrics = serve_mix.run(seed=0, seconds=1.0, trace=False,
                                 expected=expected)
    assert ops.failed == 1
    assert "miss/ttv-cpu/size-up" in ops.reasons[0]
    assert 0.0 < metrics["success_rate"]["value"] < 1.0


def test_silent_daemon_fails_outstanding_ops(monkeypatch, tmp_path):
    """A connection whose replies stop is marked broken; its unanswered
    requests count as failed and the run goes on."""
    monkeypatch.setattr(serve_mix, "RESPONSE_TIMEOUT_S", 0.2)
    hot = {"a": {"x": 1}}
    pool = {"m": ("a", {"y": 2})}

    async def scenario():
        async def silent(reader, writer):
            await reader.read()  # never answers
            writer.close()

        path = os.path.relpath(tmp_path / "s.sock")
        server = await asyncio.start_unix_server(silent, path)
        conns = []
        for _ in range(2):
            reader, writer = await asyncio.open_unix_connection(path)
            conns.append(serve_mix.Conn(reader, writer))
        hit_raw, miss_raw, hit_lat, miss_lat, _late = (
            await serve_mix.open_loop(conns[0], conns[1], ["a"] * 5,
                                      ["m"], hot, pool, 0.05))
        with pytest.raises(ConnectionError):
            await conns[0].write(b"{}\n")  # broken: fails at once
        for conn in conns:
            await conn.close()
        server.close()
        await server.wait_closed()
        return hit_raw, miss_raw, hit_lat, miss_lat

    hit_raw, miss_raw, hit_lat, miss_lat = asyncio.run(scenario())
    assert hit_raw == [None] * 5 and miss_raw == [None]
    assert hit_lat == [] and miss_lat == []
    ops = common.OpLedger()
    checker = serve_mix.Checker(ops, {})
    for line in hit_raw + miss_raw:
        checker.check("op", line, "hit", {})
    assert (ops.attempted, ops.failed) == (6, 6)


def test_result_holds_every_manifest_metric():
    """A traced run reports layers it does not measure as 0; an
    end-to-end metric cannot be left out, and units must match."""
    traced = common.complete(
        {"runtime.orbit.self_s": common.metric(1.5, "s")}, trace=True)
    assert list(traced) == list(common.manifest_units(trace=True))
    assert traced["runtime.orbit.self_s"]["value"] == 1.5
    assert traced["serve.hits"] == common.metric(0.0, "count")
    timed = {name: common.metric(1.0, unit)
             for name, unit in common.manifest_units(trace=False).items()}
    assert common.complete(timed, trace=False) == timed
    with pytest.raises(ValueError, match="missing"):
        common.complete(dict(list(timed.items())[1:]), trace=False)
    with pytest.raises(ValueError, match="wrong unit"):
        common.complete({**timed, "wall_s": common.metric(1.0, "ms")},
                        trace=False)
    with pytest.raises(ValueError, match="stray"):
        common.complete({**timed, "hit_qps": common.metric(1.0, "1/s")},
                        trace=False)


def test_speed_sampler_scales_to_the_reference_speed():
    sampler = common.SpeedSampler()
    assert sampler.scale() is None
    with sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ref = common.SpeedSampler.REFERENCE_S
    sampler.samples = [ref, 2 * ref, 2 * ref]
    # Half the reference speed for two thirds of the time.
    assert sampler.scale() == pytest.approx(2 / 3)
    assert sampler.scale(1) == pytest.approx(0.5)
    assert sampler.scale(3) is None


def test_pass_with_different_work_fails_every_op():
    ops = common.OpLedger()
    outputs = {"a": 1, "b": 2}
    batch.check_pass(ops, {"a": 1, "b": 2}, outputs, {"orbit.runs": 2},
                     {"orbit.runs": 2}, "pass0")
    batch.check_pass(ops, {"a": 1, "b": 2}, outputs, {"orbit.runs": 3},
                     {"orbit.runs": 2}, "pass1")
    assert (ops.attempted, ops.failed) == (4, 2)


def test_self_times_partition_nested_calls():
    tracer = layers.Tracer()

    def inner():  # busy, so it has CPU time to attribute
        end = time.perf_counter() + 0.02
        while time.perf_counter() < end:
            pass

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    stats = tracer.snapshot()
    assert stats["inner"]["calls"] == stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"])
    assert 0.005 < stats["outer"]["self_s"] < stats["inner"]["self_s"]
    # The outer call only sleeps: the CPU time is the inner call's.
    assert stats["outer"]["self_cpu_s"] < stats["inner"]["self_cpu_s"]
