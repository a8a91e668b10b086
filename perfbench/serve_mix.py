"""The ``serve_mix`` workload: the schedule-serving daemon under load.

The daemon runs as its own process (``python -m repro.serve``). Set-up
starts it on a fresh ledger, primes the hot set (six cold tunes, over
two connections so two tune workers run at once), shuts it down and
starts it again, so the index is rebuilt from the ledger shards;
``setup_s`` is the median over several such set-ups, each timed from
the first spawn to the first answered ping of the restarted daemon.

Load comes from this one asyncio process over two unix-socket
connections, never more:

* an **open-loop hit stream** at :data:`HIT_RATE` requests/s on one
  connection, each a seeded skewed draw from the hot set;
* an **open-loop miss stream** on the other: every request of the miss
  pool (never-seen structural neighbours of the hot set) once, in a
  seeded order, evenly spaced over the window. Each takes the daemon's
  warm-start path and writes a ledger shard.

Latency is timed from each request's due time, so a stalled daemon is
charged for the wait it imposes on later requests. After each segment
of the window, with no miss in flight, a pipelined burst on one
connection measures the hit capacity (``wall_s`` is the mean burst
time). Every answer is compared with the canonical answer from
offline ``repro.api.tune_request`` (``expected/serve_mix.json``) and the
daemon's ``stats`` counters are reconciled with the requests sent.
Shut-down closes both clients, waiting until the daemon has closed its
side of each, then sends SIGTERM (see :meth:`Daemon.shutdown`); any
traceback on the daemon's stderr fails the run.

Each miss is placed on one axis of the daemon's neighbour distance
(node count or problem volume) around its anchor, so its nearest tuned
neighbour is its anchor whatever other misses were answered first: the
expected answers do not depend on the seeded order.

The traffic mix is an assumption, not measured traffic: the repository
holds no request log. The constants below say why each value was
picked; derive them from real logs once there are some.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

import common

#: Offered hit rate of the open loop (requests/s). Assumed: about a
#: fifth of the pipelined burst capacity measured on a 2-vCPU VM
#: (~10,000 hits/s), so the daemon runs far from saturation and
#: ``latency_p50_ms`` is service plus transport time, not queueing.
HIT_RATE = 2000.0
#: The window is cut into segments; each runs both open-loop streams,
#: then, with no miss in flight, one pipelined burst of :data:`BURST`
#: hits. ``latency_p50_ms`` (and the traced run's ``serve.hit_p99_ms``)
#: is the median of the segments' hit-latency percentiles, so a
#: disturbance confined to a few segments does not move it. ``wall_s``
#: is all bursts' time over their number (see :func:`burst_seconds`).
SEGMENTS = 12
BURST = 4000
#: Set-ups per timed run (``setup_s`` = median). Each costs ~2 s, and
#: this set-up spreads far less than a batch one, so five suffice.
SETUP_SAMPLES = 5
#: Sequential pings for the traced run's transport floor.
PING_SAMPLES = 300
#: Zipf exponent of the hot-set draw. Assumed: it gives the six anchors
#: about 46%, 20%, 12%, 9%, 7% and 5% of the hits. A hit is one dict
#: lookup and the encoding of one answer, so the skew only sets the mix
#: of answer sizes encoded; it is not a lever on this daemon's cost.
SKEW = 1.2
#: Longest wait for any single response before the connection counts
#: as broken and its outstanding ops as failed.
RESPONSE_TIMEOUT_S = 30.0

#: The hot set: (name, workload, side, machine kind, nodes). Assumed:
#: one request per kernel family and machine kind the warm-start path
#: serves (matmul on three machine kinds, TTV on two, TTM), each with
#: its own structure key (einsum x machine anatomy), so misses only
#: ever see their own anchor as a neighbour. Small sides keep the six
#: cold priming tunes, which every set-up pays, short.
ANCHORS = (
    ("matmul-cpu", "matmul", 512, "cpu", 2),
    ("matmul-gpu", "matmul", 512, "gpu", 2),
    ("matmul-lean", "matmul", 512, "lean", 2),
    ("ttv-cpu", "ttv", 64, "cpu", 2),
    ("ttv-gpu", "ttv", 64, "gpu", 2),
    ("ttm-cpu", "ttm", 64, "cpu", 2),
)
#: Miss variants of an anchor, one per axis direction of the distance:
#: 24 misses per run, two a second at 12 s; at ~90 ms each they keep
#: one tune worker busy about a fifth of the time. The 9/8 and 7/8 side
#: steps are the smallest that change the request's fingerprint while
#: staying nearer the anchor than any other miss.
VARIANTS = (
    ("nodes-up", lambda n, nodes: (n, nodes * 2)),
    ("nodes-down", lambda n, nodes: (n, nodes // 2)),
    ("size-up", lambda n, nodes: (n * 9 // 8, nodes)),
    ("size-down", lambda n, nodes: (n * 7 // 8, nodes)),
)


# ----------------------------------------------------------------------
# Requests and their offline answers.
# ----------------------------------------------------------------------


def _cluster(kind: str, nodes: int):
    from repro.machine.cluster import Cluster
    from repro.tuner.workloads import lean_cluster

    if kind == "cpu":
        return Cluster.cpu_cluster(nodes)
    if kind == "gpu":
        return Cluster.gpu_cluster(nodes)
    return lean_cluster(nodes)


def _request(workload: str, n: int, kind: str, nodes: int):
    from repro.api import ScheduleRequest
    from repro.tuner.workloads import sized

    return ScheduleRequest.from_assignment(
        sized(workload, n), _cluster(kind, nodes))


def hot_set() -> Dict[str, Dict]:
    """Anchor name -> request record."""
    return {name: _request(w, n, kind, nodes).to_record()
            for name, w, n, kind, nodes in ANCHORS}


def miss_pool() -> Dict[str, Tuple[str, Dict]]:
    """Miss name -> (anchor name, request record)."""
    pool = {}
    for name, w, n, kind, nodes in ANCHORS:
        for variant, move in VARIANTS:
            size, count = move(n, nodes)
            pool[f"{name}/{variant}"] = (
                name, _request(w, size, kind, count).to_record())
    return pool


def check_pool_geometry(hot: Dict, pool: Dict):
    """Each miss's nearest tuned neighbour must be its anchor even with
    every other miss already answered. Asked of the daemon's own
    neighbour search, run over a stand-in index."""
    from types import SimpleNamespace

    from repro.api import ScheduleRequest
    from repro.serve.daemon import ScheduleServer

    index = SimpleNamespace(index={}, neighborhoods={})
    records = dict(hot)
    records.update((name, record) for name, (_a, record) in pool.items())
    fingerprints = {}
    for name, record in records.items():
        fp = ScheduleRequest.from_record(record).fingerprint()
        fingerprints[name] = fp
        ScheduleServer._index_answer(index, fp, {
            "request": record, "answer": {"decision": name, "cost": 1.0}})
    for name, (anchor, record) in pool.items():
        nearest = ScheduleServer._neighbor_decision(
            index, ScheduleRequest.from_record(record), fingerprints[name])
        if nearest != anchor:
            raise SystemExit(f"{name}: nearest neighbour {nearest}, not "
                             f"its anchor {anchor}")


def offline_answers() -> Dict:
    """Canonical answers: cold tunes of the anchors, and warm tunes of
    each miss from its anchor's decision (what the daemon does)."""
    from repro.api import ScheduleRequest, tune_request
    from repro.tuner.space import Decision

    hot = hot_set()
    pool = miss_pool()
    check_pool_geometry(hot, pool)
    out = {"hot": {}, "miss": {}}
    decisions = {}
    for name, record in hot.items():
        result = tune_request(ScheduleRequest.from_record(record))
        decisions[name] = result.answer.decision
        out["hot"][name] = result.answer.canonical_record()
    for name, (anchor, record) in pool.items():
        result = tune_request(
            ScheduleRequest.from_record(record),
            warm_start=Decision.decode(decisions[anchor]),
            strategy="warm",
        )
        out["miss"][name] = result.answer.canonical_record()
    return out


# ----------------------------------------------------------------------
# The daemon process and its connections.
# ----------------------------------------------------------------------


def _line(message: Dict) -> bytes:
    return (common.canonical(message) + "\n").encode()


def schedule_line(record: Dict) -> bytes:
    return _line({"op": "schedule", "request": record, "wait": True})


class Daemon:
    """One ``repro.serve`` process on a ledger root and unix socket."""

    def __init__(self, workdir: Path, tag: str,
                 layer_out: Optional[Path] = None):
        self.ledger = workdir / "ledger"
        # Relative to the checkout root (the daemon's and our cwd):
        # unix socket paths are limited to ~100 bytes.
        self.socket = os.path.relpath(workdir / f"{tag}.sock",
                                      common.ROOT)
        self.stderr_path = workdir / f"{tag}.stderr"
        self.layer_out = layer_out
        self.proc: Optional[subprocess.Popen] = None

    def start(self):
        serve_args = ["--ledger", str(self.ledger), "--socket",
                      self.socket, "--jobs", "2"]
        if self.layer_out is None:
            cmd = [sys.executable, "-m", "repro.serve"] + serve_args
        else:
            cmd = [sys.executable,
                   str(common.BENCH_DIR / "serve_launcher.py"),
                   str(self.layer_out), "--"] + serve_args
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                cmd, cwd=common.ROOT, env=common.child_env(),
                stdout=subprocess.DEVNULL, stderr=stderr)
        return self

    async def connect(self, timeout: float = 30.0) -> "Conn":
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}: "
                    f"{self.stderr_text()[-2000:]}")
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.socket, limit=1 << 22)
                return Conn(reader, writer)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.002)

    def peak_rss_mb(self) -> float:
        return common.pid_peak_rss_mb(self.proc.pid)

    def loop_cpu_s(self) -> float:
        """User plus system CPU seconds of the daemon's main thread,
        which runs its event loop."""
        pid = self.proc.pid
        with open(f"/proc/{pid}/task/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def stderr_text(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")
        except FileNotFoundError:
            return ""

    async def shutdown(self, ops: common.OpLedger, timeout: float = 30.0):
        """Stop the daemon (callers have closed their connections with
        :meth:`Conn.close`) and wait for a clean exit; any traceback on
        stderr fails the run.

        It is stopped with SIGTERM, which runs the same drain as the
        ``shutdown`` op. The op cannot be used cleanly: its own
        connection is still open when the drain ends, the daemon's stop
        cancels that connection's task, and on Python 3.11 asyncio then
        logs a ``CancelledError`` traceback whenever the connection's
        EOF has not been read yet (seen in one of about 450 stops on a
        2-vCPU VM with both CPUs loaded).
        """
        self.proc.send_signal(signal.SIGTERM)
        loop = asyncio.get_running_loop()
        try:
            code = await asyncio.wait_for(
                loop.run_in_executor(None, self.proc.wait), timeout)
        except asyncio.TimeoutError:
            self.kill()
            code = None
        ops.record("daemon-exit", code == 0, f"exit code {code}")
        text = self.stderr_text()
        ops.record("daemon-stderr", "Traceback" not in text, text[-2000:])

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Conn:
    """One NDJSON connection; the daemon answers in order on it.

    A response that does not come within :data:`RESPONSE_TIMEOUT_S`, a
    closed socket or a broken pipe marks the connection broken: every
    later read or write on it raises :class:`ConnectionError` at once,
    so callers count their outstanding ops as failed instead of reading
    a late answer as the reply to another request.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.broken: Optional[str] = None
        #: Lines read but not yet returned, and the partial line after.
        self._lines: Deque[bytes] = collections.deque()
        self._tail = b""

    def _fail(self, why: str) -> ConnectionError:
        self.broken = self.broken or why
        return ConnectionError(self.broken)

    async def write(self, data: bytes):
        if self.broken:
            raise ConnectionError(self.broken)
        try:
            self.writer.write(data)
            await self.writer.drain()
        except OSError as err:
            raise self._fail(f"write failed: {err}") from err

    async def roundtrip(self, line: bytes) -> bytes:
        await self.write(line)
        return await self.readline()

    async def readline(self) -> bytes:
        """The next response line. Responses are read in chunks of as
        many as have arrived, so a pipelined burst costs the client one
        wait per chunk rather than one per line, and the daemon, not
        the client, sets the burst rate."""
        while not self._lines:
            if self.broken:
                raise ConnectionError(self.broken)
            try:
                chunk = await asyncio.wait_for(self.reader.read(1 << 16),
                                               RESPONSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                raise self._fail(
                    f"no response within {RESPONSE_TIMEOUT_S}s")
            except (OSError, ValueError) as err:
                raise self._fail(f"read failed: {err}") from err
            if not chunk:
                raise self._fail("daemon closed the connection")
            *lines, self._tail = (self._tail + chunk).split(b"\n")
            self._lines.extend(line + b"\n" for line in lines)
        return self._lines.popleft()

    async def close(self):
        """Half-close, wait until the daemon has closed its side, then
        close. The daemon's task for this connection has then ended, so
        stopping the daemon right after cancels no connection."""
        try:
            if not self.broken:
                self.writer.write_eof()
                while await asyncio.wait_for(self.reader.read(1 << 16),
                                             RESPONSE_TIMEOUT_S):
                    pass
        except (OSError, ValueError):
            pass  # broken or timed out: close regardless
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Answer checking.
# ----------------------------------------------------------------------


class Checker:
    """Scores response lines against the canonical answers; identical
    lines (every hit on one anchor) are decoded once."""

    def __init__(self, ops: common.OpLedger, expected: Dict):
        self.ops = ops
        self.expected = expected
        self._seen: Dict[Tuple[bytes, str, str], Tuple[bool, str]] = {}

    def check(self, tag: str, line: Optional[bytes], provenance: str,
              want: Dict):
        if line is None:
            self.ops.record(tag, False, "no response")
            return
        key = (line, provenance, common.canonical(want))
        verdict = self._seen.get(key)
        if verdict is None:
            verdict = self._judge(line, provenance, want)
            self._seen[key] = verdict
        self.ops.record(tag, *verdict)

    @staticmethod
    def _judge(line: bytes, provenance: str, want: Dict):
        try:
            reply = json.loads(line)
        except ValueError as err:
            return False, f"undecodable response: {err}"
        if reply.get("status") != "ok":
            return False, f"status {reply.get('status')}: {reply}"
        if reply.get("provenance") != provenance:
            return False, f"provenance {reply.get('provenance')!r}"
        answer = reply.get("answer", {})
        got = {k: answer.get(k) for k in want}
        if common.canonical(got) != common.canonical(want):
            return False, f"answer {got} != expected {want}"
        return True, ""


# ----------------------------------------------------------------------
# Set-up, load, bursts.
# ----------------------------------------------------------------------


async def prime(conn: Conn, names: List[str], hot: Dict, checker: Checker):
    for name in names:
        line = await conn.roundtrip(schedule_line(hot[name]))
        checker.check(f"prime/{name}", line, "tuned",
                      checker.expected["hot"][name])


async def setup_once(workdir: Path, hot: Dict, checker: Checker,
                     layer_out: Optional[Path] = None):
    """Start, prime, restart. Returns ``(daemon, connection, seconds)``
    with the restarted daemon answering on the connection."""
    start = time.perf_counter()
    first = Daemon(workdir, "first").start()
    try:
        a = await first.connect()
        b = await first.connect()
        names = list(hot)
        await asyncio.gather(prime(a, names[0::2], hot, checker),
                             prime(b, names[1::2], hot, checker))
        await b.close()
        await a.close()
        await first.shutdown(checker.ops)
    finally:
        first.kill()
    second = Daemon(workdir, "second", layer_out).start()
    try:
        conn = await second.connect()
        reply = json.loads(await conn.roundtrip(_line({"op": "ping"})))
    except BaseException:
        second.kill()
        raise
    seconds = time.perf_counter() - start
    checker.ops.record("ping", reply.get("pong") is True, str(reply))
    return second, conn, seconds


def _segment(items: List, k: int) -> List:
    return items[k * len(items) // SEGMENTS:(k + 1) * len(items) // SEGMENTS]


def hit_plan(seed: int, hot: Dict, seconds: float):
    """Seeded skewed draw over the hot set, one anchor per hit."""
    rng = random.Random(seed)
    names = list(hot)
    rng.shuffle(names)  # which anchor is hottest
    weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(names))]
    count = int(HIT_RATE * seconds)
    return rng.choices(names, weights=weights, k=count)


async def open_loop(hit_conn: Conn, miss_conn: Conn, hits: List[str],
                    misses: List[str], hot: Dict, pool: Dict,
                    seconds: float):
    """Both open-loop streams; returns raw responses and timings."""
    hit_lines = {name: schedule_line(record) for name, record in
                 hot.items()}
    n = len(hits)
    t0 = time.perf_counter() + 0.05
    hit_due = [t0 + i / HIT_RATE for i in range(n)]
    hit_sent = [0.0] * n
    hit_recv: List[Optional[float]] = [None] * n
    hit_raw: List[Optional[bytes]] = [None] * n
    gap = seconds / len(misses)
    miss_due = [t0 + (j + 0.5) * gap for j in range(len(misses))]
    miss_recv: List[Optional[float]] = [None] * len(misses)
    miss_raw: List[Optional[bytes]] = [None] * len(misses)

    async def send_hits():
        i = 0
        while i < n:
            now = time.perf_counter()
            if hit_due[i] > now:
                await asyncio.sleep(hit_due[i] - now)
                continue
            batch = []
            while i < n and hit_due[i] <= now:
                batch.append(hit_lines[hits[i]])
                hit_sent[i] = now
                i += 1
            await hit_conn.write(b"".join(batch))

    async def read_hits():
        for i in range(n):
            hit_raw[i] = await hit_conn.readline()
            hit_recv[i] = time.perf_counter()

    async def until_broken(stream):
        # A broken connection leaves its unanswered ops as ``None``,
        # which the checker counts as failed.
        try:
            await stream
        except ConnectionError:
            pass

    async def run_misses():
        for j, name in enumerate(misses):
            now = time.perf_counter()
            if miss_due[j] > now:
                await asyncio.sleep(miss_due[j] - now)
            miss_raw[j] = await miss_conn.roundtrip(
                schedule_line(pool[name][1]))
            miss_recv[j] = time.perf_counter()

    tasks = [asyncio.ensure_future(until_broken(c)) for c in
             (send_hits(), read_hits(), run_misses())]
    # A collector pause in the generator would read as daemon latency.
    gc.disable()
    try:
        await asyncio.gather(*tasks)
    finally:
        gc.enable()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    hit_lat = [(r - d) * 1e3 for r, d in zip(hit_recv, hit_due)
               if r is not None]
    late = [(s - d) * 1e3 for s, d in zip(hit_sent, hit_due)]
    miss_lat = [(r - d) * 1e3 for r, d in zip(miss_recv, miss_due)
                if r is not None]
    return hit_raw, miss_raw, hit_lat, miss_lat, late


async def burst(conn: Conn, lines: List[bytes]) -> Tuple[float,
                                                       List[bytes]]:
    """``lines`` pipelined on one connection; returns (seconds, replies).
    On a broken connection the replies stop short."""
    replies: List[bytes] = []

    async def write():
        for start in range(0, len(lines), 100):
            await conn.write(b"".join(lines[start:start + 100]))

    async def read():
        for _ in lines:
            replies.append(await conn.readline())

    start = time.perf_counter()
    await asyncio.gather(write(), read(), return_exceptions=True)
    return time.perf_counter() - start, replies


async def bursts(conn: Conn, hot: Dict, checker: Checker, tag: str,
                 rounds: int, start: int = 0) -> List[float]:
    """Pipelined hit bursts; returns hits/s. Every burst cycles through
    the hot set in the same order, so every burst encodes the same mix
    of answer sizes (a burst of one anchor's hits would run at that
    anchor's rate, and the median over anchors would jump between
    them)."""
    rates = []
    names = sorted(hot)
    order = [names[i % len(names)] for i in range(BURST)]
    lines = [schedule_line(hot[name]) for name in order]
    for k in range(start, start + rounds):
        seconds, replies = await burst(conn, lines)
        if len(replies) == BURST:
            rates.append(BURST / seconds)
        replies += [None] * (BURST - len(replies))
        for i, (name, reply) in enumerate(zip(order, replies)):
            checker.check(f"{tag}{k}/{i}", reply, "hit",
                          checker.expected["hot"][name])
    return rates


def burst_rate(rates: List[float]) -> float:
    """Hits per second over all bursts together: their total hits over
    their total time, i.e. the harmonic mean of the equal-sized bursts'
    rates. Not their median: on a shared host a burst runs in one of
    two speed modes (about 8,000 or 14,000 hits/s on a 2-vCPU VM), and
    the median of a dozen bursts jumps between the modes."""
    return statistics.harmonic_mean(rates) if rates else 0.0


def burst_seconds(rates: List[float]) -> float:
    """The mean time of one :data:`BURST`-hit burst: the fixed op list
    this workload repeats, as a pass is for a batch workload. It is
    ``BURST`` over :func:`burst_rate`, the hit capacity."""
    return BURST / burst_rate(rates) if rates else 0.0


async def ping_floor(conn: Conn) -> List[float]:
    ping = _line({"op": "ping"})
    rtts = []
    for _ in range(PING_SAMPLES):
        start = time.perf_counter()
        await conn.roundtrip(ping)
        rtts.append((time.perf_counter() - start) * 1e3)
    return rtts


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool,
        expected: Dict = None) -> Tuple[common.OpLedger, Dict]:
    os.chdir(common.ROOT)
    common.RUN_DIR.mkdir(exist_ok=True)
    workdir = common.RUN_DIR / f"serve-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    expected = expected if expected is not None else common.load_expected(
        "serve_mix")
    try:
        return asyncio.run(_run(seed, seconds, trace, workdir, expected))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            common.RUN_DIR.rmdir()
        except OSError:
            pass  # another run still uses it


@dataclasses.dataclass
class Window:
    """What the measured phase observed."""

    hit_lat: List[float] = dataclasses.field(default_factory=list)
    seg_p50: List[float] = dataclasses.field(default_factory=list)
    seg_p99: List[float] = dataclasses.field(default_factory=list)
    miss_lat: List[float] = dataclasses.field(default_factory=list)
    late: List[float] = dataclasses.field(default_factory=list)
    rates: List[float] = dataclasses.field(default_factory=list)
    pings: List[float] = dataclasses.field(default_factory=list)
    counters: Dict = dataclasses.field(default_factory=dict)
    rss_mb: float = 0.0
    #: CPU seconds of the daemon's event-loop thread after set-up.
    loop_cpu_s: float = 0.0
    #: Measured-phase requests whose answers have been checked.
    checked: int = 0


async def measure(w: Window, daemon: Daemon, conn: Conn, hits: List[str],
                  misses: List[str], hot: Dict, pool: Dict, seconds: float,
                  checker: Checker, trace: bool, loop_cpu_start: float,
                  earlier_hits: int):
    """Segments of open-loop load and a burst each, then the counters,
    recorded into ``w``; ``earlier_hits`` were sent to this daemon
    before. Closes both connections and shuts the daemon down."""
    miss_conn = await daemon.connect()
    for k in range(SEGMENTS):
        seg_hits = _segment(hits, k)
        seg_misses = _segment(misses, k)
        hit_raw, miss_raw, lat_h, lat_m, late = await open_loop(
            conn, miss_conn, seg_hits, seg_misses, hot, pool,
            seconds / SEGMENTS)
        w.hit_lat += lat_h
        if lat_h:
            w.seg_p50.append(common.percentile(lat_h, 50))
            w.seg_p99.append(common.percentile(lat_h, 99))
        w.miss_lat += lat_m
        w.late += late
        for i, (name, line) in enumerate(zip(seg_hits, hit_raw)):
            checker.check(f"hit{k}/{i}", line, "hit",
                          checker.expected["hot"][name])
        for name, line in zip(seg_misses, miss_raw):
            checker.check(f"miss/{name}", line, "warm-started",
                          checker.expected["miss"][name])
        w.checked += len(seg_hits) + len(seg_misses)
        w.rates += await bursts(conn, hot, checker, "burst", 1, start=k)
        w.checked += BURST
    if trace:
        w.pings = await ping_floor(conn)
    stats = json.loads(await miss_conn.roundtrip(_line({"op": "stats"})))
    w.counters = stats.get("counters", {})
    reconcile(checker.ops, w.counters,
              sent_hits=earlier_hits + len(hits) + SEGMENTS * BURST,
              sent_misses=len(misses))
    w.rss_mb = daemon.peak_rss_mb()
    w.loop_cpu_s = daemon.loop_cpu_s() - loop_cpu_start
    await conn.close()
    await miss_conn.close()
    await daemon.shutdown(checker.ops)


async def _run(seed, seconds, trace, workdir: Path, expected: Dict):
    ops = common.OpLedger()
    checker = Checker(ops, expected)
    hot = hot_set()
    pool = miss_pool()
    rng = random.Random(seed)
    misses = sorted(pool)
    rng.shuffle(misses)
    hits = hit_plan(rng.randrange(1 << 30), hot, seconds)

    setup_times: List[float] = []
    # The traced run sets up twice, the second time with the daemon
    # wrapped, and bursts right after each restart: same point in the
    # run, same index, so the burst rates differ only by the tracing.
    overhead_rates: List[List[float]] = []
    layer_out = workdir / "layers.json" if trace else None
    samples = 2 if trace else SETUP_SAMPLES
    w = Window()
    daemon = None
    try:
        for k in range(samples):
            last = k == samples - 1
            sample_dir = workdir / f"setup{k}"
            sample_dir.mkdir(parents=True)
            daemon, conn, took = await setup_once(
                sample_dir, hot, checker,
                layer_out=layer_out if last else None)
            setup_times.append(took)
            loop_cpu_start = daemon.loop_cpu_s()
            if trace:
                overhead_rates.append(await bursts(
                    conn, hot, checker, f"overhead{k}-burst", SEGMENTS))
            if not last:
                await conn.close()
                await daemon.shutdown(ops)
        await measure(w, daemon, conn, hits, misses, hot, pool, seconds,
                      checker, trace, loop_cpu_start,
                      earlier_hits=SEGMENTS * BURST if trace else 0)
    except (OSError, RuntimeError, ValueError) as err:
        # Set-up failed, the daemon died, or a reply was not JSON: the
        # run still reports, with the failure counted.
        ops.record("run", False, f"aborted: {type(err).__name__}: {err}")
        outstanding = len(hits) + len(misses) + SEGMENTS * BURST - w.checked
        if outstanding:
            ops.record("unsent", False, f"{outstanding} requests never "
                       f"sent after the abort", count=outstanding)
    finally:
        if daemon is not None:
            daemon.kill()

    tail = {q: round(common.percentile(w.hit_lat, q), 3)
            for q in (50, 90, 99, 99.9, 100)}
    print(f"serve_mix: {len(hits)} hits, {len(misses)} misses; setups "
          f"{[round(s, 3) for s in setup_times]}; bursts "
          f"{[round(r) for r in w.rates]} hits/s; hit ms by percentile "
          f"{tail}; segment p99s {[round(x, 3) for x in w.seg_p99]}; "
          f"miss ms {sorted(round(x) for x in w.miss_lat)}",
          file=sys.stderr)
    if not trace:
        return ops, {
            "setup_s": common.metric(common.median(setup_times), "s"),
            "wall_s": common.metric(burst_seconds(w.rates), "s"),
            "latency_p50_ms": common.metric(common.median(w.seg_p50),
                                            "ms"),
            "success_rate": common.metric(ops.success_rate, "ratio"),
            "peak_rss_mb": common.metric(w.rss_mb, "MB"),
        }
    try:
        with open(layer_out) as handle:
            table = json.load(handle)["layers"]
    except (OSError, ValueError) as err:
        ops.record("layer-table", False, f"{type(err).__name__}: {err}")
        table = {}
    rates = [burst_rate(r) for r in overhead_rates] + [0.0, 0.0]
    return ops, traced_metrics(table, w, untraced_qps=rates[0],
                               traced_qps=rates[1])


def reconcile(ops: common.OpLedger, counters: Dict, sent_hits: int,
              sent_misses: int):
    """The daemon's counters must account for exactly what was sent."""
    want = {
        "serve.hits": sent_hits,
        "serve.misses": sent_misses,
        "serve.warm_started": sent_misses,
        "serve.tunes": sent_misses,
        "serve.deduped": 0,
        "serve.errors": 0,
        "serve.shed": 0,
        "serve.crashes": 0,
    }
    got = {name: counters.get(name, 0) for name in want}
    ops.record("stats-reconcile", got == want, f"{got} != {want}")


def traced_metrics(table: Dict, w: Window, untraced_qps: float,
                   traced_qps: float) -> Dict:
    def stat(label, key):
        return table.get(label, {}).get(key, 0.0)

    def samples(label):
        return table.get(label, {}).get("samples", [])

    on_loop = ("serve.protocol", "serve.daemon.fingerprint",
               "serve.daemon.index")
    counters = w.counters
    misses = counters.get("serve.misses", 0)
    m = {
        # Too host-sensitive to gate on (see README); reported unbounded.
        "serve.hit_p99_ms": common.metric(common.median(w.seg_p99), "ms"),
        "serve.ping_p50_ms": common.metric(common.median(w.pings), "ms"),
        "serve.miss_p50_ms": common.metric(common.median(w.miss_lat), "ms"),
        # The plain daemon's bursts, taken as wall_s's are.
        "serve.hit_qps": common.metric(untraced_qps, "1/s"),
        "serve.protocol.self_s": common.metric(
            stat("serve.protocol", "self_s"), "s"),
        "serve.daemon.fingerprint.self_s": common.metric(
            stat("serve.daemon.fingerprint", "self_s"), "s"),
        "serve.daemon.index.self_s": common.metric(
            stat("serve.daemon.index", "self_s"), "s"),
        "serve.supervise.miss_s": common.metric(
            common.median(samples("serve.supervise")), "s"),
        "serve.warm_ratio": common.metric(
            counters.get("serve.warm_started", 0) / misses if misses
            else 0.0, "ratio"),
        "serve.index_load_s": common.metric(
            (samples("serve.index_load") or [0.0])[-1], "s"),
        "loadgen.late_p99_ms": common.metric(
            common.percentile(w.late, 99), "ms"),
        # CPU against CPU: the loop thread's, minus the wrapped
        # event-loop layers' self CPU time on that thread.
        "unattributed_s": common.metric(
            w.loop_cpu_s - sum(stat(label, "self_cpu_s")
                               for label in on_loop), "s"),
        "trace_overhead_ratio": common.metric(
            untraced_qps / traced_qps if traced_qps else 0.0, "ratio"),
    }
    for name in ("serve.hits", "serve.misses", "serve.warm_started",
                 "serve.errors", "serve.shed"):
        m[name] = common.metric(counters.get(name, 0), "count")
    print("\n== serve_mix: daemon-side layers (whole traced daemon) ==")
    print(f"{'layer':<28}{'self_s':>10}{'self_cpu_s':>12}{'calls':>10}")
    for label, row in sorted(table.items(),
                             key=lambda kv: -kv[1]["self_s"]):
        print(f"{label:<28}{row['self_s']:>10.3f}{row['self_cpu_s']:>12.3f}"
              f"{row['calls']:>10d}")
    print(f"event-loop thread CPU after set-up {w.loop_cpu_s:.3f}s, of "
          f"which unattributed {m['unattributed_s']['value']:.3f}s; burst "
          f"{untraced_qps:.0f} hits/s untraced vs {traced_qps:.0f} traced "
          f"(each right after its daemon's restart)\n")
    return m
