"""``serve-mix``: an open loop over TCP to a ``repro.serve`` subprocess.

One generator process, one asyncio thread, two connections, four
equal-weight tenants (``t0``..``t3``, assigned round-robin).  The mix,
by request count, in blocks of 200 shuffled from the seed:

==========================  =====  =======================================
class                       share  request
==========================  =====  =======================================
``multiply``                40.5 % one SSA product of two 4096-bit ints
``rlwe-multiply-plain``     25 %   one RLWE ct×pt product, n=256
``dghv-mult``               20 %   one DGHV AND at ``TOY`` (2048-bit)
``rlwe-multiply``           14.5 % one RLWE ct×ct product, n=256, with its
                                   relin keys in the frame (~66 KB)
==========================  =====  =======================================

Every payload is JSON-encoded during set-up; sending splices in only
the request id and tenant.  The run has three measured phases:

- **open loop**: requests sent at a fixed rate (``OPEN_RATE``) in
  bursts of ``OPEN_BURST`` whatever the server does; latency is timed
  from each request's *scheduled* send time (its burst's), so a stall
  also delays the requests queued behind it.  A failed request ranks as
  a miss (``inf``).  Its tail is the traced run's ``latency_p99_ms``;
- **concurrent**: the same mix with ``CONCURRENT`` requests in flight,
  a new one sent as each answer arrives; ``latency_p50_ms`` is the
  median latency of this phase;
- **saturation**: the same mix, kept at ``WINDOW`` requests in flight
  (below the server's admission caps, so nothing is refused) for as
  long as the concurrent phase, then drained; ``ops_per_s`` is verified responses
  per second of this phase.

Every request of the mix is expected to succeed.  After the measured
phases come the ``oversize`` probes: ``dghv-mult`` at ``MEDIUM``
(16,384-bit) and ``multiply`` at 8,192 bits, one of each, one at a
time on connection 2, which reopens after each loss.  They are not
ops of the workload (not in ``attempted`` or ``failed``); they show two
known wire defects of the decimal-JSON protocol, both from Python's
4,300-digit int-string limit:

- a 16,384-bit operand makes ``json.loads`` raise ``ValueError`` in
  ``decode_body`` (``src/repro/serve/protocol.py:82`` catches only
  JSON errors); it escapes ``_handle_connection``
  (``src/repro/serve/service.py:227``) and the server closes the
  connection without an error frame — counted as ``closed``;
- an 8,192-bit ``multiply`` has a product over the limit; encoding the
  response raises past ``src/repro/serve/service.py:281``, so no
  response is ever sent — counted as ``no-response`` at the request's
  deadline.

The generator lifts the int-string limit in its own process only, so
it can build those frames and would parse their answers once the wire
is fixed.  Every response is checked against an oracle after the run:
big-int products, DGHV decryption, RLWE decryption against a Kronecker
negacyclic product.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import re
import struct
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import hwtable
from catalog import PER_LAYER_NAMES
from common import BENCH_DIR, OUT_DIR, emit, environment, log, peak_rss_mib
from layers import CLASSES, class_medians, job_waits, layer_metrics
from oracles import kronecker_negacyclic
from stats import percentile, samples_beyond
from tracer import spans_from_events, write_chrome_trace

LENGTH = struct.Struct(">I")
TENANTS = ("t0", "t1", "t2", "t3")
#: One block of the mix (200 requests).
BLOCK = (
    ("multiply", 81),
    ("rlwe-multiply-plain", 50),
    ("dghv-mult", 40),
    ("rlwe-multiply", 29),
)
BLOCK_SIZE = sum(count for _, count in BLOCK)
#: Distinct pre-encoded requests per class.
POOL = 16
#: Offered rate of the open-loop phase, requests per second.
OPEN_RATE = 200.0
#: Requests sent together at each scheduled instant of the open loop
#: (every 100 ms).  A burst keeps the server busy for its whole length,
#: so a request's latency is mostly the work queued ahead of it and not
#: the host's delay in waking an idle process.
OPEN_BURST = 20
#: Share of ``--seconds`` given to the open-loop phase (at 35 s: 10
#: blocks, two windows of 1,000 requests, 10 s).
OPEN_SHARE = 0.286
#: Requests in flight in the concurrent phase (eight per tenant), which
#: gets half of the time after the open loop (12.5 s at 35 s) and
#: saturation the other half.  The open loop's p50 is not steady enough
#: to bound on a shared host: the other tenants' load comes and goes in
#: stretches of seconds to minutes and the server idles between bursts,
#: so the p50 of whole runs of identical code ranged from 22 to 42 ms.  With
#: requests always queued the server never idles: over ten runs the
#: middle half of the p50s spread by 16 % of their median (14 % at 16 in
#: flight), against 6 % for the saturation throughput.
CONCURRENT = 32
#: ``latency_p99_ms`` is the lower (nearest-rank median) of the p99s of
#: this many consecutive open-loop windows, so one window hit by a host
#: stall does not set it; each window of 1,000 keeps ten samples beyond
#: its p99.
P99_WINDOWS = 2
#: Requests in flight during saturation (the server refuses beyond 64
#: queued per tenant and 256 in all).
WINDOW = 128
MAIN_DEADLINE_S = 10.0
OVERSIZE_DEADLINE_S = 1.5
SETUPS = 3
SERVER_START_TIMEOUT_S = 60.0
#: Whole-run ceiling: the server is killed and no result printed after it.
RUN_BUDGET_S = 160.0
LAUNCHER = str(BENCH_DIR / "serve_launcher.py")
RLWE_N, RLWE_T, RLWE_NOISE = 256, 17, 4
#: Failure each oversize probe is expected to hit at this commit.
OVERSIZE_DEFECT = {"dghv-mult": "closed", "multiply": "no-response"}


@dataclass
class Entry:
    """One pre-encoded request body (minus id/tenant) and its oracle."""

    op: str
    tail: bytes
    check: Callable[[object], bool]
    verified: Optional[str] = None  # JSON of a result already checked


@dataclass
class Req:
    rid: str
    cls: str
    entry: Entry
    phase: str
    t_sched: float = 0.0
    t_send: float = 0.0
    t_recv: float = 0.0
    status: str = ""
    #: The raw response frame body (kept unparsed until the checks, so
    #: the generator holds no large object graphs while it runs).
    body: bytes = b""
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    verified: bool = False


def _tail(op: str, payload: dict) -> bytes:
    body = json.dumps(
        {"type": "submit", "op": op, "priority": 0, "payload": payload},
        separators=(",", ":"),
    )
    return body[1:].encode()


def _frame(req: Req) -> bytes:
    """The wire frame: id and tenant spliced before the pre-encoded tail."""
    tenant = TENANTS[int(req.rid.rsplit(":", 1)[1]) % len(TENANTS)]
    body = f'{{"id":"{req.rid}","tenant":"{tenant}",'.encode() + req.entry.tail
    return LENGTH.pack(len(body)) + body


# -- set-up: keys and pre-encoded pools ------------------------------------------


def build_pools(seed: int):
    """Client keys and ``POOL`` pre-encoded requests per class."""
    from repro.field.vector import to_field_array
    from repro.fhe import DGHV, MEDIUM, RLWE, TOY, Ciphertext, RLWEParams
    from repro.fhe.rlwe import RLWECiphertext

    rng = random.Random(f"serve-{seed}")
    start = time.perf_counter()
    toy = DGHV(TOY, rng=random.Random(rng.getrandbits(64)))
    toy_keys = toy.keygen()
    medium = DGHV(MEDIUM, rng=random.Random(rng.getrandbits(64)))
    medium_keys = medium.keygen()
    rparams = RLWEParams(n=RLWE_N, t=RLWE_T, noise_bound=RLWE_NOISE)
    rlwe = RLWE(rparams, rng=random.Random(rng.getrandbits(64)))
    rkeys = rlwe.keygen()
    keygen_s = time.perf_counter() - start

    def product_entry(bits: int) -> Entry:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.getrandbits(bits) | (1 << (bits - 1))
        want = [a * b]
        return Entry("multiply", _tail("multiply", {"pairs": [[a, b]]}),
                     lambda result: result == want)

    def dghv_entry(scheme, keys, params) -> Entry:
        x, y = rng.getrandbits(1), rng.getrandbits(1)
        cx, cy = scheme.encrypt(keys, x), scheme.encrypt(keys, y)
        payload = {
            "params": {
                "name": params.name, "lam": params.lam, "rho": params.rho,
                "eta": params.eta, "gamma": params.gamma, "tau": params.tau,
            },
            "x0": keys.x0,
            "pairs": [[[cx.value, cx.noise_bits], [cy.value, cy.noise_bits]]],
        }

        def check(result) -> bool:
            value, noise = result[0]
            got = scheme.decrypt(keys, Ciphertext(value, noise, params))
            return len(result) == 1 and got == (x & y)

        return Entry("dghv-mult", _tail("dghv-mult", payload), check)

    def message() -> List[int]:
        return [rng.randrange(RLWE_T) for _ in range(RLWE_N)]

    def ints(row) -> List[int]:
        return [int(v) for v in row]

    def decrypts_to(result, want) -> bool:
        (c0, c1), = result
        ct = RLWECiphertext(
            c0=to_field_array(c0), c1=to_field_array(c1), params=rparams
        )
        return rlwe.decrypt(rkeys, ct) == want

    def plain_entry() -> Entry:
        m, plain = message(), message()
        ct = rlwe.encrypt(rkeys, m)
        want = kronecker_negacyclic(m, plain, RLWE_T)
        payload = {
            "n": RLWE_N, "t": RLWE_T, "noise_bound": RLWE_NOISE,
            "ciphertexts": [[ints(ct.c0), ints(ct.c1)]], "plains": [plain],
        }
        return Entry("rlwe-multiply-plain",
                     _tail("rlwe-multiply-plain", payload),
                     lambda result: decrypts_to(result, want))

    relin = rkeys.relin.to_payload()

    def ct_entry() -> Entry:
        m1, m2 = message(), message()
        c1, c2 = rlwe.encrypt(rkeys, m1), rlwe.encrypt(rkeys, m2)
        want = kronecker_negacyclic(m1, m2, RLWE_T)
        payload = {
            "n": RLWE_N, "t": RLWE_T, "noise_bound": RLWE_NOISE,
            "relin_base": rparams.relin_base, "relin": relin,
            "pairs": [[[ints(c1.c0), ints(c1.c1)], [ints(c2.c0), ints(c2.c1)]]],
        }
        return Entry("rlwe-multiply", _tail("rlwe-multiply", payload),
                     lambda result: decrypts_to(result, want))

    pools: Dict[str, List[Entry]] = {
        "multiply": [product_entry(4096) for _ in range(POOL)],
        "rlwe-multiply-plain": [plain_entry() for _ in range(POOL)],
        "dghv-mult": [dghv_entry(toy, toy_keys, TOY) for _ in range(POOL)],
        "rlwe-multiply": [ct_entry() for _ in range(POOL)],
        "oversize": [dghv_entry(medium, medium_keys, MEDIUM), product_entry(8192)],
    }
    return pools, keygen_s


def schedule(rng: random.Random, blocks: int) -> List[tuple]:
    """``(class, pool index)`` per request, block by block."""
    out: List[tuple] = []
    for _ in range(blocks):
        items = [cls for cls, count in BLOCK for _ in range(count)]
        rng.shuffle(items)
        out += [(cls, rng.randrange(POOL)) for cls in items]
    return out


# -- the server process ------------------------------------------------------------


def cpu_split():
    """``(generator CPUs, server CPUs)``, or ``None`` with one CPU.

    The generator and the server each keep to their own CPUs, so the
    guest scheduler cannot change from run to run which of them share a
    CPU.  Left to the scheduler, the saturation throughput of identical
    code moved between 291 and 490 requests/s over five runs; pinned,
    between 440 and 483 in five runs alternated with them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class Server:
    def __init__(self, proc, port: int, pid: int):
        self.proc = proc
        self.port = port
        self.pid = pid

    @classmethod
    async def start(
        cls, trace_out: Optional[str], log_file, cpus: Optional[set]
    ) -> "Server":
        command = [sys.executable, LAUNCHER]
        if trace_out:
            command += ["--trace-out", trace_out]
        proc = await asyncio.create_subprocess_exec(
            *command,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=log_file,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            line = await asyncio.wait_for(
                proc.stdout.readline(), SERVER_START_TIMEOUT_S
            )
            if not line.startswith(b"ready "):
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            proc.kill()
            await proc.wait()
            raise
        return cls(proc, int(line.split()[1]), proc.pid)

    async def command(self, text: str, expect: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        if line.strip() != expect.encode():
            raise RuntimeError(f"server answered {line!r} to {text!r}")

    async def stop(self) -> None:
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.write(b"stop\n")
            await self.proc.stdin.drain()
            self.proc.stdin.close()
            await asyncio.wait_for(self.proc.wait(), 60)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            self.proc.kill()
            await self.proc.wait()

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


_HEADER = re.compile(
    rb'\{"type":"response","id":"([^"]+)","status":"([a-z]+)","coalesced":\d+,'
    rb'"queue_wait_s":([0-9.eE+-]+),"latency_s":([0-9.eE+-]+)'
)


def _header(body: bytes) -> dict:
    """The fields the generator needs from a frame, without parsing the
    (large) result: the server writes them first.  Anything else is
    parsed in full."""
    match = _HEADER.match(body)
    if match is None:
        return json.loads(body)
    rid, status, wait, latency = match.groups()
    return {
        "type": "response",
        "id": rid.decode(),
        "status": status.decode(),
        "queue_wait_s": float(wait),
        "latency_s": float(latency),
    }


async def _read_body(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One frame body, ``None`` on EOF."""
    try:
        prefix = await reader.readexactly(LENGTH.size)
        (length,) = LENGTH.unpack(prefix)
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None


# -- the generator ------------------------------------------------------------------


class Generator:
    def __init__(self, port: int, pools):
        self.port = port
        self.pools = pools
        self.pending: Dict[str, Req] = {}
        self.done: List[Req] = []
        self.counter = 0
        self.reader = self.writer = None
        self.reader_task = None
        self.lane: asyncio.Queue = asyncio.Queue()
        self.lane_task = None
        self.lane_writer = None
        self.watch_task = None
        self.window: Optional[asyncio.Semaphore] = None
        self.window_phase = ""
        self.outstanding = 0
        self.idle = asyncio.Event()
        self.stats_waiter: Optional[asyncio.Future] = None
        self.closing = False

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        self.reader_task = asyncio.ensure_future(self._read_loop())
        self.lane_task = asyncio.ensure_future(self._lane_loop())
        self.watch_task = asyncio.ensure_future(self._watchdog())

    def _finish(
        self, req: Req, status: str, message: Optional[dict] = None, body: bytes = b""
    ) -> None:
        req.t_recv = time.perf_counter()
        req.status = status
        req.body = body
        if message is not None:
            req.latency_s = float(message.get("latency_s", 0.0))
            req.queue_wait_s = float(message.get("queue_wait_s", 0.0))
        self.done.append(req)
        if self.window is not None and req.phase == self.window_phase:
            self.window.release()
        self.outstanding -= 1
        if not self.outstanding:
            self.idle.set()

    async def _read_loop(self) -> None:
        while True:
            try:
                body = await _read_body(self.reader)
            except (ConnectionError, OSError):
                body = None
            if body is None:
                lost = list(self.pending.values())
                self.pending.clear()
                for req in lost:
                    self._finish(req, "closed")
                if self.closing:
                    return
                log("serve-mix: connection 1 lost; reconnecting")
                self.reader, self.writer = await asyncio.open_connection(
                    "127.0.0.1", self.port
                )
                continue
            message = _header(body)
            if message.get("type") == "stats":
                if self.stats_waiter is not None:
                    self.stats_waiter.set_result(message.get("stats", {}))
                continue
            req = self.pending.pop(message.get("id"), None)
            if req is None:
                continue  # answered after its deadline
            if message.get("type") == "error":
                self._finish(req, "error-frame", message, body)
            else:
                self._finish(req, message.get("status", "error"), message, body)

    async def _watchdog(self) -> None:
        while True:
            await asyncio.sleep(0.25)
            now = time.perf_counter()
            for rid, req in list(self.pending.items()):
                if now - req.t_send > MAIN_DEADLINE_S:
                    del self.pending[rid]
                    self._finish(req, "no-response")

    async def _lane_loop(self) -> None:
        """Oversize probes, one at a time, on connection 2."""
        reader = None
        while True:
            req = await self.lane.get()
            body = None
            try:
                if self.lane_writer is None:
                    reader, self.lane_writer = await asyncio.open_connection(
                        "127.0.0.1", self.port
                    )
                req.t_send = time.perf_counter()
                self.lane_writer.write(_frame(req))
                await self.lane_writer.drain()
                body = await asyncio.wait_for(
                    _read_body(reader), OVERSIZE_DEADLINE_S
                )
                if body is None:
                    status, message = "closed", None
                else:
                    message = json.loads(body)
                    status = (
                        "error-frame"
                        if message.get("type") == "error"
                        else message.get("status", "error")
                    )
            except asyncio.TimeoutError:
                status, message = "no-response", None
            except (ConnectionError, OSError):
                status, message = "closed", None
            if status != "ok" and self.lane_writer is not None:
                self.lane_writer.close()  # lost, or possibly out of step: reopen
                self.lane_writer = None
            self._finish(req, status, message, body or b"")

    def _new(self, cls: str, index: int, phase: str) -> Req:
        self.counter += 1
        return Req(f"{cls}:{self.counter}", cls, self.pools[cls][index], phase)

    def _send(self, req: Req) -> None:
        self.outstanding += 1
        self.idle.clear()
        if req.cls == "oversize":
            self.lane.put_nowait(req)
            return
        req.t_send = time.perf_counter()
        self.pending[req.rid] = req
        self.writer.write(_frame(req))

    async def drained(self) -> None:
        while self.outstanding:
            await self.idle.wait()

    async def open_loop(self, plan: List[tuple], rate: float) -> None:
        t0 = time.perf_counter() + 0.05
        for i, (cls, index) in enumerate(plan):
            req = self._new(cls, index, "open")
            req.t_sched = t0 + (i - i % OPEN_BURST) / rate
            delay = req.t_sched - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self._send(req)
            await self.writer.drain()
        await self.drained()

    async def saturation(
        self, seconds: float, rng: random.Random, phase: str, window: int = WINDOW
    ) -> float:
        """Keep ``window`` in flight for ``seconds``, drain; return the
        phase's wall seconds (first send to last response)."""
        self.window = asyncio.Semaphore(window)
        self.window_phase = phase
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for cls, index in schedule(rng, 1):
                await self.window.acquire()
                req = self._new(cls, index, phase)
                req.t_sched = time.perf_counter()
                self._send(req)
                await self.writer.drain()
        await self.drained()
        self.window = None
        last = max((r.t_recv for r in self.done if r.phase == phase), default=start)
        return last - start

    async def probe(self) -> None:
        """The ``oversize`` probes, one at a time, then drained."""
        for index in range(len(self.pools["oversize"])):
            self._send(self._new("oversize", index, "probe"))
        await self.drained()

    async def stats(self) -> dict:
        self.stats_waiter = asyncio.get_running_loop().create_future()
        self.writer.write(
            LENGTH.pack(len(b'{"type":"stats","id":"stats"}'))
            + b'{"type":"stats","id":"stats"}'
        )
        await self.writer.drain()
        return await asyncio.wait_for(self.stats_waiter, 30)

    async def close(self) -> None:
        self.closing = True
        for task in (self.watch_task, self.lane_task, self.reader_task):
            if task is not None:
                task.cancel()
        for task in (self.watch_task, self.lane_task, self.reader_task):
            if task is not None:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        for writer in (self.writer, self.lane_writer):
            if writer is not None:
                writer.close()


def steady_rate(requests: List[Req], phase: str, seconds: float) -> float:
    """Verified responses per second of a saturation phase: the median
    over its whole seconds, so a second stalled by the host does not set
    it (the whole-phase mean when the phase is shorter than two seconds)."""
    done = [r.t_recv for r in requests if r.phase == phase and r.verified]
    if not done:
        return 0.0
    start = min(r.t_send for r in requests if r.phase == phase)
    whole = int(seconds)
    if whole < 2:
        return len(done) / seconds
    buckets = [0] * whole
    for t in done:
        second = int(t - start)
        if second < whole:
            buckets[second] += 1
    log(f"serve-mix: {phase} verified responses per second {buckets}")
    return float(percentile(buckets, 0.5))


def _defects_in_log() -> Dict[str, int]:
    """Count the server's int-limit tracebacks by the site they escaped."""
    text = (OUT_DIR / "serve-mix-server.log").read_text(errors="replace")
    counts = {"decode_body": 0, "encode_frame": 0}
    for block in text.split("Traceback (most recent call last):")[1:]:
        if "Exceeds the limit" in block:
            for site in counts:
                if f"in {site}" in block:
                    counts[site] += 1
    return counts


# -- the run ------------------------------------------------------------------------


def _check(req: Req) -> bool:
    """Oracle check of one ok response (identical answers checked once)."""
    result = json.loads(req.body).get("result")
    key = json.dumps(result)
    if req.entry.verified == key:
        return True
    try:
        ok = req.entry.check(result)
    except (TypeError, ValueError, IndexError):
        ok = False
    if ok:
        req.entry.verified = key
    return ok


async def _warm_up(port: int, pools) -> None:
    """First verified op: one request of every normal class."""
    gen = Generator(port, pools)
    await gen.connect()
    try:
        for cls in CLASSES[:-1]:
            gen._send(gen._new(cls, 0, "warm-up"))
        await gen.writer.drain()
        await asyncio.wait_for(gen.drained(), MAIN_DEADLINE_S)
        for req in gen.done:
            if req.status != "ok" or not _check(req):
                raise RuntimeError(f"warm-up {req.cls} failed: {req.status}")
    finally:
        await gen.close()


async def _serve(args, pools, trace_path: Optional[str]):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    split = cpu_split()
    if split is not None:
        os.sched_setaffinity(0, split[0])
    setup_times: List[float] = []
    server = None
    with open(OUT_DIR / "serve-mix-server.log", "wb") as server_log:
        try:
            for index in range(SETUPS):
                if server is not None:
                    await server.stop()
                start = time.perf_counter()
                server = await Server.start(
                    trace_path if index == SETUPS - 1 else None,
                    server_log,
                    None if split is None else split[1],
                )
                await _warm_up(server.port, pools)
                setup_times.append(time.perf_counter() - start)
            result = await _measure(args, server, pools, trace_path)
            result["setup_times"] = setup_times
            return result
        finally:
            if server is not None:
                await server.kill()


async def _measure(args, server: Server, pools, trace_path):
    rng = random.Random(args.seed)
    open_blocks = max(1, int(OPEN_RATE * OPEN_SHARE * args.seconds / BLOCK_SIZE))
    open_plan = schedule(rng, open_blocks)
    # At least a second after the open loop, even on runs too short for all.
    rest = max(args.seconds - len(open_plan) / OPEN_RATE, 1.0)
    gen = Generator(server.port, pools)
    await gen.connect()
    out = {}
    try:
        if trace_path:
            out["untraced_s"] = await gen.saturation(rest / 2, rng, "untraced")
            await server.command("trace", "traced")
            before = await gen.stats()
            await gen.open_loop(open_plan, OPEN_RATE)
            out["saturation_s"] = await gen.saturation(rest / 2, rng, "saturation")
            await gen.probe()
            after = await gen.stats()
            out["coalescing"] = (before["coalescing"], after["coalescing"])
        else:
            await gen.open_loop(open_plan, OPEN_RATE)
            await gen.saturation(rest / 2, rng, "concurrent", CONCURRENT)
            out["saturation_s"] = await gen.saturation(rest / 2, rng, "saturation")
            await gen.probe()
        out["peak_rss_mib"] = peak_rss_mib(server.pid)
    finally:
        await gen.close()
    await server.stop()
    out["requests"] = gen.done
    return out


def run(args, import_s: float) -> int:
    sys.set_int_max_str_digits(0)  # generator only; the server keeps the limit
    start = time.perf_counter()
    pools, keygen_s = build_pools(args.seed)
    pools_s = time.perf_counter() - start
    trace_path = (
        str(OUT_DIR / f"server-trace-seed{args.seed}.json") if args.trace else None
    )
    budget = RUN_BUDGET_S - (time.perf_counter() - start) - import_s
    # A collector pass in the generator would stall its send schedule;
    # the pools are long-lived and responses are kept as bytes, so the
    # generator runs without one.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        served = asyncio.run(
            asyncio.wait_for(_serve(args, pools, trace_path), budget)
        )
    except asyncio.TimeoutError:
        log(f"serve-mix: run did not finish within {RUN_BUDGET_S}s; aborted")
        return 3
    finally:
        gc.enable()
    setup_s = import_s + pools_s + percentile(served["setup_times"], 0.5)
    log(
        f"serve-mix: setup {setup_s:.3f}s (pools {pools_s:.3f}s, servers "
        f"{['%.3f' % t for t in served['setup_times']]})"
    )

    log(f"serve-mix: server log int-limit tracebacks {_defects_in_log()}")
    requests: List[Req] = [r for r in served["requests"] if r.phase != "probe"]
    probes = [r for r in served["requests"] if r.phase == "probe"]
    correct = True
    failed: Dict[str, int] = {cls: 0 for cls in CLASSES}
    kinds: Dict[str, int] = {}
    verified: Dict[str, int] = {}
    for req in requests + probes:
        if req.status == "ok":
            if _check(req):
                req.verified = True
                verified[req.phase] = verified.get(req.phase, 0) + 1
                continue
            correct = False
            log(f"serve-mix: WRONG result for {req.rid}")
        failed[req.cls] += 1
        if req.phase == "probe":
            expected = OVERSIZE_DEFECT[req.entry.op]
            log(f"serve-mix: probe {req.rid} ({req.entry.op}) failed as "
                f"{req.status}" + ("" if req.status == expected
                                   else f", not the known {expected}"))
        else:
            kinds[req.status] = kinds.get(req.status, 0) + 1
    attempted = len(requests)
    failures = sum(kinds.values())
    log(f"serve-mix: {attempted} requests, failures {kinds}, by class {failed}")

    open_reqs = sorted(
        (r for r in requests if r.phase == "open"), key=lambda r: r.t_sched
    )
    latencies = [
        1e3 * (r.t_recv - r.t_sched) if r.status == "ok" else float("inf")
        for r in open_reqs
    ]
    size = len(latencies) // P99_WINDOWS
    window_p99 = [
        percentile(latencies[i * size : (i + 1) * size], 0.99)
        for i in range(P99_WINDOWS)
    ]
    ops_per_s = steady_rate(requests, "saturation", served["saturation_s"])
    log(
        f"serve-mix: open loop {len(open_reqs)} requests at {OPEN_RATE}/s, "
        f"window p99s {['%.2f' % p for p in window_p99]} "
        f"({samples_beyond(size, 0.99)} beyond each), "
        f"saturation {ops_per_s:.1f} req/s"
    )
    if not args.trace:
        emit(
            correct,
            attempted,
            failures,
            {
                "setup_s": setup_s,
                "ops_per_s": ops_per_s,
                "latency_p50_ms": percentile(
                    [
                        1e3 * (r.t_recv - r.t_sched) if r.status == "ok" else float("inf")
                        for r in requests
                        if r.phase == "concurrent"
                    ],
                    0.5,
                ),
                "ok_frac": (attempted - failures) / attempted,
                "peak_rss_mib": served["peak_rss_mib"],
            },
        )
        return 0 if correct else 1

    with open(trace_path) as handle:
        server_trace = json.load(handle)
    spans = spans_from_events(server_trace["traceEvents"])
    meta = server_trace["otherData"]
    traced_ok = verified.get("open", 0) + verified.get("saturation", 0)
    ok_open = [r for r in open_reqs if r.status == "ok"]

    def dist(name: str, values: List[float]) -> Dict[str, float]:
        return {
            f"{name}.p50": percentile(values, 0.5),
            f"{name}.p99": percentile(values, 0.99),
        }

    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    metrics.update(layer_metrics(spans, traced_ok, window_s=meta["cpu_s"]))
    metrics.update(job_waits(spans))
    metrics.update(class_medians(spans, "protocol.decode", "protocol.decode_ms"))
    metrics.update(class_medians(spans, "protocol.encode", "protocol.encode_ms"))
    metrics.update(class_medians(spans, "ops.decode_op", "ops.decode_op_ms"))
    metrics.update(dist("serve.queue_wait_ms",
                        [1e3 * r.queue_wait_s for r in ok_open]))
    metrics.update(dist("serve.exec_ms", [
        1e3 * (r.latency_s - r.queue_wait_s) for r in ok_open
    ]))
    metrics.update(dist("serve.wire_ms", [
        1e3 * (r.t_recv - r.t_send - r.latency_s) for r in ok_open
    ]))
    before, after = served["coalescing"]
    batches = after["batches"] - before["batches"]
    if batches:
        from repro.serve import ServiceConfig

        items = after["batched_items"] - before["batched_items"]
        metrics["serve.requests_per_batch"] = (
            after["batched_requests"] - before["batched_requests"]
        ) / batches
        metrics["serve.batch_fill_ratio"] = items / (
            batches * ServiceConfig().max_coalesce_items
        )
    late = [1e3 * (r.t_send - r.t_sched) for r in open_reqs]
    untraced_rate = steady_rate(requests, "untraced", served["untraced_s"])
    metrics.update(
        {
            f"serve.failed.{cls}": float(count) for cls, count in failed.items()
        }
    )
    metrics.update(
        {
            "serve.rejected": float(kinds.get("rejected", 0)),
            "gen.late_ms.p99": percentile(late, 0.99),
            "failed_frac": failures / attempted,
            "latency_p99_ms": percentile(window_p99, 0.5),
            "serve.open_p50_ms": percentile(latencies, 0.5),
            "plan.build_s": meta["plan_build_s"],
            "plan_cache.size": float(meta["plan_cache"]["size"]),
            "plan_cache.hits": float(meta["plan_cache"]["hits"]),
            "plan_cache.misses": float(meta["plan_cache"]["misses"]),
            "fhe.keygen_s": keygen_s,
            "trace.overhead_frac": 1.0 - ops_per_s / untraced_rate
            if untraced_rate
            else 0.0,
        }
    )
    at_paper, hw_metrics, table = hwtable.modeled_vs_measured(args.seed)
    metrics.update(hw_metrics)
    log(hwtable.render(table))
    if not at_paper:
        log("hw-model left the paper point of 24,580 cycles / 122.9 us")
        correct = False
    server_trace["otherData"] = {
        "workload": "serve-mix",
        "seed": args.seed,
        "environment": environment(),
        "hw_table": table,
        "metrics": metrics,
        "server": meta,
    }
    path = os.path.join(OUT_DIR, f"trace-serve-mix-seed{args.seed}.json")
    write_chrome_trace(path, server_trace["traceEvents"], server_trace["otherData"])
    os.remove(trace_path)
    log(f"serve-mix: trace written to {path}")
    emit(correct, attempted, failures, metrics)
    return 0 if correct else 1
