"""Closed-loop runner: one caller, next call only after the last returns.

Shared by ``dghv-paper`` and ``rlwe-depth2``.  The run is

1. set-up, three times, each from a fresh engine (plan build, keygen
   and one verified warm-up op); ``setup_s`` is the import time plus
   the median set-up;
2. the measured loop for ``--seconds`` (with ``--trace 1``: half
   untraced, then half with every layer wrapped).  Each output is
   checked against the oracle right after its call, outside the call's
   timing and the trace, and then dropped, so memory does not grow with
   the number of calls.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, List, Optional

import hwtable
from catalog import PER_LAYER_NAMES
from common import OUT_DIR, emit, environment, log, peak_rss_mib
from layers import ENGINE_POINTS, PLAN_POINTS, layer_metrics
from stats import percentile
from tracer import Tracer, write_chrome_trace

SETUPS = 3


class Record:
    __slots__ = ("seconds", "error", "wrong")

    def __init__(self, seconds: float, error: Optional[str], wrong: int):
        self.seconds = seconds
        self.error = error
        self.wrong = wrong


class ClosedLoopWorkload:
    """What a closed-loop workload supplies to :func:`run`."""

    name = ""
    #: Ops (homomorphic ANDs, circuits) per call.
    ops_per_call = 1

    def setup(self, seed: int, index: int) -> Any:
        """Fresh engine + keys + one verified warm-up op; returns state
        with ``engine`` and ``keygen_s`` attributes."""
        raise NotImplementedError

    def prepare(self, state, rng: random.Random) -> None:
        """Untimed input preparation after set-up."""

    def inputs(self, state, rng: random.Random, index: int):
        raise NotImplementedError

    def call(self, state, item):
        raise NotImplementedError

    def wrong_ops(self, state, item, output) -> int:
        """Ops of one call whose output disagrees with the oracle."""
        raise NotImplementedError

    def observe(self, state, output) -> None:
        """Traced run only: note what the per-layer metrics need from an
        output."""

    def traced_extras(self, state) -> Dict[str, float]:
        return {}


def _measure(
    workload, state, rng, seconds: float, first_index: int, tracer=None
) -> List[Record]:
    records: List[Record] = []
    start = time.perf_counter()
    index = first_index
    while True:
        item = workload.inputs(state, rng, index)
        index += 1
        t0 = time.perf_counter()
        try:
            output, error = workload.call(state, item), None
        except Exception as exc:  # counted as a named failure
            output, error = None, type(exc).__name__
        t1 = time.perf_counter()
        wrong = 0
        if error is None:
            if tracer is not None:
                tracer.enabled = False
            wrong = workload.wrong_ops(state, item, output)
            if tracer is not None:
                workload.observe(state, output)
                tracer.enabled = True
        records.append(Record(t1 - t0, error, wrong))
        if time.perf_counter() - start >= seconds:
            return records


def run(workload: ClosedLoopWorkload, args, import_s: float) -> int:
    tracer = Tracer() if args.trace else None
    setup_times: List[float] = []
    keygen_times: List[float] = []
    plan_builds: List[float] = []
    state = None
    for index in range(SETUPS):
        state = None  # drop the previous engine before building the next
        if tracer is not None:
            tracer.clear()
            tracer.install(PLAN_POINTS)
        start = time.perf_counter()
        state = workload.setup(args.seed, index)
        setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
            plan_builds.append(layer_metrics(tracer.spans, 1)["plan.build_s"])
        keygen_times.append(state.keygen_s)
    setup_s = import_s + percentile(setup_times, 0.5)
    log(f"{workload.name}: setup {setup_s:.3f}s (runs {['%.3f' % t for t in setup_times]})")

    rng = random.Random(args.seed)
    workload.prepare(state, rng)
    measured = args.seconds / 2 if tracer is not None else args.seconds
    plain = _measure(workload, state, rng, measured, 0)
    traced: List[Record] = []
    if tracer is not None:
        tracer.clear()
        tracer.install(ENGINE_POINTS)
        try:
            traced = _measure(workload, state, rng, measured, len(plain), tracer)
        finally:
            tracer.uninstall()

    attempted = failed = 0
    correct = True
    ok_ops: Dict[int, int] = {}
    for phase, records in enumerate((plain, traced)):
        ok_ops[phase] = 0
        for record in records:
            attempted += workload.ops_per_call
            if record.error is not None:
                failed += workload.ops_per_call
                log(f"{workload.name}: call failed with {record.error}")
                continue
            wrong = record.wrong
            if wrong:
                correct = False
                failed += wrong
                log(f"{workload.name}: {wrong} wrong outputs in one call")
            ok_ops[phase] += workload.ops_per_call - wrong

    def rate(phase: int, records: List[Record]) -> float:
        """Verified ops per call over the median call time: steady-state
        throughput that one call slowed by a host stall does not set."""
        if not records:
            return 0.0
        return ok_ops[phase] / len(records) / percentile(
            [r.seconds for r in records], 0.5
        )

    ops_per_s = rate(0, plain)
    calls_ms = [1e3 * r.seconds for r in plain]
    log(
        f"{workload.name}: {len(plain)} calls, "
        f"{ops_per_s:.4f} ops/s, call ms {['%.1f' % c for c in calls_ms]}"
    )
    if tracer is None:
        emit(
            correct,
            attempted,
            failed,
            {
                "setup_s": setup_s,
                "ops_per_s": ops_per_s,
                "latency_p50_ms": percentile(calls_ms, 0.5),
                "ok_frac": (attempted - failed) / attempted,
                "peak_rss_mib": peak_rss_mib(),
            },
        )
        return 0 if correct else 1

    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    traced_ops = len(traced) * workload.ops_per_call
    metrics.update(
        layer_metrics(
            tracer.spans, traced_ops, window_s=sum(r.seconds for r in traced)
        )
    )
    cache = state.engine.cache_stats()
    metrics.update(
        {
            "plan.build_s": percentile(plan_builds, 0.5),
            "plan_cache.size": float(cache.size),
            "plan_cache.hits": float(cache.hits),
            "plan_cache.misses": float(cache.misses),
            "fhe.keygen_s": percentile(keygen_times, 0.5),
            "failed_frac": failed / attempted,
            "latency_p99_ms": percentile(calls_ms, 0.99),
            "trace.overhead_frac": 1.0 - rate(1, traced) / ops_per_s
            if ops_per_s
            else 0.0,
        }
    )
    metrics.update(workload.traced_extras(state))
    at_paper, hw_metrics, table = hwtable.modeled_vs_measured(args.seed)
    metrics.update(hw_metrics)
    log(hwtable.render(table))
    if not at_paper:
        log("hw-model left the paper point of 24,580 cycles / 122.9 us")
        correct = False
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
    write_chrome_trace(
        path,
        tracer.chrome_events(),
        {
            "workload": workload.name,
            "seed": args.seed,
            "environment": environment(),
            "hw_table": table,
            "metrics": metrics,
        },
    )
    log(f"{workload.name}: trace written to {path}")
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1
