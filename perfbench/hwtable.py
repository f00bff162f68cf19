"""Modeled-versus-measured table for one paper-size SSA multiply.

The ``hw-model`` backend gives the per-phase cycle counts of one
786,432-bit product on the DATE'16 accelerator; the software backend
runs the same product under the tracer, and each modeled phase is put
beside the host milliseconds of the layer that does that phase's work.
The model must stay at the paper's point, 24,580 cycles / 122.9 µs.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from catalog import HW_PHASES
from layers import ENGINE_POINTS
from tracer import Tracer

PAPER_BITS = 786_432
PAPER_CYCLES = 24_580
PAPER_US = 122.9

#: Modeled phases → host spans doing the same work.  The software
#: pipeline transforms both operands in one batched forward pass, so
#: ``fft_a`` and ``fft_b`` share one host row.
MATCH: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...]], ...] = (
    (("fft_a", "fft_b"), ("ssa.decompose_many", "ntt.forward")),
    (("dot_product",), ("ntt.pointwise",)),
    (("inverse_fft",), ("ntt.inverse",)),
    (("carry_recovery",), ("ssa.carry_recover_many", "ssa.recompose_many")),
)


def modeled_vs_measured(seed: int) -> Tuple[bool, Dict[str, float], List[dict]]:
    """``(at_paper_point, metrics, table_rows)``."""
    from repro.engine import Engine, ExecutionConfig

    rng = random.Random(seed)
    a, b = rng.getrandbits(PAPER_BITS), rng.getrandbits(PAPER_BITS)
    truth = a * b

    product, report = Engine(backend="hw-model").multiply_with_report(a, b)
    cycles = {phase.name: int(phase.cycles) for phase in report.phases}
    at_paper_point = (
        product == truth
        and report.total_cycles == PAPER_CYCLES
        and report.time_us == PAPER_US
    )

    software = Engine(config=ExecutionConfig(kernel="limb-matmul"))
    software.multiply([a], [b])  # build the plan outside the trace
    tracer = Tracer()
    tracer.install(ENGINE_POINTS)
    try:
        start = time.perf_counter()
        measured = software.multiply([a], [b])
        wall_ms = 1e3 * (time.perf_counter() - start)
    finally:
        tracer.uninstall()
    at_paper_point = at_paper_point and measured == [truth]

    host: Dict[str, float] = {}
    for span in tracer.spans:
        host[span.name] = host.get(span.name, 0.0) + 1e3 * span.duration
    rows = []
    for phases, spans in MATCH:
        phase_cycles = sum(cycles.get(p, 0) for p in phases)
        rows.append(
            {
                "phases": "+".join(phases),
                "modeled_cycles": phase_cycles,
                "modeled_us": phase_cycles * report.clock_ns / 1e3,
                "host_layers": "+".join(spans),
                "host_ms": sum(host.get(s, 0.0) for s in spans),
            }
        )
    metrics = {
        "hw.modeled_cycles": float(report.total_cycles),
        "hw.modeled_us": float(report.time_us),
        "hw.host_ms": sum(row["host_ms"] for row in rows),
    }
    for phase in HW_PHASES:
        metrics[f"hw.phase.{phase}.cycles"] = float(cycles.get(phase, 0))
    rows.append(
        {
            "phases": "total",
            "modeled_cycles": report.total_cycles,
            "modeled_us": report.time_us,
            "host_layers": "engine.multiply (wall)",
            "host_ms": wall_ms,
        }
    )
    return at_paper_point, metrics, rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'modeled phase':<22}{'cycles':>8}{'model us':>10}  "
        f"{'host layers':<42}{'host ms':>10}"
    ]
    for row in rows:
        lines.append(
            f"{row['phases']:<22}{row['modeled_cycles']:>8}"
            f"{row['modeled_us']:>10.2f}  {row['host_layers']:<42}"
            f"{row['host_ms']:>10.2f}"
        )
    return "\n".join(lines)
