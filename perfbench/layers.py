"""Where the traced run wraps the program, and what it computes.

Each :class:`~tracer.WrapPoint` names a callable at the place its
callers look it up, so the wrapper sits on the real call path.  The
layers are the repository's own modules: ``serve`` (protocol, ops,
scheduler), ``engine`` (core, jobs, backends), ``fhe.dghv``,
``fhe.rlwe``, ``ssa``, ``ntt``, ``field`` and ``hw``.

Per-layer times are reported in milliseconds *per op* of the workload
(one homomorphic AND, one depth-2 circuit, or one served request), and
counts likewise per op, so runs of different lengths compare.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from stats import percentile
from tracer import Span, WrapPoint, self_times

# -- counters -----------------------------------------------------------------


def _rows_arg(index: int):
    def count(args, kwargs, result):
        values = args[index] if len(args) > index else kwargs.get("values")
        return {"rows": int(values.shape[0])}

    return count


def _kernel_bytes(args, kwargs, result):
    block, out = args[0], args[2] if len(args) > 2 else kwargs["out"]
    return {"bytes": int(block.nbytes + out.nbytes)}


def _vmul_elements(args, kwargs, result):
    return {"elements": int(result.size) if result is not None else 0}


def _staged_vmul(args, kwargs, result):
    if result is None:
        return {"elements": 0, "bytes": 0}
    # The data operand is read and the product written; the twiddle
    # table is a broadcast of one stage row and is not counted.
    return {"elements": int(result.size), "bytes": int(2 * result.nbytes)}


def _job_of(index: int):
    def count(args, kwargs, result):
        return {"job": id(args[index])}

    return count


M = "repro.ntt.staged"

#: Layers below the serving tier, shared by every workload.
ENGINE_POINTS: List[WrapPoint] = [
    WrapPoint("repro.fhe.ops", "_he_mult_many", "fhe.dghv.multiply_many"),
    WrapPoint("repro.fhe.rlwe", "RLWE.tensor_many", "fhe.rlwe.tensor_many"),
    WrapPoint(
        "repro.fhe.rlwe", "RLWE.relinearize_many", "fhe.rlwe.relinearize_many"
    ),
    WrapPoint(
        "repro.fhe.rlwe", "RLWE.mod_switch_many", "fhe.rlwe.mod_switch_many"
    ),
    WrapPoint(
        "repro.fhe.rlwe",
        "RLWE.multiply_plain_many",
        "fhe.rlwe.multiply_plain_many",
    ),
    WrapPoint("repro.engine.jobs", "JobScheduler.submit", "jobs.submit",
              counter=_job_of(1)),
    *[
        WrapPoint("repro.engine.jobs", f"{job}.run", "jobs.run",
                  counter=_job_of(0))
        for job in (
            "MultiplyJob",
            "RingTransformJob",
            "ConvolveJob",
            "DGHVMultJob",
            "RLWEMultiplyPlainJob",
            "RLWEMultiplyJob",
        )
    ],
    WrapPoint("repro.engine.core", "Engine.multiply", "engine.multiply"),
    WrapPoint("repro.engine.core", "Engine._transform", "engine.transform"),
    WrapPoint("repro.engine.ring", "Ring.convolve", "engine.convolve"),
    WrapPoint(
        "repro.engine.backends",
        "SoftwareBackend.multiply_many",
        "backend.multiply_many",
    ),
    WrapPoint(
        "repro.engine.backends",
        "SoftwareBackend.transform",
        "backend.transform",
        counter=_rows_arg(3),
    ),
    WrapPoint("repro.ssa.multiplier", "decompose_many", "ssa.decompose_many"),
    WrapPoint(
        "repro.ssa.multiplier", "carry_recover_many", "ssa.carry_recover_many"
    ),
    WrapPoint("repro.ssa.multiplier", "recompose_many", "ssa.recompose_many"),
    WrapPoint("repro.ssa.multiplier", "execute_plan_batch", "ntt.forward",
              counter=_rows_arg(0)),
    WrapPoint("repro.ssa.multiplier", "execute_plan_inverse_batch",
              "ntt.inverse", counter=_rows_arg(0)),
    WrapPoint("repro.ssa.multiplier", "pointwise_mul", "ntt.pointwise"),
    WrapPoint("repro.engine.backends", "execute_plan_batch", "ntt.forward",
              counter=_rows_arg(0)),
    WrapPoint("repro.engine.backends", "execute_plan_inverse_batch",
              "ntt.inverse", counter=_rows_arg(0)),
    WrapPoint(M, "stage_executor", "ntt.stage_kernel",
              counter=_kernel_bytes, wrap_result=True),
    WrapPoint(M, "vmul", "field.vmul", counter=_staged_vmul),
    WrapPoint("repro.ntt.convolution", "vmul", "field.vmul",
              counter=_vmul_elements),
    WrapPoint("repro.engine.ring", "vmul", "field.vmul",
              counter=_vmul_elements),
    WrapPoint("repro.fhe.rlwe", "vmul", "field.vmul", counter=_vmul_elements),
]

#: The plan builders behind ``PlanCache`` misses (set-up work).
PLAN_POINTS: List[WrapPoint] = [
    WrapPoint("repro.ntt.plan", name, "plan.build")
    for name in ("_build", "_fuse_negacyclic", "_decimate")
]

#: Span names reported as ``<name>.ms`` (ms per op).
TIMED_SPANS = (
    "fhe.dghv.multiply_many",
    "engine.multiply",
    "backend.multiply_many",
    "backend.transform",
    "ssa.decompose_many",
    "ntt.forward",
    "ntt.pointwise",
    "ntt.inverse",
    "ssa.carry_recover_many",
    "ssa.recompose_many",
    "ntt.stage_kernel",
    "field.vmul",
    "fhe.rlwe.tensor_many",
    "fhe.rlwe.relinearize_many",
    "fhe.rlwe.mod_switch_many",
)

#: Request classes of the serve-mix workload (tags on serve spans).
CLASSES = ("multiply", "rlwe-multiply-plain", "dghv-mult", "rlwe-multiply",
           "oversize")


def layer_metrics(
    spans: List[Span], ops: int, window_s: Optional[float] = None
) -> Dict[str, float]:
    """Per-op layer times and counts from one traced phase.

    ``window_s`` is the wall (or CPU) time the ops took; what the root
    spans do not cover is reported as ``unattributed.ms``.
    """
    ops = max(ops, 1)
    total: Dict[str, float] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    metrics: Dict[str, float] = {
        f"{name}.ms": 1e3 * total.get(name, 0.0) / ops for name in TIMED_SPANS
    }
    for layer in ("fhe.dghv", "engine"):
        metrics[f"{layer}.self.ms"] = 1e3 * sum(
            own[span.span_id]
            for span in spans
            if span.name.startswith(layer + ".")
        ) / ops

    def count(name: str, key: str) -> float:
        return sum(
            span.counts.get(key, 0) for span in spans if span.name == name
        ) / ops

    metrics["backend.transform.rows"] = count("backend.transform", "rows")
    metrics["ntt.stage_calls"] = sum(
        1 for span in spans if span.name == "ntt.stage_kernel"
    ) / ops
    metrics["ntt.rows"] = count("ntt.forward", "rows") + count(
        "ntt.inverse", "rows"
    )
    metrics["field.vmul.elements"] = count("field.vmul", "elements")
    metrics["ntt.bytes_computed"] = count("ntt.stage_kernel", "bytes") + count(
        "field.vmul", "bytes"
    )
    metrics["plan.build_s"] = sum(
        span.duration
        for span in spans
        if span.name == "plan.build"
        and (span.parent is None or by_id.get(span.parent) is None
             or by_id[span.parent].name != "plan.build")
    )
    if window_s is not None:
        roots = sum(
            span.duration
            for span in spans
            if span.parent is None and span.name not in ("jobs.submit",)
        )
        metrics["unattributed.ms"] = 1e3 * (window_s - roots) / ops
    return metrics


def job_waits(spans: Iterable[Span]) -> Dict[str, float]:
    """Median submit→run wait and run time of engine jobs, in ms."""
    submitted: Dict[int, float] = {}
    waits: List[float] = []
    runs: List[float] = []
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "jobs.submit":
            submitted[span.counts.get("job", 0)] = span.start
        elif span.name == "jobs.run":
            runs.append(span.duration)
            start = submitted.pop(span.counts.get("job", 0), None)
            if start is not None:
                waits.append(span.start - start)
    return {
        "jobs.wait_ms.p50": 1e3 * percentile(waits, 0.5),
        "jobs.run_ms.p50": 1e3 * percentile(runs, 0.5),
    }


def class_medians(spans: Iterable[Span], name: str, metric: str) -> Dict[str, float]:
    """``<metric>.<class>``: median ms of ``name`` spans per request class."""
    per: Dict[str, List[float]] = {cls: [] for cls in CLASSES}
    for span in spans:
        if span.name == name and span.tag in per:
            per[span.tag].append(span.duration)
    return {
        f"{metric}.{cls}": 1e3 * percentile(values, 0.5)
        for cls, values in per.items()
    }
