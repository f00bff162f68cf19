"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the checkout root lists the same names, units,
directions and bounds; keep the two in step.
"""

from __future__ import annotations

from layers import CLASSES, TIMED_SPANS

HW_PHASES = ("fft_a", "fft_b", "dot_product", "inverse_fft", "carry_recovery")

#: (name, unit, better, bound).  On a shared 2-vCPU machine the
#: run-to-run spread of the times reaches 10-20 %, so every time gets the
#: largest bound allowed; counts and memory are steadier.  The tail
#: latency is a per-layer metric: host stalls of 2-10 ms move the
#: serve-mix p99 by 50 % from run to run, beyond any bound allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)


def _per_layer():
    rows = [("latency_p99_ms", "ms", "lower")]
    rows += [(f"{name}.ms", "ms", "lower") for name in TIMED_SPANS]
    rows += [
        ("fhe.dghv.self.ms", "ms", "lower"),
        ("engine.self.ms", "ms", "lower"),
        ("backend.transform.rows", "count", "lower"),
        ("ntt.stage_calls", "count", "lower"),
        ("ntt.rows", "count", "lower"),
        ("field.vmul.elements", "count", "lower"),
        ("ntt.bytes_computed", "bytes", "lower"),
        ("unattributed.ms", "ms", "lower"),
        ("plan.build_s", "s", "lower"),
        ("plan_cache.size", "count", "lower"),
        ("plan_cache.hits", "count", "higher"),
        ("plan_cache.misses", "count", "lower"),
        ("fhe.keygen_s", "s", "lower"),
        ("fhe.rlwe.final_budget_bits", "bits", "higher"),
        ("serve.open_p50_ms", "ms", "lower"),
        ("serve.queue_wait_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p99", "ms", "lower"),
        ("serve.exec_ms.p50", "ms", "lower"),
        ("serve.exec_ms.p99", "ms", "lower"),
        ("serve.wire_ms.p50", "ms", "lower"),
        ("serve.wire_ms.p99", "ms", "lower"),
        ("serve.requests_per_batch", "count", "higher"),
        ("serve.batch_fill_ratio", "ratio", "higher"),
        ("jobs.wait_ms.p50", "ms", "lower"),
        ("jobs.run_ms.p50", "ms", "lower"),
    ]
    for prefix in ("protocol.decode_ms", "protocol.encode_ms", "ops.decode_op_ms"):
        rows += [(f"{prefix}.{cls}", "ms", "lower") for cls in CLASSES]
    rows += [(f"serve.failed.{cls}", "count", "lower") for cls in CLASSES]
    rows += [
        ("serve.rejected", "count", "lower"),
        ("gen.late_ms.p99", "ms", "lower"),
        ("failed_frac", "ratio", "lower"),
        ("hw.modeled_cycles", "cycles", "lower"),
        ("hw.modeled_us", "us", "lower"),
    ]
    rows += [(f"hw.phase.{phase}.cycles", "cycles", "lower") for phase in HW_PHASES]
    rows += [
        ("hw.host_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(rows)


#: (name, unit, better)
PER_LAYER = _per_layer()
PER_LAYER_NAMES = tuple(name for name, _, _ in PER_LAYER)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
