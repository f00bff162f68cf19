"""FHE-workload perf trajectory — the paper's end-to-end motivation.

Standalone benchmark (also importable under pytest) timing layers of
DGHV homomorphic AND gates — the workload the accelerator exists for —
through the Engine façade:

- **direct**: ``scheme.multiply_many`` batching the γ×γ-bit ciphertext
  products into one SSA pass, also timed in its two parts: the batched
  products and their Barrett reduction mod ``x_0`` (checked
  bit-identical to ``%``); the full run includes the paper's
  786,432-bit point;
- **jobs**: the same layer through ``JobScheduler.map("dghv-mult",...)``
  (the futures-style service shape);
- **modeled**: one gate on the ``hw-model`` backend for the cycle
  count, next to the paper's 122.88 µs Table II anchor;
- **rlwe**: batched ``multiply_plain_many`` ring products on an
  engine-bound scheme (fused, permutation-free plans) — checked
  bit-identical to the same products through a ``loop``-kernel
  engine on every measurement; the full run includes the paper 64K
  ring dimension.

Every gate is decrypted and checked against the plaintext AND truth.
Results go to two places:

- ``BENCH_fhe_workload.json`` at the repo root — the machine-readable
  perf-trajectory point (FHE-workload series, one point per PR);
- ``benchmarks/output/fhe_workload.txt`` — the human-readable table.

With ``--inject`` the script switches into **resilience mode** (ISSUE
7): it measures the ``software-mp`` batch-multiply throughput clean vs
with one worker SIGKILLed mid-batch by the deterministic injection
harness (:mod:`repro.engine.faultinject`), asserts bit-identical
recovery on every run, and gates the recovery overhead — CI runs
``--smoke --inject worker-kill`` and fails if recovering from the kill
costs more than 25% over the clean run.  Full resilience runs measure
the paper's 64K workload (786432-bit products) and write the
``BENCH_resilience.json`` trajectory point.

Usage::

    python benchmarks/bench_fhe_workload.py            # full
    python benchmarks/bench_fhe_workload.py --smoke    # CI gate
    python benchmarks/bench_fhe_workload.py --smoke --inject worker-kill
    python benchmarks/bench_fhe_workload.py --inject worker-kill  # 64K
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import Engine  # noqa: E402
from repro.fhe.ops import _product_batch, _reduce_mod_x0  # noqa: E402
from repro.fhe.params import MEDIUM, SMALL_DGHV, TOY  # noqa: E402
from repro.hw.timing import PAPER_TIMING  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_fhe_workload.json"
DEFAULT_RESILIENCE_JSON = REPO_ROOT / "BENCH_resilience.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: The jobs path reuses the same batched SSA pass; it must stay within
#: a small constant factor of calling ``multiply_many`` directly.
FULL_MAX_JOBS_OVERHEAD = 2.0
SMOKE_MAX_JOBS_OVERHEAD = 5.0
#: Resilience mode (ISSUE 7): recovering from one worker SIGKILL must
#: cost at most this fraction over the clean run on the smoke workload
#: (CI gate).  Recovery replays the lost shards on a respawned pool
#: whose workers rebuild their engines and plan caches from scratch,
#: so the workload is sized to amortize that fixed cost well below the
#: gate (~4-8x headroom on a 1-CPU container).
MAX_RECOVERY_OVERHEAD = 0.25
#: Full resilience runs measure the paper's 64K workload, where the
#: respawned workers' 64K-point plan rebuild is a much larger fixed
#: cost; the lenient ceiling catches catastrophic regressions (e.g.
#: recovery re-running the whole batch more than once) without gating
#: on machine-dependent plan-build times.
FULL_MAX_RECOVERY_OVERHEAD = 0.75
#: (bits, batch) of the resilience workloads: smoke amortizes recovery
#: under the CI gate; full is the paper point (786432-bit products ↔
#: 64K-point transforms).
RESILIENCE_SMOKE_WORKLOAD = (98_304, 96)
RESILIENCE_FULL_WORKLOAD = (786_432, 48)


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_case(
    engine: Engine, params, gates: int, repeats: int, seed: int
) -> dict:
    """One AND-gate layer at one parameter point, direct vs jobs."""
    rng = random.Random(seed)
    scheme = engine.fhe(params, rng=rng)
    keys = scheme.generate_keys()
    plain = [(rng.randrange(2), rng.randrange(2)) for _ in range(gates)]
    pairs = [
        (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
        for a, b in plain
    ]
    truth = [a & b for a, b in plain]

    def direct():
        return scheme.multiply_many(keys, pairs)

    def jobs():
        return engine.map("dghv-mult", pairs, x0=keys.x0)

    operands = [(a.value, b.value) for a, b in pairs]

    def products():
        return _product_batch(scheme.multiplier, operands)

    def reduce(values):
        return [_reduce_mod_x0(v, keys.x0) for v in values]

    decrypted_direct = [scheme.decrypt(keys, c) for c in direct()]
    decrypted_jobs = [scheme.decrypt(keys, c) for c in jobs()]
    correct = decrypted_direct == truth and decrypted_jobs == truth
    unreduced = products()
    reducer_identical = reduce(unreduced) == [v % keys.x0 for v in unreduced]

    direct_s = _best_time(direct, repeats)
    jobs_s = _best_time(jobs, repeats)
    product_s = _best_time(products, repeats)
    reduce_s = _best_time(lambda: reduce(unreduced), repeats)
    return {
        "params": params.name,
        "gamma_bits": params.gamma,
        "gates": gates,
        "direct_s": direct_s,
        "jobs_s": jobs_s,
        "product_s": product_s,
        "reduce_s": reduce_s,
        "direct_gates_per_s": gates / direct_s,
        "jobs_gates_per_s": gates / jobs_s,
        "jobs_overhead": jobs_s / direct_s,
        "correct": correct,
        "reducer_identical": reducer_identical,
    }


def rlwe_case(n: int, batch: int, repeats: int, seed: int) -> dict:
    """Engine-bound ``multiply_plain_many`` at one ring dimension.

    The scheme runs the production route (fused, permutation-free
    plans on the default kernel); the same ciphertexts through a
    ``loop``-kernel engine are the bit-identity oracle.
    """
    from repro.engine import ExecutionConfig
    from repro.fhe.rlwe import RLWEParams

    params = RLWEParams(n=n, t=256, noise_bound=4)
    scheme = Engine().fhe(params, rng=random.Random(seed))
    oracle = Engine(config=ExecutionConfig(kernel="loop")).fhe(params)
    rng = random.Random(seed + 1)
    secret = scheme.generate_secret()
    messages = [
        [rng.randrange(params.t) for _ in range(n)] for _ in range(batch)
    ]
    plains = [
        [rng.randrange(params.t) for _ in range(n)] for _ in range(batch)
    ]
    cts = scheme.encrypt_many(secret, messages)

    identical = all(
        np.array_equal(got.c0, want.c0) and np.array_equal(got.c1, want.c1)
        for got, want in zip(
            scheme.multiply_plain_many(cts, plains),
            oracle.multiply_plain_many(cts, plains),
        )
    )
    products_s = _best_time(
        lambda: scheme.multiply_plain_many(cts, plains), repeats
    )
    return {
        "n": n,
        "batch": batch,
        "products_s": products_s,
        "products_per_s": 2 * batch / products_s,
        "identical": identical,
    }


def modeled_gate() -> dict:
    """Cycle-model numbers: one toy gate plus the paper anchor."""
    engine = Engine(backend="hw-model")
    scheme = engine.fhe(TOY, rng=random.Random(99))
    keys = scheme.generate_keys()
    ca = scheme.encrypt(keys, 1)
    cb = scheme.encrypt(keys, 1)
    ands = scheme.multiply_many(keys, [(ca, cb)])
    report = engine.last_report
    report = report[0] if isinstance(report, list) else report
    ok = scheme.decrypt(keys, ands[0]) == 1 and report.total_cycles > 0
    return {
        "toy_gate_us": report.time_us,
        "toy_gate_cycles": report.total_cycles,
        "paper_gate_us": PAPER_TIMING.multiplication_time_us(),
        "paper_gamma_bits": SMALL_DGHV.gamma,
        "correct": ok,
    }


def render_table(report: dict) -> str:
    lines = [
        "FHE workload: DGHV AND-gate layers through the Engine",
        "",
        f"{'params':>10} {'gamma':>7} {'gates':>6} {'direct s':>10} "
        f"{'product s':>10} {'reduce s':>10} "
        f"{'jobs s':>10} {'direct/s':>9} {'jobs/s':>9} {'ok':>4}",
    ]
    for r in report["results"]:
        lines.append(
            f"{r['params']:>10} {r['gamma_bits']:>7} {r['gates']:>6} "
            f"{r['direct_s']:>10.4f} {r['product_s']:>10.4f} "
            f"{r['reduce_s']:>10.4f} {r['jobs_s']:>10.4f} "
            f"{r['direct_gates_per_s']:>9.1f} "
            f"{r['jobs_gates_per_s']:>9.1f} "
            f"{'yes' if r['correct'] else 'NO':>4}"
        )
    lines += [
        "",
        "RLWE multiply_plain_many: engine-bound scheme vs loop-kernel oracle",
        "",
        f"{'n':>7} {'batch':>6} {'products s':>11} {'products/s':>11} "
        f"{'ident':>6}",
    ]
    for r in report["rlwe"]:
        lines.append(
            f"{r['n']:>7} {r['batch']:>6} {r['products_s']:>11.4f} "
            f"{r['products_per_s']:>11.1f} "
            f"{'yes' if r['identical'] else 'NO':>6}"
        )
    model = report["modeled"]
    lines += [
        "",
        "cycle model context:",
        f"  toy gate ({TOY.gamma}-bit ciphertexts): "
        f"{model['toy_gate_us']:.2f} us "
        f"({model['toy_gate_cycles']} cycles)",
        f"  paper gate ({model['paper_gamma_bits']}-bit ciphertexts): "
        f"{model['paper_gate_us']:.2f} us (Table II) "
        f"-> ~{1e6 / model['paper_gate_us']:,.0f} AND gates/s/device",
        "  Gentry-Halevi software baseline the paper cites: "
        "> 1 s to encrypt a single bit",
    ]
    return "\n".join(lines)


def evaluate(report: dict, smoke: bool) -> List[str]:
    ceiling = SMOKE_MAX_JOBS_OVERHEAD if smoke else FULL_MAX_JOBS_OVERHEAD
    failures = []
    for r in report["results"]:
        tag = f"params={r['params']} gates={r['gates']}"
        if not r["correct"]:
            failures.append(f"{tag}: homomorphic ANDs decrypted wrong")
        if not r["reducer_identical"]:
            failures.append(f"{tag}: Barrett reduction differs from %")
        if r["jobs_overhead"] > ceiling:
            failures.append(
                f"{tag}: jobs path cost {r['jobs_overhead']:.2f}x direct "
                f"(> {ceiling}x ceiling)"
            )
    if not report["modeled"]["correct"]:
        failures.append("cycle model gate failed its decrypt check")
    if abs(report["modeled"]["paper_gate_us"] - 122.88) > 0.01:
        failures.append("paper timing anchor drifted from 122.88 us")
    for r in report["rlwe"]:
        if not r["identical"]:
            failures.append(
                f"rlwe n={r['n']} batch={r['batch']}: multiply_plain_many "
                f"diverged from the loop-kernel oracle"
            )
    return failures


def run_suite(smoke: bool, repeats: Optional[int], seed: int) -> dict:
    engine = Engine()
    if smoke:
        cases = [(TOY, 8)]
        rlwe_cases = [(1024, 4)]
        repeats = repeats or 2
    else:
        cases = [(TOY, 64), (MEDIUM, 16), (SMALL_DGHV, 4)]
        rlwe_cases = [(4096, 8), (65536, 4)]
        repeats = repeats or 3
    try:
        results = [
            run_case(engine, params, gates, repeats, seed + i)
            for i, (params, gates) in enumerate(cases)
        ]
    finally:
        engine.close()
    rlwe_results = [
        rlwe_case(n, batch, repeats, seed + 50 + i)
        for i, (n, batch) in enumerate(rlwe_cases)
    ]
    report = {
        "benchmark": "fhe_workload",
        "schema_version": 5,
        "mode": "smoke" if smoke else "full",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "config": {
            "engine_kernel": engine.config.kernel,
            "repeats": repeats,
            "seed": seed,
            "timer": "best-of-repeats wall clock",
        },
        "results": results,
        "rlwe": rlwe_results,
        "modeled": modeled_gate(),
    }
    failures = evaluate(report, smoke)
    report["acceptance"] = {
        "max_jobs_overhead": (
            SMOKE_MAX_JOBS_OVERHEAD if smoke else FULL_MAX_JOBS_OVERHEAD
        ),
        "failures": failures,
        "passed": not failures,
    }
    return report


def resilience_case(
    bits: int, count: int, repeats: int, seed: int, inject_spec: str
) -> dict:
    """Clean vs injected-kill ``software-mp`` batch-multiply throughput.

    Every run (clean and injected alike) is asserted bit-identical to
    Python big-int truth; the injected runs re-arm the fault plan per
    repeat, so each one pays one worker SIGKILL plus the full recovery
    (pool respawn, worker re-warm, lost-shard replay).
    """
    from repro.engine import ExecutionConfig, faultinject

    rng = random.Random(seed)
    pairs = [
        (rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)
        for _ in range(count)
    ]
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    truth = [a * b for a, b in pairs]
    flags = {"clean_ok": True, "injected_ok": True}
    engine = Engine(
        config=ExecutionConfig(workers=2), backend="software-mp"
    )
    try:
        # Warm the pool, the worker engines and every plan cache so
        # the clean baseline measures steady-state throughput.
        flags["clean_ok"] &= engine.multiply(left, right) == truth

        def clean():
            flags["clean_ok"] &= engine.multiply(left, right) == truth

        clean_s = _best_time(clean, repeats)
        respawns_before = engine.backend.fault_report.respawns

        def injected():
            with faultinject.inject(inject_spec):
                flags["injected_ok"] &= (
                    engine.multiply(left, right) == truth
                )

        injected_s = _best_time(injected, repeats)
        respawns = engine.backend.fault_report.respawns - respawns_before
        fault_events = [
            event.render() for event in engine.backend.fault_report.events
        ]
    finally:
        engine.close()
    return {
        "bits": bits,
        "count": count,
        "inject": inject_spec,
        "clean_s": clean_s,
        "injected_s": injected_s,
        "clean_ops_per_s": count / clean_s,
        "injected_ops_per_s": count / injected_s,
        "recovery_overhead": injected_s / clean_s - 1.0,
        "respawns": respawns,
        "clean_ok": flags["clean_ok"],
        "injected_ok": flags["injected_ok"],
        "fault_events": fault_events,
    }


def evaluate_resilience(report: dict, smoke: bool) -> List[str]:
    ceiling = (
        MAX_RECOVERY_OVERHEAD if smoke else FULL_MAX_RECOVERY_OVERHEAD
    )
    failures = []
    for r in report["resilience"]:
        tag = f"resilience bits={r['bits']} count={r['count']}"
        if not r["clean_ok"]:
            failures.append(f"{tag}: clean products diverged from truth")
        if not r["injected_ok"]:
            failures.append(
                f"{tag}: recovered products NOT bit-identical to truth"
            )
        if r["respawns"] < 1:
            failures.append(
                f"{tag}: no pool respawn recorded — the injected kill "
                f"never fired"
            )
        if r["recovery_overhead"] > ceiling:
            failures.append(
                f"{tag}: recovery overhead "
                f"{r['recovery_overhead']:+.1%} exceeds the "
                f"{ceiling:.0%} ceiling"
            )
    return failures


def run_resilience_suite(
    smoke: bool, repeats: Optional[int], seed: int, inject_spec: str
) -> dict:
    if inject_spec in ("worker-kill", "kill"):
        inject_spec = "worker-kill:0"
    bits, count = (
        RESILIENCE_SMOKE_WORKLOAD if smoke else RESILIENCE_FULL_WORKLOAD
    )
    repeats = repeats or (2 if smoke else 2)
    results = [resilience_case(bits, count, repeats, seed, inject_spec)]
    report = {
        "benchmark": "resilience",
        "schema_version": 1,
        "mode": "smoke" if smoke else "full",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "config": {
            "repeats": repeats,
            "seed": seed,
            "workers": 2,
            "inject": inject_spec,
            "timer": "best-of-repeats wall clock",
        },
        "resilience": results,
    }
    failures = evaluate_resilience(report, smoke)
    report["acceptance"] = {
        "max_recovery_overhead": (
            MAX_RECOVERY_OVERHEAD if smoke else FULL_MAX_RECOVERY_OVERHEAD
        ),
        "failures": failures,
        "passed": not failures,
    }
    return report


def render_resilience_table(report: dict) -> str:
    lines = [
        "Resilience: software-mp throughput, clean vs one injected "
        "worker kill",
        "",
        f"{'bits':>8} {'count':>6} {'clean s':>9} {'injected s':>11} "
        f"{'overhead':>9} {'respawns':>9} {'ok':>4}",
    ]
    for r in report["resilience"]:
        ok = r["clean_ok"] and r["injected_ok"]
        lines.append(
            f"{r['bits']:>8} {r['count']:>6} {r['clean_s']:>9.3f} "
            f"{r['injected_s']:>11.3f} {r['recovery_overhead']:>+8.1%} "
            f"{r['respawns']:>9} {'yes' if ok else 'NO':>4}"
        )
    lines.append("")
    lines.append("fault events observed:")
    for r in report["resilience"]:
        for event in r["fault_events"]:
            lines.append(f"  {event}")
    return "\n".join(lines)


def test_smoke_workload():
    """Pytest hook: the smoke suite must pass its gates."""
    report = run_suite(smoke=True, repeats=1, seed=0xFE)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small layer for CI; lenient overhead ceiling",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per case"
    )
    parser.add_argument("--seed", type=int, default=0xFE)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_fhe_workload.json — or BENCH_resilience.json with "
            "--inject — on full runs, nowhere on --smoke)"
        ),
    )
    parser.add_argument(
        "--inject",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "resilience mode: measure software-mp throughput clean vs "
            "with this fault injected (e.g. 'worker-kill'); gates "
            "recovery overhead and bit-identical recovery instead of "
            "the FHE-workload gates"
        ),
    )
    args = parser.parse_args(argv)

    if args.inject:
        report = run_resilience_suite(
            args.smoke, args.repeats, args.seed, args.inject
        )
        table = render_resilience_table(report)
        default_json = DEFAULT_RESILIENCE_JSON
        output_name = "resilience.txt"
    else:
        report = run_suite(args.smoke, args.repeats, args.seed)
        table = render_table(report)
        default_json = DEFAULT_JSON
        output_name = "fhe_workload.txt"
    print(table)

    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = default_json
    if json_path is not None:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {json_path}")
    if not args.smoke:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / output_name).write_text(table + "\n")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if args.inject:
        print(
            "\nPASS: recovery bit-identical, respawn recorded, "
            "overhead gate met"
        )
    else:
        print("\nPASS: every gate decrypts correctly, overhead gates met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
