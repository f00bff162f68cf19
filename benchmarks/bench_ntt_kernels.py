"""E10 — NTT stage-kernel backends: ``loop`` vs ``limb-matmul``.

Standalone benchmark (also importable under pytest) comparing the two
stage-DFT backends of :mod:`repro.ntt.kernels` on the forward NTT at
several batch sizes, cross-checking bit-exactness on every
measurement, plus the convolution gate: the production cyclic and
ψ-fused negacyclic convolutions (limb-matmul kernel, permutation-free
DIF/DIT pair) must be bit-identical to the natural-order ``loop``-kernel
oracle, and their throughput is recorded.  Results go to two places:

- ``BENCH_ntt_kernels.json`` at the repo root — the machine-readable
  perf-trajectory point (first of its series);
- ``benchmarks/output/ntt_kernels.txt`` — the human-readable table.

Usage::

    python benchmarks/bench_ntt_kernels.py            # full: 64K points
    python benchmarks/bench_ntt_kernels.py --smoke    # CI: 4K points

Exit status is non-zero if the limb-matmul backend loses bit-exactness
anywhere or regresses below 1× the loop backend, or a production
convolution loses bit-identity; the full run additionally enforces the
≥3× acceptance threshold on the single-shot (batch = 1) 64K-point
transform.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.field.solinas import P  # noqa: E402
from repro.ntt.convolution import cyclic_convolution_many  # noqa: E402
from repro.ntt.kernels import (  # noqa: E402
    KERNEL_LIMB_MATMUL,
    KERNEL_LOOP,
)
from repro.ntt.negacyclic import (  # noqa: E402
    negacyclic_convolution_many,
)
from repro.ntt.plan import (  # noqa: E402
    ORDER_DECIMATED,
    TWIST_NEGACYCLIC,
    plan_for_size,
)
from repro.ntt.staged import execute_plan_batch  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_ntt_kernels.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Acceptance thresholds (see ISSUE 2): the fast backend must never be
#: slower than the reference, and the full run must show ≥3× on the
#: single-shot 64K transform.
MIN_SPEEDUP = 1.0
ACCEPTANCE_SPEEDUP = 3.0
ACCEPTANCE_N = 65536


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_case(n: int, radices, batch: int, repeats: int, seed: int) -> dict:
    """Time both backends on one ``(n, batch)`` point; verify exactness."""
    loop_plan = plan_for_size(n, radices, kernel=KERNEL_LOOP)
    fast_plan = plan_for_size(n, radices, kernel=KERNEL_LIMB_MATMUL)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, P, size=(batch, n), dtype=np.uint64)

    loop_out = execute_plan_batch(data, loop_plan)  # warm + reference
    fast_out = execute_plan_batch(data, fast_plan)
    bit_exact = bool(np.array_equal(loop_out, fast_out))

    loop_s = _best_time(lambda: execute_plan_batch(data, loop_plan), repeats)
    fast_s = _best_time(lambda: execute_plan_batch(data, fast_plan), repeats)
    return {
        "n": n,
        "radices": list(radices),
        "batch": batch,
        "loop_s": loop_s,
        "limb_matmul_s": fast_s,
        "speedup": loop_s / fast_s,
        "loop_transforms_per_s": batch / loop_s,
        "limb_matmul_transforms_per_s": batch / fast_s,
        "bit_exact": bit_exact,
    }


def run_convolution_case(
    flavor: str, n: int, radices, batch: int, repeats: int, seed: int
) -> dict:
    """Time the production convolution of one flavor; verify exactness.

    ``flavor`` is ``"cyclic"`` (untwisted plans) or ``"negacyclic"``
    (ψ-fused plans, the RLWE ring product).  The production route is
    the limb-matmul permutation-free DIF/DIT pair; the oracle is the
    natural-order ``loop``-kernel plan of the same flavor.
    """
    twist = TWIST_NEGACYCLIC if flavor == "negacyclic" else ""
    conv = (
        negacyclic_convolution_many
        if flavor == "negacyclic"
        else cyclic_convolution_many
    )
    oracle_plan = plan_for_size(n, radices, kernel=KERNEL_LOOP, twist=twist)
    plan = plan_for_size(
        n,
        radices,
        kernel=KERNEL_LIMB_MATMUL,
        twist=twist,
        ordering=ORDER_DECIMATED,
    )
    rng = np.random.default_rng(seed)
    a = rng.integers(0, P, size=(batch, n), dtype=np.uint64)
    b = rng.integers(0, P, size=(batch, n), dtype=np.uint64)

    bit_exact = bool(
        np.array_equal(conv(a, b, oracle_plan), conv(a, b, plan))
    )
    conv_s = _best_time(lambda: conv(a, b, plan), repeats)
    return {
        "flavor": flavor,
        "n": n,
        "radices": list(radices),
        "batch": batch,
        "convolution_s": conv_s,
        "products_per_s": batch / conv_s,
        "bit_exact": bit_exact,
    }


def render_table(results: List[dict]) -> str:
    lines = [
        "NTT stage-kernel backends: loop vs limb-matmul (forward NTT)",
        "",
        f"{'n':>7} {'batch':>6} {'loop s':>10} {'limb-matmul s':>14} "
        f"{'speedup':>8} {'exact':>6}",
    ]
    for r in results:
        lines.append(
            f"{r['n']:>7} {r['batch']:>6} {r['loop_s']:>10.4f} "
            f"{r['limb_matmul_s']:>14.4f} {r['speedup']:>7.2f}x "
            f"{'yes' if r['bit_exact'] else 'NO':>6}"
        )
    return "\n".join(lines)


def render_convolution_table(results: List[dict]) -> str:
    lines = [
        "",
        "production convolutions: limb-matmul permutation-free pair",
        "",
        f"{'flavor':>10} {'n':>7} {'batch':>6} {'conv s':>10} "
        f"{'products/s':>11} {'exact':>6}",
    ]
    for r in results:
        lines.append(
            f"{r['flavor']:>10} {r['n']:>7} {r['batch']:>6} "
            f"{r['convolution_s']:>10.4f} {r['products_per_s']:>11.2f} "
            f"{'yes' if r['bit_exact'] else 'NO':>6}"
        )
    return "\n".join(lines)


def evaluate(
    results: List[dict],
    smoke: bool,
    convolution: Optional[List[dict]] = None,
) -> List[str]:
    """Gate failures (empty list == pass)."""
    failures = []
    for r in results:
        tag = f"n={r['n']} batch={r['batch']}"
        if not r["bit_exact"]:
            failures.append(f"{tag}: limb-matmul output diverged from loop")
        if r["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"{tag}: limb-matmul regressed to "
                f"{r['speedup']:.2f}x (< {MIN_SPEEDUP}x loop)"
            )
    for r in convolution or []:
        if not r["bit_exact"]:
            failures.append(
                f"{r['flavor']} convolution n={r['n']} batch={r['batch']}: "
                f"output diverged from the natural-order loop oracle"
            )
    if not smoke:
        single = [
            r
            for r in results
            if r["n"] == ACCEPTANCE_N and r["batch"] == 1
        ]
        if not single:
            failures.append(
                f"no batch-1 {ACCEPTANCE_N}-point measurement present"
            )
        elif single[0]["speedup"] < ACCEPTANCE_SPEEDUP:
            failures.append(
                f"single-shot {ACCEPTANCE_N}-point speedup "
                f"{single[0]['speedup']:.2f}x "
                f"< {ACCEPTANCE_SPEEDUP}x acceptance threshold"
            )
    return failures


def run_suite(smoke: bool, repeats: Optional[int], seed: int) -> dict:
    if smoke:
        cases = [(4096, (64, 64), b) for b in (1, 8)]
        convolution_cases = [
            ("cyclic", 4096, (64, 64), 4),
            ("negacyclic", 4096, (64, 64), 4),
        ]
        repeats = repeats or 2
    else:
        cases = [(65536, (64, 64, 16), b) for b in (1, 8, 32)]
        convolution_cases = [
            ("cyclic", 65536, (64, 64, 16), 4),
            ("cyclic", 65536, (64, 64, 16), 8),
            ("negacyclic", 65536, (64, 64, 16), 1),
            ("negacyclic", 65536, (64, 64, 16), 4),
        ]
        repeats = repeats or 3
    results = [
        run_case(n, radices, batch, repeats, seed + i)
        for i, (n, radices, batch) in enumerate(cases)
    ]
    convolution_results = [
        run_convolution_case(
            flavor, n, radices, batch, repeats, seed + 200 + i
        )
        for i, (flavor, n, radices, batch) in enumerate(convolution_cases)
    ]
    failures = evaluate(results, smoke, convolution_results)
    return {
        "benchmark": "ntt_kernels",
        "schema_version": 4,
        "mode": "smoke" if smoke else "full",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {
            "repeats": repeats,
            "seed": seed,
            "timer": "best-of-repeats wall clock",
        },
        "results": results,
        "convolution": convolution_results,
        "acceptance": {
            "min_speedup": MIN_SPEEDUP,
            "single_shot_threshold": (
                None if smoke else ACCEPTANCE_SPEEDUP
            ),
            "failures": failures,
            "passed": not failures,
        },
    }


def test_smoke_comparison():
    """Pytest hook: the smoke suite must pass its gates."""
    report = run_suite(smoke=True, repeats=1, seed=0xDA7E)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI; skips the 3x single-shot gate",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per case"
    )
    parser.add_argument("--seed", type=int, default=0xDA7E)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_ntt_kernels.json on full runs, nowhere on --smoke)"
        ),
    )
    args = parser.parse_args(argv)

    report = run_suite(args.smoke, args.repeats, args.seed)
    table = (
        render_table(report["results"])
        + "\n"
        + render_convolution_table(report["convolution"])
    )
    print(table)

    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = DEFAULT_JSON
    if json_path is not None:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {json_path}")
    if not args.smoke:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / "ntt_kernels.txt").write_text(table + "\n")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        "\nPASS: bit-exact everywhere (production convolutions "
        "included), speedup gates met"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
