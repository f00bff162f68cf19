"""SSA-multiply perf trajectory, driven through the Engine façade.

Standalone benchmark (also importable under pytest) timing
``Engine().multiply`` on the software backend: the paper's single
786,432-bit product plus looped-vs-batched throughput at service-like
batch sizes — every measurement cross-checked bit-exact against
Python's big integers.  Batched cases additionally time the jobs API
(looped ``JobScheduler.submit`` vs chunked ``JobScheduler.map``) and
cross-check the ``software-mp`` sharding backend bit-identical against
``software``.  Results go to two places:

- ``BENCH_ssa_multiply.json`` at the repo root — the machine-readable
  perf-trajectory point (SSA-multiply series, one point per PR);
- ``benchmarks/output/ssa_multiply.txt`` — the human-readable table.

Usage::

    python benchmarks/bench_ssa_multiply.py            # full: paper size
    python benchmarks/bench_ssa_multiply.py --smoke    # CI: small sizes

Exit status is non-zero if any product loses bit-exactness or the
batched path regresses below the mode's speedup floor over looped
multiplication.
"""

from __future__ import annotations

import argparse
import json
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

from repro.engine import Engine, ExecutionConfig  # noqa: E402
from repro.jobs import MultiplyJob  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_ssa_multiply.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: The batched path must never lose to looping the scalar path on a
#: full run; the smoke floor is lenient because CI boxes are noisy and
#: the sizes tiny.
FULL_MIN_SPEEDUP = 1.0
SMOKE_MIN_SPEEDUP = 0.5
#: ``JobScheduler.map`` must beat looped per-pair submission (the
#: acceptance gate holds on >= 2 cores; single-core boxes still record
#: the numbers but only the lenient floor is enforced).
JOBS_MIN_SPEEDUP = 1.0
JOBS_MIN_SPEEDUP_1CORE = 0.5


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_case(
    engine: Engine,
    bits: int,
    count: int,
    repeats: int,
    seed: int,
    mp_engine: Optional[Engine] = None,
) -> dict:
    """Time looped vs batched products of one ``(bits, count)`` point.

    Batched cases also time the jobs API — per-pair ``submit`` loops
    vs chunked ``map`` over the same series — and, when ``mp_engine``
    is given, cross-check the ``software-mp`` products bit-identical.
    """
    rng = random.Random(seed)
    left = [rng.getrandbits(bits) for _ in range(count)]
    right = [rng.getrandbits(bits) for _ in range(count)]
    pairs = list(zip(left, right))
    truth = [a * b for a, b in pairs]

    batched = engine.multiply(left, right)  # warm plans + verify
    looped = [engine.multiply(a, b) for a, b in zip(left, right)]
    bit_exact = batched == truth and looped == truth

    looped_s = _best_time(
        lambda: [engine.multiply(a, b) for a, b in zip(left, right)],
        repeats,
    )
    batched_s = _best_time(lambda: engine.multiply(left, right), repeats)
    entry = {
        "bits": bits,
        "count": count,
        "looped_s": looped_s,
        "batched_s": batched_s,
        "speedup": looped_s / batched_s,
        "batched_ops_per_s": count / batched_s,
        "bit_exact": bit_exact,
    }

    if mp_engine is not None:
        entry["mp_bit_identical"] = (
            mp_engine.multiply(left, right) == truth
        )

    if count > 1:
        scheduler = engine.scheduler()

        def submit_looped():
            handles = [
                scheduler.submit(MultiplyJob.of(a, b)) for a, b in pairs
            ]
            return [h.result()[0] for h in handles]

        def submit_map():
            return scheduler.map("multiply", pairs)

        jobs_exact = submit_looped() == truth and submit_map() == truth
        jobs_looped_s = _best_time(submit_looped, repeats)
        jobs_map_s = _best_time(submit_map, repeats)
        entry["jobs"] = {
            "looped_submit_s": jobs_looped_s,
            "map_s": jobs_map_s,
            "map_speedup": jobs_looped_s / jobs_map_s,
            "map_ops_per_s": count / jobs_map_s,
            "bit_exact": jobs_exact,
        }
    return entry


def render_table(results: List[dict]) -> str:
    lines = [
        "SSA multiplication through Engine(): looped vs batched",
        "",
        f"{'bits':>8} {'count':>6} {'looped s':>10} {'batched s':>10} "
        f"{'speedup':>8} {'ops/s':>10} {'exact':>6}",
    ]
    for r in results:
        lines.append(
            f"{r['bits']:>8} {r['count']:>6} {r['looped_s']:>10.4f} "
            f"{r['batched_s']:>10.4f} {r['speedup']:>7.2f}x "
            f"{r['batched_ops_per_s']:>10.1f} "
            f"{'yes' if r['bit_exact'] else 'NO':>6}"
        )
    jobs_rows = [r for r in results if "jobs" in r]
    if jobs_rows:
        lines += [
            "",
            "jobs API: looped JobScheduler.submit vs chunked .map",
            "",
            f"{'bits':>8} {'count':>6} {'submit s':>10} {'map s':>10} "
            f"{'speedup':>8} {'ops/s':>10} {'exact':>6}",
        ]
        for r in jobs_rows:
            j = r["jobs"]
            lines.append(
                f"{r['bits']:>8} {r['count']:>6} "
                f"{j['looped_submit_s']:>10.4f} {j['map_s']:>10.4f} "
                f"{j['map_speedup']:>7.2f}x {j['map_ops_per_s']:>10.1f} "
                f"{'yes' if j['bit_exact'] else 'NO':>6}"
            )
    if any("mp_bit_identical" in r for r in results):
        identical = all(
            r.get("mp_bit_identical", True) for r in results
        )
        lines += [
            "",
            "software-mp vs software: "
            + ("bit-identical" if identical else "DIVERGED"),
        ]
    return "\n".join(lines)


def evaluate(results: List[dict], smoke: bool) -> List[str]:
    """Gate failures (empty list == pass)."""
    import os

    floor = SMOKE_MIN_SPEEDUP if smoke else FULL_MIN_SPEEDUP
    # The map-vs-looped-submission gate is the acceptance criterion on
    # multi-core hosts; single-core boxes only enforce a sanity floor.
    jobs_floor = (
        JOBS_MIN_SPEEDUP
        if (os.cpu_count() or 1) >= 2 and not smoke
        else JOBS_MIN_SPEEDUP_1CORE
    )
    failures = []
    for r in results:
        tag = f"bits={r['bits']} count={r['count']}"
        if not r["bit_exact"]:
            failures.append(f"{tag}: products diverged from big-int truth")
        if not r.get("mp_bit_identical", True):
            failures.append(
                f"{tag}: software-mp diverged from the software backend"
            )
        if r["count"] > 1 and r["speedup"] < floor:
            failures.append(
                f"{tag}: batched path regressed to "
                f"{r['speedup']:.2f}x (< {floor}x looped)"
            )
        jobs = r.get("jobs")
        if jobs is not None:
            if not jobs["bit_exact"]:
                failures.append(
                    f"{tag}: jobs API diverged from big-int truth"
                )
            if jobs["map_speedup"] < jobs_floor:
                failures.append(
                    f"{tag}: JobScheduler.map regressed to "
                    f"{jobs['map_speedup']:.2f}x "
                    f"(< {jobs_floor}x looped submission)"
                )
    return failures


def run_suite(smoke: bool, repeats: Optional[int], seed: int) -> dict:
    import os

    engine = Engine()
    mp_engine = Engine(backend="software-mp")
    if smoke:
        cases = [(2048, 1), (2048, 8)]
        repeats = repeats or 2
    else:
        cases = [(786_432, 1), (4096, 32), (16384, 16)]
        repeats = repeats or 3
    try:
        results = [
            run_case(
                engine, bits, count, repeats, seed + i, mp_engine=mp_engine
            )
            for i, (bits, count) in enumerate(cases)
        ]
    finally:
        mp_engine.close()
        engine.close()
    failures = evaluate(results, smoke)
    return {
        "benchmark": "ssa_multiply",
        "schema_version": 4,
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
            "mp_workers": mp_engine.backend.workers(mp_engine),
            "repeats": repeats,
            "seed": seed,
            "timer": "best-of-repeats wall clock",
        },
        "results": results,
        "acceptance": {
            "min_batched_speedup": (
                SMOKE_MIN_SPEEDUP if smoke else FULL_MIN_SPEEDUP
            ),
            "failures": failures,
            "passed": not failures,
        },
    }


def test_smoke_comparison():
    """Pytest hook: the smoke suite must pass its gates."""
    report = run_suite(smoke=True, repeats=1, seed=0x55A)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI; lenient speedup floor",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per case"
    )
    parser.add_argument("--seed", type=int, default=0x55A)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_ssa_multiply.json on full runs, nowhere on --smoke)"
        ),
    )
    args = parser.parse_args(argv)

    report = run_suite(args.smoke, args.repeats, args.seed)
    table = render_table(report["results"])
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
        (OUTPUT_DIR / "ssa_multiply.txt").write_text(table + "\n")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nPASS: bit-exact everywhere, speedup gates met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
