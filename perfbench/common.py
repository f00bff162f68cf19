"""Paths, pinned environment, environment record and result output."""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

from catalog import UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fixed in every workload's process (and inherited by the server
#: subprocess) before numpy loads, identically on every commit.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Variables that would silently change what the program runs.
CLEARED_ENV = ("REPRO_NTT_KERNEL",)


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure ({SRC / 'repro'} missing); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (ROOT / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):  # numpy < 2 has no dict mode
        pass
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pinned_env": dict(PINNED_ENV),
    }


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float]) -> None:
    """The result line: last line of stdout, one JSON object."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
