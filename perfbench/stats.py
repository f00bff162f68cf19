"""Order statistics used by every workload."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``0.0`` for an empty sample).

    With ``n`` samples, ``percentile(v, q)`` has ``n - ceil(q·n)``
    samples above it; a run that wants ten samples beyond p99 needs at
    least 1,000.  ``inf`` entries (failed requests) rank above every
    time.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    return count - max(1, math.ceil(fraction * count))
