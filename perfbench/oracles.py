"""Oracles independent of the program's NTT path."""

from __future__ import annotations

from typing import List

_SLOT = 64  # bits per packed coefficient: n·(t−1)² < 2**64 for every use here


def _pack(poly: List[int]) -> int:
    return int.from_bytes(
        b"".join(int(c).to_bytes(_SLOT // 8, "little") for c in poly), "little"
    )


def kronecker_negacyclic(a: List[int], b: List[int], t: int) -> List[int]:
    """``a·b mod (x^n + 1, t)`` for coefficients in ``[0, t)``.

    Kronecker substitution: pack each polynomial into one integer with
    64-bit slots, multiply with Python's big-integer product, unpack,
    and fold the top half back with a minus sign.
    """
    n = len(a)
    product = _pack(a) * _pack(b)
    mask = (1 << _SLOT) - 1
    coeffs = [(product >> (_SLOT * k)) & mask for k in range(2 * n)]
    return [(coeffs[k] - coeffs[k + n]) % t for k in range(n)]
