"""Negacyclic convolution: polynomial products in ``Z_p[x]/(x^n + 1)``.

Section III notes that ultralong multiplication "plays a central role in
different fully homomorphic schemes, such as ... solutions based on
Lattice problems and Learning with Errors, which may thus be
implemented on top of the accelerator".  RLWE schemes multiply in the
negacyclic ring ``Z_q[x]/(x^n + 1)`` — the classic ψ-twist: scale input
``i`` by ``ψ^i`` (ψ a primitive 2n-th root, ``ψ² = ω``), run the
ordinary cyclic NTT of size ``n``, and untwist by ``ψ^{-i}``.  The same
FFT hardware serves both convolution flavors; only the twiddle
constants change.

Every function here executes a *fused* plan
(:data:`repro.ntt.plan.TWIST_NEGACYCLIC`): the ψ-twist lives in the
first-stage DFT/twiddle constants and the ψ⁻¹-untwist plus ``n^{-1}``
in the inverse companion's stages, so a negacyclic transform is one
plain plan execution with no twist vector passes.  An unfused (plain
cyclic) plan raises :class:`ValueError`, the way
:func:`repro.ntt.convolution.cyclic_convolution_many` rejects a fused
one.

The *convolution* entry points run the shared
:func:`repro.ntt.convolution.convolve_rows` sandwich and default to the
fused decimated (permutation-free) pair: the pointwise product never
looks at spectrum order, so the digit-reversal gathers drop too.  The
explicit-spectra pair :func:`negacyclic_transform_many` /
:func:`negacyclic_inverse_many` keeps natural-order spectra by default
— callers who inspect spectra see the natural layout unless they pass
a decimated plan themselves (see :mod:`repro.ntt.order`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.field.roots import root_of_unity
from repro.field.solinas import P, inverse, pow_mod
from repro.ntt.convolution import convolve_rows
from repro.ntt.plan import (
    TWIST_NEGACYCLIC,
    TransformPlan,
    decimated_companion,
    plan_for_size,
)
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch


@lru_cache(maxsize=None)
def twist_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ψ^i, ψ^{-i})`` tables for the forward and inverse twist.

    The fused plans fold these into their stage constants; the tables
    stay public for the hw-model's datapath fidelity, which walks the
    plain cyclic base plan with the explicit twist because the
    shift-only FFT-64 unit only evaluates plain DFT webs.  Cached per
    ``n``.
    """
    psi = root_of_unity(2 * n)
    if pow_mod(psi, 2) != root_of_unity(n):
        raise ArithmeticError("psi is not a square root of omega")
    forward = np.empty(n, dtype=np.uint64)
    backward = np.empty(n, dtype=np.uint64)
    psi_inv = inverse(psi)
    f = b = 1
    for i in range(n):
        forward[i] = f
        backward[i] = b
        f = f * psi % P
        b = b * psi_inv % P
    return forward, backward


def _negacyclic_plan(
    n: int, plan: Optional[TransformPlan], decimated: bool = False
) -> TransformPlan:
    """The given fused ``n``-point plan, or the cached default (natural,
    or its decimated companion when ``decimated``)."""
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    if plan is None:
        plan = plan_for_size(n, twist=TWIST_NEGACYCLIC)
        return decimated_companion(plan) if decimated else plan
    if plan.n != n:
        raise ValueError("plan size does not match input length")
    if plan.twist != TWIST_NEGACYCLIC:
        raise ValueError(
            "negacyclic operations require a fused plan "
            f"(twist={TWIST_NEGACYCLIC!r}); got an unfused cyclic plan"
        )
    return plan


def negacyclic_convolution(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Coefficients of ``a(x)·b(x) mod (x^n + 1)`` over ``GF(p)``.

    Unlike the SSA path there is no zero-padding: the wrap-around terms
    pick up the ``−1`` sign that the twist encodes.
    """
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length flat arrays")
    result = negacyclic_convolution_many(
        np.asarray(a, dtype=np.uint64).reshape(1, -1),
        np.asarray(b, dtype=np.uint64).reshape(1, -1),
        plan,
    )
    return result[0]


def negacyclic_convolution_many(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Row-wise negacyclic products of two ``(batch, n)`` matrices,
    identical per row to :func:`negacyclic_convolution`."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("inputs must be equal-shape (batch, n) matrices")
    plan = _negacyclic_plan(a.shape[1], plan, decimated=True)
    return convolve_rows(a, b, plan)


def negacyclic_convolution_broadcast(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Negacyclic product of every row of ``(batch, n)`` ``a`` with one
    fixed polynomial ``b``.

    The fixed operand is transformed once and its spectrum broadcast
    across the batch — ``batch + 1`` forward transforms instead of the
    ``2·batch`` a tiled :func:`negacyclic_convolution_many` would pay.
    The default plan is the fused decimated pair.
    """
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.ndim != 2 or b.shape != (a.shape[1],):
        raise ValueError(
            "expected a (batch, n) matrix and a length-n polynomial"
        )
    plan = _negacyclic_plan(a.shape[1], plan, decimated=True)
    return convolve_rows(a, b[np.newaxis, :], plan)


def negacyclic_transform_many(
    polys: np.ndarray, plan: Optional[TransformPlan] = None
) -> np.ndarray:
    """Twisted forward spectra of a ``(batch, n)`` coefficient matrix.

    Together with :func:`negacyclic_inverse_many` this exposes the two
    halves of the convolution so callers can reuse spectra (e.g. one
    plaintext spectrum against both halves of an RLWE ciphertext).
    The default plan keeps *natural* spectrum order; pass a fused
    decimated plan for permutation-free spectra.
    """
    polys = np.ascontiguousarray(polys, dtype=np.uint64)
    if polys.ndim != 2:
        raise ValueError("expected a (batch, n) matrix")
    return execute_plan_batch(polys, _negacyclic_plan(polys.shape[1], plan))


def negacyclic_inverse_many(
    spectra: np.ndarray, plan: Optional[TransformPlan] = None
) -> np.ndarray:
    """Inverse of :func:`negacyclic_transform_many`: untwisted rows.

    The untwist (and ``n^{-1}``) live in the fused inverse stages, so
    this is one plain plan execution with no trailing vector passes.
    """
    spectra = np.ascontiguousarray(spectra, dtype=np.uint64)
    if spectra.ndim != 2:
        raise ValueError("expected a (batch, n) matrix")
    return execute_plan_inverse_batch(
        spectra, _negacyclic_plan(spectra.shape[1], plan)
    )
