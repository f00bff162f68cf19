"""Cyclic convolution over ``GF(p)`` — the heart of SSA multiplication.

``c = IFFT(FFT(a) ∘ FFT(b))`` where ``∘`` is the component-wise product
(the accelerator's "dot-product" phase, run on 32 extra modular
multipliers per Section V).  Because the paper's coefficients are 24-bit
and there are 2**15 of them, every convolution sum is below ``p`` and
the modular convolution *equals* the integer convolution — the property
SSA correctness rests on.

:func:`convolve_rows` is the one sandwich behind every ring convolution
(cyclic here, negacyclic in :mod:`repro.ntt.negacyclic`, and
:meth:`repro.engine.Ring.convolve`): the plan decides the flavor, and
the default decimated pairs never gather, since the pointwise product
ignores spectrum order.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.field.vector import vmul
from repro.ntt.plan import ORDER_DECIMATED, TransformPlan, plan_for_size
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch


def _staged_transform(
    plan: TransformPlan, rows: np.ndarray, inverse: bool = False
) -> np.ndarray:
    if inverse:
        return execute_plan_inverse_batch(rows, plan)
    return execute_plan_batch(rows, plan)


def pointwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component-wise product of two spectra (uint64 field arrays)."""
    if a.shape != b.shape:
        raise ValueError("spectra must have identical shapes")
    return vmul(a, b)


def convolve_rows(
    a: np.ndarray,
    b: np.ndarray,
    plan: TransformPlan,
    transform: Callable[..., np.ndarray] = _staged_transform,
) -> np.ndarray:
    """Row-wise convolutions of two ``(rows, n)`` matrices under ``plan``.

    Equal row counts pair row ``i`` with row ``i``; a single-row operand
    (either side) has its spectrum broadcast across the other's batch,
    ``B + 1`` forward transforms instead of ``2B``.  One batched forward
    ``transform(plan, rows)``, an in-place pointwise product and one
    batched ``transform(plan, rows, inverse=True)``; the default is the
    staged executor, :class:`repro.engine.Ring` passes its engine's
    backend dispatch.
    """
    batch_a, batch_b = a.shape[0], b.shape[0]
    if batch_a == 1 and batch_b != 1:  # keep the batch first
        a, b = b, a
        batch_a, batch_b = batch_b, batch_a
    if batch_b not in (batch_a, 1):
        raise ValueError(
            "operand batches must match (or one operand be a single "
            f"polynomial); got {batch_a} and {batch_b} rows"
        )
    spectra = transform(plan, np.concatenate([a, b], axis=0))
    product = vmul(
        spectra[:batch_a], spectra[batch_a:], out=spectra[:batch_a]
    )
    return transform(plan, product, inverse=True)


def cyclic_convolution(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Length-preserving cyclic convolution of two coefficient vectors.

    Both inputs must already be padded to the transform length; SSA
    zero-pads 32K coefficient vectors to 64K points so the cyclic
    convolution coincides with the acyclic one.
    """
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length flat arrays")
    result = cyclic_convolution_many(
        np.asarray(a, dtype=np.uint64).reshape(1, -1),
        np.asarray(b, dtype=np.uint64).reshape(1, -1),
        plan,
    )
    return result[0]


def cyclic_convolution_many(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Row-wise cyclic convolutions of two ``(batch, n)`` matrices.

    Identical per row to :func:`cyclic_convolution`, in one batched
    :func:`convolve_rows` pass.  The default plan is the decimated
    (permutation-free) pair; any untwisted ``n``-point plan works.
    """
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("inputs must be equal-shape (batch, n) matrices")
    n = a.shape[1]
    if plan is None:
        plan = plan_for_size(n, ordering=ORDER_DECIMATED)
    if plan.n != n:
        raise ValueError("plan size does not match input length")
    if plan.twist:
        # A fused plan computes the *negacyclic* transform directly;
        # running it here would silently wrap with the wrong sign.
        raise ValueError(
            "cyclic convolution requires an untwisted plan; got a "
            f"{plan.twist!r}-fused plan"
        )
    return convolve_rows(a, b, plan)
