"""Tests for negacyclic convolution (repro.ntt.negacyclic)."""

import numpy as np
import pytest

from repro.field.solinas import P
from repro.field.vector import from_field_array, to_field_array
from repro.ntt.negacyclic import (
    negacyclic_convolution,
    negacyclic_convolution_broadcast,
    negacyclic_convolution_many,
    negacyclic_inverse_many,
    negacyclic_transform_many,
)
from repro.ntt.plan import TWIST_NEGACYCLIC, plan_for_size


def direct_negacyclic(a, b):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + a[i] * b[j]) % P
            else:
                out[k - n] = (out[k - n] - a[i] * b[j]) % P
    return out


@pytest.mark.parametrize("n", [2, 4, 16, 64, 128])
def test_matches_direct(n, rng):
    a = [rng.randrange(1 << 20) for _ in range(n)]
    b = [rng.randrange(1 << 20) for _ in range(n)]
    got = negacyclic_convolution(to_field_array(a), to_field_array(b))
    assert from_field_array(got) == direct_negacyclic(a, b)


def test_x_to_the_n_is_minus_one(rng):
    """Multiplying by x^(n-1) then x once more must negate + rotate."""
    n = 16
    a = [rng.randrange(P) for _ in range(n)]
    x1 = [0] * n
    x1[1] = 1
    rotated = from_field_array(
        negacyclic_convolution(to_field_array(a), to_field_array(x1))
    )
    # x·a: coefficient k of the product is a[k-1], with a[n-1] wrapping
    # to position 0 negated.
    expected = [(P - a[n - 1]) % P] + a[: n - 1]
    assert rotated == expected


def test_identity(rng):
    n = 64
    a = [rng.randrange(P) for _ in range(n)]
    one = [1] + [0] * (n - 1)
    got = negacyclic_convolution(to_field_array(a), to_field_array(one))
    assert from_field_array(got) == a


def test_commutative(rng):
    n = 32
    a = to_field_array([rng.randrange(P) for _ in range(n)])
    b = to_field_array([rng.randrange(P) for _ in range(n)])
    assert np.array_equal(
        negacyclic_convolution(a, b), negacyclic_convolution(b, a)
    )


def test_differs_from_cyclic(rng):
    """Wrap-around terms get the −1 sign: for generic inputs the
    negacyclic and cyclic products differ."""
    from repro.ntt.convolution import cyclic_convolution

    n = 16
    a = to_field_array([rng.randrange(2, P) for _ in range(n)])
    b = to_field_array([rng.randrange(2, P) for _ in range(n)])
    nega = negacyclic_convolution(a, b)
    cyc = cyclic_convolution(a, b)
    assert not np.array_equal(nega, cyc)


def test_explicit_plan(rng):
    n = 256
    plan = plan_for_size(n, (16, 16), twist=TWIST_NEGACYCLIC)
    a = [rng.randrange(1 << 16) for _ in range(n)]
    b = [rng.randrange(1 << 16) for _ in range(n)]
    got = negacyclic_convolution(
        to_field_array(a), to_field_array(b), plan=plan
    )
    assert from_field_array(got) == direct_negacyclic(a, b)


def test_unfused_plan_rejected():
    """Every negacyclic entry point refuses a plain cyclic plan, the way
    cyclic_convolution_many refuses a fused one."""
    unfused = plan_for_size(64, (8, 8))
    rows = np.ones((2, 64), dtype=np.uint64)
    calls = [
        lambda: negacyclic_convolution(rows[0], rows[1], unfused),
        lambda: negacyclic_convolution_many(rows, rows, unfused),
        lambda: negacyclic_convolution_broadcast(rows, rows[0], unfused),
        lambda: negacyclic_transform_many(rows, unfused),
        lambda: negacyclic_inverse_many(rows, unfused),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="fused plan"):
            call()


def test_bad_inputs():
    with pytest.raises(ValueError):
        negacyclic_convolution(to_field_array([1, 2]), to_field_array([1]))
    with pytest.raises(ValueError):
        negacyclic_convolution(
            to_field_array([1, 2, 3]), to_field_array([1, 2, 3])
        )
