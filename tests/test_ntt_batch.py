"""Property tests: the batched executor is bit-identical to the
per-vector paths (repro.ntt.staged / convolution / negacyclic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.solinas import P
from repro.field.vector import from_field_array
from repro.ntt.convolution import cyclic_convolution, cyclic_convolution_many
from repro.ntt.negacyclic import (
    negacyclic_convolution,
    negacyclic_convolution_broadcast,
    negacyclic_convolution_many,
)
from repro.ntt.plan import (
    ORDER_DECIMATED,
    TWIST_NEGACYCLIC,
    clear_plan_cache,
    plan_cache_stats,
    plan_for_size,
)
from repro.ntt.reference import dft_reference
from repro.ntt.staged import (
    execute_plan,
    execute_plan_batch,
    execute_plan_inverse,
    execute_plan_inverse_batch,
)

#: (size, radices) configurations spanning radix shapes and stage counts.
CONFIGS = [
    (16, (4, 4)),
    (64, (8, 8)),
    (64, (64,)),
    (256, (16, 16)),
    (512, (8, 8, 8)),
    (1024, (64, 16)),
    (1024, (16, 64)),
]


def _random_matrix(batch: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, P, size=(batch, n), dtype=np.uint64)


@settings(max_examples=40, deadline=None)
@given(
    config=st.sampled_from(CONFIGS),
    batch=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_forward_matches_per_vector(config, batch, seed):
    n, radices = config
    plan = plan_for_size(n, radices)
    matrix = _random_matrix(batch, n, seed)
    got = execute_plan_batch(matrix, plan)
    want = np.vstack([execute_plan(matrix[i], plan) for i in range(batch)])
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    config=st.sampled_from(CONFIGS),
    batch=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_inverse_roundtrip(config, batch, seed):
    n, radices = config
    plan = plan_for_size(n, radices)
    matrix = _random_matrix(batch, n, seed)
    spectrum = execute_plan_batch(matrix, plan)
    assert np.array_equal(execute_plan_inverse_batch(spectrum, plan), matrix)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_matches_dft_reference(batch, seed):
    n, radices = 16, (4, 4)
    plan = plan_for_size(n, radices)
    matrix = _random_matrix(batch, n, seed)
    got = execute_plan_batch(matrix, plan)
    for row_in, row_out in zip(matrix, got):
        assert from_field_array(row_out) == dft_reference(
            [int(v) for v in row_in]
        )


@settings(max_examples=25, deadline=None)
@given(
    config=st.sampled_from(CONFIGS[:5]),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_convolution_many_matches_looped(config, batch, seed):
    n, radices = config
    plan = plan_for_size(n, radices, ordering=ORDER_DECIMATED)
    fused = plan_for_size(
        n, radices, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED
    )
    a = _random_matrix(batch, n, seed)
    b = _random_matrix(batch, n, seed + 1)
    cyc = cyclic_convolution_many(a, b, plan)
    neg = negacyclic_convolution_many(a, b, fused)
    for i in range(batch):
        assert np.array_equal(cyc[i], cyclic_convolution(a[i], b[i], plan))
        assert np.array_equal(
            neg[i], negacyclic_convolution(a[i], b[i], fused)
        )


@settings(max_examples=25, deadline=None)
@given(
    config=st.sampled_from(CONFIGS[:5]),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_convolution_broadcast_matches_looped(config, batch, seed):
    n, radices = config
    plan = plan_for_size(
        n, radices, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED
    )
    a = _random_matrix(batch, n, seed)
    fixed = _random_matrix(1, n, seed + 1)[0]
    got = negacyclic_convolution_broadcast(a, fixed, plan)
    for i in range(batch):
        assert np.array_equal(
            got[i], negacyclic_convolution(a[i], fixed, plan)
        )


class TestDispatch:
    def test_matrix_through_execute_plan(self):
        plan = plan_for_size(64, (8, 8))
        matrix = _random_matrix(3, 64, 7)
        assert np.array_equal(
            execute_plan(matrix, plan), execute_plan_batch(matrix, plan)
        )
        assert np.array_equal(
            execute_plan_inverse(matrix, plan),
            execute_plan_inverse_batch(matrix, plan),
        )

    def test_flat_vector_stays_flat(self):
        plan = plan_for_size(64, (8, 8))
        x = _random_matrix(1, 64, 11)[0]
        out = execute_plan(x, plan)
        assert out.shape == (64,)
        assert np.array_equal(execute_plan_inverse(out, plan), x)

    def test_empty_batch(self):
        plan = plan_for_size(64, (8, 8))
        empty = np.zeros((0, 64), dtype=np.uint64)
        assert execute_plan_batch(empty, plan).shape == (0, 64)

    @pytest.mark.parametrize(
        "shape", [(3,), (2, 63), (2, 2, 64)]
    )
    def test_bad_shapes_rejected(self, shape):
        plan = plan_for_size(64, (8, 8))
        with pytest.raises(ValueError):
            execute_plan(np.zeros(shape, dtype=np.uint64), plan)

    def test_convolution_many_shape_mismatch(self):
        a = np.zeros((2, 64), dtype=np.uint64)
        b = np.zeros((3, 64), dtype=np.uint64)
        with pytest.raises(ValueError):
            cyclic_convolution_many(a, b)
        with pytest.raises(ValueError):
            negacyclic_convolution_many(a, b)


class TestPlanCache:
    def test_stats_and_clear(self):
        clear_plan_cache()
        stats = plan_cache_stats()
        assert (stats.size, stats.hits, stats.misses) == (0, 0, 0)
        plan_for_size(64, (8, 8))
        plan_for_size(64, (8, 8))
        plan_for_size(64, (64,))
        stats = plan_cache_stats()
        assert stats.size == 2
        assert stats.hits == 1
        assert stats.misses == 2
        clear_plan_cache()
        stats = plan_cache_stats()
        assert (stats.size, stats.hits, stats.misses) == (0, 0, 0)

    def test_inverse_scale_precomputed(self):
        plan = plan_for_size(64, (8, 8))
        assert int(plan.n_inv) == pow(64, P - 2, P)
