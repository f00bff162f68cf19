"""Property tests: the limb-matmul kernel is bit-identical to the loop
kernel (repro.ntt.kernels) across radices, stage shapes and batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.solinas import P
from repro.ntt.kernels import (
    KERNEL_ENV_VAR,
    KERNEL_LIMB_MATMUL,
    KERNEL_LOOP,
    available_kernels,
    default_kernel,
    limb_decompose_matrix,
    resolve_kernel,
    stage_dft_limb_matmul,
    stage_dft_loop,
)
from repro.ntt.negacyclic import (
    negacyclic_convolution_many,
    negacyclic_inverse_many,
    negacyclic_transform_many,
)
from repro.ntt.plan import TWIST_NEGACYCLIC, StageSpec, plan_for_size
from repro.ntt.staged import (
    execute_plan_batch,
    execute_plan_inverse_batch,
)

#: Values straddling every limb boundary of the 16-bit decomposition.
EDGE_RESIDUES = [
    0,
    1,
    (1 << 16) - 1,
    1 << 16,
    (1 << 32) - 1,
    1 << 32,
    (1 << 48) - 1,
    1 << 48,
    P - 1,
    P - 2,
    P - (1 << 32),
]


def _random_block(rng, b, radix, tail, edge_bias=0.25):
    """Canonical residues with edge values salted in."""
    data = rng.integers(0, P, size=(b, radix, tail), dtype=np.uint64)
    mask = rng.random(size=data.shape) < edge_bias
    edges = rng.choice(
        np.array(EDGE_RESIDUES, dtype=np.uint64), size=data.shape
    )
    data[mask] = edges[mask]
    return data


class TestStageKernelEquivalence:
    """stage_dft_limb_matmul == stage_dft_loop on raw stage shapes."""

    @settings(max_examples=40, deadline=None)
    @given(
        radix=st.sampled_from([2, 4, 8, 16, 32, 64]),
        b=st.integers(min_value=1, max_value=4),
        tail=st.sampled_from([1, 2, 7, 16]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_matrices(self, radix, b, tail, seed):
        """Arbitrary canonical matrices — not just DFT matrices — so the
        partial-product bounds are exercised at full operand range."""
        rng = np.random.default_rng(seed)
        matrix = _random_block(rng, 1, radix, radix)[0]
        data = _random_block(rng, b, radix, tail)
        want = stage_dft_loop(data, matrix)
        got = stage_dft_limb_matmul(data, limb_decompose_matrix(matrix))
        assert np.array_equal(want, got)

    def test_all_max_residues(self):
        """Worst case for the accumulation bounds: every operand p−1."""
        radix = 64
        matrix = np.full((radix, radix), np.uint64(P - 1))
        data = np.full((2, radix, 3), np.uint64(P - 1))
        want = stage_dft_loop(data, matrix)
        got = stage_dft_limb_matmul(data, limb_decompose_matrix(matrix))
        assert np.array_equal(want, got)

    def test_out_parameter_returned_and_filled(self):
        rng = np.random.default_rng(3)
        matrix = _random_block(rng, 1, 8, 8)[0]
        data = _random_block(rng, 2, 8, 5)
        want = stage_dft_loop(data, matrix)
        for kernel in (
            lambda d, o: stage_dft_loop(d, matrix, out=o),
            lambda d, o: stage_dft_limb_matmul(
                d, limb_decompose_matrix(matrix), out=o
            ),
        ):
            out = np.empty_like(data)
            assert kernel(data, out) is out
            assert np.array_equal(out, want)

    def test_chunking_boundary(self):
        """Blocks larger than the cache chunk split without seams."""
        from repro.ntt import kernels

        rng = np.random.default_rng(5)
        radix, tail = 16, 64
        rows_per_chunk = max(1, kernels._CHUNK_ELEMS // (radix * tail))
        b = 2 * rows_per_chunk + 1
        matrix = _random_block(rng, 1, radix, radix)[0]
        data = _random_block(rng, b, radix, tail)
        want = stage_dft_loop(data, matrix)
        got = stage_dft_limb_matmul(data, limb_decompose_matrix(matrix))
        assert np.array_equal(want, got)

    def test_oversized_radix_rejected(self):
        from repro.ntt.kernels import MAX_LIMB_MATMUL_RADIX

        bad_radix = MAX_LIMB_MATMUL_RADIX + 1
        data = np.zeros((1, bad_radix, 1), dtype=np.uint64)
        limbs = np.zeros((4, 1, 1))
        with pytest.raises(ValueError):
            stage_dft_limb_matmul(data, limbs)


#: (size, radices) spanning radix shapes and stage counts (2–64).
CONFIGS = [
    (16, (4, 4)),
    (64, (8, 8)),
    (64, (64,)),
    (64, (2, 32)),
    (256, (16, 16)),
    (512, (2, 4, 8, 8)),
    (1024, (64, 16)),
    (1024, (16, 64)),
]


class TestPlanEquivalence:
    """Full plans: limb-matmul transforms == loop transforms."""

    @settings(max_examples=30, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_forward_and_inverse(self, config, batch, seed):
        n, radices = config
        loop_plan = plan_for_size(n, radices, kernel=KERNEL_LOOP)
        fast_plan = plan_for_size(n, radices, kernel=KERNEL_LIMB_MATMUL)
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, P, size=(batch, n), dtype=np.uint64)
        want = execute_plan_batch(matrix, loop_plan)
        got = execute_plan_batch(matrix, fast_plan)
        assert np.array_equal(want, got)
        assert np.array_equal(
            execute_plan_inverse_batch(want, loop_plan),
            execute_plan_inverse_batch(got, fast_plan),
        )

    @settings(max_examples=15, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS[:6]),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_negacyclic_wrappers(self, config, batch, seed):
        n, radices = config
        loop_plan = plan_for_size(
            n, radices, kernel=KERNEL_LOOP, twist=TWIST_NEGACYCLIC
        )
        fast_plan = plan_for_size(
            n, radices, kernel=KERNEL_LIMB_MATMUL, twist=TWIST_NEGACYCLIC
        )
        rng = np.random.default_rng(seed)
        a = rng.integers(0, P, size=(batch, n), dtype=np.uint64)
        b = rng.integers(0, P, size=(batch, n), dtype=np.uint64)
        assert np.array_equal(
            negacyclic_convolution_many(a, b, loop_plan),
            negacyclic_convolution_many(a, b, fast_plan),
        )
        spectra_loop = negacyclic_transform_many(a, loop_plan)
        spectra_fast = negacyclic_transform_many(a, fast_plan)
        assert np.array_equal(spectra_loop, spectra_fast)
        assert np.array_equal(
            negacyclic_inverse_many(spectra_loop, loop_plan),
            negacyclic_inverse_many(spectra_fast, fast_plan),
        )


class TestBackendSelection:
    def test_available(self):
        assert set(available_kernels()) == {KERNEL_LOOP, KERNEL_LIMB_MATMUL}

    def test_default_is_limb_matmul(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert default_kernel() == KERNEL_LIMB_MATMUL

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_LOOP)
        assert default_kernel() == KERNEL_LOOP
        assert resolve_kernel(None) == KERNEL_LOOP
        plan = plan_for_size(16, (4, 4), kernel=None)
        assert plan.kernel == KERNEL_LOOP

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_LOOP)
        plan = plan_for_size(16, (4, 4), kernel=KERNEL_LIMB_MATMUL)
        assert plan.kernel == KERNEL_LIMB_MATMUL

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernel("vliw")
        with pytest.raises(ValueError):
            plan_for_size(16, (4, 4), kernel="vliw")

    def test_plans_cached_per_kernel(self):
        loop_plan = plan_for_size(64, (8, 8), kernel=KERNEL_LOOP)
        fast_plan = plan_for_size(64, (8, 8), kernel=KERNEL_LIMB_MATMUL)
        assert loop_plan is not fast_plan
        assert loop_plan is plan_for_size(64, (8, 8), kernel=KERNEL_LOOP)
        assert loop_plan.inverse_plan.kernel == KERNEL_LOOP
        assert fast_plan.inverse_plan.kernel == KERNEL_LIMB_MATMUL

    def test_plan_precomputes_limb_matrices(self):
        plan = plan_for_size(64, (8, 8), kernel=KERNEL_LIMB_MATMUL)
        for stage in plan.stages:
            assert stage.dft_limbs is not None
            assert stage.dft_limbs.shape == (4, stage.radix, stage.radix)
            assert np.array_equal(
                stage.dft_limbs, limb_decompose_matrix(stage.dft_matrix)
            )

    def test_hand_built_stage_decomposed_at_construction(self):
        """StageSpecs built without cached limbs get them in
        ``__post_init__`` and execute on the fast kernel."""
        rng = np.random.default_rng(9)
        matrix = rng.integers(0, P, size=(4, 4), dtype=np.uint64)
        stage = StageSpec(
            radix=4, sub_transforms=1, dft_matrix=matrix, twiddles=None
        )
        assert stage.dft_limbs is not None
        assert np.array_equal(
            stage.dft_limbs, limb_decompose_matrix(matrix)
        )
        from repro.ntt.kernels import stage_executor

        data = rng.integers(0, P, size=(2, 4, 3), dtype=np.uint64)
        out = np.empty_like(data)
        stage_executor(KERNEL_LIMB_MATMUL)(data, stage, out)
        assert np.array_equal(out, stage_dft_loop(data, matrix))
