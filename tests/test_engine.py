"""Tests for the :mod:`repro.engine` façade.

Covers the ISSUE 3 surface: scalar-vs-batch polymorphism of
``engine.ring(n)``, bit-identity of the ``software`` and ``hw-model``
backends, per-engine plan caching, the one-shot ``REPRO_NTT_KERNEL``
environment read with its documented precedence, and FHE context
binding.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Engine,
    ExecutionConfig,
    available_backends,
    create_backend,
    register_backend,
)
from repro.engine.backends import SoftwareBackend
from repro.field.solinas import P
from repro.fhe.params import TOY
from repro.fhe.rlwe import RLWE, RLWEParams
from repro.ntt.convolution import cyclic_convolution
from repro.ntt.kernels import KERNEL_ENV_VAR, KERNEL_LIMB_MATMUL, KERNEL_LOOP
from repro.ntt.negacyclic import negacyclic_convolution
from repro.ntt.plan import plan_cache_stats
from repro.ntt.staged import execute_plan, execute_plan_inverse


def _rows(rng, batch, n):
    return rng.integers(0, P, size=(batch, n), dtype=np.uint64)


class TestExecutionConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        config = ExecutionConfig.default()
        assert config.kernel == KERNEL_LIMB_MATMUL
        assert config.cache == "private"
        assert config.pes == 4

    def test_env_read_once_at_construction(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_LOOP)
        config = ExecutionConfig()
        assert config.kernel == KERNEL_LOOP
        # Later environment changes do not rewrite a built config.
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_LIMB_MATMUL)
        assert config.kernel == KERNEL_LOOP

    def test_explicit_kernel_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_LOOP)
        assert ExecutionConfig(kernel=KERNEL_LIMB_MATMUL).kernel == (
            KERNEL_LIMB_MATMUL
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel": "nope"},
            {"batch_chunk": 0},
            {"pes": 3},
            {"fidelity": "exactly"},
            {"cache": "sometimes"},
            {"coefficient_bits": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    def test_cache_aliases_and_overrides(self):
        assert ExecutionConfig(cache=True).cache == "private"
        assert ExecutionConfig(cache=False).cache == "off"
        base = ExecutionConfig()
        assert base.with_overrides(pes=8).pes == 8
        assert base.pes == 4

    def test_hashable_and_comparable(self):
        one = ExecutionConfig(kernel=KERNEL_LOOP, workers=2)
        two = ExecutionConfig(kernel=KERNEL_LOOP, workers=2)
        other = ExecutionConfig(kernel=KERNEL_LOOP, workers=3)
        assert one == two
        assert hash(one) == hash(two)
        assert one != other
        assert len({one, two, other}) == 2  # usable as a dict/pool key

    def test_pickle_round_trip_stable(self, monkeypatch):
        import pickle

        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        config = ExecutionConfig(batch_chunk=16, pes=8, workers=2)
        # Unpickling in an environment demanding a different kernel
        # must NOT re-resolve: the construction-time choice travels.
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_LOOP)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert hash(clone) == hash(config)
        assert clone.kernel == KERNEL_LIMB_MATMUL
        # double round-trip (what a respawned worker would see)
        again = pickle.loads(pickle.dumps(clone))
        assert again == config

    def test_workers_validation_and_default(self):
        assert ExecutionConfig().workers is None
        assert ExecutionConfig(workers=4).workers == 4
        with pytest.raises(ValueError):
            ExecutionConfig(workers=-1)


class TestBackendRegistry:
    def test_stock_backends_registered(self):
        assert "software" in available_backends()
        assert "hw-model" in available_backends()

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Engine(backend="warp-drive")

    def test_custom_backend_instance(self):
        engine = Engine(backend=SoftwareBackend())
        assert engine.multiply(6, 7) == 42

    def test_register_and_create(self):
        class Probe(SoftwareBackend):
            name = "probe"

        register_backend("probe", Probe)
        try:
            assert "probe" in available_backends()
            assert isinstance(create_backend("probe"), Probe)
            assert Engine(backend="probe").multiply(2, 3) == 6
        finally:
            from repro.engine import backends as backends_mod

            backends_mod._REGISTRY.pop("probe", None)


class TestPlanCacheIsolation:
    def test_private_cache_does_not_touch_global(self):
        before = plan_cache_stats()
        engine = Engine()
        engine.plan(128)
        engine.plan(128)
        after = plan_cache_stats()
        assert (after.size, after.misses) == (before.size, before.misses)
        stats = engine.cache_stats()
        assert stats.size == 1
        assert stats.hits == 1

    def test_engines_are_isolated(self):
        one, two = Engine(), Engine()
        assert one.plan(128) is not two.plan(128)
        assert one.plan(128) is one.plan(128)

    def test_shared_cache_aliases_module_plans(self):
        from repro.ntt.plan import plan_for_size

        engine = Engine(config=ExecutionConfig(cache="shared"))
        assert engine.plan(256) is plan_for_size(256)

    def test_cache_off_still_correct(self):
        engine = Engine(config=ExecutionConfig(cache="off"))
        assert engine.cache_stats().size == 0
        assert engine.multiply(123456789, 987654321) == (
            123456789 * 987654321
        )
        assert engine.cache_stats().size == 0

    def test_clear_cache(self):
        engine = Engine()
        engine.ring(64)
        engine.multiplier(bits=256)
        assert engine.cache_stats().size > 0
        engine.clear_cache()
        assert engine.cache_stats().size == 0

    def test_clear_cache_drops_accelerator_pool(self):
        engine = Engine(backend="hw-model")
        engine.multiply(3, 5)
        assert len(engine.backend._accelerators) == 1
        engine.clear_cache()
        assert len(engine.backend._accelerators) == 0
        engine.multiply(3, 5)
        assert len(engine.backend._accelerators) == 1

    def test_cache_off_does_not_grow_accelerator_pool(self):
        engine = Engine(
            config=ExecutionConfig(cache="off"), backend="hw-model"
        )
        for _ in range(3):
            engine.hardware(plan=engine.plan(64))
        assert len(engine.backend._accelerators) == 0


class TestRingPolymorphism:
    @settings(deadline=None, max_examples=20)
    @given(
        n=st.sampled_from([16, 64, 256]),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_scalar_vs_batch_bit_identical(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        engine = Engine()
        ring = engine.ring(n)
        rows = _rows(rng, batch, n)
        spectra = ring.forward(rows)
        assert spectra.shape == rows.shape
        for i in range(batch):
            assert np.array_equal(spectra[i], ring.forward(rows[i]))
        back = ring.inverse(spectra)
        assert np.array_equal(back, rows)

    @settings(deadline=None, max_examples=15)
    @given(
        n=st.sampled_from([16, 64]),
        batch=st.integers(min_value=1, max_value=4),
        negacyclic=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_convolve_matches_legacy(self, n, batch, negacyclic, seed):
        rng = np.random.default_rng(seed)
        ring = Engine().ring(n)
        a = _rows(rng, batch, n)
        b = _rows(rng, batch, n)
        got = ring.convolve(a, b, negacyclic=negacyclic)
        oracle = negacyclic_convolution if negacyclic else cyclic_convolution
        for i in range(batch):
            assert np.array_equal(got[i], oracle(a[i], b[i]))

    def test_flat_in_flat_out(self):
        rng = np.random.default_rng(7)
        ring = Engine().ring(64)
        a = _rows(rng, 1, 64)[0]
        b = _rows(rng, 1, 64)[0]
        assert ring.convolve(a, b).shape == (64,)
        assert ring.forward(a).shape == (64,)

    def test_broadcast_one_fixed_operand(self):
        rng = np.random.default_rng(11)
        ring = Engine().ring(64)
        batch = _rows(rng, 3, 64)
        fixed = _rows(rng, 1, 64)[0]
        got = ring.convolve(batch, fixed, negacyclic=True)
        swapped = ring.convolve(fixed, batch, negacyclic=True)
        assert np.array_equal(got, swapped)
        for i in range(3):
            assert np.array_equal(
                got[i], negacyclic_convolution(batch[i], fixed)
            )

    def test_spectrum_reuse_roundtrip(self):
        rng = np.random.default_rng(13)
        ring = Engine().ring(64)
        a = _rows(rng, 2, 64)
        spec = ring.negacyclic_forward(a)
        assert np.array_equal(ring.negacyclic_inverse(spec), a)

    def test_shape_errors(self):
        ring = Engine().ring(64)
        with pytest.raises(ValueError):
            ring.forward(np.zeros(65, dtype=np.uint64))
        with pytest.raises(ValueError):
            ring.convolve(
                np.zeros((2, 64), dtype=np.uint64),
                np.zeros((3, 64), dtype=np.uint64),
            )

    def test_rings_are_cached(self):
        engine = Engine()
        assert engine.ring(64) is engine.ring(64)
        assert engine.ring(64) is not engine.ring(64, (8, 8))


class TestBackendEquivalence:
    """``software`` and ``hw-model`` must produce identical bits."""

    @settings(deadline=None, max_examples=10)
    @given(
        bits=st.sampled_from([96, 1024, 4096]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_multiply_bit_identical(self, bits, seed):
        rng = random.Random(seed)
        a, b = rng.getrandbits(bits), rng.getrandbits(bits)
        software = Engine().multiply(a, b)
        hw_engine = Engine(backend="hw-model")
        hardware = hw_engine.multiply(a, b)
        assert software == hardware == a * b
        assert hw_engine.last_report is not None
        assert hw_engine.last_report.total_cycles > 0

    def test_paper_size_multiply_bit_identical(self):
        """Acceptance: the paper's 786,432-bit product, both backends."""
        rng = random.Random(0xDA7E2016)
        a = rng.getrandbits(786_432)
        b = rng.getrandbits(786_432)
        software = Engine()
        hardware = Engine(backend="hw-model")
        product_sw = software.multiply(a, b)
        product_hw, report = hardware.multiply_with_report(a, b)
        assert product_sw == product_hw == a * b
        assert software.multiplier(bits=786_432).plan.radices == (64, 64, 16)
        # The hw-model additionally reproduces the ≈122.88 us figure.
        assert abs(report.time_us - 122.88) < 1.0

    def test_ring_transform_bit_identical(self):
        rng = np.random.default_rng(17)
        rows = _rows(rng, 2, 1024)
        soft = Engine().ring(1024)
        hard = Engine(backend="hw-model").ring(1024)
        assert np.array_equal(soft.forward(rows), hard.forward(rows))
        assert np.array_equal(soft.inverse(rows), hard.inverse(rows))

    def test_ring_matches_staged_executor(self):
        rng = np.random.default_rng(19)
        x = _rows(rng, 1, 1024)[0]
        ring = Engine(backend="hw-model").ring(1024)
        assert np.array_equal(ring.forward(x), execute_plan(x, ring.plan))
        assert np.array_equal(
            ring.inverse(x), execute_plan_inverse(x, ring.plan)
        )

    def test_hw_ring_batch_single_call_report(self):
        """Batched hw-model transforms run as ONE accelerator call."""
        from repro.hw.accelerator import (
            DistributedFFTBatchReport,
            DistributedFFTReport,
        )

        rng = np.random.default_rng(43)
        engine = Engine(backend="hw-model")
        ring = engine.ring(1024)
        rows = _rows(rng, 4, 1024)
        ring.forward(rows)
        report = engine.last_report
        assert isinstance(report, DistributedFFTBatchReport)
        assert report.rows == 4
        assert report.total_cycles == 4 * report.per_row.total_cycles
        assert "x4 rows" in report.render()
        ring.forward(rows[0])
        assert isinstance(engine.last_report, DistributedFFTReport)

    def test_hw_ring_batch_datapath_bit_identical(self):
        rng = np.random.default_rng(47)
        rows = _rows(rng, 3, 256)
        fast = Engine(
            config=ExecutionConfig(fidelity="fast"), backend="hw-model"
        )
        datapath = Engine(
            config=ExecutionConfig(fidelity="datapath"), backend="hw-model"
        )
        assert np.array_equal(
            fast.ring(256).forward(rows), datapath.ring(256).forward(rows)
        )

    def test_hw_multiply_many_reports(self):
        engine = Engine(backend="hw-model")
        products = engine.multiply([3, 5, 7], [11, 13, 17])
        assert products == [33, 65, 119]
        assert isinstance(engine.last_report, list)
        assert len(engine.last_report) == 3

    def test_hardware_requires_hw_backend(self):
        with pytest.raises(ValueError, match="hw-model"):
            Engine().hardware()

    def test_hardware_pool_reuses_accelerators(self):
        engine = Engine(backend="hw-model")
        plan = engine.plan(1024, (64, 16))
        params = engine._params_for_plan(plan)
        assert engine.hardware(plan, params) is engine.hardware(plan, params)


class TestEngineMultiply:
    def test_type_mismatch(self):
        with pytest.raises(TypeError):
            Engine().multiply(3, [4])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Engine().multiply([1, 2], [3])

    def test_empty_batch(self):
        assert Engine().multiply([], []) == []

    def test_batch_chunking_bit_identical(self):
        rng = random.Random(23)
        a = [rng.getrandbits(512) for _ in range(5)]
        b = [rng.getrandbits(512) for _ in range(5)]
        plain = Engine().multiply(a, b)
        chunked = Engine(config=ExecutionConfig(batch_chunk=2)).multiply(a, b)
        assert plain == chunked == [x * y for x, y in zip(a, b)]

    def test_multiplier_pooled_and_pinned(self):
        engine = Engine()
        m1 = engine.multiplier(bits=1000)
        m2 = engine.multiplier(bits=1000)
        assert m1 is m2
        assert m1.plan is engine.plan(m1.params.transform_size)

    def test_multiplier_sizing_matches_for_bits(self):
        from repro.ssa.multiplier import SSAMultiplier

        engine = Engine()
        for bits in (1, 24, 1000, 50_000, 786_432):
            assert engine.multiplier(bits=bits).params == (
                SSAMultiplier.for_bits(bits).params
            )

    def test_multiplier_repr_stays_small(self):
        assert len(repr(Engine().multiplier(bits=1024))) < 500

    def test_plan_kernel_consistency_checked(self):
        from repro.ssa.multiplier import SSAMultiplier

        engine = Engine()
        plan = engine.plan(128, kernel=KERNEL_LOOP)
        with pytest.raises(ValueError, match="kernel"):
            SSAMultiplier(
                params=m_params(),
                kernel=KERNEL_LIMB_MATMUL,
                plan=plan,
            )

    def test_multiplier_arg_validation(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.multiplier()
        with pytest.raises(ValueError):
            engine.multiplier(bits=64, params=m_params())


def m_params():
    from repro.ssa.encode import SSAParameters

    return SSAParameters(coefficient_bits=24, operand_coefficients=64)


class TestEngineFHE:
    def test_dghv_gate_through_engine(self):
        engine = Engine()
        scheme = engine.fhe(TOY, rng=random.Random(29))
        keys = scheme.generate_keys()
        ca = scheme.encrypt(keys, 1)
        cb = scheme.encrypt(keys, 1)
        product = scheme.multiply(keys, ca, cb)
        assert scheme.decrypt(keys, product) == 1

    def test_dghv_batched_gates(self):
        engine = Engine()
        scheme = engine.fhe(TOY, rng=random.Random(31))
        keys = scheme.generate_keys()
        pairs = [
            (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
            for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]
        ]
        ands = scheme.multiply_many(keys, pairs)
        assert [scheme.decrypt(keys, c) for c in ands] == [0, 0, 0, 1]

    def test_rlwe_bound_to_engine_plan(self):
        from repro.ntt.plan import ORDER_DECIMATED, TWIST_NEGACYCLIC

        engine = Engine()
        params = RLWEParams(n=64, t=64, noise_bound=4)
        scheme = engine.fhe(params, rng=random.Random(37))
        assert scheme.plan is engine.plan(
            64, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED
        )
        assert scheme.plan.twist == TWIST_NEGACYCLIC
        assert scheme.plan.ordering == ORDER_DECIMATED
        assert scheme.plan.base_plan is engine.plan(
            64, twist=TWIST_NEGACYCLIC
        )
        secret = scheme.generate_secret()
        message = [i % params.t for i in range(params.n)]
        assert scheme.decrypt(secret, scheme.encrypt(secret, message)) == (
            message
        )

    def test_rlwe_matches_unbound_scheme(self):
        params = RLWEParams(n=64, t=64, noise_bound=4)
        bound = Engine().fhe(params, rng=random.Random(41))
        free = RLWE(params, rng=random.Random(41))
        secret_b = bound.generate_secret()
        secret_f = free.generate_secret()
        assert np.array_equal(secret_b, secret_f)
        message = [3] * params.n
        ct_b = bound.encrypt(secret_b, message)
        ct_f = free.encrypt(secret_f, message)
        assert np.array_equal(ct_b.c0, ct_f.c0)
        assert np.array_equal(ct_b.c1, ct_f.c1)

    def test_bad_params_type(self):
        with pytest.raises(TypeError):
            Engine().fhe(params=object())
