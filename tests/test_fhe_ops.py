"""Tests for homomorphic operations and noise bookkeeping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.dghv import DGHV, Ciphertext
from repro.fhe.ops import (
    NoiseBudgetError,
    _barrett_mu_lo,
    _barrett_quotient,
    _reduce_mod_x0,
)
from repro.fhe.params import MEDIUM, SMALL_DGHV, TOY
from repro.ssa.multiplier import SSAMultiplier


@pytest.fixture
def scheme():
    return DGHV(TOY, rng=random.Random(77))


@pytest.fixture
def keys(scheme):
    return scheme.generate_keys()


class TestHomomorphicTruthTables:
    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    def test_xor(self, scheme, keys, a, b):
        ca, cb = scheme.encrypt(keys, a), scheme.encrypt(keys, b)
        assert scheme.decrypt(keys, scheme.add(ca, cb)) == a ^ b

    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    def test_and(self, scheme, keys, a, b):
        ca, cb = scheme.encrypt(keys, a), scheme.encrypt(keys, b)
        got = scheme.decrypt(keys, scheme.multiply(keys, ca, cb))
        assert got == (a & b)

    def test_add_without_reduction(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 1)
        assert scheme.decrypt(keys, scheme.add(ca, cb)) == 0

    def test_operator_sugar(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 0)
        assert scheme.decrypt(keys, ca + cb) == 1


class TestNoiseBookkeeping:
    def test_add_noise_grows_slowly(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 0), scheme.encrypt(keys, 1)
        out = scheme.add(ca, cb)
        assert out.noise_bits <= max(ca.noise_bits, cb.noise_bits) + 1

    def test_mult_noise_sums(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 1)
        out = scheme.multiply(keys, ca, cb)
        assert out.noise_bits == ca.noise_bits + cb.noise_bits + 1

    def test_actual_noise_within_tracked_bound(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 1)
        c = scheme.multiply(keys, ca, cb)
        assert scheme.noise_of(keys, c).bit_length() <= c.noise_bits

    def test_budget_exhaustion_raises(self, scheme, keys):
        c = scheme.encrypt(keys, 1)
        with pytest.raises(NoiseBudgetError):
            for _ in range(20):
                c = scheme.multiply(keys, c, c)

    def test_depth_matches_params_estimate(self, scheme, keys):
        """Squaring chains survive at least the estimated depth."""
        depth = TOY.multiplicative_depth
        c = scheme.encrypt(keys, 1)
        for _ in range(depth):
            c = scheme.multiply(keys, c, scheme.encrypt(keys, 1))
        assert scheme.decrypt(keys, c) == 1

    def test_mismatched_params_rejected(self, scheme, keys):
        from repro.fhe.params import MEDIUM

        other = Ciphertext(value=1, noise_bits=1, params=MEDIUM)
        mine = scheme.encrypt(keys, 0)
        with pytest.raises(ValueError):
            scheme.add(mine, other)
        with pytest.raises(ValueError):
            scheme.multiply(keys, mine, other)


class TestCircuitEval:
    def test_xor_and_vector(self, scheme, keys, rng):
        bits_a = [rng.getrandbits(1) for _ in range(16)]
        bits_b = [rng.getrandbits(1) for _ in range(16)]
        got = scheme.xor_and_eval(keys, bits_a, bits_b)
        want = []
        for a, b in zip(bits_a, bits_b):
            want += [a ^ b, a & b]
        assert got == want


class TestSSABackedFHE:
    def test_ciphertext_product_via_ssa(self, rng):
        """The integration the paper is about: DGHV AND gates running
        on the SSA multiplier."""
        ssa = SSAMultiplier.for_bits(TOY.gamma + 2)
        scheme = DGHV(TOY, multiplier=ssa.multiply, rng=random.Random(3))
        keys = scheme.generate_keys()
        for a in (0, 1):
            for b in (0, 1):
                ca, cb = scheme.encrypt(keys, a), scheme.encrypt(keys, b)
                c = scheme.multiply(keys, ca, cb)
                assert scheme.decrypt(keys, c) == (a & b)


class TestDeprecationShims:
    """The pre-HEScheme free functions are gone; the protocol methods
    that replaced them warn about nothing."""

    def test_protocol_methods_do_not_warn(self, scheme, keys, recwarn):
        ca = scheme.encrypt(keys, 1)
        cb = scheme.encrypt(keys, 0)
        scheme.add(ca, cb)
        scheme.multiply(keys, ca, cb)
        scheme.multiply_many(keys, [(ca, cb)])
        deprecations = [
            w for w in recwarn if w.category is DeprecationWarning
        ]
        assert not deprecations


def _odd_modulus(bits):
    """Odd integers of exactly ``bits`` bits (the shape of ``x_0``)."""
    return st.integers(0, (1 << (bits - 2)) - 1).map(
        lambda low: (1 << (bits - 1)) | (low << 1) | 1
    )


@st.composite
def _modulus_and_value(draw, bits):
    x0 = draw(_odd_modulus(bits))
    residue = st.integers(0, x0 - 1)
    value = draw(
        st.integers(0, (1 << (2 * bits)) - 1)
        | st.tuples(residue, residue).map(lambda ab: ab[0] * ab[1])
    )
    return x0, value


class TestBarrettReduction:
    """``_reduce_mod_x0`` is bit-identical to ``%`` on every input."""

    @pytest.mark.parametrize("bits", [TOY.gamma, MEDIUM.gamma])
    def test_matches_modulo(self, bits):
        @settings(max_examples=40, deadline=None)
        @given(_modulus_and_value(bits))
        def check(case):
            x0, value = case
            assert _reduce_mod_x0(value, x0) == value % x0

        check()

    @pytest.mark.parametrize("bits", [TOY.gamma, MEDIUM.gamma])
    def test_at_most_three_corrections(self, bits):
        @settings(max_examples=40, deadline=None)
        @given(_modulus_and_value(bits))
        def check(case):
            x0, value = case
            shortfall = value // x0 - _barrett_quotient(value, x0)
            assert 0 <= shortfall <= 3

        check()

    @pytest.mark.parametrize("x0", [3, 5, 7, (1 << 2047) | 1, (1 << 2048) - 1])
    def test_edge_values(self, x0):
        k = x0.bit_length()
        edges = [0, 1, x0 - 1, x0, x0 + 1, x0 * x0 - 1, (1 << (2 * k)) - 1]
        for value in edges:
            assert _reduce_mod_x0(value, x0) == value % x0
            shortfall = value // x0 - _barrett_quotient(value, x0)
            assert 0 <= shortfall <= 3

    @pytest.mark.parametrize("x0", [3, (1 << 2047) | 1, (1 << 2048) - 1])
    def test_wide_values_fall_back_to_modulo(self, x0):
        k = x0.bit_length()
        for value in (1 << (2 * k), (1 << (2 * k + 5)) + 12345, x0 ** 3):
            assert _reduce_mod_x0(value, x0) == value % x0

    def test_negative_inputs_fall_back_to_modulo(self):
        x0 = (1 << 2047) | 1
        for value in (-1, -x0, -(x0 * x0) + 7):
            assert _reduce_mod_x0(value, x0) == value % x0
        assert _reduce_mod_x0(12345, -x0) == 12345 % -x0

    def test_mu_cache_is_bounded(self):
        maxsize = _barrett_mu_lo.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 64
        for x0 in range(3, 3 + 4 * maxsize, 2):
            _reduce_mod_x0(x0 * x0 - 1, x0)
        assert _barrett_mu_lo.cache_info().currsize <= maxsize

    def test_paper_size_multiply_many_is_exact(self):
        """Two 786,432-bit ANDs: every reduced product equals
        ``(a·b) % x0`` and decrypts to the plaintext AND."""
        scheme = DGHV(SMALL_DGHV, rng=random.Random(13))
        keys = scheme.generate_keys()
        plain = [(1, 1), (0, 1)]
        pairs = [
            (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
            for a, b in plain
        ]
        ands = scheme.multiply_many(keys, pairs)
        for (ca, cb), c in zip(pairs, ands):
            assert c.value == (ca.value * cb.value) % keys.x0
        assert scheme.decrypt_many(keys, ands) == [a & b for a, b in plain]
