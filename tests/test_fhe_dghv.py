"""Tests for the DGHV scheme."""

import random

import pytest

from repro.fhe.dghv import DGHV, Ciphertext, _centered_mod
from repro.fhe.params import MEDIUM, TOY, FHEParams


@pytest.fixture
def scheme():
    return DGHV(TOY, rng=random.Random(123))


@pytest.fixture
def keys(scheme):
    return scheme.generate_keys()


class TestCenteredMod:
    def test_small(self):
        assert _centered_mod(3, 10) == 3
        assert _centered_mod(7, 10) == -3
        assert _centered_mod(5, 10) == 5
        assert _centered_mod(15, 10) == 5

    def test_negative_input(self):
        assert _centered_mod(-3, 10) == -3
        assert _centered_mod(-7, 10) == 3


class TestKeyGeneration:
    def test_secret_is_odd_eta_bits(self, scheme, keys):
        assert keys.secret % 2 == 1
        assert keys.secret.bit_length() == TOY.eta

    def test_x0_exact_multiple(self, scheme, keys):
        """x_0 = q_0·p exactly (noise-free modulus)."""
        assert keys.x0 % keys.secret == 0

    def test_x0_odd_and_largest(self, keys):
        assert keys.x0 % 2 == 1
        assert all(x < keys.x0 for x in keys.public[1:])

    def test_public_element_count(self, keys):
        assert len(keys.public) == TOY.tau + 1

    def test_public_elements_near_gamma_bits(self, keys):
        for x in keys.public:
            assert TOY.gamma - 2 <= x.bit_length() <= TOY.gamma + 1

    def test_public_residues_even_and_small(self, keys):
        for x in keys.public[1:]:
            residue = _centered_mod(x, keys.secret)
            assert residue % 2 == 0
            assert abs(residue) < (1 << (TOY.rho + 1))


class TestEncryptionDecryption:
    @pytest.mark.parametrize("m", [0, 1])
    def test_symmetric_roundtrip(self, scheme, keys, m):
        assert scheme.decrypt(keys, scheme.encrypt_symmetric(keys, m)) == m

    @pytest.mark.parametrize("m", [0, 1])
    def test_public_roundtrip(self, scheme, keys, m):
        for _ in range(10):
            assert scheme.decrypt(keys, scheme.encrypt(keys, m)) == m

    def test_rejects_non_bit(self, scheme, keys):
        with pytest.raises(ValueError):
            scheme.encrypt(keys, 2)
        with pytest.raises(ValueError):
            scheme.encrypt_symmetric(keys, -1)

    def test_fresh_noise_within_estimate(self, scheme, keys):
        for _ in range(20):
            c = scheme.encrypt(keys, 1)
            actual = scheme.noise_of(keys, c)
            assert actual.bit_length() <= c.noise_bits

    def test_ciphertexts_randomized(self, scheme, keys):
        c1 = scheme.encrypt(keys, 1)
        c2 = scheme.encrypt(keys, 1)
        assert c1.value != c2.value

    def test_ciphertext_size(self, scheme, keys):
        c = scheme.encrypt(keys, 0)
        assert c.value.bit_length() <= TOY.gamma + 1

    def test_decryptable_flag(self, scheme, keys):
        c = scheme.encrypt(keys, 1)
        assert c.decryptable
        sat = Ciphertext(value=c.value, noise_bits=TOY.eta, params=TOY)
        assert not sat.decryptable


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FHEParams(name="bad", lam=1, rho=64, eta=32, gamma=128, tau=4).validate()
        with pytest.raises(ValueError):
            FHEParams(name="bad", lam=1, rho=8, eta=256, gamma=128, tau=4).validate()
        with pytest.raises(ValueError):
            FHEParams(name="bad", lam=1, rho=8, eta=64, gamma=128, tau=1).validate()

    def test_depth_estimates(self):
        assert TOY.multiplicative_depth >= 2
        assert MEDIUM.multiplicative_depth >= 3

    def test_medium_roundtrip(self):
        scheme = DGHV(MEDIUM, rng=random.Random(5))
        keys = scheme.generate_keys()
        for m in (0, 1):
            assert scheme.decrypt(keys, scheme.encrypt(keys, m)) == m


class TestMultiplierStrategy:
    def test_custom_multiplier_used(self, keys):
        calls = []

        def spy(a, b):
            calls.append((a, b))
            return a * b

        scheme = DGHV(TOY, multiplier=spy, rng=random.Random(9))
        ca = scheme.encrypt(keys, 1)
        cb = scheme.encrypt(keys, 1)
        scheme.multiply(keys, ca, cb)
        assert len(calls) == 1
