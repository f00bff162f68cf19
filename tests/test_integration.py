"""Cross-module integration tests: the full story end to end."""

import random

import numpy as np
import pytest

from repro import (
    DGHV,
    HEAccelerator,
    PAPER_TIMING,
    SSAMultiplier,
    TOY,
    table1_report,
    table2_report,
)
from repro.hw.accelerator import HEAccelerator as _Acc
from repro.ntt.plan import plan_for_size
from repro.ssa.encode import SSAParameters


class TestFHEOnAccelerator:
    """DGHV homomorphic AND gates whose ciphertext products run on the
    cycle-counted accelerator model — the paper's whole pitch."""

    def test_encrypted_and_gate_with_timing(self):
        params = SSAParameters(coefficient_bits=24, operand_coefficients=128)
        plan = plan_for_size(256, (16, 16))
        acc = _Acc(pes=4, plan=plan, params=params)
        reports = []

        def accelerated(a, b):
            product, report = acc.multiply(a, b)
            reports.append(report)
            return product

        scheme = DGHV(TOY, multiplier=accelerated, rng=random.Random(11))
        keys = scheme.generate_keys()
        ca = scheme.encrypt(keys, 1)
        cb = scheme.encrypt(keys, 1)
        c = scheme.multiply(keys, ca, cb)
        assert scheme.decrypt(keys, c) == 1
        assert len(reports) == 1
        assert reports[0].total_cycles > 0

    def test_homomorphic_adder_circuit(self):
        """A 2-bit encrypted adder built from XOR/AND gates."""
        scheme = DGHV(TOY, rng=random.Random(21))
        keys = scheme.generate_keys()

        def enc(bit):
            return scheme.encrypt(keys, bit)

        for a0 in (0, 1):
            for b0 in (0, 1):
                # Half adder: sum = a^b, carry = a&b.
                s = scheme.add(enc(a0), enc(b0))
                c = scheme.multiply(keys, enc(a0), enc(b0))
                assert scheme.decrypt(keys, s) == a0 ^ b0
                assert scheme.decrypt(keys, c) == a0 & b0


class TestConsistencyAcrossModels:
    def test_ssa_and_accelerator_agree(self, rng):
        """The pure-software SSA multiplier and the accelerator model
        produce identical products (same pipeline, two views)."""
        params = SSAParameters(coefficient_bits=24, operand_coefficients=512)
        ssa = SSAMultiplier(params=params, radices=(64, 16))
        acc = _Acc(pes=4, plan=plan_for_size(1024, (64, 16)), params=params)
        for _ in range(3):
            a, b = rng.getrandbits(12000), rng.getrandbits(12000)
            assert ssa.multiply(a, b) == acc.multiply(a, b)[0]

    def test_simulated_cycles_equal_analytic_at_64k(self, rng):
        from repro.field.solinas import P
        from repro.field.vector import to_field_array

        acc = HEAccelerator()
        x = to_field_array([rng.randrange(P) for _ in range(65536)])
        _, report = acc.distributed_ntt(x)
        assert report.total_cycles == PAPER_TIMING.fft_cycles()


class TestHeadlineClaims:
    """The paper's abstract-level claims, asserted in one place."""

    def test_fft_30_7us(self):
        assert PAPER_TIMING.fft_time_us() == pytest.approx(30.7, rel=0.01)

    def test_mult_122us(self):
        assert PAPER_TIMING.multiplication_time_us() == pytest.approx(
            122, rel=0.01
        )

    def test_speedup_3_32x(self):
        t2 = table2_report()
        assert t2.speedup_vs("wang_huang_fpga[28]") == pytest.approx(
            3.32, rel=0.05
        )

    def test_hardware_saving_60pct(self):
        t1 = table1_report()
        savings = [
            t1.saving("alms"),
            t1.saving("registers"),
            t1.saving("dsp_blocks"),
        ]
        assert sum(savings) / 3 == pytest.approx(0.60, abs=0.07)
