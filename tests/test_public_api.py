"""Lock the public API surface: everything README documents must exist."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "name",
        [
            "P",
            "Engine",
            "ExecutionConfig",
            "SSAMultiplier",
            "PAPER_PARAMETERS",
            "HEAccelerator",
            "AcceleratorTiming",
            "PAPER_TIMING",
            "table1_report",
            "table2_report",
            "DGHV",
            "SMALL_DGHV",
            "TOY",
        ],
    )
    def test_top_level_exports(self, name):
        import repro

        assert hasattr(repro, name)
        assert name in repro.__all__


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module,names",
        [
            ("repro.field", ["P", "mul", "mul_by_pow2", "vmul", "omega_64k"]),
            (
                "repro.ntt",
                [
                    "dft_reference",
                    "ntt_radix2",
                    "ntt_cooley_tukey",
                    "ntt64_two_stage",
                    "paper_64k_plan",
                    "execute_plan",
                    "cyclic_convolution",
                    "negacyclic_convolution",
                ],
            ),
            (
                "repro.ssa",
                [
                    "SSAMultiplier",
                    "decompose",
                    "recompose",
                    "carry_recover",
                    "karatsuba_multiply",
                ],
            ),
            ("repro.sim", ["Component", "Simulator", "Fifo", "Timeline"]),
            (
                "repro.hw",
                [
                    "HEAccelerator",
                    "FFT64Unit",
                    "BankedMemory",
                    "ProcessingElement",
                    "HypercubeTopology",
                    "FFT64Pipeline",
                    "evaluate_deployment",
                    "schedule_batch",
                    "estimate_power",
                    "AcceleratorController",
                ],
            ),
            ("repro.fhe", ["DGHV", "HEScheme", "NoiseBudgetError", "RLWE"]),
            ("repro.analysis", ["shape_check", "pe_scaling_sweep"]),
        ],
    )
    def test_exports_exist(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_all_lists_are_accurate(self):
        """Every name in __all__ is actually defined."""
        for module in (
            "repro",
            "repro.field",
            "repro.ntt",
            "repro.ssa",
            "repro.sim",
            "repro.hw",
            "repro.fhe",
            "repro.analysis",
        ):
            mod = importlib.import_module(module)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{module}.__all__ lies: {name}"


class TestDocstrings:
    def test_every_public_module_documented(self):
        for module in (
            "repro",
            "repro.field.solinas",
            "repro.field.vector",
            "repro.ntt.plan",
            "repro.ntt.staged",
            "repro.ssa.multiplier",
            "repro.hw.fft64_unit",
            "repro.hw.accelerator",
            "repro.hw.timing",
            "repro.fhe.dghv",
            "repro.cli",
            "repro.verify",
        ):
            mod = importlib.import_module(module)
            assert mod.__doc__ and len(mod.__doc__) > 40, module
