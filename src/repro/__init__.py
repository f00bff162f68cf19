"""repro — reproduction of the DATE 2016 FPGA accelerator for
homomorphic encryption (Cilardo & Argenziano).

The library implements, in Python, every system the paper describes:

- :mod:`repro.field` — arithmetic in GF(p), p = 2**64 − 2**32 + 1;
- :mod:`repro.ntt` — number-theoretic transforms, from the O(n²)
  oracle to the paper's three-stage radix-64/64/16 64K-point plan;
- :mod:`repro.ssa` — Schönhage–Strassen multiplication of 786,432-bit
  operands (plus classical baselines);
- :mod:`repro.sim` — a small cycle-based simulation kernel;
- :mod:`repro.hw` — functional, cycle and resource models of the
  accelerator (FFT-64 unit, banked memories, modular multipliers,
  processing elements, hypercube, Tables I–II generators);
- :mod:`repro.fhe` — the DGHV and RLWE homomorphic workloads;
- :mod:`repro.analysis` — sweeps and shape checks for the evaluation;
- :mod:`repro.engine` — **the front door**: one configurable
  :class:`~repro.engine.Engine` over the whole stack.

Quickstart::

    from repro import Engine, ExecutionConfig

    eng = Engine()                         # software backend
    product = eng.multiply(a, b)           # bit-exact SSA
    ring = eng.ring(4096)                  # (n,) or (batch, n) alike
    spectrum = ring.forward(rows)
    scheme = eng.fhe()                     # DGHV on the engine's SSA

    hw = Engine(backend="hw-model")        # same values + cycle model
    product, report = hw.multiply_with_report(a, b)
    print(report.render())                 # ≈122 us

Classes (:class:`SSAMultiplier`, :class:`HEAccelerator`,
:class:`DGHV`, ...) remain directly importable.
"""

from repro.engine import Engine, ExecutionConfig
from repro.field.solinas import P
from repro.ssa import SSAMultiplier, PAPER_PARAMETERS
from repro.hw import (
    HEAccelerator,
    AcceleratorTiming,
    PAPER_TIMING,
    table1_report,
    table2_report,
)
from repro.fhe import DGHV, SMALL_DGHV, TOY

__version__ = "1.0.0"

__all__ = [
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
    "__version__",
]
