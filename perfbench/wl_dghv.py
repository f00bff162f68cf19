"""``dghv-paper``: the paper's own operation, closed loop.

Each call is ``DGHV.multiply_many`` on four fresh pairs of
``SMALL_DGHV`` ciphertexts (786,432-bit) on the ``software`` backend
with the ``limb-matmul`` kernel — the only workload on the 64K
``(64, 64, 16)`` plan.  An op is one homomorphic AND.  Oracle: each
product decrypts to the AND of its two plaintext bits.
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace

from closedloop import ClosedLoopWorkload

PAIRS_PER_CALL = 4


class DGHVPaper(ClosedLoopWorkload):
    name = "dghv-paper"
    ops_per_call = PAIRS_PER_CALL

    def setup(self, seed: int, index: int):
        from repro.engine import Engine, ExecutionConfig
        from repro.fhe.params import SMALL_DGHV

        engine = Engine(
            config=ExecutionConfig(kernel="limb-matmul"), backend="software"
        )
        scheme = engine.fhe(SMALL_DGHV, rng=random.Random(f"dghv-{seed}-{index}"))
        start = time.perf_counter()
        keys = scheme.keygen()
        keygen_s = time.perf_counter() - start
        warm = scheme.multiply_many(
            keys, [(scheme.encrypt(keys, 1), scheme.encrypt(keys, 1))]
        )
        if scheme.decrypt(keys, warm[0]) != 1:
            raise RuntimeError("warm-up homomorphic AND decrypted wrong")
        return SimpleNamespace(
            engine=engine, scheme=scheme, keys=keys, keygen_s=keygen_s
        )

    def inputs(self, state, rng: random.Random, index: int):
        bits = [
            (rng.getrandbits(1), rng.getrandbits(1)) for _ in range(PAIRS_PER_CALL)
        ]
        scheme, keys = state.scheme, state.keys
        pairs = [
            (scheme.encrypt(keys, a), scheme.encrypt(keys, b)) for a, b in bits
        ]
        return bits, pairs

    def call(self, state, item):
        return state.scheme.multiply_many(state.keys, item[1])

    def wrong_ops(self, state, item, output) -> int:
        bits = item[0]
        got = state.scheme.decrypt_many(state.keys, output)
        return sum(1 for (a, b), g in zip(bits, got) if g != (a & b)) + abs(
            len(got) - len(bits)
        )
