"""``rlwe-depth2``: depth-2 RLWE circuits, closed loop.

Each call runs eight circuits ``(m1·m2)·m3`` at n=1024, t=17 on the
3-prime RNS chain, with the modulus switches of
``benchmarks/bench_rlwe_pipeline.chain_case``: the product is switched
down, ``m3`` is switched to meet it, and the final product is switched
once more.  The scheme is bound to an engine, so every ring product
runs through the engine's backend.  An op is one circuit.

Oracle: an independent negacyclic product by big-integer Kronecker
substitution (:func:`oracles.kronecker_negacyclic`).
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace

from closedloop import ClosedLoopWorkload
from oracles import kronecker_negacyclic

N = 1024
T = 17
NOISE_BOUND = 4
PRIMES = 3
CIRCUITS_PER_CALL = 8
#: Distinct input sets the loop cycles through (encryption and oracle
#: products are prepared once, untimed).
POOL = 4


class RLWEDepth2(ClosedLoopWorkload):
    name = "rlwe-depth2"
    ops_per_call = CIRCUITS_PER_CALL

    def setup(self, seed: int, index: int):
        from repro.engine import Engine, ExecutionConfig
        from repro.fhe.rlwe import RLWEParams, default_rns_primes

        engine = Engine(
            config=ExecutionConfig(kernel="limb-matmul"), backend="software"
        )
        params = RLWEParams(
            n=N,
            t=T,
            noise_bound=NOISE_BOUND,
            rns_primes=default_rns_primes(N, T, PRIMES),
        )
        scheme = engine.fhe(params, rng=random.Random(f"rlwe-{seed}-{index}"))
        start = time.perf_counter()
        keys = scheme.keygen()
        keygen_s = time.perf_counter() - start
        state = SimpleNamespace(
            engine=engine, scheme=scheme, keys=keys, keygen_s=keygen_s, pool=[]
        )
        rng = random.Random(f"rlwe-warm-{seed}-{index}")
        warm = self._input_set(state, rng, 1)
        if self.wrong_ops(state, warm, self.call(state, warm)):
            raise RuntimeError("warm-up depth-2 circuit decrypted wrong")
        return state

    def _input_set(self, state, rng: random.Random, count: int):
        scheme, keys = state.scheme, state.keys
        messages = [
            [[rng.randrange(T) for _ in range(N)] for _ in range(count)]
            for _ in range(3)
        ]
        cts = [scheme.encrypt_many(keys, ms) for ms in messages]
        truth = [
            kronecker_negacyclic(kronecker_negacyclic(a, b, T), c, T)
            for a, b, c in zip(*messages)
        ]
        return SimpleNamespace(cts=cts, truth=truth)

    def prepare(self, state, rng: random.Random) -> None:
        state.pool = [
            self._input_set(state, rng, CIRCUITS_PER_CALL) for _ in range(POOL)
        ]

    def inputs(self, state, rng: random.Random, index: int):
        return state.pool[index % POOL]

    def call(self, state, item):
        scheme, keys = state.scheme, state.keys
        c1s, c2s, c3s = item.cts
        p12 = scheme.multiply_many(keys, list(zip(c1s, c2s)))
        lhs = scheme.mod_switch_many(p12)
        rhs = scheme.mod_switch_many(c3s)
        p123 = scheme.multiply_many(keys, list(zip(lhs, rhs)))
        return scheme.mod_switch_many(p123)

    def wrong_ops(self, state, item, output) -> int:
        got = state.scheme.decrypt_many(state.keys, output)
        return sum(1 for g, want in zip(got, item.truth) if g != want) + abs(
            len(got) - len(item.truth)
        )

    def observe(self, state, output) -> None:
        budget = min(state.scheme.noise_budget(state.keys, ct) for ct in output)
        state.min_budget = min(getattr(state, "min_budget", budget), budget)

    def traced_extras(self, state):
        return {"fhe.rlwe.final_budget_bits": getattr(state, "min_budget", 0.0)}
