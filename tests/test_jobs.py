"""Tests for the jobs layer (ISSUE 4): ``repro.jobs`` and ``software-mp``.

Covers futures-style submission (submit/map/as_completed, ordering,
exception propagation, shutdown), the job types over every workload of
the stack (SSA, ring, DGHV, RLWE), and the sharded ``software-mp``
backend's bit-identity with ``software`` over mixed batch shapes.
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
)
from repro.engine.backends import SoftwareMPBackend
from repro.engine.ops import ProtocolError
from repro.field.solinas import P
from repro.fhe.dghv import Ciphertext
from repro.fhe.params import TOY
from repro.fhe.rlwe import RLWE, RLWEParams
from repro.jobs import (
    ConvolveJob,
    DGHVMultJob,
    JobScheduler,
    MultiplyJob,
    RingTransformJob,
    RLWEMultiplyPlainJob,
    as_completed,
)
from repro.ssa.multiplier import split_batch


@pytest.fixture(scope="module")
def mp_engine():
    """One software-mp engine for the whole module (pool reuse)."""
    engine = Engine(
        config=ExecutionConfig(workers=2), backend="software-mp"
    )
    yield engine
    engine.close()


def _pairs(rng, count, bits=512):
    return [
        (rng.getrandbits(bits), rng.getrandbits(bits))
        for _ in range(count)
    ]


class TestSplitBatch:
    def test_balanced_contiguous(self):
        slices = split_batch(7, 3)
        assert slices == [slice(0, 3), slice(3, 5), slice(5, 7)]

    def test_never_empty_never_more_than_count(self):
        for count in range(0, 9):
            for shards in range(1, 6):
                slices = split_batch(count, shards)
                assert len(slices) == min(count, shards)
                items = [i for s in slices for i in range(s.start, s.stop)]
                assert items == list(range(count))

    def test_validation(self):
        with pytest.raises(ValueError):
            split_batch(-1, 2)
        with pytest.raises(ValueError):
            split_batch(4, 0)


class TestSubmit:
    def test_submit_returns_immediately_resolves_correctly(self):
        with JobScheduler(Engine()) as jobs:
            handle = jobs.submit(MultiplyJob.of(6, 7))
            assert handle.result() == [42]
            assert handle.done()
            assert handle.exception() is None
            assert handle.report is None  # software backend: no timing

    def test_submission_order_is_execution_order(self):
        order = []

        class Probe:
            name = "probe"

            def __init__(self, tag):
                self.tag = tag

            def run(self, engine):
                order.append(self.tag)
                return self.tag

        with JobScheduler(Engine()) as jobs:
            handles = [jobs.submit(Probe(i)) for i in range(8)]
            assert [h.result() for h in handles] == list(range(8))
        assert order == list(range(8))

    def test_exception_propagates(self):
        class Boom:
            name = "boom"

            def run(self, engine):
                raise RuntimeError("kaput")

        with JobScheduler(Engine()) as jobs:
            handle = jobs.submit(Boom())
            with pytest.raises(RuntimeError, match="kaput"):
                handle.result()
            assert isinstance(handle.exception(), RuntimeError)
            # The queue survives a failing job.
            assert jobs.submit(MultiplyJob.of(2, 3)).result() == [6]

    def test_non_job_rejected(self):
        with JobScheduler(Engine()) as jobs:
            with pytest.raises(TypeError, match="run"):
                jobs.submit(object())

    def test_hw_model_jobs_carry_reports(self):
        with JobScheduler(Engine(backend="hw-model")) as jobs:
            handle = jobs.submit(MultiplyJob([(3, 5), (7, 11)]))
            assert handle.result() == [15, 77]
            assert isinstance(handle.report, list)
            assert all(r.total_cycles > 0 for r in handle.report)


class TestSchedulerLifecycle:
    def test_construct_from_config(self):
        scheduler = JobScheduler(ExecutionConfig(kernel="loop"))
        try:
            assert scheduler.engine.config.kernel == "loop"
            assert scheduler.submit(MultiplyJob.of(4, 5)).result() == [20]
        finally:
            scheduler.shutdown()

    def test_construct_from_none_with_backend(self):
        scheduler = JobScheduler(backend="hw-model")
        try:
            assert scheduler.engine.backend.name == "hw-model"
        finally:
            scheduler.shutdown()

    def test_backend_kwarg_conflicts_with_engine(self):
        with pytest.raises(ValueError, match="backend"):
            JobScheduler(Engine(), backend="hw-model")

    def test_bad_source_type(self):
        with pytest.raises(TypeError):
            JobScheduler(42)

    def test_shutdown_drains_then_rejects(self):
        jobs = JobScheduler(Engine())
        handle = jobs.submit(MultiplyJob.of(9, 9))
        jobs.shutdown(wait=True)
        assert handle.result() == [81]
        assert not jobs.active
        with pytest.raises(RuntimeError, match="shut down"):
            jobs.submit(MultiplyJob.of(1, 1))
        jobs.shutdown()  # idempotent

    def test_engine_scheduler_is_lazy_and_rebuilt_after_close(self):
        engine = Engine()
        assert engine._scheduler is None
        first = engine.scheduler()
        assert engine.scheduler() is first
        assert engine.submit(MultiplyJob.of(2, 2)).result() == [4]
        engine.close()
        assert engine._scheduler is None
        # close() is idempotent and the engine recovers lazily
        engine.close()
        assert engine.map("multiply", [(2, 3)]) == [6]
        engine.close()

    def test_engine_context_manager(self):
        with Engine() as engine:
            assert engine.submit(MultiplyJob.of(3, 3)).result() == [9]

    def test_shutdown_closes_privately_built_engine(self):
        scheduler = JobScheduler(
            ExecutionConfig(workers=2), backend="software-mp"
        )
        pairs = _pairs(random.Random(51), 4, bits=256)
        assert scheduler.submit(MultiplyJob(pairs)).result() == [
            a * b for a, b in pairs
        ]
        assert scheduler.engine.backend._pool is not None
        scheduler.shutdown()
        assert scheduler.engine.backend._pool is None

    def test_shutdown_leaves_caller_owned_engine_open(self):
        engine = Engine(
            config=ExecutionConfig(workers=2), backend="software-mp"
        )
        try:
            pairs = _pairs(random.Random(53), 4, bits=256)
            left = [a for a, _ in pairs]
            right = [b for _, b in pairs]
            with JobScheduler(engine) as jobs:
                jobs.submit(MultiplyJob(pairs)).result()
            # The scheduler must not tear down an engine it was handed.
            assert engine.backend._pool is not None
            assert engine.multiply(left, right) == [
                a * b for a, b in pairs
            ]
        finally:
            engine.close()

    def test_shutdown_nowait_closes_owned_engine_after_drain(self):
        import time

        scheduler = JobScheduler(
            ExecutionConfig(workers=2), backend="software-mp"
        )
        pairs = _pairs(random.Random(57), 4, bits=256)
        handle = scheduler.submit(MultiplyJob(pairs))
        scheduler.shutdown(wait=False)  # must not block on the queue
        assert handle.result() == [a * b for a, b in pairs]
        deadline = time.monotonic() + 30
        while (
            scheduler.engine.backend._pool is not None
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert scheduler.engine.backend._pool is None

    def test_failed_job_does_not_inherit_previous_report(self):
        class Boom:
            name = "boom"

            def run(self, engine):
                raise RuntimeError("no backend call made")

        with JobScheduler(Engine(backend="hw-model")) as jobs:
            good = jobs.submit(MultiplyJob.of(3, 5))
            assert good.result() == [15]
            assert good.report is not None
            bad = jobs.submit(Boom())
            with pytest.raises(RuntimeError):
                bad.result()
            assert bad.report is None  # not the previous job's report

    def test_reports_are_per_thread(self):
        """A job's report never clobbers the caller's last_report."""
        engine = Engine(backend="hw-model")
        engine.multiply(3, 5)
        own_report = engine.last_report
        assert own_report is not None
        with JobScheduler(engine) as jobs:
            handle = jobs.submit(MultiplyJob([(7, 11), (13, 17)]))
            assert handle.result() == [77, 221]
        assert isinstance(handle.report, list)  # the job's own reports
        assert len(handle.report) == 2
        # ...while this thread still sees its own single-product report.
        assert engine.last_report is own_report


class TestMap:
    def test_map_ordered_and_flattened(self):
        rng = random.Random(1)
        pairs = _pairs(rng, 10)
        truth = [a * b for a, b in pairs]
        with JobScheduler(Engine()) as jobs:
            assert jobs.map("multiply", pairs, chunk=3) == truth
            assert jobs.map("multiply", pairs, chunk=100) == truth
            assert jobs.map("multiply", []) == []

    def test_map_chunk_validation_and_unknown_op(self):
        with JobScheduler(Engine()) as jobs:
            with pytest.raises(ValueError, match="chunk"):
                jobs.map("multiply", [(1, 2)], chunk=0)
            with pytest.raises(ValueError, match="unknown map op"):
                jobs.map("warp", [(1, 2)])

    def test_map_with_callable_factory(self):
        pairs = [(2, 3), (4, 5), (6, 7)]
        with JobScheduler(Engine()) as jobs:
            got = jobs.map(
                lambda chunk: MultiplyJob(chunk), pairs, chunk=2
            )
        assert got == [6, 20, 42]

    def test_map_callable_receives_kwargs(self):
        """Extra kwargs reach a callable op (never silently dropped)."""
        rng = np.random.default_rng(7)
        rows = rng.integers(0, P, size=(4, 64), dtype=np.uint64)
        engine = Engine()
        oracle = engine.ring(64).negacyclic_forward(rows)
        with JobScheduler(engine) as jobs:
            got = jobs.map(
                lambda chunk, negacyclic: RingTransformJob(
                    n=64, values=np.vstack(chunk), negacyclic=negacyclic
                ),
                list(rows),
                chunk=2,
                negacyclic=True,
            )
            assert np.array_equal(got, oracle)
            # a callable that accepts no kwargs raises instead of
            # silently ignoring the caller's parameters
            with pytest.raises(TypeError):
                jobs.map(
                    lambda chunk: MultiplyJob(chunk),
                    [(1, 2)],
                    x0=99,
                )

    def test_map_ring_rows_restacked(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, P, size=(6, 64), dtype=np.uint64)
        engine = Engine()
        oracle = engine.ring(64).forward(rows)
        with JobScheduler(engine) as jobs:
            got = jobs.map("ring-transform", list(rows), chunk=2, n=64)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, oracle)
            back = jobs.map(
                "ring-transform", list(got), chunk=4, n=64, inverse=True
            )
            assert np.array_equal(back, rows)

    def test_map_pair_items_for_convolve_and_rlwe(self):
        """Ops whose map items are pairs: chunked maps equal one call."""
        rng = np.random.default_rng(29)
        a = rng.integers(0, P, size=(3, 64), dtype=np.uint64)
        b = rng.integers(0, P, size=(3, 64), dtype=np.uint64)
        params = RLWEParams(n=64, t=17, noise_bound=4)
        engine = Engine()
        scheme = engine.fhe(params, rng=random.Random(29))
        keys = scheme.keygen()
        cts = scheme.encrypt_many(keys, [[i] * 64 for i in range(3)])
        plains = [[i + 1] * 64 for i in range(3)]
        pairs = list(zip(cts, cts[1:] + cts[:1]))
        with JobScheduler(engine) as jobs:
            conv = jobs.map(
                "convolve", list(zip(a, b)), chunk=2, n=64, negacyclic=True
            )
            plain = jobs.map(
                "rlwe-multiply-plain",
                list(zip(cts, plains)),
                chunk=2,
                params=params,
            )
            prods = jobs.map(
                "rlwe-multiply", pairs, chunk=2, params=params, relin=keys
            )
        assert np.array_equal(
            conv, engine.ring(64).convolve(a, b, negacyclic=True)
        )
        want = scheme.multiply_plain_many(cts, plains)
        want += scheme.multiply_many(keys, pairs)
        for got_ct, want_ct in zip(plain + prods, want):
            assert np.array_equal(got_ct.c0, want_ct.c0)
            assert np.array_equal(got_ct.c1, want_ct.c1)

    def test_as_completed_yields_every_handle(self):
        pairs = _pairs(random.Random(2), 6, bits=128)
        with JobScheduler(Engine()) as jobs:
            handles = jobs.submit_map("multiply", pairs, chunk=2)
            seen = {h.job_id for h in as_completed(handles)}
        assert seen == {h.job_id for h in handles}
        assert [h.result() for h in handles] == [
            [a * b for a, b in pairs[i : i + 2]]
            for i in range(0, len(pairs), 2)
        ]

    def test_default_chunk_covers_items(self):
        with JobScheduler(Engine()) as jobs:
            assert jobs.default_chunk(10) >= 1
            pairs = _pairs(random.Random(3), 5, bits=64)
            assert jobs.map("multiply", pairs) == [a * b for a, b in pairs]


class TestFHEJobs:
    def test_dghv_layer_through_queue(self):
        engine = Engine()
        scheme = engine.fhe(TOY, rng=random.Random(11))
        keys = scheme.generate_keys()
        plain = [(0, 0), (0, 1), (1, 0), (1, 1)]
        pairs = [
            (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
            for a, b in plain
        ]
        with JobScheduler(engine) as jobs:
            handle = jobs.submit(
                DGHVMultJob(pairs=tuple(pairs), x0=keys.x0)
            )
            ands = handle.result()
            mapped = jobs.map("dghv-mult", pairs, chunk=2, x0=keys.x0)
        assert [scheme.decrypt(keys, c) for c in ands] == [0, 0, 0, 1]
        assert [scheme.decrypt(keys, c) for c in mapped] == [0, 0, 0, 1]

    def test_dghv_job_rejects_bad_input(self):
        """Zero or negative ``x0`` and negative or oversize values are
        typed errors at construction, before any product runs."""
        scheme = Engine().fhe(TOY, rng=random.Random(19))
        keys = scheme.generate_keys()
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 0)
        for x0 in (0, -keys.x0, keys.x0 + 1, keys.x0 << 1, 1, "7"):
            with pytest.raises(ProtocolError, match="x0 must be"):
                DGHVMultJob(pairs=[(ca, cb)], x0=x0)
        for value in (-ca.value, 1 << TOY.gamma):
            bad = Ciphertext(value, ca.noise_bits, TOY)
            with pytest.raises(ProtocolError, match="ciphertext values"):
                DGHVMultJob(pairs=[(bad, cb)], x0=keys.x0)
        with JobScheduler(Engine()) as jobs:
            with pytest.raises(ProtocolError):
                jobs.map("dghv-mult", [(ca, cb)], x0=0)
            (good,) = jobs.map("dghv-mult", [(ca, cb)], x0=keys.x0)
        assert scheme.decrypt(keys, good) == 0

    def test_rlwe_multiply_plain_job_matches_scheme(self):
        params = RLWEParams(n=64, t=64, noise_bound=4)
        engine = Engine()
        scheme = engine.fhe(params, rng=random.Random(13))
        secret = scheme.generate_secret()
        rng = random.Random(17)
        messages = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(3)
        ]
        plains = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(3)
        ]
        cts = [scheme.encrypt(secret, m) for m in messages]
        oracle = scheme.multiply_plain_many(cts, plains)
        with JobScheduler(engine) as jobs:
            got = jobs.submit(
                RLWEMultiplyPlainJob(
                    params=params,
                    ciphertexts=tuple(cts),
                    plains=tuple(tuple(p) for p in plains),
                )
            ).result()
        for got_ct, want_ct in zip(got, oracle):
            assert np.array_equal(got_ct.c0, want_ct.c0)
            assert np.array_equal(got_ct.c1, want_ct.c1)

    def test_convolve_job_matches_ring(self):
        rng = np.random.default_rng(19)
        a = rng.integers(0, P, size=(3, 64), dtype=np.uint64)
        b = rng.integers(0, P, size=(3, 64), dtype=np.uint64)
        engine = Engine()
        oracle = engine.ring(64).convolve(a, b, negacyclic=True)
        with JobScheduler(engine) as jobs:
            got = jobs.submit(
                ConvolveJob(n=64, a=a, b=b, negacyclic=True)
            ).result()
        assert np.array_equal(got, oracle)

    def test_ring_transform_job_negacyclic_roundtrip(self):
        rng = np.random.default_rng(23)
        rows = rng.integers(0, P, size=(2, 64), dtype=np.uint64)
        with JobScheduler(Engine()) as jobs:
            spec = jobs.submit(
                RingTransformJob(n=64, values=rows, negacyclic=True)
            ).result()
            back = jobs.submit(
                RingTransformJob(
                    n=64, values=spec, inverse=True, negacyclic=True
                )
            ).result()
        assert np.array_equal(back, rows)


class TestSoftwareMP:
    def test_registered(self):
        assert "software-mp" in available_backends()

    def test_small_batches_run_inline(self, mp_engine):
        # Below the shard floor no pool is spun up.
        assert mp_engine.multiply(3, 5) == 15
        assert mp_engine.multiply([2], [9]) == [18]

    def test_multiply_bit_identical(self, mp_engine):
        rng = random.Random(29)
        pairs = _pairs(rng, 7, bits=2048)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        truth = [a * b for a, b in pairs]
        assert mp_engine.multiply(left, right) == truth
        assert Engine().multiply(left, right) == truth

    def test_transform_bit_identical(self, mp_engine):
        rng = np.random.default_rng(31)
        rows = rng.integers(0, P, size=(5, 256), dtype=np.uint64)
        soft = Engine().ring(256)
        spectra = mp_engine.ring(256).forward(rows)
        assert np.array_equal(spectra, soft.forward(rows))
        assert np.array_equal(mp_engine.ring(256).inverse(spectra), rows)

    def test_workers_resolution(self, mp_engine):
        assert mp_engine.backend.workers(mp_engine) == 2
        override = SoftwareMPBackend(workers=3)
        assert override.workers(mp_engine) == 3

    def test_pool_is_persistent_and_closable(self, mp_engine):
        pairs = _pairs(random.Random(37), 4, bits=256)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        mp_engine.multiply(left, right)
        pool = mp_engine.backend._pool
        assert pool is not None
        mp_engine.multiply(left, right)
        assert mp_engine.backend._pool is pool  # same pool reused
        mp_engine.backend.close()
        assert mp_engine.backend._pool is None
        # and it comes back lazily
        assert mp_engine.multiply(left, right) == [
            a * b for a, b in pairs
        ]

    def test_scheduler_map_over_mp_engine(self, mp_engine):
        pairs = _pairs(random.Random(41), 6, bits=1024)
        truth = [a * b for a, b in pairs]
        assert mp_engine.map("multiply", pairs, chunk=3) == truth

    def test_workers_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)

    def test_batch_chunk_honored_in_workers(self):
        """The peak-working-set bound applies inside mp shards too."""
        rng = random.Random(43)
        pairs = _pairs(rng, 9, bits=512)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        engine = Engine(
            config=ExecutionConfig(workers=2, batch_chunk=2),
            backend="software-mp",
        )
        try:
            assert engine.multiply(left, right) == [
                a * b for a, b in pairs
            ]
        finally:
            engine.close()

    @settings(deadline=None, max_examples=8)
    @given(
        bits=st.sampled_from([64, 256, 1024]),
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_hypothesis_equivalence_mixed_shapes(
        self, mp_engine, bits, batch, seed
    ):
        rng = random.Random(seed)
        pairs = _pairs(rng, batch, bits=bits)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        truth = [a * b for a, b in pairs]
        assert mp_engine.multiply(left, right) == truth
        assert Engine().multiply(left, right) == truth
        n = 64
        rows = np.array(
            [[rng.randrange(P) for _ in range(n)] for _ in range(batch)],
            dtype=np.uint64,
        )
        assert np.array_equal(
            mp_engine.ring(n).forward(rows),
            Engine().ring(n).forward(rows),
        )
