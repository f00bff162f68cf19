"""Runtime fault tolerance: supervision, retry, timeout, degradation.

Every scenario here is driven by the deterministic injection harness
(:mod:`repro.engine.faultinject`): a worker SIGKILLed mid-shard, a
shard hung past its deadline, a bit flipped in a shard result.  The
invariants under test are the tentpole guarantees of the resilience
layer:

- recovery is *bit-identical* — replayed shards, degraded in-process
  execution and retried jobs all produce exactly the bits the clean
  ``software`` backend produces;
- no resource is stranded — ``/dev/shm`` holds no ``repro-mp-*``
  block after any outcome (success, crash, timeout, cancellation);
- every fault and every recovery action is visible in a
  :class:`~repro.engine.resilience.FaultReport`.

Crash/recovery is exercised under both ``fork`` and ``spawn`` start
methods (the directive travels in the task payload, so behavior must
not depend on inherited parent state).
"""

import os
import random
import time

import numpy as np
import pytest

from repro.engine import Engine, ExecutionConfig, faultinject
from repro.engine.backends import SoftwareMPBackend
from repro.engine.jobs import JobScheduler, MultiplyJob
from repro.engine.resilience import (
    NO_RETRY,
    Deadline,
    FaultReport,
    JobTimeoutError,
    RetryPolicy,
    ShardVerificationError,
    WorkerCrashError,
    current_deadline,
    deadline_scope,
)
from repro.field.solinas import P


def _pairs(rng, count, bits):
    return [
        (rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)
        for _ in range(count)
    ]


def _shm_residue():
    """Names of leaked repro shared-memory blocks (must stay empty)."""
    try:
        return sorted(
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("repro-mp-")
        )
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def _mp_engine(start_method=None, **config):
    config.setdefault("workers", 2)
    return Engine(
        config=ExecutionConfig(**config),
        backend=SoftwareMPBackend(start_method=start_method),
    )


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No fault plan may leak between tests."""
    faultinject.deactivate()
    yield
    faultinject.deactivate()


# -- the resilience vocabulary --------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_retries=5,
            base_delay_s=0.01,
            backoff_factor=2.0,
            max_delay_s=0.05,
        )
        assert policy.delays() == [0.01, 0.02, 0.04, 0.05, 0.05]
        # A pure function of the policy: same schedule every time.
        assert policy.delays() == policy.delays()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)

    def test_should_retry_gates_on_type_and_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(WorkerCrashError("x"), 0)
        assert policy.should_retry(WorkerCrashError("x"), 1)
        assert not policy.should_retry(WorkerCrashError("x"), 2)
        # A blown deadline is not transient: retrying cannot help.
        assert not policy.should_retry(JobTimeoutError("x"), 0)
        assert not policy.should_retry(ValueError("x"), 0)
        assert not NO_RETRY.should_retry(WorkerCrashError("x"), 0)


class TestDeadline:
    def test_after_validates(self):
        with pytest.raises(ValueError):
            Deadline.after(0)
        with pytest.raises(ValueError):
            Deadline.after(-1)

    def test_remaining_and_expiry(self):
        deadline = Deadline.after(60.0)
        assert 0 < deadline.remaining() <= 60.0
        assert not deadline.expired
        past = Deadline(expires_at=time.monotonic() - 1.0)
        assert past.expired
        assert past.remaining() < 0

    def test_scope_nesting(self):
        assert current_deadline() is None
        outer, inner = Deadline.after(60.0), Deadline.after(30.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            with deadline_scope(None):  # None nests as a no-op
                assert current_deadline() is outer
            assert current_deadline() is outer
        assert current_deadline() is None


class TestFaultSpec:
    def test_parse_clauses(self):
        plan = faultinject.parse_spec(
            "worker-kill:1,shard-delay:2:0.25,corrupt-shard,repeat"
        )
        assert plan.kill_on_shard == 1
        assert plan.delay_on_shard == 2
        assert plan.delay_s == 0.25
        assert plan.corrupt_on_shard == 0
        assert plan.repeat

    def test_defaults_target_shard_zero(self):
        plan = faultinject.parse_spec("worker-kill")
        assert plan.kill_on_shard == 0
        assert plan.delay_on_shard is None
        assert not plan.repeat

    @pytest.mark.parametrize(
        "bad", ["", "explode", "worker-kill:x", "shard-delay:0:fast"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            faultinject.parse_spec(bad)

    def test_one_shot_consumption(self):
        plan = faultinject.parse_spec("worker-kill:0")
        assert plan.directive_for_shard(0) == "kill"
        # Consumed: the replayed shard runs clean.
        assert plan.directive_for_shard(0) == ""

    def test_repeat_refires(self):
        plan = faultinject.parse_spec("worker-kill:0,repeat")
        assert plan.directive_for_shard(0) == "kill"
        assert plan.directive_for_shard(0) == "kill"

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faultinject.FAULTS_ENV_VAR, "corrupt-shard:3")
        monkeypatch.setattr(faultinject, "_ACTIVE", None)
        monkeypatch.setattr(faultinject, "_ENV_CHECKED", False)
        assert faultinject.should_corrupt(3)


class TestFaultReport:
    def test_counts_and_render(self):
        report = FaultReport()
        assert report.clean
        assert "clean" in report.render()
        report.record("worker-crash", "boom", shards=(0,))
        report.record("respawn", "rebuild 1", shards=(0,))
        report.record("degraded", "gave up on the pool")
        assert report.respawns == 1
        assert report.degraded
        assert not report.clean
        text = report.render()
        assert "worker-crash" in text and "shards=[0]" in text


# -- worker crash recovery (fork AND spawn) -------------------------------


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestWorkerCrashRecovery:
    def test_multiply_recovers_bit_identically(self, start_method):
        rng = random.Random(21)
        pairs = _pairs(rng, 6, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine(start_method)
        try:
            before = _shm_residue()
            # Warm the pool so the kill hits an established worker.
            assert engine.multiply(
                [a for a, _ in pairs], [b for _, b in pairs]
            ) == truth
            pids_before = engine.backend.worker_pids
            with faultinject.inject("worker-kill:0"):
                recovered = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert recovered == truth
            report = engine.backend.fault_report
            assert report.respawns >= 1
            assert report.count("worker-crash") >= 1
            assert not report.degraded
            # The respawned pool is a different set of processes.
            assert engine.backend.worker_pids != pids_before
            assert _shm_residue() == before
        finally:
            engine.close()

    def test_transform_pickle_path_recovers(self, start_method):
        rng = random.Random(22)
        n, batch = 64, 4
        rows = np.array(
            [[rng.randrange(P) for _ in range(n)] for _ in range(batch)],
            dtype=np.uint64,
        )
        engine = _mp_engine(start_method)
        software = Engine()
        try:
            with faultinject.inject("worker-kill:0"):
                recovered = engine.ring(n).forward(rows)
            assert np.array_equal(
                recovered, software.ring(n).forward(rows)
            )
            assert engine.backend.fault_report.respawns >= 1
        finally:
            engine.close()


class TestSharedMemoryCrashRecovery:
    # One start method only: the shm workload is the expensive one,
    # and block lifecycle is identical either way (parent-owned).
    def test_shm_path_recovers_and_leaks_nothing(self):
        rng = np.random.default_rng(23)
        n, batch = 4096, 32  # 32*4096*8 B = 1 MiB: crosses min_shm_bytes
        rows = rng.integers(0, P, size=(batch, n), dtype=np.uint64)
        engine = _mp_engine("fork")
        software = Engine()
        try:
            assert rows.nbytes >= engine.backend.min_shm_bytes
            before = _shm_residue()
            with faultinject.inject("worker-kill:0"):
                recovered = engine.ring(n).forward(rows)
            assert np.array_equal(
                recovered, software.ring(n).forward(rows)
            )
            assert engine.backend.fault_report.respawns >= 1
            assert _shm_residue() == before
        finally:
            engine.close()
        assert _shm_residue() == []

    def test_generation_tag_in_block_names(self):
        engine = _mp_engine("fork")
        try:
            block = engine.backend._create_block(64)
            try:
                assert block.name.startswith(
                    f"repro-mp-{os.getpid()}-g{engine.backend._generation}-"
                )
            finally:
                block.close()
                block.unlink()
        finally:
            engine.close()


# -- timeouts --------------------------------------------------------------


class TestTimeout:
    def test_hung_shard_times_out_and_pool_recovers(self):
        rng = random.Random(24)
        pairs = _pairs(rng, 4, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine("fork")
        try:
            before = _shm_residue()
            with JobScheduler(engine) as jobs:
                with faultinject.inject("shard-delay:0:30"):
                    handle = jobs.submit(
                        MultiplyJob(pairs), timeout=0.5
                    )
                    with pytest.raises(JobTimeoutError):
                        handle.result()
                assert handle.fault_report.count("timeout") >= 1
                # The scheduler (and a fresh lazily respawned pool)
                # stay usable after the hung pool was abandoned.
                ok = jobs.submit(MultiplyJob(pairs))
                assert ok.result() == truth
            assert _shm_residue() == before
        finally:
            engine.close()

    def test_queued_job_expires_before_running(self):
        engine = _mp_engine("fork")

        class Slow:
            name = "slow"

            def run(self, engine):
                time.sleep(0.6)
                return "slow-done"

        try:
            with JobScheduler(engine) as jobs:
                slow = jobs.submit(Slow())
                # Queued behind Slow with a budget Slow outlives: the
                # deadline clock starts at submission.
                starved = jobs.submit(MultiplyJob.of(3, 4), timeout=0.1)
                with pytest.raises(JobTimeoutError):
                    starved.result()
                assert slow.result() == "slow-done"
                assert starved in jobs.dead_letters
        finally:
            engine.close()


# -- graceful degradation --------------------------------------------------


class TestDegradation:
    def test_exhausting_respawns_degrades_bit_identically(self):
        rng = random.Random(25)
        pairs = _pairs(rng, 4, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine("fork", max_respawns=1)
        try:
            # repeat: the kill re-fires on every replay, exhausting
            # the respawn budget and forcing in-process execution.
            with faultinject.inject("worker-kill:0,repeat"):
                degraded = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert degraded == truth
            report = engine.backend.fault_report
            assert report.degraded
            assert report.respawns == 2  # max_respawns + the final try
        finally:
            engine.close()

    def test_max_respawns_zero_degrades_on_first_crash(self):
        rng = random.Random(26)
        pairs = _pairs(rng, 4, 256)
        engine = _mp_engine("fork", max_respawns=0)
        try:
            with faultinject.inject("worker-kill:0,repeat"):
                products = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert products == [a * b for a, b in pairs]
            assert engine.backend.fault_report.degraded
        finally:
            engine.close()


# -- shard verification ----------------------------------------------------


class TestShardVerification:
    def test_corrupted_shard_is_caught(self):
        rng = random.Random(27)
        pairs = _pairs(rng, 4, 512)
        engine = _mp_engine("fork", verify_shards=True)
        try:
            with faultinject.inject("corrupt-shard:0"):
                with pytest.raises(ShardVerificationError):
                    engine.multiply(
                        [a for a, _ in pairs], [b for _, b in pairs]
                    )
            assert (
                engine.backend.fault_report.count("shard-corruption") == 1
            )
        finally:
            engine.close()

    def test_corrupted_transform_shard_is_caught(self):
        rng = random.Random(28)
        n, batch = 64, 4
        rows = np.array(
            [[rng.randrange(P) for _ in range(n)] for _ in range(batch)],
            dtype=np.uint64,
        )
        engine = _mp_engine("fork", verify_shards=True)
        try:
            with faultinject.inject("corrupt-shard:1"):
                with pytest.raises(ShardVerificationError):
                    engine.ring(n).forward(rows)
        finally:
            engine.close()

    def test_clean_run_passes_verification(self):
        rng = random.Random(29)
        pairs = _pairs(rng, 4, 512)
        engine = _mp_engine("fork", verify_shards=True)
        try:
            assert engine.multiply(
                [a for a, _ in pairs], [b for _, b in pairs]
            ) == [a * b for a, b in pairs]
            assert engine.backend.fault_report.clean
        finally:
            engine.close()

    def test_corruption_without_verification_goes_unnoticed(self):
        # Control case: verify_shards is what catches the flip.
        rng = random.Random(30)
        pairs = _pairs(rng, 4, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine("fork", verify_shards=False)
        try:
            with faultinject.inject("corrupt-shard:0"):
                products = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert products != truth
            assert products[0] == truth[0] ^ 1
        finally:
            engine.close()


# -- scheduler-level retry / dead letters / cancellation -------------------


class _FlakyJob:
    name = "flaky"

    def __init__(self, failures, error=WorkerCrashError):
        self.remaining = failures
        self.error = error
        self.attempts = 0

    def run(self, engine):
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error("injected flake")
        return "ok"


class TestSchedulerResilience:
    def test_retry_recovers_flaky_job(self):
        with JobScheduler() as jobs:
            job = _FlakyJob(failures=2)
            handle = jobs.submit(
                job,
                retry=RetryPolicy(max_retries=3, base_delay_s=0.001),
            )
            assert handle.result() == "ok"
            assert job.attempts == 3
            assert handle.fault_report.retries == 2
            assert handle.fault_report.count("recovered") == 1

    def test_exhausted_retries_dead_letter(self):
        with JobScheduler() as jobs:
            handle = jobs.submit(
                _FlakyJob(failures=10),
                retry=RetryPolicy(max_retries=2, base_delay_s=0.001),
            )
            with pytest.raises(WorkerCrashError):
                handle.result()
            assert handle in jobs.dead_letters
            assert handle.fault_report.count("dead-letter") == 1

    def test_value_errors_are_not_retried(self):
        with JobScheduler() as jobs:
            job = _FlakyJob(failures=5, error=ValueError)
            handle = jobs.submit(
                job, retry=RetryPolicy(max_retries=3, base_delay_s=0.001)
            )
            with pytest.raises(ValueError):
                handle.result()
            assert job.attempts == 1  # the job's own math is not transient
            assert handle not in jobs.dead_letters

    def test_close_cancels_queued_jobs(self):
        from concurrent.futures import CancelledError

        class Slow:
            name = "slow"

            def run(self, engine):
                time.sleep(0.5)
                return "done"

        before = _shm_residue()
        jobs = JobScheduler()
        running = jobs.submit(Slow())
        queued = [jobs.submit(MultiplyJob.of(i, i + 1)) for i in range(4)]
        cancelled = jobs.close()
        assert len(cancelled) == 4
        assert set(cancelled) == set(queued)
        for handle in queued:
            with pytest.raises(CancelledError):
                handle.result()
            assert handle in jobs.dead_letters
            assert handle.fault_report.count("dead-letter") == 1
        assert running.result() == "done"  # in-flight job completes
        assert not jobs.active
        assert _shm_residue() == before

    def test_close_is_idempotent(self):
        jobs = JobScheduler()
        assert jobs.close() == []
        assert jobs.close() == []

    def test_handle_fault_report_sees_backend_events(self):
        rng = random.Random(31)
        pairs = _pairs(rng, 4, 512)
        engine = _mp_engine("fork")
        try:
            with JobScheduler(engine) as jobs:
                with faultinject.inject("worker-kill:0"):
                    handle = jobs.submit(MultiplyJob(pairs))
                    assert handle.result() == [a * b for a, b in pairs]
                assert handle.fault_report.respawns >= 1
        finally:
            engine.close()
