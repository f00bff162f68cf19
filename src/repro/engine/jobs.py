"""``repro.jobs`` — futures-style submission over an :class:`Engine`.

The paper's accelerator is a throughput machine: a macro-pipelined
FFT-64 datapath fed with *streams* of large-integer products.  The
:class:`~repro.engine.Engine` façade, by contrast, is call-and-block.
This module closes the gap with a job model:

>>> from repro.jobs import JobScheduler, MultiplyJob, as_completed
>>> with JobScheduler(engine) as jobs:
...     handle = jobs.submit(MultiplyJob.of(a, b))   # returns at once
...     handle.done(), handle.result()               # futures-style
...     products = jobs.map("multiply", pairs, chunk=64)
...     for h in as_completed(jobs.submit_map("multiply", pairs)):
...         consume(h.result())

Every workload of the stack flows through the same queue as one of the
six :mod:`repro.engine.ops` classes: SSA products
(:class:`MultiplyJob`), ring forward/inverse/convolution batches
(:class:`RingTransformJob`, :class:`ConvolveJob`), DGHV homomorphic
AND layers (:class:`DGHVMultJob`), RLWE plaintext products
(:class:`RLWEMultiplyPlainJob`) and RLWE ciphertext products
(:class:`RLWEMultiplyJob`).  Jobs execute **in submission order**
on one dispatcher thread that owns the engine — the engine's caches
are never raced — while intra-job parallelism comes from the engine's
compute backend (``software-mp`` shards each job's batch axis across
worker processes).  While jobs are in flight, route further compute on
that engine through the queue too (engine caches and hw-model stage
buffers are unsynchronized; only report slots are per-thread) — the
caller's own non-engine work overlaps freely.

``Engine.submit`` / ``Engine.map`` are conveniences over a lazily
created per-engine scheduler.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import as_completed as _futures_as_completed
from concurrent.futures import wait as futures_wait
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.engine.config import ExecutionConfig
from repro.engine.ops import (
    OPS,
    ConvolveJob,
    DGHVMultJob,
    MultiplyJob,
    Op,
    RingTransformJob,
    RLWEMultiplyJob,
    RLWEMultiplyPlainJob,
)
from repro.engine.resilience import (
    NO_RETRY,
    Deadline,
    FaultReport,
    JobTimeoutError,
    RetryPolicy,
    RuntimeFaultError,
    deadline_scope,
)

#: Anything with a ``run(engine)`` method is a job; the stack's own jobs
#: are the :mod:`repro.engine.ops` classes.
Job = Op


# -- handles ---------------------------------------------------------------


class JobHandle:
    """A future over one submitted job.

    ``result(timeout=None)`` blocks for (and returns or re-raises) the
    job's outcome; ``done()`` / ``exception()`` / ``cancel()`` follow
    :class:`concurrent.futures.Future` semantics.  After completion,
    :attr:`report` holds whatever timing artifact the engine's backend
    produced for the job (``None`` on the software backends) and
    :attr:`fault_report` holds the job's own resilience story: the
    backend fault events observed while it ran (worker crashes, pool
    respawns, degradation), plus any scheduler-level retries and the
    final outcome (``recovered`` / ``dead-letter``).
    """

    def __init__(
        self,
        job: Job,
        job_id: int,
        deadline: Optional[Deadline] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.job = job
        self.job_id = job_id
        self._future: Future = Future()
        self._report: Optional[object] = None
        self._deadline = deadline
        self._retry = retry if retry is not None else NO_RETRY
        #: This job's fault/recovery event log (see class docstring).
        self.fault_report = FaultReport()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return (
            f"JobHandle(id={self.job_id}, "
            f"op={getattr(self.job, 'name', '?')!r}, {state})"
        )

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        """Cancel if not yet started (single dispatcher ⇒ FIFO queue)."""
        return self._future.cancel()

    def result(self, timeout: Optional[float] = None):
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None):
        return self._future.exception(timeout)

    @property
    def report(self) -> Optional[object]:
        """The backend's timing artifact for this job (post-completion)."""
        return self._report


def as_completed(
    handles: Iterable[JobHandle], timeout: Optional[float] = None
) -> Iterator[JobHandle]:
    """Yield handles as their jobs finish (completion order)."""
    handles = list(handles)
    by_future = {h._future: h for h in handles}
    for future in _futures_as_completed(by_future, timeout=timeout):
        yield by_future[future]


# -- the scheduler ---------------------------------------------------------

class JobScheduler:
    """Futures-style submission queue over one engine.

    Parameters
    ----------
    source:
        An :class:`~repro.engine.Engine` to run jobs on, an
        :class:`~repro.engine.config.ExecutionConfig` (a private engine
        is built from it), or ``None`` (a default engine).
    backend:
        Backend name for the private engine when ``source`` is a
        config or ``None``; ignored when an engine is passed.

    One dispatcher thread owns the engine and executes jobs strictly in
    submission order — callers get their :class:`JobHandle` back
    immediately and overlap their own work (or further submissions)
    with the compute.  Parallelism *within* a job comes from the
    engine's backend; pair the scheduler with ``software-mp`` to shard
    each job's batch axis across worker processes.
    """

    def __init__(
        self,
        source=None,
        *,
        backend: Optional[str] = None,
    ):
        from repro.engine.core import Engine

        self._owns_engine = False
        if source is None:
            self.engine = Engine(backend=backend or "software")
            self._owns_engine = True
        elif isinstance(source, ExecutionConfig):
            self.engine = Engine(
                config=source, backend=backend or "software"
            )
            self._owns_engine = True
        elif isinstance(source, Engine):
            if backend is not None:
                raise ValueError(
                    "backend= applies only when the scheduler builds "
                    "its own engine; this Engine already has one"
                )
            self.engine = source
        else:
            raise TypeError(
                "source must be an Engine, an ExecutionConfig or None; "
                f"got {type(source)!r}"
            )
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-jobs"
        )
        # Handles whose futures are not yet resolved (pruned by a
        # done-callback); close() cancels whatever is still queued here.
        self._pending: set = set()
        #: Jobs that failed for good on an infrastructure fault — retry
        #: budget exhausted, deadline blown, or cancelled by
        #: :meth:`close` — kept with their handles (job payload +
        #: :attr:`JobHandle.fault_report`) for post-mortem inspection
        #: or manual resubmission.
        self.dead_letters: List[JobHandle] = []

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    @property
    def active(self) -> bool:
        return self._pool is not None

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally wait for the queue to drain.

        Idempotent.  Pending jobs still execute (FIFO) unless the
        interpreter is exiting; call ``cancel()`` on handles first to
        drop queued work.  An engine the scheduler built for itself
        (the config / ``None`` constructor forms) is closed with it —
        its ``software-mp`` worker pool does not outlive the queue.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if wait or not self._owns_engine:
            pool.shutdown(wait=wait)
            if self._owns_engine:
                self.engine.close()
            return
        # wait=False on an owned engine: queued jobs may still be
        # executing, so the engine (and its software-mp worker pool)
        # must only close once the dispatcher drains — hand that to a
        # reaper thread instead of blocking the caller.
        pool.shutdown(wait=False)

        def _drain_then_close() -> None:
            pool.shutdown(wait=True)  # idempotent: waits for drain
            self.engine.close()

        threading.Thread(
            target=_drain_then_close,
            name="repro-jobs-reaper",
            daemon=True,
        ).start()

    def close(self, wait: bool = True) -> List[JobHandle]:
        """Shut down, *cancelling* still-queued jobs first.

        Where :meth:`shutdown` drains the queue, ``close`` drops it:
        every job that has not started is cancelled (its handle
        resolves to :exc:`~concurrent.futures.CancelledError` and lands
        on :attr:`dead_letters`), the job currently running — if any —
        finishes, and the scheduler then shuts down.  Returns the
        cancelled handles.  Idempotent, like :meth:`shutdown`.
        """
        with self._lock:
            pending = list(self._pending)
        cancelled = [
            handle
            for handle in sorted(pending, key=lambda h: h.job_id)
            if handle.cancel()
        ]
        for handle in cancelled:
            handle.fault_report.record(
                "dead-letter",
                "cancelled while queued by JobScheduler.close()",
            )
        with self._lock:
            self.dead_letters.extend(cancelled)
        self.shutdown(wait=wait)
        return cancelled

    def drain(self, timeout: Optional[float] = None) -> List[JobHandle]:
        """Block until every submitted job reaches a terminal state.

        Unlike :meth:`shutdown`, draining does **not** stop the
        scheduler: it simply waits (from any thread) for the work
        already queued — including jobs submitted by *other* threads —
        to finish, then returns the current :attr:`dead_letters` so the
        caller can observe what failed for good.  Jobs submitted while
        the drain is in progress are waited on too.

        Raises :class:`~repro.engine.resilience.JobTimeoutError` if the
        queue has not emptied after ``timeout`` seconds; the scheduler
        and its queue are left untouched in that case.
        """
        deadline = Deadline.after(timeout) if timeout is not None else None
        while True:
            with self._lock:
                futures = [handle._future for handle in self._pending]
            if not futures:
                with self._lock:
                    return list(self.dead_letters)
            remaining = None
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise JobTimeoutError(
                        f"queue failed to drain within {timeout}s "
                        f"({len(futures)} job(s) still pending)"
                    )
            _, not_done = futures_wait(futures, timeout=remaining)
            if not_done:
                raise JobTimeoutError(
                    f"queue failed to drain within {timeout}s "
                    f"({len(not_done)} job(s) still pending)"
                )

    # -- submission --------------------------------------------------------

    def submit(
        self,
        job: Job,
        *,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> JobHandle:
        """Queue one job; returns its :class:`JobHandle` immediately.

        ``timeout`` (seconds) arms a :class:`Deadline` whose clock
        starts *now*, at submission — queue wait, every retry and every
        backend shard wait all consume the same budget.  A blown
        deadline resolves the handle with
        :class:`~repro.engine.resilience.JobTimeoutError` (hung
        ``software-mp`` workers are abandoned, not joined).

        ``retry`` (a :class:`~repro.engine.resilience.RetryPolicy`)
        re-runs the job after retryable infrastructure faults with the
        policy's deterministic backoff; the default ``NO_RETRY`` fails
        fast.  A job that exhausts its budget (or fails on a
        non-retryable :class:`RuntimeFaultError`) lands on
        :attr:`dead_letters`.
        """
        run = getattr(job, "run", None)
        if not callable(run):
            raise TypeError(
                f"not a job (no run(engine) method): {job!r}"
            )
        deadline = Deadline.after(timeout) if timeout is not None else None
        handle = JobHandle(
            job, next(self._ids), deadline=deadline, retry=retry
        )
        with self._lock:
            if self._pool is None:
                raise RuntimeError("scheduler is shut down")
            self._pending.add(handle)
            handle._future.add_done_callback(
                lambda _f, h=handle: self._pending.discard(h)
            )
            self._pool.submit(self._execute, job, handle)
        return handle

    def _execute(self, job: Job, handle: JobHandle) -> None:
        """Dispatcher-thread body: run under deadline/retry, resolve.

        Backend fault events that occur while this job runs are copied
        onto the handle's :attr:`~JobHandle.fault_report` (the backend
        keeps its own cumulative log), so a caller holding only the
        handle sees the full story of *their* job.
        """
        if not handle._future.set_running_or_notify_cancel():
            return
        backend_report = getattr(
            self.engine.backend, "fault_report", None
        )
        policy = handle._retry
        deadline = handle._deadline
        attempt = 0
        while True:
            mark = (
                len(backend_report.events)
                if backend_report is not None
                else 0
            )
            # Clear this thread's report slot first: a job that fails
            # (or never reaches a backend call) must not inherit the
            # previous job's timing artifact.
            self.engine.last_report = None
            error: Optional[BaseException] = None
            result = None
            try:
                if deadline is not None and deadline.expired:
                    raise JobTimeoutError(
                        f"job {handle.job_id} "
                        f"({getattr(job, 'name', '?')}) expired before "
                        f"it ran — queue wait and/or earlier attempts "
                        f"consumed its timeout"
                    )
                with deadline_scope(deadline):
                    result = job.run(self.engine)
            except BaseException as err:
                error = err
            if backend_report is not None:
                handle.fault_report.extend(backend_report.events[mark:])
            if error is None:
                if attempt > 0:
                    handle.fault_report.record(
                        "recovered",
                        f"succeeded on retry {attempt}",
                    )
                handle._report = self.engine.last_report
                handle._future.set_result(result)
                return
            expired = deadline is not None and deadline.expired
            if policy.should_retry(error, attempt) and not expired:
                delay = policy.delay(attempt)
                if deadline is not None:
                    delay = min(delay, max(deadline.remaining(), 0.0))
                handle.fault_report.record(
                    "retry",
                    f"attempt {attempt + 1} failed ({error!r}); "
                    f"retrying after {delay:.3g}s backoff",
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            if isinstance(error, RuntimeFaultError):
                handle.fault_report.record(
                    "dead-letter",
                    f"failed for good after {attempt + 1} attempt(s): "
                    f"{error!r}",
                )
                with self._lock:
                    self.dead_letters.append(handle)
            handle._report = self.engine.last_report
            handle._future.set_exception(error)
            return

    # -- mapping -----------------------------------------------------------

    def default_chunk(self, total: int) -> int:
        """One chunk covering all items.

        Chunk jobs run *sequentially* on the FIFO dispatcher, and the
        compute backend already shards each job's batch axis across
        its workers — splitting a map into W chunks would just re-shard
        each W ways (W² tiny pool round-trips).  Smaller chunks only
        pay off for streaming partial results through
        :func:`as_completed`; pass ``chunk=`` explicitly for that.
        """
        return max(1, total)

    def submit_map(
        self,
        op: Union[str, Callable[[list], Job]],
        items: Sequence,
        chunk: Optional[int] = None,
        **op_kwargs,
    ) -> List[JobHandle]:
        """Split ``items`` into chunk jobs; return one handle per chunk.

        ``op`` is an op name of :data:`repro.engine.ops.OPS` — each
        chunk becomes one op through that class's ``batch``
        constructor, and extra kwargs such as ``n=``, ``inverse=`` or
        ``x0=`` are forwarded to it — or any callable taking a chunk
        (list of items) and returning a job.  Chunks preserve item
        order; ``chunk=None`` uses :meth:`default_chunk`.
        """
        if isinstance(op, str):
            try:
                factory = OPS[op].batch
            except KeyError:
                raise ValueError(
                    f"unknown map op {op!r}; expected one of "
                    f"{sorted(OPS)} or a callable"
                ) from None
        else:
            factory = op
        items = list(items)
        if chunk is None:
            chunk = self.default_chunk(len(items))
        if chunk < 1:
            raise ValueError("chunk must be a positive integer")
        return [
            self.submit(factory(items[start : start + chunk], **op_kwargs))
            for start in range(0, len(items), chunk)
        ]

    def map(
        self,
        op: Union[str, Callable[[list], Job]],
        items: Sequence,
        chunk: Optional[int] = None,
        **op_kwargs,
    ) -> Union[list, np.ndarray]:
        """Run ``op`` over ``items`` in chunk jobs; ordered results.

        Blocks until every chunk completes and flattens the per-chunk
        results back to one per-item sequence (rows are re-stacked for
        array-valued ops), in the original item order.
        """
        handles = self.submit_map(op, items, chunk, **op_kwargs)
        results = [handle.result() for handle in handles]
        if not results:
            return []
        if isinstance(results[0], np.ndarray):
            return np.concatenate(results, axis=0)
        flattened: list = []
        for result in results:
            flattened.extend(result)
        return flattened


__all__ = [
    "JobScheduler",
    "JobHandle",
    "Job",
    "MultiplyJob",
    "RingTransformJob",
    "ConvolveJob",
    "DGHVMultJob",
    "RLWEMultiplyPlainJob",
    "RLWEMultiplyJob",
    "as_completed",
]
