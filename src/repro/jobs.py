"""``repro.jobs`` — the public home of the futures-style job API.

Thin re-export of :mod:`repro.engine.jobs` so user code reads::

    from repro.jobs import JobScheduler, MultiplyJob, as_completed

See that module for the full documentation.
"""

from repro.engine.jobs import (
    ConvolveJob,
    DGHVMultJob,
    Job,
    JobHandle,
    JobScheduler,
    MultiplyJob,
    RingTransformJob,
    RLWEMultiplyJob,
    RLWEMultiplyPlainJob,
    as_completed,
)
from repro.engine.resilience import (
    NO_RETRY,
    Deadline,
    FaultReport,
    JobTimeoutError,
    RetryPolicy,
    RuntimeFaultError,
    ShardVerificationError,
    WorkerCrashError,
)

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
    "RetryPolicy",
    "NO_RETRY",
    "Deadline",
    "FaultReport",
    "RuntimeFaultError",
    "WorkerCrashError",
    "JobTimeoutError",
    "ShardVerificationError",
]
