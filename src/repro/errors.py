"""The ``repro`` exception hierarchy.

Everything this package raises on purpose derives from
:class:`ReproError`, so callers embedding the stack can catch one type
at a service boundary.  Each subclass *also* inherits the builtin type
the code historically raised (``ValueError``, ``RuntimeError``,
``KeyError``), so pre-existing ``except`` clauses keep working
unchanged.

This module is dependency-free on purpose: it must be importable from
the lowest layers (:mod:`repro.wire`, :mod:`repro.config`) without
cycles.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every intentional error raised by ``repro``."""


class ConfigError(ReproError, ValueError):
    """A configuration object (:class:`~repro.config.ProverConfig`,
    :class:`~repro.config.ServiceConfig`) rejected its inputs, or a
    component was asked to run outside its configured capacity."""


class BatchInversionError(ReproError, ValueError, ZeroDivisionError):
    """Batch inversion was handed a zero element, which has no inverse.
    ``index`` names the offending position in the input batch.  Also a
    ``ZeroDivisionError`` (the type this code historically raised), so
    pre-existing handlers keep working."""

    def __init__(self, index: int):
        super().__init__(
            f"batch_inv input at index {index} is zero (0 has no inverse)"
        )
        self.index = index


class WitnessError(ReproError, ValueError):
    """The witness of a compiled query cannot be written: at one row a
    gate was handed operands it has no honest assignment for -- a value
    wider than the configured ``value_bits`` / ``key_bits``, a zero
    divisor, a date outside the calendar table.  Names the gate, the
    row and the operand values; raising the width in
    :class:`~repro.config.ProverConfig` is the usual fix."""

    def __init__(self, gate: str, row: int, values: list[int], detail: str):
        super().__init__(gate, row, list(values), detail)  # picklable args
        self.gate, self.row, self.values, self.detail = self.args

    def __str__(self) -> str:
        return (
            f"cannot assign {self.gate} at row {self.row} "
            f"(operands {self.values}): {self.detail}"
        )


class ContractError(ReproError, ValueError):
    """A database cell breaks the commitment contract
    (:func:`repro.db.encoding.column_bound`): an INT / DECIMAL wider
    than ``value_bits``, a string code outside its column's dictionary,
    a date past the calendar.  Circuits are sized on the contract, so
    such a database is refused before anything is committed.  Names the
    table, the column and the row."""

    def __init__(self, table: str, column: str, row: int, value: int, bound: int):
        super().__init__(table, column, row, value, bound)  # picklable args
        self.table, self.column, self.row, self.value, self.bound = self.args

    def __str__(self) -> str:
        return (
            f"{self.table}.{self.column} row {self.row}: encoded value "
            f"{self.value} is outside the commitment contract [0, {self.bound}]"
        )


class StateError(ReproError, RuntimeError):
    """An operation was invoked out of lifecycle order -- verifying
    before committing, fetching a result before the job finished."""


class WireFormatError(ReproError, ValueError):
    """Serialized proof material is malformed: bad magic, inconsistent
    counts, non-canonical scalars, off-curve points, or trailing
    bytes.  (Re-exported by :mod:`repro.wire`, where the decoding rules
    live.)"""


class VerificationFailure(ReproError, RuntimeError):
    """Raised by the ``require()``-style helpers when a proof that was
    expected to verify did not.  Carries the rejecting report."""

    def __init__(self, message: str, report: object | None = None):
        super().__init__(message)
        self.report = report


class ServiceError(ReproError, RuntimeError):
    """Base class for :mod:`repro.service` failures."""


class ServiceOverloaded(ServiceError):
    """The proving service shed the submission: the job queue is at its
    configured depth for the job's priority lane, or the submitting
    tenant is at its admission quota.  Carries the depth observed at
    rejection time (and, for quota rejections, the ``tenant`` and its
    ``quota``) so clients can back off intelligently."""

    def __init__(
        self,
        message: str,
        queue_depth: int = 0,
        tenant: str | None = None,
        quota: int | None = None,
    ):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.tenant = tenant
        self.quota = quota


class ServiceClosed(ServiceError):
    """The proving service is shut down and no longer accepts jobs."""


class JobNotFound(ServiceError, KeyError):
    """No job with the given id exists in this service."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep prose
        return self.args[0] if self.args else ""


class JobFailed(ServiceError):
    """The job ran and its prover raised; ``error`` is the worker-side
    failure description."""

    def __init__(self, job_id: str, error: str):
        super().__init__(f"job {job_id} failed: {error}")
        self.job_id = job_id
        self.error = error


class JobTimeout(ServiceError, TimeoutError):
    """``ProvingService.wait()`` gave up before the job finished.  The
    job itself keeps running; poll or ``wait`` again.  Also a
    ``TimeoutError`` (the type this code historically raised), so
    pre-existing ``except TimeoutError`` handlers keep working."""

    def __init__(self, job_id: str, message: str):
        super().__init__(message)
        self.job_id = job_id


class DeadlineExceeded(ServiceError, TimeoutError):
    """The job blew through its ``deadline_seconds`` budget and was
    failed (cooperatively aborted mid-prove, or shed at dequeue when it
    expired while queued).  Deterministic with respect to the deadline:
    never retried."""


class JournalError(ServiceError):
    """Base class for durable job-journal failures
    (:mod:`repro.service.journal`)."""


class JournalCorrupt(JournalError):
    """The journal contains a damaged record *before* its final frame.
    A torn final record (the normal signature of a crash mid-append) is
    tolerated silently; anything earlier means the file was tampered
    with or the storage layer lost bytes, and replaying it could
    resurrect the wrong job set."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class RecoveryMismatch(ServiceError):
    """A replayed job completed with proof bytes that do not match the
    result digest the journal recorded before the crash.  With a pinned
    ``rng_seed`` proofs are byte-deterministic, so a mismatch means the
    database, parameters, or prover changed under the journal."""


__all__ = [
    "ReproError",
    "BatchInversionError",
    "ConfigError",
    "ContractError",
    "StateError",
    "WitnessError",
    "WireFormatError",
    "VerificationFailure",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceClosed",
    "JobNotFound",
    "JobFailed",
    "JobTimeout",
    "DeadlineExceeded",
    "JournalError",
    "JournalCorrupt",
    "RecoveryMismatch",
]
