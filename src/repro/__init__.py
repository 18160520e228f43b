"""PoneglyphDB reproduction: ZK proofs of SQL query execution.

The top-level names are the full public surface: the session facade,
its configuration, the explicit system roles, the async proving
service, and the typed error hierarchy::

    from repro import PoneglyphDB, ProverConfig

    with PoneglyphDB.open(db, ProverConfig(k=7)) as session:
        response = session.prove("select count(*) from patients")
        assert session.verify(response).accepted

or, serving many clients asynchronously::

    from repro import ServiceConfig

    with session.serve(ServiceConfig(workers=4)) as service:
        job = service.submit("select count(*) from patients")
        response = service.wait(job)

Everything else lives in the subpackages (``repro.sql`` for the query
pipeline, ``repro.proving`` for the proof system internals,
``repro.ecc`` for curve arithmetic and the MSM kernels).
"""

from repro import telemetry
from repro.api import PoneglyphDB, Session
from repro.cache import ArtifactCache, default_cache_dir
from repro.config import ProverConfig, ServiceConfig
from repro.errors import (
    BatchInversionError,
    ConfigError,
    ContractError,
    DeadlineExceeded,
    JobFailed,
    JobNotFound,
    JobTimeout,
    JournalCorrupt,
    JournalError,
    RecoveryMismatch,
    ReproError,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    StateError,
    VerificationFailure,
    WireFormatError,
    WitnessError,
)
from repro.proving.aggregate import AggProof, aggregate
from repro.system import (
    AggReport,
    BatchReport,
    ProverNode,
    QueryResponse,
    VerificationReport,
    VerifierNode,
)

#: The service's names load it on first access (or on
#: ``Session.serve``), so a process that only proves and verifies never
#: imports the scheduler, the journal or ``multiprocessing``.
_SERVICE_NAMES = frozenset(
    {"JobId", "JobState", "JobStatus", "Priority", "ProvingService"}
)


def __getattr__(name: str):
    if name in _SERVICE_NAMES:
        import repro.service

        return getattr(repro.service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    # Session facade
    "PoneglyphDB",
    "Session",
    "ProverConfig",
    "ServiceConfig",
    "ArtifactCache",
    "default_cache_dir",
    "telemetry",
    # System roles and their artifacts
    "ProverNode",
    "VerifierNode",
    "QueryResponse",
    "VerificationReport",
    "BatchReport",
    # Proof aggregation
    "AggProof",
    "AggReport",
    "aggregate",
    # Async proving service
    "ProvingService",
    "JobId",
    "JobState",
    "JobStatus",
    "Priority",
    # Error hierarchy
    "ReproError",
    "BatchInversionError",
    "ConfigError",
    "ContractError",
    "StateError",
    "WireFormatError",
    "WitnessError",
    "VerificationFailure",
    "ServiceError",
    "ServiceClosed",
    "ServiceOverloaded",
    "JobFailed",
    "JobNotFound",
    "JobTimeout",
    "DeadlineExceeded",
    "JournalError",
    "JournalCorrupt",
    "RecoveryMismatch",
]
