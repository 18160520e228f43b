"""The consolidated configuration objects.

Before :class:`ProverConfig` existed, the same knobs -- circuit ``k``,
limb/value/key bit widths, and more recently cache directories -- were
loose keyword arguments scattered across
``ProverNode.__init__``, keygen call sites, and every benchmark.
:class:`ProverConfig` is the one validated home for all of them, and
since the legacy loose-kwarg shims were retired it is the *only*
construction path for a prover.

:class:`ServiceConfig` plays the same role for the async proving
service (:mod:`repro.service`): worker-pool sizing, queue depth, and
the load-shedding policy.

Validation failures raise :class:`repro.errors.ConfigError` (a
``ValueError`` subclass, so historical ``except ValueError`` handlers
keep working) -- wrong types included: an integer field takes an
``int`` and a duration an ``int`` or ``float``, never a ``bool``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field, replace
from typing import Any

from repro.algebra.field import Field, SCALAR_FIELD
from repro.ecc.curve import Curve, PALLAS
from repro.errors import ConfigError


def _is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """An ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProverConfig:
    """Everything a proving session needs beyond the data itself.

    Attributes
    ----------
    k:
        log2 of the circuit row count (and the database-commitment
        basis size).  Public parameters must support at least ``2^k``.
    limb_bits / value_bits / key_bits:
        The encoding geometry: range-check limb width, encoded value
        width, and join-key width.  The paper's full-scale design is
        ``8 / 64 / 48``; tests and benchmarks shrink all three.
    workers:
        0 or 1, both meaning serial: a session proves one job at a
        time in its own process.  Kept for callers that pass
        ``workers=0``; to prove jobs in parallel processes, serve the
        session with ``ServiceConfig(workers=N)``.
    cache_dir:
        Artifact-cache directory; ``None`` picks the default
        (``$REPRO_CACHE_DIR`` or ``~/.cache/poneglyphdb``).
    use_cache:
        Master switch for the on-disk artifact cache.
    telemetry:
        Enable the :mod:`repro.telemetry` tracer for the session's
        lifetime.  Proved responses then carry a ``report`` dict with
        per-phase wall times and counters; off (the default) the
        instrumentation is a no-op.
    field_backend:
        Field-arithmetic engine for the session
        (:mod:`repro.algebra.backend`): ``auto`` (the default) picks
        the fastest available, ``python`` / ``numpy`` force one.  All
        engines produce bit-identical proofs; this is purely a
        performance knob.
    field / curve:
        The circuit field and commitment curve (the paper's choices by
        default).
    """

    k: int = 8
    limb_bits: int = 8
    value_bits: int = 64
    key_bits: int = 48
    workers: int = 0
    cache_dir: str | os.PathLike[str] | None = None
    use_cache: bool = True
    telemetry: bool = False
    field_backend: str = "auto"
    field: Field = dc_field(default=SCALAR_FIELD, repr=False)
    curve: Curve = dc_field(default=PALLAS, repr=False)

    def __post_init__(self) -> None:
        if not _is_int(self.k) or not (
            2 <= self.k <= self.field.two_adicity
        ):
            raise ConfigError(
                f"k must be an integer in [2, {self.field.two_adicity}], "
                f"got {self.k!r}"
            )
        for name in ("limb_bits", "value_bits", "key_bits"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.value_bits < self.limb_bits:
            raise ConfigError(
                f"value_bits ({self.value_bits}) must be at least "
                f"limb_bits ({self.limb_bits})"
            )
        if not _is_int(self.workers) or self.workers not in (0, 1):
            raise ConfigError(
                f"workers must be 0 or 1 (a session proves serially; "
                f"ServiceConfig(workers=N) proves jobs in N processes), "
                f"got {self.workers!r}"
            )
        if self.field_backend not in ("auto", "python", "numpy"):
            raise ConfigError(
                "field_backend must be one of 'auto', 'python', 'numpy', "
                f"got {self.field_backend!r}"
            )

    @property
    def n_rows(self) -> int:
        return 1 << self.k

    def with_options(self, **changes: Any) -> "ProverConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing and policy knobs for the async proving service
    (:class:`repro.service.ProvingService`).

    Attributes
    ----------
    workers:
        Long-lived prover workers, and the number of processes that
        prove: worker 0 proves in the service's own process, each
        further worker in a process forked when the service opens (so
        ``workers=1`` forks nothing, and on a host with fewer cores
        than workers the extra ones buy nothing).  The workers share
        the session prover's proving-key memo (one entry per circuit
        and fixed values; a forked worker adds to its own copy), so
        keygen/unpickling is paid once per distinct circuit instead of
        once per job.
    max_queue_depth:
        Hard bound on jobs waiting in the queue.  A ``HIGH``-priority
        submission is shed only at this depth.
    high_priority_reserve:
        Queue slots held back for ``HIGH``-priority jobs: ``NORMAL`` /
        ``LOW`` submissions are shed once the queue reaches
        ``max_queue_depth - high_priority_reserve``, keeping headroom
        for latency-sensitive traffic during overload.
    poll_interval:
        Worker queue-poll period in seconds; bounds shutdown latency.
    shutdown_timeout:
        Seconds :meth:`~repro.service.ProvingService.close` waits for
        in-flight jobs before giving up the join.
    event_log_path:
        When set, every job lifecycle event (submitted / started /
        finished / failed / shed / cancelled) is appended as one JSON
        line to this file as it happens; the most recent events are
        always also buffered in memory (``ProvingService.events()``).
    event_log_capacity:
        How many recent events the in-memory ring retains.
    error_ring_size:
        How many recent job failures ``health()`` reports.
    journal_path:
        When set, every job lifecycle transition is appended to this
        durable write-ahead journal, and opening a service on an
        existing journal replays it: interrupted jobs are re-enqueued
        and re-proved (byte-identical under a pinned ``rng_seed``; see
        :mod:`repro.service.journal` and DESIGN.md section 5i).
    journal_fsync:
        ``fsync`` the journal after every append.  Off by default: a
        plain flush survives process crashes (SIGKILL included); fsync
        additionally survives machine/OS crashes at a large latency
        cost per transition.
    max_retries:
        How many times a job that *dies with its worker* (or fails
        non-deterministically) is re-enqueued before it is failed for
        good.  Deterministic failures -- the typed
        :class:`repro.errors.ReproError` hierarchy, bad SQL -- are
        never retried.  0 (the default) disables retries.
    retry_backoff_seconds:
        Base of the exponential retry backoff: attempt ``n`` waits
        ``base * 2**(n-1)`` seconds (plus jitter, capped by
        ``retry_backoff_max``) before re-enqueueing.
    retry_backoff_max:
        Upper bound on a single retry's backoff delay.
    default_deadline_seconds:
        Deadline applied to jobs submitted without an explicit
        ``deadline_seconds``.  ``None`` (default) = no deadline.
        Deadlines are enforced cooperatively: an expired queued job
        fails at dequeue, and a running job is aborted at its next
        telemetry span boundary (so mid-prove enforcement needs the
        session's telemetry enabled).
    supervisor_interval:
        Period of the supervisor thread that respawns dead workers and
        releases due retries.
    tenant_quotas:
        Per-tenant admission bounds: tenant name -> max jobs that may
        be queued or running at once.  A submission over its tenant's
        quota is rejected with a typed
        :class:`~repro.errors.ServiceOverloaded` carrying the tenant
        and quota, telling that tenant to back off while others keep
        being admitted.
    default_tenant_quota:
        Quota applied to tenants absent from ``tenant_quotas`` (the
        anonymous ``None`` tenant is never quota-limited).  ``None``
        disables the default bound.
    """

    workers: int = 2
    max_queue_depth: int = 64
    high_priority_reserve: int = 8
    poll_interval: float = 0.05
    shutdown_timeout: float = 30.0
    event_log_path: str | os.PathLike[str] | None = None
    event_log_capacity: int = 256
    error_ring_size: int = 32
    journal_path: str | os.PathLike[str] | None = None
    journal_fsync: bool = False
    max_retries: int = 0
    retry_backoff_seconds: float = 0.1
    retry_backoff_max: float = 5.0
    default_deadline_seconds: float | None = None
    supervisor_interval: float = 0.05
    tenant_quotas: Any = None
    default_tenant_quota: int | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.workers) or self.workers < 1:
            raise ConfigError(
                f"service workers must be a positive integer, got "
                f"{self.workers!r}"
            )
        if not _is_int(self.max_queue_depth) or self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be a positive integer, got "
                f"{self.max_queue_depth!r}"
            )
        if (
            not _is_int(self.high_priority_reserve)
            or not 0 <= self.high_priority_reserve < self.max_queue_depth
        ):
            raise ConfigError(
                f"high_priority_reserve must be in [0, max_queue_depth), got "
                f"{self.high_priority_reserve!r}"
            )
        for name in ("event_log_capacity", "error_ring_size"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if not _is_int(self.max_retries) or self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries!r}"
            )
        for name in (
            "poll_interval", "shutdown_timeout", "retry_backoff_seconds",
            "retry_backoff_max", "supervisor_interval",
        ):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise ConfigError(
                    f"{name} must be a positive number, got {value!r}"
                )
        if self.default_deadline_seconds is not None and not (
            _is_real(self.default_deadline_seconds)
            and self.default_deadline_seconds > 0
        ):
            raise ConfigError(
                f"default_deadline_seconds must be positive or None, got "
                f"{self.default_deadline_seconds!r}"
            )
        if self.tenant_quotas is not None:
            try:
                normalized = dict(self.tenant_quotas)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"tenant_quotas must be a mapping of tenant -> quota, "
                    f"got {self.tenant_quotas!r}"
                ) from None
            for tenant, quota in normalized.items():
                if not isinstance(tenant, str) or not tenant:
                    raise ConfigError(
                        f"tenant names must be non-empty strings, got "
                        f"{tenant!r}"
                    )
                if not _is_int(quota) or quota < 1:
                    raise ConfigError(
                        f"quota for tenant {tenant!r} must be a positive "
                        f"integer, got {quota!r}"
                    )
            object.__setattr__(self, "tenant_quotas", normalized)
        if self.default_tenant_quota is not None and (
            not _is_int(self.default_tenant_quota)
            or self.default_tenant_quota < 1
        ):
            raise ConfigError(
                f"default_tenant_quota must be a positive integer or None, "
                f"got {self.default_tenant_quota!r}"
            )

    def quota_for(self, tenant: str | None) -> int | None:
        """The admission quota applying to ``tenant`` (``None`` =
        unbounded; the anonymous tenant is never bounded)."""
        if tenant is None:
            return None
        if self.tenant_quotas and tenant in self.tenant_quotas:
            return self.tenant_quotas[tenant]
        return self.default_tenant_quota

    def with_options(self, **changes: Any) -> "ServiceConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)
