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
``int``, never a ``bool``.

A setting is a field here only when the benchmark sets it, it picks a
deployment path, it switches safety behaviour, or a test switches the
behaviour it controls.  The service's tuning numbers (poll and
supervisor periods, shutdown timeout, retry backoff, the length of
``health()``'s error list) are constants of
:mod:`repro.service.service`, and each setting has one way to set it:
a job's deadline is ``submit(deadline_seconds=)``, the journal is
``Session.serve(..., journal_path=)``, and a changed copy of a config
is :func:`dataclasses.replace`, which re-runs validation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.algebra.field import SCALAR_FIELD
from repro.errors import ConfigError


def _is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        Only ``"auto"``: the NTT engine is chosen by transform size
        (:mod:`repro.algebra.backend`), never by configuration.  Kept,
        like ``workers``, for callers that pass ``field_backend="auto"``.

    The circuit field is always the Pallas scalar field and the
    commitment curve always Pallas, as in the paper: there is no knob
    for either.
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

    def __post_init__(self) -> None:
        if not _is_int(self.k) or not (
            2 <= self.k <= SCALAR_FIELD.two_adicity
        ):
            raise ConfigError(
                f"k must be an integer in [2, {SCALAR_FIELD.two_adicity}], "
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
        if self.field_backend != "auto":
            raise ConfigError(
                "field_backend must be 'auto' (the NTT engine is chosen "
                f"by transform size), got {self.field_backend!r}"
            )

    @property
    def n_rows(self) -> int:
        return 1 << self.k


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
    journal_fsync:
        ``fsync`` the journal (``Session.serve(..., journal_path=)``)
        after every append.  Off by default: a plain flush survives
        process crashes (SIGKILL included); fsync additionally survives
        machine/OS crashes at a large latency cost per transition.
    max_retries:
        How many times a job that *dies with its worker* (or fails
        non-deterministically) is re-enqueued before it is failed for
        good.  Deterministic failures -- the typed
        :class:`repro.errors.ReproError` hierarchy, bad SQL -- are
        never retried.  0 (the default) disables retries; the backoff
        between attempts is fixed (``repro.service.service``'s
        ``RETRY_BACKOFF_SECONDS`` and ``RETRY_BACKOFF_MAX``).
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
    journal_fsync: bool = False
    max_retries: int = 0
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
        if not _is_int(self.max_retries) or self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries!r}"
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
