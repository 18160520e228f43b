"""The one-stop session facade.

Everything the paper's Figure 2 workflow needs -- parameter setup,
database commitment, query proving, verification, auditing -- behind a
single object::

    from repro import PoneglyphDB, ProverConfig

    with PoneglyphDB.open(db, ProverConfig(k=7)) as session:
        session.commit()
        response = session.prove("select count(*) from patients")
        assert session.verify(response).accepted

The facade owns the cross-cutting plumbing the lower layers expose as
knobs: it obtains public parameters through the artifact cache, applies
the configured telemetry and field backend for the session's lifetime
(restoring the previous settings on close), and keeps the
prover/verifier pair consistent so a proved response verifies against
the same commitment without ferrying metadata by hand.  A session
proves serially, one job at a time; :meth:`Session.serve` proves in
parallel, one forked process per service worker.

The role classes (:class:`~repro.system.prover_node.ProverNode`,
:class:`~repro.system.verifier_node.VerifierNode`, the auditor) remain
the right interface when prover and verifier genuinely run on different
machines; :attr:`Session.prover` and :meth:`Session.verifier` hand them
out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro import telemetry
from repro.algebra import backend as field_backend
from repro.cache import ArtifactCache, resolve_cache
from repro.commit.params import PublicParams, cached_setup, setup
from repro.config import ProverConfig, ServiceConfig
from repro.db.commitment import DatabaseCommitment
from repro.db.database import Database
from repro.errors import StateError
from repro.proving.aggregate import AggProof, aggregate
from repro.system.audit import (
    AggregateAuditCertificate,
    AuditCertificate,
    audit,
    audit_aggregate,
)
from repro.system.prover_node import ProverNode, QueryResponse
from repro.system.verifier_node import (
    AggReport,
    BatchReport,
    VerificationReport,
    VerifierNode,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import ProvingService


class Session:
    """One prover-side proving session over one database.

    Create via :meth:`PoneglyphDB.open`.  The session is a context
    manager; leaving the ``with`` block (or calling :meth:`close`)
    restores the global telemetry and field-backend settings it
    overrode; so does a construction that raises.
    """

    def __init__(
        self,
        db: Database,
        config: ProverConfig,
        params: PublicParams | None = None,
        cache: ArtifactCache | None = None,
    ):
        self.config = config
        self.db = db
        self.cache = (
            cache
            if cache is not None
            else resolve_cache(config.cache_dir, enabled=config.use_cache)
        )
        self._previous_telemetry = (
            telemetry.enable(True) if config.telemetry else telemetry.enabled()
        )
        self._previous_field_backend = field_backend.set_backend(
            config.field_backend
        )
        self._closed = False

        self.params_cache_hit = False
        try:
            if params is None:
                if self.cache.enabled:
                    params, self.params_cache_hit = cached_setup(
                        self.cache, config.k, config.curve
                    )
                else:
                    params = setup(config.k, config.curve)
            self.params = params
            if self.cache.enabled:
                # Let the kernel layer persist its fixed-base MSM tables
                # next to the cached parameters they derive from.
                from repro.ecc import fixed_base

                fixed_base.configure_cache(self.cache)
            self.prover = ProverNode(db, params, config=config, cache=self.cache)
        except BaseException:
            self.close()  # a failed open leaves no global setting changed
            raise
        self._verifier: VerifierNode | None = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Restore the telemetry and field-backend settings the session
        overrode."""
        if not self._closed:
            if self.config.telemetry:
                telemetry.enable(self._previous_telemetry)
            field_backend.set_backend(self._previous_field_backend)
            self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the Figure 2 workflow ------------------------------------------

    @property
    def commitment(self) -> DatabaseCommitment | None:
        return self.prover.commitment

    def commit(self) -> DatabaseCommitment:
        """Publish the database commitment (phase 2; done once)."""
        commitment = self.prover.publish_commitment()
        self._verifier = None  # the old one pins the old commitment
        return commitment

    def prove(self, sql: str) -> QueryResponse:
        """Answer ``sql`` with a result and a proof of correct
        execution (phases 3-4).  Commits first if not yet committed."""
        if self.prover.commitment is None:
            self.commit()
        return self.prover.answer(sql)

    def verifier(self) -> VerifierNode:
        """A verifier holding only public data (params, metadata,
        commitment) -- what an untrusting client would construct."""
        if self.prover.commitment is None:
            raise StateError("commit() before creating a verifier")
        if self._verifier is None:
            self._verifier = VerifierNode(
                self.params,
                self.prover.public_metadata(),
                self.prover.commitment,
                self.config.field,
            )
        return self._verifier

    def verify(self, response: QueryResponse) -> VerificationReport:
        """Check a response the way a client would (phase 5).

        Verification consumes the response's **wire bytes**
        (``response.wire_bytes()``), decoded with the strict
        :meth:`repro.proving.proof.Proof.from_bytes` validator -- the
        in-memory proof object is never trusted."""
        return self.verifier().verify(response)

    def batch_verify(
        self, responses: Sequence[QueryResponse]
    ) -> BatchReport:
        """Verify many responses with one folded accumulator check.

        Each proof is still checked individually up to the two MSMs of
        its one opening, which are deferred into a shared recursion
        accumulator and settled for the whole batch by one fixed-base
        and one variable-base MSM (DESIGN.md section 5g); :meth:`verify`
        is this with one response."""
        return self.verifier().batch_verify(responses)

    def aggregate(self, responses: Sequence[QueryResponse]) -> AggProof:
        """Fold N proved responses into one transportable aggregated
        claim bound to this session's exact public parameters
        (DESIGN.md section 5g)."""
        return aggregate(responses, self.params)

    def verify_aggregate(self, agg: AggProof | bytes) -> AggReport:
        """Check an aggregated claim (``PDBA`` bytes or a decoded
        :class:`~repro.proving.aggregate.AggProof`): every folded
        entry's cheap checks replay, all the expensive MSMs settle in
        one accumulator finalize (one fixed-base plus one variable-base
        MSM)."""
        return self.verifier().verify_aggregate(agg)

    def audit_aggregate(
        self, agg: AggProof | bytes
    ) -> AggregateAuditCertificate:
        """Attest an epoch's aggregated claim: one accumulator check
        instead of replaying every proof, pinned by content digest."""
        return audit_aggregate(self.verifier(), agg)

    def serve(
        self,
        config: ServiceConfig | None = None,
        *,
        journal_path=None,
        chaos=None,
    ) -> "ProvingService":
        """Start an async proving service over this session.

        Returns a :class:`~repro.service.service.ProvingService` (a
        context manager) whose workers share this session's database,
        parameters, and commitment.  Commits first if needed.
        ``journal_path`` (or ``config.journal_path``) enables the
        durable job journal -- opening an existing journal replays it
        and recovers interrupted jobs; see DESIGN.md section 5i."""
        from repro.service.service import ProvingService

        return ProvingService(
            self, config or ServiceConfig(),
            journal_path=journal_path, chaos=chaos,
        )

    def audit(self) -> AuditCertificate:
        """Run the trusted auditor over the published commitment."""
        if self.prover.commitment is None or self.prover._secrets is None:
            raise StateError("commit() before auditing")
        return audit(
            self.db, self.prover.commitment, self.prover._secrets, self.params,
            self.config.value_bits,
        )

    # -- instrumentation -------------------------------------------------

    def cache_summary(self) -> str:
        """Hit/miss counts for the session's artifact cache."""
        return self.cache.stats.summary()


class PoneglyphDB:
    """The entry point: ``PoneglyphDB.open(db, config) -> Session``."""

    @staticmethod
    def open(
        db: Database,
        config: ProverConfig | None = None,
        *,
        params: PublicParams | None = None,
        cache: ArtifactCache | None = None,
    ) -> Session:
        """Open a proving session over ``db``.

        ``config`` defaults to ``ProverConfig()``; pass ``params`` to
        reuse pre-generated public parameters (they must support at
        least ``2^config.k`` rows), and ``cache`` to share one
        :class:`~repro.cache.ArtifactCache` across sessions.
        """
        return Session(db, config or ProverConfig(), params, cache)
