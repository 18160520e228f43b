"""The prover: hosts the database, commits to it, answers queries.

``answer()`` runs the full workflow of paper Figure 2: circuit
construction (phase 2), key generation (phase 3), and proof generation
(phase 4), returning the decoded result together with the proof and the
scan-link deltas that bind the proof to the published database
commitment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro import telemetry
from repro.algebra.field import SCALAR_FIELD
from repro.commit.params import PublicParams
from repro.config import ProverConfig
from repro.errors import ConfigError, StateError
from repro.db.commitment import (
    CommitmentSecrets,
    DatabaseCommitment,
    commit_database,
)
from repro.db.database import Database
from repro.ecc.curve import PALLAS
from repro.plonkish.assignment import Assignment
from repro.proving.aggregate import ScanLinkClaim
from repro.proving.keygen import (
    Columns,
    ProvingKey,
    keygen,
    keygen_fingerprint,
    remember,
)
from repro.proving.proof import Proof
from repro.proving.prover import ProverTiming, create_proof
from repro.sql.compiler import CompiledQuery, QueryCompiler
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.system.metadata import PublicMetadata


@dataclass
class QueryResponse:
    """What the prover sends back: result + proof + binding evidence.

    ``proof_bytes`` is the wire serialization the verifier actually
    consumes -- the in-memory ``proof`` object is prover-side
    convenience (timing, inspection) and is never trusted by
    :class:`~repro.system.verifier_node.VerifierNode`.

    ``report`` is the flat telemetry phase report (phases, counters,
    gauges, ``phase_coverage``) when the session runs with telemetry
    enabled, else ``None``; ``timing`` is always populated.
    """

    sql: str
    result_encoded: list[list[int]]
    result: list[list[Any]]
    column_names: list[str]
    proof: Proof
    scan_links: list[ScanLinkClaim]
    proof_bytes: bytes = b""
    timing: ProverTiming = field(default_factory=ProverTiming)
    circuit_summary: dict[str, int] = field(default_factory=dict)
    report: dict | None = None

    def wire_bytes(self) -> bytes:
        """The serialized proof: what a remote prover would transmit."""
        return self.proof_bytes or self.proof.to_bytes()

    @property
    def proof_size_bytes(self) -> int:
        return len(self.wire_bytes())


def require_pallas(params: PublicParams) -> None:
    """Refuse public parameters on any curve but Pallas: the circuit
    field is Pallas's scalar field, so commitments on another curve
    could only yield proofs the verifier rejects."""
    if params.curve is not PALLAS:
        raise ConfigError(
            f"public parameters must be on Pallas, got "
            f"{params.curve.name}: the circuit field is Pallas's "
            "scalar field"
        )


class ProverNode:
    """The database owner / prover P.

    Construct with ``ProverNode(db, params, config=ProverConfig(...))``
    (or, one level up, the :class:`repro.api.PoneglyphDB` facade).

    Proving keys are memoized in memory by keygen fingerprint (circuit
    shape and fixed values), at most
    :data:`~repro.proving.keygen.KEY_MEMO_MAX` of them, so a node pays
    keygen once per circuit instead of once per job; keys never go to
    disk.  A key is never changed after it is built,
    so the memo is shared: every :meth:`worker_clone` holds it by
    reference, and a forked service runner inherits a copy.
    """

    def __init__(
        self,
        db: Database,
        params: PublicParams,
        *,
        config: ProverConfig,
    ):
        require_pallas(params)
        if (1 << config.k) > params.n:
            raise ConfigError("k exceeds public parameter capacity")
        self.config = config
        self.db = db
        self.params = (
            params.truncated(config.k) if params.k > config.k else params
        )
        self.k = config.k
        self.limb_bits = config.limb_bits
        self.value_bits = config.value_bits
        self.key_bits = config.key_bits
        self._keys: dict[str, ProvingKey] = {}
        self.commitment: Optional[DatabaseCommitment] = None
        self._secrets: Optional[CommitmentSecrets] = None
        self._planner = Planner(db)

    def worker_clone(self) -> "ProverNode":
        """A prover sharing this node's database, parameters, published
        commitment and key memo, with its own planner.

        The proving service hands one clone to each long-lived worker.
        Everything shared is read-only once built, and the memo only
        gains whole keys, so workers never contend on a proving key.
        """
        clone = ProverNode(self.db, self.params, config=self.config)
        clone.commitment = self.commitment
        clone._secrets = self._secrets
        clone._keys = self._keys
        return clone

    # -- phase 2: commitment -------------------------------------------------

    def publish_commitment(self) -> DatabaseCommitment:
        """Commit to the database (done once; Table 3 measures this)."""
        self.commitment, self._secrets = commit_database(
            self.db, self.params, self.k, self.value_bits
        )
        return self.commitment

    def public_metadata(self) -> PublicMetadata:
        return PublicMetadata.from_database(
            self.db, self.k, self.limb_bits, self.value_bits, self.key_bits
        )

    # -- phases 3-4: answer a query -------------------------------------------

    def answer(self, sql: str) -> QueryResponse:
        """Execute ``sql`` and produce the proof of correct execution.

        The whole pipeline runs under one ``prove`` telemetry root span;
        compile/witness/keygen become direct children alongside the
        ``prove.*`` phase spans :func:`create_proof` emits, so the
        response's phase report accounts for essentially all wall time.
        """
        if self.commitment is None or self._secrets is None:
            raise StateError("publish_commitment() must run first")
        timing = ProverTiming()
        counters_before = telemetry.counters_snapshot()
        root = telemetry.begin_span("prove", sql=sql, k=self.k)
        try:
            phase = telemetry.begin_span("prove.compile")
            query = parse(sql)
            plan = self._planner.plan(query)
            compiled = QueryCompiler(
                self.db, self.k, self.limb_bits, self.value_bits, self.key_bits
            ).compile(plan)
            phase.end()
            timing.extra["compile"] = phase.duration

            phase = telemetry.begin_span("prove.witness")
            asg, result_encoded = self._witness(compiled)
            # Replay the committed blinding tails in the scan columns so
            # the advice commitments differ from the database commitments
            # only in the W component.
            blind_overrides: dict[int, int] = {}
            links: list[ScanLinkClaim] = []
            for link in compiled.scan_links:
                secret = self._secrets.columns[(link.table, link.column)]
                advice_col = compiled.cs.advice_columns[link.advice_index]
                asg.assign_tail(advice_col, secret.tail)
                delta = SCALAR_FIELD.rand()
                blind_overrides[link.advice_index] = (
                    secret.blind + delta
                ) % SCALAR_FIELD.p
                links.append(
                    ScanLinkClaim(
                        link.advice_index, link.table, link.column, delta
                    )
                )
            phase.end()
            timing.extra["witness"] = phase.duration

            phase = telemetry.begin_span("prove.keygen")
            pk = self._obtain_proving_key(compiled, asg.fixed, timing)
            phase.end()
            timing.extra["keygen"] = phase.duration

            proof = create_proof(
                pk, asg, timing=timing, advice_blind_overrides=blind_overrides
            )
        finally:
            root.end()
        timing.total = root.duration

        proof_bytes = proof.to_bytes()
        telemetry.gauge("proof.bytes", len(proof_bytes))
        decoded = self._decode(compiled, result_encoded)
        return QueryResponse(
            sql=sql,
            result_encoded=result_encoded,
            result=decoded,
            column_names=[meta.name for meta in compiled.outputs],
            proof=proof,
            proof_bytes=proof_bytes,
            scan_links=links,
            timing=timing,
            circuit_summary=compiled.cs.summary(),
            report=self._phase_report(root, counters_before),
        )

    def _witness(
        self, compiled: CompiledQuery
    ) -> tuple[Assignment, list[list[int]]]:
        """The assignment of ``compiled`` over this node's database and
        the encoded result rows it claims."""
        asg = Assignment(compiled.cs, self.k)
        return asg, compiled.assign_witness(asg, self.db)

    def _obtain_proving_key(
        self, compiled: CompiledQuery, fixed: Columns, timing: ProverTiming
    ) -> ProvingKey:
        """The proving key for ``compiled`` with ``fixed`` values: the
        in-memory memo's, else a fresh keygen.

        ``timing.extra["keygen_warm_hit"]`` records whether the memo
        served it; ``keygen_cache_hit`` is 0.0 on every fresh keygen,
        which is how a benchmark finds the cold ones.
        """
        fingerprint = keygen_fingerprint(
            self.params, compiled.cs, self.k, fixed
        )
        pk = self._keys.get(fingerprint)
        if pk is not None:
            timing.extra["keygen_warm_hit"] = 1.0
            return pk
        timing.extra["keygen_warm_hit"] = 0.0
        timing.extra["keygen_cache_hit"] = 0.0
        pk = keygen(self.params, compiled.cs, self.k, fixed)
        remember(self._keys, fingerprint, pk)
        return pk

    @staticmethod
    def _phase_report(root, counters_before: dict[str, float]) -> dict | None:
        """The flat telemetry report for one answered query (None when
        telemetry is disabled).  Counters are reported as the delta over
        this query so back-to-back proves stay comparable."""
        if not telemetry.enabled() or not isinstance(root, telemetry.Span):
            return None
        after = telemetry.counters_snapshot()
        delta = {
            name: after[name] - counters_before.get(name, 0)
            for name in sorted(after)
            if after[name] != counters_before.get(name, 0)
        }
        return telemetry.phase_report(
            root, delta, telemetry.gauges_snapshot()
        )

    # -- helpers -----------------------------------------------------------

    def _decode(
        self, compiled: CompiledQuery, rows: list[list[int]]
    ) -> list[list[Any]]:
        from repro.db.types import int_to_date, int_to_decimal

        decoded = []
        for row in rows:
            out = []
            for meta, value in zip(compiled.outputs, row):
                if meta.kind == "decimal":
                    out.append(int_to_decimal(value, meta.scale))
                elif meta.kind == "date":
                    out.append(int_to_date(value))
                elif meta.kind == "string" and meta.source:
                    out.append(
                        self.db.encoder._rev.get(meta.source, {}).get(
                            value, value
                        )
                    )
                else:
                    out.append(value)
            decoded.append(out)
        return decoded
