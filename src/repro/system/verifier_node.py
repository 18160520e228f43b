"""The verifier: checks query claims against the database commitment.

One engine serves every surface: ``verify`` (one response),
``batch_verify`` (many) and ``verify_aggregate`` (a ``PDBA`` envelope)
all hand a list of claims -- sql, encoded result, scan links, proof
bytes -- to :meth:`VerifierNode._verify_claims`.  Per claim (paper
Figure 2, phase 5, plus the binding checks):

1. Recompile the query circuit from public metadata only and
   regenerate the verifying key (deterministic keygen -- no trust in
   prover-supplied keys).
2. Check the claim has the circuit's shape: result rows of the query's
   width, canonical scalars, and scan links that are exactly the
   compiled circuit's scanned columns.
3. Decode the proof from its **wire bytes** with strict validation
   (:meth:`repro.proving.proof.Proof.from_bytes`) -- the verifier never
   trusts the prover's in-memory proof object, so this path exercises
   exactly what a remote prover could send.
4. Verify the proof against the claimed result (instance columns),
   its one opening's linear-time MSM deferred into the recursion
   accumulator the whole list shares and one finalize settles.
5. Bind the proof to the committed database: for every scan link the
   proof's advice commitment for a scanned column must equal the
   published database column commitment shifted by ``delta * W``.
   Each link is owed to the same accumulator as a group identity, so
   it costs no multiplication of its own; a rejected claim checks its
   links eagerly, so the reason still names the broken one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import telemetry

from repro.algebra.field import Field, SCALAR_FIELD
from repro.commit.params import PublicParams
from repro.db.commitment import DatabaseCommitment
from repro.errors import VerificationFailure
from repro.plonkish.assignment import Assignment
from repro.proving.aggregate import AggEntry, AggProof
from repro.proving.keygen import keygen_vk, remember
from repro.proving.proof import Proof
from repro.proving.recursion import Accumulator
from repro.proving.verifier import verify_proof
from repro.wire import WireFormatError
from repro.sql.compiler import QueryCompiler
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.system.metadata import PublicMetadata, shell_database
from repro.system.prover_node import QueryResponse

@dataclass
class VerificationReport:
    """The uniform verification outcome shape.

    Every verification surface -- :meth:`VerifierNode.verify`,
    :meth:`repro.api.Session.verify`, and each per-proof entry of a
    :class:`BatchReport` -- returns exactly this: the accept flag, the
    rejection reason, the elapsed wall time, and the wire size checked.
    """

    accepted: bool
    reason: str = ""
    elapsed_seconds: float = 0.0
    proof_size_bytes: int = 0

    def require(self) -> "VerificationReport":
        """Return ``self`` if accepted, else raise
        :class:`~repro.errors.VerificationFailure` with the reason."""
        if not self.accepted:
            raise VerificationFailure(
                f"proof rejected: {self.reason or 'unspecified'}", report=self
            )
        return self


@dataclass
class BatchReport:
    """The outcome of :meth:`VerifierNode.batch_verify`.

    ``reports`` holds one :class:`VerificationReport` per response, in
    submission order; ``accepted`` is True only when every individual
    report accepted *and* the shared accumulator's single folded check
    (one fixed-base plus one variable-base MSM) passed.
    ``deferred_openings`` counts the IPA openings (one per proof,
    whatever its rotations) that one final check settled.
    """

    accepted: bool
    reports: list[VerificationReport] = field(default_factory=list)
    reason: str = ""
    elapsed_seconds: float = 0.0
    finalize_seconds: float = 0.0
    deferred_openings: int = 0

    @property
    def proofs(self) -> int:
        return len(self.reports)

    @property
    def per_proof_seconds(self) -> float:
        return self.elapsed_seconds / len(self.reports) if self.reports else 0.0

    def require(self) -> "BatchReport":
        """Return ``self`` if the whole batch accepted, else raise
        :class:`~repro.errors.VerificationFailure`."""
        if not self.accepted:
            rejected = [
                i for i, rep in enumerate(self.reports) if not rep.accepted
            ]
            raise VerificationFailure(
                f"batch rejected ({self.reason or 'proof(s) rejected'}; "
                f"rejected indices {rejected})",
                report=self,
            )
        return self


@dataclass
class AggReport(BatchReport):
    """The outcome of :meth:`VerifierNode.verify_aggregate`: a
    :class:`BatchReport` over the aggregate's folded entries, plus the
    wire size of the aggregated claim that was checked."""

    aggregate_size_bytes: int = 0


class VerifierNode:
    """A client / verifier V holding only public information."""

    def __init__(
        self,
        params: PublicParams,
        metadata: PublicMetadata,
        commitment: DatabaseCommitment,
        field_: Field = SCALAR_FIELD,
    ):
        self.params = (
            params.truncated(metadata.k) if params.k > metadata.k else params
        )
        self.metadata = metadata
        self.commitment = commitment
        self.field = field_
        self._shell = shell_database(metadata)
        self._planner = Planner(self._shell)
        self._vk_cache: dict[tuple[str, int, str], tuple] = {}

    def rebuild_verifying_key(self, sql: str, result_rows: int):
        """Recompile ``sql`` from public metadata and regenerate the
        verifying key (deterministic :func:`keygen_vk`: commitments
        only, no prover state; no trust in the prover).

        Returns ``(compiled, vk)``.  Raises on malformed queries.

        Rebuilds are memoized per ``(sql, result_rows, params
        fingerprint)``, at most :data:`~repro.proving.keygen.KEY_MEMO_MAX`
        of them: keygen is a pure function of public data, so a verifier
        checking many proofs of the same query shape (the
        batch-verification workload) pays compilation + keygen once.
        The fingerprint is part of the key because keygen commits the
        fixed columns under the *current* parameters -- a verifier
        whose parameters change across sessions must never serve a vk
        compiled for the old generators.
        """
        memo_key = (sql, result_rows, self.params.fingerprint())
        cached = self._vk_cache.get(memo_key)
        if cached is not None:
            telemetry.incr("verify.vk_cache_hits")
            return cached
        query = parse(sql)
        plan = self._planner.plan(query)
        compiled = QueryCompiler(
            self._shell,
            self.metadata.k,
            self.metadata.limb_bits,
            self.metadata.value_bits,
            self.metadata.key_bits,
        ).compile(plan)
        asg = Assignment(compiled.cs, self.field, self.metadata.k)
        compiled.assign_public(asg, result_rows)
        vk = keygen_vk(
            self.params, compiled.cs, self.field, self.metadata.k, asg.fixed
        )
        remember(self._vk_cache, memo_key, (compiled, vk))
        return compiled, vk

    def verify(self, response: QueryResponse) -> VerificationReport:
        """Check one query response: a batch of one."""
        claim = AggEntry.from_response(response)
        return self._verify_claims([claim]).reports[0]

    def batch_verify(
        self, responses: Sequence[QueryResponse]
    ) -> BatchReport:
        """Verify many responses with one folded check for all of them:
        one fixed-base and one variable-base MSM, whatever their number
        (``BatchReport.deferred_openings`` counts what it settled)."""
        return self._verify_claims(
            [AggEntry.from_response(response) for response in responses]
        )

    def verify_aggregate(self, agg: "AggProof | bytes") -> AggReport:
        """Check an aggregated claim: ``PDBA`` wire bytes, or an
        in-memory :class:`~repro.proving.aggregate.AggProof`, which is
        first serialized -- what is verified is always what the strict
        decoder makes of the canonical bytes.

        The aggregate must decode, and must be bound to this verifier's
        exact public parameters (content fingerprint, not just size);
        its entries are then the claims of one batch.
        """
        with telemetry.timed_span("verify_aggregate") as span:
            report = AggReport(accepted=False)
            try:
                data = agg.to_bytes() if isinstance(agg, AggProof) else bytes(agg)
                report.aggregate_size_bytes = len(data)
                decoded = AggProof.from_bytes(data, self.field)
            except WireFormatError as exc:
                report.reason = f"aggregate decode failed: {exc}"
            except ValueError as exc:
                report.reason = f"aggregate not serializable: {exc}"
            else:
                fingerprint = self.params.fingerprint()
                if decoded.params_fingerprint != bytes.fromhex(fingerprint):
                    report.reason = (
                        "aggregate bound to different public parameters "
                        f"(expected fingerprint {fingerprint}, "
                        f"got {decoded.params_fingerprint.hex()})"
                    )
                else:
                    report = AggReport(
                        **vars(self._verify_claims(decoded.entries)),
                        aggregate_size_bytes=len(data),
                    )
            span.set(accepted=report.accepted, proofs=report.proofs)
        report.elapsed_seconds = span.duration
        return report

    def _verify_claims(self, claims: Sequence[AggEntry]) -> BatchReport:
        """The verification engine behind every surface.

        Each claim runs its full cheap pipeline (:meth:`_check_claim`:
        recompilation, strict wire decode, the scan links' shape,
        constraint identity, logarithmic IPA rounds) against one fresh
        recursion :class:`~repro.proving.recursion.Accumulator`, into
        which both MSMs of each proof's one opening and each of its
        scan-link identities are deferred; one finalize then settles
        all of them with one fixed-base and one variable-base MSM -- a
        lone proof's and a batch's alike.

        Soundness: a per-claim report is provisional until that fold
        passes, and no report leaves this method before it has run.
        A failed fold cannot say *which* claim broke, so each
        provisionally-accepted claim is then verified again on its own;
        alone, the fold is the verdict, and its scan links are checked
        eagerly to name a broken one.  The accumulator is fresh per
        call and consumed by its finalize, so stale claims can never
        leak into a later batch.

        A report's ``elapsed_seconds`` is its claim's own checks plus
        an equal share of the fold.
        """
        accumulator = Accumulator(self.params, self.field)
        reports: list[VerificationReport] = []
        owed_links: list[list] = []
        with telemetry.timed_span("verify", proofs=len(claims)) as span:
            for claim in claims:
                with telemetry.timed_span("verify.claim", sql=claim.sql) as own:
                    report, links = self._check_claim(claim, accumulator)
                report.elapsed_seconds = own.duration
                reports.append(report)
                owed_links.append(links)
            deferred = accumulator.deferred_count
            with telemetry.timed_span("verify.finalize") as fold:
                folded = accumulator.finalize()
            for i, claim in enumerate(claims):
                reports[i].elapsed_seconds += fold.duration / len(claims)
                if folded or not reports[i].accepted:
                    continue
                if len(claims) > 1:
                    reports[i] = self._verify_claims([claim]).reports[0]
                else:
                    reports[i].accepted = False
                    reports[i].reason = self._rejection_reason(owed_links[i])
            accepted = folded and all(rep.accepted for rep in reports)
            span.set(accepted=accepted, deferred=deferred)
        if claims:
            telemetry.observe("verify.seconds", span.duration / len(claims))
        if accepted:
            reason = ""
        elif folded:
            reason = "proof(s) rejected"
        else:
            reason = "batch accumulator check failed"
        return BatchReport(
            accepted=accepted,
            reports=reports,
            reason=reason,
            elapsed_seconds=span.duration,
            finalize_seconds=fold.duration,
            deferred_openings=deferred,
        )

    def _check_claim(
        self, claim: AggEntry, accumulator: Accumulator
    ) -> tuple[VerificationReport, list]:
        """Everything about one claim except the deferred group work:
        an accepted report is provisional until ``accumulator``
        finalizes.  Also returns the scan-link equations owed to it,
        ``(link, advice commitment, database commitment)`` each, for
        :meth:`_rejection_reason` should the fold fail."""
        size = len(claim.proof_bytes)
        p = self.field.p
        rows, links = claim.result_encoded, claim.scan_links

        def rejected(reason: str) -> tuple[VerificationReport, list]:
            return VerificationReport(False, reason, proof_size_bytes=size), []

        try:
            with telemetry.span("verify.rebuild_vk"):
                compiled, vk = self.rebuild_verifying_key(claim.sql, len(rows))
        except Exception as exc:  # malformed query == reject
            return rejected(f"recompilation failed: {exc}")

        # The claim itself, before any crypto: the result has the
        # circuit's shape, every scalar is the one canonical
        # representative of its residue (as the ``PDBA`` decoder
        # demands on the wire), and the scan links are exactly the
        # compiled circuit's -- each scanned column bound once, none
        # left out.
        if compiled.limit is not None and len(rows) > compiled.limit:
            return rejected("result exceeds LIMIT")
        if len(rows) > compiled.usable_rows:
            return rejected("result exceeds circuit capacity")
        if any(len(row) != len(compiled.instance_columns) for row in rows):
            return rejected("result row width does not match the query")
        scalars = [v for row in rows for v in row] + [l.delta for l in links]
        if not all(isinstance(v, int) and 0 <= v < p for v in scalars):
            return rejected("non-canonical scalar in result or scan link delta")
        presented = [(l.advice_index, l.table, l.column) for l in links]
        expected = {
            (l.advice_index, l.table, l.column) for l in compiled.scan_links
        }
        if len(presented) != len(expected) or set(presented) != expected:
            return rejected("scan links do not match the query's scanned columns")

        # Decode the proof from wire bytes -- the only trusted source.
        try:
            proof = Proof.from_bytes(vk, claim.proof_bytes)
        except WireFormatError as exc:
            return rejected(f"proof decode failed: {exc}")

        # Scan links: advice commitment == db column commitment + delta*W.
        equations = []
        for link in links:
            db_commit = self.commitment.column_commitments.get(
                (link.table, link.column)
            )
            if db_commit is None:
                return rejected("column not in commitment")
            advice_commit = proof.advice_commitments[link.advice_index]
            equations.append((link, advice_commit, db_commit))

        instance = compiled.instance_vectors(rows)
        with telemetry.span("verify.proof"):
            if not verify_proof(vk, proof, instance, accumulator):
                return rejected(self._rejection_reason(equations))
        # Owed, not multiplied: advice - db - delta*W == identity.
        for link, advice_commit, db_commit in equations:
            accumulator.defer_identity(
                [advice_commit, db_commit, self.params.w],
                [1, p - 1, -link.delta % p],
            )
        return VerificationReport(True, proof_size_bytes=size), equations

    def _rejection_reason(self, equations: list) -> str:
        """Why a claim that passed the cheap checks is rejected: its
        first broken scan link, checked eagerly here (one
        multiplication a link, on the failure path only), else the
        proof itself."""
        for link, advice_commit, db_commit in equations:
            if advice_commit != db_commit + self.params.w * link.delta:
                return (
                    f"scan link broken for {link.table}.{link.column}: the "
                    "proof was not computed over the committed database"
                )
        return "proof rejected"
