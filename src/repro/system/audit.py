"""The auditor role (paper section 3.3).

A regulator trusted by both sides reads the raw database from the
prover, validates its authenticity out of band, and attests that the
published commitment corresponds to it.  Clients compare the attested
commitment (e.g. pinned on a blockchain) with the commitment every
proof links to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import telemetry
from repro.commit.params import PublicParams
from repro.db.commitment import (
    CommitmentSecrets,
    DatabaseCommitment,
    audit_commitment,
)
from repro.db.database import Database
from repro.proving.aggregate import AggProof
from repro.wire import WireFormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.verifier_node import VerifierNode


@dataclass
class AuditCertificate:
    """The auditor's attestation over a commitment root."""

    root: bytes
    valid: bool
    detail: str = ""
    elapsed_seconds: float = 0.0


@dataclass
class AggregateAuditCertificate:
    """The auditor's attestation over one epoch's aggregated claim.

    ``digest`` pins the canonical ``PDBA`` wire bytes (what an audit log
    or blockchain entry stores); ``proofs`` is how many query proofs the
    attested aggregate folds."""

    digest: bytes
    proofs: int
    valid: bool
    detail: str = ""
    elapsed_seconds: float = 0.0


def audit_aggregate(
    verifier: "VerifierNode", agg: "AggProof | bytes"
) -> AggregateAuditCertificate:
    """Attest an aggregated claim by checking **one** accumulator.

    Instead of replaying every query proof independently, the auditor
    round-trips the aggregate through its canonical ``PDBA`` wire bytes
    (the attestation must cover exactly what decodes), runs
    :meth:`~repro.system.verifier_node.VerifierNode.verify_aggregate` --
    all deferred MSMs settle in a single fixed-base finalize -- and pins
    the content digest of those bytes.  Anyone holding the certificate
    can later match an audit-log entry against the digest without
    re-verifying."""
    with telemetry.timed_span("audit_aggregate") as span:
        try:
            data = agg.to_bytes() if isinstance(agg, AggProof) else bytes(agg)
        except ValueError as exc:
            cert = AggregateAuditCertificate(
                b"", 0, False, f"aggregate not serializable: {exc}"
            )
        else:
            report = verifier.verify_aggregate(data)
            cert = AggregateAuditCertificate(
                hashlib.blake2b(data, digest_size=20).digest(),
                report.proofs,
                report.accepted,
                report.reason,
            )
        span.set(valid=cert.valid, proofs=cert.proofs)
    cert.elapsed_seconds = span.duration
    return cert


def audit(
    db: Database,
    commitment: DatabaseCommitment,
    secrets: CommitmentSecrets,
    params: PublicParams,
    value_bits: int = 64,
) -> AuditCertificate:
    """Check the raw database against the commitment contract at the
    published ``value_bits``, recompute every column commitment from it
    and the prover's disclosed randomness; attest the published root.

    The commitment is first round-tripped through its wire encoding
    (:meth:`DatabaseCommitment.to_bytes` / ``from_bytes``): an auditor
    receives the commitment over the wire, so the attestation must cover
    exactly what decodes -- including the Merkle-root consistency check
    baked into ``from_bytes``.  The whole check runs under a timed
    ``audit`` telemetry span that also provides ``elapsed_seconds``."""
    with telemetry.timed_span("audit", k=commitment.k) as span:
        cert = _audit_inner(db, commitment, secrets, params, value_bits)
        span.set(valid=cert.valid)
    cert.elapsed_seconds = span.duration
    return cert


def _audit_inner(
    db: Database,
    commitment: DatabaseCommitment,
    secrets: CommitmentSecrets,
    params: PublicParams,
    value_bits: int,
) -> AuditCertificate:
    try:
        commitment = DatabaseCommitment.from_bytes(
            params.curve, commitment.to_bytes()
        )
    except WireFormatError as exc:
        return AuditCertificate(
            commitment.root, False, f"commitment decode failed: {exc}"
        )
    try:
        fit = params.truncated(commitment.k) if params.k > commitment.k else params
        ok = audit_commitment(db, commitment, secrets, fit, value_bits)
    except (KeyError, ValueError) as exc:
        return AuditCertificate(commitment.root, False, f"audit error: {exc}")
    if not ok:
        return AuditCertificate(
            commitment.root, False, "commitment does not match the database"
        )
    return AuditCertificate(commitment.root, True)
