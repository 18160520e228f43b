"""Recursive proof aggregation: fold N query proofs into one claim.

The paper's verification story leans on recursive proof composition
reducing overall proof size and verification overhead.  This module
defines the unit every verification surface works on -- the *claim*
(:class:`AggEntry`: sql, encoded result, scan links, proof bytes) --
and makes a list of them a *transportable artifact*:

- :func:`aggregate` packages N query responses -- across queries and
  sessions, as long as they share one exact ``PublicParams`` set --
  into an :class:`AggProof` bound to the parameter fingerprint;
- :class:`AggProof` has its own strict wire format (``PDBA``, mirroring
  the ``PDB5``/``PDBC`` discipline: length-checked counts, canonical
  scalars, strict UTF-8, no trailing bytes), so an aggregated day of
  traffic can be shipped to a light client or pinned in an audit log;
- :meth:`repro.system.verifier_node.VerifierNode.verify_aggregate`
  decodes it and hands the entries to the same engine as ``verify`` /
  ``batch_verify``: each claim's cheap logarithmic checks replay, all
  of their linear-time MSMs settle in **one** fixed-base finalize, and
  :func:`repro.system.audit.audit_aggregate` attests the whole batch by
  that one check instead of replaying every proof.

Soundness note: the combination weights must be verifier coins, so the
aggregate carries the *claims* (sql, result, scan links, proof bytes),
not a prover-chosen folded state -- a prover who picked the weights
could fabricate a vacuously-true fold.  What the format buys is
transport, binding, and the single-MSM verification; the per-proof
logarithmic work remains, which is exactly the Halo-style cost split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.algebra.field import SCALAR_FIELD
from repro.hashing import blake2b
from repro.wire import ByteReader, SCALAR_BYTES, WireFormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.commit.params import PublicParams

#: Wire-format version header for aggregated proofs.
AGG_MAGIC = b"PDBA"

#: Raw size of the params fingerprint (blake2b-160, matching
#: :meth:`repro.commit.params.PublicParams.fingerprint`).
FINGERPRINT_BYTES = 20

#: Hostile-allocation bounds on the variable-length fields.
MAX_ENTRIES = 1 << 16
MAX_SQL_BYTES = 1 << 16
MAX_RESULT_ROWS = 1 << 20
MAX_RESULT_COLS = 1 << 12
MAX_SCAN_LINKS = 1 << 12
MAX_IDENT_BYTES = 255
MAX_PROOF_BYTES = 1 << 28

#: Smallest possible serialized entry (empty sql, empty result, no
#: links, 4-byte proof magic) -- used to length-check the entry count.
_MIN_ENTRY_BYTES = 4 + 4 + 4 + 4 + 4 + 4


@dataclass
class ScanLinkClaim:
    """One scan-link binding claim: the blinding ``delta`` between the
    proof's advice commitment ``advice_index`` and the database
    commitment of ``table.column``.  The prover reveals one per scanned
    column (``QueryResponse.scan_links``) and an aggregate entry
    carries them verbatim."""

    advice_index: int
    table: str
    column: str
    delta: int


@dataclass
class AggEntry:
    """One query claim: everything a verifier needs to replay the
    proof's cheap checks and contribute its MSM to the fold.  Every
    verification surface checks this -- a lone response, a batch and a
    decoded aggregate differ only in how many there are."""

    sql: str
    result_encoded: list[list[int]]
    scan_links: list[ScanLinkClaim]
    proof_bytes: bytes

    @classmethod
    def from_response(cls, response) -> "AggEntry":
        """The claim a :class:`~repro.system.prover_node.QueryResponse`
        makes; the proof is taken as its wire bytes, never as the
        prover's in-memory object."""
        return cls(
            sql=response.sql,
            result_encoded=[list(row) for row in response.result_encoded],
            scan_links=[replace(link) for link in response.scan_links],
            proof_bytes=response.wire_bytes(),
        )


@dataclass
class AggProof:
    """An aggregated claim over N query proofs sharing one parameter
    set.  ``params_fingerprint`` is the raw 20-byte content hash of the
    exact :class:`~repro.commit.params.PublicParams` every proof was
    created under; a verifier holding different parameters rejects the
    aggregate outright instead of folding into the wrong bases.
    """

    params_fingerprint: bytes
    entries: list[AggEntry] = field(default_factory=list)

    @property
    def proofs(self) -> int:
        return len(self.entries)

    def size_bytes(self) -> int:
        return len(self.to_bytes())

    def digest(self) -> bytes:
        """Content hash of the canonical wire bytes -- what an audit
        log pins for one epoch's aggregated claim."""
        return blake2b(self.to_bytes(), digest_size=20).digest()

    # -- canonical wire format (PDBA) ------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical serialization (format ``PDBA``); layout documented
        in DESIGN.md section 5g.  A claim is encoded as it stands or
        not at all: what :meth:`from_bytes` would refuse (no entries,
        ragged rows, a scalar outside ``[0, p)``, an over-long field)
        raises ``ValueError`` here, so the bytes never say something
        the object did not."""
        if not self.entries:
            raise ValueError("cannot serialize an empty aggregate")
        if len(self.params_fingerprint) != FINGERPRINT_BYTES:
            raise ValueError(
                f"params fingerprint must be {FINGERPRINT_BYTES} bytes"
            )
        p = SCALAR_FIELD.p
        chunks: list[bytes] = [AGG_MAGIC, self.params_fingerprint]

        def put_u32(value: int) -> None:
            if not 0 <= value < 1 << 32:
                raise ValueError(f"{value} does not fit a u32 field")
            chunks.append(value.to_bytes(4, "little"))

        def put_scalar(value: int) -> None:
            if not 0 <= value < p:
                raise ValueError("non-canonical scalar in aggregate entry")
            chunks.append(value.to_bytes(SCALAR_BYTES, "little"))

        def put_blob(raw: bytes, what: str, max_len: int) -> None:
            if len(raw) > max_len:
                raise ValueError(f"{what} exceeds {max_len} bytes")
            put_u32(len(raw))
            chunks.append(raw)

        put_u32(len(self.entries))
        for entry in self.entries:
            put_blob(entry.sql.encode("utf-8"), "sql", MAX_SQL_BYTES)
            rows = entry.result_encoded
            cols = len(rows[0]) if rows else 0
            if any(len(row) != cols for row in rows):
                raise ValueError("result rows are not rectangular")
            put_u32(cols)
            put_u32(len(rows))
            for row in rows:
                for value in row:
                    put_scalar(value)
            put_u32(len(entry.scan_links))
            for link in entry.scan_links:
                put_u32(link.advice_index)
                put_blob(link.table.encode("utf-8"), "table name", MAX_IDENT_BYTES)
                put_blob(link.column.encode("utf-8"), "column name", MAX_IDENT_BYTES)
                put_scalar(link.delta)
            put_blob(entry.proof_bytes, "proof bytes", MAX_PROOF_BYTES)
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AggProof":
        """Strictly decode aggregate wire bytes.

        Enforces the ``PDBA`` header, the fingerprint width, bounded
        length-checked counts, canonical scalars (``< p``), strict
        UTF-8 strings, the inner ``PDB5`` proof magic, at least one
        entry, and no trailing bytes.  The *cryptographic* validity of
        each inner proof is only established by
        ``VerifierNode.verify_aggregate`` (it needs the verifying key);
        this gate guarantees the envelope is canonical.
        """
        from repro.proving.proof import WIRE_MAGIC

        p = SCALAR_FIELD.p
        reader = ByteReader(data)
        reader.expect(AGG_MAGIC, "aggregate header")
        fingerprint = reader.take(FINGERPRINT_BYTES, "params fingerprint")
        n_entries = reader.count(
            "aggregate entries",
            element_size=_MIN_ENTRY_BYTES,
            max_count=MAX_ENTRIES,
        )
        if n_entries < 1:
            raise WireFormatError("aggregate must fold at least one proof")
        entries: list[AggEntry] = []
        for _ in range(n_entries):
            sql = reader.string("sql", max_len=MAX_SQL_BYTES)
            n_cols = reader.u32("result columns")
            if n_cols > MAX_RESULT_COLS:
                raise WireFormatError(
                    f"result columns {n_cols} exceeds bound {MAX_RESULT_COLS}"
                )
            n_rows = reader.count(
                "result rows",
                element_size=n_cols * SCALAR_BYTES,
                max_count=MAX_RESULT_ROWS,
            )
            if n_cols == 0 and n_rows != 0:
                raise WireFormatError("zero-column result with rows")
            rows = [
                [reader.scalar(p, "result value") for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            n_links = reader.count(
                "scan links",
                element_size=4 + 4 + 4 + SCALAR_BYTES,
                max_count=MAX_SCAN_LINKS,
            )
            links = [
                ScanLinkClaim(
                    advice_index=reader.u32("scan link advice index"),
                    table=reader.string("table name", max_len=MAX_IDENT_BYTES),
                    column=reader.string("column name", max_len=MAX_IDENT_BYTES),
                    delta=reader.scalar(p, "scan link delta"),
                )
                for _ in range(n_links)
            ]
            proof_bytes = reader.blob("proof bytes", max_len=MAX_PROOF_BYTES)
            if not proof_bytes.startswith(WIRE_MAGIC):
                raise WireFormatError("aggregate entry lacks proof header")
            entries.append(
                AggEntry(
                    sql=sql,
                    result_encoded=rows,
                    scan_links=links,
                    proof_bytes=proof_bytes,
                )
            )
        reader.finish()
        return cls(params_fingerprint=bytes(fingerprint), entries=entries)


def aggregate(
    responses: Sequence, params: "PublicParams"
) -> AggProof:
    """Fold N query responses into one transportable aggregated claim.

    ``responses`` are :class:`~repro.system.prover_node.QueryResponse`
    objects; ``params`` is the exact public parameter set every proof
    was created under -- the aggregate is bound to its content
    fingerprint, and ``VerifierNode.verify_aggregate`` rejects the
    claim under any other parameters (same size included).

    The entries keep each proof's wire bytes verbatim: the random fold
    weights must be the *verifier's* coins, so the fold itself happens
    at verification time, where the N linear-time MSMs collapse into
    one accumulator finalize.
    """
    if not responses:
        raise ValueError("cannot aggregate zero proofs")
    return AggProof(
        params_fingerprint=bytes.fromhex(params.fingerprint()),
        entries=[AggEntry.from_response(response) for response in responses],
    )


__all__ = [
    "AGG_MAGIC",
    "FINGERPRINT_BYTES",
    "AggEntry",
    "AggProof",
    "ScanLinkClaim",
    "aggregate",
]
