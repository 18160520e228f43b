"""The database commitment (paper workflow phase 2, Table 3).

Every table column is committed with the IPA/Pedersen scheme over the
same generator basis the query circuits use; a Merkle tree over the
column commitments yields a single digest the prover publishes
irrevocably (e.g. on a blockchain) and an auditor can validate against
the raw database.

Binding queries to the commitment: a query circuit loads a table column
into an advice column and commits it with fresh blinding.  Because both
commitments use the same basis ``G``, they differ only in the blinding
component, and the prover reveals ``delta = advice_blind - column_blind``
so the verifier checks ``C_advice == C_column + delta * W`` -- a
perfectly hiding, computationally binding link from the proof back to
the committed database (see :mod:`repro.system.prover_node`).

To keep that link exact, the commitment bakes in the same ``ZK_ROWS``
random tail rows the proving system reserves for blinding; the prover
replays them in every scan.  (Re-randomizing tails per proof would need
a commitment-shift argument; see DESIGN.md limitations.)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro import telemetry
from repro.algebra.field import Field, SCALAR_FIELD
from repro.commit.ipa import commit_lagrange_many
from repro.commit.params import PublicParams
from repro.db.database import Database
from repro.db.encoding import column_bound
from repro.db.types import SqlType
from repro.ecc.curve import Point
from repro.errors import ContractError
from repro.plonkish.assignment import ZK_ROWS
from repro.wire import ByteReader, WireFormatError, point_wire_size

#: Wire-format header for a published database commitment.
COMMITMENT_WIRE_MAGIC = b"PDBC"


@dataclass
class ColumnSecret:
    """Prover-private randomness behind one column commitment."""

    blind: int
    tail: list[int] = field(repr=False)


@dataclass
class DatabaseCommitment:
    """The public commitment: per-column points plus the Merkle root."""

    k: int
    column_commitments: dict[tuple[str, str], Point]
    root: bytes

    def commitment_for(self, table: str, column: str) -> Point:
        return self.column_commitments[(table, column)]

    def to_bytes(self) -> bytes:
        """Canonical wire serialization of the published commitment
        (format ``PDBC``): the circuit size ``k``, every column
        commitment in sorted key order, then the Merkle root."""
        out = [
            COMMITMENT_WIRE_MAGIC,
            self.k.to_bytes(4, "little"),
            len(self.column_commitments).to_bytes(4, "little"),
        ]
        for (table, column), pt in sorted(self.column_commitments.items()):
            for name in (table, column):
                encoded = name.encode()
                out.append(len(encoded).to_bytes(2, "little"))
                out.append(encoded)
            out.append(pt.to_bytes())
        out.append(self.root)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, curve, data: bytes) -> "DatabaseCommitment":
        """Strict inverse of :meth:`to_bytes`.

        Rejects malformed points, non-sorted or duplicate column keys,
        trailing bytes, and -- crucially -- a root that does not match
        the recomputed Merkle tree over the parsed commitments, so a
        relayed commitment cannot smuggle in unrooted columns.
        """
        point_size = point_wire_size(curve)
        reader = ByteReader(data)
        reader.expect(COMMITMENT_WIRE_MAGIC, "commitment header")
        k = reader.u32("commitment k")
        n_columns = reader.count(
            "column commitments",
            element_size=4 + point_size,
            max_count=reader.remaining // (4 + point_size) + 1,
        )
        commitments: dict[tuple[str, str], Point] = {}
        previous: tuple[str, str] | None = None
        for _ in range(n_columns):
            names = []
            for what in ("table name", "column name"):
                length = int.from_bytes(reader.take(2, what), "little")
                try:
                    names.append(reader.take(length, what).decode())
                except UnicodeDecodeError:
                    raise WireFormatError(f"invalid utf-8 in {what}") from None
            key = (names[0], names[1])
            if previous is not None and key <= previous:
                raise WireFormatError("column keys not strictly ascending")
            previous = key
            commitments[key] = reader.point(curve, f"column {key}")
        root = reader.take(32, "merkle root")
        reader.finish()
        leaves = [
            key[0].encode() + b"." + key[1].encode() + b":" + pt.to_bytes()
            for key, pt in sorted(commitments.items())
        ]
        if _merkle_root(leaves) != root:
            raise WireFormatError("merkle root does not match commitments")
        return cls(k=k, column_commitments=commitments, root=root)


@dataclass
class CommitmentSecrets:
    """Everything the prover must retain to link proofs to the
    commitment (never shared with verifiers)."""

    k: int
    columns: dict[tuple[str, str], ColumnSecret]


def _merkle_root(leaves: list[bytes]) -> bytes:
    """A plain binary Merkle tree (duplicate last node on odd levels)."""
    if not leaves:
        return hashlib.blake2b(b"empty", digest_size=32).digest()
    level = [
        hashlib.blake2b(b"leaf:" + leaf, digest_size=32).digest()
        for leaf in leaves
    ]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            hashlib.blake2b(
                b"node:" + level[i] + level[i + 1], digest_size=32
            ).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


def padded_column(
    values: list[int], k: int, tail: list[int]
) -> list[int]:
    """The exact vector that gets committed: data, zero padding up to
    the usable region, then the ZK tail rows."""
    n = 1 << k
    usable = n - ZK_ROWS
    if len(values) > usable:
        raise ValueError(
            f"column of {len(values)} rows exceeds usable rows {usable} "
            f"at k={k}"
        )
    if len(tail) != ZK_ROWS:
        raise ValueError(f"tail must have {ZK_ROWS} entries")
    return list(values) + [0] * (usable - len(values)) + list(tail)


def _commit_all_columns(
    db: Database,
    fit: PublicParams,
    k: int,
    secrets: dict[tuple[str, str], ColumnSecret],
) -> dict[tuple[str, str], Point]:
    """Commit every column using the per-column randomness in
    ``secrets``, in one :func:`commit_lagrange_many` batch.

    Each padded column is committed as the values, over the size-``2^k``
    evaluation domain, of a polynomial -- exactly how the proving system
    commits the advice column a scan loads it into, so a scan links to
    this commitment through the blinding delta alone.
    """
    keys: list[tuple[str, str]] = []
    jobs: list[tuple[list[int], int]] = []
    for table_name in sorted(db.tables):
        table = db.tables[table_name]
        for column_name in table.schema.column_names():
            secret = secrets[(table_name, column_name)]
            vector = padded_column(table.column(column_name), k, secret.tail)
            keys.append((table_name, column_name))
            jobs.append((vector, secret.blind))

    with telemetry.span("db.commit_columns", columns=len(jobs), k=k):
        points = commit_lagrange_many(fit, jobs)
    return dict(zip(keys, points))


def check_contract(db: Database, value_bits: int) -> None:
    """Raise :class:`~repro.errors.ContractError` at the first cell
    outside its column's :func:`~repro.db.encoding.column_bound` (a
    string code must also be a code: at least 1).  The one range check
    of all raw values (the paper's Design C): query circuits size their
    decompositions on these bounds instead of re-proving them."""
    for table_name in sorted(db.tables):
        table = db.tables[table_name]
        for column in table.schema.columns:
            dictionary = db.encoder.dictionary(f"{table_name}.{column.name}")
            lo = 1 if column.type.base is SqlType.STRING else 0
            hi = column_bound(column, dictionary, value_bits)
            for row, value in enumerate(table.column(column.name)):
                if not lo <= value <= hi:
                    raise ContractError(table_name, column.name, row, value, hi)


def commit_database(
    db: Database,
    params: PublicParams,
    k: int,
    field_: Field = SCALAR_FIELD,
    value_bits: int = 64,
) -> tuple[DatabaseCommitment, CommitmentSecrets]:
    """Commit every column of every table.

    ``k`` must be the circuit size queries will run at (the link checks
    require a shared basis) and large enough for the biggest table;
    ``value_bits`` is the width the queries will be compiled at
    (:func:`check_contract` runs first, so nothing is committed that a
    circuit would mis-size).
    """
    if (1 << k) > params.n:
        raise ValueError("k exceeds the public parameters' capacity")
    check_contract(db, value_bits)
    fit = params.truncated(k) if params.k > k else params
    secrets: dict[tuple[str, str], ColumnSecret] = {}
    for table_name in sorted(db.tables):
        table = db.tables[table_name]
        for column_name in table.schema.column_names():
            tail = [field_.rand() for _ in range(ZK_ROWS)]
            blind = field_.rand()
            secrets[(table_name, column_name)] = ColumnSecret(blind, tail)
    commitments = _commit_all_columns(db, fit, k, secrets)
    leaves = [
        key[0].encode() + b"." + key[1].encode() + b":" + pt.to_bytes()
        for key, pt in sorted(commitments.items())
    ]
    return (
        DatabaseCommitment(k=k, column_commitments=commitments, root=_merkle_root(leaves)),
        CommitmentSecrets(k=k, columns=secrets),
    )


def audit_commitment(
    db: Database,
    commitment: DatabaseCommitment,
    secrets: CommitmentSecrets,
    params: PublicParams,
    value_bits: int = 64,
) -> bool:
    """The auditor's check (trust model, paper section 3.3): given raw
    data and the prover's randomness, the data keeps the commitment
    contract at the published ``value_bits`` (:func:`check_contract`
    raises otherwise, naming the cell), and every recomputed column
    commitment and the root compare equal."""
    check_contract(db, value_bits)
    recomputed, _ = _recommit_with(db, params, commitment.k, secrets)
    if set(recomputed.column_commitments) != set(commitment.column_commitments):
        return False
    for key, pt in recomputed.column_commitments.items():
        if commitment.column_commitments[key] != pt:
            return False
    return recomputed.root == commitment.root


def _recommit_with(
    db: Database,
    params: PublicParams,
    k: int,
    secrets: CommitmentSecrets,
) -> tuple[DatabaseCommitment, CommitmentSecrets]:
    fit = params.truncated(k) if params.k > k else params
    commitments = _commit_all_columns(db, fit, k, secrets.columns)
    leaves = [
        key[0].encode() + b"." + key[1].encode() + b":" + pt.to_bytes()
        for key, pt in sorted(commitments.items())
    ]
    return (
        DatabaseCommitment(k=k, column_commitments=commitments, root=_merkle_root(leaves)),
        secrets,
    )
