"""The proof container, its schema and its wire format.

A :class:`Proof` holds every prover message of the non-interactive
protocol.  What it is made of is written down once, in
:data:`SECTIONS`: one row per ``Proof`` attribute giving its element
kind, the shape the verifying key pins for it, its transcript label and
the round whose message it belongs to.  Everything that has to agree
on that list walks it instead of re-typing it:

- :meth:`Proof.to_bytes` / :meth:`Proof.from_bytes` (the ``PDB5`` wire
  codec) and :meth:`Proof.size_bytes`;
- :meth:`Proof.has_shape`, the structural check that opens
  ``verify_proof``;
- :meth:`Proof.absorb_round`, the Fiat-Shamir absorption order shared
  by the prover's rounds and the verifier's replay;
- :meth:`Proof.leaves`, from which :mod:`repro.soundness` builds its
  field-level mutations;
- :func:`wire_layout`, the layout block in DESIGN.md section 5c.

The byte serialization defines the "proof size" metric reported in the
paper's Table 4 -- and, more importantly, the *adversarial surface*: a
verifier only ever receives bytes, so :meth:`Proof.from_bytes` is the
strict gate every remote proof passes through.  Decoding enforces (via
:class:`repro.wire.ByteReader`):

- the ``PDB5`` version header;
- element counts that match the verifying key's circuit shape exactly
  and are length-checked against the remaining bytes before any
  allocation (the quotient-chunk count alone is bounded, not pinned);
- canonical scalars (``< p``) and canonical on-curve points;
- ascending, vk-matching evaluation keys (one canonical encoding per
  proof -- re-orderings are rejected);
- one IPA opening, of exactly ``log2 n`` rounds;
- no trailing bytes.

Anything else raises :class:`~repro.wire.WireFormatError`, so
``Proof.from_bytes(vk, Proof.to_bytes(p)) == p`` and every malformed
mutation of honest bytes is rejected before the cryptographic checks
run (exercised exhaustively by :mod:`repro.soundness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterator

from repro.algebra.field import SCALAR_FIELD
from repro.commit.ipa import IpaProof
from repro.ecc.curve import Point
from repro.plonkish.constraint_system import helper_column_count
from repro.wire import ByteReader, SCALAR_BYTES, WireFormatError, point_wire_size

#: Wire-format version header; bump when the layout changes.
WIRE_MAGIC = b"PDB5"

#: The round whose message is the evaluations at ``x``.
EVALUATION_ROUND = 5


@dataclass
class LookupProofPart:
    """Commitments and evaluations for one lookup argument (one per
    table; its helper columns are in the proof's flat
    ``lookup_helper_*`` sections)."""

    #: the multiplicities, fixed before ``beta`` is drawn
    m_commitment: Point
    #: the running sum, sent one round later with the helpers
    phi_commitment: Point | None = None
    # evaluations at the challenge point
    m_x: int = 0
    phi_x: int = 0
    phi_wx: int = 0

    #: (commitment, transcript label, round that absorbs it), wire order.
    POINTS: ClassVar = (
        ("m_commitment", b"lookup-m", 2),
        ("phi_commitment", b"lookup-phi", 3),
    )
    #: (evaluation, commitment it opens, rotation of ``x``) -- the wire
    #: order, the transcript order and the opening order at once.
    EVALS: ClassVar = (
        ("m_x", "m_commitment", 0),
        ("phi_x", "phi_commitment", 0),
        ("phi_wx", "phi_commitment", 1),
    )
    EVAL_LABEL: ClassVar = b"eval-lookup"


@dataclass
class ShuffleProofPart:
    """Commitment and evaluations for one shuffle argument."""

    z_commitment: Point
    z_x: int = 0
    z_wx: int = 0

    POINTS: ClassVar = (("z_commitment", b"shuffle-z", 3),)
    EVALS: ClassVar = (("z_x", "z_commitment", 0), ("z_wx", "z_commitment", 1))
    EVAL_LABEL: ClassVar = b"eval-shuffle"


#: Evaluation keys of one permutation grand product, in opening order:
#: at ``x``, at ``omega * x`` and -- for every chunk but the last, whose
#: end value seeds the next chunk -- at ``omega^usable * x``.
PERMUTATION_Z_KEYS = ("x", "wx", "chain")


def permutation_z_keys(vk) -> list[tuple[str, ...]]:
    chunks = len(vk.permutation_chunks)
    return [PERMUTATION_Z_KEYS[: 3 if j < chunks - 1 else 2] for j in range(chunks)]


# Element kinds; each constant is also the element's wire layout.
POINTS = "points"
SCALARS = "scalars"
KEYED = "(u32 column, i32 rotation, scalar), keys ascending"  # {(col, rot): eval}
NAMED = "scalars, names ascending"  # {name: eval}
CHUNKS = "per chunk: scalars, keys ascending"  # [{key: eval}]
PARTS = "per part: its points, then its scalars"  # [LookupProofPart | ...]
OPENINGS = "IPA proofs"  # [IpaProof]


@dataclass(frozen=True)
class Section:
    """One row of the proof schema."""

    attr: str  # the Proof attribute
    kind: str
    #: ``shape(vk, queries, n_h)`` -- what the verifying key pins: the
    #: element count, the ascending keys (KEYED / NAMED) or every
    #: entry's keys (CHUNKS); ``n_h`` is the number of quotient
    #: commitments the proof itself carries.
    shape: Callable[[Any, Any, int], Any]
    pinned_to: str  # the same, in words (for the layout block)
    label: bytes = b""  # transcript label (PARTS label each field)
    round: int = 0  # round whose message absorbs it
    part: type | None = None  # PARTS: the record class
    bounded: bool = False  # shape is an upper bound (>= 1), not a pin

    def records(self, value) -> list[list[tuple[Any, Any, bool]]]:
        """The elements in wire order, each a list of cells
        ``(container, key, is_point)`` where ``container[key]`` reads
        and writes one point or scalar."""
        if self.kind is PARTS:
            names = [(name, True) for name, *_ in self.part.POINTS]
            names += [(name, False) for name, *_ in self.part.EVALS]
            return [
                [(vars(part), name, is_point) for name, is_point in names]
                for part in value
            ]
        if self.kind is CHUNKS:
            return [[(entry, key, False) for key in sorted(entry)] for entry in value]
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        return [[(value, key, self.kind is POINTS)] for key in keys]

    def fits(self, value, expected) -> bool:
        """Does an in-memory value have the pinned shape?"""
        if self.bounded:
            return 1 <= len(value) <= expected
        if self.kind in (KEYED, NAMED):
            return set(value) == set(expected)
        if self.kind is CHUNKS:
            return [set(entry) for entry in value] == [set(k) for k in expected]
        return len(value) == expected

    def absorb(self, transcript, value, number: int) -> None:
        """Absorb what round ``number`` sends of this section."""
        if self.kind is PARTS:
            for part in value:
                for name, label, sent in self.part.POINTS:
                    if sent == number:
                        transcript.absorb_point(label, getattr(part, name))
                if number == EVALUATION_ROUND:
                    transcript.absorb_scalars(
                        self.part.EVAL_LABEL,
                        [getattr(part, name) for name, *_ in self.part.EVALS],
                    )
        elif self.round != number:
            return
        elif self.kind is POINTS:
            transcript.absorb_points(self.label, value)
        elif self.kind is SCALARS:
            transcript.absorb_scalars(self.label, value)
        else:  # KEYED, NAMED, CHUNKS: one scalar at a time, keys ascending
            for record in self.records(value):
                for container, key, _ in record:
                    transcript.absorb_scalar(self.label, container[key])

    def element_size(self, vk) -> int:
        """The fewest wire bytes one element takes (what bounds a
        hostile count before anything is allocated)."""
        point = point_wire_size(vk.params.curve)
        if self.kind is PARTS:
            return len(self.part.POINTS) * point + len(self.part.EVALS) * SCALAR_BYTES
        return {
            POINTS: point,
            KEYED: 8 + SCALAR_BYTES,
            CHUNKS: 2 * SCALAR_BYTES,
            OPENINGS: 4 + 2 * vk.params.k * point + 2 * SCALAR_BYTES,
        }.get(self.kind, SCALAR_BYTES)

    def read(self, reader: ByteReader, what: str, expected, vk):
        """Decode the elements that follow the count."""
        curve, p = vk.params.curve, SCALAR_FIELD.p
        if self.kind is POINTS:
            return [reader.point(curve, what) for _ in range(expected)]
        if self.kind is SCALARS:
            return [reader.scalar(p, what) for _ in range(expected)]
        if self.kind is NAMED:
            return {name: reader.scalar(p, what) for name in expected}
        if self.kind is CHUNKS:
            return [
                {key: reader.scalar(p, what) for key in sorted(keys)}
                for keys in expected
            ]
        if self.kind is PARTS:
            return [
                self.part(
                    **{n: reader.point(curve, what) for n, *_ in self.part.POINTS},
                    **{n: reader.scalar(p, what) for n, *_ in self.part.EVALS},
                )
                for _ in range(expected)
            ]
        if self.kind is OPENINGS:
            return [
                IpaProof.read_from(reader, curve, vk.params.k) for _ in range(expected)
            ]
        out = {}
        for key in expected:  # KEYED: exactly the circuit's keys, ascending
            if (reader.u32(what), reader.i32(what)) != key:
                raise WireFormatError(f"{what} keys do not match the circuit")
            out[key] = reader.scalar(p, what)
        return out


def _point_set_count(vk, queries, n_h: int) -> int:
    from repro.proving.protocol import opening_point_sets  # imports this module

    return len(opening_point_sets(vk, queries, n_h))


#: The proof schema, in wire order.
SECTIONS = (
    Section("advice_commitments", POINTS,
            lambda vk, queries, n_h: len(vk.cs.advice_columns),
            "advice columns of cs", b"advice", 1),
    Section("lookup_parts", PARTS,
            lambda vk, queries, n_h: len(vk.lookup_arguments),
            "vk.lookup_arguments (one per table)", part=LookupProofPart),
    Section("lookup_helper_commitments", POINTS,
            lambda vk, queries, n_h: helper_column_count(vk.lookup_arguments),
            "helper groups of vk.lookup_arguments", b"lookup-h", 3),
    Section("shuffle_parts", PARTS,
            lambda vk, queries, n_h: len(vk.cs.shuffles),
            "shuffles of cs", part=ShuffleProofPart),
    Section("permutation_z_commitments", POINTS,
            lambda vk, queries, n_h: len(vk.permutation_chunks),
            "vk.permutation_chunks", b"perm-z", 3),
    Section("h_commitments", POINTS,
            lambda vk, queries, n_h: 1 << (vk.extended_k - vk.k),
            "1 <= count <= 2^(extended_k - k)", b"h", 4, bounded=True),
    Section("advice_evals", KEYED,
            lambda vk, queries, n_h: queries.advice,
            "collect_queries(vk).advice", b"eval-advice", EVALUATION_ROUND),
    Section("fixed_evals", KEYED,
            lambda vk, queries, n_h: queries.fixed,
            "collect_queries(vk).fixed", b"eval-fixed", EVALUATION_ROUND),
    Section("sigma_evals", SCALARS,
            lambda vk, queries, n_h: len(vk.sigma_commitments),
            "vk.sigma_commitments", b"eval-sigma", EVALUATION_ROUND),
    Section("system_evals", NAMED,
            lambda vk, queries, n_h: sorted(vk.system_commitments),
            "vk.system_commitments", b"eval-system", EVALUATION_ROUND),
    Section("permutation_z_evals", CHUNKS,
            lambda vk, queries, n_h: permutation_z_keys(vk),
            "vk.permutation_chunks; chain on all but the last",
            b"eval-perm-z", EVALUATION_ROUND),
    Section("lookup_helper_evals", SCALARS,
            lambda vk, queries, n_h: helper_column_count(vk.lookup_arguments),
            "count of lookup_helper_commitments",
            b"eval-lookup-h", EVALUATION_ROUND),
    Section("h_evals", SCALARS,
            lambda vk, queries, n_h: n_h,
            "count of h_commitments", b"eval-h", EVALUATION_ROUND),
    # The opening argument's messages; repro.proving.multiopen absorbs them.
    Section("multiopen_f", POINTS,
            lambda vk, queries, n_h: 1,
            "one: the opening argument's quotient f"),
    Section("multiopen_q_evals", SCALARS,
            _point_set_count,
            "opening_point_sets(vk): q_i(x3) per set"),
    Section("openings", OPENINGS,
            lambda vk, queries, n_h: 1,
            "one, whatever the rotations"),
)

#: Within a round the transcript takes the sections in wire order,
#: except that the lookup and shuffle arguments follow the permutation
#: argument (round-3 columns and round-5 evaluations alike), a lookup
#: argument's helpers ahead of its part.
TRANSCRIPT_ORDER = tuple(
    {section.attr: section for section in SECTIONS}[attr]
    for attr in (
        "advice_commitments", "permutation_z_commitments", "h_commitments",
        "advice_evals", "fixed_evals", "sigma_evals", "system_evals",
        "permutation_z_evals", "lookup_helper_commitments",
        "lookup_helper_evals", "lookup_parts", "shuffle_parts", "h_evals",
    )
)


def wire_layout() -> str:
    """The ``PDB5`` layout, one line per schema row (DESIGN.md 5c
    carries this text; a tier-1 test keeps the two equal)."""
    rows = [
        f"{section.attr:<26}: u32 count, {section.kind}  # {section.pinned_to}"
        for section in SECTIONS
    ]
    ipa = "IPA proof: u32 rounds (== k), rounds x (L, R), a, blind"
    return "\n".join([f'"{WIRE_MAGIC.decode()}"', *rows, ipa])


@dataclass
class Proof:
    """All prover messages; :data:`SECTIONS` describes each attribute."""

    advice_commitments: list[Point]
    lookup_parts: list[LookupProofPart]
    shuffle_parts: list[ShuffleProofPart]
    permutation_z_commitments: list[Point]
    h_commitments: list[Point]
    lookup_helper_commitments: list[Point] = field(default_factory=list)

    # Evaluations at the x challenge (and rotations thereof).
    advice_evals: dict[tuple[int, int], int] = field(default_factory=dict)
    fixed_evals: dict[tuple[int, int], int] = field(default_factory=dict)
    sigma_evals: list[int] = field(default_factory=list)
    system_evals: dict[str, int] = field(default_factory=dict)
    permutation_z_evals: list[dict[str, int]] = field(default_factory=list)
    lookup_helper_evals: list[int] = field(default_factory=list)
    h_evals: list[int] = field(default_factory=list)

    # The opening argument: [f], the q_i(x3) and the one IPA proof.
    multiopen_f: list[Point] = field(default_factory=list)
    multiopen_q_evals: list[int] = field(default_factory=list)
    openings: list[IpaProof] = field(default_factory=list)

    def leaves(self) -> Iterator[tuple[str, Any, Any, bool]]:
        """Every point and scalar outside the IPA proof, in wire order,
        as ``(label, container, key, is_point)``."""
        for section in SECTIONS[:-1]:  # all but the IPA proof
            records = section.records(getattr(self, section.attr))
            for i, record in enumerate(records):
                for container, key, is_point in record:
                    if section.kind is PARTS:
                        label = f"{section.attr.removesuffix('_parts')}[{i}].{key}"
                    elif section.kind is CHUNKS:
                        label = f"{section.attr}[{i}][{key}]"
                    else:
                        label = f"{section.attr}[{key}]"
                    yield label, container, key, is_point

    def has_shape(self, vk, queries) -> bool:
        """Whether every section has exactly the shape ``vk`` pins."""
        n_h = len(self.h_commitments)
        return all(
            section.fits(
                getattr(self, section.attr), section.shape(vk, queries, n_h)
            )
            for section in SECTIONS
        )

    def absorb_round(self, transcript, number: int) -> None:
        """Absorb the message of round ``number`` (1-5) into the
        transcript: the one absorption order both sides use."""
        for section in TRANSCRIPT_ORDER:
            section.absorb(transcript, getattr(self, section.attr), number)

    def size_bytes(self) -> int:
        """Serialized proof size in bytes: the length of
        :meth:`to_bytes` (points are 64 bytes uncompressed, scalars 32;
        a production encoding would compress points to 32)."""
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Canonical wire serialization (format ``PDB5``).

        Scalars are reduced into the scalar field before encoding, so a
        residue has exactly one byte representation; the strict inverse
        is :meth:`from_bytes`.
        """
        p = SCALAR_FIELD.p

        def scalar(value: int) -> bytes:
            return (value % p).to_bytes(SCALAR_BYTES, "little")

        def u32(value: int) -> bytes:
            return (value % (1 << 32)).to_bytes(4, "little")

        chunks: list[bytes] = [WIRE_MAGIC]
        for section in SECTIONS:
            value = getattr(self, section.attr)
            chunks.append(u32(len(value)))
            if section.kind is OPENINGS:
                chunks += [ipa.to_bytes() for ipa in value]
                continue
            for record in section.records(value):
                for container, key, is_point in record:
                    if section.kind is KEYED:
                        chunks += (u32(key[0]), u32(key[1]))
                    cell = container[key]
                    chunks.append(cell.to_bytes() if is_point else scalar(cell))
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, vk, data: bytes) -> "Proof":
        """Strictly decode proof bytes against a verifying key.

        The vk pins the expected shape (commitment counts, evaluation
        key sets, quotient-chunk bound, IPA round count); any deviation
        raises :class:`~repro.wire.WireFormatError`.  This is the only
        path by which remote bytes become a :class:`Proof`.
        """
        from repro.proving.protocol import collect_queries

        queries = collect_queries(vk)
        reader = ByteReader(data)
        reader.expect(WIRE_MAGIC, "proof header")
        values: dict[str, Any] = {}
        for section in SECTIONS:
            what = section.attr.replace("_", " ")
            expected = section.shape(
                vk, queries, len(values.get("h_commitments", ()))
            )
            high = expected if isinstance(expected, int) else len(expected)
            # The quotient splits into 1 to 2^(extended_k - k) chunks
            # of degree < n; any other count cannot come from an
            # honest prover and would let a cheat inflate its degree.
            low = 1 if section.bounded else high
            count = reader.count(
                what, element_size=section.element_size(vk), max_count=high
            )
            if count < low:
                raise WireFormatError(f"{what} count {count} is below {low}")
            if section.bounded:
                expected = count
            values[section.attr] = section.read(reader, what, expected, vk)
        reader.finish()
        return cls(**values)
