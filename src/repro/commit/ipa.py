"""The Inner Product Argument polynomial commitment (Halo / BCMS style).

Given a Pedersen commitment ``C = <a, G> + r*W`` to the coefficients of
a polynomial ``p`` -- computed from them (:func:`commit_polynomial`) or,
for a circuit or database column, from its values against the
Lagrange-basis generators (:func:`commit_lagrange`; same ``C``) -- and
a public evaluation point ``x``, the prover
convinces the verifier that ``p(x) = v`` with a proof of ``2 log n``
group elements plus two scalars.  This is the scheme the paper selects
(section 3.2) for its linear prover, logarithmic proofs, and
compatibility with PLONKish circuits.

Protocol sketch (non-interactive via the transcript):

1. Fold the claimed value into the commitment: the statement becomes
   ``C' = <a, G> + r*W + <a, b> * U'`` where ``b = (1, x, .., x^{n-1})``
   and ``U' = xi * U`` for a transcript challenge ``xi``.
2. ``log n`` halving rounds.  Round j publishes ``L_j, R_j`` (cross
   terms with fresh blinding), squeezes ``u_j``, and folds ``a, b``
   and the base ``G`` to half length -- the base only as the vector
   ``s`` of challenge products that expresses the folded base over
   ``G``, so every ``L_j`` / ``R_j`` is a fixed-base MSM.
3. Finally the prover reveals the folded scalar ``a_0`` and the
   accumulated blinding; the verifier recomputes the folded base
   ``G_0 = <s, G>`` and checks one group equation.

Zero-knowledge of the *circuit* witness does not rest on hiding ``a``
here: as in Halo2, advice polynomials carry random blinding rows, so
the revealed folded scalar is statistically independent of the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import telemetry
from repro.algebra.field import Field
from repro.commit.params import PublicParams
from repro.ecc import fixed_base
from repro.ecc.curve import Point
from repro.ecc.msm import msm
from repro.transcript import Transcript
from repro.wire import ByteReader, SCALAR_BYTES, point_wire_size


@dataclass
class IpaProof:
    """A single-point opening proof.

    ``rounds`` holds the (L, R) pair of every halving round; ``a`` is
    the fully folded coefficient and ``blind`` the accumulated blinding
    factor revealed for the final check.
    """

    rounds: list[tuple[Point, Point]]
    a: int
    blind: int

    def to_bytes(self) -> bytes:
        """Canonical serialization: round count, the (L, R) points, then
        the two final scalars reduced into the scalar field."""
        out = [len(self.rounds).to_bytes(4, "little")]
        modulus = 1 << (8 * SCALAR_BYTES)
        for left, right in self.rounds:
            out.append(left.to_bytes())
            out.append(right.to_bytes())
        if self.rounds:
            modulus = self.rounds[0][0].curve.scalar_field.p
        out.append((self.a % modulus).to_bytes(SCALAR_BYTES, "little"))
        out.append((self.blind % modulus).to_bytes(SCALAR_BYTES, "little"))
        return b"".join(out)

    @classmethod
    def read_from(
        cls, reader: ByteReader, curve, expected_rounds: int | None = None
    ) -> "IpaProof":
        """Strictly decode one proof from ``reader`` (see
        :class:`repro.wire.ByteReader` for the rejection rules).

        ``expected_rounds`` pins the round count to ``log2 n`` of the
        public parameters; an unexpected count is rejected before any
        point is parsed.
        """
        from repro.wire import WireFormatError

        point_size = point_wire_size(curve)
        n_rounds = reader.count(
            "ipa rounds",
            element_size=2 * point_size,
            max_count=(
                expected_rounds
                if expected_rounds is not None
                else curve.scalar_field.two_adicity
            ),
        )
        if expected_rounds is not None and n_rounds != expected_rounds:
            raise WireFormatError(
                f"ipa proof has {n_rounds} rounds, expected {expected_rounds}"
            )
        rounds = [
            (
                reader.point(curve, "ipa L"),
                reader.point(curve, "ipa R"),
            )
            for _ in range(n_rounds)
        ]
        p = curve.scalar_field.p
        a = reader.scalar(p, "ipa a")
        blind = reader.scalar(p, "ipa blind")
        return cls(rounds=rounds, a=a, blind=blind)

    @classmethod
    def from_bytes(
        cls, curve, data: bytes, expected_rounds: int | None = None
    ) -> "IpaProof":
        """Strict standalone round-trip inverse of :meth:`to_bytes`
        (rejects trailing bytes)."""
        reader = ByteReader(data)
        proof = cls.read_from(reader, curve, expected_rounds)
        reader.finish()
        return proof


def _padded(params: PublicParams, vector: Sequence[int]) -> list[int]:
    if len(vector) > params.n:
        raise ValueError("polynomial exceeds parameter capacity")
    return list(vector) + [0] * (params.n - len(vector))


def _commit(
    params: PublicParams, vector: Sequence[int], blind: int, kind: str
) -> Point:
    # In both table sets index i < n is the i-th basis element and
    # index n is w, so the padded vector followed by the blind lines up
    # with the default indices.
    tables = fixed_base.tables_for_params(params, kind=kind)
    return fixed_base.fixed_base_msm(tables, _padded(params, vector) + [blind])


def commit_polynomial(
    params: PublicParams, coeffs: Sequence[int], blind: int
) -> Point:
    """Commit to polynomial coefficients (little-endian):
    ``<coeffs, g> + blind * w``.

    For data born as coefficients (the quotient pieces) and as the test
    oracle of :func:`commit_lagrange`; the MSM runs against the
    parameter set's fixed-base tables."""
    return _commit(params, coeffs, blind, fixed_base.MONOMIAL)


def commit_lagrange(
    params: PublicParams, evals: Sequence[int], blind: int
) -> Point:
    """Commit to the polynomial with values ``evals`` over the size-``n``
    evaluation domain (zero on the rows past ``len(evals)``).

    The same group element as ``commit_polynomial(params, ifft(evals),
    blind)``, computed against the Lagrange-basis tables
    (:func:`repro.ecc.fixed_base.lagrange_bases`) so the MSM pays only
    for the bits the column's values have -- every column of a circuit
    and of the database is committed this way."""
    return _commit(params, evals, blind, fixed_base.LAGRANGE)


def commit_polynomials(
    params: PublicParams, items: Sequence[tuple[Sequence[int], int]]
) -> list[Point]:
    """:func:`commit_polynomial` of many ``(coeffs, blind)`` pairs, one
    fixed-base MSM each, under one telemetry span."""
    with telemetry.span("commit.polynomials", count=len(items)):
        return [
            _commit(params, coeffs, blind, fixed_base.MONOMIAL)
            for coeffs, blind in items
        ]


def commit_lagrange_many(
    params: PublicParams, items: Sequence[tuple[Sequence[int], int]]
) -> list[Point]:
    """:func:`commit_lagrange` of many ``(evals, blind)`` pairs, under
    one telemetry span."""
    with telemetry.span("commit.lagrange", count=len(items)):
        return [
            _commit(params, evals, blind, fixed_base.LAGRANGE)
            for evals, blind in items
        ]


def _powers(x: int, n: int, p: int) -> list[int]:
    out = [1] * n
    for i in range(1, n):
        out[i] = out[i - 1] * x % p
    return out


def _extend_products(s: list[int], u: int, u_inv: int, p: int) -> list[int]:
    """One round's step of the challenge-product vector: after rounds
    ``0 .. j-1`` the folded base is ``G'[t] = sum_m s[m] * g[m * size +
    t]`` (``size = n / 2^j``), and round ``j`` splits every block in two,
    weighted ``u_j^-1`` (low) and ``u_j`` (high).  After all ``k``
    rounds ``s[i]`` is the weight of ``g[i]`` in the final base."""
    return [v * w % p for v in s for w in (u_inv, u)]


def _folded_b(
    challenges: Sequence[int], inv_challenges: Sequence[int], x: int, p: int
) -> int:
    """The fully folded ``b = (1, x, .., x^(n-1))``, i.e. ``sum_i s[i] *
    x^i``, in O(k): the sum factors by the bits of ``i``, and round
    ``j``, which splits on bit ``k-1-j``, contributes ``u_j^-1 + u_j *
    x^(2^(k-1-j))``."""
    out = 1
    x_pow = x % p
    for u, u_inv in zip(reversed(challenges), reversed(inv_challenges)):
        out = out * (u_inv + u * x_pow) % p
        x_pow = x_pow * x_pow % p
    return out


def open_polynomial(
    params: PublicParams,
    transcript: Transcript,
    coeffs: Sequence[int],
    blind: int,
    x: int,
    field: Field,
) -> IpaProof:
    """Produce an opening proof for ``p(x)`` against the commitment made
    with ``blind``.

    The caller must already have absorbed the commitment, the point and
    the claimed evaluation into ``transcript`` (the verifier mirrors
    this), so the challenges bind the full statement.
    """
    with telemetry.span("ipa.open", n=params.n):
        return _open_polynomial(params, transcript, coeffs, blind, x, field)


def _open_polynomial(
    params: PublicParams,
    transcript: Transcript,
    coeffs: Sequence[int],
    blind: int,
    x: int,
    field: Field,
) -> IpaProof:
    """The halving rounds, every one against the fixed-base tables.

    Round ``j``'s ``L`` is ``<a_lo, G'_hi> + <a_lo, b_hi> * xi * u +
    l_blind * w`` over the folded base ``G'``.  ``G'`` is never
    materialised: it is ``G'[t] = sum_m s[m] * g[m * size + t]``
    (:func:`_extend_products`), so ``L`` is the same element as an MSM
    over ``params.g`` in which ``g[m * size + half + t]`` carries
    ``a_lo[t] * s[m]`` -- ``n / 2 + 2`` scalars against the parameter
    set's ``MONOMIAL`` tables (``R`` likewise, low halves, ``a_hi``).
    ``L``, ``R``, ``a`` and the blind are the elements the textbook
    fold gives, so every proof byte is too.
    """
    p = field.p
    n = params.n
    a = list(c % p for c in coeffs) + [0] * (n - len(coeffs))
    b = _powers(x % p, n, p)
    s = [1]

    xi = transcript.challenge_scalar(b"ipa-xi")
    tables = fixed_base.tables_for_params(params)
    tail = [params.n + 1, params.n]  # u, w

    def cross_term(offset, half_a, inner, blind):
        half = len(half_a)
        indices = [
            start + t
            for start in range(offset, params.n, 2 * half)
            for t in range(half)
        ]
        scalars = [sm * at % p for sm in s for at in half_a]
        return fixed_base.fixed_base_msm(
            tables, scalars + [inner * xi % p, blind], indices + tail
        )

    r = blind % p
    rounds: list[tuple[Point, Point]] = []
    while n > 1:
        half = n // 2
        a_lo, a_hi = a[:half], a[half:]
        b_lo, b_hi = b[:half], b[half:]

        l_blind = field.rand()
        r_blind = field.rand()
        inner_lo_hi = sum(ai * bi for ai, bi in zip(a_lo, b_hi)) % p
        inner_hi_lo = sum(ai * bi for ai, bi in zip(a_hi, b_lo)) % p
        left = cross_term(half, a_lo, inner_lo_hi, l_blind)
        right = cross_term(0, a_hi, inner_hi_lo, r_blind)
        transcript.absorb_point(b"ipa-L", left)
        transcript.absorb_point(b"ipa-R", right)
        u = transcript.challenge_scalar(b"ipa-u")
        u_inv = field.inv(u)

        a = [(lo * u + hi * u_inv) % p for lo, hi in zip(a_lo, a_hi)]
        b = [(lo * u_inv + hi * u) % p for lo, hi in zip(b_lo, b_hi)]
        s = _extend_products(s, u, u_inv, p)
        r = (r + l_blind * u * u + r_blind * u_inv * u_inv) % p
        rounds.append((left, right))
        n = half

    return IpaProof(rounds=rounds, a=a[0], blind=r)


def reduce_opening(
    params: PublicParams,
    transcript: Transcript,
    commitment: tuple[Sequence[Point], Sequence[int]],
    x: int,
    value: int,
    proof: IpaProof,
    field: Field,
) -> tuple[list[int], int, tuple[list[Point], list[int]]] | None:
    """Run the cheap (logarithmic) part of opening verification.

    ``commitment`` is the opened commitment as the combination
    ``sum_i scalars[i] * bases[i]`` of a ``(bases, scalars)`` pair --
    the caller's combining terms, not a pre-summed point.  Returns
    ``(s, a, (bases, scalars))`` such that the opening is valid iff::

        msm(params.g, [a * s_i]) + msm(bases, scalars) == identity

    The second pair holds the caller's terms beside the opening's own
    points, unevaluated: no group operation runs here.  Both MSMs are
    computed at once by :func:`verify_opening`, or deferred and
    amortized across many proofs by the recursion accumulator
    (:class:`repro.proving.recursion.Accumulator`), which sums every
    proof's terms into one variable-base MSM.

    Returns ``None`` when the proof is structurally invalid.
    """
    p = field.p
    if len(proof.rounds) != params.k:
        return None

    xi = transcript.challenge_scalar(b"ipa-xi")
    challenges: list[int] = []
    for left, right in proof.rounds:
        transcript.absorb_point(b"ipa-L", left)
        transcript.absorb_point(b"ipa-R", right)
        challenges.append(transcript.challenge_scalar(b"ipa-u"))
    inv_challenges = field.batch_inv(challenges)

    s = [1]
    for u, u_inv in zip(challenges, inv_challenges):
        s = _extend_products(s, u, u_inv, p)

    b_final = _folded_b(challenges, inv_challenges, x, p)

    # a * b * xi * u + blind * w - (C + value * xi * u + sum_j u_j^2
    # L_j + u_j^-2 R_j): everything that is not msm(G, a * s).
    bases, scalars = commitment
    lefts = [left for left, _ in proof.rounds]
    rights = [right for _, right in proof.rounds]
    return s, proof.a, (
        [*bases, *lefts, *rights, params.u, params.w],
        [
            *(-c for c in scalars),
            *(-u * u for u in challenges),
            *(-u_inv * u_inv for u_inv in inv_challenges),
            xi * (proof.a * b_final - value),
            proof.blind,
        ],
    )


def verify_opening(
    params: PublicParams,
    transcript: Transcript,
    commitment: Point,
    x: int,
    value: int,
    proof: IpaProof,
    field: Field,
) -> bool:
    """Verify an opening proof.

    The verifier's work is one ``n``-sized fixed-base MSM (the final
    base ``<s, G>``) plus one MSM over ``2 log n + 3`` points -- both
    of which Halo-style recursion amortizes across proofs (see
    :mod:`repro.proving.recursion`).
    """
    reduced = reduce_opening(
        params, transcript, ([commitment], [1]), x, value, proof, field
    )
    if reduced is None:
        return False
    s, a, (bases, scalars) = reduced
    p = field.p
    tables = fixed_base.tables_for_params(params)
    folded = fixed_base.fixed_base_msm(tables, [a * si % p for si in s])
    return (folded + msm(bases, scalars)).is_identity()
