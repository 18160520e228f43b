"""The Inner Product Argument polynomial commitment (Halo / BCMS style),
in evaluation form.

The public-parameter generators ``G`` are the Lagrange basis of the
size-``n`` evaluation domain: a polynomial ``p`` is committed by its
values there, ``C = <(p(1), p(omega), ..), G> + r*W``
(:func:`commit_lagrange`; coefficients pass through one FFT first,
:func:`values_of`).  Given a public evaluation point ``x``, the
prover convinces the verifier that ``p(x) = v`` with a proof of
``2 log n`` group elements plus two scalars.  This is the scheme the
paper selects (section 3.2) for its linear prover, logarithmic proofs,
and compatibility with PLONKish circuits; the evaluation form follows
Feist's note "Inner Product Arguments" (2021).

Protocol sketch (non-interactive via the transcript):

1. Fold the claimed value into the commitment: the statement becomes
   ``C' = <a, G> + r*W + <a, b> * U'`` where ``a`` is the ``n`` values,
   ``b = (L_0(x), .., L_{n-1}(x))`` the Lagrange basis at ``x`` (so
   ``<a, b> = p(x)``) and ``U' = xi * U`` for a transcript challenge
   ``xi``.
2. ``log n`` halving rounds.  Round j publishes ``L_j, R_j`` (cross
   terms with fresh blinding), squeezes ``u_j``, and folds ``a, b``
   and the base ``G`` to half length -- the base only as the vector
   ``s`` of challenge products that expresses the folded base over
   ``G``, so every ``L_j`` / ``R_j`` is a fixed-base MSM.
3. Finally the prover reveals the folded scalar ``a_0`` and the
   accumulated blinding; the verifier recomputes the folded base
   ``G_0 = <s, G>`` and the folded ``b_0 = <s, b>`` and checks one
   group equation.

Every value commitment passes through one function, ``_commit``.  It
pays the fixed-base kernel's unit, a nonzero base-256 digit: 32 for a
full-width value, one per byte below ``2^128``.  A log-derivative
helper or a grand product holds one full-width value on most rows (the
helper of an all-zero input, say), so a column is committed against its
most frequent full-width value ``c``: ``<v - c, G> + r*W + c * G_sum``
with ``G_sum = sum_i G_i``, a base of the parameter set's fixed-base
tables.  It is the same element, so proofs and the verifier do not
change; :func:`_offset` states when ``c`` is worth taking.

Zero-knowledge of the *circuit* witness does not rest on hiding ``a``
here: as in Halo2, advice polynomials carry random blinding rows, so
the revealed folded scalar is statistically independent of the witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro import telemetry
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD
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


def _offset(values: Sequence[int]) -> int:
    """The value a column's ``values`` are committed against: the most
    frequent full-width one ``c`` (at or above ``2^128``), or 0 for none.

    Against ``c`` a row holding ``c`` costs no digit instead of 32 and
    ``c * G_sum`` costs one full-width scalar; other wide values stay
    wide, and every value below ``2^128`` (a zero included) may turn
    wide, 32 digits at most.  So ``c`` is taken only when its repeats
    minus one exceed the narrow values.  The rule prices a wide value at
    32 digits, which is what it costs in expectation, not a bound: a
    GLV half with a zero byte costs less, so near the boundary a shifted
    commit can cost a few digits more than the plain one."""
    p = SCALAR_FIELD.p
    narrow, c, repeats = 0, 0, 0
    for v, m in Counter(v % p for v in values).items():
        if not v >> fixed_base.HALF_BITS:
            narrow += m
        elif m > repeats:
            c, repeats = v, m
    return c if repeats - 1 > narrow else 0


def _commit(params: PublicParams, evals: Sequence[int], blind: int) -> Point:
    # Index i < n of the table set is g[i], index n is w, n + 1 is u
    # and n + 2 is G_sum, so the padded vector, the blind, a zero for u
    # and the offset line up with the default indices.  With c = 0 the
    # kernel skips the two zero scalars.
    tables = fixed_base.tables_for_params(params)
    values = _padded(params, evals)
    c = _offset(values)
    return fixed_base.fixed_base_msm(tables, [*(v - c for v in values), blind, 0, c])


def commit_lagrange(
    params: PublicParams, evals: Sequence[int], blind: int
) -> Point:
    """Commit to the polynomial with values ``evals`` over the size-``n``
    evaluation domain (zero on the rows past ``len(evals)``):
    ``<evals, g> + blind * w``.

    The MSM pays only for the bits the values have -- every column of a
    circuit and of the database is committed this way -- and a column
    that repeats one full-width value pays for it once: it is computed
    as ``<evals - c, g> + blind * w + c * G_sum`` with ``c`` chosen by
    :func:`_offset`, the same group element."""
    return _commit(params, evals, blind)


def commit_lagrange_many(
    params: PublicParams, items: Sequence[tuple[Sequence[int], int]]
) -> list[Point]:
    """:func:`commit_lagrange` of many ``(evals, blind)`` pairs, under
    one telemetry span."""
    with telemetry.span("commit.lagrange", count=len(items)):
        return [_commit(params, evals, blind) for evals, blind in items]


def values_of(
    params: PublicParams, polys: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The values over the size-``n`` domain of polynomials given by
    their coefficients (little-endian, at most ``n`` each): one FFT
    each.  Data born as coefficients -- the quotient pieces and the
    multiopen's ``f`` -- reaches :func:`commit_lagrange` and
    :func:`open_polynomial` only through here."""
    domain = EvaluationDomain(SCALAR_FIELD, params.k)
    return domain.fft_many([_padded(params, c) for c in polys])


def commit_polynomial(
    params: PublicParams, coeffs: Sequence[int], blind: int
) -> Point:
    """:func:`commit_lagrange` of :func:`values_of` ``coeffs``."""
    (values,) = values_of(params, [coeffs])
    return _commit(params, values, blind)


def commit_polynomials(
    params: PublicParams, items: Sequence[tuple[Sequence[int], int]]
) -> list[Point]:
    """:func:`commit_polynomial` of many ``(coeffs, blind)`` pairs, one
    FFT and one fixed-base MSM each, under one telemetry span."""
    with telemetry.span("commit.polynomials", count=len(items)):
        values = values_of(params, [coeffs for coeffs, _ in items])
        return [
            _commit(params, evals, blind)
            for evals, (_, blind) in zip(values, items)
        ]


def _extend_products(s: list[int], u: int, u_inv: int, p: int) -> list[int]:
    """One round's step of the challenge-product vector: after rounds
    ``0 .. j-1`` the folded base is ``G'[t] = sum_m s[m] * g[m * size +
    t]`` (``size = n / 2^j``), and round ``j`` splits every block in two,
    weighted ``u_j^-1`` (low) and ``u_j`` (high).  After all ``k``
    rounds ``s[i]`` is the weight of ``g[i]`` in the final base."""
    return [v * w % p for v in s for w in (u_inv, u)]


def _folded_b(s: Sequence[int], x: int) -> int:
    """The fully folded ``b = (L_0(x), .., L_{n-1}(x))``, i.e. ``sum_i
    s[i] * L_i(x)``: O(n) field work and one batch inversion beside the
    ``s`` vector the verifier builds anyway."""
    n = len(s)
    domain = EvaluationDomain(SCALAR_FIELD, n.bit_length() - 1)
    weights = domain.lagrange_basis_evals(x, n)
    return sum(si * li for si, li in zip(s, weights)) % SCALAR_FIELD.p


def open_polynomial(
    params: PublicParams,
    transcript: Transcript,
    evals: Sequence[int],
    blind: int,
    x: int,
) -> IpaProof:
    """Produce an opening proof for ``p(x)`` against the commitment made
    with ``blind``, where ``evals`` are the values of ``p`` over the
    size-``n`` domain (:func:`commit_lagrange`'s vector).

    The caller must already have absorbed the commitment, the point and
    the claimed evaluation into ``transcript`` (the verifier mirrors
    this), so the challenges bind the full statement.
    """
    with telemetry.span("ipa.open", n=params.n):
        return _open_polynomial(params, transcript, evals, blind, x)


def _open_polynomial(
    params: PublicParams,
    transcript: Transcript,
    evals: Sequence[int],
    blind: int,
    x: int,
) -> IpaProof:
    """The halving rounds, every one against the fixed-base tables.

    Round ``j``'s ``L`` is ``<a_lo, G'_hi> + <a_lo, b_hi> * xi * u +
    l_blind * w`` over the folded base ``G'``.  ``G'`` is never
    materialised: it is ``G'[t] = sum_m s[m] * g[m * size + t]``
    (:func:`_extend_products`), so ``L`` is the same element as an MSM
    over ``params.g`` in which ``g[m * size + half + t]`` carries
    ``a_lo[t] * s[m]`` -- ``n / 2 + 2`` scalars against the parameter
    set's tables (``R`` likewise, low halves, ``a_hi``).  ``L``, ``R``,
    ``a`` and the blind are the elements the textbook fold gives.
    """
    p = SCALAR_FIELD.p
    n = params.n
    a = [v % p for v in _padded(params, evals)]
    b = EvaluationDomain(SCALAR_FIELD, params.k).lagrange_basis_evals(x, n)
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

        l_blind = SCALAR_FIELD.rand()
        r_blind = SCALAR_FIELD.rand()
        inner_lo_hi = sum(ai * bi for ai, bi in zip(a_lo, b_hi)) % p
        inner_hi_lo = sum(ai * bi for ai, bi in zip(a_hi, b_lo)) % p
        left = cross_term(half, a_lo, inner_lo_hi, l_blind)
        right = cross_term(0, a_hi, inner_hi_lo, r_blind)
        transcript.absorb_point(b"ipa-L", left)
        transcript.absorb_point(b"ipa-R", right)
        u = transcript.challenge_scalar(b"ipa-u")
        u_inv = SCALAR_FIELD.inv(u)

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
) -> tuple[list[int], int, tuple[list[Point], list[int]]] | None:
    """Run the cheap part of opening verification: the transcript, the
    challenge products ``s`` and the folded ``b`` (O(n) field work).

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
    p = SCALAR_FIELD.p
    if len(proof.rounds) != params.k:
        return None

    xi = transcript.challenge_scalar(b"ipa-xi")
    challenges: list[int] = []
    for left, right in proof.rounds:
        transcript.absorb_point(b"ipa-L", left)
        transcript.absorb_point(b"ipa-R", right)
        challenges.append(transcript.challenge_scalar(b"ipa-u"))
    inv_challenges = SCALAR_FIELD.batch_inv(challenges)

    s = [1]
    for u, u_inv in zip(challenges, inv_challenges):
        s = _extend_products(s, u, u_inv, p)

    b_final = _folded_b(s, x)

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
) -> bool:
    """Verify an opening proof.

    The verifier's work is one ``n``-sized fixed-base MSM (the final
    base ``<s, G>``) plus one MSM over ``2 log n + 3`` points -- both
    of which Halo-style recursion amortizes across proofs (see
    :mod:`repro.proving.recursion`).
    """
    reduced = reduce_opening(
        params, transcript, ([commitment], [1]), x, value, proof
    )
    if reduced is None:
        return False
    s, a, (bases, scalars) = reduced
    p = SCALAR_FIELD.p
    tables = fixed_base.tables_for_params(params)
    folded = fixed_base.fixed_base_msm(tables, [a * si % p for si in s])
    return (folded + msm(bases, scalars)).is_identity()
