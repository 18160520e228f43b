"""The multipoint opening argument: one IPA opening per proof.

After the evaluation challenge ``x`` the proof claims the value of a
couple of hundred committed polynomials at a handful of rotations of
``x``; as in halo2, **one** IPA opening settles all of it.  Polynomials
claimed at the same points form a *point set*
(:func:`~repro.proving.protocol.opening_point_sets`: which polynomial
sits in which set, and both orders, are protocol).  With ``S_i`` the
points of set ``i`` and ``p_j`` its polynomials, the transcript steps
are ``x1 x2 [f] x3 [q_evals] x4``:

- ``x1`` folds a set into ``q_i = sum_j x1^j p_j``, whose values on
  ``S_i`` both sides know from the claimed evaluations; ``r_i`` is their
  interpolation, so ``q_i - r_i`` vanishes on ``S_i`` iff they are true;
- ``x2`` folds the sets: the prover commits ``f = sum_i x2^i (q_i -
  r_i) / prod_{s in S_i} (X - s)``, a polynomial only for true claims;
- at ``x3`` the prover sends every ``q_i(x3)``, from which the verifier
  computes what ``f(x3)`` has to be -- from scalars alone;
- ``x4`` folds ``f + sum_i x4^(i+1) q_i``, opened at ``x3`` by one
  :func:`~repro.commit.ipa.open_polynomial` of its values on the
  domain.  The verifier never sums its commitment: ``[f]`` and every
  claimed commitment are terms of the IPA reduction
  (:func:`~repro.commit.ipa.reduce_opening`), beside the opening's own
  points, and the accumulator settles them with every other proof's
  in one variable-base MSM.

Each polynomial thus reveals one evaluation more than the proof claims
(``q_i(x3)``); DESIGN.md 5m counts the blinding that pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.field import SCALAR_FIELD
from repro.algebra.poly import divide_by_linear, evaluate_coeffs
from repro.commit.ipa import (
    IpaProof,
    commit_polynomial,
    open_polynomial,
    values_of,
)
from repro.commit.params import PublicParams
from repro.ecc.curve import Point
from repro.proving.recursion import Accumulator
from repro.transcript import Transcript


@dataclass
class OpeningClaim:
    """A committed polynomial and its claimed value at each set point."""

    commitment: Point
    evaluations: list[int]
    coeffs: list[int] | None = None  # prover side only
    blind: int | None = None  # prover side only


@dataclass
class PointSet:
    """The polynomials opened at exactly these points."""

    points: list[int]
    claims: list[OpeningClaim]


def _walk(transcript: Transcript, sets: list[PointSet], p: int, commit_f, evaluate_q):
    """The transcript steps both sides share.  ``commit_f(weights, x2)``
    and ``evaluate_q(x3)`` give the prover's two messages (the verifier
    reads them off the proof); ``weights[j]`` is ``x1^j``, for the
    ``j``-th polynomial of any set.  Returns ``(weights, x2, [f], x3,
    q_evals, x4)``."""
    x1 = transcript.challenge_scalar(b"multiopen-x1")
    x2 = transcript.challenge_scalar(b"multiopen-x2")
    weights = [1]
    for _ in range(max((len(s.claims) for s in sets), default=0)):
        weights.append(weights[-1] * x1 % p)
    f_commitment = commit_f(weights, x2)
    transcript.absorb_point(b"multiopen-f", f_commitment)
    x3 = transcript.challenge_scalar(b"multiopen-x3")
    q_evals = evaluate_q(x3)
    transcript.absorb_scalars(b"multiopen-q-evals", q_evals)
    x4 = transcript.challenge_scalar(b"multiopen-x4")
    return weights, x2, f_commitment, x3, q_evals, x4


def multi_open(
    params: PublicParams,
    transcript: Transcript,
    sets: list[PointSet],
) -> tuple[Point, list[int], IpaProof]:
    """Open every claim of ``sets`` at once: ``([f], the q_i(x3), the
    IPA proof)``.

    The claims' commitments and evaluations must already be in the
    transcript (the main protocol absorbed them).  Polynomials stay in
    coefficient form here; ``f`` and the opened combination each pass
    through one size-``n`` FFT, to be committed or opened by value.
    The division by ``prod (X - s)`` is exact for true claims; a
    remainder is dropped, and the verifier's ``f(x3)`` then disagrees
    with the opening.
    """
    p, n = SCALAR_FIELD.p, params.n
    q_polys: list[list[int]] = []
    q_blinds: list[int] = []
    final, final_blind = [0] * n, SCALAR_FIELD.rand()  # f first, then the q_i

    def commit_f(weights, x2) -> Point:
        x2_power = 1
        for point_set in sets:
            q, blind = [0] * n, 0
            for weight, claim in zip(weights, point_set.claims):
                for i, c in enumerate(claim.coeffs):
                    q[i] += weight * c
                blind += weight * claim.blind
            q_polys.append([c % p for c in q])
            q_blinds.append(blind % p)
            quotient = q_polys[-1]
            for point in point_set.points:
                quotient = divide_by_linear(quotient, point, p)
            for i, c in enumerate(quotient):
                final[i] = (final[i] + x2_power * c) % p
            x2_power = x2_power * x2 % p
        return commit_polynomial(params, final, final_blind)

    *_, f_commitment, x3, q_evals, x4 = _walk(
        transcript, sets, p, commit_f,
        lambda x3: [evaluate_coeffs(q, x3, p) for q in q_polys],
    )
    x4_power = 1
    for q, blind in zip(q_polys, q_blinds):
        x4_power = x4_power * x4 % p
        final = [(a + x4_power * c) % p for a, c in zip(final, q)]
        final_blind = (final_blind + x4_power * blind) % p
    (values,) = values_of(params, [final])
    return f_commitment, q_evals, open_polynomial(
        params, transcript, values, final_blind, x3
    )


def multi_verify(
    params: PublicParams,
    transcript: Transcript,
    sets: list[PointSet],
    f_commitment: Point,
    q_evals: list[int],
    opening: IpaProof,
    accumulator: Accumulator,
) -> bool:
    """Check the opening :func:`multi_open` produced for ``sets``, up
    to its MSMs.

    The logarithmic part of the IPA runs here; both its MSMs are
    deferred into ``accumulator`` (recursive composition), so ``True``
    is provisional until the caller's ``accumulator.finalize()`` also
    passes.
    """
    p = SCALAR_FIELD.p
    # Structural rejection before the reduction: such a proof can never
    # verify, so fail before doing any work on attacker-controlled
    # input.
    if (
        len(q_evals) != len(sets)
        or len(opening.rounds) != params.k
        or any(len(c.evaluations) != len(s.points) for s in sets for c in s.claims)
    ):
        return False
    weights, x2, _, x3, _, x4 = _walk(
        transcript, sets, p, lambda *_: f_commitment, lambda _: q_evals
    )
    # f(x3) = sum_i x2^i (q_i(x3) - r_i(x3)) / prod_s (x3 - s), and the
    # opened polynomial f + sum_i x4^(i+1) q_i with it.
    expected = 0
    bases, scalars = [f_commitment], [1]
    x2_power, x4_power = 1, x4
    for point_set, q_eval in zip(sets, q_evals):
        # prod_s (x3 - s), then per point s the barycentric (x3 - s) *
        # prod_{t != s} (s - t).  One is zero when x3 lands on a set
        # point or two points coincide (x = 0): nothing is proven then.
        points = point_set.points
        denominators = [1]
        for k, s in enumerate(points):
            denominators[0] = denominators[0] * (x3 - s) % p
            weight = (x3 - s) % p
            for t in points[:k] + points[k + 1 :]:
                weight = weight * (s - t) % p
            denominators.append(weight)
        if 0 in denominators:
            return False
        term, *barycentric = SCALAR_FIELD.batch_inv(denominators)
        term *= q_eval
        for k, inverse in enumerate(barycentric):
            value = sum(
                weight * claim.evaluations[k]
                for weight, claim in zip(weights, point_set.claims)
            )
            term -= value % p * inverse
        expected = (expected + x2_power * term + x4_power * q_eval) % p
        for weight, claim in zip(weights, point_set.claims):
            bases.append(claim.commitment)
            scalars.append(x4_power * weight % p)
        x2_power, x4_power = x2_power * x2 % p, x4_power * x4 % p
    return accumulator.defer_opening(
        params, transcript, (bases, scalars), x3, expected, opening
    )
