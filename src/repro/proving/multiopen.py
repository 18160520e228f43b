"""Batched polynomial openings.

After the evaluation challenge ``x``, the prover must open dozens of
committed polynomials at a handful of points (``x``, ``omega*x``,
``omega^-1*x``, ``omega^u*x``).  Per distinct point we combine all
polynomials with powers of a transcript challenge ``v`` into a single
polynomial and produce one IPA opening proof -- so the opening cost is
``O(#points)`` IPA proofs of ``2 log n`` group elements each, not
``O(#polynomials)``.  This is what keeps PoneglyphDB's proofs in the
tens-of-kilobytes range (paper Table 4) while Libra's grow with circuit
depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.algebra.field import Field
from repro.commit.ipa import IpaProof, open_polynomial
from repro.commit.params import PublicParams
from repro.ecc.curve import Point
from repro.ecc.msm import msm
from repro.proving.recursion import Accumulator
from repro.transcript import Transcript


@dataclass
class OpeningClaim:
    """One (polynomial, point, evaluation) statement to batch."""

    point: int
    coeffs: list[int] | None  # prover side only
    blind: int | None  # prover side only
    commitment: Point
    evaluation: int


def _fold_by_point(transcript: Transcript, claims: list[OpeningClaim], p: int):
    """The per-point fold both sides share: draw the batching challenge
    ``v``, then per distinct point (in order of first appearance)
    weight the group's claims by ``1, v, v^2, ...``, absorb the point
    and the combined evaluation, and yield ``(point, group, weights,
    combined_eval)`` -- the IPA rounds of one point run before the next
    point is absorbed."""
    v = transcript.challenge_scalar(b"multiopen-v")
    groups: dict[int, list[OpeningClaim]] = {}
    for claim in claims:
        groups.setdefault(claim.point, []).append(claim)
    for point, group in groups.items():
        weights = [1]
        for _ in group[1:]:
            weights.append(weights[-1] * v % p)
        combined_eval = (
            sum(w * claim.evaluation for w, claim in zip(weights, group)) % p
        )
        transcript.absorb_scalar(b"multiopen-point", point)
        transcript.absorb_scalar(b"multiopen-eval", combined_eval)
        yield point, group, weights, combined_eval


def multi_open(
    params: PublicParams,
    transcript: Transcript,
    claims: list[OpeningClaim],
    field: Field,
) -> list[tuple[int, IpaProof]]:
    """Produce one IPA proof per distinct opening point.

    The claims' commitments and evaluations must already be in the
    transcript (the main protocol absorbed them); only the batching
    challenge and the IPA rounds are added here.
    """
    p = field.p
    proofs: list[tuple[int, IpaProof]] = []
    for point, group, weights, _ in _fold_by_point(transcript, claims, p):
        with telemetry.span("multiopen.open", claims=len(group)):
            combined = [0] * params.n
            combined_blind = 0
            for weight, claim in zip(weights, group):
                assert claim.coeffs is not None and claim.blind is not None
                for i, c in enumerate(claim.coeffs):
                    combined[i] = (combined[i] + weight * c) % p
                combined_blind = (combined_blind + weight * claim.blind) % p
            proof = open_polynomial(
                params, transcript, combined, combined_blind, point, field
            )
            proofs.append((point, proof))
    return proofs


def multi_verify(
    params: PublicParams,
    transcript: Transcript,
    claims: list[OpeningClaim],
    openings: list[tuple[int, IpaProof]],
    field: Field,
    accumulator: Accumulator,
) -> bool:
    """Check the batched openings produced by :func:`multi_open`, up to
    their base-folding MSMs.

    The logarithmic part of every IPA runs here; the linear-time MSM of
    each is deferred into ``accumulator`` (recursive composition), so
    ``True`` is provisional until the caller's
    ``accumulator.finalize()`` also passes.
    """
    if len({claim.point for claim in claims}) != len(openings):
        return False
    folds = _fold_by_point(transcript, claims, field.p)
    for (point, group, weights, combined_eval), (proof_point, proof) in zip(
        folds, openings
    ):
        # Structural rejection before the combining MSM: a proof with a
        # wrong round count can never verify, so fail before doing the
        # expensive group arithmetic on attacker-controlled input.
        if point != proof_point or len(proof.rounds) != params.k:
            return False
        combined_commitment = msm([c.commitment for c in group], weights)
        if not accumulator.defer_opening(
            params, transcript, combined_commitment, point, combined_eval,
            proof, field,
        ):
            return False
    return True
