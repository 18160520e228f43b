"""The opening argument on its own, below the constraint identity.

Random polynomials over 1-, 2- and 3-point sets go through
``multi_open`` / ``multi_verify`` + ``finalize`` with no circuit around
them; every way the two sides can disagree -- a false evaluation, a
bent message, a different grouping -- must end in a rejection, never in
an exception.
"""

import random

import pytest

from repro.algebra import SCALAR_FIELD as F
from repro.algebra.poly import evaluate_coeffs
from repro.commit import setup
from repro.commit import ipa
from repro.commit.ipa import commit_polynomial
from repro.proving import multiopen
from repro.proving.multiopen import OpeningClaim, PointSet, multi_open, multi_verify
from repro.proving.recursion import Accumulator
from repro.transcript import Transcript

K = 4
A, B, C = 5, 7, 11  # three opening points

#: Q1's shape in small: one wide single-point set, two two-point sets
#: that share a point, one three-point set.
MIXED = (([B], 4), ([B, C], 2), ([A, B], 2), ([A, B, C], 1))


@pytest.fixture(scope="module")
def params():
    return setup(K)


def random_sets(params, shape, seed=0xC0FFEE) -> list[PointSet]:
    """Prover-side point sets of random full-length polynomials."""
    rng = random.Random(seed)
    sets = []
    for points, count in shape:
        claims = []
        for _ in range(count):
            coeffs = [rng.randrange(F.p) for _ in range(params.n)]
            blind = rng.randrange(F.p)
            claims.append(
                OpeningClaim(
                    commit_polynomial(params, coeffs, blind),
                    [evaluate_coeffs(coeffs, point, F.p) for point in points],
                    coeffs,
                    blind,
                )
            )
        sets.append(PointSet(list(points), claims))
    return sets


def public(sets) -> list[PointSet]:
    """What the verifier holds of ``sets``: commitments and claimed
    evaluations (fresh lists, so a test can bend them)."""
    return [
        PointSet(
            list(point_set.points),
            [OpeningClaim(c.commitment, list(c.evaluations)) for c in point_set.claims],
        )
        for point_set in sets
    ]


def accepts(params, message, verifier_sets, transcript=None) -> bool:
    accumulator = Accumulator(params)
    provisional = multi_verify(
        params, transcript or Transcript(b"t"), verifier_sets, *message, accumulator
    )
    assert accumulator.deferred_count == int(provisional)
    return provisional and accumulator.finalize()


@pytest.fixture(scope="module")
def honest(params):
    """(sets, message) of one honest run over the mixed shape."""
    sets = random_sets(params, MIXED)
    return sets, multi_open(params, Transcript(b"t"), sets)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "shape",
        [(([A], 3),), (([A, B], 2),), (([A, B, C], 1),), MIXED],
        ids=["one-point", "two-point", "three-point", "mixed"],
    )
    def test_honest_opening_verifies(self, params, shape):
        sets = random_sets(params, shape)
        f_commitment, q_evals, opening = multi_open(params, Transcript(b"t"), sets)
        assert len(q_evals) == len(shape) and len(opening.rounds) == K
        assert accepts(params, (f_commitment, q_evals, opening), public(sets))

    def test_short_polynomials_fold_like_padded_ones(self, params):
        """A quotient piece may have fewer than ``n`` coefficients."""
        sets = random_sets(params, (([A], 2),))
        claim = sets[0].claims[0]
        claim.coeffs = claim.coeffs[:3]
        claim.commitment = commit_polynomial(params, claim.coeffs, claim.blind)
        claim.evaluations = [evaluate_coeffs(claim.coeffs, A, F.p)]
        message = multi_open(params, Transcript(b"t"), sets)
        assert accepts(params, message, public(sets))


class TestRejection:
    def test_false_evaluation_in_a_multi_point_set(self, params, honest):
        """The prover folds and divides as always -- the remainder of
        the division is simply dropped -- so ``f`` is a polynomial, but
        not the one whose value the verifier computes at ``x3``."""
        sets, _ = honest
        claimed = public(sets)
        claimed[1].claims[0].evaluations[1] += 1
        message = multi_open(params, Transcript(b"t"), sets)
        assert not accepts(params, message, claimed)

    @pytest.mark.parametrize("which", [0, 3])
    def test_q_eval_off_by_one(self, params, honest, which):
        sets, (f_commitment, q_evals, opening) = honest
        bent = list(q_evals)
        bent[which] = (bent[which] + 1) % F.p
        assert not accepts(params, (f_commitment, bent, opening), public(sets))

    def test_f_committed_to_another_polynomial(self, params, honest, monkeypatch):
        sets, _ = honest

        def commit_other(params, coeffs, blind):
            return commit_polynomial(params, [coeffs[0] + 1, *coeffs[1:]], blind)

        monkeypatch.setattr(multiopen, "commit_polynomial", commit_other)
        message = multi_open(params, Transcript(b"t"), sets)
        assert not accepts(params, message, public(sets))

    def test_polynomial_listed_in_the_wrong_set(self, params):
        """Every claim true on both sides, but the verifier has one
        polynomial under the other point."""
        sets = random_sets(params, (([A], 2), ([B], 2)))
        message = multi_open(params, Transcript(b"t"), sets)
        claimed = public(sets)
        moved = claimed[0].claims.pop()
        moved.evaluations = [evaluate_coeffs(sets[0].claims[1].coeffs, B, F.p)]
        claimed[1].claims.append(moved)
        assert not accepts(params, message, claimed)

    def test_set_order_is_protocol(self, params, honest):
        sets, message = honest
        assert not accepts(params, message, public(sets)[::-1])

    def test_member_order_is_protocol(self, params, honest):
        sets, message = honest
        claimed = public(sets)
        claimed[0].claims.reverse()
        assert not accepts(params, message, claimed)

    def test_ipa_produced_at_another_point(self, params, honest, monkeypatch):
        sets, _ = honest
        open_polynomial = multiopen.open_polynomial
        monkeypatch.setattr(
            multiopen,
            "open_polynomial",
            lambda params, transcript, coeffs, blind, x: open_polynomial(
                params, transcript, coeffs, blind, x + 1
            ),
        )
        message = multi_open(params, Transcript(b"t"), sets)
        assert not accepts(params, message, public(sets))

    def test_malformed_message_rejected_before_any_group_arithmetic(
        self, params, honest, monkeypatch
    ):
        sets, (f_commitment, q_evals, opening) = honest

        def unreachable(*args, **kwargs):
            raise AssertionError("structural check let the message through")

        # The claims' commitments are combined inside the IPA reduction's MSM.
        monkeypatch.setattr(ipa, "msm", unreachable)
        claimed = public(sets)
        assert not accepts(params, (f_commitment, q_evals[:-1], opening), claimed)
        short = type(opening)(opening.rounds[:-1], opening.a, opening.blind)
        assert not accepts(params, (f_commitment, q_evals, short), claimed)
        claimed[2].claims[0].evaluations.pop()
        assert not accepts(params, (f_commitment, q_evals, opening), claimed)


class RiggedTranscript(Transcript):
    """A transcript whose ``multiopen-x3`` challenge is chosen."""

    def __init__(self, x3: int):
        super().__init__(b"t")
        self.x3 = x3

    def challenge_scalar(self, label: bytes) -> int:
        value = super().challenge_scalar(label)
        return self.x3 if label == b"multiopen-x3" else value


class TestDegenerateChallenges:
    """Where the argument divides by zero it proves nothing: the
    verifier says no instead of raising."""

    @pytest.mark.parametrize("x3", [A, B, C])
    def test_x3_on_a_set_point_rejects(self, params, honest, x3):
        sets, _ = honest
        message = multi_open(params, RiggedTranscript(x3), sets)
        assert not accepts(params, message, public(sets), RiggedTranscript(x3))

    def test_rigged_transcript_is_otherwise_honest(self, params, honest):
        sets, _ = honest
        message = multi_open(params, RiggedTranscript(C + 1), sets)
        assert accepts(params, message, public(sets), RiggedTranscript(C + 1))

    def test_coinciding_points_reject(self, params):
        """``x = 0`` makes every rotation of it the same point."""
        sets = random_sets(params, (([0, 0], 2),))
        message = multi_open(params, Transcript(b"t"), sets)
        assert not accepts(params, message, public(sets))
