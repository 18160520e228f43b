"""Fiat-Shamir transcript determinism and separation properties."""

from repro.algebra import SCALAR_FIELD
from repro.ecc import PALLAS
from repro.transcript import Transcript

F = SCALAR_FIELD


class TestTranscript:
    def test_deterministic_replay(self):
        def run():
            tr = Transcript(b"test")
            tr.absorb_scalar(b"a", 123)
            tr.absorb_point(b"g", PALLAS.generator)
            return tr.challenge_scalar(b"c")

        assert run() == run()

    def test_absorbed_data_changes_challenges(self):
        t1 = Transcript(b"test")
        t1.absorb_scalar(b"a", 1)
        t2 = Transcript(b"test")
        t2.absorb_scalar(b"a", 2)
        assert t1.challenge_scalar(b"c") != t2.challenge_scalar(b"c")

    def test_label_separation(self):
        t1 = Transcript(b"test")
        t1.absorb_scalar(b"a", 1)
        t2 = Transcript(b"test")
        t2.absorb_scalar(b"b", 1)
        assert t1.challenge_scalar(b"c") != t2.challenge_scalar(b"c")

    def test_init_label_separation(self):
        assert (
            Transcript(b"x").challenge_scalar(b"c")
            != Transcript(b"y").challenge_scalar(b"c")
        )

    def test_sequential_challenges_differ(self):
        tr = Transcript(b"test")
        a = tr.challenge_scalar(b"c")
        b = tr.challenge_scalar(b"c")
        assert a != b

    def test_challenge_never_zero_or_one(self):
        tr = Transcript(b"test")
        for value in tr.challenge_scalars(b"c", 50):
            assert 2 <= value < F.p

    def test_scalars_absorb_as_residues(self):
        """``v`` and ``v + p`` are one circuit-field element, so they
        make one transcript."""
        t1, t2 = Transcript(b"test"), Transcript(b"test")
        t1.absorb_scalar(b"a", 7)
        t1.absorb_scalars(b"b", [1, F.p - 1])
        t2.absorb_scalar(b"a", 7 + F.p)
        t2.absorb_scalars(b"b", [1 + F.p, -1])
        assert t1.challenge_scalar(b"c") == t2.challenge_scalar(b"c")

    def test_absorb_resets_challenge_counter(self):
        t1 = Transcript(b"test")
        t1.challenge_scalar(b"c")
        t1.absorb_scalar(b"a", 5)
        c1 = t1.challenge_scalar(b"c")

        t2 = Transcript(b"test")
        t2.challenge_scalar(b"c")
        t2.challenge_scalar(b"c")
        t2.absorb_scalar(b"a", 5)
        c2 = t2.challenge_scalar(b"c")
        # Same absorbed data after different squeeze counts -> challenges
        # depend only on absorbed content and post-absorb counter.
        assert c1 == c2

    def test_scalars_batch_matches_framed_bytes(self):
        # Batch absorption frames the element count, so a prover cannot
        # shift bytes between adjacent elements without changing the
        # transcript.
        t1 = Transcript(b"test")
        t1.absorb_scalars(b"vals", [1, 2, 3])
        t2 = Transcript(b"test")
        t2.absorb_bytes(
            b"vals",
            (3).to_bytes(4, "little")
            + b"".join(F.to_bytes(v) for v in [1, 2, 3]),
        )
        assert t1.challenge_scalar(b"c") == t2.challenge_scalar(b"c")

    def test_scalars_count_framing_separates(self):
        # [1, 2] followed by [3] must differ from [1] followed by [2, 3]:
        # identical concatenated bytes, different framing.
        t1 = Transcript(b"test")
        t1.absorb_scalars(b"vals", [1, 2])
        t1.absorb_scalars(b"vals", [3])
        t2 = Transcript(b"test")
        t2.absorb_scalars(b"vals", [1])
        t2.absorb_scalars(b"vals", [2, 3])
        assert t1.challenge_scalar(b"c") != t2.challenge_scalar(b"c")

    def test_points_batch(self):
        tr = Transcript(b"test")
        tr.absorb_points(b"pts", [PALLAS.generator, PALLAS.generator * 2])
        assert tr.challenge_scalar(b"c") not in (0, 1)

    def test_fork_independent(self):
        parent = Transcript(b"test")
        parent.absorb_scalar(b"a", 1)
        child1 = parent.fork(b"branch")
        child2 = parent.fork(b"branch")
        assert child1.challenge_scalar(b"c") == child2.challenge_scalar(b"c")
        assert child1.challenge_scalar(b"c") != parent.challenge_scalar(b"c")
