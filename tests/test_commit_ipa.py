"""IPA polynomial commitment: hiding/binding behaviour, open/verify,
proof sizes, and the deferred (accumulated) verification path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Polynomial, SCALAR_FIELD
from repro.algebra.field import deterministic_rng
from repro.commit import (
    commit_polynomial,
    open_polynomial,
    pedersen_commit,
    setup,
    verify_opening,
)
from repro.commit.ipa import (
    IpaProof,
    _extend_products,
    _folded_b,
    reduce_opening,
)
from repro.proving.recursion import Accumulator
from repro.transcript import Transcript
from tests.msm_oracle import msm_naive

F = SCALAR_FIELD


def _open_and_verify(params, coeffs, x, tamper=None):
    blind = F.rand()
    commitment = commit_polynomial(params, coeffs, blind)
    value = Polynomial(F, coeffs).evaluate(x)
    tp = Transcript(b"t")
    tp.absorb_point(b"c", commitment)
    tp.absorb_scalar(b"x", x)
    tp.absorb_scalar(b"v", value)
    proof = open_polynomial(params, tp, coeffs, blind, x, F)
    if tamper:
        commitment, x, value, proof = tamper(commitment, x, value, proof)
    tv = Transcript(b"t")
    tv.absorb_point(b"c", commitment)
    tv.absorb_scalar(b"x", x)
    tv.absorb_scalar(b"v", value)
    return verify_opening(params, tv, commitment, x, value, proof, F)


class TestPublicParams:
    def test_setup_deterministic(self):
        a, b = setup(3), setup(3)
        assert a.g == b.g and a.w == b.w and a.u == b.u

    def test_label_separation(self):
        assert setup(2).g[0] != setup(2, label=b"other").g[0]

    def test_truncation(self, params_k6):
        small = params_k6.truncated(4)
        assert small.n == 16
        assert small.g == params_k6.g[:16]
        with pytest.raises(ValueError):
            params_k6.truncated(7)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            setup(0)


class TestPedersen:
    def test_homomorphic(self, params_k6, rng):
        v1 = [rng.randrange(F.p) for _ in range(8)]
        v2 = [rng.randrange(F.p) for _ in range(8)]
        r1, r2 = F.rand(), F.rand()
        c1 = pedersen_commit(params_k6, v1, r1)
        c2 = pedersen_commit(params_k6, v2, r2)
        summed = pedersen_commit(
            params_k6, [(a + b) % F.p for a, b in zip(v1, v2)], (r1 + r2) % F.p
        )
        assert c1 + c2 == summed

    def test_hiding_blind_changes_commitment(self, params_k6):
        values = [1, 2, 3]
        assert pedersen_commit(params_k6, values, 1) != pedersen_commit(
            params_k6, values, 2
        )

    def test_oversized_vector_rejected(self, params_k6):
        with pytest.raises(ValueError):
            pedersen_commit(params_k6, [1] * 65, 0)


class TestIpaOpening:
    def test_roundtrip(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(50)]
        assert _open_and_verify(params_k6, coeffs, F.rand())

    def test_opening_at_zero(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(10)]
        assert _open_and_verify(params_k6, coeffs, 0)

    def test_constant_polynomial(self, params_k6):
        assert _open_and_verify(params_k6, [42], 7)

    def test_wrong_value_rejected(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(20)]

        def tamper(c, x, v, proof):
            return c, x, (v + 1) % F.p, proof

        assert not _open_and_verify(params_k6, coeffs, F.rand(), tamper)

    def test_wrong_point_rejected(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(20)]

        def tamper(c, x, v, proof):
            return c, (x + 1) % F.p, v, proof

        assert not _open_and_verify(params_k6, coeffs, F.rand(), tamper)

    def test_tampered_round_rejected(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(20)]

        def tamper(c, x, v, proof):
            left, right = proof.rounds[0]
            proof.rounds[0] = (left.double(), right)
            return c, x, v, proof

        assert not _open_and_verify(params_k6, coeffs, F.rand(), tamper)

    def test_truncated_proof_rejected(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(20)]

        def tamper(c, x, v, proof):
            proof.rounds = proof.rounds[:-1]
            return c, x, v, proof

        assert not _open_and_verify(params_k6, coeffs, F.rand(), tamper)

    def test_proof_size_is_logarithmic(self):
        # The round count, 2 points per round, k rounds, plus 2 scalars.
        for k in (2, 4):
            params = setup(k)
            coeffs = [3] * (1 << k)
            blind = F.rand()
            commitment = commit_polynomial(params, coeffs, blind)
            tp = Transcript(b"t")
            proof = open_polynomial(params, tp, coeffs, blind, 5, F)
            assert len(proof.rounds) == k
            assert len(proof.to_bytes()) == 4 + 2 * k * 64 + 64

    def test_proof_serialization(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(12)]
        tp = Transcript(b"t")
        proof = open_polynomial(params_k6, tp, coeffs, F.rand(), 5, F)
        data = proof.to_bytes()
        assert len(data) > 0
        assert data == proof.to_bytes()  # deterministic


def _open_two_scalar_fold(params, transcript, coeffs, blind, x):
    """The protocol as the module docstring states it -- the base is
    folded ``u^-1 * g_lo + u * g_hi`` by per-element scalar
    multiplication, every ``L`` / ``R`` a generic MSM over the folded
    base -- as the oracle for the prover, which never materialises the
    folded base and takes every ``L`` / ``R`` from the parameter set's
    fixed-base tables."""
    p, n = F.p, params.n
    a = [c % p for c in coeffs] + [0] * (n - len(coeffs))
    b = [pow(x, i, p) for i in range(n)]
    g = list(params.g)
    u_prime = params.u * transcript.challenge_scalar(b"ipa-xi")
    r = blind % p
    rounds = []
    while n > 1:
        n //= 2
        l_blind, r_blind = F.rand(), F.rand()
        left = msm_naive(
            g[n:] + [u_prime, params.w],
            a[:n] + [sum(s * t for s, t in zip(a[:n], b[n:])) % p, l_blind],
        )
        right = msm_naive(
            g[:n] + [u_prime, params.w],
            a[n:] + [sum(s * t for s, t in zip(a[n:], b[:n])) % p, r_blind],
        )
        transcript.absorb_point(b"ipa-L", left)
        transcript.absorb_point(b"ipa-R", right)
        u = transcript.challenge_scalar(b"ipa-u")
        u_inv = pow(u, p - 2, p)
        a = [(lo * u + hi * u_inv) % p for lo, hi in zip(a[:n], a[n:])]
        b = [(lo * u_inv + hi * u) % p for lo, hi in zip(b[:n], b[n:])]
        g = [lo * u_inv + hi * u for lo, hi in zip(g[:n], g[n:])]
        r = (r + l_blind * u * u + r_blind * u_inv * u_inv) % p
        rounds.append((left, right))
    return IpaProof(rounds=rounds, a=a[0], blind=r)


class TestFixedBaseRounds:
    @pytest.mark.parametrize(
        "k, length, x, blind",
        [
            *(
                pytest.param(k, 1 << k, "random", "random", id=str(k))
                for k in (1, 2, 3, 5, 6, 7)
            ),
            pytest.param(5, 11, "random", "random", id="short"),  # zero-padded
            pytest.param(5, 32, 0, "random", id="x0"),
            pytest.param(5, 32, "random", 0, id="blind0"),
        ],
    )
    def test_same_bytes_as_the_two_scalar_fold(self, k, length, x, blind, rng):
        params = setup(k)
        coeffs = [rng.randrange(F.p) for _ in range(length)]
        blind = rng.randrange(F.p) if blind == "random" else blind
        x = rng.randrange(F.p) if x == "random" else x
        commitment = commit_polynomial(params, coeffs, blind)
        value = Polynomial(F, coeffs).evaluate(x)

        def transcript():
            t = Transcript(b"pinned")
            t.absorb_point(b"c", commitment)
            t.absorb_scalar(b"x", x)
            t.absorb_scalar(b"v", value)
            return t

        with deterministic_rng(0x1FA):
            proof = open_polynomial(params, transcript(), coeffs, blind, x, F)
        with deterministic_rng(0x1FA):
            oracle = _open_two_scalar_fold(params, transcript(), coeffs, blind, x)
        assert proof.to_bytes() == oracle.to_bytes()
        assert verify_opening(params, transcript(), commitment, x, value, proof, F)


class TestVerifierFold:
    """``reduce_opening`` builds ``s`` round by round and evaluates the
    folded ``b`` as a product over rounds; the oracles are the O(n k)
    bit loop and the O(n) sum those replace."""

    @given(
        st.integers(1, 8),
        st.lists(st.integers(1, F.p - 1), min_size=8, max_size=8),
        st.one_of(st.just(0), st.integers(0, F.p - 1)),
    )
    @settings(max_examples=25, deadline=None)
    def test_products_and_b_match_the_per_bit_oracle(self, k, us, x):
        p, n = F.p, 1 << k
        challenges = us[:k]
        inverses = [pow(u, p - 2, p) for u in challenges]
        # s[i] = prod over bits of i of (u_j if bit set else u_j^-1),
        # with round 0 folding the top half (most significant bit).
        expected = [1] * n
        for j, (u, u_inv) in enumerate(zip(challenges, inverses)):
            stride = 1 << (k - 1 - j)
            for i in range(n):
                expected[i] = expected[i] * (u if i & stride else u_inv) % p
        s = [1]
        for u, u_inv in zip(challenges, inverses):
            s = _extend_products(s, u, u_inv, p)
        assert s == expected
        b = sum(si * pow(x, i, p) for i, si in enumerate(expected)) % p
        assert _folded_b(challenges, inverses, x, p) == b


class TestDeferredVerification:
    def test_reduce_matches_verify(self, params_k6, rng):
        coeffs = [rng.randrange(F.p) for _ in range(30)]
        blind = F.rand()
        commitment = commit_polynomial(params_k6, coeffs, blind)
        x = F.rand()
        value = Polynomial(F, coeffs).evaluate(x)
        tp = Transcript(b"t")
        proof = open_polynomial(params_k6, tp, coeffs, blind, x, F)
        tv = Transcript(b"t")
        reduced = reduce_opening(
            params_k6, tv, ([commitment], [1]), x, value, proof, F
        )
        assert reduced is not None

    def test_accumulator_batches_many_openings(self, params_k6, rng):
        acc = Accumulator(params_k6, F)
        for _ in range(3):
            coeffs = [rng.randrange(F.p) for _ in range(30)]
            blind = F.rand()
            commitment = commit_polynomial(params_k6, coeffs, blind)
            x = F.rand()
            value = Polynomial(F, coeffs).evaluate(x)
            tp = Transcript(b"t")
            proof = open_polynomial(params_k6, tp, coeffs, blind, x, F)
            tv = Transcript(b"t")
            assert acc.defer_opening(
                params_k6, tv, ([commitment], [1]), x, value, proof, F
            )
        assert acc.deferred_count == 3
        assert acc.finalize()

    def test_accumulator_catches_bad_proof(self, params_k6, rng):
        acc = Accumulator(params_k6, F)
        coeffs = [rng.randrange(F.p) for _ in range(30)]
        blind = F.rand()
        commitment = commit_polynomial(params_k6, coeffs, blind)
        x = F.rand()
        tp = Transcript(b"t")
        proof = open_polynomial(params_k6, tp, coeffs, blind, x, F)
        wrong_value = (Polynomial(F, coeffs).evaluate(x) + 1) % F.p
        tv = Transcript(b"t")
        assert acc.defer_opening(
            params_k6, tv, ([commitment], [1]), x, wrong_value, proof, F
        )  # structurally fine, deferred
        assert not acc.finalize()  # but the combined check fails

    def test_every_opening_keeps_its_own_weight(self, params_k6, rng):
        # One proof deferred twice, claiming value + 1 and value - 1:
        # under one weight shared by both openings the two errors
        # cancel in the summed terms and the fold would pass.
        acc = Accumulator(params_k6, F)
        coeffs = [rng.randrange(F.p) for _ in range(30)]
        blind = F.rand()
        commitment = commit_polynomial(params_k6, coeffs, blind)
        x = F.rand()
        value = Polynomial(F, coeffs).evaluate(x)
        proof = open_polynomial(params_k6, Transcript(b"t"), coeffs, blind, x, F)
        for offset in (1, -1):
            assert acc.defer_opening(
                params_k6, Transcript(b"t"), ([commitment], [1]), x,
                (value + offset) % F.p, proof, F,
            )
        assert not acc.finalize()

    @staticmethod
    def _linked_opening(params, rng):
        """A scan link's two commitments, ``advice == db + delta * W``
        (one column, two blinds), and an honest opening of ``advice``
        deferred into a fresh accumulator."""
        coeffs = [rng.randrange(F.p) for _ in range(30)]
        blind, delta = F.rand(), F.rand()
        db = commit_polynomial(params, coeffs, blind)
        shifted = (blind + delta) % F.p
        advice = commit_polynomial(params, coeffs, shifted)
        assert advice == db + params.w * delta
        x = F.rand()
        value = Polynomial(F, coeffs).evaluate(x)
        proof = open_polynomial(params, Transcript(b"t"), coeffs, shifted, x, F)
        acc = Accumulator(params, F)
        assert acc.defer_opening(
            params, Transcript(b"t"), ([advice], [1]), x, value, proof, F
        )
        return acc, advice, db, delta

    def test_honest_identity_settles_with_the_opening(self, params_k6, rng):
        acc, advice, db, delta = self._linked_opening(params_k6, rng)
        acc.defer_identity([advice, db, params_k6.w], [1, F.p - 1, -delta % F.p])
        assert acc.deferred_count == 1  # openings only
        assert acc.finalize()

    def test_every_identity_keeps_its_own_weight(self, params_k6, rng):
        # The link deferred twice, claiming delta + 1 and delta - 1:
        # under one weight shared by both identities the two errors
        # cancel in the summed terms and the fold would pass.
        acc, advice, db, delta = self._linked_opening(params_k6, rng)
        for offset in (1, -1):
            acc.defer_identity(
                [advice, db, params_k6.w], [1, F.p - 1, -(delta + offset) % F.p]
            )
        assert not acc.finalize()

    def test_identities_alone_are_settled(self, params_k6, rng):
        # No opening deferred: finalize must still check the identities.
        point = commit_polynomial(params_k6, [rng.randrange(F.p)], F.rand())
        honest = Accumulator(params_k6, F)
        honest.defer_identity([point, point], [1, F.p - 1])
        assert honest.finalize()
        false = Accumulator(params_k6, F)
        false.defer_identity([point], [1])
        assert false.deferred_count == 0
        assert not false.finalize()

    def test_empty_accumulator_finalizes(self, params_k6):
        assert Accumulator(params_k6, F).finalize()


class TestGroupWork:
    """Where the opening's group work goes, counted on the benchmark's
    Q1 at k=7: the prover makes no generic MSM at all -- every
    commitment and both cross terms of every IPA round run against the
    fixed-base tables -- and the verifier makes exactly one, beside the
    accumulator's fixed-base finalize."""

    COUNTERS = ("msm.calls", "msm.glv_splits", "msm.fixed_base_calls")

    def test_q1_k7(self):
        from repro import telemetry
        from repro.plonkish import Assignment
        from repro.proving import create_proof, keygen, verify_proof
        from repro.sql.compiler import QueryCompiler
        from repro.sql.parser import parse
        from repro.sql.planner import Planner
        from repro.telemetry.circuit import CircuitReport
        from repro.tpch import QUERIES, generate

        k = 7
        db = generate(32, seed=1)
        plan = Planner(db).plan(parse(QUERIES["Q1"]))
        compiled = QueryCompiler(db, k, 4, 32, 40).compile(plan)
        asg = Assignment(compiled.cs, F, k)
        compiled.assign_witness(asg, db)
        pk = keygen(setup(k), compiled.cs, F, k, asg.fixed)
        instance = [
            asg.instance_values(column)[: asg.usable_rows]
            for column in compiled.cs.instance_columns
        ]

        def counts():
            snapshot = telemetry.counters_snapshot()
            return [snapshot.get(name, 0) for name in self.COUNTERS]

        previous = telemetry.enable(True)
        try:
            before = counts()
            proof = create_proof(pk, asg)
            proved = counts()
            assert verify_proof(pk.vk, proof, instance)
            verified = counts()
        finally:
            telemetry.enable(previous)
        commits = CircuitReport.from_constraint_system(
            compiled.cs, k
        ).estimated_commit_msms()
        calls, splits, fixed = (b - a for a, b in zip(before, proved))
        assert (calls, splits) == (0, 0)
        assert fixed == commits + 2 * k
        calls, _, fixed = (b - a for a, b in zip(proved, verified))
        assert (calls, fixed) == (1, 1)
