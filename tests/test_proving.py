"""End-to-end proving system tests: honest proofs verify, every class of
cheating is rejected, and the recursion accumulator batches checks.

These are the slowest unit tests in the suite (real curve arithmetic),
so circuits are kept at k=5 (32 rows).
"""

import hashlib

import pytest

from repro.algebra import SCALAR_FIELD
from repro.algebra.field import deterministic_rng
from repro.plonkish import MockProver
from repro.proving import Accumulator, create_proof, keygen, verify_proof
from repro.proving.prover import ProverTiming, ProvingError
from repro.telemetry.selfcheck import EXAMPLE_K as K
from repro.telemetry.selfcheck import example_assignment, example_circuit
from tests.conftest import two_chunk_shuffle_circuit

F = SCALAR_FIELD

#: ``PDB4`` proofs of 2,312 / 5,088 / 2,936 bytes.  The compiled one
#: (k=6) was 5,456 before range checks were sized by proven bounds
#: (18 -> 9 limb lookups; ``q_after`` added): its two digests are
#: re-recorded with the circuit; the hand-built k=5 ones do not move.
GOLDEN_K5 = "32d044aceecad43d6b32545e2f9251de"
GOLDEN_K6_TPCH = "b3ab57679c4c5ee016656e14465866e9"
GOLDEN_K5_TWO_CHUNK_SHUFFLE = "868f0eec713ce6b511094f5dd2d4b332"
#: ``PDBA`` envelope of the k=6 TPC-H response folded twice (10,774
#: bytes, was 11,510; the envelope's own magic and layout are those of
#: 99f270e).
GOLDEN_K6_TPCH_AGGREGATE = "19c468155e5f1ae664acd382c14ff8f1"


def assign_broken_mul(cs, cols):
    """The example witness with the final product (and the public
    output) off by one: every cell is consistent except the mul gate."""
    asg, result = example_assignment(cs, cols)
    asg.assign(cols["c"], 2, result + 1)
    asg.assign(cols["out"], 2, result + 1)
    return asg, result + 1


@pytest.fixture(scope="module")
def proven(params_k6_module):
    """One honest (pk, proof, instance) triple shared by read-only tests."""
    cs, cols = example_circuit()
    asg, result = example_assignment(cs, cols)
    pk = keygen(params_k6_module, cs, F, K, asg.fixed)
    proof = create_proof(pk, asg)
    instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
    return pk, proof, instance, result


@pytest.fixture(scope="module")
def params_k6_module():
    from repro.commit import setup

    return setup(K)


class TestHonestProofs:
    def test_verifies(self, proven):
        pk, proof, instance, _ = proven
        assert verify_proof(pk.vk, proof, instance)

    def test_mock_agrees(self):
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols)
        assert MockProver(cs, asg, F).verify() == []

    def test_proof_is_nondeterministic_but_both_verify(
        self, params_k6_module
    ):
        # Fresh blinding every run: proofs differ, both verify (ZK
        # proofs are randomized).
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols)
        pk = keygen(params_k6_module, cs, F, K, asg.fixed)
        p1 = create_proof(pk, asg)
        p2 = create_proof(pk, asg)
        assert p1.advice_commitments != p2.advice_commitments
        instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
        assert verify_proof(pk.vk, p1, instance)
        assert verify_proof(pk.vk, p2, instance)

    def test_timing_instrumentation(self, params_k6_module):
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols)
        pk = keygen(params_k6_module, cs, F, K, asg.fixed)
        timing = ProverTiming()
        create_proof(pk, asg, timing=timing)
        assert timing.total > 0
        assert timing.commit_advice > 0
        assert timing.quotient > 0
        parts = (
            timing.commit_advice + timing.lookups + timing.permutations
            + timing.quotient + timing.evaluations + timing.multiopen
        )
        assert parts <= timing.total

    def test_proof_serialization_roundtrip_size(self, proven):
        _, proof, _, _ = proven
        data = proof.to_bytes()
        assert proof.size_bytes() == len(data)
        assert data == proof.to_bytes()


class TestRejection:
    def test_wrong_instance_rejected(self, proven):
        pk, proof, instance, result = proven
        bad = [list(instance[0])]
        bad[0][2] = (result + 1) % F.p
        assert not verify_proof(pk.vk, proof, bad)

    def test_wrong_witness_rejected(self, params_k6_module):
        cs, cols = example_circuit()
        asg, result = assign_broken_mul(cs, cols)
        pk = keygen(params_k6_module, cs, F, K, asg.fixed)
        proof = create_proof(pk, asg)
        instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
        assert not verify_proof(pk.vk, proof, instance)

    def test_copy_violation_rejected(self, params_k6_module):
        cs, cols = example_circuit()
        cs.copy(cols["a"], 0, cols["b"], 0)  # 7 != 11, violated
        asg, _ = example_assignment(cs, cols)
        pk = keygen(params_k6_module, cs, F, K, asg.fixed)
        proof = create_proof(pk, asg)
        instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
        assert not verify_proof(pk.vk, proof, instance)

    def test_lookup_violation_unprovable(self, params_k6_module):
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols, x=99)  # 99 outside [0,16)
        pk = keygen(params_k6_module, cs, F, K, asg.fixed)
        with pytest.raises(ProvingError):
            create_proof(pk, asg)

    def test_tampered_commitment_rejected(self, proven, params_k6_module):
        pk, proof, instance, _ = proven
        import copy

        bad = copy.deepcopy(proof)
        bad.advice_commitments[0] = bad.advice_commitments[0].double()
        assert not verify_proof(pk.vk, bad, instance)

    def test_tampered_eval_rejected(self, proven):
        pk, proof, instance, _ = proven
        import copy

        bad = copy.deepcopy(proof)
        key = next(iter(bad.advice_evals))
        bad.advice_evals[key] = (bad.advice_evals[key] + 1) % F.p
        assert not verify_proof(pk.vk, bad, instance)

    def test_wrong_instance_count_rejected(self, proven):
        pk, proof, instance, _ = proven
        assert not verify_proof(pk.vk, proof, [])
        assert not verify_proof(pk.vk, proof, instance + [[1]])

    def test_oversized_instance_rejected(self, proven):
        pk, proof, _, _ = proven
        too_long = [[0] * (pk.vk.n_rows + 1)]
        assert not verify_proof(pk.vk, proof, too_long)


class TestAccumulator:
    def test_deferred_verification(self, proven, params_k6_module):
        pk, proof, instance, _ = proven
        acc = Accumulator(pk.vk.params, F)
        assert verify_proof(pk.vk, proof, instance, accumulator=acc)
        assert acc.deferred_count >= 1
        assert acc.finalize()

    def test_accumulator_rejects_batch_with_bad_proof(
        self, proven, params_k6_module
    ):
        pk, proof, instance, result = proven
        acc = Accumulator(pk.vk.params, F)
        assert verify_proof(pk.vk, proof, instance, accumulator=acc)
        # Proof against a wrong instance fails fast (constraint check),
        # so craft a subtly-broken batch: tamper an opening proof value.
        import copy

        bad = copy.deepcopy(proof)
        (ipa,) = bad.openings
        ipa.a = (ipa.a + 1) % F.p
        # Constraint check still passes; the deferred MSM must catch it.
        verified = verify_proof(pk.vk, bad, instance, accumulator=acc)
        assert not (verified and acc.finalize())


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture()
def claims(monkeypatch):
    """Record the point sets each side hands to the opening argument,
    as ``{"prover": [...], "verifier": [...]}`` of ``(points,
    [(commitment, evaluations), ...])`` per set."""
    from repro.proving import prover, verifier

    seen = {}

    def spy(module, name, side):
        original = getattr(module, name)

        def recording(params, transcript, sets, *rest):
            seen[side] = [
                (s.points, [(c.commitment, c.evaluations) for c in s.claims])
                for s in sets
            ]
            return original(params, transcript, sets, *rest)

        monkeypatch.setattr(module, name, recording)

    spy(prover, "multi_open", "prover")
    spy(verifier, "multi_verify", "verifier")
    return seen


class TestGoldenProofDigest:
    """Cross-commit byte-identity: under a pinned prover seed the wire
    bytes are a function of the code alone, so a refactor that claims
    "proofs stay byte-identical" must leave these digests untouched.
    A deliberate protocol change re-records them: all four were last
    recorded with the multipoint opening argument (``PDB3`` ->
    ``PDB4``), identical under both field backends and with or without
    a worker pool.

    Each test also checks the two sides of ``opening_point_sets``: the
    sets the prover opened and the sets the verifier checked are the
    same, set by set and claim by claim -- and one IPA settles them."""

    def test_k5_circuit(self, params_k6_module, claims):
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols)
        with deterministic_rng(0x5EED):
            pk = keygen(params_k6_module, cs, F, K, asg.fixed)
            proof = create_proof(pk, asg)
        assert _digest(proof.to_bytes()) == GOLDEN_K5
        instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
        assert verify_proof(pk.vk, proof, instance)
        assert claims["prover"] == claims["verifier"]

    def test_k5_two_chunks_and_shuffle(self, params_k6_module, claims):
        # The only circuit with more than one permutation chunk (the
        # "chain" evaluation, a 3rd opening point) and a shuffle.
        cs, asg, instance = two_chunk_shuffle_circuit()
        with deterministic_rng(0x5EED):
            pk = keygen(params_k6_module, cs, F, K, asg.fixed)
            proof = create_proof(pk, asg)
        assert len(pk.vk.permutation_chunks) == 2 and len(cs.shuffles) == 1
        assert verify_proof(pk.vk, proof, instance)
        assert claims["prover"] == claims["verifier"]
        # One opening over three rotations: x, omega * x, omega^usable * x.
        assert len(proof.openings) == 1
        assert sorted(len(points) for points, _ in claims["prover"]) == [1, 2, 3]
        # The blinding budget is one short here, on this hand-built
        # circuit only: the non-final Z reveals 4 evaluations (those
        # three and q(x3)) of 3 random rows.  README "Security notes".
        from repro.telemetry.circuit import CircuitReport

        assert CircuitReport.from_constraint_system(cs, K).zk_margin == -1
        assert _digest(proof.to_bytes()) == GOLDEN_K5_TWO_CHUNK_SHUFFLE

    def test_k6_tpch_query(self, claims):
        from repro.api import PoneglyphDB
        from repro.config import ProverConfig
        from repro.tpch import generate

        config = ProverConfig(
            k=6, limb_bits=4, value_bits=24, key_bits=16, use_cache=False
        )
        with PoneglyphDB.open(generate(16, seed=11), config) as session:
            with deterministic_rng(0x5EED):
                session.commit()
                response = session.prove(
                    "select count(*) as n from nation where n_regionkey >= 2"
                )
            assert session.verify(response).accepted
            envelope = session.aggregate([response, response]).to_bytes()
        assert _digest(response.wire_bytes()) == GOLDEN_K6_TPCH
        assert _digest(envelope) == GOLDEN_K6_TPCH_AGGREGATE
        assert claims["prover"] == claims["verifier"]


@pytest.mark.parametrize(
    "sql, rotation_sets",
    [
        pytest.param(
            "select n_name, r_name from nation, region "
            "where n_regionkey = r_regionkey and r_name = 'ASIA'",
            {(0,), (0, 1)},
            id="join",
        ),
        pytest.param(None, {(0,), (0, 1), (-1, 0), (-1, 0, 1)}, id="Q1"),
    ],
)
def test_tpch_proof_carries_one_opening(claims, sql, rotation_sets):
    """Whatever rotations a query's circuit opens, its proof carries
    one IPA, the verifier defers one base-folding MSM, and both sides
    fold the same point sets."""
    from repro.api import PoneglyphDB
    from repro.config import ProverConfig
    from repro.proving.protocol import collect_queries, opening_point_sets
    from repro.tpch import generate, queries

    config = ProverConfig(k=6, limb_bits=4, value_bits=32, key_bits=40, use_cache=False)
    with PoneglyphDB.open(generate(16, seed=1), config) as session:
        session.commit()
        response = session.prove(sql or queries.query("Q1"))
        report = session.batch_verify([response])
        assert report.accepted and report.deferred_openings == 1
        _, vk = session.verifier().rebuild_verifying_key(
            response.sql, len(response.result)
        )
    assert len(response.proof.openings) == 1
    assert claims["prover"] == claims["verifier"]
    sets = opening_point_sets(
        vk, collect_queries(vk), len(response.proof.h_commitments)
    )
    assert {rotations for rotations, _ in sets} == rotation_sets
    assert len(response.proof.multiopen_q_evals) == len(sets)


def _compiled_key_inputs(sql, rows, k):
    """``(params, cs, fixed, asg)`` of ``sql`` compiled over a seeded
    TPC-H database of ``rows`` lineitems at ``2^k`` rows."""
    from repro.commit import setup
    from repro.plonkish import Assignment
    from repro.sql.compiler import QueryCompiler
    from repro.sql.parser import parse
    from repro.sql.planner import Planner
    from repro.tpch import generate

    db = generate(rows, seed=1)
    compiled = QueryCompiler(db, k, 4, 32, 40).compile(
        Planner(db).plan(parse(sql))
    )
    asg = Assignment(compiled.cs, F, k)
    compiled.assign_witness(asg, db)
    return setup(k), compiled.cs, asg.fixed, asg


class TestImmutableKeys:
    """A key is built whole by one call and never changed afterwards,
    which is what lets one key serve every thread of a service."""

    @pytest.fixture(scope="class")
    def q1_key(self):
        from repro.tpch import QUERIES

        params, cs, fixed, asg = _compiled_key_inputs(QUERIES["Q1"], 32, 7)
        return keygen(params, cs, F, 7, fixed), asg

    def test_proving_leaves_the_key_unchanged(self, q1_key):
        import pickle

        pk, asg = q1_key
        before = pickle.dumps(pk)
        create_proof(pk, asg)
        assert pickle.dumps(pk) == before

    def test_key_fields_cannot_be_assigned(self, q1_key):
        from dataclasses import FrozenInstanceError, fields

        pk, _ = q1_key
        for key in (pk, pk.vk):
            for field in fields(key):
                with pytest.raises(FrozenInstanceError):
                    setattr(key, field.name, getattr(key, field.name))

    @pytest.mark.parametrize(
        "sql, rows, k",
        [
            pytest.param(None, 32, 7, id="Q1"),
            pytest.param(
                "select n_name, r_name from nation, region "
                "where n_regionkey = r_regionkey and r_name = 'ASIA'",
                16,
                6,
                id="join",
            ),
        ],
    )
    def test_keygen_vk_is_keygens_vk(self, sql, rows, k):
        """``keygen_vk`` commits without transforming and equals the
        proving key's own verifying key, field by field."""
        from dataclasses import fields

        from repro import telemetry
        from repro.proving import VerifyingKey, keygen_vk
        from repro.tpch import QUERIES

        params, cs, fixed, _ = _compiled_key_inputs(sql or QUERIES["Q1"], rows, k)
        previous = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("fft.calls", 0)
            vk = keygen_vk(params, cs, F, k, fixed)
            assert telemetry.counters_snapshot().get("fft.calls", 0) == before
        finally:
            telemetry.enable(previous)
        expected = keygen(params, cs, F, k, fixed).vk
        assert vk.params.fingerprint() == expected.params.fingerprint()
        for field in fields(VerifyingKey):
            if field.name != "params":
                assert getattr(vk, field.name) == getattr(expected, field.name), (
                    field.name
                )
