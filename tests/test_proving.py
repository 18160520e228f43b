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
from repro.proving.keygen import finalize_fixed
from repro.proving.prover import ProverTiming, ProvingError
from repro.telemetry.selfcheck import EXAMPLE_K as K
from repro.telemetry.selfcheck import example_assignment, example_circuit
from tests.conftest import two_chunk_shuffle_circuit

F = SCALAR_FIELD

#: ``PDB3`` proofs of 2,948 / 7,024 / 4,280 bytes.
GOLDEN_K5 = "83e53756ec67246444955631d2b6c9f6"
GOLDEN_K6_TPCH = "414e361fd8d95ef38ae5cdaecfe30be4"
GOLDEN_K5_TWO_CHUNK_SHUFFLE = "0f796846a02cfe5d0b6be397d0deda26"
#: ``PDBA`` envelope of the k=6 TPC-H response folded twice (14,646
#: bytes; the envelope's own magic and layout are those of 99f270e).
GOLDEN_K6_TPCH_AGGREGATE = "ffaadad2ff77f53a8a826223708ff59d"


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
    pk = keygen(params_k6_module, cs, F, K)
    finalize_fixed(pk, asg)
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
        pk = keygen(params_k6_module, cs, F, K)
        finalize_fixed(pk, asg)
        p1 = create_proof(pk, asg)
        p2 = create_proof(pk, asg)
        assert p1.advice_commitments != p2.advice_commitments
        instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
        assert verify_proof(pk.vk, p1, instance)
        assert verify_proof(pk.vk, p2, instance)

    def test_timing_instrumentation(self, params_k6_module):
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols)
        pk = keygen(params_k6_module, cs, F, K)
        finalize_fixed(pk, asg)
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
        pk = keygen(params_k6_module, cs, F, K)
        finalize_fixed(pk, asg)
        proof = create_proof(pk, asg)
        instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
        assert not verify_proof(pk.vk, proof, instance)

    def test_copy_violation_rejected(self, params_k6_module):
        cs, cols = example_circuit()
        cs.copy(cols["a"], 0, cols["b"], 0)  # 7 != 11, violated
        asg, _ = example_assignment(cs, cols)
        pk = keygen(params_k6_module, cs, F, K)
        finalize_fixed(pk, asg)
        proof = create_proof(pk, asg)
        instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
        assert not verify_proof(pk.vk, proof, instance)

    def test_lookup_violation_unprovable(self, params_k6_module):
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols, x=99)  # 99 outside [0,16)
        pk = keygen(params_k6_module, cs, F, K)
        finalize_fixed(pk, asg)
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
        _, ipa = bad.openings[0]
        ipa.a = (ipa.a + 1) % F.p
        # Constraint check still passes; the deferred MSM must catch it.
        verified = verify_proof(pk.vk, bad, instance, accumulator=acc)
        assert not (verified and acc.finalize())


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture()
def claims(monkeypatch):
    """Record the opening claims each side hands to multiopen, as
    ``{"prover": [...], "verifier": [...]}`` of ``(point, commitment,
    evaluation)`` sequences."""
    from repro.proving import prover, verifier

    seen = {}

    def spy(module, name, side):
        original = getattr(module, name)

        def recording(params, transcript, claims, *rest):
            seen[side] = [(c.point, c.commitment, c.evaluation) for c in claims]
            return original(params, transcript, claims, *rest)

        monkeypatch.setattr(module, name, recording)

    spy(prover, "multi_open", "prover")
    spy(verifier, "multi_verify", "verifier")
    return seen


class TestGoldenProofDigest:
    """Cross-commit byte-identity: under a pinned prover seed the wire
    bytes are a function of the code alone, so a refactor that claims
    "proofs stay byte-identical" must leave these digests untouched.
    A deliberate protocol change re-records them: all four were last
    recorded with the log-derivative lookup argument (``PDB2`` ->
    ``PDB3``), identical under both field backends and with or without
    a worker pool.

    Each test also checks the two sides of ``opening_schedule``: the
    claims the prover opened and the claims the verifier checked are
    the same ``(point, commitment, evaluation)`` sequence."""

    def test_k5_circuit(self, params_k6_module, claims):
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols)
        with deterministic_rng(0x5EED):
            pk = keygen(params_k6_module, cs, F, K)
            finalize_fixed(pk, asg)
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
            pk = keygen(params_k6_module, cs, F, K)
            finalize_fixed(pk, asg)
            proof = create_proof(pk, asg)
        assert len(pk.vk.permutation_chunks) == 2 and len(cs.shuffles) == 1
        assert len(proof.openings) == 3  # x, omega * x, omega^usable * x
        assert verify_proof(pk.vk, proof, instance)
        assert claims["prover"] == claims["verifier"]
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
