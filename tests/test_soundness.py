"""Malicious-prover soundness: wire round-trips and the tamper harness.

The proving-system tests show honest proofs verify; this suite attacks
the byte boundary.  Every proof field and every byte-mutation class
must be rejected, the h-chunk bound and scalar canonicality each have
a dedicated regression (they pass trivially on code without the fix),
and a small TPC-H query exercises the same sweep end-to-end.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import SCALAR_FIELD
from repro.commit import setup
from repro.commit.ipa import IpaProof
from repro.config import ProverConfig
from repro.proving import create_proof, keygen, verify_proof
from repro.proving.aggregate import aggregate
from repro.proving.prover import ProvingError
from repro.proving.proof import (
    CHUNKS,
    KEYED,
    NAMED,
    SECTIONS,
    WIRE_MAGIC,
    Proof,
    wire_layout,
)
from repro.soundness import (
    ProverFaults,
    byte_mutations,
    check_tampered_aggregate,
    check_tampered_bytes,
    claim_mutators,
    field_mutators,
    run_aggregate_tamper_suite,
    run_tamper_suite,
)
from repro.telemetry.selfcheck import EXAMPLE_K as K
from repro.telemetry.selfcheck import example_assignment, example_circuit
from repro.errors import VerificationFailure
from repro.wire import WireFormatError
from tests.conftest import two_chunk_shuffle_circuit

F = SCALAR_FIELD
#: ``field_mutators`` labels per fixture, recorded with the ``PDB4``
#: layout (the multipoint opening argument's first commit).
RECORDED_LABELS = Path(__file__).parent / "data" / "field_mutator_labels_pdb4.json"


@pytest.fixture(scope="module")
def params():
    return setup(K)


def prove_honestly(params, cs, asg, instance):
    pk = keygen(params, cs, F, K, asg.fixed)
    proof = create_proof(pk, asg)
    assert verify_proof(pk.vk, proof, instance)
    return pk, asg, proof, instance


@pytest.fixture(scope="module")
def proven(params):
    """One honest (pk, asg, proof, instance) shared by read-only tests."""
    cs, cols = example_circuit()
    asg, _ = example_assignment(cs, cols)
    instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
    return prove_honestly(params, cs, asg, instance)


@pytest.fixture(scope="module")
def proven_two_chunk(params):
    """The same for the two-permutation-chunk + shuffle circuit: the
    only fixture whose proof has a ``chain`` evaluation, a three-point
    set in its opening argument and a shuffle part."""
    return prove_honestly(params, *two_chunk_shuffle_circuit())


@pytest.fixture(scope="module", params=["proven", "proven_two_chunk"])
def field_fixture(request):
    return request.getfixturevalue(request.param)


class TestRoundTrip:
    def test_from_bytes_inverts_to_bytes(self, field_fixture):
        pk, _, proof, _ = field_fixture
        data = proof.to_bytes()
        decoded = Proof.from_bytes(pk.vk, data)
        assert decoded == proof
        assert decoded.to_bytes() == data

    def test_decoded_proof_verifies(self, proven):
        pk, _, proof, instance = proven
        decoded = Proof.from_bytes(pk.vk, proof.to_bytes())
        assert verify_proof(pk.vk, decoded, instance)

    def test_trailing_byte_rejected(self, proven):
        pk, _, proof, _ = proven
        with pytest.raises(WireFormatError, match="trailing"):
            Proof.from_bytes(pk.vk, proof.to_bytes() + b"\x00")

    @pytest.mark.parametrize("magic", [b"PDB1", b"PDB2", b"PDB3"])
    def test_bad_magic_rejected(self, proven, magic):
        # PDB2 was the permuted-column lookup layout, PDB3 carried one
        # IPA per opening point: refused at the header, whatever follows.
        pk, _, proof, _ = proven
        data = proof.to_bytes()
        with pytest.raises(WireFormatError, match="bad proof header"):
            Proof.from_bytes(pk.vk, magic + data[len(WIRE_MAGIC):])

    def test_empty_and_tiny_inputs_rejected(self, proven):
        pk, *_ = proven
        for data in (b"", WIRE_MAGIC, WIRE_MAGIC + b"\xff" * 3):
            with pytest.raises(WireFormatError):
                Proof.from_bytes(pk.vk, data)

    @settings(max_examples=5, deadline=None)
    @given(
        x=st.integers(min_value=0, max_value=15),
        y=st.integers(min_value=0, max_value=2**32),
        z=st.integers(min_value=0, max_value=2**32),
    )
    def test_roundtrip_property_over_random_witnesses(self, params, x, y, z):
        """from_bytes(to_bytes(p)) == p for proofs over arbitrary
        witnesses (fresh blinding every example)."""
        cs, cols = example_circuit()
        asg, _ = example_assignment(cs, cols, x=x, y=y, z=z)
        pk = keygen(params, cs, F, K, asg.fixed)
        proof = create_proof(pk, asg)
        data = proof.to_bytes()
        decoded = Proof.from_bytes(pk.vk, data)
        assert decoded == proof
        assert decoded.to_bytes() == data


class TestFieldLevelTampering:
    def test_every_field_mutation_rejected(self, field_fixture):
        pk, _, proof, instance = field_fixture
        report = run_tamper_suite(
            pk.vk, proof, instance, include_byte_level=False
        )
        assert report.accepted == [], report.summary()
        # The sweep must actually cover the proof: every commitment
        # list, every eval, every IPA round.
        assert report.total > 60, report.summary()
        assert report.rejected_decode > 0  # structural mutations
        assert report.rejected_verify > 0  # value mutations

    def test_mutators_cover_all_proof_fields(self, proven_two_chunk):
        pk, _, proof, _ = proven_two_chunk
        labels = " ".join(label for label, _ in field_mutators(proof))
        for field_name in (
            "advice_commitments", "lookup[0].m_commitment", "lookup[0].m_x",
            "lookup[0].phi_commitment", "lookup[0].phi_x", "lookup[0].phi_wx",
            "lookup_helper_commitments", "lookup_helper_evals", "shuffle",
            "permutation_z_commitments", "h_commitments", "advice_evals",
            "fixed_evals", "sigma_evals", "system_evals",
            "permutation_z_evals", "chain", "h_evals", "multiopen_f",
            "multiopen_q_evals[2]", "openings[0].a", "openings[0].rounds[4].R",
        ):
            assert field_name in labels, f"no mutator touches {field_name}"


    @pytest.mark.parametrize(
        "name, fixture",
        [("example", "proven"), ("two_chunk_shuffle", "proven_two_chunk")],
    )
    def test_mutators_keep_every_recorded_label(self, request, name, fixture):
        """The schema walk yields at least the mutations it did when
        the ``PDB4`` layout was recorded: a later edit of the schema or
        of the walk may add mutations, not silently lose one."""
        _, _, proof, _ = request.getfixturevalue(fixture)
        recorded = json.loads(RECORDED_LABELS.read_text())[name]
        labels = {label for label, _ in field_mutators(proof)}
        assert set(recorded) <= labels, sorted(set(recorded) - labels)


def _malformed_sections():
    """(section, what, edit) for a missing, an extra and -- where
    entries have keys -- a mis-keyed entry in every schema section."""
    for section in SECTIONS:
        keyed = section.kind in (KEYED, NAMED)
        new_key = (999, 0) if section.kind is KEYED else "bogus"
        yield section.attr, "missing", (
            (lambda v: v.pop(next(iter(v)))) if keyed else (lambda v: v.pop())
        )
        yield section.attr, "extra", (
            (lambda v, k=new_key: v.setdefault(k, 0))
            if keyed
            else (lambda v: v.append(v[-1]))
        )
        if keyed or section.kind is CHUNKS:
            def rekey(v, k=new_key, keyed=keyed):
                entry = v if keyed else v[0]
                entry[k] = entry.pop(next(iter(entry)))

            yield section.attr, "mis-keyed", rekey


class TestShapeCheck:
    """``verify_proof`` refuses a proof object that does not have the
    verifying key's shape before any cryptography: one schema-driven
    check, exercised on every section."""

    @pytest.mark.parametrize(
        "attr, what, edit",
        [pytest.param(a, w, e, id=f"{a}-{w}") for a, w, e in _malformed_sections()],
    )
    def test_malformed_section_refused_before_multi_verify(
        self, proven_two_chunk, monkeypatch, attr, what, edit
    ):
        import copy

        from repro.proving import verifier

        pk, _, proof, instance = proven_two_chunk
        bad = copy.deepcopy(proof)
        edit(getattr(bad, attr))

        def unreachable(*args, **kwargs):
            raise AssertionError("shape check let the proof through")

        monkeypatch.setattr(verifier, "multi_verify", unreachable)
        assert not verify_proof(pk.vk, bad, instance)


def test_design_doc_carries_the_schema_layout():
    """DESIGN.md 5c's ``PDB4`` block is ``wire_layout()`` verbatim."""
    design = Path(__file__).resolve().parents[1] / "DESIGN.md"
    assert wire_layout() in design.read_text(encoding="utf-8")


class TestByteLevelTampering:
    def test_every_byte_mutation_rejected(self, proven):
        pk, _, proof, instance = proven
        report = run_tamper_suite(
            pk.vk, proof, instance, include_field_level=False
        )
        assert report.accepted == [], report.summary()
        assert report.total > 50, report.summary()

    def test_all_mutation_classes_present(self, proven):
        _, _, proof, _ = proven
        labels = [label for label, _ in byte_mutations(proof.to_bytes())]
        for cls in ("bit-flip", "truncate", "extend", "swap", "duplicate"):
            assert any(label.startswith(cls) for label in labels), cls

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_bit_flip_rejected(self, proven, data):
        pk, _, proof, instance = proven
        honest = proof.to_bytes()
        pos = data.draw(st.integers(min_value=0, max_value=len(honest) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        flipped = bytearray(honest)
        flipped[pos] ^= 1 << bit
        outcome = check_tampered_bytes(pk.vk, bytes(flipped), instance)
        assert outcome in ("decode", "verify")


class TestQuotientChunkBound:
    """Regression: an honestly-computed proof whose quotient is padded
    with zero chunks beyond the vk-derived bound must be rejected.  On
    code without the bound check the padded proof verifies (the zero
    chunks change nothing algebraically), so both assertions fail."""

    def test_padded_quotient_rejected(self, proven):
        pk, asg, _, instance = proven
        bound = 1 << (pk.vk.extended_k - pk.vk.k)
        padded = create_proof(
            pk, asg, _faults=ProverFaults(extra_h_chunks=bound)
        )
        assert len(padded.h_commitments) > bound  # the fault took effect
        assert not verify_proof(pk.vk, padded, instance)
        with pytest.raises(WireFormatError, match="h commitments"):
            Proof.from_bytes(pk.vk, padded.to_bytes())

    def test_unpadded_control_still_verifies(self, proven):
        pk, asg, _, instance = proven
        proof = create_proof(pk, asg, _faults=ProverFaults(extra_h_chunks=0))
        assert verify_proof(pk.vk, proof, instance)


def two_helper_example(x=7):
    """The example circuit with a second range lookup (on ``b``), so
    its one lookup argument has two helper columns; ``x`` lands in the
    range-checked cell of ``a``."""
    cs, cols = example_circuit()
    q = cols["q_range"].cur()
    cs.add_lookup("range16.b", [q * cols["b"].cur()], [cols["table"].cur()])
    asg, _ = example_assignment(cs, cols, x=x)
    return cs, asg, [asg.instance_values(cols["out"])[: asg.usable_rows]]


def tuple_lookup_circuit(x=7):
    """The join gate's shape (``DisjointChip``): two flag-gated tuple
    lookups into one *advice* table of ``(value, tag)`` rows, the table
    holding a duplicate and all-zero padding.  ``x`` is the value ``a``
    looks up on row 0; the table has 7, not 99."""
    from repro.plonkish import Assignment, ConstraintSystem

    cs = ConstraintSystem()
    names = ("s", "tag", "a", "fa", "b", "fb")
    s_, tag, a, fa, b, fb = (cs.advice_column(name) for name in names)
    table = [s_.cur(), tag.cur()]
    cs.add_lookup("a_in_s", [fa.cur() * a.cur(), fa.cur() * 1], table)
    cs.add_lookup("b_in_s", [fb.cur() * b.cur(), fb.cur() * 2], table)
    asg = Assignment(cs, F, K)
    for row, (value, kind) in enumerate([(7, 1), (9, 2), (7, 1), (12, 1), (3, 2)], 2):
        asg.assign(s_, row, value)
        asg.assign(tag, row, kind)
    for row, value in enumerate([x, 12, 7]):
        asg.assign(a, row, value)
        asg.assign(fa, row, 1)
    for row, value in enumerate([3, 9], start=1):
        asg.assign(b, row, value)
        asg.assign(fb, row, 1)
    return cs, asg, []


#: attack -> (faults, witness with a value outside its table?, the one
#: term of the identity that rejects it, that term removed)
LOOKUP_ATTACKS = {
    "misbooked-and-open": (
        ProverFaults(misbook_lookup=True), True,
        "lookup_sum_terms", lambda terms: terms[:2],
    ),
    "misbooked-and-forced-closed": (
        ProverFaults(misbook_lookup=True, close_lookup_sum=True), True,
        "lookup_sum_terms", lambda terms: (terms[0], terms[2]),
    ),
    "helper-not-the-sum-of-inverses": (
        ProverFaults(bend_helper=True), False,
        "lookup_helper_terms", lambda terms: (),
    ),
    "helpers-swapped-between-groups": (
        ProverFaults(swap_helpers=True), False,
        "lookup_helper_terms", lambda terms: (),
    ),
}


class TestLookupArgumentAttacks:
    """The lookup argument's multiplicities, helper columns and running
    sum are advice the prover picks; the identity has to *determine*
    them.  Each attack is an otherwise honest prover lying in one of
    them so that a single term of ``combined_constraint`` is violated:
    the proof must be rejected, and -- the mutation check that the test
    attacks what it says -- accepted once that term is taken out of the
    identity on both sides."""

    @pytest.mark.parametrize("attack", list(LOOKUP_ATTACKS))
    @pytest.mark.parametrize("circuit", [two_helper_example, tuple_lookup_circuit])
    def test_rejected_by_exactly_its_guard(self, params, monkeypatch, circuit, attack):
        from repro.proving import protocol

        faults, outside, guard, weaken = LOOKUP_ATTACKS[attack]
        cs, asg, instance = circuit(x=99 if outside else 7)
        pk = keygen(params, cs, F, K, asg.fixed)
        assert len(pk.vk.lookup_arguments[0].groups) == 2
        if outside:
            with pytest.raises(ProvingError, match="not in table"):
                create_proof(pk, asg)
        proof = create_proof(pk, asg, _faults=faults)
        assert not verify_proof(pk.vk, proof, instance)

        original = getattr(protocol, guard)
        monkeypatch.setattr(
            protocol, guard, lambda *args: weaken(original(*args))
        )
        proof = create_proof(pk, asg, _faults=faults)
        assert verify_proof(pk.vk, proof, instance)


class TestCanonicalScalars:
    """Regression: scalars must serialize reduced mod p and deserialize
    only if < p.  The old encoder wrote ``s % 2^256`` (two encodings per
    residue) and nothing rejected the non-canonical one."""

    def test_ipa_to_bytes_reduces_mod_p(self, proven):
        _, _, proof, _ = proven
        (ipa,) = proof.openings
        p = ipa.rounds[0][0].curve.scalar_field.p
        shifted = IpaProof(rounds=ipa.rounds, a=ipa.a + p, blind=ipa.blind + p)
        assert shifted.to_bytes() == ipa.to_bytes()

    def test_ipa_from_bytes_rejects_noncanonical_scalar(self, params):
        curve = params.curve
        p = curve.scalar_field.p

        def encode(a, blind):
            return (
                (0).to_bytes(4, "little")
                + a.to_bytes(32, "little")
                + blind.to_bytes(32, "little")
            )

        ok = IpaProof.from_bytes(curve, encode(p - 1, 0))
        assert ok.a == p - 1
        with pytest.raises(WireFormatError, match="non-canonical"):
            IpaProof.from_bytes(curve, encode(p, 0))
        with pytest.raises(WireFormatError, match="non-canonical"):
            IpaProof.from_bytes(curve, encode(0, p))

    def test_ipa_from_bytes_roundtrip(self, proven):
        _, _, proof, _ = proven
        (ipa,) = proof.openings
        curve = ipa.rounds[0][0].curve
        decoded = IpaProof.from_bytes(curve, ipa.to_bytes(), len(ipa.rounds))
        assert decoded == ipa
        with pytest.raises(WireFormatError):
            IpaProof.from_bytes(curve, ipa.to_bytes() + b"\x00")

    def test_proof_bytes_noncanonical_scalar_rejected(self, proven):
        pk, _, proof, _ = proven
        data = proof.to_bytes()
        # The final 32 bytes are the opening's blind scalar.
        v = int.from_bytes(data[-32:], "little")
        assert v < F.p
        tampered = data[:-32] + (v + F.p).to_bytes(32, "little")
        with pytest.raises(WireFormatError, match="non-canonical"):
            Proof.from_bytes(pk.vk, tampered)

    def test_proof_object_noncanonical_eval_serializes_canonically(
        self, proven
    ):
        pk, _, proof, _ = proven
        data = proof.to_bytes()
        shifted = Proof.from_bytes(pk.vk, data)
        shifted.sigma_evals[0] += F.p
        assert shifted.to_bytes() == data


TPCH_K = 7
TPCH_SQL = "select count(*) as n from nation where n_regionkey >= 2"


@pytest.fixture(scope="module")
def tpch_proven():
    """A proved query over a small TPC-H instance, plus the verifier
    node itself and its independently-rebuilt vk / instance vectors."""
    from repro.api import PoneglyphDB
    from repro.tpch import generate

    db = generate(64, seed=11)
    config = ProverConfig(
        k=TPCH_K, limb_bits=4, value_bits=24, key_bits=16, use_cache=False
    )
    with PoneglyphDB.open(db, config) as session:
        session.commit()
        response = session.prove(TPCH_SQL)
        report = session.verify(response)
        assert report.accepted, report.reason
        verifier = session.verifier()
        compiled, vk = verifier.rebuild_verifying_key(
            response.sql, len(response.result_encoded)
        )
        instance = compiled.instance_vectors(response.result_encoded)
        return vk, response, instance, verifier


class TestTpchSoundness:
    def test_wire_roundtrip(self, tpch_proven):
        vk, response, _, _ = tpch_proven
        decoded = Proof.from_bytes(vk, response.wire_bytes())
        assert decoded == response.proof
        assert decoded.to_bytes() == response.wire_bytes()

    def test_sampled_byte_mutations_rejected(self, tpch_proven):
        vk, response, instance, _ = tpch_proven
        proof = Proof.from_bytes(vk, response.wire_bytes())
        report = run_tamper_suite(
            vk,
            proof,
            instance,
            include_field_level=False,
            stride=max(1, len(response.wire_bytes()) // 12),
        )
        assert report.accepted == [], report.summary()


CLAIM_MUTATORS = list(claim_mutators(F.p))


class TestClaimLevelTampering:
    """One tamper table, every verification surface.  The proof is
    honest (but for one flipped byte); what is claimed around it --
    scan links, encoded result -- is not.  ``verify``, ``batch_verify``
    and ``verify_aggregate`` (bytes and in-memory) are one engine over
    one per-claim checker, so each mutation must be rejected on all
    four, and inside a batch / aggregate the rejection must name the
    tampered entry and spare the honest one."""

    @pytest.mark.parametrize(
        "position, label, mutate",
        [
            pytest.param(i % 2, label, mutate, id=label)
            for i, (label, mutate) in enumerate(CLAIM_MUTATORS)
        ],
    )
    def test_mutation_rejected_on_every_surface(
        self, tpch_proven, position, label, mutate
    ):
        from dataclasses import replace

        _, response, _, verifier = tpch_proven
        bad = replace(
            response,
            result_encoded=[list(row) for row in response.result_encoded],
            scan_links=list(response.scan_links),
        )
        mutate(bad)
        pair = [response, response]
        pair[position] = bad

        def assert_attributed(report):
            assert not report.accepted
            assert [rep.accepted for rep in report.reports] == [
                i != position for i in range(2)
            ], [rep.reason for rep in report.reports]
            if label.startswith("links"):
                assert "scan" in report.reports[position].reason
            with pytest.raises(
                VerificationFailure, match=rf"rejected indices \[{position}\]"
            ):
                report.require()

        lone = verifier.verify(bad)
        assert not lone.accepted
        if label.startswith("links"):
            assert "scan" in lone.reason
        assert_attributed(verifier.batch_verify(pair))

        agg = aggregate(pair, verifier.params)
        try:
            data = agg.to_bytes()
        except ValueError:
            # Not expressible on the wire (a scalar outside [0, p),
            # ragged rows): the in-memory surface must refuse it too.
            report = verifier.verify_aggregate(agg)
            assert not report.accepted
            assert "not serializable" in report.reason
        else:
            assert_attributed(verifier.verify_aggregate(data))
            assert_attributed(verifier.verify_aggregate(agg))

    def test_table_covers_the_claim(self):
        labels = " ".join(label for label, _ in CLAIM_MUTATORS)
        for needle in (
            "links.repeat-first", "links.dup", "links.drop", "other-column",
            "delta+1", "delta+p", "delta-p", "result[0][0]+p",
            "result[0][0]-p", "extra-row", "drop-row", "proof.bit-flip",
        ):
            assert needle in labels, needle


class TestBatchSoundness:
    """``batch_verify`` must accept zero tampered proofs (the tamper
    table above); what is left here is the honest side."""

    def test_honest_batch_accepted(self, tpch_proven):
        _, response, _, verifier = tpch_proven
        report = verifier.batch_verify([response, response, response])
        assert report.accepted, report.reason
        assert report.proofs == 3
        assert report.deferred_openings == 3

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_base_fold_per_call_whatever_n(
        self, tpch_proven, monkeypatch, n
    ):
        """A lone ``verify`` is a batch of one: every surface settles
        its proofs' openings -- one each -- and their scan links in a
        single fixed-base MSM and a single generic MSM (deterministic;
        replaces the wall-clock "batched beats sequential" races the CI
        smokes used to run).  No scalar multiplication happens outside
        them: every GLV split is one of the generic MSM's points.  The
        generic MSM over ``n`` copies of one proof has the lone proof's
        points: equal bases are summed, not repeated."""
        from repro import telemetry
        from repro.ecc import fixed_base

        _, response, _, verifier = tpch_proven
        folds = []
        original = fixed_base.fixed_base_msm

        def counting(tables, scalars):
            folds.append(len(scalars))
            return original(tables, scalars)

        def msm_work(call):
            names = ("msm.calls", "msm.points", "msm.glv_splits")
            before = telemetry.counters_snapshot()
            report = call()
            after = telemetry.counters_snapshot()
            assert report.accepted, report.reason
            return report, [after.get(k, 0) - before.get(k, 0) for k in names]

        monkeypatch.setattr(fixed_base, "fixed_base_msm", counting)
        blob = aggregate([response] * n, verifier.params).to_bytes()
        previous = telemetry.enable(True)
        try:
            _, (calls, points, splits) = msm_work(
                lambda: verifier.verify(response)
            )
            assert folds == [verifier.params.n]
            report, batch = msm_work(lambda: verifier.batch_verify([response] * n))
            assert report.deferred_openings == n
            report, agg = msm_work(lambda: verifier.verify_aggregate(blob))
            assert report.deferred_openings == n
        finally:
            telemetry.enable(previous)
        assert folds == [verifier.params.n] * 3
        assert calls == 1 and points > 0
        assert splits == points
        assert batch == agg == [1, points, points]

    def test_empty_batch_is_vacuously_accepted(self, tpch_proven):
        *_, verifier = tpch_proven
        report = verifier.batch_verify([])
        assert report.accepted and report.proofs == 0


class TestAggregateSoundness:
    """The ``PDBA`` aggregate envelope must accept zero tampered
    mutations, mirroring :class:`TestBatchSoundness`: the transportable
    aggregated claim is an optimization over per-proof verification,
    not a relaxation."""

    @pytest.fixture(scope="class")
    def tpch_aggregate(self, tpch_proven):
        _, response, _, verifier = tpch_proven
        agg = aggregate([response, response], verifier.params)
        return verifier, agg, agg.to_bytes()

    def test_honest_aggregate_accepted(self, tpch_aggregate):
        verifier, _, data = tpch_aggregate
        assert check_tampered_aggregate(verifier, data) == "accepted"
        report = verifier.verify_aggregate(data)
        assert report.accepted and report.proofs == 2

    def test_sampled_byte_mutations_rejected(self, tpch_aggregate):
        verifier, _, data = tpch_aggregate
        report = run_aggregate_tamper_suite(
            verifier, data, stride=max(1, len(data) // 6)
        )
        assert report.accepted == [], report.summary()
        # Both rejection surfaces were actually exercised: the strict
        # wire gate and the cryptographic fold.
        assert report.rejected_decode > 0
        assert report.rejected_verify > 0
