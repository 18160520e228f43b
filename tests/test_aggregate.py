"""Aggregated proof claims: the PDBA wire format, one-MSM batch
verification, the epoch audit hook, and the Accumulator lifecycle
regressions (params fingerprint binding, finalize-consumes semantics)
plus the vk-cache key fix.  Tampered entries and their attribution are
``tests/test_soundness.py::TestClaimLevelTampering``.

Two layers:

- Real-crypto end-to-end over a small TPC-H instance (module-scoped
  fixture, shared with the soundness-style tamper checks): two proved
  queries fold into one ``AggProof``, round-trip through ``PDBA``
  bytes, and verify with one accumulator finalize.
- Pure accumulator state-machine tests over small IPA openings (k=6).
"""

import copy

import pytest

from repro import PoneglyphDB, ProverConfig
from repro.algebra import SCALAR_FIELD
from repro.algebra.domain import EvaluationDomain
from repro.algebra.poly import evaluate_coeffs
from repro.commit import commit_polynomial, open_polynomial, setup
from repro.errors import StateError, WireFormatError
from repro.proving.aggregate import (
    AGG_MAGIC,
    AggEntry,
    AggProof,
    ScanLinkClaim,
    aggregate,
)
from repro.proving.recursion import Accumulator
from repro.system.audit import audit_aggregate
from repro.transcript import Transcript
from repro.wire import SCALAR_BYTES

F = SCALAR_FIELD

TPCH_K = 7
SQL_NATION = "select count(*) as n from nation where n_regionkey >= 2"
SQL_REGION = "select count(*) as n from region"


@pytest.fixture(scope="module")
def agg_run():
    """Two proved TPC-H queries, their aggregate, and its wire bytes."""
    from repro.tpch import generate

    db = generate(64, seed=11)
    config = ProverConfig(
        k=TPCH_K, limb_bits=4, value_bits=24, key_bits=16, use_cache=False
    )
    with PoneglyphDB.open(db, config) as session:
        session.commit()
        responses = [session.prove(SQL_NATION), session.prove(SQL_REGION)]
        agg = session.aggregate(responses)
        return session, responses, agg, agg.to_bytes()


# -- the PDBA wire format ---------------------------------------------------


class TestWireFormat:
    def test_roundtrip(self, agg_run):
        _, _, agg, data = agg_run
        decoded = AggProof.from_bytes(data)
        assert decoded == agg
        assert decoded.to_bytes() == data

    def test_entries_are_the_responses_claims(self, agg_run):
        _, responses, agg, _ = agg_run
        assert agg.entries == [AggEntry.from_response(r) for r in responses]
        # One scan-link class from prover to wire.
        links = [link for r in responses for link in r.scan_links]
        assert links and all(type(link) is ScanLinkClaim for link in links)

    def test_header_and_fingerprint(self, agg_run):
        session, _, agg, data = agg_run
        assert data[:4] == AGG_MAGIC
        assert agg.params_fingerprint == bytes.fromhex(
            session.params.fingerprint()
        )
        assert agg.proofs == 2
        assert agg.size_bytes() == len(data)

    def test_digest_pins_content(self, agg_run):
        _, _, agg, _ = agg_run
        assert len(agg.digest()) == 20
        forged = copy.deepcopy(agg)
        forged.entries[0].result_encoded[0][0] += 1
        assert forged.digest() != agg.digest()

    def test_empty_aggregate_rejected(self, agg_run):
        session, _, agg, _ = agg_run
        with pytest.raises(ValueError, match="zero proofs"):
            aggregate([], session.params)
        with pytest.raises(ValueError, match="empty aggregate"):
            AggProof(agg.params_fingerprint, []).to_bytes()
        # An encoded zero count must die in the strict decoder too.
        forged = data = agg.to_bytes()
        forged = data[:24] + (0).to_bytes(4, "little") + data[28:]
        with pytest.raises(WireFormatError, match="at least one"):
            AggProof.from_bytes(forged)

    def test_bad_magic_rejected(self, agg_run):
        *_, data = agg_run
        with pytest.raises(WireFormatError, match="aggregate header"):
            AggProof.from_bytes(b"PDB2" + data[4:])

    def test_trailing_bytes_rejected(self, agg_run):
        *_, data = agg_run
        with pytest.raises(WireFormatError, match="trailing"):
            AggProof.from_bytes(data + b"\x00")

    def test_noncanonical_scalar_rejected(self, agg_run):
        _, _, agg, _ = agg_run
        # to_bytes refuses a scalar outside [0, p) (a claim is encoded
        # as it stands or not at all)...
        for shift in (F.p, -F.p):
            shifted = copy.deepcopy(agg)
            shifted.entries[0].scan_links[0].delta += shift
            with pytest.raises(ValueError, match="non-canonical"):
                shifted.to_bytes()
        # ...and from_bytes rejects any >= p encoding outright.  The
        # first result scalar sits right after the entry's sql blob.
        data = agg.to_bytes()
        sql_len = len(agg.entries[0].sql.encode())
        off = 4 + 20 + 4 + 4 + sql_len + 4 + 4
        value = int.from_bytes(data[off : off + SCALAR_BYTES], "little")
        forged = (
            data[:off]
            + (value + F.p).to_bytes(SCALAR_BYTES, "little")
            + data[off + SCALAR_BYTES :]
        )
        with pytest.raises(WireFormatError, match="non-canonical"):
            AggProof.from_bytes(forged)

    def test_entry_without_proof_header_rejected(self, agg_run):
        _, _, agg, _ = agg_run
        forged = copy.deepcopy(agg)
        forged.entries[1].proof_bytes = b"\x00" * 64
        with pytest.raises(WireFormatError, match="proof header"):
            AggProof.from_bytes(forged.to_bytes())

    def test_ragged_result_rows_unserializable(self, agg_run):
        _, _, agg, _ = agg_run
        forged = copy.deepcopy(agg)
        forged.entries[0].result_encoded.append([1, 2, 3])
        with pytest.raises(ValueError, match="rectangular"):
            forged.to_bytes()


# -- verify_aggregate -------------------------------------------------------


class TestVerifyAggregate:
    def test_accepts_honest_bytes(self, agg_run):
        session, _, _, data = agg_run
        report = session.verify_aggregate(data)
        assert report.accepted, report.reason
        assert report.proofs == 2
        assert all(rep.accepted for rep in report.reports)
        assert report.deferred_openings >= 2
        assert report.aggregate_size_bytes == len(data)

    def test_accepts_decoded_object(self, agg_run):
        session, _, agg, _ = agg_run
        assert session.verify_aggregate(agg).accepted

    def test_matches_batch_verify(self, agg_run):
        session, responses, _, data = agg_run
        assert session.batch_verify(responses).accepted
        assert session.verify_aggregate(data).accepted

    def test_unserializable_object_rejected_not_raised(self, agg_run):
        session, _, agg, _ = agg_run
        ragged = copy.deepcopy(agg)
        ragged.entries[0].result_encoded.append([1, 2, 3])
        negative = copy.deepcopy(agg)
        negative.entries[0].scan_links[0].advice_index = -1
        for bad in (AggProof(agg.params_fingerprint, []), ragged, negative):
            report = session.verify_aggregate(bad)
            assert not report.accepted and report.reports == []
            assert "not serializable" in report.reason
            cert = session.audit_aggregate(bad)
            assert not cert.valid and "not serializable" in cert.detail

    def test_garbage_rejected_at_decode(self, agg_run):
        session, *_ = agg_run
        report = session.verify_aggregate(b"not an aggregate")
        assert not report.accepted
        assert "decode failed" in report.reason

    def test_foreign_fingerprint_rejected(self, agg_run):
        session, _, agg, _ = agg_run
        forged = copy.deepcopy(agg)
        forged.params_fingerprint = bytes(20)
        report = session.verify_aggregate(forged.to_bytes())
        assert not report.accepted
        assert "different public parameters" in report.reason


# -- the epoch audit hook ---------------------------------------------------


class TestAuditAggregate:
    def test_attests_honest_aggregate(self, agg_run):
        session, _, agg, data = agg_run
        cert = audit_aggregate(session.verifier(), data)
        assert cert.valid, cert.detail
        assert cert.proofs == 2
        assert cert.digest == agg.digest()
        # The facade path agrees.
        assert session.audit_aggregate(agg).valid

    def test_rejects_tampered_aggregate(self, agg_run):
        session, _, agg, _ = agg_run
        forged = copy.deepcopy(agg)
        forged.entries[0].result_encoded[0][0] += 1
        cert = session.audit_aggregate(forged)
        assert not cert.valid
        assert cert.digest != agg.digest()

    def test_rejects_undecodable_bytes(self, agg_run):
        session, *_ = agg_run
        cert = session.audit_aggregate(b"PDBA" + b"\x00" * 3)
        assert not cert.valid
        assert "decode failed" in cert.detail


# -- Accumulator lifecycle regressions --------------------------------------


def _defer_real_opening(acc, params, value_offset=0):
    """Defer one honestly-opened IPA claim (optionally with a wrong
    claimed value, which survives the structural checks but must fail
    the folded MSM)."""
    coeffs = [3 * i + 1 for i in range(20)]
    blind = F.rand()
    commitment = commit_polynomial(params, coeffs, blind)
    x = F.rand()
    value = (evaluate_coeffs(coeffs, x, F.p) + value_offset) % F.p
    tp = Transcript(b"t")
    values = EvaluationDomain(F, params.k).fft(coeffs)
    proof = open_polynomial(params, tp, values, blind, x)
    tv = Transcript(b"t")
    return acc.defer_opening(params, tv, ([commitment], [1]), x, value, proof)


class TestAccumulatorLifecycle:
    @pytest.fixture(scope="class")
    def params_k6(self):
        return setup(6)

    def test_same_size_different_generators_rejected(self, params_k6):
        # Regression: the old check compared only params.n, so a
        # same-size parameter set with different generators folded into
        # the wrong bases and verified nothing.
        other = setup(6, label=b"other")
        assert other.n == params_k6.n
        assert other.fingerprint() != params_k6.fingerprint()
        acc = Accumulator(params_k6)
        with pytest.raises(StateError, match="different public parameters"):
            acc.defer_opening(other, Transcript(b"t"), None, 0, 0, None)
        # The mismatch must not have consumed or polluted the state.
        assert acc.deferred_count == 0
        assert _defer_real_opening(acc, params_k6)
        assert acc.finalize()

    def test_finalize_consumes_on_success(self, params_k6):
        # Regression: finalize used to leave _scalars/_residual intact,
        # so a reused accumulator re-folded stale claims.
        acc = Accumulator(params_k6)
        assert _defer_real_opening(acc, params_k6)
        assert acc.finalize()
        assert acc.consumed
        with pytest.raises(StateError, match="already consumed"):
            _defer_real_opening(acc, params_k6)
        with pytest.raises(StateError, match="already consumed"):
            acc.finalize()

    def test_finalize_consumes_on_failure(self, params_k6):
        acc = Accumulator(params_k6)
        assert _defer_real_opening(acc, params_k6, value_offset=1)
        assert not acc.finalize()
        with pytest.raises(StateError, match="already consumed"):
            acc.finalize()

    def test_empty_finalize_still_consumes(self, params_k6):
        acc = Accumulator(params_k6)
        assert acc.finalize()
        with pytest.raises(StateError, match="already consumed"):
            _defer_real_opening(acc, params_k6)


class TestVkCacheKey:
    def test_cache_keyed_by_params_fingerprint(self, agg_run):
        # Regression: the memo key was (sql, result_rows) only, so a
        # verifier whose params change across sessions served a vk
        # compiled for the wrong generators.
        session, responses, _, _ = agg_run
        verifier = session.verifier()
        sql, rows = responses[0].sql, len(responses[0].result_encoded)
        _, vk1 = verifier.rebuild_verifying_key(sql, rows)
        _, vk1_again = verifier.rebuild_verifying_key(sql, rows)
        assert vk1_again is vk1  # memoized under the current params
        original = verifier.params
        try:
            verifier.params = setup(original.k, label=b"other")
            _, vk2 = verifier.rebuild_verifying_key(sql, rows)
            # A fresh vk compiled under the new generators -- never the
            # cached one for the old params.
            assert vk2 is not vk1
            assert vk2.fixed_commitments != vk1.fixed_commitments
        finally:
            verifier.params = original
        _, vk3 = verifier.rebuild_verifying_key(sql, rows)
        assert vk3 is vk1  # the old entry is still served for old params
