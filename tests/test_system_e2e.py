"""End-to-end system tests: commitment, audit, real proofs, scan-link
binding, and every rejection path a malicious prover could hit.

These run the full cryptographic pipeline at k=7, so they are the
slowest tests in the suite; the shared module fixture amortizes setup.
"""

import copy

import pytest

from repro import PoneglyphDB
from repro.commit import setup
from repro.config import ProverConfig
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT, STRING
from repro.errors import ContractError
from repro.soundness import (
    ProverFaults,
    merge_groups,
    misorder_rows,
    truncate_result,
)
from repro.system import ProverNode, VerifierNode, audit
from repro.tpch import generate

K = 7
CONFIG = ProverConfig(
    k=K, limb_bits=4, value_bits=24, key_bits=16, use_cache=False
)
SQL = (
    "select a_region, sum(a_balance) as total, count(*) as cnt "
    "from accounts where a_balance >= 75 group by a_region "
    "order by total desc"
)


@pytest.fixture(scope="module")
def system():
    db = Database()
    db.create_table(
        TableSchema(
            "accounts",
            [
                ColumnDef("a_id", INT),
                ColumnDef("a_region", STRING),
                ColumnDef("a_balance", INT),
            ],
            primary_key="a_id",
        ),
        [
            (1, "west", 500),
            (2, "east", 120),
            (3, "west", 75),
            (4, "east", 310),
            (5, "west", 45),
        ],
    )
    params = setup(K)
    prover = ProverNode(db, params, config=CONFIG)
    commitment = prover.publish_commitment()
    verifier = VerifierNode(params, prover.public_metadata(), commitment)
    response = prover.answer(SQL)
    return db, params, prover, verifier, commitment, response


class TestHappyPath:
    def test_result_decoded(self, system):
        *_, response = system
        assert response.result == [["west", 575, 2], ["east", 430, 2]]
        assert response.column_names == ["accounts.a_region", "total", "cnt"]

    def test_proof_accepted(self, system):
        _, _, _, verifier, _, response = system
        report = verifier.verify(response)
        assert report.accepted, report.reason
        assert report.proof_size_bytes == response.proof_size_bytes

    def test_accumulated_verification(self, system):
        _, _, _, verifier, _, response = system
        report = verifier.batch_verify([response, response])
        assert report.accepted, report.reason
        assert report.deferred_openings == 2  # one opening per proof

    def test_audit(self, system):
        db, params, prover, *_ = system
        cert = audit(db, prover.commitment, prover._secrets, params)
        assert cert.valid

    def test_timing_recorded(self, system):
        *_, response = system
        assert response.timing.total > 0
        assert response.timing.commit_advice > 0

    def test_answer_requires_commitment(self, system):
        db, params, *_ = system
        fresh = ProverNode(db, params, config=CONFIG)
        with pytest.raises(RuntimeError):
            fresh.answer(SQL)


class TestWireFormat:
    def test_roundtrip_through_rebuilt_vk(self, system):
        """The verifier's independently-rebuilt vk decodes the wire
        bytes back to exactly the prover's proof object."""
        from repro.proving.proof import Proof

        _, _, _, verifier, _, response = system
        _, vk = verifier.rebuild_verifying_key(
            response.sql, len(response.result_encoded)
        )
        decoded = Proof.from_bytes(vk, response.wire_bytes())
        assert decoded == response.proof
        assert decoded.to_bytes() == response.wire_bytes()

    def test_response_carries_wire_bytes(self, system):
        *_, response = system
        assert response.proof_bytes
        assert response.wire_bytes() == response.proof_bytes
        assert response.proof_size_bytes == len(response.proof_bytes)


class TestRejections:
    def test_tampered_result_value(self, system):
        _, _, _, verifier, _, response = system
        bad = copy.deepcopy(response)
        bad.result_encoded[0][1] += 1
        assert not verifier.verify(bad).accepted

    def test_dropped_result_row(self, system):
        _, _, _, verifier, _, response = system
        bad = copy.deepcopy(response)
        bad.result_encoded.pop()
        assert not verifier.verify(bad).accepted

    def test_extra_result_row(self, system):
        _, _, _, verifier, _, response = system
        bad = copy.deepcopy(response)
        bad.result_encoded.append([1, 1, 1])
        assert not verifier.verify(bad).accepted

    def test_wrong_query_text(self, system):
        _, _, _, verifier, _, response = system
        bad = copy.deepcopy(response)
        bad.sql = SQL.replace(">= 75", ">= 100")
        assert not verifier.verify(bad).accepted

    def test_tampered_scan_delta(self, system):
        _, _, _, verifier, _, response = system
        bad = copy.deepcopy(response)
        bad.scan_links[0].delta += 1
        report = verifier.verify(bad)
        assert not report.accepted
        assert "committed database" in report.reason or "scan" in report.reason

    def test_proof_over_different_database(self, system):
        """A prover with a *different* database cannot pass the
        scan-link check against the published commitment."""
        db, params, _, verifier, _, _ = system
        other = Database()
        other.create_table(
            TableSchema(
                "accounts",
                [
                    ColumnDef("a_id", INT),
                    ColumnDef("a_region", STRING),
                    ColumnDef("a_balance", INT),
                ],
                primary_key="a_id",
            ),
            [
                (1, "west", 999),  # inflated balance
                (2, "east", 120),
                (3, "west", 75),
                (4, "east", 310),
                (5, "west", 45),
            ],
        )
        rogue = ProverNode(other, params, config=CONFIG)
        rogue.publish_commitment()  # its own commitment, not the published one
        response = rogue.answer(SQL)
        report = verifier.verify(response)  # against the ORIGINAL commitment
        assert not report.accepted

    def test_malformed_sql_rejected(self, system):
        _, _, _, verifier, _, response = system
        bad = copy.deepcopy(response)
        bad.sql = "select ??? from"
        report = verifier.verify(bad)
        assert not report.accepted
        assert "recompilation" in report.reason

    def test_truncated_proof_bytes_rejected(self, system):
        _, _, _, verifier, _, response = system
        bad = copy.deepcopy(response)
        bad.proof_bytes = response.wire_bytes()[:-5]
        report = verifier.verify(bad)
        assert not report.accepted
        assert "decode" in report.reason

    def test_bitflipped_proof_bytes_rejected(self, system):
        _, _, _, verifier, _, response = system
        honest = response.wire_bytes()
        flipped = bytearray(honest)
        flipped[len(honest) // 2] ^= 0x40
        bad = copy.deepcopy(response)
        bad.proof_bytes = bytes(flipped)
        assert not verifier.verify(bad).accepted

    def test_proof_for_different_query_rejected(self, system):
        """Replaying query B's (valid) proof bytes against query A's vk
        must fail: the decoder pins the proof shape to A's circuit."""
        _, _, prover, verifier, _, response = system
        other = prover.answer("select count(*) as n from accounts")
        assert verifier.verify(other).accepted  # honest on its own
        bad = copy.deepcopy(response)
        bad.proof_bytes = other.wire_bytes()
        bad.proof = other.proof
        report = verifier.verify(bad)
        assert not report.accepted

    def test_audit_rejects_modified_database(self, system):
        db, params, prover, *_ = system
        other = Database()
        other.create_table(
            TableSchema(
                "accounts",
                [
                    ColumnDef("a_id", INT),
                    ColumnDef("a_region", STRING),
                    ColumnDef("a_balance", INT),
                ],
                primary_key="a_id",
            ),
            [(1, "west", 1)] + [
                (i, "east", 2) for i in range(2, 6)
            ],
        )
        cert = audit(other, prover.commitment, prover._secrets, params)
        assert not cert.valid


class TestCheatingProver:
    """Wrong answers from a prover that rewrites its witness
    (``ProverFaults.rewrite_witness``): each is self-consistent but for
    one gate, so a proof comes out -- and is rejected."""

    @pytest.mark.parametrize(
        "sql, cheat, claimed",
        [
            (SQL, truncate_result, [["west", 575, 2]]),
            (SQL, misorder_rows, [["east", 430, 2], ["west", 575, 2]]),
            (
                "select a_region, count(*) as cnt from accounts group by a_region",
                merge_groups,
                [["west", 5]],
            ),
        ],
    )
    def test_witness_cheat_is_rejected(self, system, sql, cheat, claimed):
        _, _, prover, verifier, *_ = system
        response = prover.answer(sql, _faults=ProverFaults(rewrite_witness=cheat))
        assert response.result == claimed
        report = verifier.verify(response)
        assert not report.accepted and report.reason == "proof rejected"


class TestCommitmentContract:
    """The bounds circuits are sized on are checked where the database
    is committed and where it is audited; a proof over cells the
    commitment does not hold breaks its scan link."""

    @staticmethod
    def with_cell(db, column, value):
        other = copy.deepcopy(db)
        other.table("accounts").column(column)[0] = value
        return other

    @pytest.mark.parametrize(
        "column, value, bound",
        [("a_region", 3, 2), ("a_region", 0, 2), ("a_balance", 1 << 24, (1 << 24) - 1)],
    )
    def test_commit_and_audit_refuse(self, system, column, value, bound):
        db, params, prover, *_ = system
        other = self.with_cell(db, column, value)
        with pytest.raises(ContractError) as err:
            ProverNode(other, params, config=CONFIG).publish_commitment()
        assert (err.value.table, err.value.column, err.value.row) == (
            "accounts", column, 0,
        )
        assert (err.value.value, err.value.bound) == (value, bound)
        cert = audit(
            other, prover.commitment, prover._secrets, params, CONFIG.value_bits
        )
        assert not cert.valid and f"accounts.{column} row 0" in cert.detail

    def test_proof_over_an_uncommitted_cell_breaks_the_scan_link(self, system):
        db, _, prover, verifier, *_ = system
        cheater = prover.worker_clone()
        cheater.db = self.with_cell(db, "a_region", 3)  # no such region
        response = cheater.answer(SQL)
        report = verifier.verify(response)
        assert not report.accepted and "scan link broken" in report.reason


@pytest.fixture(scope="module")
def tpch_q1():
    """TPC-H Q1 over 32 lineitems at k=7 (the benchmark's), answered
    once: ``(params, prover, commitment, response)``."""
    from repro.tpch import QUERIES

    params = setup(K)
    prover = ProverNode(
        generate(32, seed=1),
        params,
        config=ProverConfig(
            k=K, limb_bits=4, value_bits=32, key_bits=40, use_cache=False
        ),
    )
    commitment = prover.publish_commitment()
    return params, prover, commitment, prover.answer(QUERIES["Q1"])


class TestKeys:
    """Keys are built whole and never changed afterwards: the provers of
    one node share them, and the verifier builds commitments only."""

    def test_worker_clone_answers_from_the_shared_memo(self, system):
        _, _, prover, *_ = system
        response = prover.worker_clone().answer(SQL)
        assert response.timing.extra["keygen_warm_hit"] == 1.0

    def test_cold_verify_runs_no_transform(self, tpch_q1):
        from repro import telemetry

        params, prover, commitment, response = tpch_q1
        verifier = VerifierNode(params, prover.public_metadata(), commitment)
        previous = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("fft.calls", 0)
            report = verifier.verify(response)
            after = telemetry.counters_snapshot().get("fft.calls", 0)
        finally:
            telemetry.enable(previous)
        assert report.accepted, report.reason
        assert after - before == 0


def test_case_flag_after_filter_round_trip(tmp_path):
    """ISSUE 18 / B1: an equality flag inside CASE, evaluated on rows an
    earlier filter dropped.  The hand-written witness answered 0 there
    while the constraint evaluates to 1, so the honest prover's proof
    was rejected; a witness computed from the constraints verifies."""
    config = ProverConfig(
        k=6, limb_bits=4, value_bits=32, key_bits=40,
        cache_dir=tmp_path / "cache",
    )
    with PoneglyphDB.open(generate(16, seed=1), config) as session:
        session.commit()
        response = session.prove(
            "select sum(case when n_regionkey = 1 then n_nationkey else 0 "
            "end) as s from nation where n_nationkey > 10"
        )
        assert response.result_encoded == [[48]]
        report = session.verify(response)
        assert report.accepted, report.reason
