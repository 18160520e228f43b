"""Baselines: the GKR/sumcheck stack (Libra) and the ZKSQL simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import SCALAR_FIELD as F
from repro.baselines.cost_models import (
    PAPER,
    PaperCalibration,
    circuit_rows_for_scale,
)
from repro.baselines.gkr import (
    Gate,
    GateKind,
    LayeredCircuit,
    MultilinearPoly,
    gkr_prove,
    gkr_verify,
)
from repro.baselines.gkr.multilinear import eq_eval, eq_weights
from repro.baselines.gkr.sql_circuits import DagBuilder, filter_sum_circuit
from repro.baselines.gkr.sumcheck import sumcheck_prove, sumcheck_verify
from repro.baselines.zksql import ZkSqlSimulator
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.tpch import QUERIES, generate
from repro.transcript import Transcript


class TestMultilinear:
    def test_boolean_points_recover_table(self):
        values = [5, 9, 2, 7]
        ml = MultilinearPoly(values)
        for i, v in enumerate(values):
            point = [(i >> j) & 1 for j in range(2)]
            assert ml.evaluate(point) == v

    def test_eq_weights_are_basis(self, rng):
        values = [rng.randrange(F.p) for _ in range(8)]
        ml = MultilinearPoly(values)
        point = [F.rand() for _ in range(3)]
        weights = eq_weights(point)
        assert sum(v * w for v, w in zip(values, weights)) % F.p == ml.evaluate(point)

    def test_eq_eval_on_booleans(self):
        assert eq_eval([1, 0], [1, 0]) == 1
        assert eq_eval([1, 0], [0, 0]) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            MultilinearPoly([1, 2, 3])

    def test_fold_first(self):
        ml = MultilinearPoly([1, 2, 3, 4])
        r = F.rand()
        folded = ml.fold_first(r)
        assert folded.evaluate([0]) == ml.evaluate([r, 0])


class TestSumcheck:
    def _tables(self, m, rng):
        size = 1 << m
        return tuple(
            [rng.randrange(F.p) for _ in range(size)] for _ in range(4)
        )

    def test_roundtrip(self, rng):
        tables = self._tables(4, rng)
        a, b, c, d = tables
        claim = sum(
            (a[i] * (b[i] + c[i]) + d[i] * b[i] * c[i]) % F.p
            for i in range(16)
        ) % F.p
        tp = Transcript(b"sc")
        proof, point, finals = sumcheck_prove(tables, tp)
        tv = Transcript(b"sc")
        ok, challenges, reduced = sumcheck_verify(claim, proof, tv)
        assert ok and challenges == point
        fa, fb, fc, fd = finals
        assert reduced == (fa * (fb + fc) + fd * fb * fc) % F.p
        # finals really are the multilinear evaluations at the point
        assert MultilinearPoly(list(tables[0])).evaluate(point) == fa

    def test_wrong_claim_rejected(self, rng):
        tables = self._tables(3, rng)
        tp = Transcript(b"sc")
        proof, _, _ = sumcheck_prove(tables, tp)
        tv = Transcript(b"sc")
        ok, _, _ = sumcheck_verify(12345, proof, tv)
        assert not ok


class TestGkr:
    def _random_circuit(self, width, depth, rng):
        circuit = LayeredCircuit(width)
        for _ in range(depth):
            circuit.add_layer(
                [
                    Gate(
                        rng.choice([GateKind.ADD, GateKind.MUL]),
                        rng.randrange(width),
                        rng.randrange(width),
                    )
                    for _ in range(width)
                ]
            )
        inputs = [0, 1] + [rng.randrange(1000) for _ in range(width - 2)]
        return circuit, inputs

    def test_honest_proof_verifies(self, rng):
        circuit, inputs = self._random_circuit(8, 3, rng)
        proof = gkr_prove(circuit, inputs)
        assert gkr_verify(circuit, inputs, proof)

    def test_tampered_output_rejected(self, rng):
        circuit, inputs = self._random_circuit(8, 3, rng)
        proof = gkr_prove(circuit, inputs)
        proof.outputs[0] = (proof.outputs[0] + 1) % F.p
        assert not gkr_verify(circuit, inputs, proof)

    def test_tampered_layer_claim_rejected(self, rng):
        circuit, inputs = self._random_circuit(8, 3, rng)
        proof = gkr_prove(circuit, inputs)
        proof.layers[1].w_u = (proof.layers[1].w_u + 1) % F.p
        assert not gkr_verify(circuit, inputs, proof)

    def test_wrong_inputs_rejected(self, rng):
        circuit, inputs = self._random_circuit(8, 3, rng)
        proof = gkr_prove(circuit, inputs)
        other = list(inputs)
        other[3] = (other[3] + 1) % F.p
        assert not gkr_verify(circuit, other, proof)

    def test_input_zero_convention(self):
        circuit = LayeredCircuit(4)
        circuit.add_layer([Gate(GateKind.ADD, 2, 3)])
        with pytest.raises(ValueError):
            circuit.evaluate([7, 1, 2, 3])

    def test_out_of_range_gate_rejected(self):
        circuit = LayeredCircuit(4)
        with pytest.raises(ValueError):
            circuit.add_layer([Gate(GateKind.ADD, 0, 9)])


class TestLibraSqlCircuits:
    def test_dag_builder_arithmetic(self):
        builder = DagBuilder(4)
        x = builder.input(3)
        y = builder.mul(builder.add(x, builder.one), x)  # (x+1)*x
        circuit, stats = builder.build([y])
        out = circuit.evaluate([0, 1, F.p - 1, 6])
        assert out[-1][0] == 42
        assert stats["depth"] >= 2

    @given(threshold=st.integers(0, 255))
    @settings(max_examples=5, deadline=None)
    def test_filter_sum_matches_python(self, threshold):
        rng = random.Random(threshold)
        values = [rng.randrange(256) for _ in range(4)]
        circuit, inputs, _ = filter_sum_circuit(values, threshold, bits=8)
        out = circuit.evaluate(inputs)
        assert out[-1][0] == sum(v for v in values if v < threshold)

    def test_gkr_over_filter_sum(self):
        values = [10, 200, 50, 180]
        circuit, inputs, stats = filter_sum_circuit(values, 100, bits=8)
        assert stats["relays"] > 0  # the paper's relay-gate overhead
        proof = gkr_prove(circuit, inputs)
        assert gkr_verify(circuit, inputs, proof)


class TestZkSqlSimulator:
    @pytest.fixture(scope="class")
    def planner(self):
        return Planner(generate(64))

    def test_q1_cheaper_than_q5(self, planner):
        sizes = {
            "lineitem": 60_000, "orders": 15_000, "customer": 1_500,
            "part": 2_000, "partsupp": 8_000, "supplier": 100,
            "nation": 25, "region": 5,
        }
        sim = ZkSqlSimulator(sizes)
        q1 = sim.estimate(planner.plan(parse(QUERIES["Q1"])), "Q1")
        q5 = sim.estimate(planner.plan(parse(QUERIES["Q5"])), "Q5")
        assert q1.total_gates < q5.total_gates  # joins dominate
        assert q1.proving_seconds > 0
        assert q5.total_rounds > q1.total_rounds  # more operators

    def test_memory_model_positive(self, planner):
        sim = ZkSqlSimulator({"lineitem": 60_000, "orders": 15_000,
                              "customer": 1_500})
        est = sim.estimate(planner.plan(parse(QUERIES["Q1"])), "Q1")
        assert est.memory_bytes > 0


class TestCalibration:
    def test_circuit_rows_match_paper_table2(self):
        # 60k lineitem needs 2^17 rows; 240k needs 2^19 > paper's 2^18
        # (the paper packs tighter; same order of magnitude).
        assert circuit_rows_for_scale(60_000) == 1 << 17
        assert circuit_rows_for_scale(240_000) >= 1 << 18

    def test_anchor_reproduces_q1(self):
        cal = PaperCalibration.from_q1(q1_work=500.0)
        assert cal.proving_seconds(500.0, 60_000) == pytest.approx(
            PAPER["fig10_q1_seconds"][60_000]
        )
        assert cal.memory_gb(500.0, 60_000) == pytest.approx(1.53)

    def test_estimates_scale_linearly(self):
        cal = PaperCalibration.from_q1(q1_work=500.0)
        t60 = cal.proving_seconds(500.0, 60_000)
        t240 = cal.proving_seconds(500.0, 240_000)
        # Paper's Q1 ratio is 683/180 = 3.79 (super-base-linear).
        assert 2.5 < t240 / t60 < 5.5
