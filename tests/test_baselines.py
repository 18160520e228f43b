"""Baselines: the GKR/sumcheck stack (Libra)."""

import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import baselines
from repro.algebra import SCALAR_FIELD as F
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


def test_package_is_the_gkr_baseline_alone():
    """Only the baseline that runs for real lives in the library; the
    paper's ZKSQL numbers are cited by the Fig. 7 script, not modelled."""
    assert [m.name for m in pkgutil.iter_modules(baselines.__path__)] == ["gkr"]
