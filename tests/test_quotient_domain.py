"""The quotient's evaluation domain is sized by the quotient.

``ConstraintSystem.quotient_extension`` gives the prover a coset of
``2^ceil(log2(degree - 1)) * n`` points: just enough to determine ``h``
when ``required_degree`` is right, and no longer enough to hide it when
``required_degree`` under-counts.  The oracle here recomputes ``h`` on
a coset of twice the size -- which has the slack the old ``degree * n``
sizing had -- and wants the same pieces; the cost model has to predict
the number of pieces the prover then commits.
"""

import sys
from dataclasses import replace

import pytest

from repro.algebra import SCALAR_FIELD as F
from repro.algebra.domain import EvaluationDomain
from repro.commit import setup
from repro.plonkish import Assignment
from repro.proving import create_proof, keygen, prover
from repro.proving.keygen import PERMUTATION_CHUNK
from repro.proving.proof import Proof
from repro.sql.compiler import QueryCompiler
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.telemetry import CircuitReport
from repro.tpch import QUERIES, generate
from tests.conftest import (
    EXAMPLE_K,
    example_assignment,
    example_circuit,
    two_chunk_shuffle_circuit,
)


def _example():
    cs, cols = example_circuit()
    asg, _ = example_assignment(cs, cols)
    return cs, asg, EXAMPLE_K


def _two_chunk_shuffle():
    cs, asg, _ = two_chunk_shuffle_circuit()
    return cs, asg, EXAMPLE_K


def _query(sql, k, rows=8, value_bits=32, key_bits=40):
    def build():
        db = generate(rows, seed=11)
        compiled = QueryCompiler(
            db, k, limb_bits=4, value_bits=value_bits, key_bits=key_bits
        ).compile(Planner(db).plan(parse(sql)))
        asg = Assignment(compiled.cs, k)
        compiled.assign_witness(asg, db)
        return compiled.cs, asg, k

    return build


#: Q8 and Q9 extract a year through a calendar lookup table, one row
#: per year; the fixture ends the calendar at LAST_YEAR to fit it.
TPCH_K = {"Q1": 5, "Q3": 5, "Q5": 5, "Q8": 6, "Q9": 6, "Q18": 5}
LAST_YEAR = 2020
#: The three circuits behind the golden digests of test_proving.py,
#: then the six TPC-H queries.
CIRCUITS = {
    "example": _example,
    "two_chunk_shuffle": _two_chunk_shuffle,
    "nation_count": _query(
        "select count(*) as n from nation where n_regionkey >= 2",
        6, rows=16, value_bits=24, key_bits=16,
    ),
    **{name: _query(QUERIES[name], TPCH_K[name]) for name in QUERIES},
}


@pytest.fixture(scope="module")
def params():
    return setup(6)


@pytest.fixture(scope="module", params=list(CIRCUITS))
def after_quotient(request, params):
    """``(cs, k, state)``: the prover's state once round 4 has run.

    The quotient is a statement about polynomials, so the columns'
    commitments (most of a proof's time) are stubbed out: rounds 1-3
    still build every polynomial, the challenges are just different
    ones.  The quotient pieces are committed for real."""
    seen = []

    def quotient(state):
        seen.append(state)
        return prover.quotient(state)

    def no_commitments(params, items):
        return [params.curve.identity()] * len(items)

    with pytest.MonkeyPatch.context() as patch:
        # (the package re-exports the function under the module's name)
        patch.setattr(
            sys.modules["repro.proving.keygen"], "commit_lagrange_many", no_commitments
        )
        patch.setattr(prover, "commit_lagrange_many", no_commitments)
        patch.setattr(
            prover,
            "ROUNDS",
            prover.ROUNDS[:3] + (("prove.quotient", "quotient", quotient),),
        )
        patch.setattr("repro.gates.datetime.LAST_YEAR", LAST_YEAR)
        cs, asg, k = CIRCUITS[request.param]()
        pk = keygen(params, cs, k, asg.fixed)
        create_proof(pk, asg)
    return cs, k, seen[0]


def _pieces(state):
    return [
        state.polys[("h_commitments", i)].coeffs
        for i in range(len(state.proof.h_commitments))
    ]


def test_quotient_is_the_same_on_a_domain_twice_the_size(after_quotient):
    _, _, state = after_quotient
    pk = state.pk
    big = EvaluationDomain(F, pk.extended_domain.k + 1)
    # Every extended evaluation is recomputed over the larger coset:
    # the system selectors here, everything else lazily in quotient().
    wide_pk = replace(
        pk,
        extended_domain=big,
        system={
            name: replace(
                poly, extended_evals=big.coset_fft(poly.coeffs, pk.coset_shift)
            )
            for name, poly in pk.system.items()
        },
    )
    wide = replace(
        state,
        pk=wide_pk,
        proof=Proof([], [], [], [], []),
        polys={
            path: replace(poly, extended_evals=None)
            for path, poly in state.polys.items()
            if path[0] != "h_commitments"
        },
    )
    prover.quotient(wide)
    assert _pieces(wide) == _pieces(state)


@pytest.mark.parametrize(
    "name, degree",
    [("Q1", 5), ("Q3", 5), ("Q5", 5), ("Q8", 6), ("Q9", 5), ("Q18", 5)],
)
def test_gates_not_lookups_set_the_tpch_degree(monkeypatch, name, degree):
    """A lookup helper group is packed into the degree the rest of the
    circuit requires, so every TPC-H query sits at ``max gate degree +
    1``: 5 (a 4n quotient domain, 4 chunks) but for Q8, whose degree-5
    ``aggarg.*.eq`` gate keeps it at 6 (8n, 5 chunks)."""
    monkeypatch.setattr("repro.gates.datetime.LAST_YEAR", LAST_YEAR)
    cs, _, _ = CIRCUITS[name]()
    assert cs.required_degree(PERMUTATION_CHUNK) == degree
    assert cs.max_gate_degree() + 1 == degree


def test_cost_model_predicts_the_committed_chunks(after_quotient):
    cs, k, state = after_quotient
    report = CircuitReport.from_constraint_system(cs, k, PERMUTATION_CHUNK)
    committed = len(state.proof.h_commitments)
    assert report.commitment_msm_sizes()["quotient_chunks"] == committed
    assert committed <= 1 << (state.pk.vk.extended_k - k)
    assert report.extended_k == state.pk.vk.extended_k
