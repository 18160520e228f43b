"""The quotient's evaluation domain is sized by the quotient.

``ConstraintSystem.quotient_extension`` gives the prover a coset of
``2^ceil(log2(degree - 1)) * n`` points: just enough to determine ``h``
when ``required_degree`` is right, and no longer enough to hide it when
``required_degree`` under-counts.  The prover works through that coset
one n-point part at a time; the oracle (``tests/quotient_oracle.py``)
recomputes ``h`` on the whole coset at once, and on a coset of twice
the size -- which has the slack the old ``degree * n`` sizing had --,
and wants the same pieces.  The cost model has to predict the number
of pieces the prover then commits, and the most coset values the round
holds at once.
"""

import sys

import pytest

from repro import telemetry
from repro.commit import setup
from repro.plonkish import Assignment
from repro.proving import create_proof, keygen, prover
from repro.proving.keygen import PERMUTATION_CHUNK
from repro.proving.protocol import quotient_paths
from repro.sql.compiler import QueryCompiler
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.telemetry import CircuitReport
from repro.tpch import QUERIES, generate
from tests.conftest import (
    EXAMPLE_K,
    NTT_PATHS,
    example_assignment,
    example_circuit,
    route_ntt,
    two_chunk_shuffle_circuit,
)
from tests.quotient_oracle import quotient_on_coset


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


#: Circuits proved again on each NTT path with their whole-coset
#: oracle: Q1 at the benchmark's k=7 (four parts), the protocol paths
#: no TPC-H circuit reaches, and an extension of 8 (Q8: eight parts).
ORACLE_CIRCUITS = {
    "Q1_k7": _query(QUERIES["Q1"], 7, rows=32),
    "two_chunk_shuffle": _two_chunk_shuffle,
    "Q8": CIRCUITS["Q8"],
}
@pytest.fixture(scope="module")
def built():
    """The module's parameter sets and prover states, dropped with it."""
    cache = {}
    yield cache
    cache.clear()


def _after_quotient(built: dict, name: str, path: str = "plan"):
    """``(cs, k, state, peak)``: the prover's state once round 4 has run
    with its NTTs on ``path`` (``tests.conftest.route_ntt``), and the
    peak its telemetry gauge read (cached in ``built``).

    The quotient is a statement about polynomials, so the columns'
    commitments (most of a proof's time) are stubbed out: rounds 1-3
    still build every polynomial, the challenges are just different
    ones.  The quotient pieces are committed for real.  On the engine
    path its threshold is lowered so the n-point parts go through it."""
    if (name, path) in built:
        return built[name, path]
    seen = []

    def quotient(state):
        seen.append(state)
        return prover.quotient(state)

    def no_commitments(params, items):
        return [params.curve.identity()] * len(items)

    build = {**CIRCUITS, **ORACLE_CIRCUITS}[name]
    previous = telemetry.enable(True)
    try:
        with pytest.MonkeyPatch.context() as patch:
            route_ntt(patch, path)
            # (the package re-exports the function under the module's name)
            patch.setattr(
                sys.modules["repro.proving.keygen"],
                "commit_lagrange_many",
                no_commitments,
            )
            patch.setattr(prover, "commit_lagrange_many", no_commitments)
            patch.setattr(
                prover,
                "ROUNDS",
                prover.ROUNDS[:3] + (("prove.quotient", "quotient", quotient),),
            )
            patch.setattr("repro.gates.datetime.LAST_YEAR", LAST_YEAR)
            cs, asg, k = build()
            if k not in built:
                built[k] = setup(k)
            pk = keygen(built[k], cs, k, asg.fixed)
            telemetry.reset()
            create_proof(pk, asg)
            peak = telemetry.gauges_snapshot()["quotient.peak_extended_values"]
    finally:
        telemetry.reset()
        telemetry.enable(previous)
    built[name, path] = cs, k, seen[0], peak
    return built[name, path]


@pytest.fixture(scope="module", params=list(CIRCUITS))
def after_quotient(request, built):
    return _after_quotient(built, request.param)


def _pieces(state):
    return [
        state.polys[("h_commitments", i)].coeffs
        for i in range(len(state.proof.h_commitments))
    ]


@pytest.mark.parametrize("path", NTT_PATHS)
@pytest.mark.parametrize("name", list(ORACLE_CIRCUITS))
def test_parts_give_the_whole_coset_quotient(built, name, path):
    """Coefficient for coefficient, whichever NTT path ran the parts;
    and the polynomials the prover evaluates per part are exactly the
    ones the identity reads."""
    _, _, state, _ = _after_quotient(built, name, path)
    vk = state.pk.vk
    assert len(state.pk.part_shifts) == 1 << (vk.extended_k - vk.k)
    with pytest.MonkeyPatch.context() as patch:
        route_ntt(patch, "plan")
        pieces, read = quotient_on_coset(state, vk.extended_k)
    assert _pieces(state) == pieces
    key = state.pk.coset_parts[0]
    assert {path for path in read if path not in key} == set(
        quotient_paths(vk, state.queries)
    )


def test_quotient_is_the_same_on_a_domain_twice_the_size(after_quotient):
    _, _, state, _ = after_quotient
    pieces, _ = quotient_on_coset(state, state.pk.vk.extended_k + 1)
    assert _pieces(state) == pieces


@pytest.mark.parametrize("name", ["Q1_k7", "two_chunk_shuffle"])
def test_cost_model_predicts_the_peak_extended_values(built, name):
    """The quotient round's gauge reads what the report predicts from
    the shape alone: per part n values of every proof polynomial, plus
    the remainders of ``h`` the parts before left."""
    cs, k, state, peak = _after_quotient(built, name)
    report = CircuitReport.from_constraint_system(cs, k, PERMUTATION_CHUNK)
    assert peak == report.peak_extended_values
    assert report.quotient_parts == len(state.pk.part_shifts)
    assert report.quotient_polys == len(quotient_paths(state.pk.vk, state.queries))


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
    cs, k, state, _ = after_quotient
    report = CircuitReport.from_constraint_system(cs, k, PERMUTATION_CHUNK)
    committed = len(state.proof.h_commitments)
    assert report.commitment_msm_sizes()["quotient_chunks"] == committed
    assert committed <= 1 << (state.pk.vk.extended_k - k)
    assert report.extended_k == state.pk.vk.extended_k
