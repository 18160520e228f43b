"""The benchmark harness: a ``BenchConfig`` sets only the data size
and circuit size, an empty ``REPRO_CACHE_DIR`` makes a cold run, and a
bench session restores the global settings it changes."""

import pytest

from repro import PoneglyphDB, bench, telemetry
from repro.bench import harness
from repro.sql import Executor, Planner, parse
from repro.tpch.queries import QUERIES


@pytest.fixture()
def bench_env(tmp_path, monkeypatch):
    """A private, empty artifact cache, rebuilt around the test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    bench.bench_cache.cache_clear()
    yield tmp_path
    bench.bench_cache.cache_clear()


def test_only_size_is_settable():
    assert list(vars(bench.BenchConfig())) == ["lineitem_rows", "k"]


def test_empty_cache_dir_makes_a_cold_run(bench_env):
    """A cold figure run points ``REPRO_CACHE_DIR`` at an empty
    directory: the first lookup builds and stores, a repeat loads."""
    config = bench.BenchConfig(lineitem_rows=16, k=4)
    cold = bench.bench_params(config)
    assert bench.bench_cache().stats.summary() == "0 hit(s), 1 miss(es)"
    assert [p.name.split("-")[0] for p in bench_env.iterdir()] == ["params"]
    assert bench.bench_params(config).g == cold.g
    assert bench.bench_cache().stats.summary() == "1 hit(s), 1 miss(es)"


def test_session_restores_global_settings(bench_env):
    """The session the ``tpch_system`` bench fixture opens."""
    config = bench.BenchConfig(lineitem_rows=16, k=6)
    previous = telemetry.enable(False)
    try:
        with PoneglyphDB.open(
            bench.tpch_db(config),
            bench.prover_config(config),
            params=bench.bench_params(config),
            cache=bench.bench_cache(),
        ) as session:
            assert telemetry.enabled()
            session.commit()
        assert not telemetry.enabled()
    finally:
        telemetry.enable(previous)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_pipeline_matches_the_executor(bench_env, name):
    config = bench.BenchConfig(lineitem_rows=16, k=8)
    measured = bench.measure_query_pipeline(config, name)
    db = bench.tpch_db(config)
    rows = Executor(db).execute(Planner(db).plan(parse(QUERIES[name]))).rows()
    assert measured.result_rows == len(rows) and measured.advice_columns > 0


def test_query_pipeline_always_checks_the_constraints(bench_env, monkeypatch):
    """Every measurement runs the MockProver: an unsatisfied circuit
    fails the measurement instead of timing a skipped check."""

    class Refusing:
        def __init__(self, cs, asg):
            pass

        def assert_satisfied(self):
            raise AssertionError("constraint 0 not satisfied")

    monkeypatch.setattr(harness, "MockProver", Refusing)
    with pytest.raises(AssertionError, match="not satisfied"):
        bench.measure_query_pipeline(bench.BenchConfig(lineitem_rows=16, k=8), "Q1")


@pytest.mark.parametrize("lineitem_rows, k", [(64, 8), (128, 9), (256, 10)])
def test_fig10_scales_each_fit_their_own_circuit(bench_env, lineitem_rows, k):
    """Figure 10's three scales double the rows and the circuit
    together; Q1 is satisfied at each and answers as the executor does."""
    config = bench.BenchConfig(lineitem_rows=lineitem_rows, k=k)
    measured = bench.measure_query_pipeline(config, "Q1")
    db = bench.tpch_db(config)
    assert len(db.table("lineitem")) == lineitem_rows
    rows = Executor(db).execute(Planner(db).plan(parse(QUERIES["Q1"]))).rows()
    assert measured.result_rows == len(rows) > 0
