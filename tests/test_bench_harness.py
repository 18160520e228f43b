"""The benchmark harness: a ``BenchConfig`` sets only the data size
and circuit size, an empty ``REPRO_CACHE_DIR`` makes a cold run, and a
bench session restores the global settings it changes."""

import pytest

from repro import PoneglyphDB, bench, telemetry
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
    assert measured.result_rows == len(rows) and measured.work > 0
