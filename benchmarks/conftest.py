"""Shared benchmark fixtures.

All benchmarks run real cryptography at the reduced scale defined by
:class:`repro.bench.BenchConfig` and print what they measure beside
the paper's reported numbers (see DESIGN.md, substitutions).

Public parameters and their fixed-base tables load through the on-disk
artifact cache, so the second run of any benchmark skips their
generation (reports print the cache's hit and miss counts).  Point
``REPRO_CACHE_DIR`` at an empty directory to force a cold run.
"""

import pytest

from repro import PoneglyphDB
from repro.bench import (
    BenchConfig,
    bench_cache,
    bench_params,
    prover_config,
    tpch_db,
)


@pytest.fixture(scope="session")
def bench_config():
    return BenchConfig()


@pytest.fixture(scope="session")
def tpch_system(bench_config):
    """A committed TPC-H prover/verifier pair at reduced scale.  The
    session behind it restores the global setting it changed
    (telemetry) at teardown."""
    with PoneglyphDB.open(
        tpch_db(bench_config),
        prover_config(bench_config),
        params=bench_params(bench_config),
        cache=bench_cache(),
    ) as session:
        session.commit()
        yield session.prover, session.verifier()
