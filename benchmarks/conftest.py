"""Shared benchmark fixtures.

All benchmarks run real cryptography at the reduced scale defined by
:class:`repro.bench.BenchConfig` and extrapolate to paper scale with
the calibrated cost model (see DESIGN.md, substitutions).

Public parameters, proving keys, and the TPC-H database load through
the on-disk artifact cache, so the second run of any benchmark skips
regeneration (reports print the HIT/MISS trace).  Set
``REPRO_NO_CACHE=1`` to force cold runs.
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
    session behind it restores the global settings it changed
    (telemetry, field backend) at teardown."""
    with PoneglyphDB.open(
        tpch_db(bench_config),
        prover_config(bench_config),
        params=bench_params(bench_config),
        cache=bench_cache(),
    ) as session:
        session.commit()
        yield session.prover, session.verifier()
