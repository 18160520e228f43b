"""Shared benchmark machinery.

The benchmarks run real cryptography at reduced scale.  This module
fixes the reduced-scale geometry (so every bench agrees), generates the
TPC-H database, loads public parameters through the artifact cache, and
measures the pieces the paper's tables need: witness generation,
circuit statistics, full proofs, and verification.
"""

from __future__ import annotations

import functools
import os
import subprocess
from dataclasses import dataclass

from repro import telemetry
from repro.algebra import backend as field_backend
from repro.cache import ArtifactCache
from repro.commit.params import PublicParams, cached_setup
from repro.config import ProverConfig
from repro.db.database import Database
from repro.plonkish.assignment import Assignment
from repro.plonkish.mock_prover import MockProver
from repro.sql.compiler import QueryCompiler
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.system.prover_node import ProverNode
from repro.system.verifier_node import VerifierNode
from repro.tpch.datagen import generate
from repro.tpch.queries import QUERIES

#: ``limb_bits=4 / value_bits=32 / key_bits=40`` shrink the paper's
#: u8/64-bit design so the 16-entry range table and the decompositions
#: fit circuits a pure-Python prover can drive end to end.
LIMB_BITS = 4
VALUE_BITS = 32
KEY_BITS = 40
#: The TPC-H generator's seed.
SEED = 19920873
#: Benchmarks prove with the tracer on, so they report per-phase
#: breakdowns straight from the prover's span tree instead of re-timing
#: around it.
TELEMETRY = True


@dataclass
class BenchConfig:
    """The reduced-scale size of one benchmark: ``lineitem_rows`` of
    TPC-H data in a ``2^k``-row circuit."""

    lineitem_rows: int = 64
    k: int = 8


@functools.cache
def bench_cache() -> ArtifactCache:
    """The default on-disk artifact cache, shared by every benchmark in
    one process (so cumulative hit/miss stats make sense in reports).
    Public parameters and their fixed-base tables load through it, so
    the second run of a benchmark skips their generation; point
    ``REPRO_CACHE_DIR`` at an empty directory for a cold run."""
    return ArtifactCache()


@functools.cache
def _tpch_db(lineitem_rows: int) -> Database:
    return generate(lineitem_rows, SEED)


def tpch_db(config: BenchConfig) -> Database:
    """The benchmark's TPC-H database (a deterministic function of
    ``(lineitem_rows, SEED)``, generated once per process)."""
    return _tpch_db(config.lineitem_rows)


def bench_params(config: BenchConfig) -> PublicParams:
    """Public parameters for the benchmark ``k``, via the cache."""
    params, _ = cached_setup(bench_cache(), config.k)
    return params


def prover_config(config: BenchConfig) -> ProverConfig:
    return ProverConfig(
        k=config.k,
        limb_bits=LIMB_BITS,
        value_bits=VALUE_BITS,
        key_bits=KEY_BITS,
        telemetry=TELEMETRY,
    )


# -- provenance ---------------------------------------------------------------


def git_revision() -> str:
    """The commit the benchmark ran at: ``git rev-parse HEAD``, else
    ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_metadata(
    config: BenchConfig, telemetry_metrics: dict | None = None
) -> dict:
    """The provenance stamp every benchmark report persists alongside
    its numbers: what ran, where, with which knobs."""
    pc = prover_config(config)
    return {
        "git_sha": git_revision(),
        "prover_config": {
            "k": pc.k,
            "limb_bits": pc.limb_bits,
            "value_bits": pc.value_bits,
            "key_bits": pc.key_bits,
            "telemetry": pc.telemetry,
        },
        "lineitem_rows": config.lineitem_rows,
        "seed": SEED,
        "host_cpus": os.cpu_count(),
        "field_backend": field_backend.backend_name(),
        "telemetry": (
            telemetry_metrics
            if telemetry_metrics is not None
            else telemetry.metrics_summary()
        ),
    }


# -- perf-summary helpers ----------------------------------------------------


def perf_summary_lines() -> list[str]:
    """The standard perf footer for a benchmark report: the commit, the
    host and the artifact cache's traffic."""
    return [
        "",
        f"commit {git_revision()[:12]}, host cpus={os.cpu_count()}",
        f"artifact cache: {bench_cache().stats.summary()}",
    ]


@dataclass
class PipelineMeasurement:
    """Cheap (non-crypto) measurements of one query's circuit."""

    query: str
    witness_seconds: float
    mock_seconds: float
    result_rows: int
    advice_columns: int
    lookups: int
    shuffles: int
    gate_constraints: int


def measure_query_pipeline(
    config: BenchConfig, query_name: str
) -> PipelineMeasurement:
    """Compile, witness and MockProver-check one TPC-H query; returns
    the seconds of the last two and the circuit's shape."""
    db = tpch_db(config)
    sql = QUERIES[query_name]
    plan = Planner(db).plan(parse(sql))
    compiled = QueryCompiler(
        db, config.k, LIMB_BITS, VALUE_BITS, KEY_BITS
    ).compile(plan)
    sw = telemetry.stopwatch().start()
    asg = Assignment(compiled.cs, config.k)
    result = compiled.assign_witness(asg, db)
    witness_seconds = sw.end()
    _, mock_seconds = telemetry.time_call(
        lambda: MockProver(compiled.cs, asg).assert_satisfied()
    )
    return PipelineMeasurement(
        query=query_name,
        witness_seconds=witness_seconds,
        mock_seconds=mock_seconds,
        result_rows=len(result),
        advice_columns=len(compiled.cs.advice_columns),
        lookups=len(compiled.cs.lookups),
        shuffles=len(compiled.cs.shuffles),
        gate_constraints=compiled.cs.num_constraints(),
    )


def real_prove_query(
    config: BenchConfig,
    query_name: str,
    prover: ProverNode,
    verifier: VerifierNode,
):
    """Full cryptographic prove + verify of one TPC-H query at reduced
    scale; returns (QueryResponse, VerificationReport).  A rejected
    proof aborts the benchmark with a typed
    :class:`~repro.errors.VerificationFailure`."""
    response = prover.answer(QUERIES[query_name])
    report = verifier.verify(response)
    report.require()
    return response, report
