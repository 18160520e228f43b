"""Shared benchmark machinery.

The benchmarks run real cryptography at reduced scale.  This module
centralizes the reduced-scale configuration (so every bench agrees),
builds TPC-H prover/verifier pairs, and measures the pieces the paper's
tables need: witness generation, circuit statistics, full proofs, and
verification.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field
from typing import Callable

from repro import parallel, telemetry
from repro.algebra import backend as field_backend
from repro.algebra.field import SCALAR_FIELD
from repro.baselines.cost_models import PaperCalibration, column_work
from repro.cache import ArtifactCache, NullCache, resolve_cache
from repro.commit.params import PublicParams, cached_setup
from repro.config import ProverConfig
from repro.db.database import Database
from repro.plonkish.assignment import Assignment
from repro.plonkish.mock_prover import MockProver
from repro.sql.compiler import CompiledQuery, QueryCompiler
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.system.prover_node import ProverNode
from repro.system.verifier_node import VerifierNode
from repro.tpch.datagen import generate_cached
from repro.tpch.queries import QUERIES


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, "") or default)
    except ValueError:
        return default


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


@dataclass
class BenchConfig:
    """Reduced-scale geometry shared by all benchmarks.

    ``limb_bits=4 / value_bits=32 / key_bits=40`` shrink the paper's
    u8/64-bit design so the 16-entry range table and the decompositions
    fit circuits a pure-Python prover can drive end to end.  The
    *structure* (constraints per row, columns per operator) is what the
    calibration extrapolates from, and it is bit-width-faithful when
    scaled back up (see cost_models).

    ``workers`` routes the crypto through the parallel backend
    (``REPRO_BENCH_WORKERS`` overrides the default); ``use_cache``
    loads public parameters, proving keys, and the generated TPC-H
    database through the on-disk artifact cache so the second run of a
    benchmark skips straight to proving.

    ``telemetry`` (``REPRO_BENCH_TELEMETRY``, default on) enables the
    tracer so benchmarks report per-phase breakdowns straight from the
    prover's span tree instead of re-timing around it.
    """

    lineitem_rows: int = 64
    k: int = 8
    limb_bits: int = 4
    value_bits: int = 32
    key_bits: int = 40
    seed: int = 19920873
    workers: int = field(
        default_factory=lambda: _env_int("REPRO_BENCH_WORKERS", 0)
    )
    use_cache: bool = True
    cache_dir: str | None = None
    telemetry: bool = field(
        default_factory=lambda: _env_flag("REPRO_BENCH_TELEMETRY", True)
    )


_DB_CACHE: dict[tuple[int, int], Database] = {}
_ARTIFACT_CACHES: dict[tuple[str | None, bool], ArtifactCache] = {}


def bench_cache(config: BenchConfig) -> ArtifactCache:
    """The artifact cache shared by every benchmark in one process
    (so cumulative hit/miss stats make sense in reports)."""
    key = (config.cache_dir, config.use_cache)
    if key not in _ARTIFACT_CACHES:
        _ARTIFACT_CACHES[key] = (
            resolve_cache(config.cache_dir, enabled=True)
            if config.use_cache
            else NullCache()
        )
    return _ARTIFACT_CACHES[key]


def tpch_db(config: BenchConfig) -> Database:
    """The benchmark's TPC-H database, loaded through the artifact
    cache (a deterministic function of ``(lineitem_rows, seed)``)."""
    key = (config.lineitem_rows, config.seed)
    if key not in _DB_CACHE:
        _DB_CACHE[key], _ = generate_cached(
            config.lineitem_rows, config.seed, bench_cache(config)
        )
    return _DB_CACHE[key]


def bench_params(config: BenchConfig) -> PublicParams:
    """Public parameters for the benchmark ``k``, via the cache."""
    params, _ = cached_setup(bench_cache(config), config.k)
    return params


def prover_config(config: BenchConfig) -> ProverConfig:
    return ProverConfig(
        k=config.k,
        limb_bits=config.limb_bits,
        value_bits=config.value_bits,
        key_bits=config.key_bits,
        workers=config.workers,
        cache_dir=config.cache_dir,
        use_cache=config.use_cache,
        telemetry=config.telemetry,
    )


def build_tpch_system(
    config: BenchConfig, params: PublicParams | None = None
) -> tuple[ProverNode, VerifierNode]:
    db = tpch_db(config)
    if params is None:
        params = bench_params(config)
    parallel.configure(config.workers)
    if config.telemetry:
        telemetry.enable(True)
    prover = ProverNode(
        db, params, config=prover_config(config), cache=bench_cache(config)
    )
    commitment = prover.publish_commitment()
    verifier = VerifierNode(params, prover.public_metadata(), commitment)
    return prover, verifier


# -- provenance ---------------------------------------------------------------


def git_revision() -> str:
    """The commit the benchmark ran at: ``$GITHUB_SHA`` in CI, else
    ``git rev-parse HEAD``, else ``"unknown"``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
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
            "workers": pc.workers,
            "use_cache": pc.use_cache,
            "telemetry": pc.telemetry,
        },
        "lineitem_rows": config.lineitem_rows,
        "seed": config.seed,
        "workers": config.workers,
        "host_cpus": os.cpu_count(),
        "field_backend": field_backend.backend_name(),
        "telemetry": (
            telemetry_metrics
            if telemetry_metrics is not None
            else (telemetry.metrics_summary() if config.telemetry else None)
        ),
    }


# -- perf-summary helpers ----------------------------------------------------


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    """Run ``fn`` once; return ``(result, seconds)``.

    Delegates to :func:`repro.telemetry.time_call` -- the repo's single
    home for wall-clock measurement -- so benchmark timing and traced
    spans come from the same clock discipline.
    """
    return telemetry.time_call(fn)


def serial_vs_parallel(
    fn: Callable[[], object], workers: int
) -> tuple[float, float, float]:
    """Time ``fn`` under the serial backend and again with ``workers``
    workers; return ``(serial_s, parallel_s, speedup)``.

    Speedup is reported as measured -- on a single-core host the
    parallel run pays fork/pickle overhead and the ratio can dip below
    1.0; on a multicore host it approaches the worker count.
    """
    with parallel.parallelism(0):
        _, serial_s = timed(fn)
    with parallel.parallelism(workers):
        _, parallel_s = timed(fn)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    return serial_s, parallel_s, speedup


def perf_summary_lines(
    config: BenchConfig,
    cache: ArtifactCache | None = None,
    speedups: dict[str, tuple[float, float, float]] | None = None,
) -> list[str]:
    """The standard perf footer for a benchmark report: backend
    configuration, serial-vs-parallel speedups, and cache traffic."""
    store = cache if cache is not None else bench_cache(config)
    lines = [
        "",
        f"backend: workers={config.workers or 'serial'} "
        f"(host cpus={os.cpu_count()}), "
        f"cache={'on' if store.enabled else 'off'}",
    ]
    for label, (serial_s, parallel_s, speedup) in (speedups or {}).items():
        lines.append(
            f"{label}: serial {serial_s:.3f}s vs parallel {parallel_s:.3f}s "
            f"-> speedup {speedup:.2f}x"
        )
    lines.append(f"artifact cache: {store.stats.summary()}")
    lines.extend(store.stats.events)
    return lines


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
    work: float = 0.0


def measure_query_pipeline(
    config: BenchConfig, query_name: str, check: bool = True
) -> PipelineMeasurement:
    """Compile + witness (+ MockProver check) one TPC-H query; returns
    the circuit statistics the calibration consumes."""
    db = tpch_db(config)
    sql = QUERIES[query_name]
    plan = Planner(db).plan(parse(sql))
    compiled = QueryCompiler(
        db, config.k, config.limb_bits, config.value_bits, config.key_bits
    ).compile(plan)
    sw = telemetry.stopwatch().start()
    asg = Assignment(compiled.cs, SCALAR_FIELD, config.k)
    result = compiled.assign_witness(asg, db)
    witness_seconds = sw.end()
    mock_seconds = 0.0
    if check:
        _, mock_seconds = timed(
            lambda: MockProver(compiled.cs, asg, SCALAR_FIELD).assert_satisfied()
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
        work=column_work(compiled.cs),
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


def calibration_from_q1(config: BenchConfig) -> PaperCalibration:
    """Anchor the paper-scale model on Q1's measured circuit work."""
    q1 = measure_query_pipeline(config, "Q1", check=False)
    return PaperCalibration.from_q1(q1.work)
