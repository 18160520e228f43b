"""Benchmark harness: workload construction, measurement helpers, and
paper-comparison reporting for every table and figure in the paper's
evaluation (see DESIGN.md's per-experiment index)."""

from repro.bench.harness import (
    BenchConfig,
    bench_cache,
    bench_metadata,
    bench_params,
    git_revision,
    measure_query_pipeline,
    perf_summary_lines,
    prover_config,
    real_prove_query,
    serial_vs_parallel,
    tpch_db,
)
from repro.bench.reporting import Report

__all__ = [
    "BenchConfig",
    "bench_cache",
    "bench_metadata",
    "bench_params",
    "git_revision",
    "measure_query_pipeline",
    "perf_summary_lines",
    "prover_config",
    "real_prove_query",
    "serial_vs_parallel",
    "tpch_db",
    "Report",
]
