"""Metric names, units and regression bounds.

``BENCHMARK.json`` at the repo root is the record the driver reads;
this table is what the code prints, and the self-test holds the two
equal.  README.md says what each metric measures and which end-to-end
metric a layer metric should move.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median by which the
# metric may worsen).  Times: ~3x the run-to-run spread on the 2-core
# shared host after the host-speed correction (README.md, "Noise").
# A proof's size is fixed by its circuit, so its bound is below one
# 32-byte element; the aggregate also carries the result rows, whose
# count follows the data (Q1: 4-6 groups, +-0.6 %), hence 2 %.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("prove_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("proof_bytes", "B", "lower", 0.0005),
    ("batch_verify_per_proof_s", "s", "lower", 0.25),
    ("agg_verify_per_proof_s", "s", "lower", 0.25),
    ("agg_bytes", "B", "lower", 0.02),
    ("jobs_per_min", "1/min", "higher", 0.25),
    ("job_latency_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sql.parse_s", "s", "lower"),
    ("sql.plan_s", "s", "lower"),
    ("sql.compile_s", "s", "lower"),
    ("plonkish.witness_s", "s", "lower"),
    ("plonkish.advice_columns", "count", "lower"),
    ("plonkish.fixed_columns", "count", "lower"),
    ("plonkish.lookups", "count", "lower"),
    ("plonkish.shuffles", "count", "lower"),
    ("plonkish.gate_constraints", "count", "lower"),
    ("plonkish.max_gate_degree", "count", "lower"),
    ("costmodel.predicted_commit_msms", "count", "lower"),
    ("costmodel.predicted_msm_points", "count", "lower"),
    ("costmodel.msm_points_ratio", "ratio", "lower"),
    ("keygen.cold_s", "s", "lower"),
    ("keygen.warm_hit_ratio", "ratio", "higher"),
    ("prover.create_proof_s", "s", "lower"),
    ("prover.commit_advice_s", "s", "lower"),
    ("prover.lookup_commit_s", "s", "lower"),
    ("prover.grand_products_s", "s", "lower"),
    ("prover.quotient_s", "s", "lower"),
    ("prover.evaluations_s", "s", "lower"),
    ("prover.multiopen_s", "s", "lower"),
    ("prover.round_coverage", "ratio", "higher"),
    ("prover.residual_s", "s", "lower"),
    ("commit.commit_polynomials_s", "s", "lower"),
    ("commit.commit_calls", "count", "lower"),
    ("commit.open_polynomial_s", "s", "lower"),
    ("commit.verify_opening_s", "s", "lower"),
    ("ecc.fixed_base_msm_s", "s", "lower"),
    ("ecc.fixed_base_calls", "count", "lower"),
    ("ecc.fixed_base_points", "count", "lower"),
    ("ecc.msm_s", "s", "lower"),
    ("ecc.msm_calls", "count", "lower"),
    ("ecc.msm_points", "count", "lower"),
    ("algebra.fft_s", "s", "lower"),
    ("algebra.fft_calls", "count", "lower"),
    ("algebra.fft_points", "count", "lower"),
    ("algebra.batch_inv_s", "s", "lower"),
    ("algebra.batch_inv_calls", "count", "lower"),
    ("algebra.batch_inv_elems", "count", "lower"),
    ("algebra.lagrange_s", "s", "lower"),
    ("transcript.s", "s", "lower"),
    ("transcript.challenges", "count", "lower"),
    ("wire.encode_s", "s", "lower"),
    ("wire.decode_s", "s", "lower"),
    ("verifier.verify_proof_s", "s", "lower"),
    ("recursion.finalize_s", "s", "lower"),
    ("recursion.deferred_openings", "count", "lower"),
    ("aggregate.encode_s", "s", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.run_p50_s", "s", "lower"),
    ("service.worker_busy_frac", "ratio", "higher"),
    ("service.journal_append_s", "s", "lower"),
    ("service.journal_records", "count", "lower"),
    ("service.journal_bytes", "B", "lower"),
    ("service.shed", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.datagen_s", "s", "lower"),
    ("setup.params_s", "s", "lower"),
    ("setup.db_commit_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("host.speed_factor", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.targets_missing", "count", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def with_units(values: dict[str, float], names: tuple) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly ``names``, in order."""
    return {
        name: {"value": values[name], "unit": UNITS[name]}
        for name, *_ in names
    }
