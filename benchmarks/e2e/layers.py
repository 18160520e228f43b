"""Per-layer metrics: spans and public return values -> named numbers.

Two sources, both read from the benchmark's side of the API:

(a) what the public calls already return -- ``QueryResponse.timing``
    (``ProverTiming``, filled with telemetry off), ``circuit_summary``,
    ``BatchReport`` / ``AggReport``, ``JobStatus`` timestamps,
    ``service.stats()``, the session's cache counters;
(b) the boundary tracer's spans over the traced repetition.

Kernel seconds are *self* times (span minus covered children), layer
seconds (create_proof, commit, open, verify_proof, front end, codec)
are inclusive.  Span sums cover the traced answers and verification
rounds, not set-up and not the output checks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from boundary import (
    CALLS, END, ID, KEY, PARENT, PHASE_PREFIX, REP, START, UNITS, self_times,
)
from stats import median

# Matrix columns: kernels whose self time is split out per prover round.
KERNELS = (
    "ecc.fixed_base", "ecc.msm", "algebra.fft", "algebra.batch_inv", "transcript",
)
RESIDUAL = "residual"

# ProverTiming field -> metric stem (the span names the rounds carry).
ROUNDS = {
    "commit_advice": "commit_advice",
    "lookups": "lookup_commit",
    "permutations": "grand_products",
    "quotient": "quotient",
    "evaluations": "evaluations",
    "multiopen": "multiopen",
}


def _by_key(spans: Iterable[list], own: dict[int, float]) -> dict[str, dict]:
    out: dict[str, dict] = defaultdict(
        lambda: {"incl": 0.0, "self": 0.0, "calls": 0, "units": 0}
    )
    for s in spans:
        row = out[s[KEY]]
        row["incl"] += s[END] - s[START]
        row["self"] += own[s[ID]]
        row["calls"] += s[CALLS]
        row["units"] += s[UNITS]
    return out


OUTSIDE = "outside"


def proof_rows(spans: list[list]) -> dict[int, str]:
    """Span id -> the matrix row it belongs to: the phase span directly
    under ``create_proof`` that contains it (the six ``ProverTiming``
    rounds), ``create_proof_other`` for the gaps between them,
    ``outside`` for everything not under a proof generation."""
    by_id = {s[ID]: s for s in spans}
    rows: dict[int, str] = {}

    def row_of(span: list) -> str:
        sid = span[ID]
        if sid not in rows:
            parent = by_id.get(span[PARENT])
            if span[KEY] == "prover.create_proof":
                rows[sid] = "create_proof_other"
            elif parent is None:
                rows[sid] = OUTSIDE
            elif (
                span[KEY].startswith(PHASE_PREFIX)
                and parent[KEY] == "prover.create_proof"
            ):
                rows[sid] = span[KEY][len(PHASE_PREFIX):].removeprefix("prove.")
            else:
                rows[sid] = row_of(parent)
        return rows[sid]

    for s in spans:
        row_of(s)
    return rows


def stage_kernel_matrix(spans: list[list]) -> dict[str, dict[str, float]]:
    """Seconds of each kernel (and residual Python) inside each prover
    round.  Every span's self time lands in exactly one cell, so row
    sums are round durations and column sums the kernel totals."""
    own = self_times(spans)
    rows = proof_rows(spans)
    matrix: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        column = s[KEY] if s[KEY] in KERNELS else RESIDUAL
        matrix[rows[s[ID]]][column] += own[s[ID]]
    return {row: dict(cells) for row, cells in matrix.items()}


def span_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics that come from spans (source b)."""
    spans = [s for s in spans if s[REP] >= 0]
    own = self_times(spans)
    keys = _by_key(spans, own)

    def get(key: str, stat: str) -> float:
        return keys[key][stat] if key in keys else 0.0

    rows = proof_rows(spans)
    in_proof = [
        s for s in spans
        if rows[s[ID]] != OUTSIDE and s[KEY] != "prover.create_proof"
    ]
    kernel_in_proof = sum(own[s[ID]] for s in in_proof if s[KEY] in KERNELS)
    create_proof_s = get("prover.create_proof", "incl")
    return {
        "sql.parse_s": get("sql.parse", "incl"),
        "sql.plan_s": get("sql.plan", "incl"),
        "sql.compile_s": get("sql.compile", "incl"),
        "plonkish.witness_s": get("plonkish.witness", "incl"),
        "prover.create_proof_s": create_proof_s,
        # create_proof minus the kernels under it: interpreter overhead.
        "prover.residual_s": create_proof_s - kernel_in_proof,
        "commit.commit_polynomials_s": get("commit.commit", "incl"),
        "commit.commit_calls": get("commit.commit", "calls"),
        "commit.open_polynomial_s": get("commit.open", "incl"),
        "commit.verify_opening_s": get("commit.verify_opening", "incl"),
        "ecc.fixed_base_msm_s": get("ecc.fixed_base", "self"),
        "ecc.fixed_base_calls": get("ecc.fixed_base", "calls"),
        "ecc.fixed_base_points": get("ecc.fixed_base", "units"),
        "ecc.msm_s": get("ecc.msm", "self"),
        "ecc.msm_calls": get("ecc.msm", "calls"),
        "ecc.msm_points": get("ecc.msm", "units"),
        "algebra.fft_s": get("algebra.fft", "self"),
        "algebra.fft_calls": get("algebra.fft", "calls"),
        "algebra.fft_points": get("algebra.fft", "units"),
        "algebra.batch_inv_s": get("algebra.batch_inv", "self"),
        "algebra.batch_inv_calls": get("algebra.batch_inv", "calls"),
        "algebra.batch_inv_elems": get("algebra.batch_inv", "units"),
        "algebra.lagrange_s": get("algebra.lagrange", "self"),
        "transcript.s": get("transcript", "self"),
        "transcript.challenges": get("transcript", "units"),
        "wire.encode_s": get("wire.encode", "incl"),
        "wire.decode_s": get("wire.decode", "incl"),
        "verifier.verify_proof_s": get("verifier.verify_proof", "incl"),
        "service.journal_append_s": get("service.journal_append", "incl"),
        # Commit-shaped MSMs all run against the fixed-base tables.
        "_fixed_base_points_in_proof": sum(
            s[UNITS] for s in in_proof if s[KEY] == "ecc.fixed_base"
        ),
    }


def answer_metrics(answers: list[Any], baseline: list[Any]) -> dict[str, float]:
    """Source (a) for the proving side: ``ProverTiming`` of the traced
    answers; cold key acquisition from the untraced baseline answers,
    which meet an empty artifact cache."""
    out: dict[str, float] = {}
    for field, stem in ROUNDS.items():
        out[f"prover.{stem}_s"] = sum(
            getattr(a.response.timing, field) for a in answers
        )
    cold = [
        a.response.timing.extra["keygen"]
        for a in baseline
        if a.response.timing.extra.get("keygen_cache_hit") == 0.0
    ]
    out["keygen.cold_s"] = median(cold)
    warm = [
        a.response.timing.extra["keygen_warm_hit"]
        for a in answers
        if "keygen_warm_hit" in a.response.timing.extra
    ]
    out["keygen.warm_hit_ratio"] = sum(warm) / len(warm) if warm else 0.0
    return out


def circuit_metrics(
    summaries: list[dict[str, int]], reports: list[Any]
) -> dict[str, float]:
    """Exact circuit-shape counts, summed over the traced jobs:
    ``circuit_summary`` of the responses plus the static
    ``telemetry.CircuitReport`` cost model of the same circuits."""
    def total(field: str) -> int:
        return sum(s[field] for s in summaries)

    commit_msms = [r.estimated_commit_msms() for r in reports]
    return {
        "plonkish.advice_columns": total("advice_columns"),
        "plonkish.fixed_columns": total("fixed_columns"),
        "plonkish.lookups": total("lookups"),
        "plonkish.gate_constraints": total("gate_constraints"),
        "plonkish.max_gate_degree": max(s["max_gate_degree"] for s in summaries),
        "plonkish.shuffles": sum(r.shuffles for r in reports),
        "costmodel.predicted_commit_msms": sum(commit_msms),
        "costmodel.predicted_msm_points": sum(
            msms * r.rows for msms, r in zip(commit_msms, reports)
        ),
    }


def service_metrics(served: Any | None) -> dict[str, float]:
    """Source (a) for the serving path: ``JobStatus`` timestamps and
    ``service.stats()``; zeros for a workload that proves directly."""
    names = (
        "queue_wait_p50_s", "run_p50_s", "worker_busy_frac", "journal_records",
        "journal_bytes", "shed", "retries",
    )
    if served is None:
        return {f"service.{name}": 0.0 for name in names}
    waits = [s.started_at - s.submitted_at for s in served.statuses]
    runs = [s.finished_at - s.started_at for s in served.statuses]
    return {
        "service.queue_wait_p50_s": median(waits),
        "service.run_p50_s": median(runs),
        "service.worker_busy_frac": sum(runs) / (served.workers * served.wall_s),
        "service.journal_records": served.journal_records,
        "service.journal_bytes": served.journal_bytes,
        "service.shed": served.stats["shed_count"],
        "service.retries": sum(s.attempts for s in served.statuses),
    }
