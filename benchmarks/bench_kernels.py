"""NTT-engine and commit-kernel microbenchmarks.

Races the plan NTT against the numpy limb engine through the gate
(``repro.algebra.backend.ntt``, its ``MIN_NTT`` threshold moved to
send every size down one path, then the other) at 2^10 ... 2^14
points: the evidence for where ``MIN_NTT`` sits.  One more row
commits a limb-shaped column (4-bit data, full-width blinding rows),
a full-width column and a lookup-helper-shaped one (one full-width
value on 118 of 128 rows, also by the plain fixed-base MSM of its
values) and counts the bucket insertions of each.  A last row times
the verifier's variable-base MSM on an input shaped like a 139-base
``finalize`` and counts its bucket insertions (``msm.digits``).  Results are asserted equal
before any speedup is reported.

End-to-end prove/verify time is the benchmark of record's job
(``BENCHMARK.json``, ``benchmarks/e2e/``); this file only answers
"from which size does the vector engine beat the plan it replaces".

Runs standalone (``python benchmarks/bench_kernels.py``) or under
pytest.  Record only: no row is a gate.  Results persist to
``benchmarks/results/kernels.{txt,json}``; README's NTT-engine table
is rendered from that record (:func:`readme_table`).
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager

from repro import telemetry
from repro.algebra import backend
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD
from repro.bench.harness import BenchConfig, bench_metadata
from repro.bench.reporting import Report
from repro.commit.ipa import commit_lagrange
from repro.commit.params import setup
from repro.ecc import PALLAS, fixed_base, msm

def bench_narrow_commit(k: int = 7, seed: int = 23, repeat: int = 5) -> dict:
    """Columns committed by their values (``commit_lagrange``): a
    limb-shaped one -- 4-bit values, then the four full-width blinding
    rows -- a full-width one, and a lookup-helper-shaped one, one
    full-width value on 118 of the 128 rows.  The helper is also
    committed by the plain ``fixed_base_msm`` of its values, without
    the offset by its most frequent value.  Each point is checked
    against the generic MSM over ``g`` first; then best-of-``repeat``
    seconds after one counted warm call, and bucket insertions
    (``msm.fixed_base_digits``) of each."""
    rng = random.Random(seed)
    p = SCALAR_FIELD.p
    params = setup(k)
    narrow = [rng.randrange(16) for _ in range(params.n - 4)]
    narrow += [rng.randrange(p) for _ in range(4)]
    wide = [rng.randrange(p) for _ in range(params.n)]
    helper = [rng.randrange(p)] * 118 + [rng.randrange(p) for _ in range(10)]
    rng.shuffle(helper)
    blind = rng.randrange(p)
    tables = fixed_base.tables_for_params(params)  # untimed build

    def measure(column, commit=commit_lagrange):
        previous = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("msm.fixed_base_digits", 0)
            point = commit(params, column, blind)
            after = telemetry.counters_snapshot()["msm.fixed_base_digits"]
        finally:
            telemetry.enable(previous)
        expected = msm([*params.g, params.w], [*column, blind])
        assert point == expected, "value commitment diverged from the msm"
        seconds = min(
            telemetry.time_call(lambda: commit(params, column, blind))[1]
            for _ in range(repeat)
        )
        return {"seconds": seconds, "digits": int(after - before)}

    def plain(params, column, blind):
        return fixed_base.fixed_base_msm(tables, [*column, blind])

    narrow_row, wide_row = measure(narrow), measure(wide)
    helper_row, plain_row = measure(helper), measure(helper, plain)
    return {
        "n": params.n,
        "narrow": narrow_row,
        "wide": wide_row,
        "helper": helper_row,
        "helper_plain": plain_row,
        "speedup": wide_row["seconds"] / narrow_row["seconds"],
        "digits_frac": narrow_row["digits"] / wide_row["digits"],
        "helper_speedup": plain_row["seconds"] / helper_row["seconds"],
    }


#: Timed loops per measured row, and the least seconds each loop runs.
SAMPLES = 5
MIN_LOOP_S = 0.25


def per_call_seconds(call, samples: int) -> list[float]:
    """``samples`` measurements of ``call``'s seconds per call, each
    from a loop that runs for at least ``MIN_LOOP_S``, so that one
    scheduler burst moves a sample by a fraction of itself."""
    out = []
    for _ in range(samples):
        calls, start = 0, time.perf_counter()
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_LOOP_S:
                break
        out.append(elapsed / calls)
    return out


def median_iqr(samples: list[float]) -> tuple[float, float]:
    """The median of ``samples`` and their interquartile range."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q3 - q1


def bench_finalize_msm(n: int = 139, seed: int = 139) -> dict:
    """The verifier's variable-base MSM on a finalize-shaped input (``n``
    random bases, ``n`` full-width scalars): the median and
    interquartile range of ``SAMPLES`` loops of at least ``MIN_LOOP_S``,
    and bucket insertions (``msm.digits``), the point checked against
    one scalar multiplication per base first."""
    rng = random.Random(seed)
    order = PALLAS.scalar_field.p
    bases = [PALLAS.generator * rng.randrange(1, order) for _ in range(n)]
    scalars = [rng.randrange(order) for _ in range(n)]
    expected = PALLAS.identity()
    for base, s in zip(bases, scalars):
        expected = expected + base * s
    previous = telemetry.enable(True)
    try:
        before = telemetry.counters_snapshot().get("msm.digits", 0)
        point = msm(bases, scalars)
        digits = telemetry.counters_snapshot()["msm.digits"] - before
    finally:
        telemetry.enable(previous)
    assert point == expected, "msm diverged from the per-point sum"
    seconds = per_call_seconds(lambda: msm(bases, scalars), SAMPLES)
    median_s, iqr_s = median_iqr(seconds)
    return {
        "n": n,
        "median_s": median_s,
        "iqr_s": iqr_s,
        "samples_s": seconds,
        "digits": int(digits),
    }


@contextmanager
def ntt_path(path: str):
    """Send every NTT down ``path`` (``"plan"`` or ``"engine"``) by
    moving the gate's ``MIN_NTT`` threshold, restored on exit."""
    previous = backend.MIN_NTT
    backend.MIN_NTT = 1 << 62 if path == "plan" else 1
    try:
        yield
    finally:
        backend.MIN_NTT = previous


#: log2 of the NTT sizes raced: both sides of ``MIN_NTT``.
NTT_LOG_SIZES = range(10, 15)


def bench_ntt(seed: int = 17) -> dict | None:
    """The plan NTT against the limb engine through
    ``EvaluationDomain.fft`` at each size of :data:`NTT_LOG_SIZES`,
    results asserted equal first.  Each path's time is the median and
    interquartile range of ``SAMPLES`` loops of at least ``MIN_LOOP_S``
    (:func:`per_call_seconds`), the two paths' loops taken in turn so a
    slow spell of the host lands on both.

    Returns ``None`` when numpy is not installed: there is nothing to
    race, the plan is the only path."""
    if not backend.available():
        return None
    rng = random.Random(seed)
    p = SCALAR_FIELD.p
    rows = []
    for log_n in NTT_LOG_SIZES:
        dom = EvaluationDomain(SCALAR_FIELD, log_n)
        vals = [rng.randrange(p) for _ in range(dom.size)]
        out = {}
        for path in ("plan", "engine"):
            with ntt_path(path):
                dom.fft(vals)  # warm the plan cache / the limb twiddle tables
                out[path] = dom.fft(vals)
        assert out["engine"] == out["plan"], f"engine NTT diverged at n={dom.size}"
        timed = {"plan": [], "engine": []}
        for _ in range(SAMPLES):
            for path in timed:
                with ntt_path(path):
                    timed[path] += per_call_seconds(lambda: dom.fft(vals), samples=1)
        plan_s, plan_iqr_s = median_iqr(timed["plan"])
        engine_s, engine_iqr_s = median_iqr(timed["engine"])
        rows.append(
            {
                "n": dom.size,
                "plan_s": plan_s,
                "plan_iqr_s": plan_iqr_s,
                "engine_s": engine_s,
                "engine_iqr_s": engine_iqr_s,
                "speedup": plan_s / engine_s,
            }
        )
    return {"min_ntt": backend.MIN_NTT, "samples": SAMPLES, "rows": rows}


def run_benches(config: BenchConfig) -> dict:
    results = {}
    ntt = bench_ntt()
    if ntt is not None:
        results["ntt"] = ntt
    narrow = results["narrow_commit"] = bench_narrow_commit()
    finalize = results["finalize_msm"] = bench_finalize_msm()

    report = Report(
        "kernels",
        "Kernels: NTT plan vs engine, narrow-column commit, finalize MSM",
    )
    if ntt is None:
        report.line("numpy not installed: the plan is the only NTT path")
    else:
        report.line(
            "NTT through EvaluationDomain.fft, plan and engine on identical "
            f"inputs (results asserted equal first; MIN_NTT = "
            f"{ntt['min_ntt']}); median and IQR of {SAMPLES} loops of "
            f">= {MIN_LOOP_S} s"
        )
        report.table(
            ["points", "plan s", "IQR s", "engine s", "IQR s", "speedup"],
            [
                (
                    str(r["n"]),
                    f"{r['plan_s']:.4f}",
                    f"{r['plan_iqr_s']:.4f}",
                    f"{r['engine_s']:.4f}",
                    f"{r['engine_iqr_s']:.4f}",
                    f"{r['speedup']:.2f}x",
                )
                for r in ntt["rows"]
            ],
        )
    report.line(
        f"\nfixed-base commit by values ({narrow['n']} rows + blind): a "
        "4-bit column (4 full-width blinding rows) against a full-width "
        "one, and a helper-shaped column (one full-width value on 118 "
        "rows) by commit_lagrange and by the plain fixed_base_msm of its "
        "values; each point checked against the generic msm (best of 5)"
    )
    report.table(
        ["column", "seconds", "bucket insertions"],
        [
            (form, f"{narrow[form]['seconds']:.4f}", str(narrow[form]["digits"]))
            for form in ("narrow", "wide", "helper", "helper_plain")
        ],
    )
    report.line(
        f"speedup {narrow['speedup']:.2f}x, insertions "
        f"{narrow['digits_frac']:.3f} of the full-width column; helper "
        f"{narrow['helper_speedup']:.2f}x the plain msm of its values"
    )
    report.line(
        f"\nvariable-base msm of a {finalize['n']}-base finalize "
        f"(median and IQR of {SAMPLES} loops of >= {MIN_LOOP_S} s)"
    )
    report.table(
        ["bases", "median s", "IQR s", "bucket insertions"],
        [
            (
                str(finalize["n"]),
                f"{finalize['median_s']:.4f}",
                f"{finalize['iqr_s']:.4f}",
                str(finalize["digits"]),
            )
        ],
    )
    report.emit(metadata={**bench_metadata(config), "kernels": results})
    return results


def readme_table(record: dict) -> str:
    """README's NTT-engine table, rendered from a ``kernels.json``
    record (``tests/test_docs.py`` holds the README to it)."""
    lines = [
        "| points | plan, s: median (IQR) | engine, s: median (IQR) "
        "| speedup |",
        "|---|---|---|---|",
    ]
    for r in record["kernels"]["ntt"]["rows"]:
        lines.append(
            f"| {r['n']:,} "
            f"| {r['plan_s']:.4f} ({r['plan_iqr_s']:.4f}) "
            f"| {r['engine_s']:.4f} ({r['engine_iqr_s']:.4f}) "
            f"| **{r['speedup']:.2f}×** |"
        )
    return "\n".join(lines)


def test_kernel_microbench(bench_config):
    """Pytest entry: every row at bench scale, results asserted equal."""
    run_benches(bench_config)


if __name__ == "__main__":
    run_benches(BenchConfig())
