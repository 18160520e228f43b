"""Field-backend and commit-kernel microbenchmarks.

Races the numpy limb-vector engine against the pure-Python backend --
both are supported hosts, selected by what is installed -- on the
whole-vector ops the backend hooks cover (NTT, Lagrange basis) plus
the resident product-tree inversion, through the ``repro.algebra.backend`` switch.  One more row
commits a limb-shaped column (4-bit data, full-width blinding rows)
and a full-width column by their values, and counts the bucket
insertions of each.  A last row times the verifier's variable-base
MSM on an input shaped like a 139-base ``finalize`` and counts its
bucket insertions (``msm.digits``).  Results are asserted equal
before any speedup is reported.

End-to-end prove/verify time is the benchmark of record's job
(``BENCHMARK.json``, ``benchmarks/e2e/``); this file only answers
"does the vector engine still beat the scalar loops it replaces".

Runs standalone (``python benchmarks/bench_kernels.py [--backend-n N]``)
or under pytest.  Record only: no row is a gate.  Results persist to
``benchmarks/results/kernels.{txt,json}``; README's numpy-engine table
is rendered from that record (:func:`readme_table`).
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from repro import telemetry
from repro.algebra import backend as field_backend
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD, montgomery_batch_inv
from repro.bench.harness import BenchConfig, bench_metadata
from repro.bench.reporting import Report
from repro.commit.ipa import commit_lagrange
from repro.commit.params import setup
from repro.ecc import PALLAS, fixed_base, msm

def bench_narrow_commit(k: int = 7, seed: int = 23, repeat: int = 5) -> dict:
    """Two columns committed by their values (``commit_lagrange``): a
    limb-shaped one -- 4-bit values, then the four full-width blinding
    rows -- and a full-width one.  Each point is checked against the
    generic MSM over ``g`` first; then best-of-``repeat`` seconds after
    one counted warm call, and bucket insertions
    (``msm.fixed_base_digits``) of each."""
    rng = random.Random(seed)
    p = SCALAR_FIELD.p
    params = setup(k)
    narrow = [rng.randrange(16) for _ in range(params.n - 4)]
    narrow += [rng.randrange(p) for _ in range(4)]
    wide = [rng.randrange(p) for _ in range(params.n)]
    blind = rng.randrange(p)
    fixed_base.tables_for_params(params)  # untimed build

    def measure(column):
        previous = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("msm.fixed_base_digits", 0)
            point = commit_lagrange(params, column, blind)
            after = telemetry.counters_snapshot()["msm.fixed_base_digits"]
        finally:
            telemetry.enable(previous)
        expected = msm([*params.g, params.w], [*column, blind])
        assert point == expected, "value commitment diverged from the msm"
        seconds = min(
            telemetry.time_call(lambda: commit_lagrange(params, column, blind))[1]
            for _ in range(repeat)
        )
        return {"seconds": seconds, "digits": int(after - before)}

    narrow_row, wide_row = measure(narrow), measure(wide)
    return {
        "n": params.n,
        "narrow": narrow_row,
        "wide": wide_row,
        "speedup": wide_row["seconds"] / narrow_row["seconds"],
        "digits_frac": narrow_row["digits"] / wide_row["digits"],
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


def bench_field_backend(n: int = 16384, seed: int = 17) -> dict | None:
    """Numpy limb-vector backend vs the pure-Python reference on
    whole-vector field ops, results asserted equal first.  Each engine's
    time for each op is the median and interquartile range of
    ``SAMPLES`` loops of at least ``MIN_LOOP_S`` (:func:`per_call_seconds`),
    the two engines' loops taken in turn.

    Returns ``None`` when numpy is not installed (the rows are skipped;
    the fallback path is what the rest of the suite measures then).

    The batch-inversion row is measured *vector-resident* (operands and
    results in limb-array form): that is how the backend actually uses
    the product tree -- the Lagrange hook generates the denominators as
    a vector and consumes the inverses in place.  Crossing the int
    boundary both ways costs ~600ns/element, which is more than the
    ladder itself saves over CPython's C-speed bigint multiply; that
    is why the hook protocol has no list-in/list-out batch inversion.
    """
    if "numpy" not in field_backend.available_backends():
        return None
    from repro.algebra.backend import numpy_limb

    rng = random.Random(seed)
    p = SCALAR_FIELD.p
    dom = EvaluationDomain(SCALAR_FIELD, n.bit_length() - 1)
    vals = [rng.randrange(1, p) for _ in range(dom.size)]

    def race(python_call, numpy_call):
        """Loops of the two engines in turn, so a slow spell of the host
        lands on both sides: their medians, IQRs and speedup."""
        timed = {"python": [], "numpy": []}
        for _ in range(SAMPLES):
            for engine, call in zip(timed, (python_call, numpy_call)):
                with field_backend.backend(engine):
                    timed[engine] += per_call_seconds(call, samples=1)
        python_s, python_iqr_s = median_iqr(timed["python"])
        numpy_s, numpy_iqr_s = median_iqr(timed["numpy"])
        return {
            "python_s": python_s,
            "python_iqr_s": python_iqr_s,
            "numpy_s": numpy_s,
            "numpy_iqr_s": numpy_iqr_s,
            "speedup": python_s / numpy_s,
        }

    # -- NTT: whole transform through the domain's public entry point.
    with field_backend.backend("python"):
        ref_fft = dom.fft(vals)  # and warm the plan cache
    with field_backend.backend("numpy"):
        dom.fft(vals)  # warm the limb twiddle tables
        fast_fft = dom.fft(vals)
    assert fast_fft == ref_fft, "backend NTT diverged from the reference"
    fft = race(lambda: dom.fft(vals), lambda: dom.fft(vals))

    # -- batch inversion: resident product tree vs Montgomery ladder.
    ref_inv = montgomery_batch_inv(vals, p)
    ctx = numpy_limb.ctx_for(p)
    arr = ctx.lift(vals)
    ctx.tree_inv_arr(arr)  # warm the tree arenas
    fast_inv = ctx.lower(ctx.tree_inv_arr(arr))
    assert fast_inv == ref_inv, "tree inversion diverged"
    batch_inv = race(
        lambda: montgomery_batch_inv(vals, p), lambda: ctx.tree_inv_arr(arr)
    )

    # -- Lagrange basis: the fused consumer of the resident inversion.
    x = rng.randrange(p)
    with field_backend.backend("python"):
        ref_lag = dom.lagrange_basis_evals(x, dom.size)
    with field_backend.backend("numpy"):
        dom.lagrange_basis_evals(x, dom.size)  # warm the power table
        fast_lag = dom.lagrange_basis_evals(x, dom.size)
    assert fast_lag == ref_lag, "backend Lagrange evals diverged"
    lagrange = race(
        lambda: dom.lagrange_basis_evals(x, dom.size),
        lambda: dom.lagrange_basis_evals(x, dom.size),
    )

    return {
        "n": dom.size,
        "samples": SAMPLES,
        "fft": fft,
        "batch_inv": batch_inv,
        "lagrange": lagrange,
    }


def run_benches(config: BenchConfig, backend_n: int = 16384) -> dict:
    results = {}
    backend_rows = bench_field_backend(n=backend_n)
    if backend_rows is not None:
        results["field_backend"] = backend_rows
    narrow = results["narrow_commit"] = bench_narrow_commit()
    finalize = results["finalize_msm"] = bench_finalize_msm()

    report = Report(
        "kernels",
        "Kernels: field-backend race, narrow-column commit, finalize MSM",
    )
    report.line(
        "every row runs both backends on identical inputs (results "
        "asserted equal first)\n"
    )
    if backend_rows is None:
        report.line("numpy not installed: nothing to race")
    else:
        rows = []
        bn = backend_rows["n"]
        report.line(
            f"median and IQR of {SAMPLES} loops of >= {MIN_LOOP_S} s"
        )
        for key, label in (
            ("fft", f"ntt ({bn} pts)"),
            ("batch_inv", f"batch inv resident ({bn})"),
            ("lagrange", f"lagrange basis ({bn})"),
        ):
            r = backend_rows[key]
            rows.append(
                (
                    label,
                    f"{r['python_s']:.4f}",
                    f"{r['python_iqr_s']:.4f}",
                    f"{r['numpy_s']:.4f}",
                    f"{r['numpy_iqr_s']:.4f}",
                    f"{r['speedup']:.2f}x",
                )
            )
        report.table(
            ["op", "python s", "IQR s", "numpy s", "IQR s", "speedup"], rows
        )
    report.line(
        f"\nfixed-base commit by values ({narrow['n']} rows + blind): a "
        "4-bit column (4 full-width blinding rows) against a full-width "
        "one, each point checked against the generic msm (best of 5)"
    )
    report.table(
        ["column", "seconds", "bucket insertions"],
        [
            (form, f"{narrow[form]['seconds']:.4f}", str(narrow[form]["digits"]))
            for form in ("narrow", "wide")
        ],
    )
    report.line(
        f"speedup {narrow['speedup']:.2f}x, insertions "
        f"{narrow['digits_frac']:.3f} of the full-width column"
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


#: README's numpy-engine rows: record key, label.
README_ROWS = (
    ("fft", "NTT, 2^{log_n} points"),
    ("lagrange", "Lagrange basis at a point"),
    ("batch_inv", "batch inversion (vector-resident)"),
)


def readme_table(record: dict) -> str:
    """README's numpy-engine table, rendered from a ``kernels.json``
    record (``tests/test_docs.py`` holds the README to it)."""
    rows = record["kernels"]["field_backend"]
    log_n = rows["n"].bit_length() - 1
    lines = [
        "| hot loop | python, s: median (IQR) | numpy, s: median (IQR) "
        "| speedup |",
        "|---|---|---|---|",
    ]
    for key, label in README_ROWS:
        r = rows[key]
        lines.append(
            f"| {label.format(log_n=log_n)} "
            f"| {r['python_s']:.4f} ({r['python_iqr_s']:.4f}) "
            f"| {r['numpy_s']:.4f} ({r['numpy_iqr_s']:.4f}) "
            f"| **{r['speedup']:.2f}×** |"
        )
    return "\n".join(lines)


def test_kernel_microbench(bench_config):
    """Pytest entry: every row at bench scale, results asserted equal."""
    run_benches(bench_config)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend-n",
        type=int,
        default=16384,
        help="field-backend race size (default 16384, the extended "
        "domain of a 2^12 circuit)",
    )
    args = parser.parse_args(argv)
    run_benches(BenchConfig(), backend_n=args.backend_n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
