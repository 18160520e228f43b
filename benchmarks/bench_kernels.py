"""Field-backend and commit-kernel microbenchmarks.

Races the numpy limb-vector engine against the pure-Python backend --
both are supported hosts, selected by what is installed -- on the
whole-vector ops the backend hooks cover (NTT, Lagrange basis) plus
the resident product-tree inversion, through the ``repro.algebra.backend`` switch.  One more row
commits a limb-shaped column (4-bit data, full-width blinding rows)
by its values against the Lagrange-basis tables and by its
coefficients, the way every column was committed before.  A last row
times the verifier's variable-base MSM on an input
shaped like a 139-base ``finalize`` and counts its bucket insertions
(``msm.digits``).  Results are asserted equal before any speedup is
reported.

End-to-end prove/verify time is the benchmark of record's job
(``BENCHMARK.json``, ``benchmarks/e2e/``); this file only answers
"does the vector engine still beat the scalar loops it replaces".

Runs standalone (``python benchmarks/bench_kernels.py [--backend-n N]``)
or under pytest.  Record only: no row is a gate.  Results persist to
``benchmarks/results/kernels.{txt,json}``.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro import telemetry
from repro.algebra import backend as field_backend
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD, montgomery_batch_inv
from repro.bench.harness import BenchConfig, bench_metadata
from repro.bench.reporting import Report
from repro.commit.ipa import commit_lagrange, commit_polynomial
from repro.commit.params import setup
from repro.ecc import PALLAS, fixed_base, msm

def bench_narrow_commit(k: int = 7, seed: int = 23, repeat: int = 5) -> dict:
    """One limb-shaped column -- 4-bit values, then the four full-width
    blinding rows -- committed as values (``commit_lagrange``) and as
    coefficients (``commit_polynomial`` of the inverse FFT): same group
    element, best-of-``repeat`` seconds after one counted warm call, and
    bucket insertions (``msm.fixed_base_digits``) of each."""
    rng = random.Random(seed)
    p = SCALAR_FIELD.p
    params = setup(k)
    column = [rng.randrange(16) for _ in range(params.n - 4)]
    column += [rng.randrange(p) for _ in range(4)]
    blind = rng.randrange(p)
    coeffs = EvaluationDomain(SCALAR_FIELD, k).ifft(column)
    for kind in (fixed_base.MONOMIAL, fixed_base.LAGRANGE):
        fixed_base.tables_for_params(params, kind=kind)  # untimed build

    def measure(commit, vector):
        previous = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("msm.fixed_base_digits", 0)
            point = commit(params, vector, blind)
            after = telemetry.counters_snapshot()["msm.fixed_base_digits"]
        finally:
            telemetry.enable(previous)
        seconds = min(
            telemetry.time_call(lambda: commit(params, vector, blind))[1]
            for _ in range(repeat)
        )
        return point, {"seconds": seconds, "digits": int(after - before)}

    as_values, values_row = measure(commit_lagrange, column)
    as_coeffs, coeffs_row = measure(commit_polynomial, coeffs)
    assert as_values == as_coeffs, "Lagrange commit diverged from the oracle"
    return {
        "n": params.n,
        "values": values_row,
        "coeffs": coeffs_row,
        "speedup": coeffs_row["seconds"] / values_row["seconds"],
        "digits_frac": values_row["digits"] / coeffs_row["digits"],
    }


def bench_finalize_msm(n: int = 139, seed: int = 139, repeat: int = 5) -> dict:
    """The verifier's variable-base MSM on a finalize-shaped input (``n``
    random bases, ``n`` full-width scalars): best-of-``repeat`` seconds
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
    seconds = min(
        telemetry.time_call(lambda: msm(bases, scalars))[1] for _ in range(repeat)
    )
    return {"n": n, "seconds": seconds, "digits": int(digits)}


def bench_field_backend(n: int = 16384, seed: int = 17) -> dict | None:
    """Numpy limb-vector backend vs the pure-Python reference on
    whole-vector field ops, results asserted equal first.

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

    # -- NTT: whole transform through the domain's public entry point.
    with field_backend.backend("python"):
        dom.fft(vals)  # warm the plan cache
        ref_fft, python_fft_s = telemetry.time_call(lambda: dom.fft(vals))
    with field_backend.backend("numpy"):
        dom.fft(vals)  # warm the limb twiddle tables
        fast_fft, numpy_fft_s = telemetry.time_call(lambda: dom.fft(vals))
    assert fast_fft == ref_fft, "backend NTT diverged from the reference"

    # -- batch inversion: resident product tree vs Montgomery ladder.
    ref_inv, python_inv_s = telemetry.time_call(
        lambda: montgomery_batch_inv(vals, p)
    )
    ctx = numpy_limb.ctx_for(p)
    arr = ctx.lift(vals)
    ctx.tree_inv_arr(arr)  # warm the tree arenas
    fast_arr, numpy_inv_s = telemetry.time_call(lambda: ctx.tree_inv_arr(arr))
    assert ctx.lower(fast_arr) == ref_inv, "tree inversion diverged"

    # -- Lagrange basis: the fused consumer of the resident inversion.
    x = rng.randrange(p)
    with field_backend.backend("python"):
        ref_lag, python_lag_s = telemetry.time_call(
            lambda: dom.lagrange_basis_evals(x, dom.size)
        )
    with field_backend.backend("numpy"):
        dom.lagrange_basis_evals(x, dom.size)  # warm the power table
        fast_lag, numpy_lag_s = telemetry.time_call(
            lambda: dom.lagrange_basis_evals(x, dom.size)
        )
    assert fast_lag == ref_lag, "backend Lagrange evals diverged"

    def row(python_s, numpy_s):
        return {
            "python_s": python_s,
            "numpy_s": numpy_s,
            "speedup": python_s / numpy_s if numpy_s else float("inf"),
        }

    return {
        "n": dom.size,
        "fft": row(python_fft_s, numpy_fft_s),
        "batch_inv": row(python_inv_s, numpy_inv_s),
        "lagrange": row(python_lag_s, numpy_lag_s),
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
        for key, label in (
            ("fft", f"ntt ({bn} pts)"),
            ("batch_inv", f"batch inv resident ({bn})"),
            ("lagrange", f"lagrange basis ({bn})"),
        ):
            r = backend_rows[key]
            rows.append(
                (
                    label,
                    f"{r['python_s']:.3f}",
                    f"{r['numpy_s']:.3f}",
                    f"{r['speedup']:.2f}x",
                )
            )
        report.table(["op", "python (s)", "numpy (s)", "speedup"], rows)
    report.line(
        f"\nfixed-base commit of a 4-bit column ({narrow['n']} rows + blind): "
        "values vs coefficients, same point (best of 5)"
    )
    report.table(
        ["committed as", "seconds", "bucket insertions"],
        [
            (form, f"{narrow[form]['seconds']:.4f}", str(narrow[form]["digits"]))
            for form in ("values", "coeffs")
        ],
    )
    report.line(
        f"speedup {narrow['speedup']:.2f}x, insertions "
        f"{narrow['digits_frac']:.3f} of the coefficient form"
    )
    report.line(
        f"\nvariable-base msm of a {finalize['n']}-base finalize "
        "(best of 5)"
    )
    report.table(
        ["bases", "seconds", "bucket insertions"],
        [
            (
                str(finalize["n"]),
                f"{finalize['seconds']:.4f}",
                str(finalize["digits"]),
            )
        ],
    )
    report.emit(metadata={**bench_metadata(config), "kernels": results})
    return results


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
