"""Figure 10: proving time and memory over increasing database sizes.

Paper (Q1): 180 s / 1.53 GB at 60k rows growing near-linearly to
683 s / 5.12 GB at 240k rows; all six queries scale similarly because
circuit size grows linearly in the inputs and all constraints are
low degree.

We measure the full pipeline (witness + constraint check) at three
reduced scales to confirm the same near-linear growth, and print the
calibrated paper-scale estimates for 60k/120k/240k.
"""

from repro.baselines.cost_models import PAPER, PaperCalibration
from repro.bench.harness import BenchConfig, bench_metadata, measure_query_pipeline
from repro.bench.reporting import Report
from repro.tpch.queries import QUERIES

SCALES = [32, 64, 128]
PAPER_SCALES = [60_000, 120_000, 240_000]


def test_fig10_scalability(benchmark):
    configs = {s: BenchConfig(lineitem_rows=s, k=8 + SCALES.index(s) // 2)
               for s in SCALES}

    def measure_all():
        out = {}
        for s, config in configs.items():
            out[s] = {name: measure_query_pipeline(config, name) for name in QUERIES}
        return out

    # One untimed pass per query first: its first-use costs (datagen,
    # compile caches) would otherwise land on the smallest scale.
    for name in QUERIES:
        measure_query_pipeline(configs[SCALES[0]], name)
    measured = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    # Calibrate on Q1 at the largest reduced scale.
    calibration = PaperCalibration.from_q1(measured[SCALES[-1]]["Q1"].work)

    report = Report("fig10_scalability", "Figure 10: scalability over data size")
    report.line(
        "measured seconds at reduced scales, witness generation plus the "
        "MockProver check of every constraint (both at every scale):"
    )
    rows = []
    for name in QUERIES:
        row = [name]
        for s in SCALES:
            m = measured[s][name]
            row.append(f"{m.witness_seconds + m.mock_seconds:.2f}")
        rows.append(tuple(row))
    report.table(["query"] + [f"{s} rows" for s in SCALES], rows)

    report.line("\npaper-scale proving estimates (seconds):")
    rows = []
    for name in QUERIES:
        work = measured[SCALES[-1]][name].work
        row = [name] + [
            f"{calibration.proving_seconds(work, s):.0f}" for s in PAPER_SCALES
        ]
        rows.append(tuple(row))
    report.table(["query", "60k", "120k", "240k"], rows)
    q1 = measured[SCALES[-1]]["Q1"].work
    report.line(
        f"\npaper anchors (Q1): 60k -> {PAPER['fig10_q1_seconds'][60_000]} s, "
        f"240k -> {PAPER['fig10_q1_seconds'][240_000]} s "
        f"(ratio {PAPER['fig10_q1_seconds'][240_000]/PAPER['fig10_q1_seconds'][60_000]:.2f}, near-linear)"
    )
    report.line("\npaper-scale memory estimates (GB):")
    rows = []
    for name in QUERIES:
        work = measured[SCALES[-1]][name].work
        rows.append(
            tuple(
                [name]
                + [f"{calibration.memory_gb(work, s):.2f}" for s in PAPER_SCALES]
            )
        )
    report.table(["query", "60k", "120k", "240k"], rows)
    report.line(
        f"paper anchors (Q1): 1.53 GB @60k -> 5.12 GB @240k"
    )
    report.emit(metadata=bench_metadata(configs[SCALES[-1]]))

    # Shape: Q1 estimate grows ~linearly across paper scales (x2 rows ->
    # between 1.5x and 2.8x seconds once the fixed base is included).
    q1_60 = calibration.proving_seconds(q1, 60_000)
    q1_240 = calibration.proving_seconds(q1, 240_000)
    assert 2.5 < q1_240 / q1_60 < 5.0
