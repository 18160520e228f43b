"""Instrumented smoke prove: the CI telemetry gate.

``python -m repro.telemetry.selfcheck OUTDIR`` proves the k=5 example
circuit (paper Example 2.1 + a 4-bit range lookup) with telemetry
enabled, writes ``trace.jsonl`` and ``span_tree.txt`` to ``OUTDIR``,
and exits non-zero unless the trace contains every expected prover
phase span, exactly one ``ipa.open`` (one opening per proof), the
phase wall-times cover >= 95% of the prove root, and the MSM counters
say where the group work went: the prover makes no generic MSM and one
fixed-base MSM per commitment plus two per IPA round, the verifier
exactly one generic MSM.

The example circuit builders here are also the golden-value fixture
for :class:`~repro.telemetry.circuit.CircuitReport` tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import telemetry
from repro.proving.prover import ROUNDS

EXAMPLE_K = 5

#: Direct children the "prove" root must contain after one create_proof.
EXPECTED_PHASES = ("prove.keygen", *(span for span, _, _ in ROUNDS))

_MSM_COUNTERS = ("msm.calls", "msm.fixed_base_calls")


def _msm_counts() -> list[float]:
    snapshot = telemetry.counters_snapshot()
    return [snapshot.get(name, 0) for name in _MSM_COUNTERS]


def example_circuit():
    """The paper's Example 2.1 pipeline f(x,y,z) = 3*(x+y)*z plus a
    4-bit range lookup on column a — the repo's canonical small circuit
    (k=5), shared by tests and the CI selfcheck."""
    from repro.plonkish import ConstraintSystem

    cs = ConstraintSystem()
    q_add = cs.selector("q_add")
    q_mul = cs.selector("q_mul")
    q_range = cs.selector("q_range")
    q_out = cs.selector("q_out")
    table = cs.fixed_column("range_table")
    a = cs.advice_column("a")
    b = cs.advice_column("b")
    c = cs.advice_column("c")
    out = cs.instance_column("out")
    cs.create_gate("add", [q_add.cur() * (a.cur() + b.cur() - c.cur())])
    cs.create_gate("mul", [q_mul.cur() * (a.cur() * b.cur() - c.cur())])
    cs.create_gate("out", [q_out.cur() * (c.cur() - out.cur())])
    cs.add_lookup("range16", [q_range.cur() * a.cur()], [table.cur()])
    cs.copy(c, 0, b, 1)
    cs.copy(c, 1, b, 2)
    return cs, dict(
        q_add=q_add, q_mul=q_mul, q_range=q_range, q_out=q_out,
        table=table, a=a, b=b, c=c, out=out,
    )


def example_assignment(cs, cols, x=7, y=11, z=13):
    from repro.algebra import SCALAR_FIELD
    from repro.plonkish import Assignment

    asg = Assignment(cs, SCALAR_FIELD, EXAMPLE_K)
    asg.assign_column(cols["table"], list(range(16)))
    asg.assign(cols["q_add"], 0, 1)
    asg.assign(cols["a"], 0, x)
    asg.assign(cols["b"], 0, y)
    asg.assign(cols["c"], 0, x + y)
    asg.assign(cols["q_range"], 0, 1)
    asg.assign(cols["q_mul"], 1, 1)
    asg.assign(cols["a"], 1, z)
    asg.assign(cols["b"], 1, x + y)
    asg.assign(cols["c"], 1, (x + y) * z)
    asg.assign(cols["q_mul"], 2, 1)
    asg.assign(cols["a"], 2, 3)
    asg.assign(cols["b"], 2, (x + y) * z)
    result = 3 * (x + y) * z
    asg.assign(cols["c"], 2, result)
    asg.assign(cols["q_out"], 2, 1)
    asg.assign(cols["out"], 2, result)
    return asg, result


def run_instrumented_prove():
    """One fully-instrumented example prove; returns the prove root
    span.  The tracer must already be enabled.

    The MSM counters are read between ``create_proof`` and
    ``verify_proof`` and set on the root: ``prover_msm_calls`` /
    ``prover_fixed_base_calls``, ``verifier_msm_calls`` /
    ``verifier_fixed_base_calls``, and ``expected_fixed_base_calls``
    (the circuit's commitments plus two per IPA round)."""
    from repro.algebra import SCALAR_FIELD
    from repro.commit import setup
    from repro.proving import create_proof, keygen, verify_proof
    from repro.telemetry.circuit import CircuitReport

    cs, cols = example_circuit()
    asg, _ = example_assignment(cs, cols)
    params = setup(EXAMPLE_K)
    root = telemetry.begin_span("prove", source="selfcheck", k=EXAMPLE_K)
    try:
        with telemetry.span("prove.keygen"):
            pk = keygen(params, cs, SCALAR_FIELD, EXAMPLE_K, asg.fixed)
        before = _msm_counts()
        proof = create_proof(pk, asg)
        proved = _msm_counts()
    finally:
        root.end()
    telemetry.observe("prove.seconds", root.duration)
    instance = [asg.instance_values(cols["out"])[: asg.usable_rows]]
    if not verify_proof(pk.vk, proof, instance):
        raise AssertionError("selfcheck proof did not verify")
    verified = _msm_counts()
    report = CircuitReport.from_constraint_system(cs, EXAMPLE_K)
    (prover_calls, prover_fixed), (verifier_calls, verifier_fixed) = (
        [b - a for a, b in zip(start, end)]
        for start, end in ((before, proved), (proved, verified))
    )
    root.set(
        prover_msm_calls=prover_calls,
        prover_fixed_base_calls=prover_fixed,
        verifier_msm_calls=verifier_calls,
        verifier_fixed_base_calls=verifier_fixed,
        expected_fixed_base_calls=report.estimated_commit_msms() + 2 * EXAMPLE_K,
    )
    return root


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    outdir = Path(argv[0]) if argv else Path("telemetry-selfcheck")
    outdir.mkdir(parents=True, exist_ok=True)

    telemetry.enable(True)
    telemetry.reset()
    root = run_instrumented_prove()

    tracer = telemetry.get_tracer()
    telemetry.write_trace(outdir / "trace.jsonl", tracer)
    tree = telemetry.render_tree(
        tracer.roots, tracer.counters_snapshot(), tracer.gauges_snapshot()
    )
    (outdir / "span_tree.txt").write_text(tree + "\n", encoding="utf-8")
    print(tree)

    failures: list[str] = []
    child_names = {child.name for child in root.children}
    for phase in EXPECTED_PHASES:
        if phase not in child_names:
            failures.append(f"missing phase span {phase!r}")
    openings = sum(span.name == "ipa.open" for span in root.walk())
    if openings != 1:
        failures.append(f"{openings} ipa.open spans in one proof, expected 1")
    report = telemetry.phase_report(
        root, tracer.counters_snapshot(), tracer.gauges_snapshot()
    )
    print()
    print(telemetry.render_phases(report))
    if report["phase_coverage"] < 0.95:
        failures.append(
            f"phase coverage {report['phase_coverage']:.1%} < 95%"
        )
    counters = tracer.counters_snapshot()
    for counter in ("fft.calls", "field.inversions"):
        if counters.get(counter, 0) <= 0:
            failures.append(f"counter {counter!r} never incremented")
    work = root.attrs
    for name, expected in (
        ("prover_msm_calls", 0),
        ("prover_fixed_base_calls", work["expected_fixed_base_calls"]),
        ("verifier_msm_calls", 1),
    ):
        if work[name] != expected:
            failures.append(f"{name} = {work[name]:g}, expected {expected}")

    # Histograms: the kernel observe() sites must have recorded, and
    # the whole registry must render as valid Prometheus text format.
    from repro.telemetry import promtext

    registry = telemetry.metrics_registry()
    for name in ("prove.seconds", "msm.points_per_call", "fft.points_per_call"):
        snap = registry.histogram(name)
        if snap is None or snap.count <= 0:
            failures.append(f"histogram {name!r} never observed")
    exposition = promtext.render_registry(registry)
    (outdir / "metrics.prom").write_text(exposition, encoding="utf-8")
    try:
        samples = promtext.parse(exposition)
    except ValueError as exc:
        failures.append(f"promtext exposition failed to parse: {exc}")
    else:
        if not any("prove_seconds" in name for name in samples):
            failures.append("prove.seconds missing from the exposition")

    if failures:
        for failure in failures:
            print(f"selfcheck FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nselfcheck OK: trace + span tree written to {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
