"""Self-test of the benchmark of record.

Outside tier-1 (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e`` (~1 min: three of
the tests prove real, smoke-sized queries).
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import boundary  # noqa: E402
import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from boundary import BoundaryTracer, Target  # noqa: E402

RECORD = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- the record and the code agree ------------------------------------------------


def test_record_matches_code():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in RECORD["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in RECORD["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert [(w["name"], w["why"]) for w in RECORD["workloads"]] == [
        (w.name, w.why) for w in workloads.RECORD
    ]
    assert RECORD["paths"] == ["benchmarks/e2e"]
    assert RECORD["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_are_the_record(trace):
    result = run.run_workload("verify_batch4", seed=3, seconds=1.0, trace=trace, smoke=True)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in RECORD[section]]
    for m in RECORD[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["targets_missing"] == []
        assert result["metrics"]["prover.round_coverage"]["value"] >= 0.95
        # Every second of create_proof is a kernel's or the residual's.
        rows = result["matrix"]
        in_proof = sum(
            sum(cells.values()) for row, cells in rows.items() if row != "outside"
        )
        assert in_proof == pytest.approx(
            result["metrics"]["prover.create_proof_s"]["value"], rel=0.02
        )
    else:
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_forced_verification_failure_exits_nonzero(tmp_path, monkeypatch, capsys):
    from repro.api import Session
    from repro.system.verifier_node import VerificationReport

    monkeypatch.setattr(
        Session, "verify",
        lambda self, response: VerificationReport(accepted=False, reason="forced"),
    )
    code = child.main([
        "--workload", "verify_batch4", "--seed", "3", "--seconds", "1",
        "--smoke", "--work-dir", str(tmp_path),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert any("forced" in f for f in result["failures"])


def test_no_program_no_result(tmp_path, monkeypatch, capsys):
    """In a directory with only the benchmark's files the run fails
    without printing a result."""
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "verify_batch4", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out.strip() == ""


# -- the boundary tracer ----------------------------------------------------------


@pytest.fixture
def fake_layers(monkeypatch):
    """Two throwaway ``repro.*`` modules: ``low`` defines a kernel,
    ``high`` imported it by name (the case rebinding must cover)."""
    low = types.ModuleType("repro.e2e_selftest_low")
    high = types.ModuleType("repro.e2e_selftest_high")

    def kernel(n):
        time.sleep(0.002)
        return n

    def outer(n):
        time.sleep(0.001)
        return high.kernel(n) + high.kernel(n)

    class Sponge:
        def absorb(self, x):
            return self.absorb_one(x)

        def absorb_one(self, x):
            return x

        @classmethod
        def decode(cls, data):
            return len(data)

    low.kernel = kernel
    high.kernel = kernel  # ``from low import kernel``
    high.outer = outer
    high.Sponge = Sponge
    monkeypatch.setitem(sys.modules, low.__name__, low)
    monkeypatch.setitem(sys.modules, high.__name__, high)
    return low, high


def _targets(low, high):
    return (
        Target(low.__name__, "kernel", "kernel", units=lambda a, k: a[0]),
        Target(high.__name__, "outer", "outer"),
        Target(high.__name__, "Sponge.absorb", "sponge"),
        Target(high.__name__, "Sponge.absorb_one", "sponge"),
        Target(high.__name__, "Sponge.decode", "decode"),
    )


def test_nested_self_times_sum_to_the_parent(fake_layers):
    low, high = fake_layers
    tracer = BoundaryTracer(_targets(low, high))
    original = high.outer
    tracer.install()
    try:
        assert high.outer(7) == 14
        assert high.Sponge().absorb(1) == 1
        assert high.Sponge.decode(b"abc") == 3
    finally:
        tracer.uninstall()
    assert tracer.missing == [":".join(boundary.PHASE_SOURCE)] or tracer.missing == []
    assert high.outer is original and high.kernel is low.kernel

    spans = {s[boundary.ID]: s for s in tracer.spans}
    outer = next(s for s in tracer.spans if s[boundary.KEY] == "outer")
    kernels = [s for s in tracer.spans if s[boundary.KEY] == "kernel"]
    assert len(kernels) == 2
    assert all(s[boundary.PARENT] == outer[boundary.ID] for s in kernels)
    assert sum(s[boundary.UNITS] for s in kernels) == 14
    own = boundary.self_times(tracer.spans)
    total = sum(own[sid] for sid, s in spans.items() if s[boundary.KEY] in ("outer", "kernel"))
    assert total == pytest.approx(outer[boundary.END] - outer[boundary.START])
    assert own[outer[boundary.ID]] < outer[boundary.END] - outer[boundary.START]
    # absorb -> absorb_one re-enters the same layer: one span, not two.
    assert sum(1 for s in tracer.spans if s[boundary.KEY] == "sponge") == 1
    assert sum(1 for s in tracer.spans if s[boundary.KEY] == "decode") == 1
    # The matrix books every self second exactly once.
    matrix = layers.stage_kernel_matrix(tracer.spans)
    assert sum(sum(c.values()) for c in matrix.values()) == pytest.approx(
        sum(own.values())
    )


def test_missing_target_is_counted_not_fatal(fake_layers):
    low, high = fake_layers
    tracer = BoundaryTracer(_targets(low, high) + (
        Target("repro.e2e_selftest_gone", "f", "gone"),
        Target(high.__name__, "Sponge.renamed", "gone"),
        Target(high.__name__, "moved", "gone"),
    ))
    tracer.install()
    try:
        high.outer(1)
    finally:
        tracer.uninstall()
    assert [m for m in tracer.missing if "selftest" in m] == [
        "repro.e2e_selftest_gone:f",
        f"{high.__name__}:Sponge.renamed",
        f"{high.__name__}:moved",
    ]
    assert any(s[boundary.KEY] == "outer" for s in tracer.spans)
    assert layers.span_metrics(tracer.spans)["ecc.msm_s"] == 0.0


def test_threads_keep_their_own_stacks(fake_layers):
    low, high = fake_layers
    tracer = BoundaryTracer(_targets(low, high))
    tracer.install()
    try:
        threads = [threading.Thread(target=high.outer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        tracer.uninstall()
    by_id = {s[boundary.ID]: s for s in tracer.spans}
    kernels = [s for s in tracer.spans if s[boundary.KEY] == "kernel"]
    assert len(kernels) == 8
    for s in kernels:
        parent = by_id[s[boundary.PARENT]]
        assert parent[boundary.KEY] == "outer"
        assert parent[boundary.THREAD] == s[boundary.THREAD]


# -- compare ----------------------------------------------------------------------


def test_compare_verdicts():
    assert compare.verdict(10.0, 10.5, "lower", 0.1, 0.02) == (1.05, "ok")
    assert compare.verdict(10.0, 12.0, "lower", 0.1, 0.02)[1] == "regressed"
    assert compare.verdict(10.0, 8.5, "higher", 0.1, 0.02)[1] == "regressed"
    assert compare.verdict(10.0, 10.5, "lower", 0.1, 0.3)[1] == "unresolved"
    assert compare.verdict(10.0, 7.0, "lower", 0.1, 0.02)[1] == "ok"


def test_compare_reads_the_committed_results():
    """The committed sets of one SHA agree on every row."""
    results = run.RESULTS
    a = json.loads((results / "record-seed1-a.json").read_text())
    for other in ("record-seed1-b.json", "record-seed2.json"):
        b = json.loads((results / other).read_text())
        table = compare.rows(a, b)
        assert len(table) == len(workloads.RECORD) * len(metrics.END_TO_END)
        assert {r["verdict"] for r in table} == {"ok"}, [
            r for r in table if r["verdict"] != "ok"
        ]
