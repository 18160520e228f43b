"""Recorder of ``compiled_circuit_fingerprints.json``: the circuit each
pinned query compiles to, and the counts a compiler pass moves.

    PYTHONPATH=src python -m tests.data.record_fingerprints

rewrites the file from the compiler as it is -- run it when a change
moves circuits *on purpose*, and read the diff: a pin that moved, or a
count that rose, without the change meaning it to is the bug the file
exists to catch.  Tier-1 holds the committed file to :func:`record`
(``tests/test_tpch.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sql.compiler import QueryCompiler
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.telemetry.circuit import CircuitReport
from repro.tpch import QUERIES as TPCH_QUERIES, generate

PATH = Path(__file__).with_name("compiled_circuit_fingerprints.json")
CONFIG = {"key_bits": 40, "limb_bits": 4, "value_bits": 32}


def pin(db, sql: str, k: int) -> dict:
    compiled = QueryCompiler(db, k, **CONFIG).compile(Planner(db).plan(parse(sql)))
    report = CircuitReport.from_constraint_system(compiled.cs, k)
    return {
        "fingerprint": report.fingerprint,
        "advice": report.advice_columns,
        "lookups": len(report.lookups),
        "range_limbs": report.range_limbs,
        "lookup_helper_columns": report.lookup_helper_columns,
        "estimated_commit_msms": report.estimated_commit_msms(),
        "required_degree": report.required_degree,
    }


def record() -> dict:
    """The file's content, computed."""
    from tests.test_compiler_integration import K, QUERIES, make_db

    shapes_db, tpch_db = make_db(), generate(16, seed=1)
    return {
        "_config": CONFIG,
        "_recorded_by": "python -m tests.data.record_fingerprints",
        f"operator_shapes_k{K}": {
            name: pin(shapes_db, QUERIES[name], K) for name in sorted(QUERIES)
        },
        "tpch_k8_generate16_seed1": {
            name: pin(tpch_db, TPCH_QUERIES[name], 8) for name in sorted(TPCH_QUERIES)
        },
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
