"""``run.py compare A.json B.json``: one verdict per workload x metric.

A is the base (the parent commit), B the change; make each with
``--repeat N`` (ten, for a claim).  A metric has ``regressed`` when B's
median over its runs is worse than A's by more than the metric's bound;
when it has not but either side's run-to-run spread (IQR / median of
its runs) is wider than the bound, the comparison cannot tell and says
``unresolved``; otherwise ``ok``.  A side with a single run has no
spread to show: its rows say so with ``n=1`` and can only be ``ok`` or
``regressed``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

import metrics


def verdict(
    base: float, change: float, better: str, bound: float, spread: float
) -> tuple[float, str]:
    """``(ratio, verdict)``; the ratio is change / base."""
    ratio = change / base if base else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return ratio, "regressed"
    if spread > bound:
        return ratio, "unresolved"
    return ratio, "ok"


def rows(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    out = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, _unit, better, bound in metrics.END_TO_END:
            ma, mb = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            ratio, word = verdict(
                ma["value"], mb["value"], better, bound,
                max(ma["run_iqr_frac"], mb["run_iqr_frac"]),
            )
            out.append({
                "workload": workload, "metric": name, "unit": ma["unit"],
                "a": ma["value"], "a_iqr": ma["run_iqr_frac"], "a_n": len(ma["runs"]),
                "b": mb["value"], "b_iqr": mb["run_iqr_frac"], "b_n": len(mb["runs"]),
                "ratio": ratio, "bound": bound, "verdict": word,
            })
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("a", type=Path, help="base results file")
    parser.add_argument("b", type=Path, help="changed results file")
    args = parser.parse_args(argv)
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (args.a, args.b))
    for label, report in (("A", a), ("B", b)):
        p = report["provenance"]
        print(f"{label}: {p['git_sha'][:12]}{' dirty' if p['git_dirty'] else ''} "
              f"seeds={report['seeds']} load={p['loadavg_start'][0]:.2f}")
    print(f"{'workload':14s} {'metric':26s} {'A median':>12s} {'n':>2s} {'A iqr':>6s} "
          f"{'B median':>12s} {'n':>2s} {'B iqr':>6s} {'B/A':>7s} {'bound':>6s}  verdict")
    table = rows(a, b)
    for r in table:
        print(f"{r['workload']:14s} {r['metric']:26s} {r['a']:12.6g} {r['a_n']:2d} "
              f"{r['a_iqr']:6.3f} {r['b']:12.6g} {r['b_n']:2d} {r['b_iqr']:6.3f} "
              f"{r['ratio']:7.3f} {r['bound']:6.4g}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in table) else 0
