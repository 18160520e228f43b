"""ASCII table reporting for benchmark results.

Every benchmark renders a table mirroring the paper's, with measured
(reduced-scale) numbers, paper-scale estimates from the calibration
model, and the paper's reported values side by side.  Reports print to
stdout and persist under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Sequence

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


class Report:
    """A named collection of rows rendered as an aligned table."""

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self._lines: list[str] = []

    def line(self, text: str = "") -> None:
        self._lines.append(text)

    def table(self, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
        cells = [list(map(_fmt, headers))] + [
            [_fmt(c) for c in row] for row in rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(headers))
        ]
        def render(row):
            return "  ".join(c.rjust(w) for c, w in zip(row, widths))
        self._lines.append(render(cells[0]))
        self._lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            self._lines.append(render(row))

    def render(self) -> str:
        bar = "=" * max(len(self.title), 20)
        return "\n".join([bar, self.title, bar] + self._lines) + "\n"

    def emit(self, metadata: dict | None = None) -> str:
        """Print and persist the report; returns the rendered text.

        ``metadata`` (typically :func:`repro.bench.harness.bench_metadata`)
        additionally writes ``<name>.json`` next to the text report, so
        every persisted result is stamped with the commit, prover
        configuration, host, and telemetry metrics it ran with.
        """
        text = self.render()
        print("\n" + text)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(text)
        if metadata is not None:
            payload = {"name": self.name, "title": self.title, **metadata}
            (RESULTS_DIR / f"{self.name}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True, default=str)
                + "\n"
            )
        return text


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)
