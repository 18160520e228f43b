"""Trace exporters: JSONL files, human-readable span trees, and the
flat phase-report dict surfaced by ``PoneglyphDB.open(...).prove(...)``.

The JSONL format is line-per-record and strictly round-trippable
(:func:`write_trace` / :func:`read_trace`): a leading ``meta`` record
carries counters and gauges, then one ``span`` record per span in
pre-order with explicit ``id``/``parent`` links.  The CLI renderer
(``python -m repro.telemetry.report``) consumes exactly this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field
from typing import Iterable

from repro.telemetry.tracer import Span, Tracer

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


@dataclass
class Trace:
    """A deserialized trace file: span forest plus flat metrics."""

    roots: list[Span] = dc_field(default_factory=list)
    counters: dict[str, float] = dc_field(default_factory=dict)
    gauges: dict[str, float] = dc_field(default_factory=dict)

    def job_roots(self) -> dict[str, list[Span]]:
        """Root spans grouped by their stamped ``job_id`` attribute --
        one stitched tree (or forest) per service job.  Roots without a
        job context land under ``""``."""
        grouped: dict[str, list[Span]] = {}
        for root in self.roots:
            grouped.setdefault(str(root.attrs.get("job_id", "")), []).append(
                root
            )
        return grouped


def _json_attr(value):
    """Span attrs must survive a JSONL round-trip.  JSON scalars pass
    through; containers are converted element-wise; anything else is
    stringified rather than crashing the exporter (spans routinely
    carry non-string attrs: ints, floats, bools, enums, paths)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_attr(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _json_attr(v) for k, v in value.items()}
    return str(value)


def _span_records(span: Span) -> Iterable[dict]:
    for node in span.walk():
        yield {
            "type": "span",
            "id": node.span_id,
            "parent": node.parent_id,
            "name": node.name,
            "start": node.start,
            "duration": node.duration,
            "cpu": node.cpu,
            "status": node.status,
            "attrs": {str(k): _json_attr(v) for k, v in node.attrs.items()},
        }


def write_trace(path: str | os.PathLike[str], tracer: Tracer) -> None:
    """Serialize a tracer's collected spans/counters to a JSONL file."""
    with open(path, "w", encoding="utf-8") as handle:
        meta = {
            "type": "meta",
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "counters": tracer.counters_snapshot(),
            "gauges": tracer.gauges_snapshot(),
        }
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for root in list(tracer.roots):
            for record in _span_records(root):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_trace(path: str | os.PathLike[str]) -> Trace:
    """Parse a JSONL trace back into a span forest (strict inverse of
    :func:`write_trace` -- ids and parent links are preserved).  Other
    keys of the meta record are ignored, so a file whose meta still
    carries the ``histograms`` list earlier writers added loads too."""
    trace = Trace()
    shell = Tracer(enabled=False)  # spans need a tracer backref only
    by_id: dict[int, Span] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                if record.get("format") != TRACE_FORMAT:
                    raise ValueError(
                        f"not a {TRACE_FORMAT} file: {record.get('format')!r}"
                    )
                trace.counters = record.get("counters", {})
                trace.gauges = record.get("gauges", {})
            elif kind == "span":
                span = Span(
                    shell,
                    record["name"],
                    span_id=record["id"],
                    parent_id=record.get("parent"),
                    attrs=record.get("attrs", {}),
                )
                span.start = record.get("start", 0.0)
                span.duration = record.get("duration", 0.0)
                span.cpu = record.get("cpu", 0.0)
                span.status = record.get("status", "ok")
                span._open = False
                by_id[span.span_id] = span
                parent = by_id.get(span.parent_id) if span.parent_id else None
                if parent is not None:
                    parent.children.append(span)
                else:
                    trace.roots.append(span)
    return trace


# -- human-readable rendering -------------------------------------------------


def _render_span(span: Span, parent_duration: float | None, indent: int, out: list[str]) -> None:
    share = ""
    if parent_duration and parent_duration > 0:
        share = f"  {span.duration / parent_duration:6.1%} of parent"
    flag = "" if span.status == "ok" else f"  [{span.status}]"
    attrs = ""
    if span.attrs:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        attrs = f"  ({inner})"
    out.append(
        f"{'  ' * indent}{span.name:<{max(1, 40 - 2 * indent)}}"
        f" {span.duration:9.4f}s{share}{flag}{attrs}"
    )
    for child in span.children:
        _render_span(child, span.duration, indent + 1, out)


def render_tree(
    roots: Iterable[Span],
    counters: dict[str, float] | None = None,
    gauges: dict[str, float] | None = None,
) -> str:
    """The span tree with per-span wall time and % of parent, plus the
    counter/gauge catalogue -- the ``report`` CLI's main view."""
    out: list[str] = []
    for root in roots:
        _render_span(root, None, 0, out)
    if counters:
        out.append("")
        out.append("counters:")
        for name in sorted(counters):
            value = counters[name]
            shown = int(value) if float(value).is_integer() else value
            out.append(f"  {name:<28} {shown:>14,}")
    if gauges:
        out.append("")
        out.append("gauges:")
        for name in sorted(gauges):
            out.append(f"  {name:<28} {gauges[name]:>14,}")
    return "\n".join(out)


# -- the flat report dict -----------------------------------------------------


def phase_report(
    root: Span,
    counters: dict[str, float] | None = None,
    gauges: dict[str, float] | None = None,
    prefix: str = "prove.",
) -> dict:
    """Flatten one root span into the metrics dict attached to
    :class:`~repro.system.prover_node.QueryResponse` as ``report``.

    ``phases`` maps each direct child (``prefix`` stripped) to its wall
    seconds; ``phase_coverage`` is their sum over the root's total --
    the acceptance bar is >= 0.95, i.e. the instrumentation accounts
    for essentially all prove time.
    """
    phases: dict[str, float] = {}
    for child in root.children:
        name = child.name
        if name.startswith(prefix):
            name = name[len(prefix):]
        phases[name] = phases.get(name, 0.0) + child.duration
    total = root.duration
    covered = sum(phases.values())
    return {
        "span": root.name,
        "total_seconds": total,
        "phases": phases,
        "phase_coverage": (covered / total) if total > 0 else 0.0,
        "counters": dict(counters or {}),
        "gauges": dict(gauges or {}),
    }


def render_phases(report: dict) -> str:
    """Fig 8/9-style phase table for one phase report dict."""
    total = report["total_seconds"] or 1.0
    lines = [
        f"{report['span']}: total {report['total_seconds']:.3f}s "
        f"(phase coverage {report['phase_coverage']:.1%})",
        f"{'phase':<24} {'seconds':>10} {'share':>8}",
        f"{'-' * 24} {'-' * 10} {'-' * 8}",
    ]
    for name, seconds in report["phases"].items():
        lines.append(f"{name:<24} {seconds:>10.4f} {seconds / total:>8.1%}")
    return "\n".join(lines)
