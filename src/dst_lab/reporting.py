"""Deterministic rendering of the text outputs (JSON, CSV and SVG charts),
and ``write_files``, the one writer of them.

All outputs are pure functions of their contents: no timestamps, no
library-assigned element ids, byte-identical across runs. SVG charts are
self-contained hand-rolled documents.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .metrics import EvalReport

NO_DATA_MARKER = "# no data"

# Characters XML 1.0 cannot hold even as a reference.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


# ---------------------------------------------------------------------------
# Method-comparison table (headline-style JGA table)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodComparisonRow:
    label: str
    dev_jga_percent: float
    test_jga_percent: float


def render_method_comparison(rows: list[MethodComparisonRow]) -> str:
    """CSV with one row per context-management method, dev and test columns."""
    fields = [(row.label, f"{row.dev_jga_percent:.2f}%", f"{row.test_jga_percent:.2f}%") for row in rows]
    return _table("model,swoz_dev,swoz_test", fields, empty=False)


# ---------------------------------------------------------------------------
# CSV renderers (column orders are frozen)
# ---------------------------------------------------------------------------


def _table(header: str, rows, *, empty: bool) -> str:
    """CSV text: ``header``, the no-data marker when ``empty``, then each row's
    fields joined by commas (a float as its shortest round-trip text), every
    line ending in ``\\n``."""
    lines = [header, NO_DATA_MARKER] if empty else [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _summary_csv(report: EvalReport) -> str:
    rows = [(name, getattr(report, name)) for name in ("jga", "jga_post", "domain_accuracy", "n_dialogues", "n_turns")]
    return _table("metric,value", rows, empty=report.n_turns == 0)


def _per_turn_csv(report: EvalReport) -> str:
    rows = [(idx, *report.per_turn[idx]) for idx in sorted(report.per_turn)]
    return _table("turn_index,jga,count", rows, empty=not rows)


def _group_f1_csv(report: EvalReport) -> str:
    rows = [(group, *scores) for group, scores in report.group_f1.items()]
    return _table("group,precision,recall,f1", rows, empty=not rows)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with doubled quotes, only when it
    holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _slot_errors_csv(report: EvalReport) -> str:
    rows = []
    for (domain, slot), entry in report.slot_errors.items():
        matched = len(entry.matched_ratios)
        mean_ratio = sum(entry.matched_ratios) / matched if matched else 1.0
        fields = (entry.insertions, entry.deletions, entry.imperfect_matches, matched, mean_ratio)
        rows.append((_csv_field(domain), _csv_field(slot), *fields))
    header = "domain,slot,insertions,deletions,imperfect_matches,matched,mean_fuzzy_ratio"
    return _table(header, rows, empty=not rows)


# ---------------------------------------------------------------------------
# SVG helpers
# ---------------------------------------------------------------------------

_SVG_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">'
)


def _svg(width: int, height: int, body: list[str]) -> str:
    parts = [_SVG_HEADER.format(w=width, h=height)]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _no_data_svg(title: str) -> str:
    body = [
        f'<text x="10" y="20" font-weight="bold">{title}</text>',
        '<text x="10" y="45" fill="#777">no data</text>',
    ]
    return _svg(320, 60, body)


def _svg_text(label: str) -> str:
    """``label`` as SVG text content: XML-escaped, and any character XML
    cannot hold replaced by U+FFFD. (``xml.sax.saxutils.escape`` would import
    ``urllib.request`` into every command.)"""
    label = _NOT_XML_CHAR.sub("\ufffd", label)
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _line_chart(title: str, points: list[tuple[float, float]], x_label: str, y_label: str) -> str:
    if not points:
        return _no_data_svg(title)
    width, height, margin = 480, 280, 48
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    span_x = (x_max - x_min) or 1.0
    y_max = max(1e-9, max(ys))
    plot_w, plot_h = width - 2 * margin, height - 2 * margin

    def sx(x: float) -> float:
        return margin + (x - x_min) / span_x * plot_w

    def sy(y: float) -> float:
        return height - margin - y / y_max * plot_h

    path = " ".join(
        f"{'M' if i == 0 else 'L'} {_fmt(sx(x))} {_fmt(sy(y))}" for i, (x, y) in enumerate(points)
    )
    body = [
        f'<text x="{margin}" y="20" font-weight="bold">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="#333"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="#333"/>',
        f'<path d="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{height // 2}" transform="rotate(-90 14 {height // 2})" text-anchor="middle">{y_label}</text>',
        f'<text x="{margin - 6}" y="{height - margin + 4}" text-anchor="end">0</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end">{_fmt(y_max)}</text>',
    ]
    for x, y in points:
        body.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2" fill="#1f77b4"/>')
    return _svg(width, height, body)


def _grouped_bar_chart(
    title: str,
    groups: list[str],
    series: list[tuple[str, str, list[float]]],
) -> str:
    """series: (label, color, one value per group). Group labels may come from
    model output, so each goes through ``_svg_text``."""
    if not groups or not series:
        return _no_data_svg(title)
    width, height, margin = 560, 300, 52
    plot_w, plot_h = width - 2 * margin, height - 2 * margin - 20
    y_max = max(1e-9, max(v for _, _, values in series for v in values))
    slot_w = plot_w / len(groups)
    bar_w = slot_w * 0.8 / len(series)
    body = [f'<text x="{margin}" y="20" font-weight="bold">{title}</text>']
    base_y = height - margin - 20
    body.append(
        f'<line x1="{margin}" y1="{base_y}" x2="{width - margin}" y2="{base_y}" stroke="#333"/>'
    )
    for gi, group in enumerate(groups):
        x0 = margin + gi * slot_w + slot_w * 0.1
        for si, (label, color, values) in enumerate(series):
            v = values[gi]
            h = v / y_max * plot_h
            x = x0 + si * bar_w
            body.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(base_y - h)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(h)}" fill="{color}"/>'
            )
        body.append(
            f'<text x="{_fmt(margin + gi * slot_w + slot_w / 2)}" y="{base_y + 14}" '
            f'text-anchor="middle">{_svg_text(group)}</text>'
        )
    legend_x = margin
    for si, (label, color, _) in enumerate(series):
        lx = legend_x + si * 130
        body.append(f'<rect x="{lx}" y="{height - 18}" width="10" height="10" fill="{color}"/>')
        body.append(f'<text x="{lx + 14}" y="{height - 9}">{label}</text>')
    return _svg(width, height, body)


def _group_f1_svg(report: EvalReport) -> str:
    groups = list(report.group_f1)
    series = [
        ("precision", "#9ecae1", [report.group_f1[g][0] for g in groups]),
        ("recall", "#fdae6b", [report.group_f1[g][1] for g in groups]),
        ("f1", "#31a354", [report.group_f1[g][2] for g in groups]),
    ]
    return _grouped_bar_chart("Slot value F1 by group", groups, series)


def _per_turn_svg(report: EvalReport) -> str:
    points = [(float(idx), report.per_turn[idx][0]) for idx in sorted(report.per_turn)]
    return _line_chart("JGA per turn", points, "turn index", "JGA")


def _slot_errors_svg(report: EvalReport) -> str:
    groups = [f"{d}-{s}" for d, s in report.slot_errors]
    entries = list(report.slot_errors.values())
    series = [
        ("insertions", "#ff7f0e", [float(e.insertions) for e in entries]),
        ("deletions", "#d62728", [float(e.deletions) for e in entries]),
        ("substitutions", "#1f77b4", [float(e.imperfect_matches) for e in entries]),
    ]
    return _grouped_bar_chart("Most error-prone slots", groups, series)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def write_files(out_dir: str | Path, texts: dict[str, str]) -> list[Path]:
    """Write each text as UTF-8, line ends untranslated, to its name under
    ``out_dir``; returns the paths written. All are encoded before anything is
    made, so a text that cannot be encoded writes no file and no directory."""
    out = Path(out_dir)
    blobs = {out / name: text.encode("utf-8") for name, text in texts.items()}
    out.mkdir(parents=True, exist_ok=True)
    for path, blob in blobs.items():
        path.write_bytes(blob)
    return list(blobs)


def render_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write the report as JSON, CSV and SVG files; returns the files written.
    All eight are rendered and encoded before the first is written."""
    texts = {
        "report.json": json.dumps(report.to_json_obj(), indent=2) + "\n",
        "summary.csv": _summary_csv(report),
        "per_turn.csv": _per_turn_csv(report),
        "group_f1.csv": _group_f1_csv(report),
        "slot_errors.csv": _slot_errors_csv(report),
        "per_turn_jga.svg": _per_turn_svg(report),
        "group_f1.svg": _group_f1_svg(report),
        "slot_errors.svg": _slot_errors_svg(report),
    }
    return write_files(out_dir, texts)


def render_context_lengths(rows) -> str:
    """CSV for context-length reports (strategy, n_queries, turn_index, mean rows)."""
    fields = [(r.strategy.value, "" if r.n_queries is None else r.n_queries, r.turn_index, r.mean_rows, r.n_turns) for r in rows]
    return _table("strategy,n_queries,turn_index,mean_rows,n_turns", fields, empty=not fields)


def render_retention_table(rows: list[tuple[int, int, float]]) -> str:
    """CSV of (seed, n_queries, accuracy) triples from retention probes."""
    return _table("seed,n_queries,accuracy", rows, empty=False)
