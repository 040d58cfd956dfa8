"""Analysis artifacts as deterministic bytes: CSV tables, SVG figures, manifests.

Every builder returns a ReportBundle whose files are pure functions of its
inputs — no timestamps, random ids, or font dependencies inside hashed
content — so regenerating from identical inputs yields identical digests.
CSV cells carry full-precision reprs (parsing them back reproduces the
plotted values exactly); SVG annotations are rounded for display only.

Output layout on disk: ``<out_root>/<name>/manifest.json`` plus the bundle's
``*.csv`` and ``*.svg`` files. The manifest lists every emitted file with a
sha256 digest; its own ``created_at`` stamp lives outside any hashed content.
A bundle names each file once, and none ``manifest.json``: two inputs whose
sanitized labels collide are a ValidationError, raised before anything is
written, not one file silently overwriting the other.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._version import __version__
from .errors import ValidationError
from .sweep_harness import SweepResult, relative_wer
from .tensor_store import open_replacing
from .vector_ops import SimilarityMatrix, TaskVector, require_finite_real, similarity_matrix

_UNDEFINED_CELL = ""  # CSV marker for undefined (zero-norm) similarities

# Diverging scale endpoints for [-1, 0, +1].
_HEAT_NEG = (33, 102, 172)
_HEAT_MID = (247, 247, 247)
_HEAT_POS = (178, 24, 43)
_HEAT_UNDEFINED = "#bbbbbb"

_SERIES_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


@dataclass(frozen=True)
class ReportFile:
    name: str
    content: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.content).hexdigest()


@dataclass(frozen=True)
class ReportBundle:
    """Named set of CSV tables and SVG figures plus a provenance manifest."""

    name: str
    tables: tuple[ReportFile, ...]
    figures: tuple[ReportFile, ...]
    inputs: dict

    def __post_init__(self):
        seen = {"manifest.json"}
        for _, f in self.files():
            if f.name in seen:
                raise ValidationError(
                    f"report {self.name!r} would write the file {f.name!r} more than once")
            seen.add(f.name)

    def files(self) -> list[tuple[str, ReportFile]]:
        return [("table", f) for f in self.tables] + [("figure", f) for f in self.figures]

    def manifest_obj(self, created_at: str | None = None) -> dict:
        return {
            "name": self.name,
            "tool_version": __version__,
            "inputs": self.inputs,
            "files": [
                {"name": f.name, "kind": kind, "sha256": f.sha256}
                for kind, f in self.files()
            ],
            "created_at": created_at,
        }

    def write(self, out_root: str | Path) -> Path:
        """Write files and manifest under ``<out_root>/<name>/``."""
        out_dir = Path(out_root) / self.name
        out_dir.mkdir(parents=True, exist_ok=True)
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        manifest = json.dumps(self.manifest_obj(created_at=stamp), indent=2) + "\n"
        contents = [(f.name, f.content) for _, f in self.files()]
        contents.append(("manifest.json", manifest.encode("utf-8")))
        for name, content in contents:
            with open_replacing(out_dir / name) as handle:
                handle.write(content)
        return out_dir


def _csv_bytes(rows: Sequence[Sequence[object]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _cell(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return _UNDEFINED_CELL
    return repr(float(value))


def _sanitize(label: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
    return cleaned or "unnamed"


def _heat_color(value: float) -> str:
    t = (float(np.clip(value, -1.0, 1.0)) + 1.0) / 2.0
    if t < 0.5:
        lo, hi, frac = _HEAT_NEG, _HEAT_MID, t * 2.0
    else:
        lo, hi, frac = _HEAT_MID, _HEAT_POS, (t - 0.5) * 2.0
    rgb = tuple(round(a + (b - a) * frac) for a, b in zip(lo, hi))
    return "#%02x%02x%02x" % rgb


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _svg(width: int, height: int, title: str, body: list[str]) -> bytes:
    """An SVG document: ``title``, a white background, then ``body``."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{_esc(title)}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return ("\n".join(parts) + "\n").encode("utf-8")


def _text(x: float, y: float, text: str, size: int, anchor: str | None = None,
          fill: str = "#111111", rotate: int | None = None) -> str:
    """An SVG ``<text>`` of escaped ``text``, turned ``rotate`` degrees about
    its anchor point; int coordinates print as is, floats to two decimals."""
    x, y = (f"{v:.2f}" if isinstance(v, float) else v for v in (x, y))
    anchor_attr = "" if anchor is None else f' text-anchor="{anchor}"'
    transform = "" if rotate is None else f' transform="rotate({rotate} {x} {y})"'
    return (f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" '
            f'font-size="{size}" fill="{fill}"{transform}>{_esc(text)}</text>')


def _svg_heatmap(matrix: SimilarityMatrix, title: str) -> bytes:
    n = len(matrix.labels)
    cell = 46
    left = 14 + 7 * max(len(label) for label in matrix.labels)
    top = 14 + 7 * max(len(label) for label in matrix.labels)
    width = left + n * cell + 20
    height = top + n * cell + 40
    parts = []
    for row, label in enumerate(matrix.labels):
        parts.append(_text(left - 6, top + row * cell + cell / 2 + 4, label, 12, "end"))
        parts.append(_text(left + row * cell + cell / 2, top - 6, label, 12, "start",
                           rotate=-60))
    for row in range(n):
        for col in range(n):
            value = float(matrix.values[row, col])
            x = left + col * cell
            y = top + row * cell
            if math.isnan(value):
                fill, label, text_fill = _HEAT_UNDEFINED, "n/a", "#111111"
            else:
                fill = _heat_color(value)
                label = f"{value:.2f}"
                text_fill = "#ffffff" if abs(value) > 0.6 else "#111111"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )
            parts.append(_text(x + cell / 2, y + cell / 2 + 4, label, 11, "middle", text_fill))
    parts.append(_text(left, top + n * cell + 24, "cosine similarity, scale fixed to [-1, 1]", 12))
    return _svg(width, height, title, parts)


def _tick_values(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _svg_line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    x_label: str,
    y_label: str,
    title: str,
) -> bytes:
    width, height = 640, 420
    left, right, top, bottom = 64, 170, 36, 48
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = [x for _, points in series for x, _ in points]
    ys = [y for _, points in series for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        _text(left, 20, title, 14),
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#444444" stroke-width="1"/>',
    ]
    for tick in _tick_values(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(_text(x, top + plot_h + 18, f"{tick:g}", 11, "middle"))
    for tick in _tick_values(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" '
            f'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(_text(left - 8, y + 4, f"{tick:.4g}", 11, "end"))
    parts.append(_text(left + plot_w / 2, height - 10, x_label, 12, "middle"))
    parts.append(_text(16, top + plot_h / 2, y_label, 12, "middle", rotate=-90))
    for index, (label, points) in enumerate(series):
        color = _SERIES_COLORS[index % len(_SERIES_COLORS)]
        ordered = sorted(points)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in ordered)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in ordered:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
        legend_y = top + 14 + 18 * index
        parts.append(
            f'<line x1="{left + plot_w + 10}" y1="{legend_y - 4}" '
            f'x2="{left + plot_w + 34}" y2="{legend_y - 4}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(_text(left + plot_w + 40, legend_y, label, 11))
    return _svg(width, height, title, parts)


def _matrix_csv(matrix: SimilarityMatrix) -> bytes:
    rows: list[list[object]] = [["label", *matrix.labels]]
    for i, label in enumerate(matrix.labels):
        rows.append([label, *(_cell(matrix.values[i, j]) for j in range(len(matrix.labels)))])
    return _csv_bytes(rows)


def build_similarity_report(
    labeled_vectors: Sequence[tuple[str, TaskVector]],
    granularity: str = "global",
    name: str = "similarity",
) -> ReportBundle:
    """Cosine-similarity matrix (CSV) and annotated heatmap (SVG).

    Per-tensor granularity emits one matrix pair per tensor; undefined cells
    (zero-norm tensors) are empty in the CSV and greyed in the SVG.
    """
    if len(labeled_vectors) < 2:
        raise ValidationError("similarity report needs at least two labeled vectors")
    schema_hash = labeled_vectors[0][1].base_schema.schema_hash
    inputs = {
        "kind": "similarity",
        "granularity": granularity,
        "labels": [label for label, _ in labeled_vectors],
        "base_schema": schema_hash,
    }
    matrices = similarity_matrix(labeled_vectors, granularity)
    if granularity == "global":
        views = [("similarity", "Cosine similarity", matrices)]
    else:
        views = [(f"similarity_{_sanitize(tensor_name)}", f"Cosine similarity ({tensor_name})",
                  matrix) for tensor_name, matrix in matrices.items()]
    tables = []
    figures = []
    for stem, title, matrix in views:
        tables.append(ReportFile(f"{stem}.csv", _matrix_csv(matrix)))
        figures.append(ReportFile(f"{stem}.svg", _svg_heatmap(matrix, title)))
    return ReportBundle(name=name, tables=tuple(tables), figures=tuple(figures), inputs=inputs)


def build_sweep_report(
    results: Sequence[SweepResult],
    labels: Sequence[str],
    name: str = "sweep",
) -> ReportBundle:
    """One CSV per swept series plus a combined WER-vs-scaling-factor chart."""
    if not results:
        raise ValidationError("sweep report needs at least one result")
    if len(results) != len(labels):
        raise ValidationError(
            f"got {len(results)} results but {len(labels)} labels"
        )
    tables = []
    series = []
    for label, result in zip(labels, results):
        if not result.records:
            raise ValidationError(f"sweep series {label!r} has no records to plot")
        points = [(r.lam, r.wer) for r in result.records]
        tables.append(
            ReportFile(f"sweep_{_sanitize(label)}.csv", result.to_csv().encode("utf-8"))
        )
        series.append((label, points))
    figure = ReportFile(
        "sweep.svg",
        _svg_line_chart(series, "scaling factor", "WER", "WER vs. scaling factor"),
    )
    inputs = {
        "kind": "sweep",
        "labels": list(labels),
        "grids": [list(result.lambda_grid) for result in results],
    }
    return ReportBundle(name=name, tables=tuple(tables), figures=(figure,), inputs=inputs)


def build_table_report(
    baseline: Mapping[str, float],
    adapted: Mapping[str, float],
    name: str = "table",
) -> ReportBundle:
    """Baseline/adapted/relative WER table over domains.

    The Average column of the relative row is the mean of per-domain relative
    WERs; a separate relative_of_averages column carries the relative change
    of the mean WERs, since the two differ in general.
    """
    if set(baseline) != set(adapted):
        only_b = sorted(set(baseline) - set(adapted))
        only_a = sorted(set(adapted) - set(baseline))
        raise ValidationError(
            f"domain keys differ: only in baseline {only_b}, only in adapted {only_a}"
        )
    if not baseline:
        raise ValidationError("table report needs at least one domain")
    domains = list(baseline)
    for d in domains:
        require_finite_real(baseline[d], f"baseline WER of {d!r}")
        require_finite_real(adapted[d], f"adapted WER of {d!r}")
    relatives = {d: relative_wer(baseline[d], adapted[d]) for d in domains}
    mean_baseline = sum(baseline.values()) / len(domains)
    mean_adapted = sum(adapted.values()) / len(domains)
    rows: list[list[object]] = [
        ["metric", *domains, "average", "relative_of_averages"],
        ["baseline_wer", *(_cell(baseline[d]) for d in domains), _cell(mean_baseline), ""],
        ["adapted_wer", *(_cell(adapted[d]) for d in domains), _cell(mean_adapted), ""],
        [
            "relative_wer_pct",
            *(_cell(relatives[d]) for d in domains),
            _cell(sum(relatives.values()) / len(domains)),
            _cell(relative_wer(mean_baseline, mean_adapted)),
        ],
    ]
    inputs = {
        "kind": "table",
        "domains": domains,
        "baseline": {d: baseline[d] for d in domains},
        "adapted": {d: adapted[d] for d in domains},
    }
    return ReportBundle(
        name=name,
        tables=(ReportFile("table.csv", _csv_bytes(rows)),),
        figures=(),
        inputs=inputs,
    )
