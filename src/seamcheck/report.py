"""Violation reporting: seam attribution, summary tables, structured
records and SVG neighborhood rendering.

Violations are attributed to every abutment seam whose band (the seam
line widened by the attribution window, limited to the rows of its
case) intersects the violation box; anything touching no seam lands in
the residual (intra-cell) list.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass

from .abutment import AbutmentCase
from .checks import VerificationResult, Violation
from .floorplan import Floorplan
from .geometry import FlatLayout, Mask, Rect


@dataclass(frozen=True)
class GlobalSeam:
    case_index: int
    seam_index: int
    module: str
    x: int
    y_lo: int
    y_hi: int
    left: tuple[str, str]   # (cell, orientation name)
    right: tuple[str, str]

    def band(self, window: int) -> Rect:
        return Rect(self.x - window, self.y_lo - window,
                    self.x + window, self.y_hi + window)


@dataclass(frozen=True)
class SeamReport:
    seam: GlobalSeam
    violations: tuple[Violation, ...]


def case_seams(case_index: int, case: AbutmentCase,
               floorplan: Floorplan) -> list[GlobalSeam]:
    """The seams of one case in die coordinates, in seam order; each
    spans the case's rows."""
    ox, oy = floorplan.origin_of(case_index)
    y_hi = oy + case.height_rows * floorplan.row_height
    module = case.module_name
    return [GlobalSeam(case_index, j, module, seam.x + ox, oy, y_hi,
                       (seam.left[0], seam.left[1].value),
                       (seam.right[0], seam.right[1].value))
            for j, seam in enumerate(case.seams)]


def global_seams(cases: list[AbutmentCase],
                 floorplan: Floorplan) -> list[GlobalSeam]:
    """Every seam of every case, in (case, seam) order."""
    return [s for idx, case in enumerate(cases)
            for s in case_seams(idx, case, floorplan)]


def seams_per_violation(violations, cases, floorplan: Floorplan,
                        window: int) -> list[list[GlobalSeam]]:
    """The seams each violation is charged to, parallel to
    ``violations``: every seam of its case whose band (widened by
    ``window``) intersects the violation box, in seam order. A violation
    with no case, or with a case index out of range, is charged to no
    seam. Seams are built only for the cases that violations name."""
    by_case: dict[int | None, list[GlobalSeam]] = {}
    out = []
    for v in violations:
        idx = v.case_index
        if idx not in by_case:
            by_case[idx] = (case_seams(idx, cases[idx], floorplan)
                            if idx is not None and 0 <= idx < len(cases)
                            else [])
        out.append([s for s in by_case[idx]
                    if s.band(window).intersects(v.bbox)])
    return out


def attribute_to_seams(violations, cases, floorplan: Floorplan,
                       window: int) -> tuple[list[SeamReport], list[Violation]]:
    """``seams_per_violation`` grouped by seam: per-seam reports (seams
    with at least one hit) in (case, seam) order and the residual list of
    violations charged to no seam. Every violation appears either in >= 1
    seam report or in the residual, never both."""
    per_violation = seams_per_violation(violations, cases, floorplan,
                                        window)
    hits: dict[GlobalSeam, list[Violation]] = {}
    for v, seams in zip(violations, per_violation):
        for s in seams:
            hits.setdefault(s, []).append(v)
    reports = [SeamReport(s, tuple(hits[s])) for s in
               sorted(hits, key=lambda s: (s.case_index, s.seam_index))]
    residual = [v for v, seams in zip(violations, per_violation)
                if not seams]
    return reports, residual


CLEAN = "Clean"
_COLUMNS = ("drc_I", "drcplus_I", "drc_II", "drcplus_II")
_HEADERS = ("DRC (Opt I)", "DRC+ (Opt I)", "DRC (Opt II)", "DRC+ (Opt II)")


@dataclass(frozen=True)
class SummaryRow:
    library: str
    counts: dict  # column key -> int, absent when the option was not run

    def cell(self, column: str) -> str:
        if column not in self.counts:
            return "-"
        n = self.counts[column]
        return CLEAN if n == 0 else str(n)


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[SummaryRow, ...]

    def render(self) -> str:
        names = ["Library"] + list(_HEADERS)
        table = [names] + [
            [r.library] + [r.cell(c) for c in _COLUMNS] for r in self.rows]
        widths = [max(len(row[i]) for row in table)
                  for i in range(len(names))]
        lines = []
        for ri, row in enumerate(table):
            lines.append("  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if ri == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"rows": [{"library": r.library, **r.counts}
                         for r in self.rows]}


def summary_table(libraries) -> SummaryTable:
    """One row per entry of a ``results.json`` ``libraries`` list, in
    order, with the DRC and DRC+ counts of each run under its option;
    zeroes render as Clean."""
    return SummaryTable(tuple(
        SummaryRow(entry["name"], {
            f"{key}_{run['option']}": run[key]
            for run in entry["runs"] for key in ("drc", "drcplus")})
        for entry in libraries))


def violation_record(v: Violation, cases, seams) -> dict:
    """JSON-able record for one violation, including ``seams``, the seams
    it was attributed to (its entry of ``seams_per_violation``)."""
    case = cases[v.case_index].module_name if v.case_index is not None else None
    return {
        "kind": v.kind.value,
        "layer": v.layer,
        "bbox": list(v.bbox),
        "case": case,
        "seams": [{"x": s.x,
                   "left": f"{s.left[0]}:{s.left[1]}",
                   "right": f"{s.right[0]}:{s.right[1]}"} for s in seams],
        "shape_ids": list(v.shape_ids),
        "pattern": v.pattern_name,
    }


def render_jsonl(result: VerificationResult, window: int) -> str:
    """One line per violation: kind, layer, bbox, case, attributed seams,
    shape ids, pattern."""
    seams = seams_per_violation(result.violations, result.cases,
                                result.floorplan, window)
    lines = [json.dumps(violation_record(v, result.cases, s), sort_keys=True)
             for v, s in zip(result.violations, seams)]
    return "".join(line + "\n" for line in lines)


_FILL = {Mask.E1: "#5588cc", Mask.E2: "#dd7766", Mask.NONE: "#bbbbbb"}


def render_svg(layout: FlatLayout, bbox: Rect, margin: int = 0,
               seam_xs: tuple[int, ...] = ()) -> str:
    """Static SVG of a violation neighborhood: every shape within ``bbox``
    plus margin, mask-colored, with ``bbox`` outlined and a vertical line
    at each seam x inside the viewport. Output bytes are a pure function
    of the inputs."""
    vp = bbox.inflated(margin)
    w, h = vp.width, vp.height

    def fx(x: int) -> int:
        return x - vp.x1

    def fy(y: int) -> int:
        return vp.y2 - y  # SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for sid in sorted(layout.query_window(vp)):
        s = layout.shape(sid)
        r = s.rect
        # html.escape, not xml.sax.saxutils.escape: the same replacements
        # (&, <, >), without an import that pulls in urllib and email.
        title = html.escape(f"{sid} {s.layer} {s.source_instance}",
                            quote=False)
        parts.append(
            f'<rect x="{fx(r.x1)}" y="{fy(r.y2)}" width="{r.width}" '
            f'height="{r.height}" fill="{_FILL[s.mask]}" stroke="#333333" '
            f'stroke-width="2">'
            f'<title>{title}</title></rect>')
    for x in seam_xs:
        if vp.x1 <= x <= vp.x2:
            parts.append(
                f'<line x1="{fx(x)}" y1="0" x2="{fx(x)}" '
                f'y2="{h}" stroke="#222222" stroke-width="2" '
                f'stroke-dasharray="16 8"/>')
    parts.append(
        f'<rect x="{fx(bbox.x1)}" y="{fy(bbox.y2)}" width="{bbox.width}" '
        f'height="{bbox.height}" fill="none" stroke="#cc0022" '
        f'stroke-width="4" stroke-dasharray="12 6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
