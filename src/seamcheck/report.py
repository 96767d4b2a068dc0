"""Violation reporting and the owner of the ``results.json`` format:
seam attribution, violation records, the run entries that ``verify``
writes, the reader that checks every value ``report`` reads, summary
tables and SVG neighborhood rendering. ``cli`` only wraps the run
entries in their library entries and top level, whose keys
``read_results`` checks here.

A violation is charged to each seam of its own case whose band (the seam
line widened by the attribution window) meets the violation box in x.
A violation lies inside its case's rows, where ``run_all`` makes it, so
the band needs no y extent. The seams are the case's own ``Seam``s with
``x`` moved to the die; the case index, module name and row span stay
with the case. A violation charged to no seam is residual (intra-cell).
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass

from .abutment import AbutmentCase, Seam
from .checks import VerificationResult, Violation, ViolationKind
from .floorplan import Floorplan
from .geometry import FlatLayout, Mask, Rect


@dataclass(frozen=True)
class SeamReport:
    case_index: int
    seam: Seam
    violations: tuple[Violation, ...]


def _die_seams(case: AbutmentCase, ox: int) -> list[Seam]:
    return [seam._replace(x=seam.x + ox) for seam in case.seams]


def global_seams(cases: list[AbutmentCase],
                 floorplan: Floorplan) -> list[tuple[int, Seam]]:
    """Every seam of every case in die coordinates, as (case index, seam)
    pairs in (case, seam) order."""
    return [(idx, seam) for idx, case in enumerate(cases)
            for seam in _die_seams(case, floorplan.origin_of(idx)[0])]


def seams_per_violation(violations, cases, floorplan: Floorplan,
                        window: int) -> list[list[Seam]]:
    """The seams each violation is charged to, parallel to
    ``violations``: every seam of its case, with ``x`` in die
    coordinates, whose band ``[x - window, x + window]`` meets the
    violation box in x (edges count), in seam order. Each violation names
    its case, as ``run_all`` stamps it, and lies inside the case's rows,
    so x alone decides. Seams are built only for the cases that
    violations name."""
    by_case: dict[int, list[Seam]] = {}
    out = []
    for v in violations:
        idx = v.case_index
        if idx not in by_case:
            ox, _ = floorplan.origin_of(idx)
            by_case[idx] = _die_seams(cases[idx], ox)
        b = v.bbox
        out.append([s for s in by_case[idx] if s.x - window <= b.x2
                    and b.x1 <= s.x + window])
    return out


def attribute_to_seams(violations, cases, floorplan: Floorplan,
                       window: int) -> tuple[list[SeamReport], list[Violation]]:
    """``seams_per_violation`` grouped by seam: per-seam reports (seams
    with at least one hit) sorted by case and then by ``x``, and the
    residual list of violations charged to no seam. Every violation
    appears either in >= 1 seam report or in the residual, never both."""
    per_violation = seams_per_violation(violations, cases, floorplan,
                                        window)
    hits: dict[tuple[int, Seam], list[Violation]] = {}
    for v, seams in zip(violations, per_violation):
        for s in seams:
            hits.setdefault((v.case_index, s), []).append(v)
    reports = [SeamReport(idx, s, tuple(vs)) for (idx, s), vs in
               sorted(hits.items(), key=lambda kv: (kv[0][0], kv[0][1].x))]
    residual = [v for v, seams in zip(violations, per_violation)
                if not seams]
    return reports, residual


_COLUMNS = ("drc_I", "drcplus_I", "drc_II", "drcplus_II")
_HEADERS = ("DRC (Opt I)", "DRC+ (Opt I)", "DRC (Opt II)", "DRC+ (Opt II)")


def summary_table(libraries) -> dict:
    """The ``summary.json`` mapping of a ``results.json`` ``libraries``
    list: one row per entry, in order, with the library name and the DRC
    and DRC+ counts of each run under its option (``drc_I``,
    ``drcplus_II``, ...); a run not made has no key."""
    return {"rows": [
        {"library": entry["name"],
         **{f"{key}_{run['option']}": run[key]
            for run in entry["runs"] for key in ("drc", "drcplus")}}
        for entry in libraries]}


def render_summary(table: dict) -> str:
    """``summary.txt``: the rows of ``summary_table`` in aligned columns,
    a zero count as Clean and a run not made as -."""
    def cell(row: dict, column: str) -> str:
        n = row.get(column)
        return "-" if n is None else "Clean" if n == 0 else str(n)

    names = ["Library", *_HEADERS]
    grid = [names] + [[row["library"]] + [cell(row, c) for c in _COLUMNS]
                      for row in table["rows"]]
    widths = [max(len(row[i]) for row in grid) for i in range(len(names))]
    lines = []
    for ri, row in enumerate(grid):
        lines.append("  ".join(
            text.ljust(widths[i]) for i, text in enumerate(row)).rstrip())
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def violation_record(v: Violation, cases, seams) -> dict:
    """JSON-able record for one violation, including ``seams``, the seams
    it was attributed to (its entry of ``seams_per_violation``)."""
    return {
        "kind": v.kind.value,
        "layer": v.layer,
        "bbox": list(v.bbox),
        "case": cases[v.case_index].module_name,
        "seams": [{"x": s.x,
                   "left": f"{s.left[0]}:{s.left[1].value}",
                   "right": f"{s.right[0]}:{s.right[1].value}"}
                  for s in seams],
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


def run_entry(result: VerificationResult, window: int, out) -> dict:
    """The ``results.json`` entry of one verify run, with one record per
    violation. Writes the run's JSONL (``render_jsonl``) to ``out``."""
    seams = seams_per_violation(result.violations, result.cases,
                                result.floorplan, window)
    out.write(render_jsonl(result, window))
    return {
        "option": result.option.value,
        "counts": result.counts_by_kind(),
        "drc": result.drc_count,
        "drcplus": result.drcplus_count,
        "seam_attributed": sum(map(len, seams)),
        "residual": seams.count([]),
        "recolor_diff": result.recolor_diff,
        "violations": [violation_record(v, result.cases, s)
                       for v, s in zip(result.violations, seams)],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_STRING = ("a string", lambda v: isinstance(v, str))
_LIST = ("a list", lambda v: isinstance(v, list))
_INTEGER = ("an integer", _is_int)
_KIND_NAMES = frozenset(k.value for k in ViolationKind)
# What report reads of results.json, per level: key -> (expected, test).
_TOP_KEYS = {"rules": _STRING, "rules_crc32": _INTEGER, "libraries": _LIST}
_LIBRARY_KEYS = {"name": _STRING, "path": _STRING, "crc32": _INTEGER,
                 "runs": _LIST}
_RUN_KEYS = {"option": ("I or II", lambda v: v in ("I", "II")),
             "drc": _INTEGER, "drcplus": _INTEGER, "violations": _LIST}
_RECORD_KEYS = {
    "case": _STRING,
    "kind": ("a violation kind",
             lambda v: isinstance(v, str) and v in _KIND_NAMES),
    "layer": _STRING,
    "bbox": ("a list of 4 integers", lambda v: isinstance(v, list)
             and len(v) == 4 and all(map(_is_int, v))),
    "shape_ids": ("a list of integers",
                  lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "pattern": ("a string or null",
                lambda v: v is None or isinstance(v, str)),
    "seams": ("a list of objects with an integer x",
              lambda v: isinstance(v, list) and all(
                  isinstance(s, dict) and _is_int(s.get("x")) for s in v)),
}


def _check_keys(path: str, mapping, where: str, keys: dict):
    if not isinstance(mapping, dict):
        raise ValueError(f"{path} key {where or '(top level)'} must be an "
                         f"object, not {mapping!r}")
    prefix = f"{where}." if where else ""
    for key, (expected, ok) in keys.items():
        if key not in mapping:
            raise ValueError(f"{path} lacks key {prefix}{key}")
        if not ok(mapping[key]):
            raise ValueError(f"{path} key {prefix}{key} must be {expected}, "
                             f"not {mapping[key]!r}")


def read_results(path: str, text: str) -> dict:
    """The payload a verify run wrote to ``path``, parsed from its
    ``text``, with every value that report reads checked: a missing or
    malformed one is an input error naming the file and the key."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    _check_keys(path, payload, "", _TOP_KEYS)
    for i, entry in enumerate(payload["libraries"]):
        where = f"libraries[{i}]"
        _check_keys(path, entry, where, _LIBRARY_KEYS)
        for j, run in enumerate(entry["runs"]):
            run_where = f"{where}.runs[{j}]"
            _check_keys(path, run, run_where, _RUN_KEYS)
            for k, rec in enumerate(run["violations"]):
                _check_keys(path, rec, f"{run_where}.violations[{k}]",
                            _RECORD_KEYS)
    return payload


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
