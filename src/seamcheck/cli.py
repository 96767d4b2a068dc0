"""Command-line entry point.

Four subcommands mirror the flow phases: ``profile`` summarizes cell
libraries, ``generate`` writes the abutment testcases (Verilog + DEF +
count manifest), ``verify`` runs the checkers and writes reports, and
``report`` renders the summary table and violation SVGs from a prior
verify run.

Options may come from a YAML config file (--config); explicit flags win.
Exit codes: 0 clean, 1 violations found (or a failed self-check), 2
execution error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from contextlib import contextmanager, suppress
from itertools import islice

import yaml

from . import defio, netlist, report
from .abutment import coverage_check, expected_count, placement_count
from .checks import DptOption, ViolationKind, case_layout, run_all
from .floorplan import DEFAULT_MAX_ROW_WIDTH, plan_library
from .geometry import Rect
from .library import parse_library, profile
from .rules import parse_rules


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _create(path: str):
    """A new UTF-8 text file at ``path`` with LF line endings."""
    return open(path, "w", encoding="utf-8", newline="\n")


@contextmanager
def _staged(out_dir: str, owned: tuple[str, ...] = ()):
    """Yield a function that creates the file ``name``, a path relative
    to ``out_dir``, (as ``_create`` does) under a temporary name directly
    in ``out_dir``. When the block completes every file is renamed into
    place, its directory made first, and every file that matches one of
    the ``owned`` glob patterns (relative to ``out_dir``) but was not
    created is removed, so no file of an earlier run is left beside them.
    When the block raises, every temporary is removed, so ``out_dir``
    gains no file and no directory and loses none."""
    staged: list[tuple[str, str]] = []  # (temporary path, final path)

    def create(name: str):
        final = os.path.join(out_dir, name)
        temporary = os.path.join(
            out_dir, f".seamcheck.{os.getpid()}.{len(staged)}.tmp")
        staged.append((temporary, final))
        return _create(temporary)

    try:
        yield create
    except BaseException:
        for temporary, _ in staged:
            with suppress(FileNotFoundError):
                os.remove(temporary)
        raise
    for temporary, final in staged:
        os.makedirs(os.path.dirname(final), exist_ok=True)
        os.replace(temporary, final)
    created = {os.path.relpath(final, out_dir) for _, final in staged}
    for pattern in owned:
        for name in set(glob.glob(pattern, root_dir=out_dir)) - created:
            os.remove(os.path.join(out_dir, name))


@contextmanager
def _naming(path: str):
    """Prefix ``path`` to the message of a ValueError raised in the
    block, so an input error names the file it came from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_rules(path: str):
    text = _read(path)
    with _naming(path):
        return parse_rules(text)


def _load_libraries(paths):
    """(path, library) per path; a parse error names its file. Output
    files are named after the LIBRARY name, so two libraries with one name,
    or a name with a path separator, are an input error."""
    libs = []
    seen: dict[str, str] = {}
    for path in paths:
        text = _read(path)
        with _naming(path):
            lib = parse_library(text)
        if "/" in lib.name or "\\" in lib.name:
            raise ValueError(f"{path}: library name {lib.name!r} contains a "
                             f"path separator; output files are named "
                             f"after it")
        if lib.name in seen:
            raise ValueError(f"libraries {seen[lib.name]} and {path} are "
                             f"both named {lib.name}")
        seen[lib.name] = path
        libs.append((path, lib))
    return libs


def _integer(value, what: str) -> int:
    """The exact integer value of ``value``: an int, an integral float or
    an integer string. Anything else, a fractional float or a boolean
    included, is an input error naming ``what``."""
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (isinstance(value, float) and number != value):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return number


class _Options:
    """Merged view of config-file values and command-line flags."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = {}
        if getattr(args, "config", None):
            text = _read(args.config)
            try:
                doc = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ValueError(f"config file {args.config} is not valid "
                                 f"YAML: {exc}") from None
            if doc is None:
                doc = {}
            if not isinstance(doc, dict):
                raise ValueError("config file must be a YAML mapping")
            self.cfg = doc

    def get(self, key: str, default=None, required: bool = False):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.cfg.get(key, default)
        if required and value is None:
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"missing required option {flag}")
        return value

    def integer(self, key: str, default: int) -> int:
        return _integer(self.get(key, default), f"option {key}")

    def path(self, key: str, default=None, required: bool = False):
        value = self.get(key, default, required)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"option {key} must be a path, not {value!r}")
        return value

    def libs(self, required: bool = True):
        value = self.get("libs", required=required)
        if value is not None and not (
                isinstance(value, list) and value
                and all(isinstance(v, str) for v in value)):
            raise ValueError(f"option libs must be a list of one or more "
                             f"paths, not {value!r}")
        return value


def _dpt_options(opt: _Options) -> list[DptOption]:
    value = opt.get("dpt_option", "both")
    if value == "both":
        return [DptOption.OPTION_I, DptOption.OPTION_II]
    if value not in ("I", "II"):
        raise ValueError(f"option dpt_option must be I, II or both, "
                         f"not {value!r}")
    return [DptOption(value)]


def cmd_profile(args) -> int:
    opt = _Options(args)
    out_dir = opt.path("out", "out")
    os.makedirs(out_dir, exist_ok=True)
    with _staged(out_dir) as create:
        for path, lib in _load_libraries(opt.libs()):
            stats = profile(lib)
            lines = [f"Library {lib.name}: {len(lib.cells)} cells "
                     f"({stats.n_single} single, {stats.n_multi} multi)",
                     "Width histogram (DBU):"]
            for width, count in stats.width_hist.items():
                lines.append(f"  {width:>8}  {'#' * min(count, 60)} {count}")
            lines.append("Height histogram (rows):")
            for rows, count in stats.height_rows_hist.items():
                lines.append(f"  {rows:>8}  {'#' * min(count, 60)} {count}")
            text = "\n".join(lines) + "\n"
            sys.stdout.write(text)
            with create(f"profile_{lib.name}.txt") as fh:
                fh.write(text)
            with create(f"profile_{lib.name}.json") as fh:
                fh.write(json.dumps({
                    "library": lib.name, "path": path,
                    "cells": len(lib.cells),
                    "n_single": stats.n_single, "n_multi": stats.n_multi,
                    "width_hist": stats.width_hist,
                    "height_rows_hist": stats.height_rows_hist,
                }, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_generate(args) -> int:
    opt = _Options(args)
    out_dir = opt.path("out", "out")
    os.makedirs(out_dir, exist_ok=True)
    rules = _load_rules(opt.path("rules", required=True))
    max_row_width = opt.integer("max_row_width", DEFAULT_MAX_ROW_WIDTH)
    status = 0
    with _staged(out_dir) as create:
        for path, lib in _load_libraries(opt.libs()):
            with _naming(path):
                cases, fp = plan_library(lib, rules, max_row_width)
            with create(f"testcases_{lib.name}.v") as fh:
                netlist.write_verilog(fh, cases)
            with create(f"testcases_{lib.name}.def") as fh:
                defio.write_def(fh, cases, lib, fp)
            stats = profile(lib)
            placements = placement_count(cases)
            expected = (expected_count(stats.n_single, "proposed")
                        if stats.n_multi == 0 else None)
            coverage = coverage_check(cases, lib)
            manifest = {
                "library": lib.name,
                "path": path,
                "cells": len(lib.cells),
                "n_single": stats.n_single,
                "n_multi": stats.n_multi,
                "cases": len(cases),
                "placements": placements,
                "formula": "4*N + 5*N*(N-1)/2 (single-height libraries)",
                "expected_placements": expected,
                "matches_expected": expected is None or placements == expected,
                "coverage_classes": coverage.universe,
                "coverage_complete": coverage.complete,
            }
            with create(f"manifest_{lib.name}.json") as fh:
                fh.write(json.dumps(manifest, indent=2, sort_keys=True)
                         + "\n")
            sys.stdout.write(
                f"{lib.name}: {len(cases)} cases, {placements} placements"
                + ("" if expected is None else f" (expected {expected})")
                + ", coverage "
                + ("complete\n" if coverage.complete else "INCOMPLETE\n"))
            if not manifest["matches_expected"] or not coverage.complete:
                print(f"error: self-check failed for library {lib.name}",
                      file=sys.stderr)
                status = 1
    return status


def _verify_run(lib, rules, option: DptOption, max_row_width: int, out):
    """One library under one DPT option: writes its JSONL to ``out`` and
    returns its ``results.json`` run entry. The result, with its cases
    and floorplan, is released on return, so verify holds one run's cases
    at a time."""
    res = run_all(lib, rules, option, max_row_width)
    window = rules.interaction_distance
    seams = report.seams_per_violation(res.violations, res.cases,
                                       res.floorplan, window)
    records = [report.violation_record(v, res.cases, s)
               for v, s in zip(res.violations, seams)]
    run = {
        "option": option.value,
        "counts": res.counts_by_kind(),
        "drc": res.drc_count,
        "drcplus": res.drcplus_count,
        "seam_attributed": sum(map(len, seams)),
        "residual": seams.count([]),
        "recolor_diff": dict(sorted(res.recolor_diff.items())),
        "violations": records,
    }
    out.write(report.render_jsonl(res, window))
    return run


# The SVGs that report draws from the violations that verify wrote.
_SVGS = os.path.join("svg", "*.svg")


def cmd_verify(args) -> int:
    opt = _Options(args)
    out_dir = opt.path("out", "out")
    os.makedirs(out_dir, exist_ok=True)
    rules = _load_rules(opt.path("rules", required=True))
    max_row_width = opt.integer("max_row_width", DEFAULT_MAX_ROW_WIDTH)
    payload = {"rules": opt.path("rules"), "max_row_width": max_row_width,
               "window": rules.interaction_distance, "libraries": []}
    with _staged(out_dir, ("violations_*_opt*.jsonl", _SVGS)) as create:
        for path, lib in _load_libraries(opt.libs()):
            runs = []
            for option in _dpt_options(opt):
                name = f"violations_{lib.name}_opt{option.value}.jsonl"
                with create(name) as fh, _naming(path):
                    runs.append(_verify_run(lib, rules, option,
                                            max_row_width, fh))
            payload["libraries"].append(
                {"name": lib.name, "path": path, "runs": runs})
        table = report.summary_table(payload["libraries"])
        with create("summary.txt") as fh:
            fh.write(table.render())
        with create("summary.json") as fh:
            fh.write(json.dumps(table.to_dict(), indent=2, sort_keys=True)
                     + "\n")
        # Streamed: the encoder's chunks, joined, would be the run's peak.
        with create("results.json") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.stdout.write(table.render())
    return 1 if any(run["violations"] for entry in payload["libraries"]
                    for run in entry["runs"]) else 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_STRING = ("a string", lambda v: isinstance(v, str))
_STRING_OR_NULL = ("a string or null",
                   lambda v: v is None or isinstance(v, str))
_LIST = ("a list", lambda v: isinstance(v, list))
_INTEGER = ("an integer", _is_int)
_KIND_NAMES = frozenset(k.value for k in ViolationKind)
# What report checks of results.json, per level: key -> (expected, test).
_LIBRARY_KEYS = {"name": _STRING, "path": _STRING, "runs": _LIST}
_RUN_KEYS = {"option": ("I or II", lambda v: v in ("I", "II")),
             "drc": _INTEGER, "drcplus": _INTEGER, "violations": _LIST}
_RECORD_KEYS = {
    "case": _STRING_OR_NULL,
    "kind": ("a violation kind",
             lambda v: isinstance(v, str) and v in _KIND_NAMES),
    "layer": _STRING,
    "bbox": ("a list of 4 integers", lambda v: isinstance(v, list)
             and len(v) == 4 and all(map(_is_int, v))),
    "shape_ids": ("a list of integers",
                  lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "pattern": _STRING_OR_NULL,
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


def _read_results(path: str) -> dict:
    """The payload a verify run wrote to ``path``, with every value that
    report reads checked: a malformed one is an input error naming the
    file and the key."""
    try:
        payload = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    _check_keys(path, payload, "", {"libraries": _LIST})
    if "rules" in payload:
        _check_keys(path, payload, "", {"rules": _STRING_OR_NULL})
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


def cmd_report(args) -> int:
    opt = _Options(args)
    out_dir = opt.path("out", "out")
    results_path = os.path.join(out_dir, "results.json")
    if not os.path.exists(results_path):
        raise ValueError(f"no results.json under {out_dir}; run verify first")
    payload = _read_results(results_path)
    svg_cap = opt.integer("svg_cap", 50)
    margin = 200

    rules = _load_rules(opt.path("rules", payload.get("rules"),
                                 required=True))
    lib_paths = opt.libs(required=False) or [
        entry["path"] for entry in payload["libraries"]]
    libs = {lib.name: (path, lib)
            for path, lib in _load_libraries(lib_paths)}
    max_row_width = _integer(
        payload.get("max_row_width", DEFAULT_MAX_ROW_WIDTH),
        f"{results_path} key max_row_width")

    svg_count = 0
    with _staged(out_dir, (_SVGS,)) as create:
        for entry in payload["libraries"]:
            lib_path, lib = libs.get(entry["name"], (None, None))
            cases = None  # laid out only when an SVG may be drawn
            for run in entry["runs"]:
                if lib is None or svg_cap <= 0 or all(
                        rec["case"] is None for rec in run["violations"]):
                    continue
                if cases is None:
                    with _naming(lib_path):
                        cases, fp = plan_library(lib, rules, max_row_width)
                    module_index = {c.module_name: i
                                    for i, c in enumerate(cases)}
                option = DptOption(run["option"])
                picked = islice(((vi, rec)
                                 for vi, rec in enumerate(run["violations"])
                                 if rec["case"] in module_index), svg_cap)
                layout_idx = None  # the case ``layout`` belongs to
                for vi, rec in picked:
                    idx = module_index[rec["case"]]
                    if idx != layout_idx:
                        layout_idx = idx
                        layout = case_layout(idx, cases, fp, rules, option)
                    with create(os.path.join(
                            "svg", f"{entry['name']}_opt{run['option']}_"
                            f"{vi:04d}_{rec['kind']}.svg")) as fh:
                        fh.write(report.render_svg(
                            layout, Rect(*rec["bbox"]), margin,
                            tuple(s["x"] for s in rec["seams"])))
                    svg_count += 1
        table = report.summary_table(payload["libraries"])
        with create("summary.txt") as fh:
            fh.write(table.render())
    sys.stdout.write(table.render())
    sys.stdout.write(f"wrote {svg_count} svg file(s)\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seamcheck",
        description="Standard-cell abutment testcase generation and "
                    "seam-level lithography-compliance checking")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file; flags override it")
        p.add_argument("--libs", nargs="+", help="library file paths")
        p.add_argument("--out", help="output directory (default: out)")

    p = sub.add_parser("profile", help="cell library statistics")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("generate", help="write testcase netlist + DEF")
    common(p)
    p.add_argument("--rules", help="rule deck path")
    p.add_argument("--max-row-width", type=int, dest="max_row_width")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run all checks and write reports")
    common(p)
    p.add_argument("--rules", help="rule deck path")
    p.add_argument("--dpt-option", choices=["I", "II", "both"],
                   dest="dpt_option")
    p.add_argument("--max-row-width", type=int, dest="max_row_width")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="render summary and SVGs from a verify run")
    common(p)
    p.add_argument("--rules", help="rule deck path")
    p.add_argument("--svg-cap", type=int, dest="svg_cap",
                   help="max SVG files per run (default 50)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
