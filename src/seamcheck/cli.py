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
import zlib
from contextlib import contextmanager, suppress

import yaml

from . import defio, netlist, report
from .abutment import coverage_check, expected_count, placement_count
from .checks import DptOption, case_layout, run_all
from .floorplan import plan_library
from .geometry import Rect
from .library import parse_library, profile
from .rules import parse_rules


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _crc32(text: str) -> int:
    """The checksum of an input text that ``results.json`` records, so
    that ``report`` can tell that the file changed after ``verify``."""
    return zlib.crc32(text.encode("utf-8"))


def _create(path: str):
    """A new UTF-8 text file at ``path`` with LF line endings."""
    return open(path, "w", encoding="utf-8", newline="\n")


@contextmanager
def _staged(out_dir: str, owned: tuple[str, ...] = ()):
    """Yield a function that creates the file ``name``, a path relative
    to ``out_dir``, (as ``_create`` does) under a temporary name directly
    in ``out_dir``. When the block completes every directory the files
    need is made, then every file is renamed into place, and every file
    that matches one of the ``owned`` glob patterns (relative to
    ``out_dir``) but was not created is removed, so no file of an earlier
    run is left beside them; a pattern's directory below ``out_dir`` that
    is then empty is removed too.
    When the block raises, every temporary is removed, so ``out_dir``
    gains no file and no directory and loses none. When a directory or a
    rename fails after it, every temporary not yet renamed is removed
    too: ``out_dir`` is left with no temporary."""
    staged: list[tuple[str, str]] = []  # (temporary path, final path)

    def create(name: str):
        final = os.path.join(out_dir, name)
        temporary = os.path.join(
            out_dir, f".seamcheck.{os.getpid()}.{len(staged)}.tmp")
        staged.append((temporary, final))
        return _create(temporary)

    try:
        yield create
        for folder in {os.path.dirname(final) for _, final in staged}:
            os.makedirs(folder, exist_ok=True)
        for temporary, final in staged:
            os.replace(temporary, final)
    except BaseException:
        for temporary, _ in staged:
            with suppress(FileNotFoundError):
                os.remove(temporary)
        raise
    created = {os.path.relpath(final, out_dir) for _, final in staged}
    for pattern in owned:
        for name in set(glob.glob(pattern, root_dir=out_dir)) - created:
            os.remove(os.path.join(out_dir, name))
        if folder := os.path.dirname(pattern):
            with suppress(OSError):  # absent, or still holds a file
                os.rmdir(os.path.join(out_dir, folder))


@contextmanager
def _naming(path: str):
    """Prefix ``path`` to the message of a ValueError raised in the
    block, so an input error names the file it came from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_rules(path: str):
    """The deck at ``path`` and the ``_crc32`` of its text."""
    text = _read(path)
    with _naming(path):
        return parse_rules(text), _crc32(text)


def _load_libraries(paths):
    """(path, library, ``_crc32`` of its text) per path; a parse error
    names its file. Output files are named after the LIBRARY name, so two
    libraries with one name, or a name with a path separator, are an
    input error."""
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
        libs.append((path, lib, _crc32(text)))
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
        if value is None:  # a key given as null counts as not given
            value = default if self.cfg.get(key) is None else self.cfg[key]
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
        for path, lib, _ in _load_libraries(opt.libs()):
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
    rules, _ = _load_rules(opt.path("rules", required=True))
    status = 0
    with _staged(out_dir) as create:
        for path, lib, _ in _load_libraries(opt.libs()):
            cases, fp = plan_library(lib, rules)
            with create(f"testcases_{lib.name}.v") as fh:
                netlist.write_verilog(fh, cases)
            with create(f"testcases_{lib.name}.def") as fh:
                defio.write_def(fh, cases, fp)
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


# The SVGs that report draws from the violations that verify wrote.
_SVGS = os.path.join("svg", "*.svg")


def cmd_verify(args) -> int:
    opt = _Options(args)
    out_dir = opt.path("out", "out")
    os.makedirs(out_dir, exist_ok=True)
    rules, rules_crc32 = _load_rules(opt.path("rules", required=True))
    payload = {"rules": opt.path("rules"), "rules_crc32": rules_crc32,
               "window": rules.interaction_distance, "libraries": []}
    with _staged(out_dir, ("violations_*_opt*.jsonl", _SVGS)) as create:
        for path, lib, crc32 in _load_libraries(opt.libs()):
            runs = []
            for option in _dpt_options(opt):
                name = f"violations_{lib.name}_opt{option.value}.jsonl"
                # The run's result, with its cases and floorplan, is
                # released once its entry is built, so verify holds one
                # run's cases at a time.
                with create(name) as fh:
                    runs.append(report.run_entry(
                        run_all(lib, rules, option),
                        rules.interaction_distance, fh))
            payload["libraries"].append(
                {"name": lib.name, "path": path, "crc32": crc32,
                 "runs": runs})
        table = report.summary_table(payload["libraries"])
        summary = report.render_summary(table)
        with create("summary.txt") as fh:
            fh.write(summary)
        with create("summary.json") as fh:
            fh.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
        # Streamed: the encoder's chunks, joined, would be the run's peak.
        with create("results.json") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.stdout.write(summary)
    return 1 if any(run["violations"] for entry in payload["libraries"]
                    for run in entry["runs"]) else 0


def cmd_report(args) -> int:
    opt = _Options(args)
    out_dir = opt.path("out", "out")
    results_path = os.path.join(out_dir, "results.json")
    if not os.path.exists(results_path):
        raise ValueError(f"no results.json under {out_dir}; run verify first")
    payload = report.read_results(results_path, _read(results_path))
    svg_cap = opt.integer("svg_cap", 50)
    if svg_cap < 0:
        raise ValueError(f"option svg_cap must be a non-negative integer, "
                         f"not {svg_cap}")
    margin = 200

    def unchanged(key, recorded, path, crc):
        if recorded != crc:
            raise ValueError(f"{results_path} key {key} is {recorded}, but "
                             f"{path} has CRC-32 {crc}; run verify again")

    # Only the libraries with a record among the first svg_cap of a run
    # are drawn, so only they and the deck are read, and each is compared
    # with its checksum as it is read: what is drawn is what verify checked.
    drawn = [(i, entry) for i, entry in enumerate(payload["libraries"])
             if any(run["violations"][:svg_cap] for run in entry["runs"])]
    rules_path = opt.path("rules", payload["rules"])
    lib_paths = opt.libs(required=False) or [entry["path"]
                                             for _, entry in drawn]
    if drawn:
        rules, rules_crc32 = _load_rules(rules_path)
        unchanged("rules_crc32", payload["rules_crc32"], rules_path,
                  rules_crc32)
        libs = {lib.name: (path, lib, crc32)
                for path, lib, crc32 in _load_libraries(lib_paths)}

    svg_count = 0
    with _staged(out_dir, (_SVGS,)) as create:
        for i, entry in drawn:
            if entry["name"] not in libs:
                raise ValueError(
                    f"{results_path} key libraries[{i}].name names library "
                    f"{entry['name']}, which no library file read defines")
            lib_path, lib, crc32 = libs[entry["name"]]
            unchanged(f"libraries[{i}].crc32", entry["crc32"], lib_path,
                      crc32)
            cases, fp = plan_library(lib, rules)
            module_index = {c.module_name: idx for idx, c in enumerate(cases)}
            for j, run in enumerate(entry["runs"]):
                option = DptOption(run["option"])
                layout_idx = None  # the case ``layout`` belongs to
                for vi, rec in enumerate(run["violations"][:svg_cap]):
                    idx = module_index.get(rec["case"])
                    # The inputs are the ones verify read, so only an
                    # edited results.json names a case not made.
                    if idx is None:
                        raise ValueError(
                            f"{results_path} key libraries[{i}].runs[{j}]"
                            f".violations[{vi}].case names {rec['case']}, "
                            f"which {lib_path} does not make; run verify "
                            f"again")
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
        summary = report.render_summary(
            report.summary_table(payload["libraries"]))
        with create("summary.txt") as fh:
            fh.write(summary)
    sys.stdout.write(summary)
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
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run all checks and write reports")
    common(p)
    p.add_argument("--rules", help="rule deck path")
    p.add_argument("--dpt-option", dest="dpt_option",
                   help="I, II or both (default both)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="render summary and SVGs from a verify run")
    common(p)
    p.add_argument("--rules", help="rule deck path")
    p.add_argument("--svg-cap", dest="svg_cap",
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
