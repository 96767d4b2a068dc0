"""Span tracing of seamcheck's public functions, installed from outside.

``Tracer`` rebinds each function in ``TRACED`` in every ``seamcheck``
module namespace that holds it (and ``FlatLayout.query_window`` on its
class), so calls made through any import path are recorded. Each call
becomes a span (name, start, end, parent index); one span stack is kept
per thread. Counters read the return values. Nothing inside the program
changes: uninstalling restores every original binding.

Self time is a span's duration minus the durations of its direct children,
so the self times of all spans sum to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict


def _count_flatten(layout, counts):
    counts["geometry.flat_shapes"] += len(layout.shapes)


def _count_query(found, counts):
    counts["geometry.window_queries"] += 1
    counts["geometry.window_candidates"] += len(found)


def _count_runs(runs, counts):
    counts["geometry.run_pairs"] += len(runs)


def _count_run_all(result, counts):
    counts["checks.violations"] += len(result.violations)


def _count_graph(graph, counts):
    counts["checks.conflict_nodes"] += len(graph.nodes)
    counts["checks.conflict_edges"] += len(graph.edges)


def _count_decompose(result, counts):
    counts["checks.odd_cycles"] += len(result.odd_cycles)


def _count_hotspots(found, counts):
    counts["checks.hotspot_matches"] += len(found)


def _count_record(_, counts):
    counts["report.violation_records"] += 1


def _count_svg(_, counts):
    counts["report.svgs"] += 1


def _count_cases(cases, counts):
    counts["abutment.cases"] += len(cases)
    counts["abutment.placements"] += sum(len(c.placements) for c in cases)


def _count_shelves(floorplan, counts):
    counts["floorplan.shelves"] += len({row for row, _ in floorplan.positions})


def _count_verilog(text, counts):
    counts["netlist.bytes"] += len(text)


def _count_def(text, counts):
    counts["defio.bytes"] += len(text)


# (module, function, self-time metric, counter). Entries that share a
# metric add up: the CLI's own time is main plus each command body.
TRACED = (
    ("geometry", "flatten", "geometry.flatten_s", _count_flatten),
    ("geometry", "FlatLayout.query_window", "geometry.query_window_s",
     _count_query),
    ("geometry", "parallel_runs", "geometry.parallel_runs_s", _count_runs),
    ("geometry", "connected_components", "geometry.components_s", None),
    ("checks", "run_all", "checks.run_all_self_s", _count_run_all),
    ("checks", "check_width", "checks.width_s", None),
    ("checks", "check_spacing", "checks.spacing_s", None),
    ("checks", "build_conflict_graph", "checks.conflict_graph_s",
     _count_graph),
    ("checks", "color_decompose", "checks.decompose_s", _count_decompose),
    ("checks", "apply_colors", "checks.apply_colors_s", None),
    ("checks", "match_hotspots", "checks.hotspots_s", _count_hotspots),
    ("checks", "case_layout", "checks.case_layout_s", None),
    ("report", "violation_record", "report.violation_record_s",
     _count_record),
    ("report", "render_jsonl", "report.render_jsonl_s", None),
    ("report", "attribute_to_seams", "report.attribute_s", None),
    ("report", "global_seams", "report.global_seams_s", None),
    ("report", "render_svg", "report.render_svg_s", _count_svg),
    ("abutment", "enumerate_library", "abutment.enumerate_s", _count_cases),
    ("abutment", "coverage_check", "abutment.coverage_s", None),
    ("floorplan", "plan_floorplan", "floorplan.plan_s", _count_shelves),
    ("netlist", "emit_verilog", "netlist.emit_s", _count_verilog),
    ("defio", "emit_def", "defio.emit_s", _count_def),
    ("library", "parse_library", "library.parse_s", None),
    ("rules", "parse_rules", "rules.parse_s", None),
    ("cli", "main", "cli.self_s", None),
    ("cli", "cmd_generate", "cli.self_s", None),
    ("cli", "cmd_verify", "cli.self_s", None),
    ("cli", "cmd_report", "cli.self_s", None),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TRACED))
COUNT_METRICS = (
    "geometry.window_queries", "geometry.window_candidates",
    "geometry.run_pairs", "geometry.flat_shapes",
    "checks.conflict_nodes", "checks.conflict_edges", "checks.odd_cycles",
    "checks.hotspot_matches", "checks.violations",
    "report.violation_records", "report.svgs",
    "abutment.cases", "abutment.placements", "floorplan.shelves",
    "netlist.bytes", "defio.bytes",
)


class Tracer:
    """Records spans and counts while installed (use as a context
    manager). Not reentrant: one tracer at a time."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, metric: str, counter):
        spans, counts, stack_of = self.spans, self.counts, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (metric, start, end, parent)
            if counter is not None:
                counter(result, counts)
            return result

        return traced

    def install(self):
        homes = {module: importlib.import_module(f"seamcheck.{module}")
                 for module, _, _, _ in TRACED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "seamcheck"
                                         or name.startswith("seamcheck."))]
        for module_name, qualname, metric, counter in TRACED:
            home = homes[module_name]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                wrapper = self._wrap(vars(owner)[attr], metric, counter)
                self._rebind(owner, attr, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, metric, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def _rebind(self, owner, name: str, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per metric, for every metric in
        TIME_METRICS (0.0 where nothing ran). Call once every traced call
        has returned."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (metric, _, _, _), seconds in zip(self.spans, own):
            totals[metric] += seconds
        return {m: totals.get(m, 0.0) for m in TIME_METRICS}

    def count_values(self) -> dict[str, int]:
        return {m: self.counts.get(m, 0) for m in COUNT_METRICS}

    def write_spans(self, path):
        """One JSON array per line: [index, name, start, end, parent],
        times in seconds from the first span's start."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - base, 9),
                                     round(end - base, 9), parent]) + "\n")
