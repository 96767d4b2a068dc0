#!/usr/bin/env python3
"""seamcheck benchmark: drives the ``seamcheck`` CLI on seeded synthetic
libraries and checks every output it writes.

Run from the repository root:

    python3 perfbench/run.py --workload verify-dense --seed 1 --trace 0

With ``--trace 0`` each CLI command runs as a child process and the
end-to-end metrics are measured: ``setup_s`` (median wall time of fresh
processes that import seamcheck and parse the library and deck, three
before each pass), ``pipeline_s`` (median wall time of one pass of the
workload's commands) and ``peak_rss_mb`` (median over passes of the
largest ``ru_maxrss`` of the pass's children). With ``--trace 1`` the commands run in this process
at jobs 1, alternately untraced and under ``tracing.Tracer``, and the
per-layer metrics are the medians of the traced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A summary goes to stderr.
Inputs and outputs live under ``perfbench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import outputs
import tracing

RULES = "testdata/rules.yaml"
SRC = Path("src")
WORK = Path("perfbench") / ".work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
SVG_CAP = 500
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 150

SETUP_SCRIPT = """\
import sys
from seamcheck import parse_library, parse_rules
with open(sys.argv[1], encoding="utf-8") as fh:
    library = parse_library(fh.read())
with open(sys.argv[2], encoding="utf-8") as fh:
    parse_rules(fh.read())
print(len(library.cells))
"""


@dataclass(frozen=True)
class Workload:
    make_lef: Callable[[int, int], str]
    cells: int
    steps: tuple[str, ...]
    jobs: int         # --jobs passed through --config to verify
    clean: bool       # verify must find no violation

    def expected_exit(self, step: str) -> int:
        return 1 if step == "verify" and not self.clean else 0


# Sizes keep one pass at 3 to 8 s on a 2-core machine, so a run of
# --seconds 40 holds several passes and reports their median.
WORKLOADS = {
    # Zero violations: per-case overhead (flatten, window index, run_all
    # glue, seam bookkeeping) dominates; two-row cells add single-multi
    # stacks, and jobs 2 exercises the worker path.
    "verify-sparse": Workload(inputs.sparse_lef, 80, ("verify",), 2, True),
    # Thousands of violations: reporting and the pair, graph and hotspot
    # checkers do real work. Jobs 1, so a worker-pool change should not
    # move it.
    "verify-dense": Workload(inputs.dense_lef, 30, ("verify", "report"), 1,
                             False),
    # No checking: enumeration, coverage, floorplan, DEF and Verilog
    # emission and their memory carry the whole load.
    "generate-large": Workload(inputs.large_lef, 200, ("generate",), 1,
                               True),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str], what: str):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed ({what}): {p}", file=sys.stderr)


class Paths:
    def __init__(self, name: str):
        self.dir = WORK / name
        self.lef = self.dir / "library.lef"
        self.config = self.dir / "config.yaml"
        self.out = self.dir / "out"

    def argv(self, step: str) -> list[str]:
        if step == "verify":
            return ["verify", "--config", str(self.config), "--libs",
                    str(self.lef), "--rules", RULES, "--out", str(self.out),
                    "--dpt-option", "both"]
        if step == "report":
            return ["report", "--out", str(self.out), "--svg-cap",
                    str(SVG_CAP)]
        return ["generate", "--libs", str(self.lef), "--rules", RULES,
                "--out", str(self.out)]


def _check_step(step: str, workload: Workload, paths: Paths,
                reference: dict | None) -> tuple[list[str], dict]:
    if step == "verify":
        problems, counts = outputs.check_verify(paths.out, workload.clean)
        facts = {"counts": counts}
    elif step == "report":
        problems, facts = outputs.check_report(paths.out, SVG_CAP), {}
    else:
        problems, facts = outputs.check_generate(paths.out, workload.cells)
    if reference is not None:
        problems += outputs.compare_reference(facts, reference.get(step))
    return problems, facts


def _record_step(step: str, code, workload: Workload, paths: Paths,
                 reference, tally: Tally):
    problems = []
    if code != workload.expected_exit(step):
        problems.append(f"exit code {code}, expected "
                        f"{workload.expected_exit(step)}")
    problems += _check_step(step, workload, paths, reference)[0]
    tally.record(problems, step)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.resolve())] + ([env["PYTHONPATH"]]
                                if env.get("PYTHONPATH") else []))
    return env


def _spawn(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one child to completion; returns (wall seconds, exit code,
    peak RSS in MB) measured with os.wait4. A child still running after
    CHILD_TIMEOUT_S is killed."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=_child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def _setup_sample(workload: Workload, paths: Paths, tally: Tally) -> float:
    """Wall time of one fresh process that imports seamcheck and parses the
    library and the deck."""
    log = paths.dir / "setup.log"
    seconds, code, _ = _spawn(
        [sys.executable, "-c", SETUP_SCRIPT, str(paths.lef), RULES], log)
    problems = [] if code == 0 else [f"exit code {code}"]
    printed = log.read_text(encoding="utf-8", errors="replace").strip()
    if not problems and printed != str(workload.cells):
        problems.append(f"parsed {printed!r} cells, expected "
                        f"{workload.cells}")
    tally.record(problems, "setup")
    return seconds


def _child_pass(workload: Workload, paths: Paths, reference,
                tally: Tally) -> dict[str, tuple[float, float]]:
    """One pass of the workload's commands as child processes; returns
    step -> (wall seconds, peak RSS MB)."""
    shutil.rmtree(paths.out, ignore_errors=True)
    measured = {}
    for step in workload.steps:
        argv = [sys.executable, "-m", "seamcheck.cli"] + paths.argv(step)
        seconds, code, rss = _spawn(argv, paths.dir / f"{step}.log")
        measured[step] = (seconds, rss)
        _record_step(step, code, workload, paths, reference, tally)
    return measured


def _in_process_pass(cli, workload: Workload, paths: Paths, reference,
                     tally: Tally, tracer=None) -> float:
    """One pass of the workload's commands through ``cli.main`` in this
    process, optionally under a tracer; returns its wall seconds."""
    shutil.rmtree(paths.out, ignore_errors=True)
    codes = {}
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        start = time.perf_counter()
        for step in workload.steps:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    codes[step] = cli.main(paths.argv(step))
                except Exception:  # a crash is a failed command, not a stop
                    traceback.print_exc()
                    codes[step] = None
        seconds = time.perf_counter() - start
    for step in workload.steps:
        _record_step(step, codes[step], workload, paths, reference, tally)
    return seconds


def _keep_going(started: float, seconds: float, pass_walls: list[float]):
    """Start another pass only if the median pass still fits."""
    if not pass_walls:
        return True
    return (time.perf_counter() - started
            + statistics.median(pass_walls)) <= seconds


def run_untraced(name: str, workload: Workload, paths: Paths, reference,
                 seconds: float, tally: Tally) -> dict:
    # Setup samples are spread over the whole run, like the passes, so
    # their median sees the same drift in machine speed. The first run
    # fills the bytecode cache and is not timed.
    _setup_sample(workload, paths, tally)
    setups, passes, walls = [], [], []
    started = time.perf_counter()
    while _keep_going(started, seconds, walls):
        t = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            setups.append(_setup_sample(workload, paths, tally))
        passes.append(_child_pass(workload, paths, reference, tally))
        walls.append(time.perf_counter() - t)
    setup = statistics.median(setups)
    pipeline = statistics.median(sum(s for s, _ in p.values()) for p in passes)
    rss = statistics.median(max(r for _, r in p.values()) for p in passes)
    steps = ", ".join(
        f"{step}_s {statistics.median(p[step][0] for p in passes):.3f}"
        for step in workload.steps)
    print(f"{name}: {len(passes)} passes; {steps}; "
          f"failed_share {tally.failed}/{tally.attempted}", file=sys.stderr)
    return {"setup_s": {"value": setup, "unit": "s"},
            "pipeline_s": {"value": pipeline, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}


def run_traced(name: str, workload: Workload, paths: Paths, reference,
               seconds: float, tally: Tally) -> dict:
    sys.path.insert(0, str(SRC.resolve()))
    from seamcheck import cli

    untraced, traced, per_pass = [], [], []
    tracer = None
    started = time.perf_counter()
    while _keep_going(started, seconds,
                      [u + t for u, t in zip(untraced, traced)]):
        untraced.append(_in_process_pass(cli, workload, paths, reference,
                                         tally))
        tracer = tracing.Tracer()
        traced.append(_in_process_pass(cli, workload, paths, reference,
                                       tally, tracer))
        per_pass.append(tracer.self_times() | tracer.count_values())
    tracer.write_spans(paths.dir / "spans.jsonl")
    metrics = {}
    for metric in tracing.TIME_METRICS:
        metrics[metric] = {"value": statistics.median(
            p[metric] for p in per_pass), "unit": "s"}
    for metric in tracing.COUNT_METRICS:
        unit = "bytes" if metric.endswith(".bytes") else "count"
        metrics[metric] = {"value": per_pass[-1][metric], "unit": unit}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"{name}: {len(traced)} traced passes, median "
          f"{statistics.median(traced):.3f} s traced vs "
          f"{statistics.median(untraced):.3f} s untraced; "
          f"failed_share {tally.failed}/{tally.attempted}", file=sys.stderr)
    return metrics


def prepare(name: str, workload: Workload, seed: int, trace: bool) -> Paths:
    paths = Paths(name)
    shutil.rmtree(paths.dir, ignore_errors=True)
    paths.dir.mkdir(parents=True)
    paths.lef.write_text(workload.make_lef(seed, workload.cells),
                         encoding="utf-8")
    # The traced run stays in this process, so it always runs at jobs 1.
    jobs = 1 if trace else workload.jobs
    paths.config.write_text(f"jobs: {jobs}\n", encoding="utf-8")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in (SRC / "seamcheck" / "cli.py", Path(RULES)):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a "
                  f"seamcheck checkout", file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        reference = reference[args.workload]
    paths = prepare(args.workload, workload, args.seed, bool(args.trace))
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics = run(args.workload, workload, paths, reference, args.seconds,
                  tally)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
