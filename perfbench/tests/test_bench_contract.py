"""Both run modes print exactly the metrics BENCHMARK.json declares, with
the declared units, and a run outside a checkout fails without a result."""

import dataclasses
import json
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_match_declaration(name, trace):
    workload = dataclasses.replace(run.WORKLOADS[name], cells=5)
    paths = run.prepare(name, workload, seed=7, trace=bool(trace))
    tally = run.Tally()
    mode = run.run_traced if trace else run.run_untraced
    metrics = mode(name, workload, paths, None, 0.01, tally)
    assert tally.failed == 0 and tally.attempted > 0
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in metrics.items()} == _units(section)
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())


def test_workloads_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "reference.json").write_bytes(
        (BENCH / "reference.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
