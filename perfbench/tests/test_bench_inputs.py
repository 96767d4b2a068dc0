"""Generators are deterministic per seed and realise the properties each
workload relies on; the output checks accept real CLI outputs."""

import dataclasses

import pytest

import inputs
import run
from seamcheck import (DptOption, attribute_to_seams, coverage_check,
                       enumerate_library, expected_count, parse_library,
                       parse_rules, run_all)

GENERATORS = (inputs.sparse_lef, inputs.dense_lef, inputs.large_lef)


@pytest.fixture(scope="module")
def rules():
    with open("testdata/rules.yaml", encoding="utf-8") as fh:
        return parse_rules(fh.read())


@pytest.mark.parametrize("make", GENERATORS)
def test_same_seed_same_bytes(make):
    assert make(3, 12) == make(3, 12)
    assert make(3, 12) != make(4, 12)


def _verify(library, rules, option):
    result = run_all(library, rules, option)
    reports, residual = attribute_to_seams(
        result.violations, result.cases, result.floorplan,
        rules.interaction_distance)
    return result, sum(len(r.violations) for r in reports), len(residual)


@pytest.mark.parametrize("seed", range(4))
def test_sparse_is_clean_for_every_seed(seed, rules):
    library = parse_library(inputs.sparse_lef(seed, 17))
    assert [c.height_rows for c in library.cells].count(2) == 2
    for option in DptOption:
        assert run_all(library, rules, option).violations == ()


@pytest.mark.parametrize("seed", range(3))
def test_dense_realises_seam_violations(seed, rules):
    library = parse_library(inputs.dense_lef(seed, 8))
    assert min(len(c.shapes) for c in library.cells) >= 10
    for option, kinds in ((DptOption.OPTION_I, {"SpacingSameMask",
                                                "Hotspot"}),
                          (DptOption.OPTION_II, {"OddCycle"})):
        result, attributed, residual = _verify(library, rules, option)
        found = {k for k, n in result.counts_by_kind().items() if n}
        assert kinds <= found
        assert residual == 0
        assert attributed == len(result.violations)


@pytest.mark.parametrize("seed", range(3))
def test_large_counts_and_coverage(seed):
    n = 9
    library = parse_library(inputs.large_lef(seed, n))
    cases = enumerate_library(library)
    assert sum(len(c.placements) for c in cases) == expected_count(n)
    assert coverage_check(cases, library).complete


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_cli_outputs_pass_their_checks(name):
    workload = dataclasses.replace(run.WORKLOADS[name], cells=6)
    paths = run.prepare(name, workload, seed=5, trace=False)
    tally = run.Tally()
    run._child_pass(workload, paths, None, tally)
    assert tally.attempted == len(workload.steps)
    assert tally.failed == 0


def test_reference_mismatch_fails_the_step():
    name = "verify-dense"
    workload = dataclasses.replace(run.WORKLOADS[name], cells=6)
    paths = run.prepare(name, workload, seed=5, trace=False)
    wrong = {"verify": {"counts": {"I": {"Hotspot": 1}, "II": {}}}}
    tally = run.Tally()
    run._child_pass(workload, paths, wrong, tally)
    assert tally.failed == 1
