"""The traced run: spans nest, self times add up to the traced wall time,
counters read return values and uninstalling restores the program."""

import dataclasses
import threading
import time

import pytest

import run
import tracing
from seamcheck import checks, cli, geometry, report


@pytest.fixture
def traced_dense():
    workload = dataclasses.replace(run.WORKLOADS["verify-dense"], cells=6)
    paths = run.prepare("verify-dense", workload, seed=2, trace=True)
    tally = run.Tally()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    run._in_process_pass(cli, workload, paths, None, tally, tracer)
    wall = time.perf_counter() - start
    return tracer, tally, wall


def test_pass_succeeds(traced_dense):
    _, tally, _ = traced_dense
    assert tally.attempted == 2 and tally.failed == 0


def test_spans_nest(traced_dense):
    tracer, _, _ = traced_dense
    spans = tracer.spans
    assert spans and None not in spans
    for index, (_, start, end, parent) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < index
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.self_s", "cli.self_s"]


def test_self_times_sum_to_traced_wall(traced_dense):
    tracer, _, wall = traced_dense
    roots = sum(end - start for _, start, end, parent in tracer.spans
                if parent < 0)
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(roots, rel=1e-9)
    assert 0 < roots <= wall
    assert roots >= 0.9 * wall


def test_counts_follow_return_values(traced_dense):
    tracer, _, _ = traced_dense
    counts = tracer.count_values()
    assert counts["checks.violations"] > 0
    # cmd_verify builds one record per violation, render_jsonl another.
    assert counts["report.violation_records"] == 2 * counts[
        "checks.violations"]
    assert counts["geometry.window_queries"] > 0
    assert counts["report.svgs"] > 0
    assert set(counts) == set(tracing.COUNT_METRICS)


def test_uninstall_restores_bindings():
    originals = (cli.run_all, checks.flatten, report.violation_record,
                 geometry.FlatLayout.query_window)
    with tracing.Tracer():
        assert cli.run_all is not originals[0]
        assert checks.flatten is not originals[1]
        assert geometry.FlatLayout.query_window is not originals[3]
    assert (cli.run_all, checks.flatten, report.violation_record,
            geometry.FlatLayout.query_window) == originals


def test_stacks_are_per_thread():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: None, "inner", None)

    def spawn_and_call():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        inner()

    tracer._wrap(spawn_and_call, "outer", None)()
    # The worker thread's call starts a stack of its own (a root span);
    # the call made by outer's own thread nests under outer (span 0).
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert sorted(s[3] for s in tracer.spans) == [-1, -1, 0]
