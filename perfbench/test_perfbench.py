"""Tests of the benchmark itself: request lists, tail, self time, metrics.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import generate, hostspeed, layers, metrics
from perfbench.tracer import Span, SpanTracer, layer_self_times, self_times
from perfbench.workloads import Outcome, RunRecord, combine_passes
from repro.lang import Interpreter
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.tcas import tcas_faulty_program, tcas_program

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture
def small_pool(monkeypatch):
    # A 60-test pool keeps the 39-version classification under a second.
    monkeypatch.setattr(generate, "TCAS_POOL_SIZE", 60)


def test_tcas_work_is_a_function_of_the_seed(small_pool):
    first = generate.tcas_work(3)
    assert generate.tcas_work(3) == first
    assert generate.tcas_work(4) != first
    assert generate.serve_repeats(first, 3) == generate.serve_repeats(first, 3)


def test_tcas_requests_fail_against_the_golden_output(small_pool):
    reference = Interpreter(tcas_program())
    for version in generate.tcas_work(5):
        faulty = Interpreter(tcas_faulty_program(version.version))
        inputs = [request.inputs for request in version.requests]
        assert len(set(inputs)) == len(inputs)
        assert len(inputs) <= generate.TCAS_TESTS_PER_VERSION
        for request in version.requests:
            assert reference.run(list(request.inputs)).return_value == request.expected
            assert faulty.run(list(request.inputs)).return_value != request.expected


def test_siemens_requests_are_seeded_distinct_and_failing():
    first = generate.siemens_requests(1)
    assert generate.siemens_requests(1) == first
    assert generate.siemens_requests(2) != first
    assert len(set(first)) == len(first)
    benchmarks = {benchmark.name: benchmark for benchmark in LARGE_BENCHMARKS}
    for request in first:
        assert benchmarks[request.program].fails(list(request.inputs))
    for name, count in generate.SIEMENS_REQUESTS.items():
        assert sum(1 for request in first if request.program == name) == count


@pytest.mark.parametrize("count", [11, 12, 25, 90, 121, 400])
def test_tail_leaves_ten_samples_beyond(count):
    values = [float(value) for value in range(count, 0, -1)]
    percentile, value = metrics.tail(values)
    assert sum(1 for sample in values if sample > value) == 10
    assert percentile == pytest.approx(100.0 * (count - 10) / count)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "r", "core", "root", 0.0, 10.0),
        Span(1, 0, "r", "maxsat", "a", 1.0, 4.0),
        Span(2, 0, "r", "maxsat", "b", 3.0, 6.0),  # overlaps a: union is 1..6
        Span(3, 1, "r", "sat", "c", 2.0, 3.0),
        Span(4, None, "s", "core", "other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
    assert layer_self_times(spans) == pytest.approx(
        {"core": 6.0, "maxsat": 5.0, "sat": 1.0}
    )


def test_metric_totals_skip_spans_nested_in_the_same_metric():
    tracer = SpanTracer(
        spans=[
            Span(0, None, None, "sat", "solve", 0.0, 4.0, metric="sat.solve_ms"),
            Span(1, 0, None, "sat", "solve", 1.0, 2.0, metric="sat.solve_ms"),
            Span(2, None, None, "sat", "solve", 5.0, 6.0, metric="sat.solve_ms"),
        ]
    )
    assert tracer.metric_totals() == pytest.approx({"sat.solve_ms": 5.0})


def test_install_times_calls_and_uninstall_restores_them():
    from repro.sat import Solver

    original = Solver.solve
    tracer = SpanTracer()
    layers.install(tracer)
    try:
        assert Solver.solve is not original
        solver = Solver()
        solver.add_clause([1, 2])
        with tracer.request("probe"):
            assert solver.solve([-1])
    finally:
        tracer.uninstall()
    assert Solver.solve is original
    assert tracer.counters["sat.calls"] == 1
    assert [span.layer for span in tracer.spans] == ["request", "sat"]
    assert tracer.spans[1].parent == tracer.spans[0].span_id
    assert tracer.spans[1].request == "probe"


def test_step_scales_by_the_kernel_slowdown(monkeypatch):
    monkeypatch.setattr(
        hostspeed, "kernel", lambda: 2 * hostspeed.REFERENCE_KERNEL_SECONDS
    )
    with hostspeed.step() as timing:
        pass
    assert timing.seconds == pytest.approx(timing.measured / 2)
    assert timing.slowdown == pytest.approx(2.0)


def _record(latencies, hit_rank=1):
    return RunRecord(
        outcomes=[Outcome(f"p{index % 3}", latency, hit_rank=hit_rank)
                  for index, latency in enumerate(latencies)],
        compiles=[0.01, 0.02, 0.03],
        wall=sum(latencies),
    )


def test_passes_combine_by_median_and_disagreement_fails():
    fast, slow = _record([0.1] * 12), _record([0.3] * 12)
    combined = combine_passes([fast, slow, _record([0.2] * 12)])
    assert [outcome.latency for outcome in combined.outcomes] == pytest.approx([0.2] * 12)
    assert all(outcome.error is None for outcome in combined.outcomes)
    disagreeing = combine_passes([fast, _record([0.1] * 12, hit_rank=2), fast])
    assert all(outcome.error for outcome in disagreeing.outcomes)


def test_every_metric_is_printed_with_its_declared_unit():
    declared = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    assert end_to_end == metrics.END_TO_END_UNITS
    assert per_layer == layers.PER_LAYER_UNITS

    values, quality = metrics.end_to_end(_record([0.05] * 30), 0.5, 40.0)
    assert set(values) == set(end_to_end)
    assert all(value > 0 for value in values.values())
    assert set(quality) == {"tail_percentile", "detected_fraction", "first_hit_rank"}
    assert set(layers.per_layer_metrics(SpanTracer(), {})) == set(per_layer)
