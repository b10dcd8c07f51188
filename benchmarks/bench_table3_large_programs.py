"""Table 3: BugAssist on the larger Siemens-style programs with trace reduction.

Each row reports the size of the dynamic error trace and of the MaxSAT
instance before and after applying the benchmark's designated reduction
technique (S = slicing, C = concolic simulation, D = delta debugging), the
number of reported fault locations, and the run time.

Besides the human-readable table, the run writes ``BENCH_table3.json`` at
the repository root — ``{"rows": [...], "metrics": {...}}``, one row per
benchmark with the clause counts, the number of SAT calls and the wall
time, plus the run's :data:`repro.obs.REGISTRY` metrics snapshot
(span-fed encode-phase histograms and solver-effort counters) — so the
performance trajectory can be tracked across PRs.  ``detected`` records
whether some reported candidate names the benchmark's seeded fault line.
Each row also carries *why*-a-row-moved fields:
``propagations_per_second`` (propagation throughput, which reflects whether
the C propagation core or the pure-Python fallback ran),
``conflicts_per_second`` (search-kernel throughput: conflict analysis,
backjumping and VSIDS maintenance), ``gates_shared`` (how many gates the
structure-hashed circuit cache deduplicated while encoding),
``clauses_pruned`` / ``narrowed_vars`` (what the interval-analysis bit
narrowing removed from the reduced trace), plus the active ``propagation_backend`` and
``analysis_backend`` per row.

``encode_time_cold`` is the whole-program compile of the faulty version.
The emission-core fields say *which encoder* produced the row and where its
time went:
``encode_backend`` (``"c"`` when the C emission core ran, else
``"python"``) and ``encode_phase_analysis`` / ``encode_phase_gates``
(interval analysis and the encode walk with gate emission, in seconds).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import run_large_benchmark

_rows = {}

#: Machine-readable benchmark record, written next to ROADMAP.md.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_table3.json"


@pytest.mark.parametrize("benchmark_case", LARGE_BENCHMARKS, ids=lambda b: b.name)
def test_table3_row(benchmark, benchmark_case):
    def run():
        return run_large_benchmark(benchmark_case)

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows[benchmark_case.name] = row
    # The reduction must never grow the instance and the localizer must
    # report a small candidate set.
    assert row.clauses_after <= row.clauses_before
    assert row.variables_after <= row.variables_before
    assert 1 <= row.fault_candidates <= 25


def test_table3_report():
    if not _rows:
        pytest.skip("no Table 3 rows were collected")
    print()
    print("Table 3 — larger benchmarks with trace reduction")
    print(f"{'Program':14} {'Reduc':5} {'LOC':>4} {'Proc#':>5} "
          f"{'assign# (before/after)':>23} {'var# (before/after)':>21} "
          f"{'clause# (before/after)':>23} {'Fault#':>6} {'SAT#':>5} {'time(s)':>8}")
    for name, row in _rows.items():
        print(f"{name:14} {row.reduction:5} {row.loc:>4} {row.procedures:>5} "
              f"{row.assignments_before:>11}/{row.assignments_after:<11} "
              f"{row.variables_before:>10}/{row.variables_after:<10} "
              f"{row.clauses_before:>11}/{row.clauses_after:<11} "
              f"{row.fault_candidates:>6} {row.sat_calls:>5} {row.time_seconds:>8.2f}")
    # At least the slicing- and concolic-reduced programs shrink noticeably.
    shrunk = [
        row for row in _rows.values() if row.clauses_after < row.clauses_before
    ]
    assert len(shrunk) >= 2
    # Only a complete run may replace the cross-PR record; a -k subset must
    # not overwrite it with partial rows.
    if len(_rows) == len(LARGE_BENCHMARKS):
        _write_bench_json()


def test_disabled_tracing_overhead_is_negligible():
    """Micro-assert: with ``REPRO_TRACE=off`` a span is a bare timer.

    Measures the per-span cost of the disabled fast path directly and
    bounds it against a real encode: the spans a request opens must cost
    ≤3% of the request's wall time.  In practice the ratio is orders of
    magnitude below the bound; the assert exists so a regression that puts
    work on the disabled path (registry lookups, dict builds, env reads)
    fails loudly.
    """
    import os

    from repro import obs
    from repro.bmc import BoundedModelChecker

    assert os.environ.get("REPRO_TRACE", "off") in ("", "off"), (
        "micro-assert must run with tracing off"
    )
    assert obs.current_context() is None

    # Per-disabled-span cost, amortized over a tight loop.
    iterations = 10_000
    started = time.perf_counter()
    for _ in range(iterations):
        with obs.span("bench.noop"):
            pass
    per_span = (time.perf_counter() - started) / iterations

    # A real request, tracing off, best of 3.
    case = next(b for b in LARGE_BENCHMARKS if b.name == "schedule")
    program = case.faulty_program()
    request_time = float("inf")
    spans_per_request = None
    for _ in range(3):
        checker = BoundedModelChecker(program, group_statements=True)
        run_started = time.perf_counter()
        checker.compile_program("main")
        request_time = min(request_time, time.perf_counter() - run_started)
    # Count the spans the same request opens when tracing is on.
    os.environ["REPRO_TRACE"] = "on"
    try:
        with obs.trace("bench.count") as handle:
            BoundedModelChecker(program, group_statements=True).compile_program(
                "main"
            )
        spans_per_request = len(handle.spans())
    finally:
        os.environ.pop("REPRO_TRACE", None)
    assert spans_per_request >= 4  # root + compile + the encode phases
    overhead = (spans_per_request * per_span) / request_time
    assert overhead <= 0.03, (overhead, per_span, spans_per_request, request_time)


def _write_bench_json() -> None:
    from repro.obs import REGISTRY
    from repro.sat import propagation_backend, search_backend

    rows = [
        {
            "name": row.name,
            "reduction": row.reduction,
            "clauses_before": row.clauses_before,
            "clauses_after": row.clauses_after,
            "variables_before": row.variables_before,
            "variables_after": row.variables_after,
            "fault_candidates": row.fault_candidates,
            "maxsat_calls": row.maxsat_calls,
            "sat_calls": row.sat_calls,
            "detected": row.detected,
            "time_seconds": round(row.time_seconds, 3),
            "propagations_per_second": round(row.propagations_per_second),
            "conflicts_per_second": round(row.conflicts_per_second),
            "gates_shared": row.gates_shared,
            "clauses_pruned": row.clauses_pruned,
            "narrowed_vars": row.narrowed_vars,
            "unwind_pruned_clauses": row.unwind_pruned_clauses,
            "planned_loops": row.planned_loops,
            "encode_time_cold": round(row.encode_time_cold, 4),
            "encode_backend": row.encode_backend,
            **{
                f"encode_phase_{phase}": seconds
                for phase, seconds in row.encode_phases.items()
            },
            "propagation_backend": propagation_backend(),
            "analysis_backend": search_backend(),
        }
        for row in _rows.values()
    ]
    # The run's metrics registry snapshot replaces hand-rolled timing
    # aggregation: solver-effort counters and the span-fed phase histograms
    # accumulated while the rows above ran.
    payload = {"rows": rows, "metrics": REGISTRY.snapshot()}
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
