"""Table 1 with the session API: compile once, localize many failing tests.

For every selected TCAS version the harness localizes (a sample of) the
failing tests twice:

* **session** — one :class:`~repro.core.session.LocalizationSession`
  compiles the whole-program encoding once and runs every failing test
  against the persistent MaxSAT engine (solver push/pop between tests);
* **baseline** — the pre-session per-test protocol: a fresh
  whole-program encoding
  (:meth:`~repro.bmc.checker.BoundedModelChecker.encode_program_formula`),
  WCNF and engine per failing test, run through
  :meth:`~repro.core.localizer.BugAssistLocalizer.localize_trace`.

Both sides examine the top ``MAX_CANDIDATES`` CoMSSes per failing test and
must report identical line sets per test.  Besides the printed table the
run writes ``BENCH_table1.json`` at the repository root — per-version wall
times for the serial and worker-pool session paths, the baseline, the
number of whole-program encodings built, and the SAT-call counts — so the
session speedup can be tracked across PRs.

Run with ``pytest benchmarks/bench_table1_sessions.py --runslow`` or
directly with ``python benchmarks/bench_table1_sessions.py``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from conftest import tcas_pool_size, tcas_versions_under_test
from repro.bmc import BoundedModelChecker
from repro.core import BugAssistLocalizer, LocalizationSession, Specification
from repro.siemens.suite import TCAS_HARNESS_LINES, classify_tcas_tests
from repro.siemens.tcas import tcas_faulty_program

#: Machine-readable benchmark record, written next to ROADMAP.md.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_table1.json"

#: CoMSSes examined per failing test (both paths).  The fault line of a
#: detectable version appears within the first few correction sets; this is
#: the working set a developer actually inspects per test.
MAX_CANDIDATES = 3

#: Failing tests localized per version (the paper localizes all of them;
#: twelve keeps the benchmark minutes-scale on a pure-Python SAT stack).
MAX_TESTS = int(os.environ.get("BUGASSIST_SESSION_TESTS", "12"))


def run_version(version: str, test_count: int, max_tests: int) -> dict:
    """One Table 1 row: session (serial + worker pool) vs per-test baseline."""
    failing, _ = classify_tcas_tests(version, count=test_count)
    selected = failing[:max_tests]
    tests = [
        (vector.as_list(), Specification.return_value(expected))
        for vector, expected in selected
    ]
    program = tcas_faulty_program(version)

    session = LocalizationSession(
        program, hard_lines=TCAS_HARNESS_LINES, max_candidates=MAX_CANDIDATES
    )
    started = time.perf_counter()
    with session:
        serial_reports = [session.localize(test, spec) for test, spec in tests]
    session_serial = time.perf_counter() - started

    workers = os.cpu_count() or 1
    pool_session = LocalizationSession(
        program, hard_lines=TCAS_HARNESS_LINES, max_candidates=MAX_CANDIDATES
    )
    started = time.perf_counter()
    with pool_session:
        ranked = pool_session.localize_batch(
            tests, executor="process", workers=workers
        )
    session_process = time.perf_counter() - started

    localizer = BugAssistLocalizer(
        program,
        mode="trace",
        hard_lines=TCAS_HARNESS_LINES,
        max_candidates=MAX_CANDIDATES,
    )
    started = time.perf_counter()
    baseline_reports = [
        localizer.localize_trace(
            BoundedModelChecker(
                program, group_statements=True
            ).encode_program_formula(test, spec)
        )
        for test, spec in tests
    ]
    baseline = time.perf_counter() - started

    lines_equal = all(
        set(s.lines) == set(b.lines)
        for s, b in zip(serial_reports, baseline_reports)
    ) and all(
        set(p.lines) == set(b.lines)
        for p, b in zip(ranked.runs, baseline_reports)
    )
    return {
        "version": version,
        "failing_tests": len(failing),
        "localized_tests": len(tests),
        "max_candidates": MAX_CANDIDATES,
        "session_serial_seconds": round(session_serial, 3),
        "session_process_seconds": round(session_process, 3),
        "process_workers": workers,
        "baseline_seconds": round(baseline, 3),
        "serial_speedup": round(baseline / session_serial, 2) if session_serial else 0.0,
        "encodings_built_session": session.stats.encodings_built,
        "encodings_built_baseline": len(tests),  # one rebuild per test
        "sat_calls_session": session.stats.sat_calls,
        "sat_calls_baseline": sum(r.sat_calls for r in baseline_reports),
        "lines_equal": lines_equal,
    }


def run_benchmark(versions=None, test_count=None, max_tests=MAX_TESTS) -> list[dict]:
    versions = versions or tcas_versions_under_test()
    test_count = test_count or tcas_pool_size()
    rows = [run_version(version, test_count, max_tests) for version in versions]
    _print_table(rows)
    _write_bench_json(rows)
    return rows


def _print_table(rows: list[dict]) -> None:
    print()
    print("Table 1 (session API) — compile once, localize many")
    print(f"{'Ver':>4} {'TC#':>5} {'Run#':>4} {'Sess(s)':>8} {'Pool(s)':>8} "
          f"{'Base(s)':>8} {'Speedup':>7} {'Enc#':>4} {'Equal':>5}")
    for row in rows:
        print(f"{row['version']:>4} {row['failing_tests']:>5} "
              f"{row['localized_tests']:>4} {row['session_serial_seconds']:>8.2f} "
              f"{row['session_process_seconds']:>8.2f} {row['baseline_seconds']:>8.2f} "
              f"{row['serial_speedup']:>6.2f}x {row['encodings_built_session']:>4} "
              f"{str(row['lines_equal']):>5}")
    total_session = sum(row["session_serial_seconds"] for row in rows)
    total_baseline = sum(row["baseline_seconds"] for row in rows)
    speedup = total_baseline / total_session if total_session else 0.0
    print(f"serial aggregate: session {total_session:.2f}s vs per-test baseline "
          f"{total_baseline:.2f}s ({speedup:.2f}x)")


def _write_bench_json(rows: list[dict]) -> None:
    total_session = sum(row["session_serial_seconds"] for row in rows)
    total_baseline = sum(row["baseline_seconds"] for row in rows)
    payload = {
        "protocol": {
            "max_candidates": MAX_CANDIDATES,
            "max_tests_per_version": MAX_TESTS,
            "test_pool": tcas_pool_size(),
        },
        "aggregate": {
            "session_serial_seconds": round(total_session, 3),
            "baseline_seconds": round(total_baseline, 3),
            "serial_speedup": round(total_baseline / total_session, 2)
            if total_session
            else 0.0,
        },
        "versions": rows,
    }
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.slow
def test_table1_sessions():
    """Session batch localization: one encoding, same candidates, faster."""
    rows = run_benchmark()
    for row in rows:
        # Compile-once contract: the whole-program encoding is built exactly
        # once per session (workers adopt the artifact and build none).
        assert row["encodings_built_session"] == 1
        # The session must report the same line sets as the per-test baseline.
        assert row["lines_equal"]
    total_session = sum(row["session_serial_seconds"] for row in rows)
    total_baseline = sum(row["baseline_seconds"] for row in rows)
    assert total_session < total_baseline


if __name__ == "__main__":
    run_benchmark()
