"""Solve reuse in the analysis fixpoint, within one run and across runs.

Every fixpoint round of :func:`repro.analysis.analyze_program` used to
re-solve every function.  A function whose environment (parameter
intervals, callee return summaries, the global-invariant entries it
mentions) matches the one a kept solve ran under now reuses that solve.
Solves are kept in one table per program object and width, so a later
analysis of the same program — the concolic tracer's next failing test, a
second compile — reuses them too.  These tests pin the reuse to the
re-solve-everything fixpoint:

* the analysis products equal a reference run with the reuse predicate
  forced to ``False``, on every TCAS version, the four Table 3 programs and
  a mutually recursive program that reaches the widening rounds;
* a pinned analysis of every seed-7 ``siemens-trace`` request on a warm
  table equals a cold one, an earlier result stays as it was however many
  later analyses share its solves, a program's table dies with it, and the
  per-function cap keeps the most recently used solves;
* every TCAS compile keeps the signature, variable count and clause lists
  recorded from the re-solve-everything fixpoint
  (``golden_tcas_compile.json``), and a compile's artifact bytes do not
  depend on the analyses run on its program before;
* the solve counts reach the ``encode.analysis`` span (of a compile and of
  a concolic trace), the ``repro_analysis_solves`` counter and the encode
  profile;
* an analysis that raises is counted and named on the span, and the
  compile or trace goes on without narrowing;
* with ``--runslow``: the ordered candidates and trace-formula clause
  stores of every ``siemens-trace`` request of seeds 7, 1, 3 and 11 equal
  a run whose solve tables are cleared before each request.
"""
from __future__ import annotations

import copy
import gc
import hashlib
import json
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro.analysis
import repro.analysis.analyzer as analyzer
from repro import obs
from repro.analysis import Interval, analyze_program
from repro.bmc import BoundedModelChecker, dumps_artifact
from repro.concolic import ConcolicTracer
from repro.core import LocalizationSession
from repro.lang import check_program, parse_program
from repro.lang.semantics import DEFAULT_WIDTH
from repro.reduction import minimize_failing_input
from repro.sat import search_backend
from repro.siemens import tcas_faulty_program, tcas_faulty_source
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import TCAS_HARNESS_LINES, localize_large_input
from repro.siemens.tcas import tcas_versions
from repro.spec import Specification

GOLDEN = Path(__file__).with_name("golden_tcas_compile.json")

#: Return summaries grow by one every round until widening stops them.
MUTUAL_RECURSION = """
int count = 0;
int ping(int n) {
    count = count + 1;
    if (n <= 0) {
        return count;
    }
    return pong(n - 1) + 1;
}
int pong(int n) {
    if (n <= 0) {
        return 0;
    }
    return ping(n - 1) + 2;
}
int main(int x) {
    assume(x >= 0);
    assume(x < 10);
    return ping(x);
}
"""

#: One function, no calls, no globals: one kept solve per pinned input.
STRAIGHT_LINE = """
int main(int x) {
    int y = x + 1;
    return y;
}
"""

#: ``f`` runs only when ``x > 0``.  The fixpoint environment of ``f`` under
#: ``x == 0`` is the one the first round of an ``x == 5`` analysis solved it
#: under, before that analysis moved ``g`` on to ``[0, 5]``.
SUPERSEDED = """
int g = 0;
int f(int v) {
    int r = g + 1;
    return r + v;
}
int main(int x) {
    int out = 0;
    if (x > 0) {
        g = x;
        out = f(1);
    }
    return out;
}
"""

#: tot_info's requests take about a minute each on the pure-Python search
#: loop (about 1.6 s on the C kernel).
PYTHON_SEARCH_SKIPS = {"tot_info"} if search_backend() == "python" else set()

BENCHMARKS = {benchmark.name: benchmark for benchmark in LARGE_BENCHMARKS}

#: The analysis products compared against the reference.
PRODUCTS = (
    "diagnostics",
    "write_intervals",
    "flow_write_intervals",
    "variable_intervals",
    "loop_bounds",
    "summaries",
    "states",
)


def mutual_recursion_program():
    program = parse_program(MUTUAL_RECURSION, name="ping-pong")
    check_program(program)
    return program


def fresh_tcas(version: str):
    """A newly parsed TCAS version, with an empty solve table of its own
    (the lru-cached ``tcas_faulty_program`` objects share theirs across
    tests)."""
    program = parse_program(tcas_faulty_source(version), name=f"tcas-{version}")
    check_program(program)
    return program


def solve_table(program):
    return analyzer._SOLVE_TABLES[(id(program), DEFAULT_WIDTH)]


def siemens_trace_tests(seed: int):
    """``(benchmark, test)`` per ``siemens-trace`` request of ``seed``, with
    the inputs delta-debugged as the workload does before it traces."""
    from perfbench.generate import siemens_requests

    runs = []
    for request in siemens_requests(seed):
        benchmark = BENCHMARKS[request.program]
        test = list(request.inputs)
        if "D" in benchmark.reduction:
            test = minimize_failing_input(test, benchmark.fails)
        runs.append((benchmark, test))
    return runs


def corpus():
    programs = [tcas_faulty_program(version) for version in tcas_versions()]
    programs += [benchmark.faulty_program() for benchmark in LARGE_BENCHMARKS]
    programs.append(mutual_recursion_program())
    return programs


def resolve_every_round(monkeypatch):
    """Turn reuse off: every round re-solves every function."""
    monkeypatch.setattr(analyzer, "environment_matches", lambda *args: False)


def clause_digest(compiled) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(compiled.hard).encode())
    for group, clauses in compiled.groups.items():
        digest.update(
            json.dumps([group.line, group.function, group.iteration, clauses]).encode()
        )
    return digest.hexdigest()


def test_mutual_recursion_reaches_widening():
    program = mutual_recursion_program()
    result = analyze_program(program)
    # Every round solves or reuses each function exactly once.
    rounds, rest = divmod(
        result.solves + result.solves_reused, len(program.functions)
    )
    assert rest == 0
    assert rounds > analyzer.WIDEN_ROUND + 1
    assert result.solves_reused > 0


def test_products_equal_the_resolving_fixpoint(monkeypatch):
    programs = corpus()
    reused = [analyze_program(program) for program in programs]
    resolve_every_round(monkeypatch)
    reference = [analyze_program(program) for program in programs]
    for program, got, want in zip(programs, reused, reference):
        assert want.solves_reused == 0
        assert got.solves + got.solves_reused == want.solves, program.name
        for name in PRODUCTS:
            assert getattr(got, name) == getattr(want, name), (program.name, name)


def test_pinned_entry_inputs_equal_the_resolving_fixpoint(monkeypatch):
    """The concolic tracer's analysis: entry parameters pinned to a test."""
    runs = [
        (benchmark.faulty_program(), list(benchmark.failing_test))
        for benchmark in LARGE_BENCHMARKS
    ]
    runs.append((mutual_recursion_program(), [7]))
    reused = [analyze_program(program, entry_inputs=test) for program, test in runs]
    resolve_every_round(monkeypatch)
    for (program, test), got in zip(runs, reused):
        want = analyze_program(program, entry_inputs=test)
        for name in PRODUCTS:
            assert getattr(got, name) == getattr(want, name), (program.name, name)


def test_tcas_reuse_fires():
    solved = reused = 0
    for version in tcas_versions():
        program = fresh_tcas(version)
        result = analyze_program(program)
        solved += result.solves
        reused += result.solves_reused
        # A second analysis of the same program solves nothing.
        again = analyze_program(program)
        assert again.solves == 0, version
        assert again.solves_reused == result.solves + result.solves_reused, version
    assert reused > 0
    assert solved > 0


def test_pinned_analyses_on_a_warm_table_equal_cold_ones():
    """The tracer's analysis of every seed-7 ``siemens-trace`` request, on
    the table the earlier requests left, equals one on a fresh copy of the
    program (a new object, so an empty table)."""
    warm_reused = cold_reused = 0
    for benchmark, test in siemens_trace_tests(7):
        program = benchmark.faulty_program()
        warm = analyze_program(program, entry_inputs=test)
        cold = analyze_program(copy.deepcopy(program), entry_inputs=test)
        assert warm.solves + warm.solves_reused == cold.solves + cold.solves_reused
        warm_reused += warm.solves_reused
        cold_reused += cold.solves_reused
        for name in PRODUCTS:
            assert getattr(warm, name) == getattr(cold, name), (
                benchmark.name,
                test,
                name,
            )
    assert warm_reused > cold_reused


def test_a_reused_solve_reads_the_reusing_run_s_environment():
    """The collectors evaluate a reused solve against this run's global
    invariant, not the one its solving run ended with."""
    program = parse_program(SUPERSEDED, name="superseded")
    check_program(program)
    analyze_program(program, entry_inputs=[5])
    warm = analyze_program(program, entry_inputs=[0])
    cold = analyze_program(copy.deepcopy(program), entry_inputs=[0])
    assert warm.solves_reused > cold.solves_reused
    assert warm.write_interval("f", 4) == Interval.const(1)
    for name in PRODUCTS:
        assert getattr(warm, name) == getattr(cold, name), name


def test_earlier_results_survive_later_analyses():
    """Later analyses share an earlier one's solves but never write to
    them: its products stay as they were."""
    benchmark = BENCHMARKS["schedule2"]
    program = copy.deepcopy(benchmark.faulty_program())
    test = list(benchmark.failing_test)
    earlier = [
        analyze_program(program),
        analyze_program(program, entry_inputs=test),
    ]
    snapshots = [
        {name: copy.deepcopy(getattr(result, name)) for name in PRODUCTS}
        for result in earlier
    ]
    reused = 0
    for value in range(30):
        later = analyze_program(program, entry_inputs=test[:-1] + [value])
        reused += later.solves_reused
    assert reused > 0
    for result, snapshot in zip(earlier, snapshots):
        for name in PRODUCTS:
            assert getattr(result, name) == snapshot[name], name


def test_artifact_bytes_do_not_depend_on_analysis_history():
    """A compile that reuses solves of earlier analyses pickles to the
    same bytes as a cold one (artifact keys hash those bytes)."""
    benchmark = BENCHMARKS["schedule2"]
    program = copy.deepcopy(benchmark.faulty_program())

    def compile_once():
        return BoundedModelChecker(program, group_statements=True).compile_program()

    cold = compile_once()
    for value in range(5):
        analyze_program(program, entry_inputs=[value, *benchmark.failing_test[1:]])
    warm = compile_once()
    assert dumps_artifact(warm) == dumps_artifact(cold)


def test_concurrent_analyses_of_one_program_share_its_table(monkeypatch):
    """Threads analysing one program object at once, with a short switch
    interval and a cap small enough to evict all the time, get the cold
    results and leave every list within the cap."""
    monkeypatch.setattr(analyzer, "SOLVE_TABLE_CAP", 3)
    benchmark = BENCHMARKS["schedule2"]
    program = copy.deepcopy(benchmark.faulty_program())
    tests = [[value, *benchmark.failing_test[1:]] for value in range(12)]
    expected = [
        analyze_program(copy.deepcopy(program), entry_inputs=test) for test in tests
    ]
    failures: list = []

    def worker(offset: int) -> None:
        try:
            for index in range(len(tests)):
                index = (index + offset) % len(tests)
                got = analyze_program(program, entry_inputs=tests[index])
                for name in PRODUCTS:
                    if getattr(got, name) != getattr(expected[index], name):
                        failures.append((index, name))
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert all(
        len(solves) <= analyzer.SOLVE_TABLE_CAP
        for solves in solve_table(program)._solves.values()
    )


def test_a_table_is_dropped_with_its_program():
    program = mutual_recursion_program()
    analyze_program(program, entry_inputs=[3])
    key = (id(program), DEFAULT_WIDTH)
    assert key in analyzer._SOLVE_TABLES
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None
    assert key not in analyzer._SOLVE_TABLES


def test_the_cap_keeps_the_most_recently_used_solves(monkeypatch):
    monkeypatch.setattr(analyzer, "SOLVE_TABLE_CAP", 2)
    program = parse_program(STRAIGHT_LINE, name="straight-line")
    check_program(program)
    assert [analyze_program(program, entry_inputs=[x]).solves for x in (1, 2, 1, 3)] == [
        1,
        1,
        0,
        1,
    ]
    # x=1 was used after x=2, so x=2's solve is the one x=3 displaced.
    assert len(solve_table(program)._solves["main"]) == 2
    assert analyze_program(program, entry_inputs=[1]).solves == 0
    assert analyze_program(program, entry_inputs=[2]).solves == 1
    assert len(solve_table(program)._solves["main"]) == 2


def test_tcas_compiles_match_the_recorded_goldens():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(tcas_versions())
    for version in tcas_versions():
        compiled = LocalizationSession(
            tcas_faulty_program(version), hard_lines=TCAS_HARNESS_LINES
        ).compiled
        recorded = golden[version]
        assert compiled.signature == recorded["signature"], version
        assert compiled.num_vars == recorded["num_vars"], version
        assert clause_digest(compiled) == recorded["clauses"], version


def counter_value(name: str, **labels) -> float:
    return obs.REGISTRY.counter(name, labels=labels or None).value


def test_solve_counts_reach_span_counter_and_profile(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "on")
    solved_before = counter_value("repro_analysis_solves", outcome="solved")
    reused_before = counter_value("repro_analysis_solves", outcome="reused")
    # Both runs start cold: each on its own freshly parsed program.
    with obs.trace("compile") as handle:
        compiled = BoundedModelChecker(
            fresh_tcas("v1"), group_statements=True
        ).compile_program()
    reference = analyze_program(fresh_tcas("v1"))
    spans = {span["name"]: span for span in handle.spans()}
    attrs = spans["encode.analysis"]["attrs"]
    assert attrs == {
        "solves": reference.solves,
        "solves_reused": reference.solves_reused,
    }
    assert reference.solves_reused > 0
    profile = compiled.encode_profile()
    assert profile["analysis_solves"] == reference.solves
    assert profile["analysis_solves_reused"] == reference.solves_reused
    # The compile's analysis and the reference run both counted.
    assert (
        counter_value("repro_analysis_solves", outcome="solved") - solved_before
        == 2 * reference.solves
    )
    assert (
        counter_value("repro_analysis_solves", outcome="reused") - reused_before
        == 2 * reference.solves_reused
    )


def test_analysis_crash_is_counted_and_the_compile_goes_on(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("analysis exploded")

    monkeypatch.setenv("REPRO_TRACE", "on")
    monkeypatch.setattr(repro.analysis, "analyze_program", crash)
    failures_before = counter_value("repro_analysis_failures")
    with obs.trace("compile") as handle:
        compiled = BoundedModelChecker(
            tcas_faulty_program("v1"), group_statements=True
        ).compile_program()
    assert counter_value("repro_analysis_failures") == failures_before + 1
    spans = {span["name"]: span for span in handle.spans()}
    assert spans["encode.analysis"]["attrs"] == {
        "error": "RuntimeError: analysis exploded"
    }
    # Unnarrowed but complete: no diagnostics.
    assert compiled.num_clauses > 0
    assert compiled.diagnostics == ()
    assert compiled.narrowed_vars == 0


def test_trace_analysis_reports_solves_and_reuses_earlier_ones(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "on")
    program = mutual_recursion_program()
    spec = Specification.return_value(0)
    reused_before = counter_value("repro_analysis_solves", outcome="reused")
    attrs = []
    for _ in range(2):
        with obs.trace("trace") as handle:
            ConcolicTracer(program).trace([4], spec)
        spans = {span["name"]: span for span in handle.spans()}
        attrs.append(spans["encode.analysis"]["attrs"])
    cold, warm = attrs
    assert cold["solves"] > 0
    # The second trace of the same test reuses every solve of the first.
    assert warm == {"solves": 0, "solves_reused": cold["solves"] + cold["solves_reused"]}
    assert (
        counter_value("repro_analysis_solves", outcome="reused") - reused_before
        == cold["solves_reused"] + warm["solves_reused"]
    )


def test_trace_analysis_crash_is_counted_and_the_trace_goes_on(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("analysis exploded")

    monkeypatch.setenv("REPRO_TRACE", "on")
    monkeypatch.setattr(repro.analysis, "analyze_program", crash)
    failures_before = counter_value("repro_analysis_failures")
    with obs.trace("trace") as handle:
        formula = ConcolicTracer(mutual_recursion_program()).trace(
            [4], Specification.return_value(0)
        )
    assert counter_value("repro_analysis_failures") == failures_before + 1
    spans = {span["name"]: span for span in handle.spans()}
    assert spans["encode.analysis"]["attrs"] == {
        "error": "RuntimeError: analysis exploded"
    }
    assert formula.num_clauses > 0
    assert formula.narrowed_vars == 0


def clause_store(formula) -> tuple:
    return (
        formula.num_vars,
        formula.lits,
        formula.ends,
        formula.gids,
        formula.group_table,
    )


def ordered_candidates(report) -> list:
    return [
        ([(g.line, g.function, g.iteration) for g in candidate.groups], candidate.cost)
        for candidate in report.candidates
    ]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 1, 3, 11])
def test_siemens_trace_equals_the_table_cleared_run(seed):
    """The whole trace-mode protocol with the tables kept across requests
    equals the run that clears them before each request."""
    from perfbench.generate import siemens_requests

    requests = [
        request
        for request in siemens_requests(seed)
        if request.program not in PYTHON_SEARCH_SKIPS
    ]
    warm = [
        localize_large_input(BENCHMARKS[request.program], request.inputs)
        for request in requests
    ]
    for request, (warm_formula, warm_report) in zip(requests, warm):
        analyzer._SOLVE_TABLES.clear()
        formula, report = localize_large_input(
            BENCHMARKS[request.program], request.inputs
        )
        assert clause_store(formula) == clause_store(warm_formula), request
        assert ordered_candidates(report) == ordered_candidates(warm_report), request
