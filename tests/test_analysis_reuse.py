"""Within-run solve reuse in the analysis fixpoint.

Every fixpoint round of :func:`repro.analysis.analyze_program` used to
re-solve every function.  A function whose environment (parameter
intervals, callee return summaries, the global-invariant entries it
mentions) matches the one its last live solve ran under now reuses that
solve.  These tests pin the reuse to the re-solve-everything fixpoint:

* the analysis products equal a reference run with the reuse predicate
  forced to ``False``, on every TCAS version, the four Table 3 programs and
  a mutually recursive program that reaches the widening rounds;
* every TCAS compile keeps the signature, variable count and clause lists
  recorded from the re-solve-everything fixpoint
  (``golden_tcas_compile.json``), and a warm splice compile still equals
  its cold compile;
* the solve counts reach the ``encode.analysis`` span, the
  ``repro_analysis_solves`` counter and the encode profile;
* an analysis that raises is counted and named on the span, and the
  compile goes on without narrowing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import repro.analysis
import repro.analysis.analyzer as analyzer
from repro import obs
from repro.analysis import analyze_program
from repro.bmc import BoundedModelChecker
from repro.bmc.splice import splice_compile
from repro.core import LocalizationSession
from repro.lang import check_program, parse_program
from repro.siemens import tcas_faulty_program
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import TCAS_HARNESS_LINES
from repro.siemens.tcas import tcas_versions

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

#: The analysis products compared against the reference.
PRODUCTS = (
    "diagnostics",
    "write_intervals",
    "flow_write_intervals",
    "variable_intervals",
    "loop_bounds",
    "summaries",
    "states",
    "cache",
)


def mutual_recursion_program():
    program = parse_program(MUTUAL_RECURSION, name="ping-pong")
    check_program(program)
    return program


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
    result = analyze_program(mutual_recursion_program(), record_cache=True)
    assert len(result.cache.rounds) > analyzer.WIDEN_ROUND + 1
    assert result.solves_reused > 0


def test_products_equal_the_resolving_fixpoint(monkeypatch):
    programs = corpus()
    reused = [analyze_program(program, record_cache=True) for program in programs]
    resolve_every_round(monkeypatch)
    reference = [analyze_program(program, record_cache=True) for program in programs]
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
        result = analyze_program(tcas_faulty_program(version))
        solved += result.solves
        reused += result.solves_reused
    assert reused > 0
    assert solved > 0


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


@pytest.mark.parametrize("version", ["v2", "v16", "v40"])
def test_warm_splice_equals_cold(version):
    base = BoundedModelChecker(
        tcas_faulty_program("v1"), group_statements=True
    ).compile_program()
    program = tcas_faulty_program(version)
    warm = splice_compile(base, BoundedModelChecker(program, group_statements=True))
    assert warm is not None
    cold = BoundedModelChecker(program, group_statements=True).compile_program()
    for field in dataclasses.fields(cold):
        if field.name in ("spliced_from", "impact_fraction", "gates_shared"):
            continue
        assert getattr(warm, field.name) == getattr(cold, field.name), field.name


def counter_value(name: str, **labels) -> float:
    return obs.REGISTRY.counter(name, labels=labels or None).value


def test_solve_counts_reach_span_counter_and_profile(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "on")
    solved_before = counter_value("repro_analysis_solves", outcome="solved")
    reused_before = counter_value("repro_analysis_solves", outcome="reused")
    with obs.trace("compile") as handle:
        compiled = BoundedModelChecker(
            tcas_faulty_program("v1"), group_statements=True
        ).compile_program()
    reference = analyze_program(tcas_faulty_program("v1"))
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
    # Unnarrowed but complete: no diagnostics, no analysis cache.
    assert compiled.num_clauses > 0
    assert compiled.diagnostics == ()
    assert compiled.analysis_cache is None
    assert compiled.narrowed_vars == 0
