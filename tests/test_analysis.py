"""The `repro.analysis` subsystem: lattice, linter, and the two encoders.

Three layers of guarantees:

* unit tests for the interval lattice and the bit-narrowing plan;
* the diagnostics engine on crafted programs (every lint code fires with
  the right line, clean programs stay clean, front-end failures come back
  as structured ERROR diagnostics instead of exceptions);
* the differential gates the ISSUE demands — `analysis_narrowing` on vs
  off must produce identical fault-candidate line sets on every Table 3
  program (with a real clause-count reduction on tot_info), and static
  soft-clause pruning must not change any report while shrinking the
  relaxable soft set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ERROR,
    WARNING,
    Interval,
    analyze_program,
    analyze_source,
    width_bounds,
)
from repro.lang import parse_program

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


# ------------------------------------------------------------------ intervals


class TestIntervalLattice:
    def test_width_bounds_16(self):
        assert width_bounds(16) == (-32768, 32767)

    def test_join_meet(self):
        a = Interval(2, 5)
        b = Interval(4, 9)
        assert a.join(b) == Interval(2, 9)
        assert a.meet(b) == Interval(4, 5)
        assert a.meet(Interval(7, 9)).empty

    def test_bottom_is_identity_for_join(self):
        a = Interval(-3, 3)
        assert Interval.bottom().join(a) == a
        assert a.join(Interval.bottom()) == a

    def test_wrapping_add(self):
        # A constant sum wraps to the exact wrapped constant...
        big = Interval(30000, 30000)
        assert big.add(big, 16) == Interval.const(-5536, 16)
        # ...while a range straddling the wrap boundary loses all precision.
        wide = Interval(0, 30000)
        assert wide.add(wide, 16).is_top(16)

    def test_const_arithmetic_stays_const(self):
        assert Interval.const(6, 16).mul(Interval.const(7, 16), 16) == Interval.const(42, 16)
        assert Interval.const(7, 16).div(Interval.const(2, 16), 16) == Interval.const(3, 16)
        assert Interval.const(-7, 16).div(Interval.const(2, 16), 16) == Interval.const(-3, 16)

    def test_overflows_is_definite_not_possible(self):
        maybe = Interval(0, 30000)
        assert not maybe.overflows(maybe, "+", 16)
        always = Interval(30000, 30000)
        assert always.overflows(always, "+", 16)

    def test_narrowing_plan_small_unsigned_range(self):
        plan = Interval(0, 7).narrowing_plan(16)
        assert plan is not None
        low_bits, signed = plan
        assert low_bits < 16 and not signed
        # The planned low bits (minus the margin) still cover the range.
        assert (1 << (low_bits - 1)) - 1 >= 7 or low_bits >= 5

    def test_narrowing_plan_signed_range(self):
        plan = Interval(-4, 4).narrowing_plan(16)
        assert plan is not None
        low_bits, signed = plan
        assert signed and low_bits < 16

    def test_narrowing_plan_top_is_none(self):
        assert Interval.top(16).narrowing_plan(16) is None
        assert Interval.bottom().narrowing_plan(16) is None


# ----------------------------------------------------------------- diagnostics


LINT_DEMO = (EXAMPLES / "lint_demo.mc").read_text()


class TestLintDiagnostics:
    def test_every_code_fires_with_its_line(self):
        result = analyze_source(LINT_DEMO, name="lint_demo.mc")
        by_code = {d.code: d for d in result.diagnostics}
        assert by_code["dead-store"].line == 5
        assert by_code["dead-store"].severity == WARNING
        assert by_code["uninitialized-read"].line == 8
        assert by_code["uninitialized-read"].severity == WARNING
        assert by_code["overflow"].line == 10
        assert by_code["const-div-by-zero"].line == 11
        assert by_code["const-div-by-zero"].severity == ERROR
        assert by_code["always-OOB"].line == 12
        assert by_code["dead-code"].line == 17
        assert result.has_errors

    def test_dead_store_overwritten_before_read(self):
        source = (
            "int main(int x) {\n"
            "    int y = x * 2;\n"
            "    y = x + 1;\n"
            "    return y;\n"
            "}\n"
        )
        result = analyze_source(source)
        dead = [d for d in result.diagnostics if d.code == "dead-store"]
        assert [d.line for d in dead] == [2]

    def test_branch_read_keeps_store_alive(self):
        source = (
            "int main(int x) {\n"
            "    int y = x * 2;\n"
            "    if (x > 0) {\n"
            "        return y;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        result = analyze_source(source)
        assert not any(d.code == "dead-store" for d in result.diagnostics)

    def test_global_store_is_never_dead(self):
        source = (
            "int g = 0;\n"
            "int main(int x) {\n"
            "    g = x;\n"
            "    return 0;\n"
            "}\n"
        )
        result = analyze_source(source)
        assert not any(d.code == "dead-store" for d in result.diagnostics)

    def test_call_on_rhs_is_not_reported(self):
        source = (
            "int bump(int v) { return v + 1; }\n"
            "int main(int x) {\n"
            "    int y = bump(x);\n"
            "    return 0;\n"
            "}\n"
        )
        result = analyze_source(source)
        assert not any(d.code == "dead-store" for d in result.diagnostics)

    def test_loop_carried_update_is_live(self):
        source = (
            "int main(int n) {\n"
            "    int i = 0;\n"
            "    while (i < n) {\n"
            "        i = i + 1;\n"
            "    }\n"
            "    return n;\n"
            "}\n"
        )
        result = analyze_source(source)
        # The loop increment reads its own previous value; only a store the
        # liveness pass can prove unread would be flagged, and none is.
        assert not any(d.code == "dead-store" for d in result.diagnostics)

    def test_clean_program_has_no_diagnostics(self):
        source = (EXAMPLES / "saturating_mix.mc").read_text()
        result = analyze_source(source, name="saturating_mix.mc")
        assert result.diagnostics == ()
        assert not result.has_errors

    def test_parse_error_becomes_error_diagnostic(self):
        result = analyze_source("int main( {\n", name="broken.mc")
        assert result.has_errors
        assert result.diagnostics[0].severity == ERROR
        assert result.diagnostics[0].line >= 1

    def test_type_error_becomes_error_diagnostic(self):
        result = analyze_source(
            "int main(int x) {\n    return missing(x);\n}\n", name="typeerr.mc"
        )
        assert result.has_errors
        assert any(d.severity == ERROR for d in result.diagnostics)

    def test_guarded_division_is_not_reported(self):
        source = (
            "int main(int x) {\n"
            "    int d = 0;\n"
            "    if (x > 0) {\n"
            "        d = x;\n"
            "    }\n"
            "    if (d > 0) {\n"
            "        return 100 / d;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        result = analyze_source(source)
        assert not any(d.code == "const-div-by-zero" for d in result.diagnostics)

    def test_observed_ranges_feed_the_narrowing_tables(self):
        source = (
            "int main(int x) {\n"
            "    assume(x >= 0);\n"
            "    assume(x <= 10);\n"
            "    int y = x + 5;\n"
            "    return y;\n"
            "}\n"
        )
        program = parse_program(source, name="ranges")
        result = analyze_program(program)
        interval = result.write_interval("main", 4)
        assert interval is not None
        assert interval.lo >= 0 and interval.hi <= 15
        flow = result.flow_write_interval("main", 4)
        assert flow is not None
        # The flow-insensitive table may be wider but never narrower than
        # the value interval of the actual writes.
        assert flow.lo <= interval.lo and flow.hi >= interval.hi


# ------------------------------------------------------------------------ CLI


def _run_cli(*args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )


class TestCli:
    def test_lint_demo_exits_nonzero_with_structured_lines(self):
        result = _run_cli("examples/lint_demo.mc")
        assert result.returncode == 1
        assert "examples/lint_demo.mc:11: error: [const-div-by-zero]" in result.stdout
        assert "examples/lint_demo.mc:8: warning: [uninitialized-read]" in result.stdout
        assert "examples/lint_demo.mc:5: warning: [dead-store]" in result.stdout

    def test_clean_program_exits_zero_quietly(self):
        result = _run_cli("examples/saturating_mix.mc")
        assert result.returncode == 0
        assert result.stdout.strip() == ""

    def test_json_mode(self):
        result = _run_cli("--json", "examples/lint_demo.mc")
        payload = json.loads(result.stdout)
        assert payload[0]["ok"] is False
        codes = {d["code"] for d in payload[0]["diagnostics"]}
        assert "always-OOB" in codes and "dead-code" in codes
        assert all(isinstance(d["line"], int) for d in payload[0]["diagnostics"])


# ---------------------------------------------------- compile-time consumers


class TestCompiledProgramIntegration:
    def test_compile_carries_diagnostics_and_pruned_lines(self):
        from repro.bmc import BoundedModelChecker

        source = (
            "int main(int x) {\n"
            "    int unused = x * 2;\n"
            "    int y = x + 1;\n"
            "    assert(y != 5);\n"
            "    return y;\n"
            "}\n"
        )
        program = parse_program(source, name="pruned")
        compiled = BoundedModelChecker(program).compile_program()
        # Line 2 writes a variable nothing observable ever reads.
        assert 2 in compiled.pruned_lines
        assert 3 not in compiled.pruned_lines
        assert isinstance(compiled.diagnostics, tuple)

    def test_bmc_narrowing_counts_pinned_bits(self):
        from repro.bmc import BoundedModelChecker

        # BMC analysis runs over ALL inputs (no entry values), so narrowing
        # only fires on values the program itself bounds, like this flag.
        source = (
            "int main(int x) {\n"
            "    int flag = 0;\n"
            "    if (x > 0) {\n"
            "        flag = 1;\n"
            "    }\n"
            "    int bump = flag + 1;\n"
            "    assert(bump <= 2);\n"
            "    return bump;\n"
            "}\n"
        )
        program = parse_program(source, name="narrowed")
        narrowed = BoundedModelChecker(program, analysis_narrowing=True).compile_program()
        plain = BoundedModelChecker(program, analysis_narrowing=False).compile_program()
        assert narrowed.narrowed_vars > 0
        assert plain.narrowed_vars == 0

    @pytest.mark.parametrize("narrowing", [True, False])
    def test_bmc_localization_identical_with_and_without_narrowing(self, narrowing):
        """The narrowed program-mode encoding blames the same lines."""
        from repro.core.localizer import BugAssistLocalizer
        from repro.spec import Specification

        source = (
            "int main(int in) {\n"
            "    assume(in >= 0);\n"
            "    assume(in <= 20);\n"
            "    int doubled = in * 2;\n"
            "    int shifted = doubled + 3;\n"
            "    return shifted;\n"
            "}\n"
        )
        program = parse_program(source, name="bmc-diff")
        from repro.bmc import BoundedModelChecker

        checker = BoundedModelChecker(
            program, group_statements=True, analysis_narrowing=narrowing
        )
        formula = checker.encode_program_formula([4], Specification.return_value(12))
        report = BugAssistLocalizer(program, mode="trace").localize_trace(formula)
        # in=4 → shifted = 11, expected 12: either arithmetic line or the
        # return itself can be blamed, identically in both modes.
        assert set(report.lines) == {4, 5, 6}

    def test_static_pruning_does_not_change_the_report(self):
        """A session prunes dead lines; a fresh whole-program encoding
        does not. Both must blame the same lines."""
        from repro.bmc import BoundedModelChecker
        from repro.core.localizer import BugAssistLocalizer
        from repro.core.session import LocalizationSession
        from repro.spec import Specification

        source = (
            "int scratch[4];\n"
            "int main(int x) {\n"
            "    scratch[0] = x * 7;\n"
            "    int y = x + 1;\n"
            "    int z = y * 2;\n"
            "    assert(z != 6);\n"
            "    return z;\n"
            "}\n"
        )
        program = parse_program(source, name="prune-diff")
        with LocalizationSession(program) as session:
            pruned = session.localize([2], Specification.assertion())
        checker = BoundedModelChecker(program, group_statements=True)
        formula = checker.encode_program_formula([2], Specification.assertion())
        unpruned = BugAssistLocalizer(program, mode="trace").localize_trace(formula)
        assert set(pruned.lines) == set(unpruned.lines)
        assert [c.lines for c in pruned.candidates] == [
            c.lines for c in unpruned.candidates
        ]
        # The write to scratch[0] can never reach the assertion: pruned.
        assert session.compiled.pruned_lines == (3,)
        assert 3 not in pruned.lines


# ------------------------------------------------- Table 3 differential gate


def _reduced_trace(benchmark, narrowing: bool):
    from repro.concolic import ConcolicTracer
    from repro.reduction import sliced_tracer_settings

    faulty = benchmark.faulty_program()
    settings: dict[str, object] = {}
    if "S" in benchmark.reduction:
        settings = sliced_tracer_settings(faulty)
    concrete = set(settings.get("concrete_functions", ()))
    if "C" in benchmark.reduction:
        concrete |= set(benchmark.concretize)
    tracer = ConcolicTracer(
        faulty,
        relevant_lines=settings.get("relevant_lines"),
        concrete_functions=concrete,
        analysis_narrowing=narrowing,
    )
    return faulty, tracer.trace(list(benchmark.failing_test), benchmark.specification())


def _table3_benchmarks():
    from repro.siemens.programs import LARGE_BENCHMARKS

    return LARGE_BENCHMARKS


@pytest.mark.parametrize("benchmark_case", _table3_benchmarks(), ids=lambda b: b.name)
def test_table3_narrowing_differential(benchmark_case):
    """Identical fault-candidate sets with analysis_narrowing on vs off."""
    from repro.core.localizer import BugAssistLocalizer

    lines = {}
    clauses = {}
    for narrowing in (True, False):
        faulty, trace = _reduced_trace(benchmark_case, narrowing)
        clauses[narrowing] = trace.num_clauses
        localizer = BugAssistLocalizer(faulty, mode="trace", max_candidates=8)
        lines[narrowing] = set(
            localizer.localize_trace(trace, program_name=benchmark_case.name).lines
        )
    assert lines[True] == lines[False], benchmark_case.name
    assert clauses[True] <= clauses[False], benchmark_case.name
    if benchmark_case.name == "tot_info":
        # The acceptance row: a measurable clause reduction, not a wash.
        assert clauses[False] - clauses[True] > 1000


def test_concolic_interpreter_semantics_unchanged_by_narrowing():
    """Concrete execution results are independent of the narrowing option."""
    from repro.concolic import ConcolicTracer
    from repro.siemens.programs import TOT_INFO

    faulty = TOT_INFO.faulty_program()
    spec = TOT_INFO.specification()
    test = list(TOT_INFO.failing_test)
    on = ConcolicTracer(faulty, analysis_narrowing=True).trace(test, spec)
    off = ConcolicTracer(faulty, analysis_narrowing=False).trace(test, spec)
    assert on.test_inputs == off.test_inputs
    assert on.assertion_description == off.assertion_description
    assert on.num_assignments == off.num_assignments
    assert on.narrowed_vars > 0 and off.narrowed_vars == 0


# ------------------------------------------------------------- golden corpus


def test_siemens_corpus_matches_golden_lint():
    """The whole corpus lints exactly as the checked-in golden file says.

    The corpus programs must stay diagnostic-free (seeded faults are wrong
    answers, not lint defects — a new finding is a false-positive
    regression), while the example programs pin the expected positives.
    """
    result = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "lint_siemens_corpus.py")],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )
    assert result.returncode == 0, result.stdout + result.stderr
