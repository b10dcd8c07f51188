"""Tests for Algorithm 1 (localization), ranking, repair and loop debugging.

The motivating example (Program 1) and the square-root example (Program 3)
from the paper are exercised end to end.
"""

from __future__ import annotations

import pytest

from repro.bmc import BoundedModelChecker
from repro.core import (
    BugAssistLocalizer,
    LocalizationSession,
    LoopIterationLocalizer,
    OffByOneRepairer,
    Specification,
    rank_locations,
)
from repro.lang import Interpreter, parse_program

# Program 1 from the paper.  Line numbers (1-based, no leading blank line):
#   1: int Array[3] = {10, 20, 30};
#   2: int testme(int index) {
#   3:     if (index != 1) {            <- potential bug 2 (paper line 1)
#   4:         index = 2;
#   5:     } else {
#   6:         index = index + 2;       <- potential bug 1 (paper line 4)
#   7:     }
#   8:     int i = index;               (paper line 5)
#   9:     assert(i >= 0 && i < 3);     (paper line 6)
#  10:     return Array[i];
#  11: }
#  12: int main(int index) { return testme(index); }
MOTIVATING = (
    "int Array[3] = {10, 20, 30};\n"
    "int testme(int index) {\n"
    "    if (index != 1) {\n"
    "        index = 2;\n"
    "    } else {\n"
    "        index = index + 2;\n"
    "    }\n"
    "    int i = index;\n"
    "    assert(i >= 0 && i < 3);\n"
    "    return Array[i];\n"
    "}\n"
    "int main(int index) { return testme(index); }\n"
)

# Program 3 from the paper: nearest integer square root with the bug that the
# result is not decremented after the loop overshoots.
#   1: int squareroot(int val) {
#   2:     int i = 1;
#   3:     int v = 0;
#   4:     int res = 0;
#   5:     while (v < val) {
#   6:         v = v + 2 * i + 1;
#   7:         i = i + 1;
#   8:     }
#   9:     res = i;                       <- bug: should be res = i - 1
#  10:     assert(res * res <= val && (res + 1) * (res + 1) > val);
#  11:     return res;
#  12: }
#  13: int main(int val) { assume(val > 0); return squareroot(val); }
SQUAREROOT = (
    "int squareroot(int val) {\n"
    "    int i = 1;\n"
    "    int v = 0;\n"
    "    int res = 0;\n"
    "    while (v < val) {\n"
    "        v = v + 2 * i + 1;\n"
    "        i = i + 1;\n"
    "    }\n"
    "    res = i;\n"
    "    assert(res * res <= val && (res + 1) * (res + 1) > val);\n"
    "    return res;\n"
    "}\n"
    "int main(int val) { assume(val > 0); return squareroot(val); }\n"
)


@pytest.fixture(scope="module")
def motivating_program():
    return parse_program(MOTIVATING, name="motivating")


@pytest.fixture(scope="module")
def squareroot_program():
    return parse_program(SQUAREROOT, name="squareroot")


class TestMotivatingExample:
    def test_localization_finds_both_fix_locations(self, motivating_program):
        report = LocalizationSession(motivating_program).localize(
            [1], Specification.assertion()
        )
        # The paper reports two candidate locations: the constant assignment in
        # the else branch and the branch condition itself.
        assert report.contains_line(6)
        assert report.contains_line(3)
        # The then-branch assignment (line 4) is never executed on this input
        # and must not be blamed (compare the paper's Figure 2 discussion).
        assert not report.contains_line(4)

    def test_first_candidate_is_a_singleton_comss(self, motivating_program):
        report = LocalizationSession(motivating_program).localize(
            [1], Specification.assertion()
        )
        assert len(report.candidates[0].groups) == 1

    def test_localization_is_finer_than_the_backward_slice(self, motivating_program):
        # The backward slice contains lines 3, 6 and 8 together; BugAssist
        # reports lines 3 and 6 as *separate* candidates (paper Section 2).
        report = LocalizationSession(motivating_program).localize(
            [1], Specification.assertion()
        )
        singleton_lines = {
            candidate.lines[0]
            for candidate in report.candidates
            if len(candidate.lines) == 1
        }
        assert {3, 6} <= singleton_lines

    def test_report_metrics(self, motivating_program):
        report = LocalizationSession(motivating_program).localize(
            [1], Specification.assertion()
        )
        assert report.maxsat_calls >= 2
        assert report.trace_variables > 0
        assert report.trace_clauses > 0
        assert 0 < report.size_reduction_percent(12) < 100
        assert "potential bug" in report.summary()

    def test_strategies_agree(self, motivating_program):
        reports = {}
        for strategy in ("hitting-set", "msu3", "linear"):
            session = LocalizationSession(motivating_program, strategy=strategy)
            reports[strategy] = session.localize([1], Specification.assertion())
        lines = {strategy: set(report.lines) for strategy, report in reports.items()}
        assert lines["hitting-set"] == lines["msu3"] == lines["linear"]

    def test_hard_lines_are_never_reported(self, motivating_program):
        session = LocalizationSession(motivating_program, hard_lines=[6])
        report = session.localize([1], Specification.assertion())
        assert not report.contains_line(6)
        assert report.contains_line(3)

    def test_session_localizes_from_bmc_counterexample(self, motivating_program):
        # No failing test given: the bounded model checker finds one, and
        # the session localizes it.
        counterexample = BoundedModelChecker(
            motivating_program, unwind=16
        ).find_counterexample()
        assert counterexample is not None
        with LocalizationSession(motivating_program) as session:
            report = session.localize(
                counterexample.as_test(),
                Specification.assertion(),
                nondet_values=counterexample.nondet_values,
            )
        assert report.contains_line(6) or report.contains_line(3)

    def test_localizer_rejects_every_mode_but_trace(self, motivating_program):
        # A forgotten program-mode caller fails loudly instead of silently
        # localizing a concolic trace.
        with pytest.raises(ValueError, match="LocalizationSession"):
            BugAssistLocalizer(motivating_program, mode="bmc")


class TestRanking:
    def test_ranking_over_multiple_failing_tests(self):
        # A program whose bug (wrong comparison constant) fails for several
        # inputs; every failing run should blame the constant line.
        source = (
            "int classify(int x) {\n"
            "    int big = 0;\n"
            "    if (x > 7) {\n"  # bug: spec wants threshold 10
            "        big = 1;\n"
            "    }\n"
            "    return big;\n"
            "}\n"
            "int main(int x) { return classify(x); }\n"
        )
        program = parse_program(source, name="classify")
        interpreter = Interpreter(program)
        failing = []
        for x in range(0, 16):
            expected = 1 if x > 10 else 0
            outcome = interpreter.run([x])
            if outcome.return_value != expected:
                failing.append(([x], Specification.return_value(expected)))
        assert failing  # inputs 8, 9, 10 fail
        session = LocalizationSession(program)
        ranked = rank_locations(session, failing, program_name="classify")
        assert len(ranked.runs) == len(failing)
        top_line, top_count = ranked.ranked_lines[0]
        assert top_line in (3, 4)
        assert top_count == len(failing)
        assert ranked.detection_count({3}) == len(failing)
        assert 0 < ranked.size_reduction_percent(8) <= 100


class TestRepair:
    def test_off_by_one_repair_on_motivating_example(self, motivating_program):
        repairer = OffByOneRepairer(motivating_program)
        failing = [1]
        regressions = [
            ([0], Specification.return_value(30)),
            ([2], Specification.return_value(30)),
        ]
        result = repairer.repair(
            failing, Specification.assertion(), regression_tests=regressions
        )
        assert result.success
        assert result.kind == "constant"
        # Changing the constant on the branch condition (line 3) or on the
        # else-branch assignment (line 6) both eliminate the failure.
        assert result.line in (3, 6)
        patched_program = result.patched_program
        patched = Interpreter(patched_program)
        assert not patched.run([1]).assertion_failed
        assert patched.run([0]).return_value == 30
        assert patched.run([2]).return_value == 30
        assert "replace" in result.describe()
        assert "index" in result.patched_source()

    def test_repair_validated_by_bmc(self, motivating_program):
        repairer = OffByOneRepairer(motivating_program, validator="bmc", bmc_unwind=4)
        result = repairer.repair([1], Specification.assertion())
        assert result.success
        assert result.line in (3, 6)
        # The patched program has no assertion-violating input at all.
        from repro.bmc import BoundedModelChecker

        assert BoundedModelChecker(result.patched_program, unwind=4).holds()

    def test_operator_repair(self):
        source = (
            "int main(int x) {\n"
            "    int ok = 0;\n"
            "    if (x <= 10) {\n"  # bug: should be x < 10
            "        ok = 1;\n"
            "    }\n"
            "    assert(x != 10 || ok == 0);\n"
            "    return ok;\n"
            "}\n"
        )
        program = parse_program(source, name="operator-bug")
        repairer = OffByOneRepairer(program, try_operators=True, validator="bmc", bmc_unwind=2)
        result = repairer.repair([10], Specification.assertion())
        assert result.success

    def test_repair_failure_reported(self):
        # The regression tests pin the intended behaviour (y == x + 2), so no
        # +/-1 constant tweak can both fix the failing test and keep them
        # passing: Algorithm 2 must report that no off-by-one repair exists.
        source = (
            "int main(int x) {\n"
            "    int y = x + 2;\n"
            "    assert(y != 9);\n"
            "    return y;\n"
            "}\n"
        )
        program = parse_program(source, name="unfixable")
        repairer = OffByOneRepairer(program, validator="tests")
        regressions = [
            ([0], Specification.return_value(2)),
            ([1], Specification.return_value(3)),
        ]
        result = repairer.repair(
            [7], Specification.assertion(), regression_tests=regressions
        )
        assert not result.success
        assert result.attempts >= 2
        assert "no off-by-one" in result.describe()


class TestLoopIterationLocalization:
    def test_squareroot_example(self, squareroot_program):
        # Concrete failure: val = 50 gives res = 8 instead of 7.
        result = Interpreter(squareroot_program).run([50])
        assert result.assertion_failed

        localizer = LoopIterationLocalizer(squareroot_program)
        report = localizer.localize([50], Specification.assertion())
        # The trace runs the loop body 7 times; the guard is evaluated 8 times.
        assert report.eta == 8
        # The post-loop assignment (line 9) is reported, as in the paper.
        assert 9 in report.lines
        # Loop statements are reported with iteration information.
        loop_lines = set(report.iteration_candidates)
        assert loop_lines & {5, 6, 7}
        for line in loop_lines:
            iterations = report.iteration_candidates[line]
            assert all(1 <= iteration <= report.eta for iteration in iterations)
            assert report.first_fixable_iteration(line) == min(iterations)
            assert report.reported_iteration(line) in iterations

    def test_plain_localization_also_reports_fix_line(self, squareroot_program):
        report = LocalizationSession(squareroot_program).localize(
            [50], Specification.assertion()
        )
        assert report.contains_line(9)
