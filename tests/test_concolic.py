"""Tests for the concolic tracer: trace formulas of failing executions."""

from __future__ import annotations

import pytest

from repro.concolic import ConcolicTracer, TraceError
from repro.core.localizer import BugAssistLocalizer
from repro.lang import Interpreter, parse_program
from repro.maxsat import solve_maxsat
from repro.sat import Solver
from repro.spec import Specification

MOTIVATING = """
int Array[3] = {10, 20, 30};
int testme(int index) {
    if (index != 1) {
        index = 2;
    } else {
        index = index + 2;
    }
    int i = index;
    assert(i >= 0 && i < 3);
    return Array[i];
}
int main(int index) {
    return testme(index);
}
"""

GOLDEN_OUTPUT_PROGRAM = """
int scale(int x) {
    return x * 3;
}
int main(int x) {
    int doubled = scale(x);
    return doubled + 1;
}
"""

LOOP_PROGRAM = """
int main(int n) {
    int total = 0;
    int i = 0;
    while (i < n) {
        total = total + i;
        i = i + 1;
    }
    assert(total < 100);
    return total;
}
"""


#: A loop of 20 iterations: past the BMC's default unwinding of 16, which
#: the tracer, running every iteration concretely, never applies.
LONG_LOOP_PROGRAM = """
int main(int x) {
    int s = 0;
    int i = 0;
    while (i < 20) {
        s = s + 1;
        i = i + 1;
    }
    s = s + x;
    return s;
}
"""


def formula_satisfiable(formula, extra_clauses=()):
    """Check satisfiability of hard clauses + all group clauses together."""
    solver = Solver()
    solver.ensure_vars(formula.num_vars)
    for clause in formula.hard:
        solver.add_clause(clause)
    for clauses in formula.groups.values():
        for clause in clauses:
            solver.add_clause(clause)
    for clause in extra_clauses:
        solver.add_clause(clause)
    return solver.solve()


class TestTraceConstruction:
    def test_requires_failing_test(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        with pytest.raises(TraceError):
            tracer.trace([0], Specification.assertion())

    def test_extended_trace_formula_is_unsat(self):
        # Phi = test-input /\ TF /\ assertion must be unsatisfiable for a
        # failing run (Section 2).
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        assert not formula_satisfiable(formula)

    def test_trace_formula_without_assertion_is_sat(self):
        # The trace formula itself (without the hard post-condition) encodes a
        # feasible execution, so hard input clauses + groups minus the final
        # assertion clause must be satisfiable.  We rebuild it by dropping the
        # last hard clause (the assertion unit).
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        solver = Solver()
        solver.ensure_vars(formula.num_vars)
        for clause in formula.hard[:-1]:
            solver.add_clause(clause)
        for clauses in formula.groups.values():
            for clause in clauses:
                solver.add_clause(clause)
        assert solver.solve()

    def test_groups_map_to_executed_lines(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        lines = formula.lines
        # The source string starts with a newline, so "int Array..." is line 2.
        # The executed path visits the branch (line 4), the else assignment
        # (line 7), and the local declaration (line 9).
        assert 4 in lines
        assert 7 in lines
        assert 9 in lines
        # The then-branch assignment (line 5) was *not* executed.
        assert 5 not in lines

    def test_test_inputs_recorded(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        assert formula.test_inputs == {"index": 1}

    def test_steps_and_assignment_counts(self):
        tracer = ConcolicTracer(parse_program(LOOP_PROGRAM))
        formula = tracer.trace([20], Specification.assertion())
        assert formula.num_assignments >= 2 + 2 * 14
        kinds = {step.kind for step in formula.steps}
        assert "loop-guard" in kinds
        assert "assign" in kinds

    def test_maxsat_on_motivating_example_blames_the_buggy_line(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        wcnf, _ = formula.to_wcnf()
        # The localization default engine (``auto`` may pick MSU3, which
        # legitimately reports a different cost-1 correction set).
        result = solve_maxsat(wcnf, strategy="hitting-set")
        assert result.satisfiable
        assert result.cost == 1
        lines = {group.line for group in result.falsified_labels}
        assert lines == {7}  # index = index + 2

    def test_golden_output_spec(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        # Correct output for x=4 would be 13; pretend the golden output is 9
        # (as if scale() should have doubled instead of tripled).
        tracer = ConcolicTracer(program)
        formula = tracer.trace([4], Specification.return_value(9))
        assert not formula_satisfiable(formula)
        wcnf, _ = formula.to_wcnf()
        result = solve_maxsat(wcnf)
        assert result.satisfiable
        lines = {group.line for group in result.falsified_labels}
        # Either the multiplication inside scale() or one of the statements in
        # main can be changed to obtain the expected output.
        assert lines & {3, 6, 7}

    def test_golden_output_matching_run_rejected(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        tracer = ConcolicTracer(program)
        with pytest.raises(TraceError):
            tracer.trace([4], Specification.return_value(13))

    def test_loop_iteration_groups(self):
        tracer = ConcolicTracer(parse_program(LOOP_PROGRAM), loop_iteration_groups=True)
        formula = tracer.trace([20], Specification.assertion())
        iterations = {
            group.iteration for group in formula.groups if group.iteration is not None
        }
        assert len(iterations) >= 10
        # Without per-iteration groups the same lines collapse into one group.
        plain = ConcolicTracer(parse_program(LOOP_PROGRAM)).trace(
            [20], Specification.assertion()
        )
        assert len(plain.groups) < len(formula.groups)

    def test_concrete_function_reduction_shrinks_formula(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        full = ConcolicTracer(program).trace([4], Specification.return_value(9))
        reduced = ConcolicTracer(program, concrete_functions=["scale"]).trace(
            [4], Specification.return_value(9)
        )
        assert reduced.num_clauses < full.num_clauses
        assert 3 not in reduced.lines  # the concretized function contributes no clauses

    def test_hard_functions_excluded_from_groups(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        formula = ConcolicTracer(program, hard_functions=["scale"]).trace(
            [4], Specification.return_value(9)
        )
        assert all(group.function != "scale" for group in formula.groups)

    def test_nondet_inputs_become_test_inputs(self):
        source = """
        int main(int x) {
            int extra = nondet();
            assert(x + extra < 10);
            return x + extra;
        }
        """
        tracer = ConcolicTracer(parse_program(source))
        formula = tracer.trace([5], Specification.assertion(), nondet_values=[7])
        assert formula.test_inputs["x"] == 5
        assert formula.test_inputs["nondet#0"] == 7
        assert not formula_satisfiable(formula)

    def test_trace_agrees_with_interpreter_on_globals_and_arrays(self):
        source = """
        int table[4] = {1, 2, 3, 4};
        int total = 0;
        void accumulate(int i) {
            total = total + table[i];
        }
        int main(int i) {
            accumulate(i);
            accumulate(i + 1);
            assert(total != 5);
            return total;
        }
        """
        program = parse_program(source)
        result = Interpreter(program).run([1])
        assert result.assertion_failed
        formula = ConcolicTracer(program).trace([1], Specification.assertion())
        assert not formula_satisfiable(formula)
        wcnf, _ = formula.to_wcnf()
        outcome = solve_maxsat(wcnf)
        assert outcome.satisfiable and outcome.falsified


class TestAnalysisNarrowing:
    def test_a_loop_past_the_bmc_unwinding_keeps_narrowing(self):
        program = parse_program(LONG_LOOP_PROGRAM)
        spec = Specification.return_value(99)
        narrowed = ConcolicTracer(program).trace([3], spec)
        plain = ConcolicTracer(program, analysis_narrowing=False).trace([3], spec)
        assert narrowed.narrowed_vars > 0
        assert narrowed.num_clauses < plain.num_clauses
        localizer = BugAssistLocalizer(program, mode="trace")
        assert [c.lines for c in localizer.localize_trace(narrowed).candidates] == [
            c.lines for c in localizer.localize_trace(plain).candidates
        ]

    @pytest.mark.parametrize(
        "statement",
        ["int t = buf[9];", "int t = 7 / (x - 3);"],
        ids=["always-OOB", "const-div-by-zero"],
    )
    def test_error_findings_switch_narrowing_off(self, statement):
        def trace(line: str):
            source = (
                "int buf[4];\n"
                "int main(int x) {\n"
                "    int s = x + 1;\n"
                f"    {line}\n"
                "    return s + t;\n"
                "}\n"
            )
            program = parse_program(source)
            return ConcolicTracer(program).trace([3], Specification.return_value(99))

        assert trace("int t = 0;").narrowed_vars > 0
        assert trace(statement).narrowed_vars == 0
