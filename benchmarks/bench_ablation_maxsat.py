"""Ablations: MaxSAT strategy and clause grouping (Section 3.3/3.4 design choices).

The paper attributes much of BugAssist's efficiency to (a) the
unsatisfiable-core based MaxSAT solver and (b) grouping all clauses of one
statement behind a single selector variable.  These benchmarks compare the
three engines on the same localization instance and measure how much clause
grouping shrinks the soft-clause set.
"""

from __future__ import annotations

import pytest

from repro.bmc import BoundedModelChecker
from repro.core import LocalizationSession, Specification
from repro.maxsat import WCNF, solve_maxsat
from repro.siemens import classify_tcas_tests, tcas_faulty_program
from repro.siemens.suite import TCAS_HARNESS_LINES


@pytest.fixture(scope="module")
def v13_instance():
    program = tcas_faulty_program("v13")
    failing, _ = classify_tcas_tests("v13", count=600)
    vector, expected = failing[0]
    return program, vector.as_list(), Specification.return_value(expected)


@pytest.mark.parametrize("strategy", ["hitting-set", "msu3", "linear"])
def test_ablation_maxsat_strategy(benchmark, strategy, v13_instance):
    """Same localization instance, different MaxSAT engines — same answer."""
    program, test, spec = v13_instance
    session = LocalizationSession(
        program, strategy=strategy, hard_lines=TCAS_HARNESS_LINES
    )

    def run():
        return session.localize(test, spec)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.contains_line(66)  # the injected v13 fault
    print(f"\n[{strategy}] lines={report.lines} maxsat_calls={report.maxsat_calls} "
          f"time={report.time_seconds:.2f}s")


def test_ablation_clause_grouping(benchmark, v13_instance):
    """Clause grouping (Eq. 2) vs one soft clause per CNF clause."""
    program, test, spec = v13_instance
    checker = BoundedModelChecker(program, group_statements=True)
    formula = checker.encode_program_formula(test, spec)

    grouped, _ = formula.to_wcnf(hard_groups=set(TCAS_HARNESS_LINES))

    def build_ungrouped() -> WCNF:
        wcnf = WCNF()
        wcnf._num_vars = formula.num_vars
        for clause in formula.hard:
            wcnf.add_hard(clause)
        for group, clauses in formula.groups.items():
            for clause in clauses:
                if group.line in TCAS_HARNESS_LINES:
                    wcnf.add_hard(clause)
                else:
                    wcnf.add_soft(clause, label=group)
        return wcnf

    ungrouped = benchmark(build_ungrouped)
    print(f"\nsoft clauses with grouping: {len(grouped.soft)}; "
          f"without grouping: {len(ungrouped.soft)}")
    assert len(grouped.soft) < len(ungrouped.soft) / 5
    # The grouped instance is solvable quickly and still points at program
    # statements; solving the ungrouped instance would enumerate individual
    # CNF clauses instead of statements (and is much larger).
    result = solve_maxsat(grouped)
    assert result.satisfiable
