"""Section 6.3: localizing (and fixing) the strncat off-by-one overflow."""

from __future__ import annotations

from repro.core import LocalizationSession, Specification
from repro.lang import Interpreter
from repro.siemens.strncat_example import (
    FAULT_LINE,
    LIBRARY_FUNCTIONS,
    fixed_strncat_program,
    strncat_program,
)


def test_strncat_off_by_one(benchmark):
    program = strncat_program()
    session = LocalizationSession(
        program, unwind=10, hard_functions=LIBRARY_FUNCTIONS
    )

    def run():
        return session.localize([3], Specification.assertion())

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Section 6.3 — strncat off-by-one")
    print(report.summary())
    # The call site that should pass SIZE - 1 is blamed; the library body is
    # not (its clauses are hard).
    assert report.contains_line(FAULT_LINE)
    assert not set(report.lines) & set(range(13, 26))
    # The paper's fix (SIZE - 1) removes the overflow.
    fixed = Interpreter(fixed_strncat_program()).run([3])
    assert not fixed.assertion_failed
