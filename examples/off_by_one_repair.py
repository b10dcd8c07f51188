#!/usr/bin/env python3
"""Section 6.3: localize the strncat off-by-one overflow and show the fix.

The C library implementation of strncat is assumed correct (its clauses are
hard), so BugAssist blames the call site in MyFunCopy — the line that should
pass SIZE - 1.  Run with ``python examples/off_by_one_repair.py``.
"""

from repro.core import LocalizationSession, Specification
from repro.lang import Interpreter
from repro.lang.pretty import format_program
from repro.siemens.strncat_example import (
    FAULT_LINE,
    LIBRARY_FUNCTIONS,
    STRNCAT_LINES,
    fixed_strncat_program,
    strncat_program,
)


def main() -> None:
    program = strncat_program()
    run = Interpreter(program).run([3])
    print(f"buggy program: buffer overflow assertion failed = {run.assertion_failed}")

    with LocalizationSession(
        program, unwind=10, hard_functions=LIBRARY_FUNCTIONS
    ) as session:
        report = session.localize([3], Specification.assertion())
    print()
    print(report.summary())
    print(f"the injected fault is on line {FAULT_LINE}: "
          f"{STRNCAT_LINES[FAULT_LINE - 1].strip()}")
    print(f"fault line reported: {report.contains_line(FAULT_LINE)}")

    # The paper's suggested fix: pass SIZE - 1 instead of SIZE.
    fixed = fixed_strncat_program()
    check = Interpreter(fixed).run([3])
    print()
    print(f"after replacing SIZE with SIZE - 1 the overflow is gone "
          f"(assertion failed = {check.assertion_failed})")
    print()
    print("fixed MyFunCopy:")
    source = format_program(fixed)
    in_function = False
    for line in source.splitlines():
        if line.startswith("void MyFunCopy"):
            in_function = True
        if in_function:
            print("   ", line)
        if in_function and line == "}":
            break


if __name__ == "__main__":
    main()
