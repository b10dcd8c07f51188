"""Algorithm 2: automated repair of off-by-one (and operator) errors.

The localization step reduces the problem to a few candidate lines.  For
each candidate line that contains a constant ``k``, two patched programs are
produced with ``k + 1`` and ``k - 1``; a patch is accepted when the failure
can no longer be reproduced.  The same loop optionally tries the common
operator confusions (``<`` vs ``<=``, ``+`` vs ``-`` and so on) mentioned in
Sections 2 and 5.1 of the paper.

Validation of a candidate patch ("GenerateCounterExample(P', p) = empty")
can be performed two ways:

* ``validator="tests"`` (default) — the failing test must now satisfy the
  specification and every supplied regression test must keep passing;
* ``validator="bmc"`` — the bounded model checker must find no assertion
  violation within the unwind bound (closest to the paper, which re-runs
  CBMC on the patched program).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.localizer import BugAssistLocalizer
from repro.core.report import LocalizationReport
from repro.core.session import LocalizationSession
from repro.lang import ast
from repro.lang.interp import Interpreter
from repro.lang.pretty import format_program
from repro.lang.semantics import DEFAULT_WIDTH
from repro.lang.transform import (
    OPERATOR_ALTERNATIVES,
    constants_on_line,
    operators_on_line,
    replace_constant_on_line,
    replace_operator_on_line,
)
from repro.spec import Specification

TestCase = Sequence[int] | Mapping[str, int]


@dataclass
class RepairResult:
    """Outcome of an automated repair attempt."""

    success: bool
    line: Optional[int] = None
    kind: Optional[str] = None  # "constant" or "operator"
    original: Optional[object] = None
    replacement: Optional[object] = None
    patched_program: Optional[ast.Program] = None
    localization: Optional[LocalizationReport] = None
    attempts: int = 0

    def describe(self) -> str:
        if not self.success:
            return "no off-by-one (or operator) repair found"
        return (
            f"line {self.line}: replace {self.kind} {self.original!r} "
            f"with {self.replacement!r}"
        )

    def patched_source(self) -> str:
        if self.patched_program is None:
            return ""
        return format_program(self.patched_program)


class OffByOneRepairer:
    """Suggests fixes for common error classes at the localized lines."""

    def __init__(
        self,
        program: ast.Program,
        localizer: Optional[LocalizationSession | BugAssistLocalizer] = None,
        width: int = DEFAULT_WIDTH,
        validator: str = "tests",
        bmc_unwind: int = 16,
        try_operators: bool = False,
        entry: str = "main",
    ) -> None:
        self.program = program
        self.localizer = localizer or LocalizationSession(
            program, width=width, entry=entry
        )
        self.width = width
        self.validator = validator
        self.bmc_unwind = bmc_unwind
        self.try_operators = try_operators
        self.entry = entry

    # ------------------------------------------------------------------ API

    def repair(
        self,
        failing_test: TestCase,
        spec: Specification,
        regression_tests: Sequence[tuple[TestCase, Specification]] = (),
        nondet_values: Sequence[int] = (),
    ) -> RepairResult:
        """Run Algorithm 2 starting from one failing test."""
        report = self.localizer.localize_test(
            failing_test, spec, entry=self.entry, nondet_values=nondet_values
        )
        attempts = 0
        for line in report.lines:
            for constant in constants_on_line(self.program, line):
                for delta in (+1, -1):
                    attempts += 1
                    patched = replace_constant_on_line(
                        self.program, line, constant, constant + delta
                    )
                    if self._validates(patched, failing_test, spec, regression_tests, nondet_values):
                        return RepairResult(
                            success=True,
                            line=line,
                            kind="constant",
                            original=constant,
                            replacement=constant + delta,
                            patched_program=patched,
                            localization=report,
                            attempts=attempts,
                        )
            if not self.try_operators:
                continue
            for operator in operators_on_line(self.program, line):
                for alternative in OPERATOR_ALTERNATIVES.get(operator, ()):
                    attempts += 1
                    patched = replace_operator_on_line(self.program, line, operator, alternative)
                    if self._validates(patched, failing_test, spec, regression_tests, nondet_values):
                        return RepairResult(
                            success=True,
                            line=line,
                            kind="operator",
                            original=operator,
                            replacement=alternative,
                            patched_program=patched,
                            localization=report,
                            attempts=attempts,
                        )
        return RepairResult(success=False, localization=report, attempts=attempts)

    # ------------------------------------------------------------- internals

    def _validates(
        self,
        patched: ast.Program,
        failing_test: TestCase,
        spec: Specification,
        regression_tests: Sequence[tuple[TestCase, Specification]],
        nondet_values: Sequence[int],
    ) -> bool:
        if self.validator == "bmc":
            return self._validates_by_bmc(patched)
        return self._validates_by_tests(
            patched, failing_test, spec, regression_tests, nondet_values
        )

    def _validates_by_tests(
        self,
        patched: ast.Program,
        failing_test: TestCase,
        spec: Specification,
        regression_tests: Sequence[tuple[TestCase, Specification]],
        nondet_values: Sequence[int],
    ) -> bool:
        interpreter = Interpreter(patched, width=self.width)
        result = interpreter.run(failing_test, entry=self.entry, nondet_values=nondet_values)
        if not spec.is_satisfied_by(result.observable, result.assertion_failed):
            return False
        for inputs, test_spec in regression_tests:
            outcome = interpreter.run(inputs, entry=self.entry)
            if not test_spec.is_satisfied_by(outcome.observable, outcome.assertion_failed):
                return False
        return True

    def _validates_by_bmc(self, patched: ast.Program) -> bool:
        from repro.bmc import BoundedModelChecker

        checker = BoundedModelChecker(patched, width=self.width, unwind=self.bmc_unwind)
        return checker.find_counterexample(entry=self.entry) is None
