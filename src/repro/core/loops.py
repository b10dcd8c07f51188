"""Section 5.2: localizing the faulty loop iteration.

Bugs involving loops can be hidden during early iterations and only surface
later.  The extension gives every loop-body statement a *per-iteration*
selector variable and weights the soft clauses by

    Weight(lambda^kappa_tau) = alpha + eta - kappa          (Equation 3)

where ``eta`` is the number of iterations in the trace and ``alpha`` the
default soft-clause weight.  Falsifying an early-iteration clause therefore
carries a higher penalty, which steers the weighted MaxSAT optimum toward
the latest iteration whose change can still avert the failure — the point at
which the failure is actually caused.  The report additionally lists, per
source line, every iteration that appears in some correction set, and the
smallest of them as the first iteration at which a fix is possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.concolic import ConcolicTracer
from repro.core.localizer import run_comss_loop
from repro.core.report import BugLocation
from repro.encoding.context import StatementGroup
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH
from repro.maxsat import make_engine
from repro.spec import Specification

TestCase = Sequence[int] | Mapping[str, int]


@dataclass
class LoopIterationReport:
    """Localization result with per-iteration information."""

    program_name: str
    eta: int
    candidates: list[BugLocation] = field(default_factory=list)
    iteration_candidates: dict[int, list[int]] = field(default_factory=dict)
    maxsat_calls: int = 0

    @property
    def lines(self) -> list[int]:
        seen: list[int] = []
        for candidate in self.candidates:
            for line in candidate.lines:
                if line not in seen:
                    seen.append(line)
        return seen

    def reported_iteration(self, line: int) -> Optional[int]:
        """The iteration reported for ``line`` in the best (first) correction set."""
        for candidate in self.candidates:
            for group in candidate.groups:
                if group.line == line and group.iteration is not None:
                    return group.iteration
        return None

    def first_fixable_iteration(self, line: int) -> Optional[int]:
        """The earliest iteration of ``line`` appearing in any correction set."""
        iterations = self.iteration_candidates.get(line)
        return min(iterations) if iterations else None


class LoopIterationLocalizer:
    """Weighted localization with per-iteration selector variables."""

    def __init__(
        self,
        program: ast.Program,
        width: int = DEFAULT_WIDTH,
        alpha: int = 1,
        max_candidates: int = 25,
    ) -> None:
        self.program = program
        self.width = width
        self.alpha = alpha
        self.max_candidates = max_candidates

    def localize(
        self,
        inputs: TestCase,
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
    ) -> LoopIterationReport:
        """Localize a failing test with iteration-aware clause groups."""
        tracer = ConcolicTracer(
            self.program, width=self.width, loop_iteration_groups=True
        )
        formula = tracer.trace(inputs, spec, entry=entry, nondet_values=nondet_values)
        eta = max(
            (
                group.iteration
                for group in formula.group_table
                if group.iteration is not None
            ),
            default=0,
        )

        def weight_of(group: StatementGroup) -> int:
            if group.iteration is None:
                return self.alpha
            return self.alpha + eta - group.iteration + 1

        wcnf, _ = formula.to_wcnf(weight_of=weight_of)
        report = LoopIterationReport(program_name=self.program.name, eta=eta)
        engine = make_engine("hitting-set")
        engine.load(wcnf)
        run_comss_loop(engine, report, self.max_candidates)
        for candidate in report.candidates:
            for group in candidate.groups:
                if group.iteration is not None:
                    report.iteration_candidates.setdefault(group.line, []).append(
                        group.iteration
                    )
        return report
