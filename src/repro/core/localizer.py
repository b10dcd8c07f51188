"""Algorithm 1: the BugAssist localization loop, trace mode.

Given a failing test, the localizer

1. builds the extended trace formula from the dynamic trace of the failing
   execution (the concolic construction used together with the
   trace-reduction techniques of Table 3),
2. converts it to a partial MaxSAT instance (test input and post-condition
   hard, one soft selector clause per statement),
3. repeatedly asks the MaxSAT engine for a CoMSS, reports the corresponding
   statements as a candidate bug location, and blocks that CoMSS by adding
   the disjunction of its selectors as a hard clause while removing them
   from the soft set,
4. stops when no further CoMSS exists ("no more suspects").

The CoMSS loop is incremental: the trace formula is loaded into one engine
(and hence one persistent SAT solver) once, and each blocking clause is
added to the live solver through :meth:`MaxSatEngine.block` — learnt
clauses, variable activities and saved phases from earlier candidates all
carry over, instead of rebuilding a fresh engine and WCNF per candidate.

Program mode — "the entire boolean representation of the program", the
CBMC-style whole-program encoding the paper uses for the TCAS experiments —
goes through :class:`~repro.core.session.LocalizationSession`, which
compiles that encoding once and localizes every failing test against it.
:meth:`BugAssistLocalizer.localize_trace` also accepts any prebuilt
formula, e.g. a per-test
:meth:`~repro.bmc.checker.BoundedModelChecker.encode_program_formula`
(the fresh-engine reference the session is checked against).
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Optional, Sequence

from repro.concolic import ConcolicTracer
from repro.core.report import BugLocation, LocalizationReport
from repro.encoding.context import StatementGroup
from repro.encoding.trace import TraceFormula
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH
from repro.maxsat import MaxSatEngine, make_engine
from repro.spec import Specification


def run_comss_loop(
    engine: MaxSatEngine, report: LocalizationReport, max_candidates: int
) -> None:
    """Lines 5-15 of Algorithm 1: enumerate and block CoMSSes.

    Shared by the one-shot localizer, the session API and the loop-iteration
    localizer so all produce identical candidate sequences.  Appends to ``report.candidates`` and
    sets ``report.maxsat_calls``; the caller accounts for SAT calls and
    wall time (the session reports per-test deltas on a shared engine).
    """
    maxsat_calls = 0
    for _ in range(max_candidates):
        result = engine.solve_current()
        maxsat_calls += 1
        if not result.satisfiable or not result.falsified:
            break
        groups = tuple(
            label
            for label in result.falsified_labels
            if isinstance(label, StatementGroup)
        )
        if not groups:
            break
        report.candidates.append(BugLocation(groups=groups, cost=result.cost))
        engine.block(result.falsified)
    report.maxsat_calls = maxsat_calls


class BugAssistLocalizer:
    """Trace-mode error localization by maximum satisfiability."""

    def __init__(
        self,
        program: ast.Program,
        width: int = DEFAULT_WIDTH,
        strategy: str = "hitting-set",
        *,
        mode: str,
        max_candidates: int = 25,
        concrete_functions: Iterable[str] = (),
        hard_functions: Iterable[str] = (),
        hard_lines: Iterable[int] = (),
    ) -> None:
        """Configure the localizer.

        ``strategy`` selects the MaxSAT engine.  ``mode`` must be
        ``"trace"``: the formula encodes only the dynamic path of the
        failing execution.  ``concrete_functions`` are executed concretely
        only (concolic trace reduction), while ``hard_functions`` /
        ``hard_lines`` are encoded but excluded from the candidate set
        (library code assumed correct).  ``max_candidates`` bounds the number
        of CoMSS iterations.
        """
        if mode != "trace":
            raise ValueError(
                f"BugAssistLocalizer is trace mode only, got mode={mode!r}; "
                "program mode goes through LocalizationSession"
            )
        self.program = program
        self.width = width
        self.strategy = strategy
        self.max_candidates = max_candidates
        self.concrete_functions = tuple(concrete_functions)
        self.hard_functions = tuple(hard_functions)
        self.hard_lines = set(hard_lines)

    # ------------------------------------------------------------------ API

    def build_trace_formula(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
    ) -> TraceFormula:
        """Build the extended trace formula for one failing test."""
        tracer = ConcolicTracer(
            self.program,
            width=self.width,
            concrete_functions=self.concrete_functions,
            hard_functions=self.hard_functions,
        )
        return tracer.trace(inputs, spec, entry=entry, nondet_values=nondet_values)

    def localize_trace(
        self,
        formula: TraceFormula,
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Run the CoMSS enumeration loop of Algorithm 1 on a trace formula."""
        started = time.perf_counter()
        wcnf, selector_to_group = formula.to_wcnf(hard_groups=self.hard_lines or None)
        report = LocalizationReport(
            program_name=program_name or self.program.name,
            test_inputs=dict(formula.test_inputs),
            specification=formula.assertion_description,
            trace_assignments=formula.num_assignments,
            trace_variables=formula.num_vars,
            trace_clauses=formula.num_clauses,
        )
        engine = make_engine(self.strategy)
        engine.load(wcnf)
        run_comss_loop(engine, report, self.max_candidates)
        report.sat_calls = engine.sat_calls
        report.propagations = engine.solver_stats.propagations
        report.conflicts = engine.solver_stats.conflicts
        report.time_seconds = time.perf_counter() - started
        return report

    def localize_test(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Localize starting from a failing test (trace + CoMSS loop)."""
        formula = self.build_trace_formula(
            inputs, spec, entry=entry, nondet_values=nondet_values
        )
        return self.localize_trace(formula, program_name=program_name)
