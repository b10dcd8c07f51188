"""Abstract interpretation over mini-C: lint diagnostics, value ranges for
the narrowed encoding, and the groundwork for static soft-clause pruning.

The package splits along the classic lines:

* :mod:`repro.analysis.intervals` — the interval lattice (width-aware,
  faithful to mini-C's wrap/div/mod semantics) plus the bit-narrowing plan;
* :mod:`repro.analysis.framework` — the generic worklist solver over
  ``repro.cfg`` graphs (RPO iteration, widening, descending rounds);
* :mod:`repro.analysis.domains` — interval, definite-init and live-locals
  domains;
* :mod:`repro.analysis.analyzer` — the interprocedural driver, diagnostics
  engine and the :func:`analyze_program` / :func:`analyze_source` API.

``python -m repro.analysis program.c`` runs the linter from the shell.
"""

from repro.analysis.analyzer import (
    AnalysisResult,
    analyze_program,
    analyze_source,
    failed_result,
)
from repro.analysis.domains import (
    DefiniteInitDomain,
    FunctionSummary,
    IntervalDomain,
    IntervalState,
)
from repro.analysis.framework import Domain, solve
from repro.analysis.intervals import Interval, width_bounds
from repro.analysis.loops import (
    LoopBound,
    effective_unwind,
    infer_loop_bounds,
    lint_loops,
    plan_unwinds,
)
from repro.lang.diagnostics import ERROR, WARNING, Diagnostic, has_errors

__all__ = [
    "AnalysisResult",
    "analyze_program",
    "analyze_source",
    "failed_result",
    "DefiniteInitDomain",
    "FunctionSummary",
    "IntervalDomain",
    "IntervalState",
    "Domain",
    "solve",
    "Interval",
    "width_bounds",
    "LoopBound",
    "effective_unwind",
    "infer_loop_bounds",
    "lint_loops",
    "plan_unwinds",
    "Diagnostic",
    "ERROR",
    "WARNING",
    "has_errors",
]
