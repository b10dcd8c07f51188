"""Multi-trace ranking of bug locations (paper Section 4.3).

BugAssist becomes more precise when run with several failing tests: each run
reports a set of candidate lines, and ranking the lines by how frequently
they are reported narrows the search to the true fault.

The runner accepts either a :class:`~repro.core.session.LocalizationSession`
(program mode: one shared encoding for the whole batch) or a trace-mode
:class:`~repro.core.localizer.BugAssistLocalizer` (one concolic trace per
failing test) — both expose the same ``localize_test`` surface.
:func:`merge_reports` is the order-preserving aggregation step, shared
with the session's batch executors so serial and worker-pool runs rank
identically.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.core.report import LocalizationReport, RankedLocalization
from repro.spec import Specification

TestCase = Sequence[int] | Mapping[str, int]


def merge_reports(
    program_name: str,
    reports: Iterable[LocalizationReport],
    on_run: Optional[Callable[[LocalizationReport], None]] = None,
) -> RankedLocalization:
    """Aggregate per-test reports into a ranked localization.

    Every report counts each of its lines once; the ranking sorts by
    decreasing report frequency (ties by line number).
    """
    ranked = RankedLocalization(program_name=program_name)
    for report in reports:
        ranked.runs.append(report)
        for line in report.lines:
            ranked.line_counts[line] = ranked.line_counts.get(line, 0) + 1
        if on_run is not None:
            on_run(report)
    return ranked


def _default_program_name(localizer) -> str:
    program = getattr(localizer, "program", None)
    if program is not None:
        return program.name
    return localizer.compiled.program_name


def rank_locations(
    localizer,
    failing_tests: Iterable[tuple[TestCase, Specification]],
    entry: str = "main",
    program_name: Optional[str] = None,
    max_runs: Optional[int] = None,
    on_run: Optional[Callable[[LocalizationReport], None]] = None,
) -> RankedLocalization:
    """Run BugAssist on several failing tests and rank reported lines.

    ``failing_tests`` yields (test input, specification) pairs — the
    specification is per-test because the Siemens benchmarks use the golden
    output of each individual test as its correctness condition.
    ``localizer`` is anything with the ``localize_test`` surface: a
    :class:`~repro.core.session.LocalizationSession` or a trace-mode
    :class:`~repro.core.localizer.BugAssistLocalizer`.
    """
    name = program_name or _default_program_name(localizer)

    def reports() -> Iterable[LocalizationReport]:
        for index, (inputs, spec) in enumerate(failing_tests):
            if max_runs is not None and index >= max_runs:
                break
            yield localizer.localize_test(
                inputs, spec, entry=entry, program_name=program_name
            )

    return merge_reports(name, reports(), on_run=on_run)
