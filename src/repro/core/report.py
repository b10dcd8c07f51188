"""Report records produced by the localization algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encoding.context import StatementGroup


@dataclass(frozen=True)
class BugLocation:
    """One CoMSS reported by the localization loop.

    A CoMSS with more than one group means "the program cannot be fixed by
    changing any one of these lines alone; it must be changed at all of them
    simultaneously" (paper Section 4.2).
    """

    groups: tuple[StatementGroup, ...]
    cost: int = 1

    @property
    def lines(self) -> tuple[int, ...]:
        return tuple(sorted({group.line for group in self.groups}))

    def describe(self) -> str:
        return " + ".join(group.describe() for group in self.groups)


@dataclass
class LocalizationReport:
    """Result of running BugAssist on one failing execution."""

    program_name: str
    test_inputs: dict[str, int]
    specification: str
    candidates: list[BugLocation] = field(default_factory=list)
    trace_assignments: int = 0
    trace_variables: int = 0
    trace_clauses: int = 0
    maxsat_calls: int = 0
    sat_calls: int = 0
    #: Unit propagations performed by the SAT solver for this run (for a
    #: session run: inside this test's layer only).
    propagations: int = 0
    #: Conflicts analyzed by the SAT solver for this run (same scoping as
    #: ``propagations``); the Table 3 benchmarks derive
    #: ``conflicts_per_second`` — search-kernel throughput — from this.
    conflicts: int = 0
    time_seconds: float = 0.0
    #: True when the encoding truncated a loop whose proven minimum trip
    #: count exceeds the unroll depth: the localized execution is a prefix,
    #: so candidates may be incomplete.  Raise ``unwind`` or enable
    #: ``unwind_planning`` to clear it.
    unwind_truncated: bool = False

    @property
    def lines(self) -> list[int]:
        """All reported source lines, in order of first appearance."""
        seen: list[int] = []
        for candidate in self.candidates:
            for line in candidate.lines:
                if line not in seen:
                    seen.append(line)
        return seen

    def contains_line(self, line: int) -> bool:
        """Did any CoMSS include the given source line?"""
        return line in self.lines

    def size_reduction_percent(self, total_lines: int) -> float:
        """The paper's SizeReduc%: reported lines over total program lines."""
        if total_lines <= 0:
            return 0.0
        return 100.0 * len(self.lines) / total_lines

    def summary(self) -> str:
        if not self.candidates:
            return "no potential bug locations found (formula already satisfiable)"
        parts = [f"potential bug locations for {self.program_name}:"]
        for rank, candidate in enumerate(self.candidates, start=1):
            parts.append(f"  {rank}. {candidate.describe()}")
        return "\n".join(parts)


@dataclass
class RankedLocalization:
    """Aggregated localization over several failing tests (Section 4.3)."""

    program_name: str
    runs: list[LocalizationReport] = field(default_factory=list)
    line_counts: dict[int, int] = field(default_factory=dict)

    @property
    def ranked_lines(self) -> list[tuple[int, int]]:
        """(line, count) pairs sorted by decreasing report frequency."""
        return sorted(self.line_counts.items(), key=lambda item: (-item[1], item[0]))

    def detection_count(self, fault_lines: set[int]) -> int:
        """How many runs reported at least one of the true fault lines."""
        return sum(
            1 for run in self.runs if any(run.contains_line(line) for line in fault_lines)
        )

    def size_reduction_percent(self, total_lines: int) -> float:
        if total_lines <= 0:
            return 0.0
        return 100.0 * len(self.line_counts) / total_lines
