"""The extended trace formula and its conversion to a partial MaxSAT instance.

Following Section 3.4 of the paper, the trace formula is kept in two parts:

* hard clauses — the constraint that the initial state equals the failing
  test input, the asserted post-condition, and structural clauses;
* clause groups — for every program statement executed by the trace, the
  CNF clauses encoding that statement's transition relation.

:meth:`TraceFormula.to_wcnf` augments every clause of a group with the
group's fresh selector variable (Equation 2: ``CNF(rho, lambda_rho)``) and
adds the selector as a soft clause, producing exactly the pMAX-SAT instance
BugAssist feeds to the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.encoding.context import EncodingContext, StatementGroup
from repro.maxsat import WCNF


@dataclass
class TraceStep:
    """One executed statement in the failing trace (for reports and slicing)."""

    line: int
    function: str
    kind: str
    iteration: Optional[int] = None
    description: str = ""


@dataclass
class TraceFormula:
    """The extended trace formula of one failing execution."""

    width: int
    num_vars: int
    hard: list[list[int]] = field(default_factory=list)
    groups: dict[StatementGroup, list[list[int]]] = field(default_factory=dict)
    steps: list[TraceStep] = field(default_factory=list)
    test_inputs: dict[str, int] = field(default_factory=dict)
    assertion_description: str = ""
    #: Number of gate-cache hits while encoding (structure-hash sharing).
    gates_shared: int = 0
    #: Bits eliminated by analysis-guided range narrowing (0 = narrowing off
    #: or nothing provable).
    narrowed_vars: int = 0

    # ------------------------------------------------------------ statistics

    @property
    def num_assignments(self) -> int:
        """Number of assignment operations in the trace (Table 3's assign#)."""
        return sum(1 for step in self.steps if step.kind in ("assign", "array-assign", "decl"))

    @property
    def num_clauses(self) -> int:
        """Total clause count (hard plus grouped), Table 3's clause#."""
        return len(self.hard) + sum(len(clauses) for clauses in self.groups.values())

    @property
    def lines(self) -> set[int]:
        """Source lines that contributed at least one clause group."""
        return {group.line for group in self.groups}

    @classmethod
    def from_context(
        cls,
        context: EncodingContext,
        steps: list[TraceStep],
        test_inputs: dict[str, int],
        assertion_description: str = "",
        narrowed_vars: int = 0,
    ) -> "TraceFormula":
        return cls(
            width=context.width,
            num_vars=context.num_vars,
            hard=list(context.hard),
            groups={group: list(clauses) for group, clauses in context.groups.items()},
            steps=steps,
            test_inputs=dict(test_inputs),
            assertion_description=assertion_description,
            gates_shared=context.gate_hits,
            narrowed_vars=narrowed_vars,
        )

    # ------------------------------------------------------------ conversion

    def to_wcnf(
        self,
        weight_of: Optional[Callable[[StatementGroup], int]] = None,
        hard_groups: Optional[set[int]] = None,
    ) -> tuple[WCNF, dict[int, StatementGroup]]:
        """Build the partial MaxSAT instance.

        ``weight_of`` assigns a weight to each group's soft selector clause
        (default 1); the loop-debugging extension passes the iteration-based
        weights of Equation 3.  ``hard_groups`` is a set of source lines whose
        clauses must be treated as hard (the paper does this for library
        functions that are known to be correct).

        Returns the WCNF plus a map from selector variable to group, so that
        CoMSS members can be mapped back to statements.
        """
        wcnf = WCNF()
        wcnf._num_vars = self.num_vars  # reserve the trace-formula variables
        wcnf.add_hard_clauses(self.hard)
        selector_to_group: dict[int, StatementGroup] = {}
        for group in sorted(self.groups):
            clauses = self.groups[group]
            if hard_groups is not None and group.line in hard_groups:
                wcnf.add_hard_clauses(clauses)
                continue
            weight = weight_of(group) if weight_of is not None else 1
            selector = wcnf.add_soft_group(clauses, weight=weight, label=group)
            selector_to_group[selector] = group
        return wcnf, selector_to_group
