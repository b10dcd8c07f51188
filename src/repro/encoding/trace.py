"""The extended trace formula and its conversion to a partial MaxSAT instance.

Following Section 3.4 of the paper, the trace formula is kept in two parts:

* hard clauses — the constraint that the initial state equals the failing
  test input, the asserted post-condition, and structural clauses;
* clause groups — for every program statement executed by the trace, the
  CNF clauses encoding that statement's transition relation.

Both parts live in one flat clause store — every literal in ``lits``, each
clause's end offset in ``ends`` and its group index in ``gids`` (-1 for a
hard clause) — which the concolic tracer takes straight from the encoder's
arena.  :meth:`TraceFormula.to_wcnf` produces exactly the pMAX-SAT instance
BugAssist feeds to the solver: it gives every group a fresh selector
variable, adds the selector as a soft clause, and one gather pass over the
store appends the selector's negation to every clause of the group
(Equation 2: ``CNF(rho, lambda_rho)``).  No clause becomes a Python list on
the way to the SAT kernel.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.encoding.arena import gather_clauses, split_clauses
from repro.encoding.context import ArenaEncodingContext, StatementGroup
from repro.maxsat import WCNF


@dataclass
class TraceStep:
    """One executed statement in the failing trace (for reports and slicing)."""

    line: int
    function: str
    kind: str
    iteration: Optional[int] = None
    description: str = ""


def _int_array() -> array:
    return array("q")


@dataclass
class TraceFormula:
    """The extended trace formula of one failing execution."""

    width: int
    num_vars: int
    #: Every clause's literals, concatenated in emission order.
    lits: array = field(default_factory=_int_array)
    #: Per clause, its end offset into ``lits`` (start = previous end).
    ends: array = field(default_factory=_int_array)
    #: Per clause, its index into ``group_table`` (-1 = hard).
    gids: array = field(default_factory=_int_array)
    #: Every registered statement group, including groups without clauses.
    group_table: list[StatementGroup] = field(default_factory=list)
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
        return len(self.ends)

    @property
    def lines(self) -> set[int]:
        """Source lines that contributed at least one clause group."""
        return {group.line for group in self.group_table}

    # ----------------------------------------------------------------- views

    @property
    def hard(self) -> list[list[int]]:
        """The hard clauses in emission order (a view built on demand)."""
        return split_clauses(self.lits, self.ends, self.gids, self.group_table)[0]

    @property
    def groups(self) -> dict[StatementGroup, list[list[int]]]:
        """Each group's clauses in emission order (a view built on demand)."""
        return split_clauses(self.lits, self.ends, self.gids, self.group_table)[1]

    # --------------------------------------------------------- construction

    @classmethod
    def from_arena(
        cls,
        context: ArenaEncodingContext,
        steps: list[TraceStep],
        test_inputs: dict[str, int],
        assertion_description: str = "",
        narrowed_vars: int = 0,
    ) -> "TraceFormula":
        """The formula of a finished encode, sharing no state with it."""
        lits, ends, gids = context.arena.clause_store()
        return cls(
            width=context.width,
            num_vars=context.num_vars,
            lits=lits,
            ends=ends,
            gids=gids,
            group_table=list(context.group_table),
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

        The hard clauses come first in emission order, then the groups in
        sorted order, each group's clauses tagged with ``-selector`` unless
        its line is in ``hard_groups``.  Selectors are numbered from
        ``num_vars + 1`` over the sorted groups, empty groups included.

        Returns the WCNF plus a map from selector variable to group, so that
        CoMSS members can be mapped back to statements.
        """
        table = self.group_table
        rank = array("q", bytes(8 * len(table)))
        tags = array("q", bytes(8 * (len(table) + 1)))
        softs: list[tuple[int, StatementGroup]] = []
        for bucket, gid in enumerate(sorted(range(len(table)), key=table.__getitem__), 1):
            rank[gid] = bucket
            group = table[gid]
            if hard_groups is not None and group.line in hard_groups:
                continue
            selector = self.num_vars + len(softs) + 1
            tags[bucket] = -selector
            softs.append((selector, group))
        lits, ends, top = gather_clauses(self.lits, self.ends, self.gids, rank, tags)
        if top > self.num_vars:
            raise ValueError(
                f"clause literal names variable {top} above num_vars={self.num_vars}"
            )
        wcnf = WCNF.from_flat(lits, ends, self.num_vars)
        for selector, group in softs:
            weight = weight_of(group) if weight_of is not None else 1
            wcnf.add_soft([selector], weight=weight, label=group)
        return wcnf, dict(softs)
