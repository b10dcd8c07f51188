"""Partial weighted CNF container used by every MaxSAT engine."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Optional


@dataclass(frozen=True)
class SoftClause:
    """A soft clause: literals, a positive integer weight and an optional label.

    Labels are opaque to the solvers; BugAssist uses them to map soft clauses
    back to program statements (selector-variable groups).
    """

    lits: tuple[int, ...]
    weight: int = 1
    label: Optional[Hashable] = None


class WCNF:
    """A partial weighted CNF formula.

    Hard clauses must be satisfied; soft clauses each carry a positive weight
    and the solvers maximise the total weight of satisfied soft clauses
    (equivalently, minimise the total weight of falsified ones).

    The hard clauses are stored flat, the way the SAT kernel loads them:
    :attr:`hard_lits` holds every literal and :attr:`hard_ends` each
    clause's end offset into it.  :attr:`hard` is a list view built on
    demand.
    """

    def __init__(self) -> None:
        self._lits = array("q")
        self._ends = array("q")
        self.soft: list[SoftClause] = []
        self._num_vars = 0

    @classmethod
    def from_flat(cls, lits: array, ends: array, num_vars: int) -> "WCNF":
        """An instance whose hard clauses are the flat buffers ``lits`` and
        ``ends`` (clause ``i`` is ``lits[ends[i-1]:ends[i]]``), adopted as
        they are.

        The caller has checked the literals: none is 0 and none names a
        variable above ``num_vars``, which is reserved.
        """
        wcnf = cls()
        wcnf._lits, wcnf._ends = lits, ends
        wcnf._num_vars = num_vars
        return wcnf

    # ------------------------------------------------------------- building

    @property
    def num_vars(self) -> int:
        """Highest variable index mentioned so far (or allocated)."""
        return self._num_vars

    def new_var(self) -> int:
        """Allocate a fresh variable index not used by any clause yet."""
        self._num_vars += 1
        return self._num_vars

    def add_hard(self, lits: Iterable[int]) -> None:
        """Add a hard clause."""
        self._append(self._checked([lits]))

    def add_hard_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add many hard clauses, in order."""
        self._append(self._checked(clauses))


    def add_soft(
        self,
        lits: Iterable[int],
        weight: int = 1,
        label: Optional[Hashable] = None,
    ) -> int:
        """Add a soft clause and return its index."""
        if weight <= 0:
            raise ValueError("soft clause weight must be a positive integer")
        (clause,) = self._checked([lits])
        self.soft.append(SoftClause(tuple(clause), weight, label))
        return len(self.soft) - 1

    def add_soft_group(
        self,
        clauses: Iterable[Iterable[int]],
        weight: int = 1,
        label: Optional[Hashable] = None,
        selector: Optional[int] = None,
    ) -> int:
        """Add a *group* of clauses controlled by one selector variable.

        This is the clause-grouping construction of Section 3.4 of the paper:
        every clause ``c`` of the group becomes the hard clause ``(!s or c)``
        and the single soft clause ``[s]`` (weight ``weight``) stands for the
        whole group.  Returns the selector variable.
        """
        # Each literal is checked exactly once, here; the selector-extended
        # clauses then go to the hard list directly.
        materialized = self._checked(clauses)
        if selector is None:
            selector = self.new_var()
        else:
            self._checked([[selector]])
        for clause in materialized:
            clause.append(-selector)
        self._append(materialized)
        self.add_soft([selector], weight=weight, label=label)
        return selector

    # ------------------------------------------------------------ inspection

    @property
    def hard_lits(self) -> array:
        """Every hard clause's literals, concatenated."""
        return self._lits

    @property
    def hard_ends(self) -> array:
        """Per hard clause, its end offset into :attr:`hard_lits`."""
        return self._ends

    @property
    def hard(self) -> list[list[int]]:
        """The hard clauses as fresh lists (a view; edits are not kept)."""
        lits, ends = self._lits, self._ends
        return [lits[start:end].tolist() for start, end in zip(chain((0,), ends), ends)]

    @property
    def total_soft_weight(self) -> int:
        """Sum of all soft clause weights."""
        return sum(soft.weight for soft in self.soft)

    def is_weighted(self) -> bool:
        """True when soft clauses carry non-uniform weights."""
        return len({soft.weight for soft in self.soft}) > 1

    def copy(self) -> "WCNF":
        """Independent copy (the hard buffers are copied; soft clauses are frozen)."""
        duplicate = WCNF()
        duplicate._lits = array("q", self._lits)
        duplicate._ends = array("q", self._ends)
        duplicate.soft = list(self.soft)
        duplicate._num_vars = self._num_vars
        return duplicate

    # -------------------------------------------------------------- helpers

    def _append(self, clauses: list[list[int]]) -> None:
        lits, ends = self._lits, self._ends
        for clause in clauses:
            lits.extend(clause)
            ends.append(len(lits))

    def _checked(self, clauses: Iterable[Iterable[int]]) -> list[list[int]]:
        """Fresh lists of the clauses' literals; rejects 0, notes the top var."""
        materialized = list(map(list, clauses))
        lits = list(chain.from_iterable(materialized))
        if lits:
            if 0 in lits:
                raise ValueError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, max(lits), -min(lits))
        return materialized

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WCNF(vars={self._num_vars}, hard={len(self._ends)}, "
            f"soft={len(self.soft)}, weight={self.total_soft_weight})"
        )
