"""Variable allocation and clause routing for the trace-formula encoding.

:class:`ArenaEncodingContext` is the one encoding context: it allocates
CNF variables and routes clauses into the hard set or the active statement
group, all into the flat buffers of a
:class:`~repro.encoding.arena.GateArena`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.encoding import arena as _arena
from repro.encoding.arena import GateArena, split_clauses


@dataclass(frozen=True, order=True)
class StatementGroup:
    """Identity of one clause group (Section 3.4).

    A group corresponds to one program statement: all clauses arising from
    the statement share one selector variable and are enabled or disabled
    together.  For the loop-debugging extension (Section 5.2) the group also
    carries the loop-unrolling ``iteration`` so the same source line gets a
    distinct selector per iteration.
    """

    line: int
    function: str = ""
    iteration: Optional[int] = None

    def describe(self) -> str:
        parts = [f"line {self.line}"]
        if self.function:
            parts.append(f"in {self.function}()")
        if self.iteration is not None:
            parts.append(f"iteration {self.iteration}")
        return " ".join(parts)


class ArenaEncodingContext:
    """Allocates CNF variables and routes emitted clauses into a
    :class:`GateArena`.

    Clauses are routed either into the *hard* set (test-input constraints,
    the asserted post-condition, auxiliary structure) or into the clause
    group of the statement currently being encoded; the :meth:`group`
    context manager selects the destination.  Gate definitions — the
    Tseitin clauses of the structure-hashed
    :class:`~repro.encoding.circuits.CircuitBuilder` — always go to the hard
    set: a definition with a fresh output is total, so one shared gate may
    be referenced from several statement groups without tying their
    relaxation together.

    ``hard`` and ``groups`` are read-only views of the clause store built on
    demand; a compile or a trace takes the flat store itself.
    """

    def __init__(
        self,
        width: int = 16,
        arena: Optional[GateArena] = None,
        group_table: Sequence[StatementGroup] = (),
    ) -> None:
        self.width = width
        self.arena = arena if arena is not None else GateArena()
        self._current: Optional[StatementGroup] = None
        self._group_table: list[StatementGroup] = list(group_table)
        self._group_ids: dict[StatementGroup, int] = {
            group: index for index, group in enumerate(self._group_table)
        }
        #: Wall-clock seconds per encode phase, filled by the producer
        #: (trace construction vs gate emission).
        self.encode_phases: dict[str, float] = {}
        #: Which emission backend filled the buffers ("python" or "c").
        self.encode_backend = "python"

    def group_id(self, group: StatementGroup) -> int:
        """Index of ``group`` in the group table (registering it)."""
        index = self._group_ids.get(group)
        if index is None:
            index = len(self._group_table)
            self._group_ids[group] = index
            self._group_table.append(group)
        return index

    @property
    def group_table(self) -> list[StatementGroup]:
        """Every registered statement group, in registration order."""
        return self._group_table

    # ------------------------------------------------------------ variables

    def new_var(self) -> int:
        """Allocate a fresh CNF variable."""
        return self.arena.new_var()

    @property
    def true_lit(self) -> int:
        """A literal constrained (by a hard unit clause) to be true."""
        return self.arena.true_lit()

    # -------------------------------------------------------------- clauses

    def emit(self, clause: list[int]) -> None:
        """Emit a clause into the hard set or the active statement group."""
        group = self._current
        self.arena.emit(clause, -1 if group is None else self.group_id(group))

    def active_group_id(self) -> Optional[int]:
        """The group id :meth:`emit` routes to now: -1 for the hard set,
        ``None`` while the active group is unregistered (its first
        :meth:`emit` registers it)."""
        group = self._current
        if group is None:
            return -1
        return self._group_ids.get(group)

    def emit_hard(self, clause: list[int]) -> None:
        """Emit a clause into the hard set regardless of the active group."""
        self.arena.emit(clause, -1)

    @property
    def gates_emitted(self) -> int:
        return self.arena.hdr[_arena.HDR_GATES]

    @property
    def gate_hits(self) -> int:
        return self.arena.hdr[_arena.HDR_HITS]

    @property
    def gate_signature(self) -> str:
        """Hex digest of the structural gate signature accumulated so far."""
        return f"{self.arena.hdr[_arena.HDR_SIG] & ((1 << 64) - 1):016x}"

    @contextmanager
    def group(self, group: Optional[StatementGroup]) -> Iterator[None]:
        """Route clauses emitted inside the block to ``group`` (None = hard)."""
        previous = self._current
        self._current = group
        if group is not None:
            # Register the (possibly empty) group: the soft selector set
            # must not depend on whether any clause lands in it.
            self.group_id(group)
        try:
            yield
        finally:
            self._current = previous

    @property
    def current_group(self) -> Optional[StatementGroup]:
        return self._current

    # ------------------------------------------------------------ statistics

    @property
    def num_vars(self) -> int:
        return self.arena.hdr[_arena.HDR_NUM_VARS]

    @property
    def num_clauses(self) -> int:
        """Total number of clauses emitted so far (hard plus grouped)."""
        return self.arena.hdr[_arena.HDR_NCLAUSES]

    @property
    def hard(self) -> list[list[int]]:
        """The hard clauses in emission order (a view built on demand)."""
        return split_clauses(*self.arena.clause_store(), self._group_table)[0]

    @property
    def groups(self) -> dict[StatementGroup, list[list[int]]]:
        """Each group's clauses in emission order (a view built on demand)."""
        return split_clauses(*self.arena.clause_store(), self._group_table)[1]
