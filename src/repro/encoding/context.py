"""Variable allocation and clause routing for the trace-formula encoding.

:class:`ArenaEncodingContext` is the one encoding context: it allocates
CNF variables, routes clauses into the hard set or the active statement
group, and records the emission journal, all into the flat buffers of a
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


def _flatten_lits(value, out: list[int]) -> None:
    """Collect the literals of a (possibly nested) bit-vector payload: a
    bit-vector is a sequence of ints, anything else a sequence of payloads."""
    if value and isinstance(value[0], int):
        out.extend(value)
    else:
        for item in value:
            _flatten_lits(item, out)


def _event_refs(event: tuple) -> tuple[int, ...] | list[int]:
    """The literals a journal event references (for the escape pre-scan)."""
    tag = event[0]
    if tag == "nd":
        return event[1]
    if tag == "in":
        return event[2]
    if tag == "ret":
        return event[1] or ()
    if tag == "viol":
        return (event[2],)
    return ()


def _call_enter_refs(event: tuple) -> list[int]:
    """The interface of a "ce" event: guard, arguments, global bindings."""
    refs = [event[4]]
    _flatten_lits(event[5], refs)
    for _name, value in event[6]:
        _flatten_lits(value, refs)
    return refs


def _call_exit_refs(event: tuple) -> list[int]:
    """The interface of a "cx" event: result bits plus global bindings."""
    refs: list[int] = []
    _flatten_lits(event[2], refs)
    for _name, value in event[3]:
        _flatten_lits(value, refs)
    return refs


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

    With the journal on (:meth:`begin_journal`) every variable allocation,
    clause emission, gate insertion, group registration and caller-defined
    event (:meth:`record`) is appended, in emission order, to the arena's
    flat stream; that journal is what lets :mod:`repro.bmc.splice` replay
    this exact encoding against a later program version.  ``hard`` and
    ``groups`` are read-only views of the clause store built on demand; a
    compile or a trace takes the flat store itself.
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

    # -------------------------------------------------------------- journal

    def begin_journal(self) -> None:
        """Start recording the emission journal (must precede any emission)."""
        self.arena.begin_journal()

    @property
    def journaling(self) -> bool:
        """True while emissions are being journaled.

        Producers consult this before *constructing* an event tuple for
        :meth:`record`: with the journal off the tuple would be pure waste.
        """
        return bool(self.arena.hdr[_arena.HDR_JOURNAL])

    def record(self, event: tuple) -> None:
        """Append a caller-defined event (no-op when the journal is off)."""
        arena = self.arena
        if not arena.hdr[_arena.HDR_JOURNAL]:
            return
        tag = event[0]
        if tag == "ce":
            arena.record_event(event, _arena.TAG_CE, _call_enter_refs(event))
        elif tag == "cx":
            arena.record_event(event, _arena.TAG_CX, _call_exit_refs(event))
        else:
            arena.record_event(event, _arena.TAG_RAW, _event_refs(event))

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

    # ------------------------------------------------------------- rewind

    def mark(self) -> tuple:
        """The current state, to return to with :meth:`rewind`."""
        return self.arena.mark(), len(self._group_table)

    def rewind(self, mark: tuple) -> None:
        """Undo every emission and group registration since ``mark``."""
        arena_mark, ngroups = mark
        self.arena.rewind(arena_mark)
        for group in self._group_table[ngroups:]:
            del self._group_ids[group]
        del self._group_table[ngroups:]

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
        if group is not None and group not in self._group_ids:
            # Register the (possibly empty) group: the soft selector set
            # must not depend on whether any clause lands in it.
            self.arena.record_group(self.group_id(group))
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
