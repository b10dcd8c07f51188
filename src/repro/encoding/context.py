"""Variable allocation and clause routing for the trace-formula encoding."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import obs
from repro.encoding import arena as _arena
from repro.encoding.arena import GateArena


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


class EncodingContext:
    """Allocates CNF variables and routes emitted clauses.

    Clauses are routed either into the *hard* set (test-input constraints,
    the asserted post-condition, auxiliary structure) or into the clause
    group of the statement currently being encoded.  Which destination is
    active is controlled with the :meth:`group` context manager.

    *Gate* clauses — the Tseitin definitions emitted by the structure-hashed
    :class:`~repro.encoding.circuits.CircuitBuilder` — are routed into the
    hard set through :meth:`emit_gate` regardless of the active group.  A
    gate definition is total (it has a solution for every assignment to its
    inputs, the output being a fresh variable), so making it hard never
    constrains the program variables; it only allows one shared gate to be
    referenced from several statement groups without tying those groups'
    relaxation together.  The relaxable part of a statement — its output
    bindings, branch units and assumptions — still goes through
    :meth:`emit` and stays owned by the statement's group.
    """

    def __init__(self, width: int = 16) -> None:
        self.width = width
        self.num_vars = 0
        self.hard: list[list[int]] = []
        self.groups: dict[StatementGroup, list[list[int]]] = {}
        self._current: Optional[StatementGroup] = None
        self._true_lit: Optional[int] = None
        # Structure-hashing statistics, maintained by the CircuitBuilder.
        self.gates_emitted = 0
        self.gate_hits = 0
        # Rolling FNV-1a hash over the canonical gate keys: a structural
        # signature of the circuit (``CompiledProgram.signature``).
        self._sig = 0xCBF29CE484222325
        # Emission journal (None = off).  When enabled, every variable
        # allocation, clause emission, gate-cache insertion and group
        # creation is appended as a compact event tuple, in emission order.
        # The journal is what lets :mod:`repro.bmc.splice` replay this exact
        # encoding against a later program version, re-encoding only the
        # changed regions.  Clause events reference the *same* list objects
        # held in ``hard``/``groups``, so pickling an artifact stores each
        # clause once.
        self.journal: Optional[list[tuple]] = None
        self.group_table: list[StatementGroup] = []
        self._group_ids: dict[StatementGroup, int] = {}
        self._pending_vars = 0

    # -------------------------------------------------------------- journal

    def begin_journal(self) -> None:
        """Start recording the emission journal (must precede any emission)."""
        self.journal = []
        self.group_table = []
        self._group_ids = {}
        self._pending_vars = 0

    def _flush_vars(self) -> None:
        if self._pending_vars:
            self.journal.append(("v", self._pending_vars))
            self._pending_vars = 0

    def record(self, event: tuple) -> None:
        """Append a caller-defined event (no-op when the journal is off)."""
        if self.journal is not None:
            self._flush_vars()
            self.journal.append(event)

    @property
    def journaling(self) -> bool:
        """True while emissions are being journaled.

        Producers must consult this (not ``journal is not None``) before
        *constructing* an event tuple for :meth:`record`: the arena-backed
        context exposes ``journal`` only after :meth:`finalize`, and when
        journaling is off entirely the event tuples would be pure waste.
        """
        return self.journal is not None

    def finalize(self) -> None:
        """Seal the encoding (no-op here; the arena context materializes)."""

    def group_id(self, group: StatementGroup) -> int:
        """Index of ``group`` in the journal's group table (registering it)."""
        index = self._group_ids.get(group)
        if index is None:
            index = len(self.group_table)
            self._group_ids[group] = index
            self.group_table.append(group)
        return index

    # ------------------------------------------------------------ variables

    def new_var(self) -> int:
        """Allocate a fresh CNF variable."""
        self.num_vars += 1
        if self.journal is not None:
            self._pending_vars += 1
        return self.num_vars

    @property
    def true_lit(self) -> int:
        """A literal constrained (by a hard unit clause) to be true."""
        if self._true_lit is None:
            self._true_lit = self.new_var()
            self.hard.append([self._true_lit])
            if self.journal is not None:
                # The variable is owned by the "t" event (replay allocates
                # it when setting up the constant), not by a "v" run.
                self._pending_vars -= 1
                self.record(("t", self._true_lit))
        return self._true_lit

    # -------------------------------------------------------------- clauses

    def emit(self, clause: list[int]) -> None:
        """Emit a clause into the hard set or the active statement group."""
        if self._current is None:
            self.hard.append(clause)
            if self.journal is not None:
                self._flush_vars()
                self.journal.append(("c", -1, clause))
        else:
            self.groups.setdefault(self._current, []).append(clause)
            if self.journal is not None:
                self._flush_vars()
                self.journal.append(("c", self.group_id(self._current), clause))

    def emit_hard(self, clause: list[int]) -> None:
        """Emit a clause into the hard set regardless of the active group."""
        self.hard.append(clause)
        if self.journal is not None:
            self._flush_vars()
            self.journal.append(("c", -1, clause))

    def emit_gate(self, clause: list[int]) -> None:
        """Emit one clause of a (total) gate definition into the hard set."""
        self.hard.append(clause)
        if self.journal is not None:
            self._flush_vars()
            self.journal.append(("c", -1, clause))

    def observe_gate(self, op: int, a: int, b: int, out: int, nclauses: int) -> None:
        """Fold one canonical gate key into the structural signature.

        Called *before* the gate's ``nclauses`` definition clauses are
        emitted, with ``out`` the variable allocated immediately beforehand.
        The journal excludes ``out`` from the pending "v" run (the "g" event
        owns it) and records the clause count — that is what lets a replay
        elide the whole insertion when the remapped key hits a live gate
        cache, exactly as a cold encode of the new version would have.
        """
        sig = self._sig
        for word in (op, a, b, out):
            sig = ((sig ^ (word & 0xFFFFFFFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        self._sig = sig
        if self.journal is not None:
            # The canonical (op, a, b) key is exactly the gate-cache key the
            # CircuitBuilder just inserted; recording it lets a replay
            # rebuild the cache (and the signature) under a variable remap.
            self._pending_vars -= 1
            self._flush_vars()
            self.journal.append(("g", op, a, b, out, nclauses))

    @property
    def gate_signature(self) -> str:
        """Hex digest of the structural gate signature accumulated so far."""
        return f"{self._sig:016x}"

    @contextmanager
    def group(self, group: Optional[StatementGroup]) -> Iterator[None]:
        """Route clauses emitted inside the block to ``group`` (None = hard)."""
        previous = self._current
        self._current = group
        if group is not None:
            self.groups.setdefault(group, [])
            if self.journal is not None and group not in self._group_ids:
                # Register the (possibly empty) group: cold compiles create
                # an entry even when no clause lands in it, and the soft
                # selector set must be identical on replay.
                self.record(("grp", self.group_id(group)))
        try:
            yield
        finally:
            self._current = previous

    @property
    def current_group(self) -> Optional[StatementGroup]:
        return self._current

    # ------------------------------------------------------------ statistics

    @property
    def num_clauses(self) -> int:
        """Total number of clauses emitted so far (hard plus grouped)."""
        return len(self.hard) + sum(len(clauses) for clauses in self.groups.values())


def _flatten_lits(value, out: list[int]) -> None:
    """Collect the literals of a (possibly nested) bit-vector payload."""
    for item in value:
        if isinstance(item, int):
            out.append(item)
        else:
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


class ArenaEncodingContext(EncodingContext):
    """An :class:`EncodingContext` backed by flat :class:`GateArena` storage.

    Same observable behaviour as the legacy list/tuple context — identical
    variable numbering, clause order, journal events and gate signature —
    but clauses, the journal and the gate cache live in flat ``array('q')``
    buffers while the encode runs (the C emission core operates on the same
    buffers).  A whole-program compile calls :meth:`finalize` once at the
    end to materialize the legacy ``hard`` / ``groups`` / ``journal``
    structures, so artifacts and the splice replay are byte-for-byte
    unaffected.  A concolic trace never calls it:
    :meth:`~repro.encoding.trace.TraceFormula.from_arena` takes the flat
    clause store as it is, and ``hard`` / ``groups`` then stay unreadable.

    The legacy class remains the engine of the splice replay
    (:mod:`repro.bmc.splice` mutates its state directly); this subclass is
    what cold compiles run on.
    """

    def __init__(self, width: int = 16) -> None:
        self.width = width
        self.arena = GateArena()
        self._current: Optional[StatementGroup] = None
        self._group_table: list[StatementGroup] = []
        self._group_ids: dict[StatementGroup, int] = {}
        self._finalized = False
        self._journal_view: Optional[list[tuple]] = None
        self._hard_view: Optional[list[list[int]]] = None
        self._groups_view: Optional[dict[StatementGroup, list[list[int]]]] = None
        #: Wall-clock seconds per encode phase, filled by the producer
        #: (trace construction vs gate emission vs journal materialization).
        self.encode_phases: dict[str, float] = {}
        #: Which emission backend filled the buffers ("python" or "c").
        self.encode_backend = "python"

    # -------------------------------------------------------------- journal

    def begin_journal(self) -> None:
        self.arena.begin_journal()
        self._group_table = []
        self._group_ids = {}

    @property
    def journaling(self) -> bool:
        return bool(self.arena.hdr[_arena.HDR_JOURNAL])

    @property
    def journal(self) -> Optional[list[tuple]]:
        """The legacy tuple journal — available once :meth:`finalize` ran."""
        return self._journal_view

    def record(self, event: tuple) -> None:
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
        index = self._group_ids.get(group)
        if index is None:
            index = len(self._group_table)
            self._group_ids[group] = index
            self._group_table.append(group)
        return index

    @property
    def group_table(self) -> list[StatementGroup]:
        return self._group_table

    # ------------------------------------------------------------ variables

    def new_var(self) -> int:
        return self.arena.new_var()

    @property
    def _true_lit(self) -> Optional[int]:
        return self.arena.hdr[_arena.HDR_TRUE] or None

    @property
    def true_lit(self) -> int:
        return self.arena.true_lit()

    # -------------------------------------------------------------- clauses

    def emit(self, clause: list[int]) -> None:
        group = self._current
        self.arena.emit(clause, -1 if group is None else self.group_id(group))

    def emit_hard(self, clause: list[int]) -> None:
        self.arena.emit(clause, -1)

    def emit_gate(self, clause: list[int]) -> None:
        self.arena.emit(clause, -1)

    @property
    def gates_emitted(self) -> int:
        return self.arena.hdr[_arena.HDR_GATES]

    @property
    def gate_hits(self) -> int:
        return self.arena.hdr[_arena.HDR_HITS]

    @property
    def gate_signature(self) -> str:
        return f"{self.arena.hdr[_arena.HDR_SIG] & ((1 << 64) - 1):016x}"

    @contextmanager
    def group(self, group: Optional[StatementGroup]) -> Iterator[None]:
        previous = self._current
        self._current = group
        if group is not None and group not in self._group_ids:
            # Register the (possibly empty) group exactly like the legacy
            # context: the soft selector set must not depend on whether any
            # clause lands in the group.
            self.arena.record_group(self.group_id(group))
        try:
            yield
        finally:
            self._current = previous

    # ------------------------------------------------------------ statistics

    @property
    def num_vars(self) -> int:
        return self.arena.hdr[_arena.HDR_NUM_VARS]

    @property
    def num_clauses(self) -> int:
        return self.arena.hdr[_arena.HDR_NCLAUSES]

    @property
    def hard(self) -> list[list[int]]:
        if self._hard_view is None:
            raise RuntimeError("arena context read before finalize()")
        return self._hard_view

    @property
    def groups(self) -> dict[StatementGroup, list[list[int]]]:
        if self._groups_view is None:
            raise RuntimeError("arena context read before finalize()")
        return self._groups_view

    # ------------------------------------------------------- materialization

    def finalize(self) -> None:
        """Materialize the legacy clause lists and tuple journal (once).

        The cyclic collector is suspended for the duration: materialization
        allocates millions of containers that are all retained, and letting
        the GC repeatedly scan that growing live set multiplies the cost of
        this phase several-fold without ever freeing anything.
        """
        if self._finalized:
            return
        with obs.span("encode.materialize") as timed:
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                hard, groups, journal, _true = self.arena.materialize(
                    self._group_table
                )
            finally:
                if was_enabled:
                    gc.enable()
        self._hard_view = hard
        self._groups_view = groups
        self._journal_view = journal
        self._finalized = True
        self.encode_phases["materialize"] = (
            self.encode_phases.get("materialize", 0.0) + timed.duration
        )
