"""A conflict-driven clause-learning (CDCL) SAT solver.

The solver follows the classic MiniSAT architecture: two-literal watching,
first-UIP conflict analysis with clause learning, VSIDS variable activities,
phase saving, Luby restarts and activity-based deletion of learnt clauses.

Two features beyond plain satisfiability are load-bearing for the rest of
the reproduction:

* **Assumptions.**  :meth:`Solver.solve` accepts a sequence of literals that
  are treated as temporary decisions.  The BugAssist encoding attaches one
  *selector variable* per program statement; solving under assumptions over
  the selectors is how the MaxSAT layer enables and disables statements.
* **Assumption cores.**  When the instance is unsatisfiable under the given
  assumptions, :meth:`Solver.unsat_core` returns a subset of the assumptions
  that is already contradictory.  The core-guided MaxSAT algorithms
  (Fu–Malik, MSU3) are built directly on this facility.
* **Clause-database retention.**  :meth:`Solver.add_clause` may be called
  again after any number of :meth:`Solver.solve` calls (solving always
  returns to decision level 0): problem clauses, learnt clauses, variable
  activities and saved phases all persist, so the MaxSAT layer can block a
  correction set with a new hard clause and re-solve incrementally instead
  of rebuilding the instance from scratch.
* **Retractable layers.**  :meth:`Solver.push` opens a *layer*: clauses
  added while a layer is active can later be retracted with
  :meth:`Solver.pop`.  A layer is implemented with a fresh selector
  variable ``s`` — every clause of the layer gets ``-s`` appended and every
  solve assumes ``s`` — so retraction is sound by construction: popping
  adds the permanent unit ``-s``, which subsumes every clause of the layer,
  and therefore keeps all learnt clauses valid.  The session API uses this
  to load one whole-program encoding and swap per-test input/specification
  units in and out without rebuilding the solver.
* **Assumption-trail keeping.**  On trace formulas almost the entire
  circuit is forced by the assumptions, so re-deciding the same assumption
  prefix on every :meth:`Solver.solve` call re-propagates thousands of
  literals.  The solver therefore *keeps* the assumption decision levels
  (and all their propagations) between solve calls and, on the next call,
  backtracks only to the first assumption that differs.  Clauses added
  between calls attach in place when they are neither unit nor conflicting
  under the kept trail; otherwise the solver backjumps just far enough to
  place them, and a unit clause gives the trail up for level 0.

**Clause storage and the search kernel.**  Clauses live in one flat *arena*
(a ``long`` array) rather than as per-clause Python objects: a clause is an
integer offset, its two watcher-list links and *blocker literals* are part
of its header, and the per-literal watch lists are intrusive linked lists
threaded through the arena.  The arena's *logical* length
(:attr:`Solver._arena_len`) is tracked separately from the physical buffer
length so the compiled kernel can append learnt clauses into preallocated
slack without returning to Python.

A solver runs on one of two backends (see :mod:`repro.sat._ccore`).  With
the ``"c"`` backend the whole search state — arena, watch heads,
assignments, levels, reasons, trail, saved phases, VSIDS activities, the
analysis ``seen`` buffer and the order heap — is held in flat
``array``-backed buffers, and five compiled entry points operate over that
memory.  Each takes the solver's *buffer table* (one array holding every
buffer's address, refreshed only when a buffer grows or is replaced; see
:meth:`Solver._buffers`) instead of one argument per buffer:

* ``repro_propagate`` — the unit-propagation core, used for root-level
  propagation outside the search loop (:meth:`Solver.add_clause`);
* ``repro_search`` — one whole solve: the assumption-trail keeping of
  :meth:`Solver.solve` (shared-prefix compare, optimistic resume and its
  re-derive, the backtracks before and after the search) and the full CDCL
  *search kernel*: propagation, first-UIP conflict analysis with clause
  learning and local minimization, backjumping, VSIDS bump/decay/rescale,
  the activity order heap, phase saving, assumption decisions, Luby
  restarts and assumption-core extraction all run inside C, returning to
  Python only for the rare control events (SAT/UNSAT answers, an extracted
  assumption core, learnt-database reduction, budget exhaustion, and
  buffer-capacity growth; :attr:`Solver.kernel_exits` counts them by reason
  and :attr:`Solver.kernel_seconds` sums the wall time spent inside);
* ``repro_add_clauses`` — the *bulk load* (:meth:`Solver.add_clauses`): one
  call applies :meth:`Solver.add_clause`'s simplification rules to a whole
  flattened batch, writes and attaches the surviving clauses at the arena
  end, and enqueues and propagates units at the root; under a kept
  assumption trail it places each longer clause as
  :meth:`Solver._place_under_trail` does (clauses added under an open
  layer arrive tagged with its selector);
* ``repro_cancel`` — the backtracks outside a solve and a clause load
  (:meth:`Solver._cancel_until`, as in :meth:`Solver.push` and
  :meth:`Solver.pop`): unassigning the trail, saving phases and
  reinserting variables into the order heap;
* ``repro_sweep`` — retracting a batch of clauses in one pass
  (:meth:`Solver._sweep`): when :meth:`Solver.pop` retracts a layer it
  marks the layer's clauses and every learnt clause naming the dead
  selector dead, unlinks them from each affected watcher list in one walk
  and clears the root reasons that named them; learnt-database reduction
  retracts its victims the same way.

With the ``"python"`` backend the same state lives in plain lists and the
pure-Python loops implement the identical algorithm (the per-clause
:meth:`Solver.add_clause` loop mirrors the bulk load, and
:meth:`Solver._solve_python` the trail keeping); they remain the
always-tested fallback, and both backends produce bit-identical models,
conflicts, cores, statistics and loaded solver state.

Literals use the DIMACS convention (non-zero signed integers) at the API
boundary and a packed even/odd encoding internally.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.sat import _ccore
from repro.sat.heap import ActivityHeap, grow_buffer

_UNDEF = -1
_FALSE = 0
_TRUE = 1

#: Arena words preceding a clause's literals: header, two watch links, two
#: blocker literals.
_HDR = 5

#: Arena header flag bits.
_FLAG_LEARNT = 1
_FLAG_DEAD = 2

#: Slots of the buffer table the C entry points take (``B_*`` in search.c).
_B_ARENA = 0
_B_HEADS = 1
_B_ASSIGNS = 2
_B_LEVELS = 3
_B_REASONS = 4
_B_TRAIL = 5
_B_TRAIL_LIM = 6
_B_POLARITY = 7
_B_SEEN = 8
_B_ACTIVITY = 9
_B_HEAP = 10
_B_HEAP_POS = 11
_B_ASSUMPTIONS = 12
_B_SCRATCH = 13
_B_BUMPLOG = 14
_B_TMP = 15
_B_KEPT = 16
_B_SLOTS = 17

#: Exit reasons the C search kernel reports back through its state buffer.
#: They mirror the control points where the pure-Python loop leaves its
#: ``while True`` body (or needs services only Python provides).
_EXIT_SAT = 1  # every variable assigned: a model is on the trail
_EXIT_UNSAT = 2  # conflict at decision level 0: permanently unsatisfiable
_EXIT_ASSUMPTION = 3  # an assumption is falsified: extract a core
_EXIT_REDUCE = 4  # the learnt database hit its size budget
_EXIT_CAPACITY = 5  # arena/scratch/log slack too small for another conflict
_EXIT_CONFLICT_BUDGET = 6  # Solver.max_conflicts exhausted

#: The keys of :attr:`Solver.kernel_exits`, one per exit reason.
_EXIT_NAMES = {
    _EXIT_SAT: "sat",
    _EXIT_UNSAT: "unsat",
    _EXIT_ASSUMPTION: "assumption",
    _EXIT_REDUCE: "reduce",
    _EXIT_CAPACITY: "capacity",
    _EXIT_CONFLICT_BUDGET: "conflict_budget",
}

#: Outcomes of the bulk clause load (``repro_add_clauses``).
_ADD_UNSAT = 1  # an empty clause or a root conflict: the formula is unsat
_ADD_BAD_LITERAL = 2  # a literal 0 stopped the load
_ADD_GROW = 3  # the batch names unallocated variables: nothing was loaded

#: Layout of the search kernel's ``state`` array (one slot per line).
_S_QHEAD = 0
_S_TRAIL_LEN = 1
_S_LEVELS = 2
_S_PROPAGATIONS = 3
_S_ARENA_LEN = 4
_S_ARENA_CAP = 5
_S_HEAP_SIZE = 6
_S_NUM_VARS = 7
_S_NUM_ASSUMPTIONS = 8
_S_LEARNT_COUNT = 9
_S_MAX_LEARNTS = 10
_S_RESTART_INDEX = 11
_S_CONFLICT_BUDGET = 12
_S_CONFLICTS_SINCE_RESTART = 13
_S_TOTAL_CONFLICTS = 14
_S_MAX_CONFLICTS = 15
_S_SEARCH_FLOOR = 16
_S_EXIT_REASON = 17
_S_EXIT_PAYLOAD = 18
_S_D_CONFLICTS = 19
_S_D_DECISIONS = 20
_S_D_RESTARTS = 21
_S_D_LEARNTS = 22
_S_D_ANALYSES = 23
_S_D_MINIMIZED = 24
_S_D_BACKJUMPED = 25
_S_SCRATCH_LEN = 26
_S_SCRATCH_CAP = 27
_S_LOG_LEN = 28
_S_LOG_CAP = 29
_S_CORE_LEN = 30  # literals of the assumption core the kernel wrote to tmp
_S_KEPT_LEN = 31  # kept assumption literals in the kept buffer
_S_KEEP = 32  # assumption prefix shared with the previous solve
_S_PHASE = 33  # the solve's phase; the driver starts it at _PHASE_START
_S_ROOT_UNSAT = 34  # an optimistic search met a root conflict before its redo
_S_MAX_LEARNTS_INIT = 35  # the learnt-database budget a search starts with
_S_WORDS = 36

#: ``_S_PHASE`` of a new solve: the kernel runs its trail-keeping prologue.
_PHASE_START = 0


@dataclass
class _Layer:
    """One retractable clause layer opened by :meth:`Solver.push`.

    ``selector`` is the layer's fresh selector variable; ``clauses`` are the
    arena refs of the attached (length >= 2) clauses carrying ``-selector``
    that must be detached again when the layer is popped.
    """

    selector: int
    clauses: list[int] = field(default_factory=list)
    clause_mark: int = 0  # len(solver._clauses) when the layer opened


@dataclass
class SolverStats:
    """Cumulative solver statistics, exposed for benchmarks and ablations.

    Counters only ever grow; per-phase numbers are obtained by
    :meth:`snapshot` at the phase boundary and :meth:`since` afterwards,
    which is how the MaxSAT engine reports clean per-layer (per-test)
    statistics on a long-lived session solver.

    Conflict analysis has its own counters so the Table 3 benchmarks can
    report analysis throughput (``conflicts_per_second``) and how much work
    first-UIP resolution and minimization actually do: ``analyses`` counts
    conflicts analyzed (conflicts at level 0 terminate the search without
    analysis), ``minimized_literals`` counts literals dropped by local
    clause minimization, and ``backjumped_levels`` sums the decision levels
    undone by conflict-driven backjumps.  All three are bit-identical
    between the Python and C search backends.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    deleted_clauses: int = 0
    solve_calls: int = 0
    max_vars: int = 0
    analyses: int = 0
    minimized_literals: int = 0
    backjumped_levels: int = 0
    extra: dict = field(default_factory=dict)

    def snapshot(self) -> "SolverStats":
        """An immutable copy of the current counter values."""
        return replace(self, extra=dict(self.extra))

    def since(self, earlier: "SolverStats") -> "SolverStats":
        """The counter deltas accumulated after ``earlier`` was snapshot."""
        return SolverStats(
            conflicts=self.conflicts - earlier.conflicts,
            decisions=self.decisions - earlier.decisions,
            propagations=self.propagations - earlier.propagations,
            restarts=self.restarts - earlier.restarts,
            learnt_clauses=self.learnt_clauses - earlier.learnt_clauses,
            deleted_clauses=self.deleted_clauses - earlier.deleted_clauses,
            solve_calls=self.solve_calls - earlier.solve_calls,
            max_vars=self.max_vars,
            analyses=self.analyses - earlier.analyses,
            minimized_literals=self.minimized_literals - earlier.minimized_literals,
            backjumped_levels=self.backjumped_levels - earlier.backjumped_levels,
        )


class Solver:
    """Incremental CDCL SAT solver with assumption support.

    Typical use::

        solver = Solver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.add_clause([-x, y])
        assert solver.solve()
        assert solver.model_value(y) is True

    ``backend`` selects the implementation of the inner loops: ``"c"`` (the
    compiled propagation core and search kernel; raises when unavailable),
    ``"python"`` (the pure-Python loops), or ``None`` for the process-wide
    default reported by :func:`repro.sat.propagation_backend`.
    """

    def __init__(self, backend: Optional[str] = None) -> None:
        if backend is None:
            backend = _ccore.backend()
        if backend not in ("c", "python"):
            raise ValueError(f"unknown solver backend {backend!r}")
        library = _ccore.load_core() if backend == "c" else None
        if backend == "c" and library is None:
            raise RuntimeError(
                f"C solver core unavailable: {_ccore.unavailable_reason()}"
            )
        self.backend = backend
        self._use_c = library is not None
        if self._use_c:
            # Flat C-addressable buffers: the compiled cores walk these via
            # raw pointers, the Python control plane via normal indexing.
            self._arena = array("l", [0])
            self._heads = array("l", [0, 0])
            self._assigns = array("b", [_UNDEF])
            self._level = array("l", [0])
            self._reason = array("l", [0])
            self._trail = array("l")
            self._polarity = array("b", [0])
            self._activity = array("d", [0.0])
            self._seen = array("b", [0])
            self._state = array("l", [0, 0, 0, 0])
            self._cfn = library.repro_propagate
            self._sstate = array("l", [0] * _S_WORDS)
            self._sfloat = array("d", [0.0, 0.0])
            self._csearch = library.repro_search
            self._cadd = library.repro_add_clauses
            self._ccancel = library.repro_cancel
            self._csweep = library.repro_sweep
            # The buffer table ("L": one C pointer per slot) and what its
            # slots were last filled from; see _buffers.
            self._btable = array("L", [0] * _B_SLOTS)
            self._btable_addr = self._btable.buffer_info()[0]
            self._btable_arena: Optional[array] = None
            self._btable_arena_len = -1
            self._btable_vars = -1
        else:
            self._arena = [0]
            self._heads = [0, 0]
            self._assigns = [_UNDEF]
            self._level = [0]
            self._reason = [0]
            self._trail = []
            self._polarity = [False]
            self._activity = [0.0]
            self._seen = [0]
        # Scratch buffers marshalled in/out around each kernel call; grown
        # lazily and reused across solves.
        self._assump_buf: Optional[array] = None
        self._lim_buf: Optional[array] = None
        self._scratch_buf: Optional[array] = None
        self._bump_log: Optional[array] = None
        self._analyze_buf: Optional[array] = None
        # (variables, assumptions) the search buffers were last sized for.
        self._provisioned = (-1, -1)
        # The kept assumption literals (see _kept_assumptions): on the C
        # backend the first _kept_len internal literals of _kept_buf, which
        # the kernel reads and rewrites; on the Python backend _kept.
        self._kept_buf: Optional[array] = None
        self._kept_len = 0
        self._kept: list[int] = []
        self._arena_len = 1
        self._num_vars = 0
        self._clauses: list[int] = []
        self._learnts: list[int] = []
        self._activity_of: dict[int, float] = {}
        self._garbage = 0
        self._trail_len = 0
        # Trail bounds of the open decision levels: a list on the Python
        # backend, an array('l') copied out of the kernel's on the C backend.
        self._trail_lim: Sequence[int] = array("l") if self._use_c else []
        self._qhead = 0
        self._order = ActivityHeap(self._activity, flat=self._use_c)
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._ok = True
        self._model: Optional[list[int]] = None
        self._core: Optional[list[int]] = None
        self._layers: list[_Layer] = []
        # Lowest decision level reached since the current solve started;
        # used to record which kept assumption decisions survived an
        # optimistic full-trail resume.
        self._search_floor = 0
        self.stats = SolverStats()
        #: How often the C search kernel returned, per exit reason (all zero
        #: on the Python backend).  Kept outside :attr:`stats`, whose
        #: counters are identical across backends.
        self.kernel_exits = dict.fromkeys(_EXIT_NAMES.values(), 0)
        #: Wall seconds spent inside ``repro_search`` calls (zero on the
        #: Python backend); like :attr:`kernel_exits`, outside :attr:`stats`.
        self.kernel_seconds = 0.0
        #: Calls into the compiled library, every entry point counted (zero
        #: on the Python backend).
        self.kernel_calls = 0
        self.max_conflicts: Optional[int] = None

    # ------------------------------------------------------------------ API

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of problem (non-learnt) clauses currently stored."""
        return len(self._clauses)

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._assigns.append(_UNDEF)
        self._level.append(0)
        self._reason.append(0)
        self._polarity.append(False)
        self._activity.append(0.0)
        self._seen.append(0)
        self._heads.append(0)
        self._heads.append(0)
        self._trail.append(0)  # trail capacity: one slot per variable
        self._order.insert(self._num_vars)
        self.stats.max_vars = max(self.stats.max_vars, self._num_vars)
        return self._num_vars

    def ensure_vars(self, max_var: int) -> None:
        """Allocate variables up to ``max_var`` (inclusive) if needed.

        The bulk form of :meth:`new_var`, leaving the identical state: every
        per-variable buffer grows in one step, and the order heap gets the
        new variables appended in index order, which is exactly where
        one-at-a-time insertion leaves them (a zero-activity variable never
        sifts up past a parent).
        """
        count = max_var - self._num_vars
        if count <= 0:
            return
        first = self._num_vars + 1
        grow_buffer(self._assigns, _UNDEF, count)
        grow_buffer(self._level, 0, count)
        grow_buffer(self._reason, 0, count)
        grow_buffer(self._polarity, 0 if self._use_c else False, count)
        grow_buffer(self._activity, 0.0, count)
        grow_buffer(self._seen, 0, count)
        grow_buffer(self._heads, 0, 2 * count)
        grow_buffer(self._trail, 0, count)  # trail capacity: one slot per variable
        self._num_vars = max_var
        self._order.insert_fresh(first, max_var)
        self.stats.max_vars = max(self.stats.max_vars, max_var)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of signed literals.

        While a layer opened by :meth:`push` is active the clause belongs to
        that layer and is retracted again by the matching :meth:`pop`.  The
        clause may be added while an assumption trail is kept from the
        previous solve: it attaches in place when it has two non-false
        literals under the kept trail and otherwise triggers a transparent
        backtrack to level 0.

        Returns ``False`` when the clause makes the formula trivially
        unsatisfiable at the top level (and the solver becomes permanently
        unsatisfiable), ``True`` otherwise.

        This per-clause loop is also the pure-Python mirror of the
        ``repro_add_clauses`` kernel behind :meth:`add_clauses`.
        """
        if not self._ok:
            return False
        layer = self._layers[-1] if self._layers else None
        if layer is not None:
            lits = [*lits, -layer.selector]
        seen: set[int] = set()
        internal: list[int] = []
        assigns = self._assigns  # grown in place by ensure_vars
        levels = self._level
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > self._num_vars:
                self.ensure_vars(var)
            ilit = 2 * var + (lit < 0)
            if ilit ^ 1 in seen:
                return True  # tautology: trivially satisfied
            if ilit in seen:
                continue
            value = assigns[var]
            if value != _UNDEF and levels[var] == 0:
                if value ^ (ilit & 1) == _TRUE:
                    return True  # already satisfied at top level
                continue  # falsified at top level: drop the literal
            seen.add(ilit)
            internal.append(ilit)
        if not internal:
            self._cancel_to_root()
            self._ok = False
            return False
        if len(internal) == 1:
            # Unit clauses are root facts: give up the kept trail so the
            # literal is fixed at level 0.
            self._cancel_to_root()
            if not self._enqueue(internal[0], 0):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        ref = self._alloc(internal, learnt=False)
        if self._trail_lim and not self._place_under_trail(ref):
            # No placement kept the trail: restart from the root, where the
            # clause (its literals now unassigned or root-false) attaches
            # with the standard level-0 machinery.
            self._cancel_to_root()
        self._attach(ref)
        self._clauses.append(ref)
        if layer is not None:
            layer.clauses.append(ref)
        return True

    def _place_under_trail(self, ref: int) -> bool:
        """Position a new clause's watches under a kept assumption trail
        (the pure-Python mirror of ``place_under_trail`` in ``search.c``).

        Backjumps just far enough that the clause is not conflicting: to
        attach it needs two non-false literals (then it is inert for now);
        a clause that is unit after the backjump is enqueued so the next
        propagation processes it.  Returns ``False`` when only a full
        root restart can place the clause (some literal is false at level
        0 in a way the simplification has not already removed).
        """
        arena = self._arena
        assigns = self._assigns
        levels = self._level
        base = ref + _HDR
        size = arena[ref] >> 2
        while True:
            first = second = -1
            max_level = 0
            for position in range(size):
                ilit = arena[base + position]
                # False: assigned, to the opposite of the literal's sign.
                if assigns[ilit >> 1] == ilit & 1:
                    level = levels[ilit >> 1]
                    if level > max_level:
                        max_level = level
                elif first < 0:
                    first = position
                else:
                    second = position
                    break
            if second >= 0:
                # Two non-false literals: watch them; the clause cannot be
                # unit or conflicting right now.  ``second > first`` always,
                # so the two swaps cannot collide.
                arena[base], arena[base + first] = arena[base + first], arena[base]
                arena[base + 1], arena[base + second] = (
                    arena[base + second],
                    arena[base + 1],
                )
                return True
            if max_level == 0:
                return False
            if first >= 0:
                # Unit under the trail: backtrack to the deepest false level
                # and enqueue there, watching the unit literal and one of the
                # deepest false literals.
                self._cancel_keeping(max_level)
                unit = arena[base + first]
                if self._lit_value(unit) == _UNDEF:
                    if not self._enqueue(unit, ref):  # pragma: no cover
                        return False
                    self._qhead = min(self._qhead, self._trail_len - 1)
                arena[base], arena[base + first] = arena[base + first], arena[base]
                for position in range(1, size):
                    ilit = arena[base + position]
                    if (
                        self._lit_value(ilit) == _FALSE
                        and self._level[ilit >> 1] == max_level
                    ):
                        arena[base + 1], arena[base + position] = (
                            arena[base + position],
                            arena[base + 1],
                        )
                        break
                return True
            # Conflicting: unassign the deepest false literals and retry.
            self._cancel_keeping(max_level - 1)

    def _cancel_keeping(self, level: int) -> None:
        """Backtrack to ``level``, truncating the kept assumption prefix."""
        if self._use_c:
            self._kept_len = min(self._kept_len, level)
        elif level < len(self._kept):
            del self._kept[level:]
        self._cancel_until(level)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add many clauses in order; ``False`` if any made the formula unsat.

        Equivalent to :meth:`add_clause` on each clause in turn, except that
        every variable the batch names is allocated up front.  The batch is
        flattened once and handed to :meth:`add_flat`; with a layer open on
        the C backend each clause is flattened already tagged with the
        layer's ``-selector``, which is how the kernel receives layered
        clauses.  On the C backend the batch is one ``repro_add_clauses``
        call also under a kept assumption trail, where the kernel places
        each clause as :meth:`_place_under_trail` does.
        """
        batch = clauses if isinstance(clauses, list) else list(clauses)
        if not batch:
            return True
        if self._layers and self._kernel_ready():
            tag = (-self._layers[-1].selector,)
            flat = array("l", list(chain.from_iterable(chain(c, tag) for c in batch)))
            ends = array("l", accumulate(len(c) + 1 for c in batch))
            return self._add_clauses_c(flat, ends)
        flat = array("l", list(chain.from_iterable(batch)))
        ends = array("l", accumulate(map(len, batch)))
        return self.add_flat(flat, ends)

    def add_units(self, lits: array) -> bool:
        """Add one unit clause per literal of ``lits`` (an ``array('l')``).

        :meth:`add_clauses` over ``[[lit] for lit in lits]`` without the
        per-clause lists: with a layer open on the C backend the kernel's
        batch — each literal paired with the layer's ``-selector`` — is
        built by two array operations.
        """
        count = len(lits)
        if not count:
            return True
        if self._layers and self._kernel_ready():
            flat = array("l", [-self._layers[-1].selector]) * (2 * count)
            flat[0::2] = lits
            return self._add_clauses_c(flat, array("l", range(2, 2 * count + 1, 2)))
        return self.add_flat(lits, array("l", range(1, count + 1)))

    def add_flat(self, flat: array, ends: array) -> bool:
        """Add clauses given flat: clause ``i`` is ``flat[ends[i-1]:ends[i]]``.

        The flat form of :meth:`add_clauses`, with the same result.  On the
        C backend, with no layer open, one ``repro_add_clauses`` call loads
        the whole batch.  Otherwise the
        per-clause :meth:`add_clause` loop runs after allocating every
        variable the batch names; it is also the pure-Python mirror of the
        kernel.  ``flat`` and ``ends`` are int arrays; the end offsets are
        non-decreasing and the last one is ``len(flat)``.
        """
        if not len(ends):
            return True
        if ends[-1] != len(flat):
            raise ValueError("the last clause end must be the literal count")
        if not self._layers and self._kernel_ready():
            if flat.itemsize != self._arena.itemsize:  # the kernel reads C longs
                flat, ends = array("l", flat), array("l", ends)
            return self._add_clauses_c(flat, ends)
        if flat:
            self.ensure_vars(max(max(flat), -min(flat)))
        ok = True
        start = 0
        for end in ends:
            ok = self.add_clause(flat[start:end]) and ok
            start = end
        return ok

    def _kernel_ready(self) -> bool:
        """Whether ``repro_add_clauses`` may load a batch right now: on the C
        backend while the formula is not known unsatisfiable.  A kept
        assumption trail is no obstacle; the kernel places each clause under
        it as :meth:`add_clause` does."""
        return self._use_c and self._ok

    def _add_clauses_c(self, flat: array, ends: array) -> bool:
        """Load a flattened batch with one ``repro_add_clauses`` call.

        A batch naming unallocated variables costs a second call, after
        :meth:`ensure_vars` has grown every buffer.  The refs of the stored
        clauses join the clause list and, with a layer open, the layer.
        Under a kept assumption trail the kernel may backjump: it reports
        the decision levels, heap size and kept assumption count it left.
        """
        count = len(ends)
        arena = self._arena
        needed = self._arena_len + len(flat) + _HDR * count
        if len(arena) < needed:
            arena.frombytes(bytes((needed - len(arena)) * arena.itemsize))
        refs = array("l", bytes(count * arena.itemsize))
        levels = len(self._trail_lim)
        state = array(
            "l",
            [
                self._qhead,
                self._trail_len,
                self._arena_len,
                0,
                count,
                0,
                0,
                levels,
                0,
                self._kept_len,
            ],
        )
        while True:
            state[6] = self._num_vars
            state[8] = self._order.size  # ensure_vars grows the heap
            self.kernel_calls += 1
            status = self._cadd(
                self._buffers(),
                flat.buffer_info()[0],
                ends.buffer_info()[0],
                refs.buffer_info()[0],
                state.buffer_info()[0],
            )
            if status != _ADD_GROW:
                break
            self.ensure_vars(state[6])
        self._qhead = state[0]
        self._trail_len = state[1]
        self._arena_len = state[2]
        self.stats.propagations += state[3]
        if state[7] < levels:  # the kernel backjumped
            del self._trail_lim[state[7] :]
        self._order.set_size(state[8])
        self._kept_len = state[9]
        stored = refs[: state[5]]
        self._clauses.extend(stored)
        if self._layers:
            self._layers[-1].clauses.extend(stored)
        if status == _ADD_BAD_LITERAL:
            raise ValueError("0 is not a valid literal")
        if status == _ADD_UNSAT:
            self._ok = False
            return False
        return True

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve under the given assumption literals.

        Selectors of the layers currently open via :meth:`push` are assumed
        automatically (so layered clauses are enforced); they may therefore
        show up in :meth:`unsat_core`.

        The assumption decision levels of the previous solve, and their
        propagations, are kept on the trail, and the search resumes from
        the longest prefix the two assumption lists share (see
        :meth:`_solve_python`).  On the C backend that trail keeping runs
        inside ``repro_search``, so a solve is one kernel call unless the
        search leaves for a learnt-database reduction or more room.

        Returns ``True`` if satisfiable (a model is then available through
        :meth:`model_value` / :meth:`get_model`), ``False`` otherwise (an
        assumption core is then available through :meth:`unsat_core`).
        """
        self.stats.solve_calls += 1
        self._model = None
        self._core = None
        if not self._ok:
            self._kept = []
            self._kept_len = 0
            self._core = []
            return False
        if assumptions:
            if 0 in assumptions:
                raise ValueError("0 is not a valid assumption literal")
            self.ensure_vars(max(max(assumptions), -min(assumptions)))
        all_assumptions = [layer.selector for layer in self._layers]
        all_assumptions.extend(assumptions)
        return self._search(all_assumptions)

    def _search(self, assumptions: list[int]) -> bool:
        """Answer one solve under the complete (DIMACS) assumption list."""
        if self._use_c:
            return self._search_c(assumptions)
        return self._solve_python(assumptions)

    def _solve_python(self, all_assumptions: list[int]) -> bool:
        """Trail keeping around :meth:`_search_python` (the mirror of the
        prologue and epilogue of ``repro_search``)."""
        # Trail keeping: reuse the decision levels of the longest assumption
        # prefix shared with the previous solve — their propagations (on
        # trace formulas, most of the circuit) are still on the trail.
        kept = self._kept
        keep = 0
        limit = min(len(kept), len(all_assumptions))
        while keep < limit and kept[keep] == all_assumptions[keep]:
            keep += 1
        # Optimistic full-trail resume: when the assumption list has the
        # same layout and every *changed* assumption already holds on the
        # kept trail, the previous solve's entire trail — free decisions
        # included — remains a plausible starting point.  The answer is
        # only trusted when it is SAT *and* the final assignment satisfies
        # every current assumption (a backjump may unassign a changed slot
        # that no decision level re-pins); anything else is re-derived
        # conservatively from the true shared prefix.
        count = len(all_assumptions)
        optimistic = False
        if keep < count and len(kept) == count:
            optimistic = True
            assigns = self._assigns
            for index in range(keep, count):
                lit = all_assumptions[index]
                # True on the trail: the variable is assigned lit's sign.
                if kept[index] != lit and assigns[abs(lit)] != (lit > 0):
                    optimistic = False
                    break
        self._kept = []
        resumed_full = False
        if keep == limit and len(kept) == count == keep:
            pass  # identical assumptions: resume with the full trail
        elif optimistic:
            resumed_full = True  # changed slots satisfied: resume in place
        else:
            self._cancel_until(keep)
        internal_assumptions = [
            2 * lit if lit > 0 else 1 - 2 * lit for lit in all_assumptions
        ]
        self._search_floor = self._decision_level()
        result = self._search_python(internal_assumptions)
        if resumed_full and (
            not result
            or any(
                self._lit_value(ilit) != _TRUE for ilit in internal_assumptions
            )
        ):
            # The optimistic answer may rest on stale decisions kept from
            # the previous assumption set (UNSAT case) or on a model that
            # silently dropped a changed assumption (SAT case): redo from
            # the true shared prefix.  Only the redo's answer is reported.
            resumed_full = False
            self._model = None
            self._core = None
            self._cancel_until(keep)
            self._search_floor = self._decision_level()
            result = self._search_python(internal_assumptions)
        if result:
            level = self._decision_level()
        else:
            level = min(self._decision_level(), count)
            self._cancel_until(level)
        if resumed_full and result:
            # Levels below the search's lowest backtrack point still hold
            # the previous call's assumption decisions; levels above were
            # re-established from the current list.  Record what is
            # actually on the trail, not the list we were asked for.
            floor = min(self._search_floor, count)
            on_trail = kept[:floor] + all_assumptions[floor:count]
            self._kept = on_trail[: min(level, count)]
        else:
            self._kept = list(all_assumptions[: min(level, count)])
        return result

    @property
    def _kept_assumptions(self) -> list[int]:
        """The (DIMACS) assumption literals whose decision levels the trail
        keeps from the previous solve, on either backend."""
        if not self._use_c:
            return list(self._kept)
        kept = self._kept_buf[: self._kept_len] if self._kept_len else ()
        return [ilit >> 1 if not ilit & 1 else -(ilit >> 1) for ilit in kept]

    def model_value(self, lit: int) -> Optional[bool]:
        """Value of a signed literal in the last model (None if unknown var)."""
        if self._model is None:
            raise RuntimeError("no model available; last solve was UNSAT or never ran")
        var = abs(lit)
        if var > self._num_vars or var >= len(self._model):
            return None
        value = self._model[var]
        if value == _UNDEF:
            return None
        truth = value == _TRUE
        return truth if lit > 0 else not truth

    def get_model(self, complete: bool = False) -> dict[int, bool]:
        """Return the last model as a ``{var: bool}`` dictionary.

        With ``complete=True`` variables the search left unassigned (don't
        cares, or variables allocated after the solve) take their saved
        phase instead of being omitted, yielding a total assignment.
        """
        assigns = self.model_snapshot()
        if not complete:
            return model_from_assignment(assigns)
        model: dict[int, bool] = {}
        for var in range(1, self._num_vars + 1):
            value = assigns[var] if var < len(assigns) else _UNDEF
            if value != _UNDEF:
                model[var] = value == _TRUE
            else:
                model[var] = bool(self._polarity[var])
        return model

    def model_snapshot(self) -> Sequence[int]:
        """The last model's per-variable assignment buffer, read-only.

        Entry ``var`` is ``1`` (true), ``0`` (false) or ``-1`` (left
        unassigned); entry 0 is unused.  Every SAT answer installs a new
        buffer and none is ever written afterwards, so the reference stays a
        snapshot of this solve.  :func:`model_from_assignment` turns it into
        the :meth:`get_model` dictionary.
        """
        if self._model is None:
            raise RuntimeError("no model available; last solve was UNSAT or never ran")
        return self._model

    def falsified_clauses(
        self, clauses: Iterable[Sequence[int]], completions: dict[int, bool]
    ) -> list[int]:
        """Positions of the clauses the last model falsifies.

        A three-valued evaluation read straight from the assignment buffer,
        without building the :meth:`get_model` dictionary.  ``completions``
        overlays values for variables the model left unassigned.  A clause
        that is neither satisfied nor falsified (it has an unassigned
        literal) is a don't-care: its last unassigned literal is set true in
        ``completions``, so later clauses see the completed value.
        """
        model = self.model_snapshot()
        size = len(model)
        falsified: list[int] = []
        for position, lits in enumerate(clauses):
            unassigned = 0
            for lit in lits:
                var = lit if lit > 0 else -lit
                value = model[var] if var < size else _UNDEF
                if value == _UNDEF:
                    truth = completions.get(var)
                    if truth is None:
                        unassigned = lit
                        continue
                else:
                    truth = value == _TRUE
                if truth == (lit > 0):
                    break
            else:
                if unassigned:
                    completions[abs(unassigned)] = unassigned > 0
                else:
                    falsified.append(position)
        return falsified

    def root_value(self, lit: int) -> Optional[bool]:
        """Value of a literal fixed at decision level 0, or ``None``.

        Unlike :meth:`model_value` this does not depend on the last solve:
        it reports only permanent consequences of the clause database (unit
        clauses and their propagations).
        """
        var = lit if lit > 0 else -lit
        if var > self._num_vars:
            return None
        assign = self._assigns[var]
        if assign == _UNDEF or self._level[var] != 0:
            return None
        truth = assign == _TRUE
        return truth if lit > 0 else not truth

    def unsat_core(self) -> list[int]:
        """Subset of the assumptions that is unsatisfiable with the clauses."""
        if self._core is None:
            raise RuntimeError("no core available; last solve was SAT or never ran")
        return list(self._core)

    # --------------------------------------------------------------- layers

    @property
    def num_layers(self) -> int:
        """Number of retractable layers currently open."""
        return len(self._layers)

    def push(self) -> int:
        """Open a retractable clause layer; returns its selector variable.

        Every clause added until the matching :meth:`pop` is tagged with the
        layer's fresh selector and only enforced while the layer is open
        (the selector is assumed automatically by :meth:`solve`).  Layers
        nest LIFO.  Learnt clauses, activities and saved phases acquired
        while the layer is open remain valid after popping.
        """
        self._cancel_to_root()
        selector = self.new_var()
        self._layers.append(_Layer(selector, clause_mark=len(self._clauses)))
        return selector

    def pop(self) -> None:
        """Retract the most recently pushed layer.

        The layer's clauses are detached and the permanent unit clause
        ``-selector`` is added.  Because each retracted clause contained
        ``-selector``, the unit subsumes them all — so every clause learnt
        from them stays implied by the remaining database.  Learnt clauses
        that mention the dead selector are garbage-collected; the rest (the
        reusable program-structure lemmas) survive.
        """
        if not self._layers:
            raise RuntimeError("no layer to pop")
        self._cancel_to_root()
        layer = self._layers.pop()
        # Every problem clause added since the layer opened belongs to it
        # (add_clause tags them all), so the layer's clauses are exactly the
        # tail of the clause list.
        del self._clauses[layer.clause_mark:]
        # Learnt clauses mentioning the dead selector are permanently
        # satisfied once ``-selector`` is fixed; the sweep drops them with
        # the layer so the watch lists do not silt up over a long session.
        # Level-0 propagations may still name a retracted clause as their
        # reason; those reasons are never resolved against again, but the
        # sweep clears them so compaction cannot remap them to a recycled
        # slot (only trail variables have a reason, and the trail is at the
        # root here).
        activity_of = self._activity_of
        for ref in self._sweep(layer.clauses, 2 * layer.selector + 1, self._trail_len):
            activity_of.pop(ref, None)
        self._maybe_compact()
        # The retraction unit is permanent even when outer layers are still
        # open (a popped layer can never be re-entered), so it must bypass
        # the layer tagging of add_clause.
        remaining = self._layers
        self._layers = []
        try:
            self.add_clause([-layer.selector])
        finally:
            self._layers = remaining

    def _cancel_to_root(self) -> None:
        """Backtrack to level 0, giving up any kept assumption trail."""
        self._kept = []
        self._kept_len = 0
        self._cancel_until(0)

    def set_phases(self, lits: Iterable[int]) -> None:
        """Seed the saved phase of variables (warm start).

        The next decision on the variable of each literal of ``lits`` tries
        the literal's sign first; a later literal over the same variable
        wins.  Used to prime the search with the concrete values of a known
        failing execution.  Variables not allocated yet are ignored.
        """
        polarity = self._polarity
        num_vars = self._num_vars
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var <= num_vars:
                polarity[var] = lit > 0

    # ------------------------------------------------------------ internals

    @staticmethod
    def _to_internal(lit: int) -> int:
        var = lit if lit > 0 else -lit
        return 2 * var + (0 if lit > 0 else 1)

    @staticmethod
    def _to_external(ilit: int) -> int:
        var = ilit >> 1
        return var if (ilit & 1) == 0 else -var

    def _lit_value(self, ilit: int) -> int:
        assign = self._assigns[ilit >> 1]
        if assign == _UNDEF:
            return _UNDEF
        return assign ^ (ilit & 1)

    # ------------------------------------------------------- clause storage

    def _alloc(self, lits: Sequence[int], learnt: bool) -> int:
        """Write a clause at the arena's logical end; returns its ref.

        The logical length (:attr:`_arena_len`) may trail the physical
        buffer length: the C search kernel appends learnt clauses into the
        preallocated slack, and compaction rebuilds the buffer exactly.
        """
        arena = self._arena
        ref = self._arena_len
        end = ref + _HDR + len(lits)
        if len(arena) < end:
            if self._use_c:
                arena.frombytes(bytes((end - len(arena)) * arena.itemsize))
            else:
                arena.extend([0] * (end - len(arena)))
        arena[ref] = len(lits) << 2 | (_FLAG_LEARNT if learnt else 0)
        arena[ref + 1] = 0
        arena[ref + 2] = 0
        arena[ref + 3] = 0
        arena[ref + 4] = 0
        index = ref + _HDR
        for lit in lits:
            arena[index] = lit
            index += 1
        self._arena_len = end
        return ref

    def _attach(self, ref: int) -> None:
        """Link the clause's two watch slots into the watcher lists.

        Slot ``s`` watches the literal at position ``s``; its blocker is
        initialised to the other watched literal.
        """
        arena = self._arena
        heads = self._heads
        base = ref + _HDR
        lit0 = arena[base]
        lit1 = arena[base + 1]
        arena[ref + 3] = lit1
        arena[ref + 4] = lit0
        arena[ref + 1] = heads[lit0]
        heads[lit0] = ref << 1
        arena[ref + 2] = heads[lit1]
        heads[lit1] = (ref << 1) | 1

    def _sweep(
        self, kill: Sequence[int], dead_lit: int = 0, trail_count: int = 0
    ) -> list[int]:
        """Retract the attached clauses ``kill`` in one pass; returns the
        learnt clauses retracted with them.

        Each clause is marked dead (its arena span becomes garbage) and both
        watcher lists of every variable it watches are walked once, dropping
        the dead watchers and keeping the live ones in order — the lists a
        clause-by-clause unlink leaves.  A non-zero internal ``dead_lit``
        also retracts every learnt clause naming it, and a trail variable
        among the first ``trail_count`` whose reason was retracted gets
        reason 0.  One ``repro_sweep`` call on the C backend; the loops
        below are its mirror.  Clause activities are the caller's.
        """
        if self._use_c:
            kill = array("l", kill)
            learnts = array("l", self._learnts if dead_lit else ())
            stale = array("l", bytes(len(learnts) * learnts.itemsize))
            state = array("l", [len(kill), len(learnts), dead_lit, trail_count, 0, 0])
            self.kernel_calls += 1
            self._csweep(
                self._buffers(),
                kill.buffer_info()[0],
                learnts.buffer_info()[0],
                stale.buffer_info()[0],
                state.buffer_info()[0],
            )
            self._garbage += state[4]
            if not dead_lit:
                return []
            self._learnts = learnts[: state[1]].tolist()
            return stale[: state[5]].tolist()
        arena = self._arena
        heads = self._heads
        seen = self._seen
        garbage = 0

        def kill_clause(ref: int) -> None:
            nonlocal garbage
            header = arena[ref]
            arena[ref] = header | _FLAG_DEAD
            garbage += (header >> 2) + _HDR
            seen[arena[ref + _HDR] >> 1] = 1
            seen[arena[ref + _HDR + 1] >> 1] = 1

        for ref in kill:
            kill_clause(ref)
        stale: list[int] = []
        if dead_lit:
            kept: list[int] = []
            for ref in self._learnts:
                base = ref + _HDR
                if dead_lit in arena[base : base + (arena[ref] >> 2)]:
                    kill_clause(ref)
                    stale.append(ref)
                else:
                    kept.append(ref)
            self._learnts = kept
        for refs in (kill, stale):
            for ref in refs:
                for slot in (0, 1):
                    var = arena[ref + _HDR + slot] >> 1
                    if not seen[var]:
                        continue
                    seen[var] = 0
                    for lit in (2 * var, 2 * var + 1):
                        prev = -1  # -1: the list head; otherwise an arena index
                        current = heads[lit]
                        while current:
                            link = (current >> 1) + 1 + (current & 1)
                            following = arena[link]
                            if arena[current >> 1] & _FLAG_DEAD:
                                if prev < 0:
                                    heads[lit] = following
                                else:
                                    arena[prev] = following
                            else:
                                prev = link
                            current = following
        reason = self._reason
        trail = self._trail
        for index in range(trail_count):
            var = trail[index] >> 1
            if reason[var] and arena[reason[var]] & _FLAG_DEAD:
                reason[var] = 0
        self._garbage += garbage
        return stale

    def _maybe_compact(self) -> None:
        """Compact the arena when dead clauses dominate it.

        The trigger compares against the *logical* length: the physical
        buffer may carry preallocated slack for the C kernel, and the
        compaction decision must be identical across backends.
        """
        if self._garbage > 16384 and self._garbage * 2 > self._arena_len:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the arena without dead clauses and remap every ref.

        Runs only from safe points (layer pops, learnt-clause reduction),
        never mid-propagation; reasons on the trail are remapped, watcher
        lists are rebuilt.
        """
        old = self._arena
        fresh = array("l", [0]) if self._use_c else [0]
        remap: dict[int, int] = {}
        position = 1
        end = self._arena_len
        while position < end:
            header = old[position]
            size = header >> 2
            if not (header & _FLAG_DEAD):
                remap[position] = len(fresh)
                fresh.append(header)
                fresh.extend((0, 0, 0, 0))
                fresh.extend(old[position + _HDR : position + _HDR + size])
            position += _HDR + size
        self._arena = fresh
        self._arena_len = len(fresh)
        self._garbage = 0
        self._clauses = [remap[ref] for ref in self._clauses]
        self._learnts = [remap[ref] for ref in self._learnts]
        self._activity_of = {
            remap[ref]: activity for ref, activity in self._activity_of.items()
        }
        for layer in self._layers:
            layer.clauses = [remap[ref] for ref in layer.clauses]
        reason = self._reason
        for var in range(1, self._num_vars + 1):
            if reason[var]:
                reason[var] = remap.get(reason[var], 0)
        heads = self._heads
        for index in range(len(heads)):
            heads[index] = 0
        for ref in self._clauses:
            self._attach(ref)
        for ref in self._learnts:
            self._attach(ref)

    # ----------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Assert the solver's core data-structure invariants.

        A debugging aid for tests (the backend differential matrix calls it
        after forced compaction and after C-kernel re-entry), not a hot-path
        check: it walks the whole arena, every watcher list, the trail and
        the order heap in O(arena + vars) and raises ``AssertionError`` on
        the first inconsistency.  Safe to call at any quiescent point (never
        mid-propagation).
        """
        arena = self._arena
        end = self._arena_len
        assert end <= len(arena), (
            f"logical arena length {end} exceeds buffer {len(arena)}"
        )
        # Arena walk: clause spans tile [1, end) exactly and the dead spans
        # sum to the garbage counter.
        live_refs: set[int] = set()
        position = 1
        garbage = 0
        while position < end:
            header = arena[position]
            size = header >> 2
            assert size >= 0 and position + _HDR + size <= end, (
                f"clause at ref {position} overruns the arena"
            )
            if header & _FLAG_DEAD:
                garbage += _HDR + size
            else:
                live_refs.add(position)
            position += _HDR + size
        assert position == end, "arena clause spans do not tile the logical length"
        assert garbage == self._garbage, (
            f"garbage counter {self._garbage} != dead span total {garbage}"
        )
        listed = list(self._clauses) + list(self._learnts)
        listed_set = set(listed)
        assert len(listed) == len(listed_set), "duplicate ref in clause lists"
        assert live_refs <= listed_set, (
            "live arena clause missing from the clause lists"
        )
        # Watcher lists: under each literal, every link names a live clause
        # actually watching that literal in that slot, exactly once; and
        # every live clause of two or more literals is linked in both slots.
        heads = self._heads
        seen_watches: set[tuple[int, int]] = set()
        bound = 2 * len(live_refs) + 1
        for lit in range(2, 2 * self._num_vars + 2):
            current = heads[lit]
            steps = 0
            while current:
                ref = current >> 1
                slot = current & 1
                assert ref in live_refs, (
                    f"watcher of literal {lit} points at dead/unknown ref {ref}"
                )
                assert arena[ref + _HDR + slot] == lit, (
                    f"clause {ref} slot {slot} watches "
                    f"{arena[ref + _HDR + slot]}, linked under {lit}"
                )
                key = (ref, slot)
                assert key not in seen_watches, (
                    f"clause {ref} slot {slot} linked twice"
                )
                seen_watches.add(key)
                current = arena[ref + 1 + slot]
                steps += 1
                assert steps <= bound, f"watcher list of literal {lit} cycles"
        for ref in live_refs:
            if (arena[ref] >> 2) >= 2:
                assert (ref, 0) in seen_watches and (ref, 1) in seen_watches, (
                    f"clause {ref} is live but not linked in both watch slots"
                )
        # Trail and levels: limits are monotone, trail variables are unique
        # and true, and each sits at the decision level of its segment.
        assert 0 <= self._qhead <= self._trail_len, "qhead outside the trail"
        lims = list(self._trail_lim)
        assert lims == sorted(lims) and all(
            0 <= lim <= self._trail_len for lim in lims
        ), f"trail limits {lims} not monotone within the trail"
        if self._use_c and lims:
            # The kernel reads the open levels' bounds from its buffer.
            assert list(self._lim_buf[: len(lims)]) == lims, (
                "trail-limit buffer out of step with the trail limits"
            )
        trail_vars: set[int] = set()
        level = 0
        for index in range(self._trail_len):
            while level < len(lims) and lims[level] <= index:
                level += 1
            ilit = self._trail[index]
            var = ilit >> 1
            assert 1 <= var <= self._num_vars, f"trail literal {ilit} out of range"
            assert var not in trail_vars, f"variable {var} on the trail twice"
            trail_vars.add(var)
            assert self._lit_value(ilit) == _TRUE, (
                f"trail literal at {index} is not satisfied"
            )
            assert self._level[var] == level, (
                f"variable {var} stored at level {self._level[var]}, "
                f"sits in trail segment {level}"
            )
            reason = self._reason[var]
            assert reason == 0 or reason in live_refs, (
                f"variable {var} has dead/unknown reason ref {reason}"
            )
        assigned = {
            var
            for var in range(1, self._num_vars + 1)
            if self._assigns[var] != _UNDEF
        }
        assert assigned == trail_vars, (
            "assignment map and trail disagree: "
            f"{sorted(assigned ^ trail_vars)} in one but not the other"
        )
        for var in range(1, self._num_vars + 1):
            assert var in trail_vars or self._reason[var] == 0, (
                f"variable {var} is off the trail but keeps reason "
                f"{self._reason[var]}"
            )
        # Order heap: position map and storage agree, the max-heap property
        # holds, and every unassigned variable is present (ready to branch).
        heap_buf = self._order.heap_buffer()
        pos_buf = self._order.positions_buffer()
        size = self._order.size
        assert size <= len(heap_buf), "heap size exceeds its storage"
        for index in range(size):
            var = heap_buf[index]
            assert 1 <= var <= self._num_vars, f"heap holds bad variable {var}"
            assert pos_buf[var] == index, (
                f"position map says {pos_buf[var]} for variable {var} at "
                f"heap index {index}"
            )
            if index:
                parent = heap_buf[(index - 1) >> 1]
                assert self._activity[parent] >= self._activity[var], (
                    f"heap property violated at index {index}"
                )
        for var in range(1, self._num_vars + 1):
            pos = pos_buf[var] if var < len(pos_buf) else -1
            if pos >= 0:
                assert pos < size and heap_buf[pos] == var, (
                    f"stale heap position {pos} for variable {var}"
                )
            else:
                assert var in assigned, (
                    f"unassigned variable {var} missing from the order heap"
                )

    # ---------------------------------------------------------- propagation

    def _enqueue(self, ilit: int, reason_ref: int) -> bool:
        value = self._lit_value(ilit)
        if value != _UNDEF:
            return value == _TRUE
        var = ilit >> 1
        self._assigns[var] = (ilit & 1) ^ 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_ref
        self._trail[self._trail_len] = ilit
        self._trail_len += 1
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause ref or ``None``.

        Dispatches to the C core when this solver uses the ``"c"`` backend
        (root-level propagation only: the C search kernel propagates
        inline); the pure-Python loop below implements the identical
        algorithm.
        """
        if self._use_c:
            state = self._state
            state[0] = self._qhead
            state[1] = self._trail_len
            state[2] = len(self._trail_lim)
            state[3] = 0
            self.kernel_calls += 1
            conflict = self._cfn(self._buffers(), state.buffer_info()[0])
            self._qhead = state[0]
            self._trail_len = state[1]
            self.stats.propagations += state[3]
            return conflict if conflict else None
        return self._propagate_python()

    def _propagate_python(self) -> Optional[int]:
        """The pure-Python propagation loop (mirror of ``search.c``).

        Walks the intrusive watcher list of each newly falsified literal:
        a watcher whose cached *blocker* literal is already true is skipped
        without touching the clause body; otherwise the clause either moves
        the watch, keeps it (refreshing the blocker), propagates its other
        watched literal, or reports the conflict.
        """
        arena = self._arena
        heads = self._heads
        assigns = self._assigns
        levels = self._level
        reasons = self._reason
        trail = self._trail
        current_level = len(self._trail_lim)
        qhead = self._qhead
        trail_len = self._trail_len
        propagated = 0
        while qhead < trail_len:
            p = trail[qhead]
            qhead += 1
            propagated += 1
            false_lit = p ^ 1
            prev_link = -1  # -1: the list head; otherwise an arena index
            ptr = heads[false_lit]
            while ptr:
                ref = ptr >> 1
                slot = ptr & 1
                next_link = ref + 1 + slot
                nxt = arena[next_link]
                blocker = arena[ref + 3 + slot]
                bval = assigns[blocker >> 1]
                if bval >= 0 and bval ^ (blocker & 1) == 1:
                    prev_link = next_link
                    ptr = nxt
                    continue
                base = ref + _HDR
                other = arena[base + 1 - slot]
                if other != blocker:
                    oval = assigns[other >> 1]
                    if oval >= 0 and oval ^ (other & 1) == 1:
                        arena[ref + 3 + slot] = other  # refresh the blocker
                        prev_link = next_link
                        ptr = nxt
                        continue
                size = arena[ref] >> 2
                moved = False
                for index in range(base + 2, base + size):
                    lit = arena[index]
                    value = assigns[lit >> 1]
                    if value < 0 or value ^ (lit & 1) == 1:
                        arena[base + slot] = lit
                        arena[index] = false_lit
                        arena[ref + 3 + slot] = other
                        arena[next_link] = heads[lit]
                        heads[lit] = ptr
                        if prev_link < 0:
                            heads[false_lit] = nxt
                        else:
                            arena[prev_link] = nxt
                        moved = True
                        break
                if moved:
                    ptr = nxt
                    continue
                oval = assigns[other >> 1]
                if oval >= 0 and oval ^ (other & 1) == 0:
                    # other is falsified: conflict.
                    self._qhead = trail_len
                    self._trail_len = trail_len
                    self.stats.propagations += propagated
                    return ref
                var = other >> 1
                assigns[var] = (other & 1) ^ 1
                levels[var] = current_level
                reasons[var] = ref
                trail[trail_len] = other
                trail_len += 1
                prev_link = next_link
                ptr = nxt
        self._qhead = qhead
        self._trail_len = trail_len
        self.stats.propagations += propagated
        return None

    # --------------------------------------------------------------- search

    def _new_decision_level(self) -> None:
        self._trail_lim.append(self._trail_len)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        if level < self._search_floor:
            self._search_floor = level
        bound = self._trail_lim[level]
        if self._use_c:
            order = self._order
            self.kernel_calls += 1
            order.set_size(
                self._ccancel(self._buffers(), self._trail_len, bound, order.size)
            )
        else:
            trail = self._trail
            assigns = self._assigns
            polarity = self._polarity
            reason = self._reason
            order_insert = self._order.insert
            for index in range(self._trail_len - 1, bound - 1, -1):
                ilit = trail[index]
                var = ilit >> 1
                assigns[var] = _UNDEF
                polarity[var] = (ilit & 1) == 0
                reason[var] = 0
                order_insert(var)
        self._trail_len = bound
        del self._trail_lim[level:]
        self._qhead = bound

    def _var_bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100
            self._order.rebuild()
        self._order.update(var)

    def _var_decay_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _clause_bump(self, ref: int) -> None:
        activity = self._activity_of.get(ref, 0.0) + self._cla_inc
        self._activity_of[ref] = activity
        if activity > 1e20:
            for learnt in self._activity_of:
                self._activity_of[learnt] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        arena = self._arena
        learnt: list[int] = [0]
        seen = self._seen
        counter = 0
        p = -1
        index = self._trail_len - 1
        current_level = self._decision_level()
        clause = conflict
        while True:
            assert clause != 0
            if arena[clause] & _FLAG_LEARNT:
                self._clause_bump(clause)
            base = clause + _HDR
            for position in range(base, base + (arena[clause] >> 2)):
                q = arena[position]
                if p != -1 and (q >> 1) == (p >> 1):
                    continue
                var = q >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = 1
                    self._var_bump(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self._trail[index] >> 1]:
                index -= 1
            p = self._trail[index]
            var = p >> 1
            clause = self._reason[var]
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learnt[0] = p ^ 1

        # Local (non-recursive) clause minimization over the shared ``seen``
        # buffer: at this point ``seen[var] == 1`` exactly for the variables
        # of ``learnt[1:]`` (the UIP's variable was cleared when it was
        # dequeued, and it cannot occur in the reason of a lower-level
        # literal, so no separate marker set is needed).  A literal is
        # redundant when every other literal of its reason clause is already
        # in the learnt clause or fixed at level 0.
        levels = self._level
        reasons = self._reason
        minimized = [learnt[0]]
        for q in learnt[1:]:
            reason = reasons[q >> 1]
            if not reason:
                minimized.append(q)
                continue
            redundant = True
            base = reason + _HDR
            for position in range(base, base + (arena[reason] >> 2)):
                var = arena[position] >> 1
                if var != (q >> 1) and not seen[var] and levels[var] > 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = 0
        self.stats.analyses += 1
        self.stats.minimized_literals += len(learnt) - len(minimized)
        learnt = minimized

        if len(learnt) == 1:
            backjump = 0
        else:
            max_index = 1
            max_level = levels[learnt[1] >> 1]
            for position in range(2, len(learnt)):
                lvl = levels[learnt[position] >> 1]
                if lvl > max_level:
                    max_level = lvl
                    max_index = position
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backjump = max_level
        return learnt, backjump

    def _analyze_final(self, failed: int) -> list[int]:
        """Compute an assumption core given a falsified assumption literal."""
        core_internal = {failed}
        if self._decision_level() == 0:
            return [self._to_external(lit) for lit in core_internal]
        arena = self._arena
        seen = self._seen
        seen[failed >> 1] = 1
        bound = self._trail_lim[0]
        for index in range(self._trail_len - 1, bound - 1, -1):
            ilit = self._trail[index]
            var = ilit >> 1
            if not seen[var]:
                continue
            reason = self._reason[var]
            if not reason:
                core_internal.add(ilit)
            else:
                base = reason + _HDR
                for position in range(base, base + (arena[reason] >> 2)):
                    qvar = arena[position] >> 1
                    if qvar != var and self._level[qvar] > 0:
                        seen[qvar] = 1
            seen[var] = 0
        seen[failed >> 1] = 0
        return [self._to_external(lit) for lit in core_internal]

    def _pick_branch_literal(self) -> Optional[int]:
        while len(self._order):
            var = self._order.pop_max()
            if self._assigns[var] == _UNDEF:
                self.stats.decisions += 1
                return 2 * var + (0 if self._polarity[var] else 1)
        return None

    def _reduce_db(self) -> None:
        arena = self._arena
        reasons = self._reason
        activity_of = self._activity_of
        learnts = self._learnts
        learnts.sort(key=lambda ref: activity_of.get(ref, 0.0))
        threshold = self._cla_inc / max(len(learnts), 1)
        keep: list[int] = []
        removed: list[int] = []
        half = len(learnts) // 2
        for index, ref in enumerate(learnts):
            base = ref + _HDR
            lit0 = arena[base]
            lit1 = arena[base + 1]
            locked = (
                reasons[lit0 >> 1] == ref and self._lit_value(lit0) == _TRUE
            ) or (reasons[lit1 >> 1] == ref and self._lit_value(lit1) == _TRUE)
            if locked or (arena[ref] >> 2) <= 2:
                keep.append(ref)
            elif index < half or activity_of.get(ref, 0.0) < threshold:
                removed.append(ref)
            else:
                keep.append(ref)
        self._sweep(removed)
        for ref in removed:
            activity_of.pop(ref, None)
        self._learnts = keep
        self.stats.deleted_clauses += len(removed)
        self._maybe_compact()

    @staticmethod
    def _luby(index: int) -> int:
        """The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ... (0-based index)."""
        # Find the finite subsequence containing `index` and its size.
        size, sequence = 1, 0
        while size < index + 1:
            sequence += 1
            size = 2 * size + 1
        while size - 1 != index:
            size = (size - 1) // 2
            sequence -= 1
            index %= size
        return 1 << sequence

    def _search_python(self, assumptions: list[int]) -> bool:
        """The pure-Python search loop (mirror of ``repro_search``)."""
        restart_index = 0
        conflict_budget = 100 * self._luby(restart_index)
        conflicts_since_restart = 0
        max_learnts = max(len(self._clauses) // 3, 2000)
        total_conflicts = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                total_conflicts += 1
                if self.max_conflicts is not None and total_conflicts > self.max_conflicts:
                    self._core = []
                    self._cancel_until(0)
                    raise ConflictBudgetExceeded(
                        f"exceeded conflict budget of {self.max_conflicts}"
                    )
                if self._decision_level() == 0:
                    self._ok = False
                    self._core = []
                    return False
                learnt, backjump_level = self._analyze(conflict)
                self.stats.backjumped_levels += self._decision_level() - backjump_level
                self._cancel_until(max(backjump_level, 0))
                if len(learnt) == 1:
                    self._enqueue(learnt[0], 0)
                else:
                    ref = self._alloc(learnt, learnt=True)
                    self._attach(ref)
                    self._learnts.append(ref)
                    self._clause_bump(ref)
                    self.stats.learnt_clauses += 1
                    self._enqueue(learnt[0], ref)
                self._var_decay_activity()
                self._cla_inc /= self._cla_decay
                continue

            if conflicts_since_restart >= conflict_budget:
                self.stats.restarts += 1
                restart_index += 1
                conflict_budget = 100 * self._luby(restart_index)
                conflicts_since_restart = 0
                # Assumption-aware restart: keep the established assumption
                # levels and their propagations, undoing only the free
                # decisions above them.  The assumption prefix would be
                # re-decided in the same order anyway, and on trace formulas
                # it forces most of the circuit — restarting to level 0
                # would re-propagate tens of thousands of literals per
                # restart.
                self._cancel_until(min(self._decision_level(), len(assumptions)))
                continue

            if len(self._learnts) >= max_learnts + self._trail_len:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.3)

            next_lit: Optional[int] = None
            while self._decision_level() < len(assumptions):
                assumption = assumptions[self._decision_level()]
                value = self._lit_value(assumption)
                if value == _TRUE:
                    self._new_decision_level()
                elif value == _FALSE:
                    self._core = self._analyze_final(assumption)
                    return False
                else:
                    next_lit = assumption
                    break
            if next_lit is None:
                next_lit = self._pick_branch_literal()
                if next_lit is None:
                    self._model = self._assigns[:]
                    return True
            self._new_decision_level()
            self._enqueue(next_lit, 0)

    # ------------------------------------------------------- C search kernel

    def _buffers(self) -> int:
        """The address of the buffer table every C entry point takes.

        A slot is refilled only when its buffer may have moved.  The
        solver's buffers only ever grow, so an unchanged length means an
        unchanged address: the arena slot follows the arena's identity and
        length (compaction replaces it), the per-variable and order-heap
        slots follow the variable count (every per-variable buffer grows
        with it), and :meth:`_ensure_buf` refills the search scratch slots.
        """
        table = self._btable
        arena = self._arena
        if arena is not self._btable_arena or len(arena) != self._btable_arena_len:
            table[_B_ARENA] = arena.buffer_info()[0]
            self._btable_arena = arena
            self._btable_arena_len = len(arena)
        if self._num_vars != self._btable_vars:
            order = self._order
            order.grow_to(self._num_vars)
            for slot, buffer in (
                (_B_HEADS, self._heads),
                (_B_ASSIGNS, self._assigns),
                (_B_LEVELS, self._level),
                (_B_REASONS, self._reason),
                (_B_TRAIL, self._trail),
                (_B_POLARITY, self._polarity),
                (_B_SEEN, self._seen),
                (_B_ACTIVITY, self._activity),
                (_B_HEAP, order.heap_buffer()),
                (_B_HEAP_POS, order.positions_buffer()),
            ):
                table[slot] = buffer.buffer_info()[0]
            self._btable_vars = self._num_vars
        return self._btable_addr

    def _ensure_buf(self, name: str, slot: int, size: int) -> array:
        """A cached ``array('l')`` scratch buffer of at least ``size`` slots,
        entered in buffer-table slot ``slot``.

        A buffer too small is replaced by one with half again the room, so
        a solver whose variable count creeps up does not reallocate on
        every solve.  The replacement starts with the old buffer's words:
        the trail limits and the kept assumptions live on between calls.
        """
        buf = getattr(self, name)
        if buf is None or len(buf) < size:
            grown = array("l", [0]) * max(size + (size >> 1), 16)
            if buf is not None:
                grown[: len(buf)] = buf
            buf = grown
            setattr(self, name, buf)
            self._btable[slot] = buf.buffer_info()[0]
        return buf

    def _search_c(self, assumptions: list[int]) -> bool:
        """Drive one solve through the compiled kernel (the mirror of
        :meth:`_solve_python` around :meth:`_search_python`).

        ``repro_search`` runs the whole solve — the trail keeping against
        the kept assumptions, the inner CDCL loop (propagation, analysis,
        learning, backjumping, VSIDS, restarts, decisions), the re-derive
        of an optimistic answer, and the final backtrack — over the shared
        flat buffers, and returns only for control events.  This driver
        provisions buffer capacity, marshals the search bookkeeping in and
        out through the state array, drains the refs of newly learnt
        clauses, and replays the clause-activity bump log (clause activities
        only influence Python-side database reduction, so the kernel records
        *which* learnt clauses were bumped and Python applies the
        bump/decay/rescale arithmetic — bit-identically, since the log
        preserves execution order).

        Between the calls of one solve only the learnt-database reduction
        runs in Python, and it touches neither the trail nor the order heap
        nor the restart schedule, so those words are written once per solve
        and read back once, at the final exit; per call the driver writes
        only the arena and learnt-database words.  On the C backend the
        first ``len(_trail_lim)`` words of the trail-limit buffer always
        equal :attr:`_trail_lim` (every level is opened by the kernel, and
        Python only ever truncates), so they are never copied in.
        """
        stats = self.stats
        num_vars = self._num_vars
        n_assumptions = len(assumptions)
        state = self._sstate
        floats = self._sfloat
        if (num_vars, n_assumptions) != self._provisioned:
            # A single conflict analysis may allocate one learnt clause of up
            # to num_vars literals, log one bump per resolved clause plus the
            # learnt ref and a decay sentinel, and push one scratch ref.  The
            # kernel re-checks this margin before every analysis and exits
            # with _EXIT_CAPACITY instead of overflowing.
            self._ensure_buf("_scratch_buf", _B_SCRATCH, max(num_vars, 8192))
            self._ensure_buf("_bump_log", _B_BUMPLOG, max(2 * num_vars + 4096, 16384))
            self._ensure_buf("_analyze_buf", _B_TMP, 2 * num_vars + 4)
            self._ensure_buf("_lim_buf", _B_TRAIL_LIM, num_vars + n_assumptions + 2)
            self._ensure_buf("_kept_buf", _B_KEPT, n_assumptions)
            self._ensure_buf("_assump_buf", _B_ASSUMPTIONS, n_assumptions)
            self._provisioned = (num_vars, n_assumptions)
        scratch = self._scratch_buf
        bump_log = self._bump_log
        self._assump_buf[:n_assumptions] = array("l", assumptions)
        state[_S_QHEAD] = self._qhead
        state[_S_TRAIL_LEN] = self._trail_len
        state[_S_LEVELS] = len(self._trail_lim)
        state[_S_HEAP_SIZE] = self._order.size
        state[_S_NUM_VARS] = num_vars
        state[_S_NUM_ASSUMPTIONS] = n_assumptions
        state[_S_MAX_CONFLICTS] = -1 if self.max_conflicts is None else self.max_conflicts
        state[_S_MAX_LEARNTS_INIT] = max(len(self._clauses) // 3, 2000)
        state[_S_KEPT_LEN] = self._kept_len
        state[_S_PHASE] = _PHASE_START
        state[_S_SCRATCH_CAP] = len(scratch)
        state[_S_LOG_CAP] = len(bump_log)
        floats[0] = self._var_inc
        floats[1] = self._var_decay
        state_addr = state.buffer_info()[0]
        floats_addr = floats.buffer_info()[0]

        while True:
            arena = self._arena
            needed = self._arena_len + num_vars + _HDR + 2
            if len(arena) < needed:
                target = max(needed, len(arena) + (len(arena) >> 1))
                arena.frombytes(bytes((target - len(arena)) * arena.itemsize))
            state[_S_ARENA_LEN] = self._arena_len
            state[_S_ARENA_CAP] = len(arena)
            state[_S_LEARNT_COUNT] = len(self._learnts)
            state[_S_SCRATCH_LEN] = 0
            state[_S_LOG_LEN] = 0
            table = self._buffers()
            self.kernel_calls += 1
            started = perf_counter()
            reason = self._csearch(table, state_addr, floats_addr)
            self.kernel_seconds += perf_counter() - started
            self._arena_len = state[_S_ARENA_LEN]
            learnt = state[_S_SCRATCH_LEN]
            if learnt:
                self._learnts.extend(scratch[:learnt])
            for entry in bump_log[: state[_S_LOG_LEN]]:
                if entry:
                    self._clause_bump(entry)
                else:
                    self._cla_inc /= self._cla_decay
            if reason in _EXIT_NAMES:
                self.kernel_exits[_EXIT_NAMES[reason]] += 1
            if reason == _EXIT_REDUCE:
                self._reduce_db()
                state[_S_MAX_LEARNTS] = int(state[_S_MAX_LEARNTS] * 1.3)
            elif reason != _EXIT_CAPACITY:
                break
            # _EXIT_REDUCE and _EXIT_CAPACITY re-enter: the next iteration
            # re-provisions capacity and resumes at the loop top, where an
            # empty propagation queue makes re-entry a no-op.

        # Marshal the kernel's bookkeeping back out.
        self._qhead = state[_S_QHEAD]
        self._trail_len = state[_S_TRAIL_LEN]
        self._trail_lim = self._lim_buf[: state[_S_LEVELS]]
        self._order.set_size(state[_S_HEAP_SIZE])
        self._kept_len = state[_S_KEPT_LEN]
        self._var_inc = floats[0]
        stats.propagations += state[_S_PROPAGATIONS]
        stats.conflicts += state[_S_D_CONFLICTS]
        stats.decisions += state[_S_D_DECISIONS]
        stats.restarts += state[_S_D_RESTARTS]
        stats.learnt_clauses += state[_S_D_LEARNTS]
        stats.analyses += state[_S_D_ANALYSES]
        stats.minimized_literals += state[_S_D_MINIMIZED]
        stats.backjumped_levels += state[_S_D_BACKJUMPED]
        if state[_S_ROOT_UNSAT]:
            # A root conflict ended the optimistic search before its redo.
            self._ok = False
            self._core = []
        if reason == _EXIT_SAT:
            self._model = self._assigns[:]
            return True
        if reason == _EXIT_UNSAT:
            self._ok = False
            self._core = []
            return False
        if reason == _EXIT_ASSUMPTION:
            # The kernel extracted the core: the falsified assumption,
            # then the decisions it wrote to the analysis buffer, added
            # in _analyze_final's order.
            core = {state[_S_EXIT_PAYLOAD]}
            core.update(self._analyze_buf[: state[_S_CORE_LEN]])
            self._core = [self._to_external(lit) for lit in core]
            return False
        if reason == _EXIT_CONFLICT_BUDGET:
            # The kernel has backtracked to the root and dropped the kept
            # assumptions.
            self._core = []
            raise ConflictBudgetExceeded(
                f"exceeded conflict budget of {self.max_conflicts}"
            )
        raise RuntimeError(f"C search kernel returned bad exit {reason}")  # pragma: no cover


def model_from_assignment(assigns: Sequence[int]) -> dict[int, bool]:
    """The ``{var: bool}`` model of an assignment buffer, unassigned omitted."""
    return {
        var: value == _TRUE
        for var, value in enumerate(assigns)
        if var and value != _UNDEF
    }


class ConflictBudgetExceeded(RuntimeError):
    """Raised when ``Solver.max_conflicts`` is exhausted during search."""

