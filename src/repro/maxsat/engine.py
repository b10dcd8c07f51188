"""Shared machinery for the MaxSAT engines.

Every engine lowers the soft clauses to *assumption literals* on a single
incremental :class:`repro.sat.Solver`:

* a unit soft clause ``[l]`` is assumed directly through ``l``;
* a longer soft clause ``c`` receives a fresh selector ``s`` and the hard
  clause ``c or not s``, and is assumed through ``s``;
* identical soft clauses share one binding (and therefore one assumption),
  so duplicates always get the same violation indicator.

Assuming the literal enforces the soft clause; the literal's negation acts
as the clause's *violation indicator* for cardinality constraints.  Cores
returned by the SAT solver are subsets of the assumed literals and map back
to soft-clause bindings.

Engines are **incremental**: :meth:`MaxSatEngine.load` builds the solver
once, :meth:`MaxSatEngine.solve_current` runs the engine's strategy on the
live solver (reusing its clause database, learnt clauses, variable
activities and saved phases), and :meth:`MaxSatEngine.block` retires a
correction set by adding its blocking clause as a hard clause on the *same*
solver — the CoMSS enumeration of Algorithm 1 never rebuilds the instance.
The one-shot :meth:`MaxSatEngine.solve` remains as ``load`` + ``solve_current``.

Engines are additionally **layered**: :meth:`MaxSatEngine.push_layer` opens
a retractable layer on the persistent solver and
:meth:`MaxSatEngine.pop_layer` undoes everything that happened inside it —
hard clauses added through :meth:`MaxSatEngine.add_hard_clauses` (per-test
inputs and specifications), blocking clauses, and soft-clause retirements, whose
bindings are re-activated.  This is what lets a
:class:`~repro.core.session.LocalizationSession` load one whole-program
instance and run the CoMSS enumeration of many failing tests against it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.maxsat.result import MaxSatResult
from repro.maxsat.wcnf import WCNF
from repro.sat import Solver, SolverStats
from repro.sat.solver import model_from_assignment


@dataclass
class _SoftBinding:
    """Book-keeping tying one distinct soft clause to its assumption literal.

    ``indices`` lists every ``wcnf.soft`` position the binding stands for
    (more than one when the instance contains duplicate soft clauses) and
    ``weight`` is their summed weight.  ``position`` is the binding's index
    in the engine's binding list, which is what cores and hitting sets are
    expressed over.
    """

    position: int
    indices: list[int]
    assumption: int
    weight: int
    active: bool = True


@dataclass
class _EngineLayer:
    """Per-layer undo record: retired bindings, forced set, blocking state."""

    retired: list[_SoftBinding] = field(default_factory=list)
    forced: set[int] = field(default_factory=set)
    blocks: int = 0
    block_selector: Optional[int] = None
    #: Solver-statistics snapshot taken when the layer opened, so per-test
    #: benchmark numbers report this layer's work only (not the session's
    #: cumulative counters).
    stats_mark: Optional["SolverStats"] = None
    sat_calls_mark: int = 0
    kernel_exits_mark: dict[str, int] = field(default_factory=dict)
    kernel_seconds_mark: float = 0.0


class MaxSatEngine:
    """Base class: persistent instance state, model evaluation, results."""

    def __init__(self) -> None:
        self.sat_calls = 0
        #: UNSAT answers whose cores the engine's strategy kept (the
        #: hitting-set engine's cores); cumulative, zero for other engines.
        self.cores_found = 0
        self._wcnf: Optional[WCNF] = None
        self._solver: Optional[Solver] = None
        self._bindings: list[_SoftBinding] = []
        self._assumption_to_binding: dict[int, _SoftBinding] = {}
        #: ``wcnf.soft`` position -> the binding standing for it.
        self._binding_of_soft: dict[int, _SoftBinding] = {}
        self._hard_checked = False
        self._hard_ok = False
        self._layers: list[_EngineLayer] = []
        self._layer_forced: set[int] = set()
        self._blocks = 0
        self._block_selector: Optional[int] = None
        self._true_slot = 0

    # -- interface -----------------------------------------------------------

    def solve(self, wcnf: WCNF) -> MaxSatResult:
        """One-shot solve: load the instance and run the engine's strategy."""
        self.load(wcnf)
        return self.solve_current()

    def solve_current(self) -> MaxSatResult:  # pragma: no cover - abstract
        """Solve the currently loaded (possibly blocked) instance."""
        raise NotImplementedError

    def load(self, wcnf: WCNF) -> None:
        """Load the instance into a fresh persistent solver and bind softs.

        Identical soft clauses are deduplicated into a single binding so
        both copies share one assumption literal (and hence one consistent
        violation indicator).  The solver is built under a ``maxsat.load``
        span recording the hard-clause count, their literals and units, the
        root-level propagations and whether the compiled bulk load
        (``path="kernel"``) or the per-clause loop ran.
        """
        with obs.span("maxsat.load") as load_span:
            solver, bindings = self._build_solver(wcnf)
            if obs.current_trace_id() is not None:  # only sized when traced
                ends = wcnf.hard_ends
                lengths = [end - start for start, end in zip(chain((0,), ends), ends)]
                load_span.set(
                    clauses=len(lengths),
                    literals=sum(lengths),
                    units=lengths.count(1),
                    root_propagations=solver.stats.propagations,
                    path="kernel" if solver.backend == "c" else "python",
                )
        self._wcnf = wcnf
        self._solver = solver
        self._bindings = bindings
        self._assumption_to_binding = {b.assumption: b for b in bindings}
        self._binding_of_soft = {
            index: binding for binding in bindings for index in binding.indices
        }
        self._hard_checked = False
        self._hard_ok = False
        self._layers = []
        self._layer_forced = set()
        self._blocks = 0
        self._block_selector = None
        # A root-true literal used as a placeholder assumption: engines keep
        # their assumption lists at a fixed layout (one slot per binding) and
        # put this literal in disabled slots, so the solver's kept trail
        # stays aligned across solves instead of shifting at every retired
        # or excluded binding.
        self._true_slot = solver.new_var()
        solver.add_clause([self._true_slot])
        self._on_load()

    @staticmethod
    def _build_solver(wcnf: WCNF) -> tuple[Solver, list[_SoftBinding]]:
        """A solver holding the hard clauses, plus one binding per soft.

        The hard clauses go to the solver as the WCNF's flat buffers in one
        :meth:`Solver.add_flat` call, then the selector clauses of the
        non-unit softs as one :meth:`Solver.add_clauses` batch, in the order
        clause-at-a-time loading would add them.
        """
        solver = Solver()
        solver.ensure_vars(wcnf.num_vars)
        solver.add_flat(wcnf.hard_lits, wcnf.hard_ends)
        bindings: list[_SoftBinding] = []
        by_clause: dict[tuple[int, ...], _SoftBinding] = {}
        selector_clauses: list[list[int]] = []
        for index, soft in enumerate(wcnf.soft):
            key = tuple(sorted(soft.lits))
            existing = by_clause.get(key)
            if existing is not None:
                existing.indices.append(index)
                existing.weight += soft.weight
                continue
            lits = list(soft.lits)
            if len(lits) == 1:
                assumption = lits[0]
                solver.ensure_vars(abs(assumption))
            else:
                selector = solver.new_var()
                selector_clauses.append(lits + [-selector])
                assumption = selector
            binding = _SoftBinding(len(bindings), [index], assumption, soft.weight)
            by_clause[key] = binding
            bindings.append(binding)
        solver.add_clauses(selector_clauses)
        return solver, bindings

    # -- layers --------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        """Number of retractable layers currently open."""
        return len(self._layers)

    def push_layer(self) -> None:
        """Open a retractable layer on the loaded instance.

        Everything that happens until the matching :meth:`pop_layer` —
        clauses added via :meth:`add_hard_clauses`, blocking clauses and soft
        retirements from :meth:`block`, engine-internal auxiliary clauses —
        is undone by the pop, while learnt clauses, variable activities and
        saved phases of the underlying solver carry over.
        """
        if self._solver is None:
            raise RuntimeError("no instance loaded; call load() first")
        self._solver.push()
        self._layers.append(
            _EngineLayer(
                forced=set(self._layer_forced),
                blocks=self._blocks,
                block_selector=self._block_selector,
                stats_mark=self._solver.stats.snapshot(),
                sat_calls_mark=self.sat_calls,
                kernel_exits_mark=dict(self._solver.kernel_exits),
                kernel_seconds_mark=self._solver.kernel_seconds,
            )
        )
        self._hard_checked = False
        self._on_push()

    def pop_layer(self) -> None:
        """Retract the most recent layer: clauses out, retired softs back in."""
        if not self._layers:
            raise RuntimeError("no layer to pop")
        layer = self._layers.pop()
        self._solver.pop()
        for binding in layer.retired:
            binding.active = True
        self._layer_forced = layer.forced
        self._blocks = layer.blocks
        self._block_selector = layer.block_selector
        self._hard_checked = False
        self._on_pop()

    def add_hard(self, clause: Iterable[int]) -> None:
        """Add one hard clause: :meth:`add_hard_clauses` with one clause."""
        self.add_hard_clauses([clause])

    def add_hard_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add hard clauses to the live solver (layered while a layer is open).

        Used by the session API to assert the per-test input and
        specification units on top of the shared program encoding.  The
        clauses go to :meth:`Solver.add_clauses` as one batch, which on the
        C backend is one kernel call even under an open layer.
        """
        if self._solver is None:
            raise RuntimeError("no instance loaded; call load() first")
        batch = [list(clause) for clause in clauses]
        self._solver.add_clauses(batch)
        for lits in batch:
            if len(lits) == 1:
                # A unit hard clause forces its literal for as long as the
                # current layers live; record it so core bookkeeping
                # (:meth:`_assumption_forced`) sees through the layer
                # selector.
                self._layer_forced.add(lits[0])

    def add_hard_units(self, lits: array) -> None:
        """Add one unit hard clause per literal of ``lits`` (an ``array('l')``).

        :meth:`add_hard_clauses` over ``[[lit] for lit in lits]``, without
        the per-clause lists (:meth:`Solver.add_units`).  This is how the
        session asserts a test's input and specification units.
        """
        if self._solver is None:
            raise RuntimeError("no instance loaded; call load() first")
        self._solver.add_units(lits)
        self._layer_forced.update(lits)

    def set_phases(self, lits: Iterable[int]) -> None:
        """Seed solver phases from literals (warm start from a concrete
        failing trace): see :meth:`Solver.set_phases`."""
        if self._solver is None:
            raise RuntimeError("no instance loaded; call load() first")
        self._solver.set_phases(lits)

    # -- statistics ----------------------------------------------------------

    @property
    def solver_stats(self) -> SolverStats:
        """Cumulative statistics of the engine's persistent solver."""
        if self._solver is None:
            return SolverStats()
        return self._solver.stats

    def layer_stats(self) -> SolverStats:
        """Solver-statistics delta accumulated inside the innermost layer.

        On a long-lived session solver the cumulative counters mix every
        test localized so far; this reports only the work done since the
        innermost :meth:`push_layer`, so per-test benchmark numbers are not
        polluted by earlier tests.  Outside any layer it returns the
        cumulative statistics.
        """
        if self._solver is None:
            return SolverStats()
        if not self._layers or self._layers[-1].stats_mark is None:
            return self._solver.stats.snapshot()
        return self._solver.stats.since(self._layers[-1].stats_mark)

    def layer_sat_calls(self) -> int:
        """SAT calls issued inside the innermost layer (all calls if none)."""
        if not self._layers:
            return self.sat_calls
        return self.sat_calls - self._layers[-1].sat_calls_mark

    def layer_kernel_exits(self) -> dict[str, int]:
        """C search-kernel exits per reason inside the innermost layer.

        All zero on the Python backend; cumulative outside any layer.
        """
        if self._solver is None:
            return {}
        exits = self._solver.kernel_exits
        if not self._layers:
            return dict(exits)
        mark = self._layers[-1].kernel_exits_mark
        return {name: count - mark.get(name, 0) for name, count in exits.items()}

    def layer_kernel_seconds(self) -> float:
        """Wall seconds inside the C search kernel in the innermost layer.

        Zero on the Python backend; cumulative outside any layer.
        """
        if self._solver is None:
            return 0.0
        seconds = self._solver.kernel_seconds
        if not self._layers:
            return seconds
        return seconds - self._layers[-1].kernel_seconds_mark

    def kernel_totals(self) -> tuple[float, int]:
        """Seconds inside the C search kernel and calls into the compiled
        library, cumulative over the loaded solver (zero before a load and
        on the Python backend)."""
        if self._solver is None:
            return 0.0, 0
        return self._solver.kernel_seconds, self._solver.kernel_calls

    def layer_profile(self) -> dict[str, int]:
        """Per-request solver-effort profile of the innermost layer.

        A flat, JSON-friendly view of :meth:`layer_stats` plus the layer's
        SAT-call count — what a serving layer attaches to each localization
        response so clients see the cost of *their* request, not the
        cumulative counters of the warm session answering it.
        """
        stats = self.layer_stats()
        return {
            "sat_calls": self.layer_sat_calls(),
            "propagations": stats.propagations,
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "restarts": stats.restarts,
            "learnt_clauses": stats.learnt_clauses,
        }

    def block(self, falsified: Sequence[int], retire: bool = True) -> None:
        """Block a correction set with a hard clause on the live solver.

        The blocking clause ``beta`` (the disjunction of the correction
        set's soft clauses) becomes hard — on the same solver, so learnt
        clauses, activities and phases carry over to the next
        :meth:`solve_current`.  With ``retire=True`` (lines 13-14 of
        Algorithm 1) the blocked soft clauses also leave the soft set, so
        later solves explore different statements; with ``retire=False``
        they stay soft, which enumerates *all* correction sets in order of
        non-decreasing cost.
        """
        if self._solver is None:
            raise RuntimeError("no instance loaded; call load() first")
        if not falsified:
            # An empty blocking clause would make the solver permanently
            # unsatisfiable; an empty correction set means "nothing to block".
            raise ValueError("cannot block an empty correction set")
        blocked = set(falsified)
        beta: list[int] = []
        beta_seen: set[int] = set()
        for index in sorted(blocked):
            for lit in self._wcnf.soft[index].lits:
                # Deduplicate so a binding standing for several identical
                # unit softs still yields a unit beta (singleton tracking).
                if lit not in beta_seen:
                    beta_seen.add(lit)
                    beta.append(lit)
        # The blocking clause is enforced through an always-assumed selector
        # rather than added verbatim: ``beta or -selector`` has a non-false
        # literal under any kept assumption trail, so blocking never forces
        # the solver back to level 0 (a unit ``beta`` would).  One selector
        # is shared by every blocking clause of the current layer — blocks
        # are only ever retracted together, and a single reusable selector
        # keeps the assumption layout constant across the CoMSS loop.  On the
        # C backend the clause is placed under the kept trail by one
        # ``repro_add_clauses`` call.
        if self._block_selector is None:
            self._block_selector = self._solver.new_var()
        self._solver.add_clauses([beta + [-self._block_selector]])
        self._blocks += 1
        if len(beta) == 1:
            # A singleton blocking clause (CoMSS of one unit soft) forces the
            # retired clause's assumption for as long as the selector is
            # assumed — which is always, within the current layers.
            self._layer_forced.add(beta[0])
        if not retire:
            return
        # The active bindings standing for a blocked soft, in binding order.
        binding_of = self._binding_of_soft
        by_position = {
            binding.position: binding
            for binding in map(binding_of.get, blocked)
            if binding is not None and binding.active
        }
        retired = [by_position[position] for position in sorted(by_position)]
        for binding in retired:
            binding.active = False
        if self._layers:
            self._layers[-1].retired.extend(retired)
        self._on_block(retired)

    # -- engine hooks --------------------------------------------------------

    def _on_load(self) -> None:
        """Reset engine-specific state after a new instance is loaded."""

    def _on_block(self, retired: list[_SoftBinding]) -> None:
        """React to soft clauses being retired by :meth:`block`."""

    def _on_push(self) -> None:
        """Snapshot engine-specific state before a new layer starts."""

    def _on_pop(self) -> None:
        """Restore engine-specific state after a layer is retracted."""

    # -- shared helpers ------------------------------------------------------

    def _active_bindings(self) -> list[_SoftBinding]:
        return [binding for binding in self._bindings if binding.active]

    def _assumption_forced(self, binding: _SoftBinding) -> bool:
        """Is the binding's assumption literal forced by the hard clauses?

        "Forced" means either fixed at the solver's root level or implied by
        a unit clause living in one of the currently open layers (where the
        layer selector hides it from :meth:`Solver.root_value`).
        """
        return (
            self._solver.root_value(binding.assumption) is True
            or binding.assumption in self._layer_forced
        )

    @property
    def _block_assumptions(self) -> list[int]:
        """The always-on assumption enforcing the current blocking clauses."""
        if self._block_selector is None:
            return []
        return [self._block_selector]

    def _solve(self, assumptions: list[int]) -> bool:
        self.sat_calls += 1
        # The blocking selector goes after the caller's assumptions: the
        # binding prefix is the expensive part of the trail and stays
        # reusable.
        return self._solver.solve(assumptions + self._block_assumptions)

    def _hard_clauses_satisfiable(self) -> bool:
        """SAT-check the hard clauses alone, once per loaded instance.

        Blocking clauses added later can only make the hard set unsatisfiable
        in ways the engines' core analysis already detects, so the check is
        not repeated after :meth:`block`.
        """
        if not self._hard_checked:
            self._hard_ok = self._solve([])
            self._hard_checked = True
        return self._hard_ok

    def _readout_bindings(self, model: Sequence[int]) -> list[_SoftBinding]:
        """The bindings whose soft clauses the readout of ``model`` (a
        :meth:`Solver.model_snapshot`) evaluates, in binding order: every
        active one, unless the engine knows which of them can be falsified."""
        return [binding for binding in self._bindings if binding.active]

    def _result_from_model(self) -> MaxSatResult:
        wcnf = self._wcnf
        solver = self._solver
        readout = self._readout_bindings(solver.model_snapshot())
        # Don't-care variables stay unassigned in the partial model; a
        # clause that is still open gets completed in its favour instead
        # of over-counting the cost, and later clauses see the completion.
        completions: dict[int, bool] = {}
        falsified: list[int] = []
        for position in solver.falsified_clauses(
            (wcnf.soft[binding.indices[0]].lits for binding in readout),
            completions,
        ):
            falsified.extend(readout[position].indices)
        falsified.sort()
        cost = sum(wcnf.soft[index].weight for index in falsified)
        labels = [
            wcnf.soft[index].label
            for index in falsified
            if wcnf.soft[index].label is not None
        ]
        return MaxSatResult(
            satisfiable=True,
            cost=cost,
            falsified=falsified,
            falsified_labels=labels,
            sat_calls=self.sat_calls,
            model_source=partial(
                _completed_model, solver.model_snapshot(), completions
            ),
        )

    def _unsatisfiable_result(self) -> MaxSatResult:
        return MaxSatResult(satisfiable=False, sat_calls=self.sat_calls)


def _completed_model(
    assigns: Sequence[int], completions: Mapping[int, bool]
) -> dict[int, bool]:
    """The partial model of a solve snapshot plus its don't-care completions."""
    model = model_from_assignment(assigns)
    model.update(completions)
    return model


def evaluate_clause(
    lits: tuple[int, ...] | list[int], model: dict[int, bool]
) -> bool | int:
    """Three-valued clause evaluation under a possibly partial model.

    Returns ``True`` when some literal is satisfied, ``False`` when every
    literal is falsified, and otherwise one of the *unassigned* literals —
    the clause is then a don't-care that any completion may still satisfy.
    """
    unassigned: int = 0
    for lit in lits:
        value = model.get(abs(lit))
        if value is None:
            unassigned = lit
        elif value == (lit > 0):
            return True
    return unassigned if unassigned else False


def clause_satisfied(
    lits: tuple[int, ...] | list[int], model: dict[int, bool]
) -> bool:
    """Evaluate a clause under a *complete* model.

    For partial models prefer :func:`evaluate_clause`, which reports
    don't-care literals instead of silently treating them as falsified.
    """
    for lit in lits:
        if model.get(abs(lit), False) == (lit > 0):
            return True
    return False
