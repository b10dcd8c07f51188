"""Implicit-hitting-set (MaxHS-style) partial weighted MaxSAT engine.

The engine alternates between two oracles:

1. a SAT oracle solving the hard clauses plus the soft clauses not in the
   current candidate correction set, and
2. an exact minimum-cost hitting-set oracle over the unsatisfiable cores
   collected so far.

When the SAT oracle succeeds, the candidate hitting set is an optimal
correction set (CoMSS) and its cost the MaxSAT optimum.  The approach is
exact for arbitrary positive integer weights, which is what the
loop-iteration localization of Section 5.2 needs.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from repro.maxsat.engine import MaxSatEngine, _SoftBinding
from repro.maxsat.result import MaxSatResult


#: Iteration budget of one :meth:`HittingSetMaxSat.solve_current` call.
MAX_ITERATIONS = 100000


class HittingSetMaxSat(MaxSatEngine):
    """Exact weighted partial MaxSAT via implicit hitting sets.

    The engine is incremental across :meth:`block` calls: cores collected in
    earlier CoMSS iterations stay valid (blocking only *adds* hard clauses)
    and keep seeding the hitting-set oracle.  Cores touching a retired soft
    clause are strengthened when the blocking clause root-forces that
    clause's assumption (singleton CoMSSes) and dropped otherwise.

    Across layers (the session API's per-test push/pop) cores do *not* stay
    valid — they are conditioned on the retracted per-test units — so each
    layer's cores are snapshotted on push and restored on pop.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cores: list[frozenset[int]] = []
        self._core_snapshots: list[list[frozenset[int]]] = []
        self._volatile: set[int] = set()
        self._volatile_order: list[int] = []
        self._slot_cache: Optional[list] = None
        self._last_hitting_set: set[int] = set()

    def _on_load(self) -> None:
        self.cores = []
        self._core_snapshots = []
        self._volatile = set()
        self._volatile_order = []
        self._slot_cache = None
        self._last_hitting_set = set()

    def _slot_order(self) -> list:
        """Bindings in assumption-slot order: stable ones first.

        Positions that ever appeared in a core or were retired (the
        "volatile" slots — exactly the ones the hitting set and the CoMSS
        retirements flip) go last, so a flip invalidates only the short
        tail of the solver's kept assumption trail.  The tail is
        append-only (discovery order, not sorted), so marking a new
        position volatile perturbs the layout at one point instead of
        reshuffling the whole tail.  The set is engine-wide and survives
        layer pops: the next failing test starts with the right layout
        immediately.
        """
        if self._slot_cache is None:
            stable = [b for b in self._bindings if b.position not in self._volatile]
            moving = [self._bindings[position] for position in self._volatile_order]
            self._slot_cache = stable + moving
        return self._slot_cache

    def _mark_volatile(self, positions) -> None:
        for position in positions:
            if position not in self._volatile:
                self._volatile.add(position)
                self._volatile_order.append(position)
                self._slot_cache = None

    def _on_push(self) -> None:
        # Cores found inside a layer are conditioned on the layer's clauses
        # (the per-test units); they become invalid once the layer is popped.
        self._core_snapshots.append(list(self.cores))
        # The tie-breaking hint is per-layer: a stale hitting set from the
        # previous test would drag ties toward its late-enumeration shape.
        self._last_hitting_set = set()

    def _on_pop(self) -> None:
        self.cores = self._core_snapshots.pop()

    def _on_block(self, retired) -> None:
        # A blocked *singleton* CoMSS adds a unit blocking clause, fixing the
        # retired clause's assumption true at the root.  A core containing
        # such a binding is then *strengthened*, not invalidated: from
        # ``hard and a and rest`` UNSAT and ``hard forces a`` follows
        # ``hard and rest`` UNSAT, so the binding is simply removed from the
        # core.  Retirees that are not root-forced (multi-clause CoMSSes)
        # genuinely invalidate their cores, which are dropped — the SAT
        # oracle re-derives whatever conflict remains.
        self._mark_volatile(binding.position for binding in retired)
        forced = {
            binding.position
            for binding in retired
            if self._assumption_forced(binding)
        }
        free = {binding.position for binding in retired} - forced
        strengthened: list[frozenset[int]] = []
        for core in self.cores:
            if core & free:
                continue
            reduced = core - forced
            if reduced:
                # An empty reduction would mean the hard clauses are already
                # unsatisfiable; the next SAT call reports that directly.
                strengthened.append(reduced)
        self.cores = strengthened

    def _readout_bindings(self, model: Sequence[int]) -> list[_SoftBinding]:
        """Only the hitting set's bindings can be falsified.

        Every other active binding was assumed, and an assumed binding's
        soft clause is satisfied by an assigned literal (its assumption, or
        through its hard selector clause), so the full scan would find it
        neither falsified nor open.  That holds on a total model, which
        every SAT answer is; a snapshot with unassigned variables takes the
        full scan.
        """
        if not _is_total(model):
            return super()._readout_bindings(model)
        bindings = self._bindings
        return [
            bindings[position]
            for position in sorted(self._last_hitting_set)
            if bindings[position].active
        ]

    def solve_current(self) -> MaxSatResult:
        # No upfront hard-clause SAT check: the mining loop subsumes it.  An
        # unsatisfiable hard set surfaces as an UNSAT call whose core
        # involves no soft binding, which returns "unsatisfiable" below —
        # and skipping the check saves the one solve per instance that has
        # to complete a full model with every soft clause disabled.
        weights = [binding.weight for binding in self._bindings]
        true_slot = self._true_slot
        for _ in range(MAX_ITERATIONS):
            hitting_set = minimum_cost_hitting_set(
                self.cores, weights, prefer=self._last_hitting_set
            )
            self._last_hitting_set = hitting_set
            # Fixed assumption layout: one slot per binding (stable slots
            # first, volatile last), disabled slots (retired or in the
            # hitting set) hold the root-true placeholder so the solver's
            # kept assumption trail stays aligned across solves.
            assumptions = [
                binding.assumption
                if binding.active and binding.position not in hitting_set
                else true_slot
                for binding in self._slot_order()
            ]
            if self._solve(assumptions):
                return self._result_from_model()
            core = frozenset(
                self._assumption_to_binding[lit].position
                for lit in self._solver.unsat_core()
                if lit in self._assumption_to_binding
                and self._assumption_to_binding[lit].active
            )
            if not core:
                # The conflict does not involve any soft clause: the hard
                # clauses together with already-forced literals are
                # inconsistent, so no correction set exists.
                return self._unsatisfiable_result()
            self.cores.append(core)
            self.cores_found += 1
            self._mark_volatile(core)
        raise RuntimeError("hitting-set MaxSAT did not converge within the iteration budget")


def minimum_cost_hitting_set(
    cores: Sequence[frozenset[int]],
    weights: Sequence[int],
    prefer: Optional[set[int]] = None,
) -> set[int]:
    """Exact minimum-cost hitting set by branch and bound.

    ``cores`` is a collection of sets of soft-clause indices; the result is a
    set of indices intersecting every core with minimum total weight.  The
    number and size of cores produced by trace formulas is small (they
    correspond to candidate bug locations), so an exact exponential search is
    affordable and keeps the engine optimal.

    ``prefer`` breaks ties between equal-weight elements towards members of
    a previous hitting set: optima are often non-unique, and a stable choice
    keeps the SAT solver's assumption trail (which flips one slot per
    hitting-set member) reusable between engine iterations.

    The search is depth-first over the cores from the smallest, trying each
    core's members cheapest first (ties by ``prefer``, then index), and
    keeps the first optimum it meets.  No hitting set costs less than the
    dearest of the cores' cheapest members, so the first set of that cost
    ends the search; a single core is answered by its first member.
    """
    if not cores:
        return set()
    prefer = prefer or set()

    def rank(index: int) -> tuple:
        return (weights[index], index not in prefer, index)

    if len(cores) == 1:
        return {min(cores[0], key=rank)}
    ordered = sorted(cores, key=len)
    candidates = [sorted(core, key=rank) for core in ordered]
    lower_bound = max(weights[members[0]] for members in candidates)
    best_cost = sum(weights[index] for core in ordered for index in core) + 1
    best_set: set[int] = set()
    found = False

    def search(core_position: int, chosen: set[int], cost: int) -> bool:
        """Extend ``chosen``; ``True`` once a set reaches the lower bound."""
        nonlocal best_cost, best_set, found
        if cost >= best_cost and found:
            return False
        while core_position < len(ordered) and ordered[core_position] & chosen:
            core_position += 1
        if core_position == len(ordered):
            if not found or cost < best_cost:
                best_cost = cost
                best_set = set(chosen)
                found = True
            return cost == lower_bound
        for index in candidates[core_position]:
            if found and cost + weights[index] >= best_cost:
                break  # cheapest first: no later member does better
            chosen.add(index)
            done = search(core_position + 1, chosen, cost + weights[index])
            chosen.discard(index)
            if done:
                return True
        return False

    search(0, set(), 0)
    return best_set


def _is_total(model: Sequence[int]) -> bool:
    """Whether a model snapshot assigns every variable (entry 0 is unused)."""
    if isinstance(model, array):  # the C backend's signed-char buffer
        return model.tobytes().find(b"\xff", 1) < 0
    return -1 not in model[1:]
