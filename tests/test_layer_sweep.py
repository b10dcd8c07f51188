"""The one-sweep clause retraction behind ``Solver.pop`` and ``_reduce_db``.

``Solver._sweep`` retracts a batch of clauses in one pass: it marks them
dead (on a layer pop also every learnt clause naming the dead selector),
walks both watcher lists of each affected variable once, dropping the dead
watchers, and clears the root reasons that named a retracted clause.  On
the C backend that is one ``repro_sweep`` call; the Python loops are its
mirror.  A python/c solver pair must agree on the whole state after each
pop and reduction — arena, watch heads, learnts, reasons, garbage count —
and on the models and cores of the solves that follow.

The clause-by-clause detach the sweep replaced is kept here as the
reference oracle: it must leave the same watcher lists, reasons, learnts
and garbage count.  Only the link words of the dead clauses may differ
(nothing reads them, and compaction drops them).
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.sat import Solver
from repro.sat.solver import _FLAG_DEAD, _HDR

from test_search_backends import (
    BACKENDS,
    _glue_state,
    _pad_learnts,
    _pair,
    _random_instance,
    _satisfiable_base,
    _stats_tuple,
    needs_c,
)


def _swept_state(solver: Solver) -> tuple:
    return _glue_state(solver) + (solver._garbage,)


def _masked_state(solver: Solver) -> tuple:
    """:func:`_swept_state` with the link words of dead clauses zeroed."""
    arena = list(solver._arena[: solver._arena_len])
    position = 1
    while position < len(arena):
        header = arena[position]
        if header & _FLAG_DEAD:
            arena[position + 1] = arena[position + 2] = 0
        position += _HDR + (header >> 2)
    return (arena,) + _swept_state(solver)[1:]


def _assert_same_state(solvers: list[Solver]) -> None:
    reference = _swept_state(solvers[0])
    for solver in solvers[1:]:
        assert _swept_state(solver) == reference, solver.backend
    for solver in solvers:
        solver.check_invariants()


def _assert_same_solve(solvers: list[Solver], assumptions=()) -> bool:
    """Solve every solver; answers, statistics and models (read every way)
    or cores must agree."""
    results = [solver.solve(list(assumptions)) for solver in solvers]
    assert len(set(results)) == 1
    reference = solvers[0]
    for solver in solvers[1:]:
        assert _stats_tuple(solver.stats) == _stats_tuple(reference.stats)
        if not results[0]:
            assert solver.unsat_core() == reference.unsat_core()
            continue
        assert list(solver.model_snapshot()) == list(reference.model_snapshot())
        assert solver.get_model() == reference.get_model()
        assert solver.get_model(complete=True) == reference.get_model(complete=True)
        for var in range(1, solver.num_vars + 2):
            for lit in (var, -var):
                assert solver.model_value(lit) == reference.model_value(lit)
    return results[0]


def _detach_sequentially(solver: Solver, refs) -> None:
    """Unlink each clause's two watch slots, clause by clause."""
    arena, heads = solver._arena, solver._heads
    for ref in refs:
        for slot in (0, 1):
            target = (ref << 1) | slot
            lit = arena[ref + _HDR + slot]
            if heads[lit] == target:
                heads[lit] = arena[ref + 1 + slot]
                continue
            current = heads[lit]
            while current:
                link = (current >> 1) + 1 + (current & 1)
                if arena[link] == target:
                    arena[link] = arena[ref + 1 + slot]
                    break
                current = arena[link]


def _free(solver: Solver, ref: int) -> None:
    header = solver._arena[ref]
    solver._arena[ref] = header | _FLAG_DEAD
    solver._activity_of.pop(ref, None)
    solver._garbage += (header >> 2) + _HDR


def _pop_sequentially(solver: Solver) -> None:
    """The clause-by-clause ``pop`` the sweep replaced."""
    solver._cancel_to_root()
    layer = solver._layers.pop()
    removed = set(layer.clauses)
    _detach_sequentially(solver, layer.clauses)
    for ref in layer.clauses:
        _free(solver, ref)
    del solver._clauses[layer.clause_mark :]
    dead_lit = 2 * layer.selector + 1
    arena = solver._arena
    stale = [
        ref
        for ref in solver._learnts
        if dead_lit in arena[ref + _HDR : ref + _HDR + (arena[ref] >> 2)]
    ]
    _detach_sequentially(solver, stale)
    for ref in stale:
        _free(solver, ref)
        removed.add(ref)
    solver._learnts = [ref for ref in solver._learnts if ref not in removed]
    for index in range(solver._trail_len):
        var = solver._trail[index] >> 1
        if solver._reason[var] in removed:
            solver._reason[var] = 0
    solver._maybe_compact()
    remaining, solver._layers = solver._layers, []
    solver.add_clause([-layer.selector])
    solver._layers = remaining


def _drift_solves(solvers, rng, rounds, num_vars, block=False) -> set:
    """Solves under drifting assumptions; ``block`` adds a clause against
    part of each model while its trail is kept."""
    outcomes = set()
    assumptions: list[int] = []
    for _ in range(rounds):
        if assumptions and rng.random() < 0.4:
            slot = rng.randrange(len(assumptions))
            assumptions[slot] = -assumptions[slot]
        elif len(assumptions) < 6:
            var = rng.randint(1, num_vars)
            assumptions.append(var if rng.random() < 0.5 else -var)
        sat = _assert_same_solve(solvers, assumptions)
        outcomes.add(sat)
        if sat and block:
            model = solvers[0].get_model()
            picked = rng.sample(sorted(model), min(4, len(model)))
            blocking = [-var if model[var] else var for var in picked]
            for solver in solvers:
                solver.add_clause(blocking)
    return outcomes


def _three_sat(seed: int, num_vars: int, count: int) -> list[list[int]]:
    """Random clauses of exactly three distinct variables."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(count):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([var if rng.random() < 0.5 else -var for var in chosen])
    return clauses


def _selector_learnts(solver: Solver) -> int:
    """Learnt clauses naming the innermost layer's dead selector literal."""
    dead_lit = 2 * solver._layers[-1].selector + 1
    arena = solver._arena
    return sum(
        dead_lit in arena[ref + _HDR : ref + _HDR + (arena[ref] >> 2)]
        for ref in solver._learnts
    )


@needs_c
class TestSweepDifferential:
    """A python/c pair through every retraction the sweep performs."""

    NUM_VARS = 24

    @pytest.mark.parametrize("seed", range(8))
    def test_pop_drops_learnts_naming_the_selector(self, seed):
        rng = random.Random(seed)
        solvers = _pair()
        for solver in solvers:
            solver.add_clauses(_satisfiable_base(300 + seed, self.NUM_VARS))
        _drift_solves(solvers, rng, 6, self.NUM_VARS)
        for solver in solvers:
            solver.push()
            solver.add_clauses(_three_sat(400 + seed, self.NUM_VARS, 60))
        _drift_solves(solvers, rng, 12, self.NUM_VARS, block=True)
        stale = _selector_learnts(solvers[0])
        for solver in solvers:
            solver.pop()
        _assert_same_state(solvers)
        if stale:
            assert len(solvers[0]._learnts) < solvers[0].stats.learnt_clauses
        _drift_solves(solvers, rng, 6, self.NUM_VARS)
        _assert_same_state(solvers)

    def test_seeds_learn_clauses_naming_the_selector(self):
        """The layers above really leave learnts over their selector."""
        found = 0
        for seed in range(8):
            rng = random.Random(seed)
            solver = Solver(backend="python")
            solver.add_clauses(_satisfiable_base(300 + seed, self.NUM_VARS))
            _drift_solves([solver], rng, 6, self.NUM_VARS)
            solver.push()
            solver.add_clauses(_three_sat(400 + seed, self.NUM_VARS, 60))
            _drift_solves([solver], rng, 12, self.NUM_VARS, block=True)
            found += _selector_learnts(solver) > 0
        assert found >= 6

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_layers(self, seed):
        rng = random.Random(50 + seed)
        solvers = _pair()
        for solver in solvers:
            solver.add_clauses(_satisfiable_base(500 + seed, self.NUM_VARS))
        for depth in range(3):
            for solver in solvers:
                solver.push()
                solver.add_clauses(
                    _random_instance(600 + 10 * seed + depth, self.NUM_VARS, 30)
                )
            _drift_solves(solvers, rng, 5, self.NUM_VARS, block=True)
        for _ in range(3):
            for solver in solvers:
                solver.pop()
            _assert_same_state(solvers)
            _drift_solves(solvers, rng, 3, self.NUM_VARS)

    def test_pop_that_compacts(self):
        """A layer large enough that its garbage triggers compaction."""
        solvers = _pair()
        for solver in solvers:
            solver.add_clauses(_satisfiable_base(700, self.NUM_VARS))
            solver.push()
            solver.add_clauses(_random_instance(701, 400, 4000))
        _assert_same_solve(solvers)
        for solver in solvers:
            length = solver._arena_len
            solver.pop()
            assert solver._garbage == 0 and solver._arena_len < length // 4
        _assert_same_state(solvers)
        _drift_solves(solvers, random.Random(7), 6, self.NUM_VARS)

    def test_twenty_thousand_clause_layer(self):
        """Every clause of a unit layer watches ``-selector``: a large one."""
        rng = random.Random(11)
        num_vars = 10_000
        model = [rng.random() < 0.5 for _ in range(num_vars + 1)]
        units = [var if model[var] else -var for var in range(1, num_vars + 1)]
        binaries = []
        for _ in range(10_000):
            a, b = rng.sample(range(1, num_vars + 1), 2)
            # The first literal agrees with the model: satisfiable.
            binaries.append([a if model[a] else -a, -b if rng.random() < 0.5 else b])
        solvers = _pair()
        for solver in solvers:
            solver.ensure_vars(num_vars)
            solver.push()
            solver.add_clauses(binaries)
            solver.add_units(array("l", units))
            assert len(solver._layers[-1].clauses) == 20_000
        assert _assert_same_solve(solvers)
        for solver in solvers:
            solver.pop()
        _assert_same_state(solvers)
        assert _assert_same_solve(solvers, [1, -2])

    @pytest.mark.parametrize("seed", range(3))
    def test_reduce_db_through_the_sweep(self, seed):
        solvers = _pair()
        for solver in solvers:
            solver.add_clauses(_satisfiable_base(800 + seed, self.NUM_VARS))
        _drift_solves(solvers, random.Random(seed), 4, self.NUM_VARS)
        for solver in solvers:
            _pad_learnts(solver, seed, 2100)
        deleted = solvers[0].stats.deleted_clauses
        _assert_same_solve(solvers)
        assert solvers[0].stats.deleted_clauses > deleted
        assert solvers[1].kernel_exits["reduce"] > 0
        _assert_same_state(solvers)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSweepAgainstSequentialDetach:
    """The sweep leaves what the clause-by-clause detach left."""

    NUM_VARS = 20

    def _twins(self, backend: str, seed: int) -> list[Solver]:
        """Two solvers driven identically into an open layer."""
        twins = []
        for _ in range(2):
            solver = Solver(backend=backend)
            solver.add_clauses(_satisfiable_base(900 + seed, self.NUM_VARS))
            twins.append(solver)
        rng = random.Random(seed)
        _drift_solves(twins, rng, 4, self.NUM_VARS)
        for solver in twins:
            solver.push()
            solver.add_clauses(_three_sat(950 + seed, self.NUM_VARS, 50))
        _drift_solves(twins, rng, 10, self.NUM_VARS, block=True)
        return twins

    @pytest.mark.parametrize("seed", range(6))
    def test_pop(self, backend, seed):
        swept, sequential = self._twins(backend, seed)
        swept.pop()
        _pop_sequentially(sequential)
        assert _masked_state(swept) == _masked_state(sequential)
        swept.check_invariants()
        _drift_solves([swept, sequential], random.Random(seed), 4, self.NUM_VARS)

    def test_reduce_db(self, backend):
        swept, sequential = self._twins(backend, 0)
        for solver in (swept, sequential):
            solver._cancel_to_root()
            _pad_learnts(solver, 3, 300)
        removed = set(swept._learnts)
        swept._reduce_db()
        removed -= set(swept._learnts)
        assert removed
        # The reference reduction: same victims, detached one by one.
        order = sorted(
            sequential._learnts, key=lambda ref: sequential._activity_of.get(ref, 0.0)
        )
        _detach_sequentially(sequential, [ref for ref in order if ref in removed])
        for ref in order:
            if ref in removed:
                _free(sequential, ref)
        sequential._learnts = [ref for ref in order if ref not in removed]
        sequential.stats.deleted_clauses += len(removed)
        sequential._maybe_compact()
        assert _masked_state(swept) == _masked_state(sequential)
        swept.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
def test_model_snapshot_outlives_later_solves(backend):
    """A SAT answer's snapshot is a copy: later solves do not touch it."""
    solver = Solver(backend=backend)
    solver.add_clauses(_satisfiable_base(1000, 16))
    assert solver.solve()
    first = solver.model_snapshot()
    frozen = list(first)
    model = solver.get_model()
    flipped = [-var if value else var for var, value in sorted(model.items())[:4]]
    solver.solve(flipped)
    assert list(first) == frozen
    assert model == {
        var: value == 1 for var, value in enumerate(frozen) if var and value >= 0
    }
