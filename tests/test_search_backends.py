"""Differential tests: the compiled solver backend versus pure Python.

A solver runs either on the C library (``repro_propagate`` for root-level
propagation, ``repro_search`` for the whole CDCL loop) or on the
pure-Python loops.  Both implement the identical algorithms — first-UIP
conflict analysis with clause learning and seen-buffer minimization,
backjumping, VSIDS bump/decay/rescale, the activity order heap, assumption
handling with core extraction, Luby restarts, decision/conflict budgets,
learnt-database reduction and arena compaction — so a ``Solver(backend=
"python")`` / ``Solver(backend="c")`` pair driven in lockstep must produce
identical SAT/UNSAT answers, models, assumption cores and statistics,
including the analysis counters (``analyses`` / ``minimized_literals`` /
``backjumped_levels``).  The root-level propagation cases of the same
comparison live in ``test_propagation_backends.py`` and share this
module's helpers.

The feature checks run the ``REPRO_BACKEND`` switch in fresh processes:
``python`` and ``c`` pins, rejected values and retired variable names, the
compiler-less ``auto`` fallback, and one TCAS program-mode localization
whose artifact and report bytes must not depend on the switch.

When the C library cannot be built the differential pairs are skipped but
the pure-Python analysis tests (minimization regression, decision-budget
heap regression) still run, which is the feature check's guarantee.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import Solver, _ccore, propagation_backend
from repro.sat.solver import _HDR, SolverStats

#: Whether the compiled library loaded in this environment (not under
#: ``REPRO_BACKEND=python``, nor on a machine without a compiler).
C_AVAILABLE = propagation_backend() == "c"

needs_c = pytest.mark.skipif(
    not C_AVAILABLE, reason="no compiled solver core available in this environment"
)

#: Every constructible solver backend, the pure reference first.
BACKENDS = ("python", "c") if C_AVAILABLE else ("python",)


def _stats_tuple(stats: SolverStats) -> tuple:
    return (
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.restarts,
        stats.learnt_clauses,
        stats.deleted_clauses,
        stats.analyses,
        stats.minimized_literals,
        stats.backjumped_levels,
    )


def _pair() -> list[Solver]:
    """One solver per constructible backend, the pure reference first."""
    return [Solver(backend=backend) for backend in BACKENDS]


def _assert_all_same(solvers: list[Solver], results: list) -> None:
    reference = results[0]
    reference_stats = _stats_tuple(solvers[0].stats)
    for backend, solver, result in zip(BACKENDS[1:], solvers[1:], results[1:]):
        assert result == reference, backend
        assert _stats_tuple(solver.stats) == reference_stats, backend
        if reference:
            assert solver.get_model() == solvers[0].get_model(), backend
        else:
            assert solver.unsat_core() == solvers[0].unsat_core(), backend


def _random_instance(seed: int, num_vars: int, num_clauses: int) -> list[list[int]]:
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 4)
        clause = []
        for _ in range(width):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


def _pigeonhole(solver: Solver, pigeons: int, holes: int) -> None:
    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    for pigeon in range(pigeons):
        solver.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                solver.add_clause([-var(first, hole), -var(second, hole)])


@needs_c
class TestDifferentialMatrix:
    """A python/c solver pair, driven in lockstep."""

    @pytest.mark.parametrize("seed", range(15))
    def test_random_formulas_identical(self, seed):
        clauses = _random_instance(seed, num_vars=14, num_clauses=56)
        solvers = _pair()
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        _assert_all_same(solvers, [solver.solve() for solver in solvers])

    @pytest.mark.parametrize("seed", range(10))
    def test_assumption_cores_identical(self, seed):
        """UNSAT-under-assumptions exercises _analyze_final on both backends."""
        rng = random.Random(7000 + seed)
        clauses = _random_instance(8000 + seed, num_vars=12, num_clauses=52)
        solvers = _pair()
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        saw_unsat = False
        for _ in range(8):
            assumptions = [
                rng.choice([-1, 1]) * rng.randint(1, 12)
                for _ in range(rng.randint(1, 5))
            ]
            results = [solver.solve(list(assumptions)) for solver in solvers]
            _assert_all_same(solvers, results)
            saw_unsat = saw_unsat or not results[0]
        # Every seed's sweep hits at least one UNSAT answer, so core
        # extraction (_analyze_final) really ran on both backends.
        assert saw_unsat

    def test_restart_boundaries_identical(self):
        """Pigeonhole 6/5 needs hundreds of conflicts: restarts must fire."""
        solvers = _pair()
        for solver in solvers:
            _pigeonhole(solver, 6, 5)
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        assert solvers[0].stats.restarts > 0
        # Every conflict is analyzed except a terminal one at level 0.
        assert 0 <= solvers[0].stats.conflicts - solvers[0].stats.analyses <= 1
        assert solvers[0].stats.analyses > 0

    def test_restarts_under_assumptions_identical(self):
        """Assumption-aware restarts keep the assumption prefix on both backends."""
        solvers = _pair()
        for solver in solvers:
            _pigeonhole(solver, 6, 5)
            solver.ensure_vars(35)
            solver.add_clause([31, 32])
        assumptions = [31, -32]
        _assert_all_same(
            solvers, [solver.solve(list(assumptions)) for solver in solvers]
        )
        assert solvers[0].stats.restarts > 0

    def test_clause_activity_rescale_identical(self):
        """A near-threshold _cla_inc forces the 1e20 rescale during replay."""
        solvers = _pair()
        for solver in solvers:
            solver._cla_inc = 1e19
            _pigeonhole(solver, 5, 4)
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        reference = solvers[0]
        for solver in solvers[1:]:
            assert solver._cla_inc == reference._cla_inc
            assert sorted(solver._activity_of.values()) == sorted(
                reference._activity_of.values()
            )

    def test_var_activity_rescale_identical(self):
        """A near-threshold var_inc forces the 1e100 rescale + heap rebuild."""
        solvers = _pair()
        for solver in solvers:
            solver._var_inc = 1e99
            _pigeonhole(solver, 5, 4)
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        reference = solvers[0]
        for solver in solvers[1:]:
            assert solver._var_inc == reference._var_inc
            assert list(solver._activity) == list(reference._activity)

    @pytest.mark.parametrize("seed", range(6))
    def test_push_pop_compaction_identical(self, seed):
        """Layer churn creates arena garbage; compaction must not diverge."""
        rng = random.Random(9000 + seed)
        base = _random_instance(9500 + seed, num_vars=10, num_clauses=24)
        solvers = _pair()
        for solver in solvers:
            for clause in base:
                solver.add_clause(list(clause))
        compacted = False
        for _ in range(12):
            layer_seed = rng.randint(0, 10_000)
            for solver in solvers:
                solver.push()
                for clause in _random_instance(layer_seed, 10, 30):
                    solver.add_clause(list(clause))
            _assert_all_same(solvers, [solver.solve() for solver in solvers])
            for solver in solvers:
                solver.pop()
            compacted = compacted or all(
                solver._garbage == 0 for solver in solvers
            )
            _assert_all_same(solvers, [solver.solve() for solver in solvers])
        # Compaction decisions are made on the logical arena length, so both
        # backends compact in the same pop.
        garbage = {solver._garbage for solver in solvers}
        assert len(garbage) == 1

    def test_forced_compaction_then_search_identical(self):
        """The kernel must re-provision slack after a compaction remap."""
        solvers = _pair()
        for solver in solvers:
            for _ in range(40):
                solver.push()
                for clause in _random_instance(11, 20, 60):
                    solver.add_clause(list(clause))
                solver.solve()
                solver.pop()
            solver._compact()
            assert solver._garbage == 0
            solver.check_invariants()
        clauses = _random_instance(321, num_vars=12, num_clauses=48)
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        for solver in solvers:
            # The compaction remap and the C kernel's re-entry must both
            # leave the arena, watches, trail and order heap consistent.
            solver.check_invariants()

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda backend: f"combo-{backend}")
    def test_invariants_hold_through_search_lifecycle(self, backend):
        """check_invariants passes at every quiescent point of a session."""
        solver = Solver(backend=backend)
        solver.check_invariants()
        for clause in _random_instance(606, num_vars=14, num_clauses=58):
            solver.add_clause(list(clause))
        solver.check_invariants()
        solver.solve()
        solver.check_invariants()
        solver.solve([1, -2, 3])
        solver.check_invariants()
        solver.push()
        for clause in _random_instance(607, num_vars=14, num_clauses=30):
            solver.add_clause(list(clause))
        solver.solve()
        solver.check_invariants()
        solver.pop()
        solver.check_invariants()
        solver._compact()
        solver.check_invariants()
        solver.solve()
        solver.check_invariants()

    def test_conflict_budget_identical(self):
        from repro.sat.solver import ConflictBudgetExceeded

        solvers = _pair()
        outcomes = []
        for solver in solvers:
            _pigeonhole(solver, 6, 5)
            solver.max_conflicts = 50
            try:
                outcomes.append(("done", solver.solve()))
            except ConflictBudgetExceeded:
                outcomes.append(("budget", None))
            finally:
                solver.max_conflicts = None
        assert len(set(outcomes)) == 1
        assert outcomes[0][0] == "budget"
        reference = _stats_tuple(solvers[0].stats)
        for solver in solvers[1:]:
            assert _stats_tuple(solver.stats) == reference

    def test_incremental_blocking_identical(self):
        solvers = _pair()
        clauses = _random_instance(4242, num_vars=10, num_clauses=30)
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        for _ in range(8):
            results = [solver.solve() for solver in solvers]
            _assert_all_same(solvers, results)
            if not results[0]:
                break
            model = solvers[0].get_model()
            blocking = [(-var if value else var) for var, value in model.items()][:10]
            if not blocking:
                break
            for solver in solvers:
                solver.add_clause(list(blocking))

    def test_localization_reports_identical(self, monkeypatch):
        """A full MaxSAT localization is bit-identical across backends."""
        source = (
            "int main(int x) {\n"
            "    int a = x + 1;\n"
            "    int b = a * 2;\n"
            "    int c = b - 3;\n"
            "    return c;\n"
            "}\n"
        )
        _assert_localizations_identical(monkeypatch, source, [5], 0)


def _assert_localizations_identical(monkeypatch, source, inputs, expected) -> None:
    """Localize one trace-mode failure per backend and compare the reports."""
    from repro.core.localizer import BugAssistLocalizer
    from repro.lang import parse_program
    from repro.spec import Specification

    program = parse_program(source, name="backend-diff-check")
    reports = {}
    for backend in BACKENDS:
        # Pin the default every internal Solver() picks up.
        monkeypatch.setattr(_ccore, "backend", lambda choice=backend: choice)
        localizer = BugAssistLocalizer(program, mode="trace")
        reports[backend] = localizer.localize_test(
            inputs, Specification.return_value(expected)
        )
    reference = reports[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        report = reports[backend]
        assert report.lines == reference.lines, backend
        assert report.sat_calls == reference.sat_calls, backend
        assert report.propagations == reference.propagations, backend
        assert report.conflicts == reference.conflicts, backend
        assert [c.lines for c in report.candidates] == [
            c.lines for c in reference.candidates
        ], backend


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=30,
    ),
    st.lists(
        st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0),
        max_size=3,
    ),
)
def test_hypothesis_matrix(clauses, assumptions):
    if not C_AVAILABLE:
        pytest.skip("C search kernel unavailable")
    solvers = _pair()
    for solver in solvers:
        for clause in clauses:
            solver.add_clause(list(clause))
    _assert_all_same(
        solvers, [solver.solve(list(assumptions)) for solver in solvers]
    )


class TestAnalyzeMinimization:
    """The seen-buffer local minimization, pinned on a crafted conflict.

    Level 1 decides x1 and propagates x2 via (¬x1 ∨ x2); level 2 decides x4
    and propagates x5 via (¬x4 ∨ x5) and x6 via (¬x4 ∨ x6).  The conflict
    clause (¬x2 ∨ ¬x5 ∨ ¬x6 ∨ ¬x1) then resolves to the first-UIP clause
    (¬x4 ∨ ¬x2 ∨ ¬x1), in which ¬x2 is redundant: its reason's only other
    literal, ¬x1, is already in the clause.  Minimization must drop exactly
    ¬x2 while leaving the asserting literal (¬x4) and the backjump level
    (1) unchanged.
    """

    def _prepared_solver(self) -> tuple[Solver, list[int]]:
        solver = Solver(backend="python")
        solver.ensure_vars(6)
        assert solver.add_clause([-1, 2])  # reason for x2 @ level 1
        assert solver.add_clause([-4, 5])  # reason for x5 @ level 2
        assert solver.add_clause([-4, 6])  # reason for x6 @ level 2
        assert solver.add_clause([-2, -5, -6, -1])  # the conflict clause
        refs = list(solver._clauses)
        to_internal = solver._to_internal
        solver._new_decision_level()
        assert solver._enqueue(to_internal(1), 0)
        assert solver._enqueue(to_internal(2), refs[0])
        solver._new_decision_level()
        assert solver._enqueue(to_internal(4), 0)
        assert solver._enqueue(to_internal(5), refs[1])
        assert solver._enqueue(to_internal(6), refs[2])
        return solver, refs

    def test_minimization_drops_dominated_literal_only(self):
        solver, refs = self._prepared_solver()
        to_internal = solver._to_internal
        learnt, backjump = solver._analyze(refs[3])
        # Asserting literal (the negated first UIP) and backjump level are
        # exactly what the unminimized clause (¬x4 ∨ ¬x2 ∨ ¬x1) would give.
        assert learnt[0] == to_internal(-4)
        assert backjump == 1
        # ...but the dominated ¬x2 is gone.
        assert sorted(learnt) == sorted([to_internal(-4), to_internal(-1)])
        assert solver.stats.analyses == 1
        assert solver.stats.minimized_literals == 1
        # The shared seen buffer is left clean for the next analysis.
        assert not any(solver._seen)

    def test_decision_literals_survive_minimization(self):
        solver, refs = self._prepared_solver()
        to_internal = solver._to_internal
        learnt, _ = solver._analyze(refs[3])
        # ¬x1 blames a decision (no reason clause): it can never be dropped.
        assert to_internal(-1) in learnt


def _load_batch(seed: int, num_vars: int = 16) -> list[list[int]]:
    """A clause batch exercising every root-level rule of ``add_clause``.

    Units (whose propagation leaves later literals root-true or
    root-false), tautologies, duplicate literals and ordinary clauses; every
    fifth seed also pins two units and then adds a clause of their
    negations, which simplifies to empty.
    """
    rng = random.Random(seed)

    def lit() -> int:
        var = rng.randint(1, num_vars)
        return var if rng.random() < 0.5 else -var

    clauses = []
    for _ in range(40):
        kind = rng.random()
        if kind < 0.12:
            clauses.append([lit()])
        elif kind < 0.22:
            x = lit()
            clauses.append([lit(), x, lit(), -x])
        elif kind < 0.32:
            x = lit()
            clauses.append([x, lit(), x])
        else:
            clauses.append([lit() for _ in range(rng.randint(2, 5))])
    if seed % 5 == 4:
        clauses[20:20] = [[3], [-7], [-3, 7]]
    return clauses


def _loaded_state(solver: Solver) -> tuple:
    """Everything a clause load writes, as plain lists (backend-neutral)."""
    order = solver._order
    return (
        list(solver._arena[: solver._arena_len]),
        list(solver._heads),
        list(solver._assigns),
        list(solver._level),
        list(solver._reason),
        list(solver._trail[: solver._trail_len]),
        solver._qhead,
        list(order.heap_buffer()[: order.size]),
        list(order.positions_buffer()),
        list(solver._clauses),
        solver._ok,
        solver.num_vars,
        solver.stats.max_vars,
        _stats_tuple(solver.stats),
        [
            (layer.selector, layer.clause_mark, list(layer.clauses))
            for layer in solver._layers
        ],
    )


def _batch_max_var(clauses: list[list[int]]) -> int:
    return max((abs(lit) for clause in clauses for lit in clause), default=0)


#: Loaded at the root before a layered batch: two root-true and two
#: root-false variables for the batch to meet, and variables 1-8 allocated,
#: so the layer's selector is variable 9.
_LAYER_BASE = [[1], [-2], [3], [-4], [5, 6, 7, 8]]


def _layered_batch(seed: int) -> list[list[int]]:
    """:func:`_load_batch` with its variables moved past the selector.

    Variables 1-8 keep their numbers (some of them are root-assigned by
    :data:`_LAYER_BASE`); the rest move up by one, past selector 9, and are
    unallocated when the batch is loaded.  Every fifth seed also adds a
    clause of root-false literals, which leaves the unit ``-selector``.
    """
    clauses = [
        [lit + (1 if lit > 8 else -1 if lit < -8 else 0) for lit in clause]
        for clause in _load_batch(seed)
    ]
    if seed % 5 == 3:
        clauses.insert(30, [-1, 2, -3])
    return clauses


class TestBulkLoad:
    """``Solver.add_clauses`` against the per-clause ``add_clause`` loop.

    On the C backend a batch loaded at the root goes through the
    ``repro_add_clauses`` kernel — also under an open layer, with each
    clause tagged by the layer's selector — and the per-clause loop is its
    pure-Python mirror.  Both must leave the identical solver state —
    logical arena, watch heads, assignments, levels, reasons, trail, order
    heap, clause list, layer bookkeeping, ``_ok`` and statistics — and the
    same solve sequence must then give the same models and cores.  The
    bulk side is handed no ``ensure_vars`` (it allocates the batch's
    variables itself); the loop side pre-allocates the same variables.
    """

    @staticmethod
    def _loaded(
        backend: str, clauses: list[list[int]], bulk: bool, layered: bool = False
    ):
        solver = Solver(backend=backend)
        if layered:
            solver.add_clauses(_LAYER_BASE)
            solver.push()
        outcome = None
        if bulk:
            try:
                outcome = solver.add_clauses(clauses)
            except ValueError as error:
                outcome = str(error)
            return solver, outcome
        solver.ensure_vars(_batch_max_var(clauses))
        try:
            outcome = True
            for clause in clauses:
                outcome = solver.add_clause(clause) and outcome
        except ValueError as error:
            outcome = str(error)
        return solver, outcome

    def _assert_same_load(
        self, clauses: list[list[int]], layered: bool = False
    ) -> list[Solver]:
        reference, expected = self._loaded("python", clauses, False, layered)
        reference.check_invariants()
        solvers = [reference]
        for backend in BACKENDS:
            for bulk in (False, True):
                solver, outcome = self._loaded(backend, clauses, bulk, layered)
                assert outcome == expected, (backend, bulk)
                assert _loaded_state(solver) == _loaded_state(reference), (
                    backend,
                    bulk,
                )
                solver.check_invariants()
                solvers.append(solver)
        return solvers

    @pytest.mark.parametrize(
        "seed, layered",
        [pytest.param(seed, False, id=str(seed)) for seed in range(15)]
        + [pytest.param(seed, True, id=f"{seed}-layered") for seed in range(15)],
    )
    def test_random_batches_identical(self, seed, layered, monkeypatch):
        if layered:
            clauses = _layered_batch(seed)
        else:
            clauses = _load_batch(seed)
        solvers = self._assert_same_load(clauses, layered)
        rng = random.Random(500 + seed)
        for _ in range(6):
            assumptions = [
                rng.choice([-1, 1]) * rng.randint(1, 16)
                for _ in range(rng.randint(0, 3))
            ]
            results = [solver.solve(list(assumptions)) for solver in solvers]
            assert len(set(results)) == 1
            reference = solvers[0]
            for solver in solvers[1:]:
                assert _stats_tuple(solver.stats) == _stats_tuple(reference.stats)
                if results[0]:
                    assert solver.get_model() == reference.get_model()
                else:
                    assert solver.unsat_core() == reference.unsat_core()
        if layered:
            for solver in solvers:
                solver.pop()
            for solver in solvers[1:]:
                assert _loaded_state(solver) == _loaded_state(solvers[0])
            for solver in solvers:
                solver.check_invariants()
        # A second batch after the solves meets a kept assumption trail (the
        # per-clause path), and a third one an open layer, which on the C
        # backend still reaches the bulk-load kernel.
        for solver in solvers:
            solver.add_clauses(_load_batch(1000 + seed))
            solver.push()
        reached: list[Solver] = []
        bulk_load = Solver._add_clauses_c

        def recording_bulk_load(solver, flat, ends):
            reached.append(solver)
            return bulk_load(solver, flat, ends)

        monkeypatch.setattr(Solver, "_add_clauses_c", recording_bulk_load)
        expected = [s for s in solvers if s.backend == "c" and s._ok]
        for solver in solvers:
            solver.add_clauses(_load_batch(2000 + seed))
        assert reached == expected
        for solver in solvers[1:]:
            assert _loaded_state(solver) == _loaded_state(solvers[0])
            solver.check_invariants()

    def test_layered_batches_cover_every_rule(self):
        """The layered seeds load units, meet root-true, root-false and
        unallocated variables, and sometimes leave the unit ``-selector``."""
        stored = disabled = 0
        for seed in range(15):
            solver, outcome = self._loaded(
                "python", _layered_batch(seed), bulk=False, layered=True
            )
            assert outcome is True
            selector = solver._layers[-1].selector
            stored += len(solver._layers[-1].clauses)
            disabled += solver.root_value(-selector) is True
            literals = [lit for clause in _layered_batch(seed) for lit in clause]
            assert {1, -1, 2, -2} & set(literals)
            assert max(map(abs, literals)) > selector
        assert stored > 0
        assert 1 <= disabled < 15

    def test_batches_cover_every_rule(self):
        """The seeds above really reach each root-level rule and outcome."""
        propagated = unsat = 0
        for seed in range(15):
            solver, outcome = self._loaded("python", _load_batch(seed), bulk=False)
            propagated += solver.stats.propagations > 0
            unsat += outcome is False
        assert propagated >= 5
        assert 3 <= unsat < 15

    @pytest.mark.parametrize("seed", range(3))
    def test_literal_zero_rejected_identically(self, seed):
        """A literal 0 raises on both paths after the same partial load.

        A clause that is a tautology before its 0 is skipped without
        reaching it, exactly as in ``add_clause``.
        """
        clauses = _load_batch(seed)
        clauses.insert(2, [1, -1, 0])
        clauses.insert(4, [2, 0, 5])
        self._assert_same_load(clauses)
        solver, outcome = self._loaded(BACKENDS[-1], clauses, bulk=True)
        assert outcome == "0 is not a valid literal"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_heap_layout_matches_one_at_a_time(self, backend):
        """ensure_vars grows the order heap exactly as repeated new_var."""
        bulk, single = Solver(backend=backend), Solver(backend=backend)
        for solver in (bulk, single):
            solver.add_clause([1, 2])
            solver.solve()  # bumps activities, so fresh variables sit at 0.0
        bulk.ensure_vars(40)
        while single.num_vars < 40:
            single.new_var()
        assert _loaded_state(bulk) == _loaded_state(single)
        bulk.check_invariants()


def _glue_state(solver: Solver) -> tuple:
    """The loaded state plus what backtracking and detach write."""
    return _loaded_state(solver) + (
        [int(phase) for phase in solver._polarity],
        list(solver._trail_lim),
        list(solver._learnts),
        list(solver._kept_assumptions),
        solver._activity_of,
    )


def _satisfiable_base(seed: int, num_vars: int) -> list[list[int]]:
    """Random clauses of width 2-4 at a low ratio: satisfiable, with room to
    block models and to find UNSAT assumption sets."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(2 * num_vars):
        chosen = rng.sample(range(1, num_vars + 1), rng.randint(2, 4))
        clauses.append([var if rng.random() < 0.5 else -var for var in chosen])
    return clauses


def _pad_learnts(solver: Solver, seed: int, count: int) -> None:
    """Give ``solver`` ``count`` extra learnt clauses implied by its formula.

    Each is a problem clause without root-true literals, with its root-false
    literals dropped and one unassigned literal added, so the database grows
    past the search's ``max_learnts`` budget and the next solve reduces it.
    Written at the root, where every literal of a padded clause is
    unassigned and the watches are sound.
    """
    solver._cancel_to_root()
    rng = random.Random(seed)
    arena = solver._arena
    free = [
        var
        for var in range(1, solver.num_vars + 1)
        if solver.root_value(var) is None
    ]
    bodies = []
    for ref in solver._clauses:
        lits = arena[ref + _HDR : ref + _HDR + (arena[ref] >> 2)]
        values = [solver._lit_value(lit) for lit in lits]
        if 1 not in values:
            body = [lit for lit, value in zip(lits, values) if value == -1]
            if len(body) < len(free):
                bodies.append(body)
    assert bodies
    for _ in range(count):
        body = rng.choice(bodies)
        taken = {lit >> 1 for lit in body}
        var = rng.choice([var for var in free if var not in taken])
        learnt = solver._alloc(body + [2 * var + rng.randint(0, 1)], learnt=True)
        solver._attach(learnt)
        solver._learnts.append(learnt)
        solver._clause_bump(learnt)


@needs_c
class TestTrailGlueLockstep:
    """Backtracking, core extraction and detach, run by the C kernel.

    On the C backend ``repro_cancel`` backs every ``_cancel_until``,
    ``repro_search`` extracts assumption cores itself and ``repro_detach``
    unlinks the clauses that ``pop`` and ``_reduce_db`` drop; the Python
    loops are their mirrors.  A python/c pair is driven through every one
    of these paths and must agree on the whole solver state after each
    step, assumption cores in order.
    """

    NUM_VARS = 20

    @staticmethod
    def _step(solvers: list[Solver], action, solve: bool = False):
        results = [action(solver) for solver in solvers]
        reference = solvers[0]
        for solver, result in zip(solvers[1:], results[1:]):
            assert result == results[0]
            assert _glue_state(solver) == _glue_state(reference)
            if solve and result:
                assert solver.get_model() == reference.get_model()
            elif solve:
                assert solver.unsat_core() == reference.unsat_core()
        for solver in solvers:
            solver.check_invariants()
        return results[0]

    def _solves(self, solvers, rng, rounds, outcomes, block=False) -> None:
        """Solves under drifting assumption lists (``block``: SAT answers
        get blocked)."""
        assumptions: list[int] = []
        for _ in range(rounds):
            kind = rng.random()
            if kind < 0.4 and assumptions:
                # Flip one slot: the prefix before it stays on the trail.
                slot = rng.randrange(len(assumptions))
                assumptions[slot] = -assumptions[slot]
            elif kind < 0.75 and len(assumptions) < 8:
                var = rng.randint(1, self.NUM_VARS)
                assumptions.append(var if rng.random() < 0.5 else -var)
            elif assumptions:
                del assumptions[rng.randrange(len(assumptions)) :]
            current = list(assumptions)
            sat = self._step(
                solvers, lambda solver: solver.solve(current), solve=True
            )
            outcomes.add(sat)
            if sat and block:
                # Block part of the model while its trail is kept: every
                # literal is false there, so the clause goes through
                # _place_under_trail and _cancel_keeping.
                model = solvers[0].get_model()
                picked = rng.sample(sorted(model), min(5, len(model)))
                blocking = [-var if model[var] else var for var in picked]
                self._step(solvers, lambda solver: solver.add_clause(blocking))

    @pytest.mark.parametrize("seed", range(10))
    def test_lockstep_identical(self, seed):
        rng = random.Random(seed)
        solvers = _pair()
        base = _satisfiable_base(100 + seed, self.NUM_VARS)
        self._step(solvers, lambda solver: solver.add_clauses(base))
        outcomes: set = set()
        self._solves(solvers, rng, 10, outcomes)
        # A layer whose solves learn clauses over its selector and block
        # models: pop detaches the layer's clauses and those stale learnts.
        self._step(solvers, lambda solver: solver.push())
        layer = _satisfiable_base(200 + seed, self.NUM_VARS)[:8]
        self._step(solvers, lambda solver: solver.add_clauses(layer))
        self._solves(solvers, rng, 14, outcomes, block=True)
        self._step(solvers, lambda solver: solver.pop())
        # The learnt database overflows: the next solve reduces it.
        self._step(solvers, lambda solver: _pad_learnts(solver, seed, 2100))
        deleted = solvers[0].stats.deleted_clauses
        self._step(solvers, lambda solver: solver.solve(), solve=True)
        assert solvers[0].stats.deleted_clauses > deleted
        assert solvers[1].kernel_exits["reduce"] > 0
        self._solves(solvers, rng, 8, outcomes)
        assert outcomes == {True, False}


class TestSearchFeatureCheck:
    def test_python_search_always_constructible(self):
        solver = Solver(backend="python")
        solver.add_clause([1, 2])
        assert solver.solve()
        assert solver.backend == "python"

    def test_env_pins_pure_python_end_to_end(self):
        """REPRO_BACKEND=python keeps propagation, search and encode interpreted."""
        script = (
            "from repro.sat import propagation_backend, search_backend, Solver\n"
            "from repro.encoding import encode_backend\n"
            "assert propagation_backend() == 'python'\n"
            "assert search_backend() == 'python'\n"
            "assert encode_backend() == 'python'\n"
            "s = Solver()\n"
            "assert s.backend == 'python'\n"
            "s.add_clause([1]); assert s.solve()\n"
            "print('ok')\n"
        )
        result = _run_in_subprocess(script, REPRO_BACKEND="python")
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    @needs_c
    def test_env_requires_c_search(self):
        script = (
            "from repro.sat import propagation_backend, search_backend\n"
            "from repro.encoding import encode_backend\n"
            "assert propagation_backend() == 'c'\n"
            "assert search_backend() == 'c'\n"
            "assert encode_backend() == 'c'\n"
            "print('ok')\n"
        )
        result = _run_in_subprocess(script, REPRO_BACKEND="c")
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "name", ["REPRO_PROPAGATION", "REPRO_SEARCH", "REPRO_ENCODE"]
    )
    def test_retired_variable_rejected(self, name):
        """A stale per-layer setting fails loudly and names REPRO_BACKEND."""
        script = "from repro.sat import Solver\nSolver()\n"
        result = _run_in_subprocess(script, **{name: "python"})
        assert result.returncode != 0
        assert "ValueError" in result.stderr
        assert name in result.stderr and "REPRO_BACKEND" in result.stderr

    def test_unknown_backend_value_rejected(self):
        script = "from repro.encoding import encode_backend\nencode_backend()\n"
        result = _run_in_subprocess(script, REPRO_BACKEND="fortran")
        assert result.returncode != 0
        assert "ValueError" in result.stderr
        assert "REPRO_BACKEND='fortran'" in result.stderr

    def test_compilerless_environment_falls_back(self, tmp_path):
        """With no compiler on PATH, auto degrades to pure Python cleanly.

        The subprocess PATH is a fresh directory holding only a python
        symlink (the interpreter's own bin dir may ship a compiler on
        distro Pythons), and the build cache is redirected to an empty
        directory so a previously compiled artifact cannot mask the
        missing compiler.
        """
        result = _run_in_subprocess(
            "from repro.sat import propagation_backend, search_backend, Solver\n"
            "from repro.sat import propagation_core_unavailable_reason\n"
            "assert propagation_backend() == 'python'\n"
            "assert search_backend() == 'python'\n"
            "assert 'compiler' in propagation_core_unavailable_reason()\n"
            "s = Solver()\n"
            "s.add_clause([1, 2]); s.add_clause([-1, -2]); assert s.solve()\n"
            "print('ok')\n",
            **_compilerless_env(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    def test_compilerless_environment_rejects_c_pin(self, tmp_path):
        """REPRO_BACKEND=c turns a failed build into an error, not a fallback."""
        result = _run_in_subprocess(
            "from repro.sat import Solver\nSolver()\n",
            REPRO_BACKEND="c",
            **_compilerless_env(tmp_path),
        )
        assert result.returncode != 0
        assert "REPRO_BACKEND=c" in result.stderr
        assert "compiler" in result.stderr


#: One TCAS program-mode localization; prints the artifact digest, the
#: canonical report digest and the deterministic effort counters.
_SESSION_SCRIPT = """\
import hashlib
from repro.bmc import dumps_artifact
from repro.core import LocalizationSession, Specification
from repro.serve import canonical_report_bytes
from repro.siemens import classify_tcas_tests, tcas_faulty_program

failing, _ = classify_tcas_tests("v1", count=200)
vector, expected = failing[0]
with LocalizationSession(tcas_faulty_program("v1")) as session:
    report = session.localize(vector.as_list(), Specification.return_value(expected))
    print(hashlib.sha256(dumps_artifact(session.compiled)).hexdigest())
print(hashlib.sha256(canonical_report_bytes(report)).hexdigest())
print(report.sat_calls, report.conflicts, report.propagations)
"""


@pytest.mark.skipif(
    _ccore._find_compiler() is None, reason="no C compiler on this machine"
)
def test_backend_switch_end_to_end_identical():
    """Encode, propagation and search switch together without changing bytes.

    The same TCAS version is compiled and localized through
    :class:`LocalizationSession` once per ``REPRO_BACKEND`` value, each in a
    fresh process under ``PYTHONHASHSEED=0``: the pickled artifact, the
    canonical report and the solver-effort counters must all agree.
    """
    outputs = {}
    for backend in ("python", "c"):
        result = _run_in_subprocess(
            _SESSION_SCRIPT, REPRO_BACKEND=backend, PYTHONHASHSEED="0"
        )
        assert result.returncode == 0, result.stderr
        outputs[backend] = result.stdout.splitlines()
    assert len(outputs["c"]) == 3
    assert outputs["python"] == outputs["c"]


#: One Table 3 trace-mode localization (the row's reduction protocol, then
#: ``localize_trace``); prints the canonical report digest and the
#: engine's solver statistics.  ``NAME`` and ``BUDGET`` are prepended.
_TABLE3_SCRIPT = """\
import hashlib
from repro.concolic import ConcolicTracer
from repro.core import localizer
from repro.reduction import minimize_failing_input, sliced_tracer_settings
from repro.serve import canonical_report_bytes
from repro.siemens.programs import LARGE_BENCHMARKS

benchmark = next(b for b in LARGE_BENCHMARKS if b.name == NAME)
engines = []
make_engine = localizer.make_engine
localizer.make_engine = lambda *args: engines.append(make_engine(*args)) or engines[-1]
faulty = benchmark.faulty_program()
test = list(benchmark.failing_test)
if "D" in benchmark.reduction:
    test = minimize_failing_input(test, benchmark.fails)
settings = sliced_tracer_settings(faulty) if "S" in benchmark.reduction else {}
concrete = set(settings.get("concrete_functions", ()))
if "C" in benchmark.reduction:
    concrete |= set(benchmark.concretize)
formula = ConcolicTracer(
    faulty,
    relevant_lines=settings.get("relevant_lines"),
    concrete_functions=concrete,
).trace(test, benchmark.specification(tuple(test)))
report = localizer.BugAssistLocalizer(
    faulty, mode="trace", max_candidates=BUDGET
).localize_trace(formula)
assert report.candidates
print(hashlib.sha256(canonical_report_bytes(report)).hexdigest())
print(engines[0].solver_stats)
"""


@pytest.mark.parametrize("name, budget", [("schedule2", 8), ("tot_info", 1)])
def test_table3_trace_formulas_identical_across_backends(name, budget):
    """The Table 3 trace formulas load and localize identically per backend.

    schedule2 and tot_info (about 96k clauses, most of them hard) go
    through the bulk clause load on the C backend and the per-clause loop
    on the Python one; the canonical report bytes and the engine's
    ``SolverStats`` must agree.  tot_info's CoMSS budget is 1 to keep the
    pure-Python search short.  Without a compiler only the Python side
    runs.
    """
    script = f"NAME, BUDGET = {name!r}, {budget}\n" + _TABLE3_SCRIPT
    backends = ["python"]
    if _ccore._find_compiler() is not None:
        backends.append("c")
    outputs = {}
    for backend in backends:
        result = _run_in_subprocess(script, REPRO_BACKEND=backend)
        assert result.returncode == 0, result.stderr
        outputs[backend] = result.stdout.splitlines()
        assert len(outputs[backend]) == 2
    assert all(output == outputs["python"] for output in outputs.values())


def _compilerless_env(tmp_path) -> dict:
    """PATH holding only a python symlink, and an empty build cache."""
    bare_bin = tmp_path / "bare-bin"
    bare_bin.mkdir()
    (bare_bin / os.path.basename(sys.executable)).symlink_to(sys.executable)
    return {
        "PATH": str(bare_bin),
        "REPRO_SAT_BUILD_DIR": str(tmp_path / "empty-cache"),
    }


def _run_in_subprocess(script: str, **env_overrides: str):
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env.update(env_overrides)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
