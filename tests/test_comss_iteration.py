"""One CoMSS iteration: hitting set, solve, readout, blocking clause.

Each iteration of the CoMSS loop (``run_comss_loop``) asks the hitting-set
engine for a minimum-cost hitting set of its cores, solves with the other
bindings assumed, reads the correction set back from the model and blocks
it with a clause added under the solver's kept assumption trail.  On the C
backend the trail keeping of a solve runs inside ``repro_search`` and the
placement of a clause under the kept trail inside ``repro_add_clauses``;
the Python loops (``Solver._solve_python``, ``Solver._place_under_trail``)
are their mirrors.  The groups below check each piece against its
reference:

* ``minimum_cost_hitting_set`` against the plain branch and bound it
  replaced, kept here as the oracle;
* the hitting-set readout of ``_result_from_model`` against the scan over
  every active binding, on both backends, total and partial models;
* python/c solver pairs adding a clause under a kept trail, in each
  placement case, then solving on;
* python/c solver pairs through ``Solver.solve`` in each trail-keeping case.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.maxsat import HittingSetMaxSat, WCNF
from repro.maxsat.engine import _completed_model
from repro.maxsat.hitting_set import minimum_cost_hitting_set
from repro.sat import Solver, _ccore, propagation_backend

C_AVAILABLE = propagation_backend() == "c"

needs_c = pytest.mark.skipif(
    not C_AVAILABLE, reason="no compiled solver core available in this environment"
)

#: Every constructible solver backend, the pure reference first.
BACKENDS = ("python", "c") if C_AVAILABLE else ("python",)


# ------------------------------------------------------------ hitting sets


def _reference_hitting_set(
    cores: Sequence[frozenset[int]],
    weights: Sequence[int],
    prefer: Optional[set[int]] = None,
) -> set[int]:
    """The branch and bound as it stood before the lower bound and the
    one-core answer: every node sorts its core's candidates afresh and the
    search runs to exhaustion."""
    if not cores:
        return set()
    ordered = sorted(cores, key=len)
    best_cost = [sum(weights[index] for core in ordered for index in core) + 1]
    best_set: list[set[int]] = [set()]
    found = [False]
    prefer = prefer or set()

    def search(core_position: int, chosen: set[int], cost: int) -> None:
        if cost >= best_cost[0] and found[0]:
            return
        while core_position < len(ordered) and ordered[core_position] & chosen:
            core_position += 1
        if core_position == len(ordered):
            if not found[0] or cost < best_cost[0]:
                best_cost[0] = cost
                best_set[0] = set(chosen)
                found[0] = True
            return
        candidates = sorted(
            ordered[core_position],
            key=lambda index: (weights[index], index not in prefer, index),
        )
        for index in candidates:
            chosen.add(index)
            search(core_position + 1, chosen, cost + weights[index])
            chosen.discard(index)

    search(0, set(), 0)
    return best_set[0]


POSITIONS = 12


@st.composite
def _hitting_instances(draw):
    cores = draw(
        st.lists(
            st.frozensets(
                st.integers(0, POSITIONS - 1), min_size=1, max_size=POSITIONS
            ),
            max_size=6,
        )
    )
    weights = draw(
        st.lists(st.integers(1, 3), min_size=POSITIONS, max_size=POSITIONS)
    )
    prefer = draw(st.sets(st.integers(0, POSITIONS - 1)))
    return cores, weights, prefer


class TestHittingSet:
    @settings(max_examples=400, deadline=None)
    @given(_hitting_instances())
    def test_same_set_as_the_reference(self, instance):
        cores, weights, prefer = instance
        result = minimum_cost_hitting_set(cores, weights, prefer=prefer)
        assert result == _reference_hitting_set(cores, weights, prefer)
        assert all(core & result for core in cores)

    def test_single_core_prefers_then_lowest_index(self):
        core = [frozenset({5, 2, 9, 7})]
        assert minimum_cost_hitting_set(core, [1] * 10) == {2}
        assert minimum_cost_hitting_set(core, [1] * 10, prefer={9, 7}) == {7}
        weights = [1] * 10
        weights[2] = weights[7] = 3
        assert minimum_cost_hitting_set(core, weights) == {5}
        assert minimum_cost_hitting_set(core, weights, prefer={2, 9}) == {9}

    def test_first_optimum_in_search_order(self):
        """A set at the lower bound (the dearest core's cheapest member)
        ends the search; below it the first optimum found is kept."""
        shared = [frozenset({0, 3}), frozenset({0, 4}), frozenset({0, 1, 2})]
        assert minimum_cost_hitting_set(shared, [1] * 5) == {0}
        cores = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3, 4})]
        weights = [1, 2, 1, 3, 3]
        # Bound 3, optimum 5: {0, 2, 3} is met before {1, 3}.
        expected = _reference_hitting_set(cores, weights)
        assert minimum_cost_hitting_set(cores, weights) == expected == {0, 2, 3}


# ----------------------------------------------------------------- readout


def _random_wcnf(seed: int, num_vars: int = 12) -> WCNF:
    """A satisfiable random instance: binary and ternary hard clauses at a
    low ratio, unit and wider weighted soft clauses, some labelled, some
    duplicated."""
    rng = random.Random(seed)

    def clause(width: int) -> list[int]:
        chosen = rng.sample(range(1, num_vars + 1), width)
        return [var if rng.random() < 0.5 else -var for var in chosen]

    wcnf = WCNF()
    for _ in range(rng.randint(6, 14)):
        wcnf.add_hard(clause(rng.randint(2, 3)))
    for index in range(rng.randint(8, 16)):
        lits = clause(rng.randint(1, 3))
        label = f"s{index}" if rng.random() < 0.8 else None
        wcnf.add_soft(lits, weight=rng.randint(1, 3), label=label)
        if rng.random() < 0.15:
            wcnf.add_soft(lits, weight=rng.randint(1, 3), label=f"dup{index}")
    return wcnf


def _full_scan(engine) -> tuple[list[int], dict[int, bool]]:
    """The readout over every active binding, in binding order."""
    wcnf = engine._wcnf
    active = [binding for binding in engine._bindings if binding.active]
    completions: dict[int, bool] = {}
    falsified: list[int] = []
    for position in engine._solver.falsified_clauses(
        (wcnf.soft[binding.indices[0]].lits for binding in active), completions
    ):
        falsified.extend(active[position].indices)
    return sorted(falsified), completions


def _assert_readout_matches(engine) -> dict[int, bool]:
    """``_result_from_model`` reports what the full scan does; returns the
    scan's don't-care completions."""
    result = engine._result_from_model()
    falsified, completions = _full_scan(engine)
    wcnf = engine._wcnf
    assert result.falsified == falsified
    assert result.cost == sum(wcnf.soft[index].weight for index in falsified)
    assert result.falsified_labels == [
        wcnf.soft[index].label
        for index in falsified
        if wcnf.soft[index].label is not None
    ]
    assert result.model == _completed_model(
        engine._solver.model_snapshot(), completions
    )
    return completions


class TestHittingSetReadout:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_readout_matches_the_full_scan(self, backend, monkeypatch):
        """Over a CoMSS enumeration per seed: on the solver's (total)
        models the readout evaluates only the hitting set's bindings and
        agrees with the full scan; on partial snapshots — random don't
        cares, and don't cares confined to the hitting set's clauses, which
        get completed — it takes the full scan."""
        monkeypatch.setattr(_ccore, "backend", lambda: backend)
        narrowed = completed = 0
        for seed in range(25):
            engine = HittingSetMaxSat()
            engine.load(_random_wcnf(seed))
            assert engine._solver.backend == backend
            rng = random.Random(seed)
            for _ in range(6):
                result = engine.solve_current()
                if not result.satisfiable or not result.falsified:
                    break
                solver = engine._solver
                model = solver.model_snapshot()
                readout = engine._readout_bindings(model)
                assert {binding.position for binding in readout} == {
                    position
                    for position in engine._last_hitting_set
                    if engine._bindings[position].active
                }
                narrowed += len(readout) < sum(b.active for b in engine._bindings)
                assert not _assert_readout_matches(engine)
                wcnf = engine._wcnf
                hit_vars = {
                    abs(lit)
                    for binding in readout
                    for lit in wcnf.soft[binding.indices[0]].lits
                }
                other_vars = {
                    abs(lit)
                    for binding in engine._bindings
                    if binding.active and binding not in readout
                    for lit in wcnf.soft[binding.indices[0]].lits
                }
                for unassigned in (
                    rng.sample(range(1, len(model)), (len(model) - 1) // 3),
                    sorted(hit_vars - other_vars),
                ):
                    partial = list(model)
                    for var in unassigned:
                        partial[var] = -1
                    with monkeypatch.context() as patch:
                        patch.setattr(solver, "model_snapshot", lambda: partial)
                        if unassigned:
                            assert len(engine._readout_bindings(partial)) == sum(
                                b.active for b in engine._bindings
                            )
                        completed += bool(_assert_readout_matches(engine))
                engine.block(result.falsified)
        assert narrowed > 0
        assert completed > 0


# --------------------------------------------------- clauses under a trail


def _state(solver: Solver) -> tuple:
    """Everything a placement or a solve writes, as plain lists."""
    order = solver._order
    return (
        list(solver._arena[: solver._arena_len]),
        list(solver._heads),
        list(solver._assigns),
        list(solver._level),
        list(solver._reason),
        list(solver._trail[: solver._trail_len]),
        solver._qhead,
        list(solver._trail_lim),
        solver._kept_assumptions,
        list(order.heap_buffer()[: order.size]),
        list(order.positions_buffer()),
        [int(phase) for phase in solver._polarity],
        list(solver._clauses),
        list(solver._learnts),
        solver._ok,
        solver.num_vars,
        (
            solver.stats.conflicts,
            solver.stats.decisions,
            solver.stats.propagations,
            solver.stats.restarts,
            solver.stats.learnt_clauses,
            solver.stats.analyses,
            solver.stats.minimized_literals,
            solver.stats.backjumped_levels,
        ),
    )


def _answer(solver: Solver, result: bool):
    if result:
        return list(solver.model_snapshot())
    return solver.unsat_core()


def _lockstep(solvers: list[Solver], action):
    results = [action(solver) for solver in solvers]
    reference = solvers[0]
    for solver, result in zip(solvers[1:], results[1:]):
        assert result == results[0]
        assert _state(solver) == _state(reference)
    for solver in solvers:
        solver.check_invariants()
    return results[0]


NUM_VARS = 24
ROOT_FALSE = 24  # fixed false at the root before the first solve


def _base(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    clauses = [[-ROOT_FALSE]]
    for _ in range(30):
        chosen = rng.sample(range(1, NUM_VARS), rng.randint(2, 4))
        clauses.append([var if rng.random() < 0.5 else -var for var in chosen])
    return clauses


def _true_lits(solver: Solver) -> list[tuple[int, int]]:
    """``(level, literal)`` of every literal true above the root, by level."""
    found = []
    for var in range(1, NUM_VARS + 1):
        value = solver._assigns[var]
        if value >= 0 and solver._level[var] > 0:
            found.append((solver._level[var], var if value == 1 else -var))
    return sorted(found)


def _placement_clause(case: str, solver: Solver) -> Optional[list[int]]:
    """A clause that meets the kept trail of ``solver`` in ``case``, or
    ``None`` when the trail has too few levels for it."""
    true = _true_lits(solver)
    levels = sorted({level for level, _ in true})
    if len(levels) < 3:
        return None
    low = [lit for level, lit in true if level == levels[0]]
    mid = [lit for level, lit in true if level == levels[1]]
    high = [lit for level, lit in true if level == levels[-1]]
    if case == "two-non-false":
        return [high[0], low[0]] if high[0] != low[0] else None
    if case == "unit":
        # One literal true at the deepest level, the others false below it.
        return [-low[0], high[0], -mid[0]]
    if case == "conflicting":
        return [-low[0], -high[0], -mid[0]]
    if case == "root-false":
        # The root-false literal is dropped; two true ones stay to watch.
        return [ROOT_FALSE, mid[0], high[0]]
    if case == "unit-clause":
        return [-high[0]]
    raise AssertionError(case)


PLACEMENTS = ("two-non-false", "unit", "conflicting", "root-false", "unit-clause")


@needs_c
class TestPlacementUnderTrail:
    """``repro_add_clauses`` against ``Solver.add_clause``'s loop."""

    @pytest.mark.parametrize("case", PLACEMENTS)
    def test_pairs_agree(self, case):
        placed = 0
        for seed in range(12):
            rng = random.Random(seed)
            solvers = [Solver(backend=backend) for backend in BACKENDS]
            _lockstep(solvers, lambda solver: solver.add_clauses(_base(seed)))
            assumptions = [
                rng.choice((-1, 1)) * var for var in rng.sample(range(1, 12), 3)
            ]
            if not _lockstep(solvers, lambda solver: solver.solve(assumptions)):
                continue
            clause = _placement_clause(case, solvers[0])
            if clause is None:
                continue
            levels = len(solvers[0]._trail_lim)
            kept = solvers[0]._kept_assumptions
            assert len(kept) == len(assumptions) < levels
            # The batch kernel (add_clauses) and add_clause's single
            # clause both place under the kept trail.
            if seed % 2:
                _lockstep(solvers, lambda solver: solver.add_clauses([clause]))
            else:
                _lockstep(solvers, lambda solver: solver.add_clause(clause))
            after = len(solvers[0]._trail_lim)
            if case in ("two-non-false", "root-false"):
                assert after == levels
            elif case == "unit-clause":
                assert after == 0 and solvers[0]._kept_assumptions == []
            else:
                assert after < levels
            if case == "root-false":
                ref = solvers[0]._clauses[-1]
                size = solvers[0]._arena[ref] >> 2
                assert size == len(clause) - 1  # the root-false literal went
            placed += 1
            for _ in range(2):
                result = _lockstep(
                    solvers, lambda solver: solver.solve(assumptions)
                )
                assert _answer(solvers[1], result) == _answer(solvers[0], result)
        assert placed >= 3


# --------------------------------------------------------- trail keeping


def _classify(solver: Solver, full: list[int]) -> str:
    """Which trail-keeping case a solve under the complete assumption list
    ``full`` takes, from the solver's state before it (the optimistic case
    may still be re-derived)."""
    kept = solver._kept_assumptions
    if kept == full:
        return "identical"
    keep = 0
    while keep < min(len(kept), len(full)) and kept[keep] == full[keep]:
        keep += 1
    assigns = solver._assigns
    if len(kept) == len(full) and all(
        kept[index] == lit
        or (assigns[abs(lit)] >= 0 and (assigns[abs(lit)] == 1) == (lit > 0))
        for index, lit in enumerate(full)
        if index >= keep
    ):
        return "optimistic"
    return "changed tail"


def _record_cases(solver: Solver, seen: dict[str, int], monkeypatch) -> None:
    """Count the trail-keeping case of every solve of the python ``solver``
    in ``seen``; an optimistic solve that searches twice was re-derived."""
    solve = solver._solve_python
    search = solver._search_python
    searches: list[int] = []

    def counting_search(assumptions):
        searches.append(1)
        return search(assumptions)

    def classifying_solve(assumptions):
        case = _classify(solver, assumptions)
        searches.clear()
        result = solve(assumptions)
        if case == "optimistic" and len(searches) == 2:
            case = "re-derived"
        seen[case] = seen.get(case, 0) + 1
        return result

    monkeypatch.setattr(solver, "_search_python", counting_search)
    monkeypatch.setattr(solver, "_solve_python", classifying_solve)


@needs_c
class TestTrailKeeping:
    """Python/c pairs through ``Solver.solve`` in every trail-keeping case:
    identical assumptions, a changed tail, an optimistic resume that holds
    and one that is re-derived."""

    def test_drifting_assumptions(self, monkeypatch):
        """Assumption lists drift as in the CoMSS loop: one slot per
        binding, a disabled slot holds a root-true placeholder, and SAT
        answers are blocked under the kept trail."""
        seen: dict[str, int] = {}
        for seed in range(20):
            rng = random.Random(seed)
            solvers = [Solver(backend=backend) for backend in BACKENDS]
            base = _base(1000 + seed)
            _lockstep(solvers, lambda solver: solver.add_clauses(base))
            placeholder = NUM_VARS + 1
            _lockstep(solvers, lambda solver: solver.add_clause([placeholder]))
            _lockstep(solvers, lambda solver: solver.push())
            _record_cases(solvers[0], seen, monkeypatch)
            slots = [
                rng.choice((-1, 1)) * var for var in rng.sample(range(1, 20), 8)
            ]
            for _ in range(14):
                kind = rng.random()
                if kind < 0.45:
                    slots[rng.randrange(len(slots))] = placeholder
                elif kind < 0.75:
                    position = rng.randrange(len(slots))
                    slots[position] = rng.choice((-1, 1)) * rng.randint(1, 19)
                current = list(slots)
                result = _lockstep(solvers, lambda solver: solver.solve(current))
                assert _answer(solvers[1], result) == _answer(solvers[0], result)
                if result:
                    model = solvers[0].get_model()
                    picked = rng.sample(range(1, 20), 3)
                    blocking = [-var if model[var] else var for var in picked]
                    _lockstep(
                        solvers, lambda solver: solver.add_clauses([blocking])
                    )
                    if not solvers[0]._ok:
                        break
            _lockstep(solvers, lambda solver: solver.pop())
        assert {"identical", "changed tail", "optimistic"} <= set(seen)

    def test_tcas_sessions(self, monkeypatch):
        """Sessions on both backends localize TCAS failing tests; the
        solvers agree after every CoMSS iteration and the reports are
        byte-identical."""
        from repro.core import LocalizationSession, Specification
        from repro.serve import canonical_report_bytes
        from repro.siemens import classify_tcas_tests, tcas_faulty_program
        from repro.siemens.suite import TCAS_HARNESS_LINES

        iterations: dict[str, list] = {backend: [] for backend in BACKENDS}
        solve_current = HittingSetMaxSat.solve_current

        def recording_solve_current(engine):
            result = solve_current(engine)
            iterations[engine._solver.backend].append(
                (result.falsified, result.sat_calls, _state(engine._solver))
            )
            return result

        monkeypatch.setattr(HittingSetMaxSat, "solve_current", recording_solve_current)
        failing, _ = classify_tcas_tests("v3", count=200)
        seen: dict[str, int] = {}
        reports: dict[str, list[bytes]] = {}
        for backend in BACKENDS:
            monkeypatch.setattr(_ccore, "backend", lambda backend=backend: backend)
            with LocalizationSession(
                tcas_faulty_program("v3"),
                hard_lines=TCAS_HARNESS_LINES,
                max_candidates=8,
            ) as session:
                solver = session._ensure_engine()._solver
                assert solver.backend == backend
                if backend == "python":
                    _record_cases(solver, seen, monkeypatch)
                reports[backend] = [
                    canonical_report_bytes(
                        session.localize(
                            vector.as_list(), Specification.return_value(expected)
                        )
                    )
                    for vector, expected in failing[:4]
                ]
                solver.check_invariants()
        reference = iterations["python"]
        assert len(reference) > 20
        for backend in BACKENDS[1:]:
            assert reports[backend] == reports["python"]
            assert len(iterations[backend]) == len(reference)
            for step, expected in zip(iterations[backend], reference):
                assert step == expected
        # A blocking clause backjumps below the changed slots, and an
        # optimistic resume of the CoMSS loop is mostly re-derived; the
        # drifting-assumption sweep above covers the other two cases.
        assert {"changed tail", "re-derived"} <= set(seen)


@needs_c
def test_comss_loop_stays_in_the_kernel(monkeypatch):
    """On the C backend a TCAS CoMSS loop never backtracks or places a
    clause in Python: the kernel calls do both."""
    from repro.core import LocalizationSession, Specification
    from repro.core import session as session_module
    from repro.siemens import classify_tcas_tests, tcas_faulty_program
    from repro.siemens.suite import TCAS_HARNESS_LINES

    inside: list[bool] = []
    glue: list[str] = []
    run_comss_loop = session_module.run_comss_loop

    def watched_loop(*args):
        inside.append(True)
        try:
            return run_comss_loop(*args)
        finally:
            inside.pop()

    def watch(name):
        method = getattr(Solver, name)

        def watched(solver, *args):
            if inside:
                glue.append(name)
            return method(solver, *args)

        monkeypatch.setattr(Solver, name, watched)

    monkeypatch.setattr(session_module, "run_comss_loop", watched_loop)
    for name in ("_cancel_until", "_place_under_trail"):
        watch(name)
    failing, _ = classify_tcas_tests("v3", count=200)
    with LocalizationSession(
        tcas_faulty_program("v3"), hard_lines=TCAS_HARNESS_LINES, max_candidates=8
    ) as session:
        assert session._ensure_engine()._solver.backend == "c"
        for vector, expected in failing[:3]:
            report = session.localize(
                vector.as_list(), Specification.return_value(expected)
            )
            assert len(report.candidates) > 1
    assert glue == []
