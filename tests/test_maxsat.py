"""Unit and property-based tests for the partial weighted MaxSAT engines."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.maxsat import (
    HittingSetMaxSat,
    LinearSearchMaxSat,
    Msu3MaxSat,
    WCNF,
    enumerate_mcses,
    make_engine,
    solve_maxsat,
)
from repro.maxsat.engine import clause_satisfied, evaluate_clause
from repro.maxsat.hitting_set import minimum_cost_hitting_set

ENGINES = ["hitting-set", "msu3", "linear"]


def brute_force_optimum(wcnf: WCNF) -> int | None:
    """Reference optimum cost by enumerating all assignments (None = hard UNSAT)."""
    num_vars = wcnf.num_vars
    best: int | None = None
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {var: bits[var - 1] for var in range(1, num_vars + 1)}
        if not all(clause_satisfied(clause, model) for clause in wcnf.hard):
            continue
        cost = sum(
            soft.weight for soft in wcnf.soft if not clause_satisfied(soft.lits, model)
        )
        if best is None or cost < best:
            best = cost
    return best


def simple_instance() -> WCNF:
    """x1 and x2 cannot both hold (hard); we would like both (soft)."""
    wcnf = WCNF()
    wcnf.add_hard([-1, -2])
    wcnf.add_soft([1], label="want-x1")
    wcnf.add_soft([2], label="want-x2")
    return wcnf


class TestWcnf:
    def test_counts_and_weights(self):
        wcnf = simple_instance()
        assert wcnf.num_vars == 2
        assert wcnf.total_soft_weight == 2
        assert not wcnf.is_weighted()

    def test_weighted_flag(self):
        wcnf = WCNF()
        wcnf.add_soft([1], weight=1)
        wcnf.add_soft([2], weight=5)
        assert wcnf.is_weighted()

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            WCNF().add_soft([1], weight=0)

    def test_soft_group_construction(self):
        wcnf = WCNF()
        selector = wcnf.add_soft_group([[1, 2], [-1, 3]], label="stmt-4")
        assert selector == wcnf.num_vars
        # Each group clause became a hard clause guarded by the selector.
        assert [1, 2, -selector] in wcnf.hard
        assert [-1, 3, -selector] in wcnf.hard
        assert wcnf.soft[0].lits == (selector,)
        assert wcnf.soft[0].label == "stmt-4"

    def test_copy_is_independent(self):
        wcnf = simple_instance()
        duplicate = wcnf.copy()
        duplicate.add_hard([1])
        assert len(wcnf.hard) == 1
        assert len(duplicate.hard) == 2


class TestEngines:
    @pytest.mark.parametrize("strategy", ENGINES)
    def test_all_soft_satisfiable(self, strategy):
        wcnf = WCNF()
        wcnf.add_hard([1, 2])
        wcnf.add_soft([1])
        wcnf.add_soft([2, 3])
        result = solve_maxsat(wcnf, strategy=strategy)
        assert result.satisfiable
        assert result.cost == 0
        assert result.falsified == []

    @pytest.mark.parametrize("strategy", ENGINES)
    def test_one_clause_must_fall(self, strategy):
        result = solve_maxsat(simple_instance(), strategy=strategy)
        assert result.satisfiable
        assert result.cost == 1
        assert len(result.falsified) == 1
        assert result.falsified_labels[0] in {"want-x1", "want-x2"}

    @pytest.mark.parametrize("strategy", ENGINES)
    def test_hard_clauses_unsat(self, strategy):
        wcnf = WCNF()
        wcnf.add_hard([1])
        wcnf.add_hard([-1])
        wcnf.add_soft([2])
        result = solve_maxsat(wcnf, strategy=strategy)
        assert not result.satisfiable

    @pytest.mark.parametrize("strategy", ENGINES)
    def test_non_unit_soft_clauses(self, strategy):
        wcnf = WCNF()
        wcnf.add_hard([-1, -2])
        wcnf.add_hard([-1, -3])
        wcnf.add_soft([2, 3])
        wcnf.add_soft([1])
        result = solve_maxsat(wcnf, strategy=strategy)
        assert result.satisfiable
        assert result.cost == 1

    @pytest.mark.parametrize("strategy", ENGINES)
    def test_cost_matches_brute_force_on_fixed_instances(self, strategy):
        instances = []
        first = WCNF()
        first.add_hard([1, 2, 3])
        first.add_hard([-1, -2])
        first.add_soft([1])
        first.add_soft([2])
        first.add_soft([3])
        first.add_soft([-3, 1])
        instances.append(first)
        second = WCNF()
        second.add_hard([-1])
        second.add_soft([1])
        second.add_soft([1, 2])
        second.add_soft([-2])
        instances.append(second)
        for wcnf in instances:
            result = solve_maxsat(wcnf, strategy=strategy)
            assert result.satisfiable
            assert result.cost == brute_force_optimum(wcnf)

    def test_weighted_prefers_cheap_violation(self):
        wcnf = WCNF()
        wcnf.add_hard([-1, -2])
        wcnf.add_soft([1], weight=10, label="expensive")
        wcnf.add_soft([2], weight=1, label="cheap")
        result = solve_maxsat(wcnf)
        assert result.cost == 1
        assert result.falsified_labels == ["cheap"]

    def test_weighted_rejected_by_unweighted_engines(self):
        wcnf = WCNF()
        wcnf.add_soft([1], weight=2)
        wcnf.add_soft([2], weight=1)
        with pytest.raises(ValueError):
            Msu3MaxSat().solve(wcnf)
        with pytest.raises(ValueError):
            LinearSearchMaxSat().solve(wcnf)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_engine("simulated-annealing")

    def test_auto_strategy_picks_engine_from_instance(self, monkeypatch):
        import repro.maxsat.facade as facade

        chosen: list[str] = []
        real_make_engine = facade.make_engine

        def spy(strategy: str = "hitting-set"):
            chosen.append(strategy)
            return real_make_engine(strategy)

        monkeypatch.setattr(facade, "make_engine", spy)

        unweighted = WCNF()
        x = unweighted.new_var()
        unweighted.add_soft([x])
        unweighted.add_soft([-x])
        result = facade.solve_maxsat(unweighted, strategy="auto")
        assert result.satisfiable and result.cost == 1
        assert chosen[-1] == "msu3"

        weighted = WCNF()
        y = weighted.new_var()
        weighted.add_soft([y], weight=1)
        weighted.add_soft([-y], weight=5)
        result = facade.solve_maxsat(weighted, strategy="auto")
        assert result.satisfiable and result.cost == 1
        assert chosen[-1] == "hitting-set"

    def test_empty_instance(self):
        result = solve_maxsat(WCNF())
        assert result.satisfiable
        assert result.cost == 0

    def test_selector_group_instance(self):
        # Two statement groups that contradict each other: exactly one must
        # be disabled, mirroring the BugAssist encoding.
        wcnf = WCNF()
        x = 1
        wcnf._num_vars = 1
        group_a = wcnf.add_soft_group([[x]], label="line-1")
        group_b = wcnf.add_soft_group([[-x]], label="line-2")
        result = solve_maxsat(wcnf)
        assert result.cost == 1
        assert set(result.falsified_labels) <= {"line-1", "line-2"}
        assert {group_a, group_b} == {wcnf.soft[0].lits[0], wcnf.soft[1].lits[0]}


class TestDuplicateSoftClauses:
    """Duplicate soft clauses must share one assumption (one indicator)."""

    def test_duplicates_share_one_binding(self):
        wcnf = WCNF()
        wcnf.add_soft([1])
        wcnf.add_soft([1])
        wcnf.add_soft([1, 2])
        engine = HittingSetMaxSat()
        engine.load(wcnf)
        assert len(engine._bindings) == 2
        assert engine._bindings[0].indices == [0, 1]
        assert engine._bindings[0].weight == 2
        assert engine._bindings[0].assumption == 1

    @pytest.mark.parametrize("strategy", ENGINES)
    def test_duplicate_unit_softs_fall_together(self, strategy):
        wcnf = WCNF()
        wcnf.add_hard([-1])
        wcnf.add_soft([1], label="first")
        wcnf.add_soft([1], label="second")
        result = solve_maxsat(wcnf, strategy=strategy)
        assert result.satisfiable
        assert result.cost == 2
        assert result.falsified == [0, 1]
        assert set(result.falsified_labels) == {"first", "second"}

    @pytest.mark.parametrize("strategy", ENGINES)
    def test_duplicates_count_fully_towards_the_optimum(self, strategy):
        # Falsifying the duplicated clause costs 2, so the optimum falsifies
        # the single clause [2] instead; an engine whose cardinality bound
        # counted the merged binding once would get this wrong.
        wcnf = WCNF()
        wcnf.add_hard([-1, -2])
        wcnf.add_soft([1])
        wcnf.add_soft([1])
        wcnf.add_soft([2])
        result = solve_maxsat(wcnf, strategy=strategy)
        assert result.cost == 1 == brute_force_optimum(wcnf)
        assert result.falsified == [2]


class TestModelCompletion:
    def test_evaluate_clause_reports_dont_care_literal(self):
        assert evaluate_clause([2], {1: True}) == 2
        assert evaluate_clause([-2], {1: True}) == -2
        assert evaluate_clause([2], {2: False}) is False
        assert evaluate_clause([2, 1], {2: False, 1: True}) is True

    def test_dont_care_soft_variable_not_counted(self, monkeypatch):
        # Variable 3 occurs only in the soft clause.  Simulate a solver that
        # left it unassigned: the cost must not be over-counted — the model
        # is completed in the clause's favour instead.
        wcnf = WCNF()
        wcnf.add_hard([1])
        wcnf.add_soft([3], label="dont-care")
        engine = HittingSetMaxSat()
        engine.load(wcnf)
        assert engine.solve_current().cost == 0
        snapshot = list(engine._solver.model_snapshot())
        snapshot[3] = -1  # unassigned
        monkeypatch.setattr(engine._solver, "model_snapshot", lambda: snapshot)
        result = engine._result_from_model()
        assert result.cost == 0
        assert result.falsified == []
        assert result.model[3] is True


def _reference_readout(engine) -> tuple:
    """The CoMSS readout over a model dict: ``solver.get_model()`` plus the
    don't-care completions, evaluated binding by binding."""
    wcnf = engine._wcnf
    model = engine._solver.get_model()
    falsified: list[int] = []
    for binding in engine._bindings:
        if not binding.active:
            continue
        status = evaluate_clause(wcnf.soft[binding.indices[0]].lits, model)
        if status is True:
            continue
        if status is False:
            falsified.extend(binding.indices)
            continue
        model[abs(status)] = status > 0
    falsified.sort()
    cost = sum(wcnf.soft[index].weight for index in falsified)
    labels = [
        wcnf.soft[index].label
        for index in falsified
        if wcnf.soft[index].label is not None
    ]
    return falsified, cost, labels, model


def _random_wcnf(seed: int, weighted: bool, num_vars: int = 10) -> WCNF:
    """A mostly satisfiable random instance with partly labelled and
    occasionally duplicated soft clauses (of weight 1-4 when ``weighted``)."""
    rng = random.Random(seed)

    def clause(width: int) -> list[int]:
        chosen = rng.sample(range(1, num_vars + 1), width)
        return [var if rng.random() < 0.5 else -var for var in chosen]

    wcnf = WCNF()
    for _ in range(rng.randint(6, 14)):
        wcnf.add_hard(clause(rng.randint(2, 3)))
    def weight() -> int:
        return rng.randint(1, 4) if weighted else 1

    for index in range(rng.randint(6, 14)):
        lits = clause(rng.randint(1, 3))
        label = f"s{index}" if rng.random() < 0.8 else None
        wcnf.add_soft(lits, weight=weight(), label=label)
        if rng.random() < 0.15:
            wcnf.add_soft(lits, weight=weight(), label=f"dup{index}")
    return wcnf


class TestReadoutEquivalence:
    """The CoMSS readout from the assignment buffer against the model dict.

    ``falsified``, ``cost`` and the labels must be what evaluating the
    ``get_model()`` dictionary gives, and ``result.model`` that dictionary
    plus the don't-care completions — also when it is first read after
    later solves have replaced the solver's model.
    """

    @pytest.mark.parametrize("strategy", ENGINES)
    @pytest.mark.parametrize("seed", range(15))
    def test_random_instances(self, seed, strategy, monkeypatch):
        engine = make_engine(strategy)
        engine.load(_random_wcnf(seed, weighted=strategy == "hitting-set"))
        rng = random.Random(seed)
        kept: list = []
        for _ in range(6):
            result = engine.solve_current()
            if not result.satisfiable:
                break
            falsified, cost, labels, model = _reference_readout(engine)
            assert result.falsified == falsified
            assert result.cost == cost
            assert result.falsified_labels == labels
            kept.append((result, model))
            # The same model with some variables left unassigned: the
            # overlay must complete them exactly as the dict did.
            snapshot = list(engine._solver.model_snapshot())
            for var in rng.sample(range(1, len(snapshot)), len(snapshot) // 3):
                snapshot[var] = -1
            with monkeypatch.context() as patch:
                patch.setattr(engine._solver, "model_snapshot", lambda: snapshot)
                partial_result = engine._result_from_model()
                falsified, cost, labels, model = _reference_readout(engine)
            assert partial_result.falsified == falsified
            assert partial_result.cost == cost
            assert partial_result.falsified_labels == labels
            kept.append((partial_result, model))
            if not result.falsified:
                break
            engine.block(result.falsified)
        assert kept
        # Read only now, after later solves replaced the solver's model.
        for result, model in kept:
            assert result.model == model

    def test_unsatisfiable_result_has_no_model(self):
        wcnf = WCNF()
        wcnf.add_hard([1])
        wcnf.add_hard([-1])
        wcnf.add_soft([2])
        result = solve_maxsat(wcnf)
        assert not result.satisfiable
        assert result.model is None

    def test_tcas_session_readout(self, monkeypatch):
        """A TCAS localization reads each CoMSS as the model dict would,
        and still succeeds when ``get_model`` is unavailable."""
        from repro.core import LocalizationSession, Specification
        from repro.maxsat.engine import MaxSatEngine
        from repro.sat import Solver
        from repro.serve import canonical_report_bytes
        from repro.siemens import classify_tcas_tests, tcas_faulty_program

        failing, _ = classify_tcas_tests("v1", count=200)
        vector, expected = failing[0]
        spec = Specification.return_value(expected)
        readout = MaxSatEngine._result_from_model
        checked: list = []

        def checked_readout(engine):
            result = readout(engine)
            falsified, cost, labels, model = _reference_readout(engine)
            assert result.falsified == falsified
            assert result.cost == cost
            assert result.falsified_labels == labels
            checked.append((result, model))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(MaxSatEngine, "_result_from_model", checked_readout)
            with LocalizationSession(tcas_faulty_program("v1")) as session:
                reference = session.localize(vector.as_list(), spec)
        assert len(checked) > 1
        for result, model in checked:
            assert result.model == model

        def no_model(solver, complete=False):
            raise AssertionError("the CoMSS readout built a model dict")

        monkeypatch.setattr(Solver, "get_model", no_model)
        with LocalizationSession(tcas_faulty_program("v1")) as session:
            report = session.localize(vector.as_list(), spec)
        assert report.candidates
        assert canonical_report_bytes(report) == canonical_report_bytes(reference)


class TestIncrementalEngine:
    @pytest.mark.parametrize("strategy", ENGINES)
    def test_block_retires_softs_on_the_live_solver(self, strategy):
        wcnf = WCNF()
        wcnf.add_hard([-1, -2])
        wcnf.add_hard([-2, -3])
        for var in (1, 2, 3):
            wcnf.add_soft([var], label=f"x{var}")
        engine = make_engine(strategy)
        engine.load(wcnf)
        first = engine.solve_current()
        assert first.cost == 1
        assert first.falsified == [1]  # x2 conflicts with both neighbours
        engine.block(first.falsified)
        second = engine.solve_current()
        # x2 is now hard-on, so both x1 and x3 must fall.
        assert second.cost == 2
        assert second.falsified == [0, 2]
        engine.block(second.falsified)
        # No soft clauses remain and the blocking clauses contradict the
        # hard clauses: no further correction set exists.
        third = engine.solve_current()
        assert not third.satisfiable

    @pytest.mark.parametrize("strategy", ENGINES)
    def test_incremental_matches_one_shot_rebuild(self, strategy):
        wcnf = WCNF()
        wcnf.add_hard([-1, -2])
        wcnf.add_hard([-3, -4])
        for var in (1, 2, 3, 4):
            wcnf.add_soft([var])
        engine = make_engine(strategy)
        engine.load(wcnf)
        blocked_sets: list[set[int]] = []
        for _ in range(4):
            # Mirror the engine's blocked state on a freshly built WCNF
            # (beta clauses hardened, blocked softs removed) and compare.
            rebuilt = WCNF()
            rebuilt._num_vars = wcnf.num_vars
            for clause in wcnf.hard:
                rebuilt.add_hard(clause)
            retired: set[int] = set().union(*blocked_sets) if blocked_sets else set()
            for blocked in blocked_sets:
                rebuilt.add_hard(
                    [lit for index in sorted(blocked) for lit in wcnf.soft[index].lits]
                )
            for index, soft in enumerate(wcnf.soft):
                if index not in retired:
                    rebuilt.add_soft(
                        list(soft.lits), weight=soft.weight, label=soft.label
                    )
            one_shot = solve_maxsat(rebuilt, strategy=strategy)
            incremental = engine.solve_current()
            assert incremental.satisfiable == one_shot.satisfiable
            if not incremental.satisfiable or not incremental.falsified:
                break
            assert incremental.cost == one_shot.cost
            blocked_sets.append(set(incremental.falsified))
            engine.block(incremental.falsified)

    def test_sat_calls_accumulate_across_solves(self):
        engine = HittingSetMaxSat()
        engine.load(simple_instance())
        first = engine.solve_current()
        engine.block(first.falsified)
        second = engine.solve_current()
        assert second.sat_calls > first.sat_calls
        assert engine.sat_calls == second.sat_calls


class TestHittingSet:
    def test_empty_cores(self):
        assert minimum_cost_hitting_set([], [1, 1, 1]) == set()

    def test_single_core_picks_cheapest(self):
        cores = [frozenset({0, 1, 2})]
        assert minimum_cost_hitting_set(cores, [5, 1, 3]) == {1}

    def test_disjoint_cores(self):
        cores = [frozenset({0, 1}), frozenset({2, 3})]
        result = minimum_cost_hitting_set(cores, [1, 2, 2, 1])
        assert result == {0, 3}

    def test_overlapping_cores_prefer_shared_element(self):
        cores = [frozenset({0, 1}), frozenset({1, 2})]
        result = minimum_cost_hitting_set(cores, [1, 1, 1])
        assert result == {1}

    def test_weighted_tradeoff(self):
        # Hitting both cores through the shared element costs 10; hitting
        # them separately costs 2.
        cores = [frozenset({0, 1}), frozenset({0, 2})]
        result = minimum_cost_hitting_set(cores, [10, 1, 1])
        assert result == {1, 2}


class TestMcsEnumeration:
    def test_enumerates_both_singletons(self):
        results = list(enumerate_mcses(simple_instance()))
        found = {frozenset(result.falsified) for result in results}
        assert frozenset({0}) in found
        assert frozenset({1}) in found

    def test_respects_max_count(self):
        results = list(enumerate_mcses(simple_instance(), max_count=1))
        assert len(results) == 1

    def test_stops_when_everything_satisfiable(self):
        wcnf = WCNF()
        wcnf.add_hard([1])
        wcnf.add_soft([1])
        assert list(enumerate_mcses(wcnf)) == []

    def test_costs_non_decreasing(self):
        wcnf = WCNF()
        wcnf.add_hard([-1, -2])
        wcnf.add_hard([-3, -4])
        for var in (1, 2, 3, 4):
            wcnf.add_soft([var])
        costs = [result.cost for result in enumerate_mcses(wcnf, max_count=6)]
        assert costs == sorted(costs)


@settings(max_examples=40, deadline=None)
@given(
    hard=st.lists(
        st.lists(
            st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
            min_size=1,
            max_size=3,
        ),
        max_size=6,
    ),
    soft=st.lists(
        st.lists(
            st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
            min_size=1,
            max_size=2,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_engines_agree_with_brute_force(hard, soft):
    wcnf = WCNF()
    for clause in hard:
        wcnf.add_hard(clause)
    for clause in soft:
        wcnf.add_soft(clause)
    expected = brute_force_optimum(wcnf)
    for strategy in ENGINES:
        result = solve_maxsat(wcnf, strategy=strategy)
        if expected is None:
            assert not result.satisfiable
        else:
            assert result.satisfiable
            assert result.cost == expected


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=5),
    data=st.data(),
)
def test_weighted_hitting_set_matches_brute_force(weights, data):
    num_vars = len(weights)
    wcnf = WCNF()
    # Pairwise hard conflicts between some soft unit literals.
    for first in range(1, num_vars + 1):
        for second in range(first + 1, num_vars + 1):
            if data.draw(st.booleans()):
                wcnf.add_hard([-first, -second])
    for var, weight in enumerate(weights, start=1):
        wcnf.add_soft([var], weight=weight)
    expected = brute_force_optimum(wcnf)
    result = HittingSetMaxSat().solve(wcnf)
    assert result.satisfiable
    assert result.cost == expected
