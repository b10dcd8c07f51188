"""The flat clause path from the encoder's clause store to the SAT kernel.

A trace formula keeps its clauses flat (``lits``/``ends``/``gids`` plus the
group table); :meth:`TraceFormula.to_wcnf` gathers them into the engine's
load order in one pass and the engine loads them with one
:meth:`Solver.add_flat` call.  These tests pin that path to the list-based
construction it replaced, on both backends:

* the WCNF equals the one built clause by clause — hard clauses in emission
  order, then the sorted groups with ``-selector`` appended, selectors
  numbered from ``num_vars + 1`` over the sorted group table (empty groups
  included), ``hard_groups`` lines untagged in their sorted position;
* flat-loading it leaves the solver state of adding those clauses one
  :meth:`Solver.add_clause` at a time (arena words, assignments, trail and
  propagation count);
* the C gather and its pure-Python mirror produce the same buffers;
* the 32 seed-7 ``siemens-trace`` requests still report the ordered
  candidates and solver counters recorded before the change.
"""

from __future__ import annotations

import json
import random
from array import array
from pathlib import Path

import pytest

from repro.concolic import ConcolicTracer
from repro.core import LocalizationSession
from repro.encoding.arena import _gather_python, gather_clauses
from repro.encoding.context import StatementGroup
from repro.encoding.trace import TraceFormula
from repro.lang import parse_program
from repro.maxsat import WCNF
from repro.maxsat.engine import MaxSatEngine
from repro.sat import Solver, _ccore, propagation_backend
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import TCAS_HARNESS_LINES, localize_large_input
from repro.siemens.tcas import tcas_faulty_program
from repro.spec import Specification

GOLDEN = Path(__file__).with_name("golden_siemens_trace_seed7.json")

BACKENDS = ("python", "c") if propagation_backend() == "c" else ("python",)

#: tot_info's request takes about a minute on the pure-Python search loop
#: (about 1.6 s on the C kernel); the other 31 requests still run there.
PYTHON_SEARCH_SKIPS = {"tot_info"} if propagation_backend() == "python" else set()

needs_c_gather = pytest.mark.skipif(
    _ccore.encode_library() is None, reason="no compiled encoder core available"
)

LOOP_PROGRAM = """
int main(int n) {
    int total = 0;
    int i = 0;
    while (i < n) {
        total = total + i;
        i = i + 1;
    }
    assert(total < 100);
    return total;
}
"""


def legacy_instance(formula, weight_of=None, hard_groups=None):
    """The list-based construction: ``(hard clauses, softs, num_vars)``.

    Softs are ``(selector, weight, group)`` in the order they are added.
    """
    hard = [list(clause) for clause in formula.hard]
    softs = []
    top = formula.num_vars
    groups = formula.groups
    for group in sorted(groups):
        if hard_groups is not None and group.line in hard_groups:
            hard.extend(list(clause) for clause in groups[group])
            continue
        top += 1
        hard.extend(list(clause) + [-top] for clause in groups[group])
        softs.append((top, weight_of(group) if weight_of else 1, group))
    return hard, softs, top


def assert_matches_legacy(formula, weight_of=None, hard_groups=None) -> WCNF:
    wcnf, selector_to_group = formula.to_wcnf(weight_of=weight_of, hard_groups=hard_groups)
    hard, softs, top = legacy_instance(formula, weight_of, hard_groups)
    assert wcnf.hard == hard
    assert [(s.lits, s.weight, s.label) for s in wcnf.soft] == [
        ((selector,), weight, group) for selector, weight, group in softs
    ]
    assert wcnf.num_vars == top
    assert selector_to_group == {selector: group for selector, _, group in softs}
    return wcnf


def solver_state(solver: Solver) -> tuple:
    return (
        list(solver._arena[: solver._arena_len]),
        list(solver._assigns),
        list(solver._trail[: solver._trail_len]),
        solver.stats.propagations,
        solver._ok,
    )


def assert_same_load(wcnf: WCNF) -> None:
    """Flat load == the clause-at-a-time load, on every backend, and the
    engine's own load is the flat load."""
    hard = wcnf.hard
    states = {}
    for backend in BACKENDS:
        flat = Solver(backend=backend)
        flat.ensure_vars(wcnf.num_vars)
        flat.add_flat(wcnf.hard_lits, wcnf.hard_ends)
        one_by_one = Solver(backend=backend)
        one_by_one.ensure_vars(wcnf.num_vars)
        for clause in hard:
            one_by_one.add_clause(clause)
        states[backend] = solver_state(flat)
        assert states[backend] == solver_state(one_by_one), backend
    engine_solver, _ = MaxSatEngine._build_solver(wcnf)
    assert solver_state(engine_solver) == states[engine_solver.backend]


def assert_same_gather(formula: TraceFormula) -> None:
    table = formula.group_table
    rank = array("q", bytes(8 * len(table)))
    tags = array("q", bytes(8 * (len(table) + 1)))
    for bucket, gid in enumerate(sorted(range(len(table)), key=table.__getitem__), 1):
        rank[gid] = bucket
        tags[bucket] = 0 if bucket % 3 == 0 else -(formula.num_vars + bucket)
    args = (formula.lits, formula.ends, formula.gids, rank, tags)
    assert gather_clauses(*args) == _gather_python(*args)


# --------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def golden_requests() -> list[dict]:
    return [
        request
        for request in json.loads(GOLDEN.read_text())["requests"]
        if request["program"] not in PYTHON_SEARCH_SKIPS
    ]


@pytest.fixture(scope="module")
def siemens_runs(golden_requests):
    """The 32 seed-7 siemens-trace requests: ``(formula, report)`` each."""
    benchmarks = {benchmark.name: benchmark for benchmark in LARGE_BENCHMARKS}
    return [
        localize_large_input(benchmarks[request["program"]], request["inputs"])
        for request in golden_requests
    ]


@pytest.fixture(scope="module")
def tcas_base_formulas():
    formulas = []
    for version in ("v1", "v13", "v28"):
        session = LocalizationSession(
            tcas_faulty_program(version), hard_lines=TCAS_HARNESS_LINES
        )
        compiled = session.compiled
        hard_groups = set(TCAS_HARNESS_LINES).union(compiled.pruned_lines)
        formulas.append((compiled.base_formula(), hard_groups))
    return formulas


# ------------------------------------------------------------------ tests


class TestSiemensTrace:
    def test_candidates_equal_goldens(self, golden_requests, siemens_runs):
        for request, (formula, report) in zip(golden_requests, siemens_runs):
            observed = {
                "clauses": formula.num_clauses,
                "sat_calls": report.sat_calls,
                "maxsat_calls": report.maxsat_calls,
                "conflicts": report.conflicts,
                "propagations": report.propagations,
                "candidates": [
                    [[[g.line, g.function, g.iteration] for g in c.groups], c.cost]
                    for c in report.candidates
                ],
            }
            expected = {key: request[key] for key in observed}
            assert observed == expected, (request["program"], request["inputs"])

    def test_wcnf_and_load_match_legacy(self, golden_requests, siemens_runs):
        # Every request's instance; the (slower) clause-at-a-time solver
        # reference for the first request of each program.
        loaded = set()
        for request, (formula, _) in zip(golden_requests, siemens_runs):
            wcnf = assert_matches_legacy(formula)
            if request["program"] not in loaded:
                loaded.add(request["program"])
                assert_same_load(wcnf)

    @needs_c_gather
    def test_gather_backends_agree(self, siemens_runs):
        for formula, _ in siemens_runs[:8]:
            assert_same_gather(formula)

    def test_store_equals_materialized_lists(self):
        tracer = ConcolicTracer(parse_program(LOOP_PROGRAM), loop_iteration_groups=True)
        formula = tracer.trace([20], Specification.assertion())
        context = tracer._context
        assert formula.hard == context.hard
        assert formula.groups == context.groups
        assert list(formula.groups) == context.group_table


class TestTcasBase:
    def test_wcnf_and_load_match_legacy(self, tcas_base_formulas):
        for formula, hard_groups in tcas_base_formulas:
            assert_same_load(assert_matches_legacy(formula, hard_groups=hard_groups))

    @needs_c_gather
    def test_gather_backends_agree(self, tcas_base_formulas):
        for formula, _ in tcas_base_formulas:
            assert_same_gather(formula)


def small_formula(groups, hard=((1, -2), (3,)), num_vars=6) -> TraceFormula:
    """A formula whose store holds ``hard``, then each group's clauses."""
    clauses = [(-1, clause) for clause in hard]
    for gid, group_clauses in enumerate(groups.values()):
        clauses.extend((gid, clause) for clause in group_clauses)
    lits, ends = array("q"), array("q")
    for _, clause in clauses:
        lits.extend(clause)
        ends.append(len(lits))
    return TraceFormula(
        width=4,
        num_vars=num_vars,
        lits=lits,
        ends=ends,
        gids=array("q", [gid for gid, _ in clauses]),
        group_table=list(groups),
    )


class TestEdgeCases:
    def test_empty_group_gets_its_selector(self):
        formula = small_formula(
            {
                StatementGroup(9): [(2, 4)],
                StatementGroup(3): [],
                StatementGroup(5): [(-4,), (5, 6)],
            }
        )
        wcnf = assert_matches_legacy(formula)
        # Sorted: line 3 (empty) takes selector 7, line 5 takes 8, line 9 9.
        assert [soft.lits for soft in wcnf.soft] == [(7,), (8,), (9,)]
        assert wcnf.hard == [[1, -2], [3], [-4, -8], [5, 6, -8], [2, 4, -9]]
        assert_same_load(wcnf)

    def test_hard_groups_load_untagged_in_sorted_position(self):
        formula = small_formula(
            {
                StatementGroup(9): [(2, 4)],
                StatementGroup(3): [(6,)],
                StatementGroup(5): [(-4,), (5, 6)],
            }
        )
        wcnf = assert_matches_legacy(formula, hard_groups={5})
        assert wcnf.hard == [[1, -2], [3], [6, -7], [-4], [5, 6], [2, 4, -8]]
        assert [soft.label.line for soft in wcnf.soft] == [3, 9]
        assert_same_load(wcnf)

    def test_loop_iteration_weights(self):
        tracer = ConcolicTracer(parse_program(LOOP_PROGRAM), loop_iteration_groups=True)
        formula = tracer.trace([20], Specification.assertion())
        iterations = [g.iteration for g in formula.group_table if g.iteration is not None]
        assert iterations
        eta = max(iterations)

        def weight_of(group):
            return 1 if group.iteration is None else 1 + eta - group.iteration + 1

        wcnf = assert_matches_legacy(formula, weight_of=weight_of)
        assert wcnf.is_weighted()
        assert_same_load(wcnf)

    def test_formula_without_groups(self):
        formula = small_formula({})
        wcnf, selector_to_group = formula.to_wcnf()
        assert wcnf.hard == [[1, -2], [3]]
        assert wcnf.soft == [] and selector_to_group == {}
        assert wcnf.num_vars == 6
        assert_same_load(wcnf)

    def test_empty_formula(self):
        wcnf, _ = small_formula({}, hard=()).to_wcnf()
        assert wcnf.hard == [] and wcnf.num_vars == 6
        assert_same_load(wcnf)

    def test_zero_literal_raises(self):
        for hard, groups in (
            (((1, 0),), {}),
            ((), {StatementGroup(2): [(3,), (0, 4)]}),
        ):
            formula = small_formula(groups, hard=hard)
            with pytest.raises(ValueError, match="0 is not a valid literal"):
                formula.to_wcnf()
            args = (formula.lits, formula.ends, formula.gids, array("q", [1]), array("q", [0, -7]))
            with pytest.raises(ValueError):
                _gather_python(*args)
            with pytest.raises(ValueError):
                gather_clauses(*args)

    @pytest.mark.parametrize(
        "ends, gids, rank",
        [
            ([2, 1], [-1, -1], [1]),  # decreasing end offset
            ([1, 2], [-1, 1], [1]),  # group index outside the rank table
            ([1, 2], [-1, 0], [5]),  # rank outside the buckets
            ([1, 3], [-1, 0], [1]),  # end offset past the literals
        ],
    )
    def test_malformed_store_raises(self, ends, gids, rank):
        args = (
            array("q", [1, 2]),
            array("q", ends),
            array("q", gids),
            array("q", rank),
            array("q", [0, -7]),
        )
        with pytest.raises(ValueError, match="malformed clause store"):
            gather_clauses(*args)
        if ends[-1] <= 2:
            with pytest.raises(ValueError, match="malformed clause store"):
                _gather_python(*args)

    def test_literal_above_num_vars_raises(self):
        with pytest.raises(ValueError, match="above num_vars"):
            small_formula({}, hard=((1, 9),)).to_wcnf()

    def test_wcnf_hard_is_a_view(self):
        wcnf = small_formula({StatementGroup(1): [(2,)]}).to_wcnf()[0]
        wcnf.hard.append([5])
        assert len(wcnf.hard) == 3
        wcnf.add_hard([5])
        assert wcnf.hard[-1] == [5] and list(wcnf.hard_ends)[-1] == len(wcnf.hard_lits)

    @needs_c_gather
    def test_gather_backends_agree_on_random_stores(self):
        rng = random.Random(7)
        for _ in range(50):
            groups = {
                StatementGroup(rng.randint(1, 30), rng.choice("fg")): [
                    tuple(
                        rng.choice((-1, 1)) * rng.randint(1, 40)
                        for _ in range(rng.randint(1, 4))
                    )
                    for _ in range(rng.randint(0, 5))
                ]
                for _ in range(rng.randint(0, 8))
            }
            hard = [
                tuple(rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 6))
            ]
            formula = small_formula(groups, hard=hard, num_vars=40)
            assert_same_gather(formula)
            wcnf = assert_matches_legacy(formula, hard_groups={rng.randint(1, 30)})
            assert_same_load(wcnf)


class TestAddFlat:
    """``Solver.add_flat`` off the kernel path runs the per-clause mirror."""

    CLAUSES = [[1, 2], [-1, 3], [4], [-2, -3, 5], [-4, 6]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_layered_equals_add_clauses(self, backend):
        flat = array("l", [lit for clause in self.CLAUSES for lit in clause])
        ends = array("l")
        for clause in self.CLAUSES:
            ends.append((ends[-1] if ends else 0) + len(clause))
        states = []
        for via_flat in (True, False):
            solver = Solver(backend=backend)
            solver.add_clauses([[7, 8]])
            solver.push()
            if via_flat:
                solver.add_flat(flat, ends)
            else:
                solver.add_clauses(self.CLAUSES)
            assert solver.solve()
            model = solver.get_model()
            solver.pop()
            states.append((solver_state(solver), model))
        assert states[0] == states[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_literal_raises(self, backend):
        with pytest.raises(ValueError):
            Solver(backend=backend).add_flat(array("l", [1, 0]), array("l", [2]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_last_end_must_be_literal_count(self, backend):
        with pytest.raises(ValueError, match="literal count"):
            Solver(backend=backend).add_flat(array("l", [1, 2]), array("l", [3]))
