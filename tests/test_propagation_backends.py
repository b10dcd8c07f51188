"""Differential tests: root-level propagation, python versus c solvers.

The root-level propagation cases of the python-vs-c solver comparison
(random formulas, assumption sequences, incremental clause addition,
push/pop layers, budgeted probes, pigeonhole, a complete MaxSAT
localization) plus the flat-arena housekeeping checks.  The helpers, the
search-kernel cases and the ``REPRO_BACKEND`` feature checks live in
``test_search_backends.py``; every pair must agree exactly on answers,
models, assumption cores and statistics.

When the C core cannot be built (no compiler), the differential pairs are
skipped but the remainder of the suite — including everything else in
``tests/`` — still runs on the pure-Python fallback, which is the feature
check's guarantee.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import Solver
from test_search_backends import (
    C_AVAILABLE,
    _assert_all_same,
    _assert_localizations_identical,
    _pair,
    _pigeonhole,
    _random_instance,
    _run_in_subprocess,
    _stats_tuple,
    needs_c,
)


def _assert_same_outcome(py: Solver, cc: Solver, result_py, result_cc) -> None:
    _assert_all_same([py, cc], [result_py, result_cc])


@needs_c
class TestDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_formulas_identical(self, seed):
        clauses = _random_instance(seed, num_vars=14, num_clauses=56)
        py, cc = _pair()
        for clause in clauses:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        _assert_same_outcome(py, cc, py.solve(), cc.solve())

    @pytest.mark.parametrize("seed", range(12))
    def test_assumption_sequences_identical(self, seed):
        rng = random.Random(1000 + seed)
        clauses = _random_instance(2000 + seed, num_vars=12, num_clauses=44)
        py, cc = _pair()
        for clause in clauses:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        for _ in range(6):
            assumptions = [
                rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(rng.randint(0, 4))
            ]
            _assert_same_outcome(
                py, cc, py.solve(list(assumptions)), cc.solve(list(assumptions))
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_blocking_identical(self, seed):
        clauses = _random_instance(3000 + seed, num_vars=10, num_clauses=30)
        py, cc = _pair()
        for clause in clauses:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        for _ in range(8):
            result_py, result_cc = py.solve(), cc.solve()
            _assert_same_outcome(py, cc, result_py, result_cc)
            if not result_py:
                break
            model = py.get_model()
            blocking = [(-var if value else var) for var, value in model.items()][:10]
            if not blocking:
                break
            py.add_clause(list(blocking))
            cc.add_clause(list(blocking))

    @pytest.mark.parametrize("seed", range(8))
    def test_push_pop_layers_identical(self, seed):
        rng = random.Random(4000 + seed)
        base = _random_instance(5000 + seed, num_vars=10, num_clauses=24)
        py, cc = _pair()
        for clause in base:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        for _ in range(3):
            py.push()
            cc.push()
            for clause in _random_instance(rng.randint(0, 10_000), 10, 10):
                py.add_clause(list(clause))
                cc.add_clause(list(clause))
            _assert_same_outcome(py, cc, py.solve(), cc.solve())
            py.pop()
            cc.pop()
            _assert_same_outcome(py, cc, py.solve(), cc.solve())

    def test_pigeonhole_unsat_identical(self):
        py, cc = _pair()
        _pigeonhole(py, 4, 3)
        _pigeonhole(cc, 4, 3)
        _assert_same_outcome(py, cc, py.solve(), cc.solve())

    def test_localization_reports_identical(self, monkeypatch):
        """A branching program localizes bit-identically across backends."""
        source = (
            "int main(int x, int y) {\n"
            "    int m = x;\n"
            "    if (y > x) {\n"
            "        m = x;\n"
            "    }\n"
            "    return m;\n"
            "}\n"
        )
        _assert_localizations_identical(monkeypatch, source, [2, 7], 7)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=30,
    )
)
def test_hypothesis_differential(clauses):
    if not C_AVAILABLE:
        pytest.skip("C propagation core unavailable")
    py, cc = _pair()
    for clause in clauses:
        py.add_clause(list(clause))
        cc.add_clause(list(clause))
    _assert_same_outcome(py, cc, py.solve(), cc.solve())


class TestFeatureCheck:
    def test_python_backend_always_constructible(self):
        solver = Solver(backend="python")
        solver.add_clause([1, 2])
        assert solver.solve()
        assert solver.backend == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Solver(backend="fortran")

    def test_env_forces_python_fallback(self):
        """REPRO_BACKEND=python pins the fallback in a fresh process."""
        script = (
            "from repro.sat import propagation_backend, Solver\n"
            "assert propagation_backend() == 'python'\n"
            "s = Solver()\n"
            "assert s.backend == 'python'\n"
            "s.add_clause([1]); assert s.solve()\n"
            "print('ok')\n"
        )
        result = _run_in_subprocess(script, REPRO_BACKEND="python")
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    @needs_c
    def test_env_requires_c_core(self):
        script = (
            "from repro.sat import propagation_backend\n"
            "assert propagation_backend() == 'c'\n"
            "print('ok')\n"
        )
        result = _run_in_subprocess(script, REPRO_BACKEND="c")
        assert result.returncode == 0, result.stderr


class TestArenaHousekeeping:
    """The flat-arena layout's garbage handling, on the always-on backend."""

    def test_compaction_preserves_answers(self):
        solver = Solver(backend="python")
        rng = random.Random(9)
        # Pile up layers so pops create enough garbage to force compaction.
        for _ in range(60):
            solver.push()
            for clause in _random_instance(rng.randint(0, 10_000), 30, 120):
                solver.add_clause(clause)
            solver.solve()
            solver.pop()
        # Force a compaction regardless of the trigger heuristics.
        solver._compact()
        assert solver._garbage == 0
        clauses = _random_instance(123, num_vars=12, num_clauses=40)
        reference = Solver(backend="python")
        for clause in clauses:
            solver.add_clause([lit + 0 for lit in clause])
            reference.add_clause(list(clause))
        assert solver.solve() == reference.solve()

    def test_pop_frees_layer_clauses(self):
        solver = Solver(backend="python")
        solver.add_clause([1, 2])
        solver.push()  # allocates the layer's selector (variable 3)
        # Stay clear of the selector variable so the clauses really attach
        # (a clause mentioning it would be dropped as a tautology).
        for _ in range(5):
            solver.add_clause([4, 5, 6])
        added = solver._arena_len
        assert solver.solve()
        solver.pop()
        # The popped layer's clauses are dead arena spans now (compaction
        # compares against the *logical* length, which physical slack for
        # the C kernel may exceed).
        assert solver._garbage > 0 or solver._arena_len < added
        assert solver.solve()
