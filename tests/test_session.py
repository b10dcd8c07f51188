"""Tests for the session API: solver/engine push-pop layers and
compile-once/localize-many equivalence with the per-test baseline."""

from __future__ import annotations

import pickle

import pytest

from repro.bmc import BoundedModelChecker
from repro.core import (
    BugAssistLocalizer,
    LocalizationSession,
    Specification,
    merge_reports,
)
from repro.lang import Interpreter, parse_program
from repro.maxsat import WCNF, make_engine
from repro.sat import Solver
from repro.serve.workers import ServeShardError

MOTIVATING = (
    "int Array[3] = {10, 20, 30};\n"
    "int testme(int index) {\n"
    "    if (index != 1) {\n"
    "        index = 2;\n"
    "    } else {\n"
    "        index = index + 2;\n"
    "    }\n"
    "    int i = index;\n"
    "    assert(i >= 0 && i < 3);\n"
    "    return Array[i];\n"
    "}\n"
    "int main(int index) { return testme(index); }\n"
)

CLASSIFY = (
    "int classify(int x) {\n"
    "    int big = 0;\n"
    "    if (x > 7) {\n"  # bug: spec wants threshold 10
    "        big = 1;\n"
    "    }\n"
    "    return big;\n"
    "}\n"
    "int main(int x) { return classify(x); }\n"
)


def fresh_engine_reference(
    program, inputs, spec, strategy="hitting-set", hard_lines=()
):
    """The per-test reference the session must match: a fresh
    whole-program encoding, WCNF and engine for one failing test."""
    checker = BoundedModelChecker(program, group_statements=True)
    formula = checker.encode_program_formula(inputs, spec)
    localizer = BugAssistLocalizer(
        program, strategy=strategy, mode="trace", hard_lines=hard_lines
    )
    return localizer.localize_trace(formula)


def classify_failing_tests():
    program = parse_program(CLASSIFY, name="classify")
    interpreter = Interpreter(program)
    failing = []
    for x in range(16):
        expected = 1 if x > 10 else 0
        if interpreter.run([x]).return_value != expected:
            failing.append(([x], Specification.return_value(expected)))
    assert failing
    return program, failing


ARITH = (
    "int main(int x) {\n"
    "    int a = x + 1;\n"
    "    int b = a * 2;\n"
    "    int c = b - x;\n"
    "    return c;\n"
    "}\n"
)


def arith_failing_tests():
    program = parse_program(ARITH, name="arith")
    return program, [([x], Specification.return_value(0)) for x in (2, 3)]


# --------------------------------------------------------------- solver push/pop


class TestSolverLayers:
    def test_retracted_units_really_gone(self):
        solver = Solver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.push()
        solver.add_clause([-x])
        assert solver.solve()
        assert solver.model_value(x) is False
        # Under the layer, assuming x must fail.
        assert not solver.solve([x])
        solver.pop()
        # After the pop the unit is gone: x may be true again.
        assert solver.solve([x])
        assert solver.model_value(x) is True

    def test_layers_nest_lifo(self):
        solver = Solver()
        x, y = solver.new_var(), solver.new_var()
        solver.push()
        solver.add_clause([x])
        solver.push()
        solver.add_clause([y])
        assert solver.solve()
        assert solver.model_value(x) is True and solver.model_value(y) is True
        solver.pop()  # retracts [y]
        assert solver.solve([-y])
        assert solver.model_value(x) is True
        solver.pop()  # retracts [x]
        assert solver.solve([-x, -y])

    def test_learnt_clauses_survive_pop(self):
        # A pigeonhole core in the base clauses forces real conflict
        # learning while the layer is open; the lemmas must survive the pop
        # and the solver must stay correct on both polarities.
        solver = Solver()
        vars_ = {(p, h): solver.new_var() for p in range(3) for h in range(2)}
        for p in range(3):
            solver.add_clause([vars_[(p, 0)], vars_[(p, 1)]])
        marker = solver.new_var()
        solver.push()
        # Inside the layer: the at-most-one constraints making it UNSAT.
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-vars_[(p1, h)], -vars_[(p2, h)]])
        assert not solver.solve()
        learnt_before = solver.stats.learnt_clauses
        assert learnt_before > 0
        solver.pop()
        # Without the layer the instance is satisfiable again, learnt
        # statistics intact and no stale constraint on the marker variable.
        assert solver.solve([marker])
        assert solver.stats.learnt_clauses == learnt_before
        assert solver.model_value(marker) is True

    def test_add_clause_under_kept_trail(self):
        # After a solve with assumptions the trail is kept; adding clauses
        # that are unit or conflicting under that trail must still be sound.
        solver = Solver()
        x, y, z = (solver.new_var() for _ in range(3))
        solver.add_clause([x, y, z])
        assert solver.solve([x, y])
        # Conflicting under the kept trail (x and y are assumed true).
        solver.add_clause([-x, -y])
        assert solver.solve([x])
        assert solver.model_value(y) is False
        assert not solver.solve([x, y])
        core = solver.unsat_core()
        assert set(core) <= {x, y}


# --------------------------------------------------------------- engine layers


def small_wcnf() -> WCNF:
    wcnf = WCNF()
    x, y = wcnf.new_var(), wcnf.new_var()
    wcnf.add_hard([x, y])
    wcnf.add_soft([x], label="x")
    wcnf.add_soft([y], label="y")
    return wcnf


class TestEngineLayers:
    @pytest.mark.parametrize("strategy", ["hitting-set", "msu3", "linear"])
    def test_layer_roundtrip_restores_cost(self, strategy):
        engine = make_engine(strategy)
        engine.load(small_wcnf())
        assert engine.solve_current().cost == 0
        engine.push_layer()
        engine.add_hard([-1])  # forces soft [x] to fall
        result = engine.solve_current()
        assert result.satisfiable and result.cost == 1
        assert "x" in result.falsified_labels
        engine.pop_layer()
        assert engine.solve_current().cost == 0

    @pytest.mark.parametrize("strategy", ["hitting-set", "msu3", "linear"])
    def test_pop_restores_retired_softs(self, strategy):
        engine = make_engine(strategy)
        engine.load(small_wcnf())
        engine.push_layer()
        engine.add_hard([-1])
        result = engine.solve_current()
        assert result.cost == 1
        engine.block(result.falsified)  # retires the fallen soft
        follow_up = engine.solve_current()
        # After blocking, either nothing soft is left to fall or the
        # instance is unsatisfiable under the layer.
        assert not follow_up.satisfiable or not follow_up.falsified
        engine.pop_layer()
        # The retired soft is active again and the blocking clause is gone.
        assert engine.solve_current().cost == 0
        assert all(binding.active for binding in engine._bindings)

    @pytest.mark.parametrize("strategy", ["hitting-set", "msu3", "linear"])
    def test_layered_engine_matches_fresh_engine(self, strategy):
        # Re-solving the same per-test layer on a reused engine must agree
        # with a freshly loaded engine on cost and falsified labels.
        reused = make_engine(strategy)
        reused.load(small_wcnf())
        for _ in range(3):
            reused.push_layer()
            reused.add_hard([-2])  # forces soft [y] to fall
            layered = reused.solve_current()
            reused.pop_layer()
            fresh = make_engine(strategy)
            wcnf = small_wcnf()
            wcnf.add_hard([-2])
            direct = fresh.solve(wcnf)
            assert layered.cost == direct.cost == 1
            assert set(layered.falsified_labels) == set(direct.falsified_labels)

    def test_unbalanced_pop_raises(self):
        engine = make_engine("hitting-set")
        engine.load(small_wcnf())
        with pytest.raises(RuntimeError):
            engine.pop_layer()


# ------------------------------------------------------------------- sessions


@pytest.fixture(scope="module")
def motivating_program():
    return parse_program(MOTIVATING, name="motivating")


class TestLocalizationSession:
    @pytest.mark.parametrize("strategy", ["hitting-set", "msu3", "linear"])
    def test_compiles_once_and_matches_per_test_localizer(
        self, motivating_program, strategy
    ):
        baseline = fresh_engine_reference(
            motivating_program, [1], Specification.assertion(), strategy=strategy
        )
        with LocalizationSession(motivating_program, strategy=strategy) as session:
            first = session.localize([1], Specification.assertion())
            second = session.localize([1], Specification.assertion())
        assert session.stats.encodings_built == 1
        assert session.stats.tests_localized == 2
        assert set(first.lines) == set(second.lines) == set(baseline.lines)
        assert [c.lines for c in first.candidates] == [
            c.lines for c in baseline.candidates
        ]

    def test_session_vs_pipeline_equivalence_on_batch(self):
        # Each later test runs on the solver the earlier ones left behind
        # (learnt clauses, activities, phases, slot order); its candidates
        # must still come out in the fresh engine's order.
        for program, failing in (classify_failing_tests(), arith_failing_tests()):
            baseline = merge_reports(
                program.name,
                [
                    fresh_engine_reference(program, inputs, spec)
                    for inputs, spec in failing
                ],
            )
            with LocalizationSession(program) as session:
                ranked = session.localize_batch(failing, program_name=program.name)
            assert ranked.ranked_lines == baseline.ranked_lines
            assert len(ranked.runs) == len(baseline.runs)
            for mine, theirs in zip(ranked.runs, baseline.runs):
                assert [c.lines for c in mine.candidates] == [
                    c.lines for c in theirs.candidates
                ]

    def test_process_executor_matches_serial(self):
        program, failing = classify_failing_tests()
        with LocalizationSession(program) as serial_session:
            serial = serial_session.localize_batch(failing)
        with LocalizationSession(program) as pool_session:
            pooled = pool_session.localize_batch(
                failing, executor="process", workers=2
            )
        assert pooled.ranked_lines == serial.ranked_lines
        assert [r.lines for r in pooled.runs] == [r.lines for r in serial.runs]

    def test_unknown_executor_rejected(self):
        program, failing = classify_failing_tests()
        with LocalizationSession(program) as session:
            with pytest.raises(ValueError):
                session.localize_batch(failing, executor="threads")

    def test_poisoned_test_in_pool_names_the_offender(self):
        # A test with the wrong arity makes its worker raise; the failure
        # must surface as ServeShardError naming the offending test, not as
        # a bare traceback.
        program, failing = classify_failing_tests()
        poisoned = failing[:2] + [([1, 2, 3], Specification.return_value(0))]
        with LocalizationSession(program) as session:
            with pytest.raises(ServeShardError) as excinfo:
                session.localize_batch(poisoned, executor="process", workers=2)
        message = str(excinfo.value)
        assert "[1, 2, 3]" in message          # the offending test's inputs
        assert "ValueError" in message         # the underlying cause survives

    def test_healthy_batch_unaffected_by_retry_machinery(self):
        program, failing = classify_failing_tests()
        with LocalizationSession(program) as serial_session:
            serial = serial_session.localize_batch(failing)
        with LocalizationSession(program) as pool_session:
            pooled = pool_session.localize_batch(failing, executor="process", workers=2)
        assert pooled.ranked_lines == serial.ranked_lines


class TestSessionPinning:
    def test_pin_blocks_close_until_unpinned(self, motivating_program):
        session = LocalizationSession(motivating_program)
        session.pin()
        assert session.pinned
        with pytest.raises(RuntimeError, match="pinned"):
            session.close()
        # Pinned sessions keep serving (the serve workers localize while
        # holding a pin so eviction sweeps cannot close them mid-request).
        report = session.localize([1], Specification.assertion())
        assert report.lines
        session.unpin()
        assert not session.pinned
        session.close()

    def test_unpin_without_pin_raises(self, motivating_program):
        session = LocalizationSession(motivating_program)
        with pytest.raises(RuntimeError):
            session.unpin()

    def test_pin_on_closed_session_raises(self, motivating_program):
        session = LocalizationSession(motivating_program)
        session.close()
        with pytest.raises(RuntimeError):
            session.pin()

    def test_localize_records_request_profile(self, motivating_program):
        with LocalizationSession(motivating_program) as session:
            session.localize([1], Specification.assertion())
            first = session.last_request_profile
            session.localize([1], Specification.assertion())
            second = session.last_request_profile
        assert first["sat_calls"] > 0 and first["propagations"] > 0
        # The profile is per-request (layer deltas), not cumulative: the
        # second identical request must not report the sum of both.
        assert second["sat_calls"] <= first["sat_calls"]

    def test_compiled_program_is_picklable(self, motivating_program):
        checker = BoundedModelChecker(motivating_program, group_statements=True)
        compiled = checker.compile_program()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.num_vars == compiled.num_vars
        assert clone.num_clauses == compiled.num_clauses
        session = LocalizationSession.from_compiled(clone)
        report = session.localize([1], Specification.assertion())
        assert session.stats.encodings_built == 0
        assert report.contains_line(6) or report.contains_line(3)

    def test_localize_test_rejects_other_entry(self, motivating_program):
        with LocalizationSession(motivating_program) as session:
            with pytest.raises(ValueError):
                session.localize_test([1], Specification.assertion(), entry="testme")

    def test_closed_session_rejects_work(self, motivating_program):
        session = LocalizationSession(motivating_program)
        with session:
            session.localize([1], Specification.assertion())
        with pytest.raises(RuntimeError):
            session.localize([1], Specification.assertion())


@pytest.mark.slow
class TestSessionOnTcas:
    def test_session_matches_baseline_on_tcas_version(self):
        from repro.siemens.suite import TCAS_HARNESS_LINES, classify_tcas_tests
        from repro.siemens.tcas import tcas_faulty_program

        failing, _ = classify_tcas_tests("v2", count=300)
        selected = failing[:3]
        program = tcas_faulty_program("v2")
        with LocalizationSession(
            program, hard_lines=TCAS_HARNESS_LINES
        ) as session:
            for vector, expected in selected:
                spec = Specification.return_value(expected)
                mine = session.localize(vector.as_list(), spec)
                theirs = fresh_engine_reference(
                    program, vector.as_list(), spec, hard_lines=TCAS_HARNESS_LINES
                )
                assert set(mine.lines) == set(theirs.lines)
        assert session.stats.encodings_built == 1


def _reference_phase_hints(compiled, test_inputs) -> dict[int, bool]:
    """The warm-start phases as a dict over the input and nondet bits: the
    second walk over the bits that the session made before it read the
    phases off the test's units."""
    from repro.lang.semantics import to_unsigned

    vectors = [
        (bits, test_inputs[name])
        for name, bits in compiled.input_bits.items()
        if name in test_inputs
    ]
    for index, bits in enumerate(compiled.nondet_bits):
        key = f"nondet#{index}"
        if key in test_inputs:
            vectors.append((bits, test_inputs[key]))
    hints: dict[int, bool] = {}
    true_lit = compiled.true_lit or 0
    for bits, value in vectors:
        pattern = to_unsigned(value, len(bits))
        for lit in bits:
            wanted = pattern & 1
            pattern >>= 1
            if lit == true_lit or lit == -true_lit:
                continue
            if lit > 0:
                hints[lit] = wanted == 1
            else:
                hints[-lit] = wanted == 0
    return hints


def test_phases_from_units_match_the_phase_dict(monkeypatch):
    """The saved phases a localization seeds from the input part of the
    test's units are byte-identical to the ones the dict of input bits
    gave, on every fourth TCAS version."""
    from repro.maxsat.engine import MaxSatEngine
    from repro.siemens import tcas_faulty_program
    from repro.siemens.faults import TCAS_FAULTS
    from repro.siemens.testgen import generate_tcas_tests

    def polarity(solver) -> bytearray:
        return bytearray(int(phase) for phase in solver._polarity)

    seeded: list[tuple] = []
    set_phases = MaxSatEngine.set_phases

    def recording_set_phases(engine, lits):
        before = polarity(engine._solver)
        set_phases(engine, lits)
        seeded.append((engine._solver, before, polarity(engine._solver)))

    monkeypatch.setattr(MaxSatEngine, "set_phases", recording_set_phases)
    vectors = generate_tcas_tests(40, seed=5)[-3:]
    changed = 0
    versions = TCAS_FAULTS[::4]
    assert len(versions) >= 10
    for fault in versions:
        with LocalizationSession(
            tcas_faulty_program(fault.name), max_candidates=1
        ) as session:
            for vector in vectors:
                seeded.clear()
                report = session.localize(
                    vector.as_list(), Specification.return_value(0)
                )
                ((solver, before, after),) = seeded
                expected = bytearray(before)
                hints = _reference_phase_hints(session.compiled, report.test_inputs)
                for var, value in hints.items():
                    if 1 <= var <= solver.num_vars:
                        expected[var] = int(bool(value))
                assert bytes(after) == bytes(expected)
                changed += after != before
    assert changed
