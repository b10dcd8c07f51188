"""Tests for the circuit builder and the bit-precise expression encoding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import CircuitBuilder, ArenaEncodingContext, StatementGroup
from repro.lang.semantics import apply_binary, wrap
from repro.sat import Solver

WIDTH = 8


def make_builder(width: int = WIDTH) -> tuple[ArenaEncodingContext, CircuitBuilder]:
    context = ArenaEncodingContext(width)
    return context, CircuitBuilder(context)


def solve_with(context: ArenaEncodingContext) -> Solver:
    solver = Solver()
    solver.ensure_vars(context.num_vars)
    for clause in context.hard:
        solver.add_clause(clause)
    for clauses in context.groups.values():
        for clause in clauses:
            solver.add_clause(clause)
    return solver


def evaluate(builder: CircuitBuilder, context: ArenaEncodingContext, bits) -> int:
    solver = solve_with(context)
    assert solver.solve()
    return builder.decode(bits, solver.get_model())


class TestContext:
    def test_clause_routing(self):
        context = ArenaEncodingContext(4)
        context.emit([1])
        group = StatementGroup(line=7, function="main")
        with context.group(group):
            context.emit([2])
            context.emit_hard([3])
        context.emit([4])
        assert [1] in context.hard
        assert [3] in context.hard
        assert [4] in context.hard
        assert context.groups[group] == [[2]]
        assert context.num_clauses == 4

    def test_true_literal_is_hard(self):
        context = ArenaEncodingContext(4)
        group = StatementGroup(line=1)
        with context.group(group):
            lit = context.true_lit
        assert [lit] in context.hard

    def test_group_describe(self):
        group = StatementGroup(line=12, function="f", iteration=3)
        text = group.describe()
        assert "12" in text and "f()" in text and "3" in text


class TestConstants:
    def test_const_round_trip(self):
        context, builder = make_builder()
        for value in (0, 1, -1, 127, -128, 42):
            assert builder.constant_of(builder.const(value)) == value

    def test_fix_to_value_and_decode(self):
        context, builder = make_builder()
        bits = builder.fresh()
        builder.fix_to_value(bits, -37)
        assert evaluate(builder, context, bits) == -37

    def test_decode_of_constant_needs_no_model_entries(self):
        context, builder = make_builder()
        bits = builder.const(99)
        assert builder.decode(bits, {}) == 99


class TestArithmeticCircuits:
    @pytest.mark.parametrize("op", ["+", "-", "*"])
    @pytest.mark.parametrize(
        "left,right", [(3, 4), (-3, 7), (120, 9), (-128, -1), (15, -15), (0, 0)]
    )
    def test_binary_ops_match_reference(self, op, left, right):
        context, builder = make_builder()
        a = builder.fresh()
        b = builder.fresh()
        builder.fix_to_value(a, left)
        builder.fix_to_value(b, right)
        if op == "+":
            out = builder.add(a, b)
        elif op == "-":
            out = builder.sub(a, b)
        else:
            out = builder.multiply(a, b)
        assert evaluate(builder, context, out) == apply_binary(op, left, right, WIDTH)

    @pytest.mark.parametrize(
        "left,right", [(7, 2), (-7, 2), (7, -2), (-7, -2), (100, 9), (5, 0), (0, 3)]
    )
    def test_division_and_modulo(self, left, right):
        context, builder = make_builder()
        a = builder.fresh()
        b = builder.fresh()
        builder.fix_to_value(a, left)
        builder.fix_to_value(b, right)
        quotient, remainder = builder.divmod(a, b)
        assert evaluate(builder, context, quotient) == apply_binary("/", left, right, WIDTH)
        assert evaluate(builder, context, remainder) == apply_binary("%", left, right, WIDTH)

    @pytest.mark.parametrize(
        "left,right",
        [(3, 4), (4, 3), (-3, 4), (4, -3), (-5, -5), (127, -128), (-128, 127), (0, 0)],
    )
    def test_signed_comparisons(self, left, right):
        context, builder = make_builder()
        a = builder.fresh()
        b = builder.fresh()
        builder.fix_to_value(a, left)
        builder.fix_to_value(b, right)
        less = builder.bool_to_bits(builder.signed_less(a, b))
        less_equal = builder.bool_to_bits(builder.signed_less_equal(a, b))
        equal = builder.bool_to_bits(builder.equals(a, b))
        assert evaluate(builder, context, less) == int(left < right)
        assert evaluate(builder, context, less_equal) == int(left <= right)
        assert evaluate(builder, context, equal) == int(left == right)

    def test_mux(self):
        context, builder = make_builder()
        selector = context.new_var()
        a = builder.const(11)
        b = builder.const(22)
        out = builder.mux(selector, a, b)
        context.emit([selector])
        assert evaluate(builder, context, out) == 11

    def test_negate_and_absolute(self):
        context, builder = make_builder()
        value = builder.fresh()
        builder.fix_to_value(value, -77)
        assert evaluate(builder, context, builder.negate(value)) == 77
        assert evaluate(builder, context, builder.absolute(value)) == 77

    def test_constant_folding_emits_no_clauses(self):
        context, builder = make_builder()
        before = context.num_clauses
        out = builder.add(builder.const(3), builder.const(4))
        assert builder.constant_of(out) == 7
        # Only the true-literal unit clause may have been added.
        assert context.num_clauses <= before + 1


@settings(max_examples=60, deadline=None)
@given(
    left=st.integers(min_value=-128, max_value=127),
    right=st.integers(min_value=-128, max_value=127),
    op=st.sampled_from(["+", "-", "*", "<", "<=", ">", ">=", "==", "!="]),
)
def test_circuits_agree_with_semantics(left, right, op):
    context, builder = make_builder()
    a = builder.fresh()
    b = builder.fresh()
    builder.fix_to_value(a, left)
    builder.fix_to_value(b, right)
    if op == "+":
        out = builder.add(a, b)
    elif op == "-":
        out = builder.sub(a, b)
    elif op == "*":
        out = builder.multiply(a, b)
    elif op == "<":
        out = builder.bool_to_bits(builder.signed_less(a, b))
    elif op == "<=":
        out = builder.bool_to_bits(builder.signed_less_equal(a, b))
    elif op == ">":
        out = builder.bool_to_bits(builder.signed_less(b, a))
    elif op == ">=":
        out = builder.bool_to_bits(builder.signed_less_equal(b, a))
    elif op == "==":
        out = builder.bool_to_bits(builder.equals(a, b))
    else:
        out = builder.bool_to_bits(-builder.equals(a, b))
    expected = apply_binary(op, wrap(left, WIDTH), wrap(right, WIDTH), WIDTH)
    assert evaluate(builder, context, out) == expected
