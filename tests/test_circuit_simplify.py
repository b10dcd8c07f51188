"""Property-based equivalence suite for the circuit simplifier.

Random bit-vector expressions are encoded twice — with the structure-hashed
simplifier on and off — and both circuits are checked against the concrete
semantics of :mod:`repro.lang.interp` on sampled inputs, including overflow
and negative-operand cases.  The simplified encoding must agree bit for bit
with both the legacy encoding and the interpreter, and must never be
larger than the legacy one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.circuits import CircuitBuilder
from repro.encoding.context import ArenaEncodingContext
from repro.encoding.symbolic import ExpressionEncoder
from repro.lang import ast, parse_program
from repro.lang.interp import Interpreter
from repro.lang.semantics import DEFAULT_WIDTH
from repro.sat import Solver

VARIABLES = ("a", "b", "c")

#: Operators exercised by the random expression generator.  Division and
#: modulo are included (C-style truncation, division by zero handled by the
#: circuits' b==0 guard, mirroring the interpreter).
BINARY_OPS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||")
UNARY_OPS = ("-", "!")

#: Inputs stressed on every expression: zero, small values, negatives, and
#: the overflow boundary of the default 16-bit width.
BOUNDARY_INPUTS = (
    (0, 0, 0),
    (1, -1, 2),
    (-5, 7, -11),
    (255, -256, 129),
    (32767, -32768, -1),
    (-32768, -32768, 32767),
    (1000, 3000, -473),
)


def random_expression(rng: random.Random, depth: int) -> ast.Expr:
    """A random expression tree over the variables ``a``, ``b``, ``c``."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.55:
            return ast.VarRef(line=1, name=rng.choice(VARIABLES))
        return ast.IntLiteral(line=1, value=rng.randint(-40, 40))
    shape = rng.random()
    if shape < 0.15:
        return ast.UnaryOp(
            op=rng.choice(UNARY_OPS),
            operand=random_expression(rng, depth - 1),
            line=1,
        )
    if shape < 0.25:
        return ast.Conditional(
            cond=random_expression(rng, depth - 1),
            then=random_expression(rng, depth - 1),
            otherwise=random_expression(rng, depth - 1),
            line=1,
        )
    return ast.BinaryOp(
        op=rng.choice(BINARY_OPS),
        left=random_expression(rng, depth - 1),
        right=random_expression(rng, depth - 1),
        line=1,
    )


def render(expr: ast.Expr) -> str:
    """Render an expression tree back to mini-C source."""
    if isinstance(expr, ast.IntLiteral):
        if expr.value < 0:
            return f"(0 - {-expr.value})"
        return str(expr.value)
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "-":
            return f"(0 - {render(expr.operand)})"
        return f"(!{render(expr.operand)})"
    if isinstance(expr, ast.BinaryOp):
        return f"({render(expr.left)} {expr.op} {render(expr.right)})"
    if isinstance(expr, ast.Conditional):
        return f"({render(expr.cond)} ? {render(expr.then)} : {render(expr.otherwise)})"
    raise NotImplementedError(type(expr).__name__)


class _VectorResolver:
    """Resolver mapping the three free variables to fixed bit-vectors."""

    def __init__(self, vectors):
        self.vectors = vectors

    def read_scalar(self, name, line):
        return self.vectors[name]

    def read_array(self, name, line):  # pragma: no cover - no arrays generated
        raise KeyError(name)

    def encode_call(self, call):  # pragma: no cover - no calls generated
        raise NotImplementedError

    def concrete_value(self, expr):
        return None


def encode_expression(expr: ast.Expr, simplify: bool):
    """Encode ``expr`` over fresh inputs; returns (context, builder, inputs, out)."""
    context = ArenaEncodingContext(DEFAULT_WIDTH)
    builder = CircuitBuilder(context, simplify=simplify)
    vectors = {name: builder.fresh() for name in VARIABLES}
    encoder = ExpressionEncoder(builder, _VectorResolver(vectors))
    out = encoder.encode(expr)
    return context, builder, vectors, out


def evaluate_circuit(expr: ast.Expr, simplify: bool, inputs) -> int:
    context, builder, vectors, out = encode_expression(expr, simplify)
    for name, value in zip(VARIABLES, inputs):
        builder.fix_to_value(vectors[name], value)
    solver = Solver()
    solver.ensure_vars(context.num_vars)
    for clause in context.hard:
        solver.add_clause(clause)
    assert solver.solve(), "circuit with pinned inputs must be satisfiable"
    return builder.decode(out, solver.get_model())


def interpret(expr: ast.Expr, inputs) -> int:
    source = f"int main(int a, int b, int c) {{ return {render(expr)}; }}\n"
    program = parse_program(source, name="prop-check")
    return Interpreter(program).run(list(inputs)).return_value


@pytest.mark.parametrize("seed", range(40))
def test_simplified_circuits_match_interpreter(seed):
    rng = random.Random(seed)
    expr = random_expression(rng, depth=3)
    sampled = [tuple(rng.randint(-40000, 40000) for _ in range(3)) for _ in range(2)]
    for inputs in list(BOUNDARY_INPUTS[:3]) + sampled:
        expected = interpret(expr, inputs)
        plain = evaluate_circuit(expr, False, inputs)
        simplified = evaluate_circuit(expr, True, inputs)
        assert plain == expected, (render(expr), inputs)
        assert simplified == expected, (render(expr), inputs)


@pytest.mark.parametrize("seed", range(40, 52))
def test_simplifier_never_grows_the_circuit(seed):
    rng = random.Random(seed)
    expr = random_expression(rng, depth=4)
    context_plain, _, _, _ = encode_expression(expr, simplify=False)
    context_simplified, _, _, _ = encode_expression(expr, simplify=True)
    assert len(context_simplified.hard) <= len(context_plain.hard)
    assert context_simplified.num_vars <= context_plain.num_vars


def test_overflow_and_negative_operands_explicitly():
    cases = [
        ("(a * b)", (32767, 2, 0)),
        ("(a * b)", (-32768, -1, 0)),
        ("(a + b)", (32767, 1, 0)),
        ("(a - b)", (-32768, 1, 0)),
        ("(a / b)", (-7, 2, 0)),
        ("(a / b)", (7, -2, 0)),
        ("(a % b)", (-7, 2, 0)),
        ("(a % b)", (7, 0, 0)),  # division by zero: guarded semantics
        ("(a / b)", (-32768, -1, 0)),  # overflowing quotient
        ("(a < b)", (-32768, 32767, 0)),
        ("((a * a) * a)", (1000, 0, 0)),
    ]
    for text, inputs in cases:
        source = f"int main(int a, int b, int c) {{ return {text}; }}\n"
        program = parse_program(source, name="edge-check")
        expr = program.function("main").body[0].value
        expected = Interpreter(program).run(list(inputs)).return_value
        assert evaluate_circuit(expr, False, inputs) == expected, (text, inputs)
        assert evaluate_circuit(expr, True, inputs) == expected, (text, inputs)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    inputs=st.tuples(
        st.integers(min_value=-(2**15), max_value=2**15 - 1),
        st.integers(min_value=-(2**15), max_value=2**15 - 1),
        st.integers(min_value=-(2**15), max_value=2**15 - 1),
    ),
)
def test_hypothesis_expression_equivalence(seed, inputs):
    rng = random.Random(seed)
    expr = random_expression(rng, depth=3)
    expected = interpret(expr, inputs)
    assert evaluate_circuit(expr, True, inputs) == expected, (render(expr), inputs)
