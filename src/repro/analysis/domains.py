"""The three abstract domains run by the analyzer.

* :class:`IntervalDomain` — per-variable value ranges, the workhorse.  It
  powers the range-narrowed encoding, the out-of-bounds / division-by-zero /
  overflow lints and dead-code detection (branch refinement makes provably
  untaken edges infeasible).  Function calls are resolved through
  context-insensitive summaries supplied by the interprocedural driver;
  global variables are read from a flow-insensitive global invariant.
* :class:`DefiniteInitDomain` — a must-analysis of definitely-assigned
  locals (join is intersection), powering the uninitialized-read lint for
  variables declared without an initializer.
* :class:`LiveLocalsDomain` — a may-analysis of live locals, solved over
  the reversed CFG, powering the dead-store lint.

All three share the mini-C scoping rule: a name is local if the function
declares it (or takes it as a parameter), global otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.intervals import Interval
from repro.cfg.defuse import function_local_names
from repro.cfg.graph import Edge, Node
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH, apply_binary

COMPARISON_OPS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass
class FunctionSummary:
    """Context-insensitive summary of one function: the join of argument
    intervals over every analyzed call site and the join of its returns."""

    params: dict[str, Interval] = field(default_factory=dict)
    returns: Interval = field(default_factory=Interval.bottom)


# ---------------------------------------------------------------- intervals


@dataclass
class IntervalState:
    """Scalar and array-cell intervals for one program point."""

    scalars: dict[str, Interval] = field(default_factory=dict)
    arrays: dict[str, Interval] = field(default_factory=dict)

    def copy(self) -> "IntervalState":
        return IntervalState(dict(self.scalars), dict(self.arrays))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalState)
            and self.scalars == other.scalars
            and self.arrays == other.arrays
        )


class IntervalDomain:
    """Interval analysis of one function body.

    The driver supplies the function's parameter intervals, the global
    invariant (scalar and array-cell intervals plus array sizes) and the
    summary table for callees.  While the worklist runs, the domain records
    the argument intervals it feeds into each call site and the values it
    stores into globals — the driver folds both back into the summaries and
    the invariant and re-runs until everything stabilizes.
    """

    def __init__(
        self,
        function: ast.Function,
        params: dict[str, Interval],
        global_scalars: dict[str, Interval],
        global_arrays: dict[str, Interval],
        array_sizes: dict[str, int],
        summaries: dict[str, FunctionSummary],
        width: int = DEFAULT_WIDTH,
    ) -> None:
        self.function = function
        self.params = params
        self.global_scalars = global_scalars
        self.global_arrays = global_arrays
        self.array_sizes = array_sizes
        self.summaries = summaries
        self.width = width
        self.locals = function_local_names(function)
        #: Joined argument intervals per callee, filled during the solve.
        self.call_arguments: dict[str, dict[str, Interval]] = {}
        #: Joined values stored into global scalars / array cells.
        self.global_scalar_writes: dict[str, Interval] = {}
        self.global_array_writes: dict[str, Interval] = {}
        #: Joined return-value interval.
        self.returned = Interval.bottom()

    def rebound(
        self,
        global_scalars: dict[str, Interval],
        global_arrays: dict[str, Interval],
        summaries: dict[str, FunctionSummary],
    ) -> "IntervalDomain":
        """A copy of this solved domain that reads another run's global
        invariant and summaries, with its own output tables — later
        evaluations (the collectors and lints) then leave this one as it
        is."""
        clone = object.__new__(IntervalDomain)
        clone.__dict__.update(
            self.__dict__,
            global_scalars=global_scalars,
            global_arrays=global_arrays,
            summaries=summaries,
            call_arguments={
                callee: dict(arguments)
                for callee, arguments in self.call_arguments.items()
            },
            global_scalar_writes=dict(self.global_scalar_writes),
            global_array_writes=dict(self.global_array_writes),
        )
        return clone

    # ------------------------------------------------------- domain protocol

    def entry_state(self) -> IntervalState:
        state = IntervalState()
        for name in self.function.params:
            state.scalars[name] = self.params.get(name, Interval.top(self.width))
        return state

    def join(self, a: IntervalState, b: IntervalState) -> IntervalState:
        return self._merge(a, b, Interval.join)

    def widen(self, a: IntervalState, b: IntervalState) -> IntervalState:
        return self._merge(a, b, lambda x, y: x.widen(y, self.width))

    def _merge(self, a: IntervalState, b: IntervalState, combine) -> IntervalState:
        out = IntervalState()
        for name in set(a.scalars) | set(b.scalars):
            in_a, in_b = name in a.scalars, name in b.scalars
            if in_a and in_b:
                out.scalars[name] = combine(a.scalars[name], b.scalars[name])
            # A variable tracked on only one side was declared inside one
            # branch; it is dead after the join in well-scoped programs, and
            # dropping it is the sound choice for the ones that are not.
        for name in set(a.arrays) | set(b.arrays):
            if name in a.arrays and name in b.arrays:
                out.arrays[name] = combine(a.arrays[name], b.arrays[name])
        return out

    def equal(self, a: IntervalState, b: IntervalState) -> bool:
        return a == b

    def transfer(self, node: Node, state: IntervalState) -> Optional[IntervalState]:
        stmt = node.stmt
        if stmt is None:
            return state
        state = state.copy()
        if isinstance(stmt, ast.VarDecl):
            value = self.eval(stmt.init, state) if stmt.init is not None else Interval.const(0, self.width)
            self._write_scalar(stmt.name, value, state, declare=True)
        elif isinstance(stmt, ast.ArrayDecl):
            cells = Interval.const(0, self.width) if len(stmt.init) < stmt.size else Interval.bottom()
            for expr in stmt.init:
                cells = cells.join(self.eval(expr, state))
            state.arrays[stmt.name] = cells
        elif isinstance(stmt, ast.Assign):
            self._write_scalar(stmt.name, self.eval(stmt.value, state), state)
        elif isinstance(stmt, ast.ArrayAssign):
            self.eval(stmt.index, state)
            value = self.eval(stmt.value, state)
            self._write_array(stmt.name, value, state)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returned = self.returned.join(self.eval(stmt.value, state))
        elif isinstance(stmt, ast.Assume):
            state = self.refine_condition(stmt.cond, True, state)
            if state is None:
                return None
        elif isinstance(stmt, (ast.Assert, ast.If, ast.While)):
            # Conditions are evaluated for their call side effects only; the
            # refinement happens along the outgoing edges.  Assertions do
            # not refine: the encoder explores executions past a failing
            # assertion, so assuming the condition would be unsound there.
            self.eval(stmt.cond, state)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, state)
        elif isinstance(stmt, ast.Print):
            self.eval(stmt.value, state)
        return state

    def refine_edge(self, edge: Edge, state: IntervalState) -> Optional[IntervalState]:
        if edge.cond is None:
            return state
        return self.refine_condition(edge.cond, edge.taken, state.copy())

    # ------------------------------------------------------------ evaluation

    def eval(self, expr: ast.Expr, state: IntervalState) -> Interval:
        """Abstract value of an expression (recording call arguments)."""
        width = self.width
        if isinstance(expr, ast.IntLiteral):
            return Interval.const(expr.value, width)
        if isinstance(expr, ast.VarRef):
            return self._read_scalar(expr.name, state)
        if isinstance(expr, ast.ArrayRef):
            index = self.eval(expr.index, state)
            cells = self._read_array(expr.name, state)
            size = self._array_size(expr.name)
            result = cells
            if size is None or index.empty or index.lo < 0 or index.hi >= size:
                result = result.join(Interval.const(0, width))  # OOB reads yield 0
            return result
        if isinstance(expr, ast.UnaryOp):
            operand = self.eval(expr.operand, state)
            if expr.op == "-":
                return operand.neg(width)
            if expr.op == "!":
                truth = operand.truth()
                if truth is None:
                    return Interval.boolean()
                return Interval.const(0 if truth else 1, width)
            return Interval.top(width)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, state)
        if isinstance(expr, ast.Conditional):
            cond = self.eval(expr.cond, state)
            truth = cond.truth()
            if truth is True:
                return self.eval(expr.then, state)
            if truth is False:
                return self.eval(expr.otherwise, state)
            return self.eval(expr.then, state).join(self.eval(expr.otherwise, state))
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        return Interval.top(width)

    def _eval_binary(self, expr: ast.BinaryOp, state: IntervalState) -> Interval:
        width = self.width
        left = self.eval(expr.left, state)
        right_needed = True
        if expr.op in ("&&", "||"):
            truth = left.truth()
            if expr.op == "&&" and truth is False:
                right_needed = False
                result = Interval.const(0, width)
            elif expr.op == "||" and truth is True:
                right_needed = False
                result = Interval.const(1, width)
        if not right_needed:
            return result
        right = self.eval(expr.right, state)
        if left.is_const and right.is_const:
            return Interval.const(
                apply_binary(expr.op, left.lo, right.lo, width), width
            )
        if expr.op == "+":
            return left.add(right, width)
        if expr.op == "-":
            return left.sub(right, width)
        if expr.op == "*":
            return left.mul(right, width)
        if expr.op == "/":
            return left.div(right, width)
        if expr.op == "%":
            return left.mod(right, width)
        if expr.op in COMPARISON_OPS:
            return left.compare(expr.op, right)
        if expr.op in ("&&", "||"):
            lt, rt = left.truth(), right.truth()
            if expr.op == "&&":
                if lt is True and rt is True:
                    return Interval.const(1, width)
                if lt is False or rt is False:
                    return Interval.const(0, width)
            else:
                if lt is True or rt is True:
                    return Interval.const(1, width)
                if lt is False and rt is False:
                    return Interval.const(0, width)
            return Interval.boolean()
        return Interval.top(width)

    def _eval_call(self, call: ast.Call, state: IntervalState) -> Interval:
        if call.name == "nondet":
            return Interval.top(self.width)
        summary = self.summaries.get(call.name)
        if summary is None:
            return Interval.top(self.width)
        callee_params = self._callee_params(call.name)
        arguments: dict[str, Interval] = {}
        for position, arg in enumerate(call.args):
            value = self.eval(arg, state)
            if position < len(callee_params):
                arguments[callee_params[position]] = value
        site = self.call_arguments.setdefault(call.name, {})
        for name, interval in arguments.items():
            site[name] = site.get(name, Interval.bottom()).join(interval)
        return summary.returns

    def _callee_params(self, name: str) -> tuple[str, ...]:
        summary = self.summaries.get(name)
        if summary is not None and summary.params:
            return tuple(summary.params)
        return ()

    # ------------------------------------------------------------ refinement

    def refine_condition(
        self, expr: ast.Expr, assumed: bool, state: IntervalState
    ) -> Optional[IntervalState]:
        """Refine ``state`` under ``truth(expr) == assumed``; ``None`` when
        the condition is provably impossible there (an infeasible edge)."""
        value = self.eval(expr, state)
        truth = value.truth()
        if truth is not None and truth != assumed:
            return None
        if isinstance(expr, ast.UnaryOp) and expr.op == "!":
            return self.refine_condition(expr.operand, not assumed, state)
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("&&", "||"):
                conjunction = (expr.op == "&&") == assumed
                if (expr.op == "&&" and assumed) or (expr.op == "||" and not assumed):
                    # Both conjuncts constrained the same way.
                    state = self.refine_condition(expr.left, assumed, state)
                    if state is None:
                        return None
                    return self.refine_condition(expr.right, assumed, state)
                del conjunction
                return state  # one of two disjuncts holds: nothing certain
            if expr.op in COMPARISON_OPS:
                op = expr.op if assumed else _negate_comparison(expr.op)
                return self._refine_comparison(expr.left, op, expr.right, state)
        if isinstance(expr, ast.VarRef):
            interval = self._read_scalar(expr.name, state)
            if assumed:
                refined = interval._trim(Interval.const(0, self.width))
            else:
                refined = interval.meet(Interval.const(0, self.width))
            if refined.empty:
                return None
            self._narrow_scalar(expr.name, refined, state)
            return state
        return state

    def _refine_comparison(
        self, left: ast.Expr, op: str, right: ast.Expr, state: IntervalState
    ) -> Optional[IntervalState]:
        left_val = self.eval(left, state)
        right_val = self.eval(right, state)
        left_refined, right_refined = left_val.refine(op, right_val)
        if left_refined.empty or right_refined.empty:
            return None
        if not self._refine_expr(left, left_val, left_refined, state):
            return None
        if not self._refine_expr(right, right_val, right_refined, state):
            return None
        return state

    def _refine_expr(
        self, expr: ast.Expr, old: Interval, new: Interval, state: IntervalState
    ) -> bool:
        """Push a tightened interval back through an expression.

        Handles variables directly and one level of arithmetic structure
        (``a + b``, ``a - b``, ``a * b`` with positive factors, ``-a``) so
        that e.g. ``assume(rows * cols <= 8)`` bounds both factors.  Only
        applies when the operation provably cannot wrap, since the backward
        rules reason in unbounded arithmetic.  Returns False when the state
        became infeasible.
        """
        if new.empty:
            return False
        if old.lo >= new.lo and old.hi <= new.hi:
            return True  # nothing tightened
        if isinstance(expr, ast.VarRef):
            current = self._read_scalar(expr.name, state)
            refined = current.meet(new)
            if refined.empty:
                return False
            self._narrow_scalar(expr.name, refined, state)
            return True
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            inner = self.eval(expr.operand, state)
            return self._refine_expr(expr.operand, inner, inner.meet(new.neg(self.width)), state)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*"):
            a = self.eval(expr.left, state)
            b = self.eval(expr.right, state)
            if a.empty or b.empty or a.overflow_possible(b, expr.op, self.width):
                return True
            if expr.op == "+":
                return self._refine_expr(
                    expr.left, a, a.meet(new.sub(b, self.width)), state
                ) and self._refine_expr(expr.right, b, b.meet(new.sub(a, self.width)), state)
            if expr.op == "-":
                return self._refine_expr(
                    expr.left, a, a.meet(new.add(b, self.width)), state
                ) and self._refine_expr(
                    expr.right, b, b.meet(a.sub(new, self.width)), state
                )
            if a.lo >= 1 and b.lo >= 1 and new.hi >= 1:
                # a * b <= hi with positive factors: a <= hi / b.lo etc.
                return self._refine_expr(
                    expr.left, a, a.meet(Interval(a.lo, new.hi // b.lo)), state
                ) and self._refine_expr(
                    expr.right, b, b.meet(Interval(b.lo, new.hi // a.lo)), state
                )
        return True

    # --------------------------------------------------------------- plumbing

    def _is_local(self, name: str) -> bool:
        return name in self.locals

    def _read_scalar(self, name: str, state: IntervalState) -> Interval:
        if self._is_local(name):
            return state.scalars.get(name, Interval.top(self.width))
        return self.global_scalars.get(name, Interval.top(self.width))

    def _read_array(self, name: str, state: IntervalState) -> Interval:
        if name in state.arrays:
            return state.arrays[name]
        return self.global_arrays.get(name, Interval.top(self.width))

    def _array_size(self, name: str) -> Optional[int]:
        return self.array_sizes.get(name)

    def _write_scalar(
        self, name: str, value: Interval, state: IntervalState, declare: bool = False
    ) -> None:
        if declare or self._is_local(name):
            state.scalars[name] = value
        else:
            self.global_scalar_writes[name] = (
                self.global_scalar_writes.get(name, Interval.bottom()).join(value)
            )

    def _narrow_scalar(self, name: str, value: Interval, state: IntervalState) -> None:
        """Refinements tighten locals in place; globals are left alone (the
        invariant is flow-insensitive, narrowing it would be unsound)."""
        if self._is_local(name):
            state.scalars[name] = value

    def _write_array(self, name: str, value: Interval, state: IntervalState) -> None:
        if name in state.arrays:  # weak update: cells join the stored value
            state.arrays[name] = state.arrays[name].join(value)
        else:
            self.global_array_writes[name] = (
                self.global_array_writes.get(name, Interval.bottom()).join(value)
            )

    def observed_intervals(
        self, states: dict[int, IntervalState]
    ) -> dict[str, Interval]:
        """Join of each variable's interval over the solved program points
        (array cells under the ``name[]`` key).  Computed from the final
        fixpoint, not during iteration, so transient pre-descending widened
        states do not pollute the result."""
        observed: dict[str, Interval] = {}
        for state in states.values():
            for name, interval in state.scalars.items():
                observed[name] = observed.get(name, Interval.bottom()).join(interval)
            for name, interval in state.arrays.items():
                key = f"{name}[]"
                observed[key] = observed.get(key, Interval.bottom()).join(interval)
        return observed


def _negate_comparison(op: str) -> str:
    return {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}[op]


# ------------------------------------------------------------ definite init


def _add_implicit_zero(statements: tuple[ast.Stmt, ...], names: set[str]) -> None:
    """Add the locals declared without an initializer in ``statements``."""
    for stmt in statements:
        if isinstance(stmt, ast.VarDecl) and stmt.init is None:
            names.add(stmt.name)
        elif isinstance(stmt, ast.If):
            _add_implicit_zero(stmt.then_body, names)
            _add_implicit_zero(stmt.else_body, names)
        elif isinstance(stmt, ast.While):
            _add_implicit_zero(stmt.body, names)


class DefiniteInitDomain:
    """Must-analysis of definitely-assigned locals.

    mini-C gives declaration-without-initializer a defined value (0), so a
    read before any explicit assignment is legal — but in the C programs
    these benchmarks model it would be undefined behaviour, which is why it
    is surfaced as a lint warning rather than an error.
    """

    def __init__(self, function: ast.Function) -> None:
        self.function = function
        #: Locals declared without an initializer anywhere in the body.
        self.implicit_zero: set[str] = set()
        _add_implicit_zero(function.body, self.implicit_zero)

    def entry_state(self) -> frozenset:
        return frozenset(self.function.params)

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def widen(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def equal(self, a: frozenset, b: frozenset) -> bool:
        return a == b

    def transfer(self, node: Node, state: frozenset) -> Optional[frozenset]:
        stmt = node.stmt
        if stmt is None:
            return state
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                return state | {stmt.name}
            return state - {stmt.name}  # redeclared: back to implicit zero
        if isinstance(stmt, ast.Assign):
            return state | {stmt.name}
        return state

    def refine_edge(self, edge: Edge, state: frozenset) -> Optional[frozenset]:
        return state


class LiveLocalsDomain:
    """May-analysis of live local variables, run over a reversed CFG.

    The forward solver on :meth:`~repro.cfg.graph.FunctionGraph.reversed_view`
    computes classic backward liveness: the state the solver reports *into*
    a node is the set of locals whose current value may still be read after
    the node executes.  A scalar store whose target is not in that set is a
    dead store (powering the ``dead-store`` lint).

    Only locals (parameters and declared variables) are tracked — a global
    is observable by callers after the function returns, so a store to it
    is never provably dead from inside one function.  An element store
    ``a[i] = v`` does not kill ``a`` (it redefines one cell), and any array
    read keeps the whole array live; whole-array precision is deliberately
    coarse but sound for a may-analysis.
    """

    def __init__(self, function: ast.Function) -> None:
        from repro.cfg.defuse import function_local_names as _locals

        self.function = function
        self.locals = frozenset(_locals(function))

    def entry_state(self) -> frozenset:
        # The reversed entry is the function exit: no local outlives it.
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def widen(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b  # finite lattice: the join already converges

    def equal(self, a: frozenset, b: frozenset) -> bool:
        return a == b

    def transfer(self, node: Node, state: frozenset) -> Optional[frozenset]:
        from repro.cfg.defuse import statement_uses

        stmt = node.stmt
        if stmt is None:
            return state
        # ``state`` is live-after in execution order; produce live-before.
        if isinstance(stmt, (ast.Assign, ast.VarDecl, ast.ArrayDecl)):
            state = state - {stmt.name}
        gen = statement_uses(stmt) & self.locals
        return state | gen

    def refine_edge(self, edge: Edge, state: frozenset) -> Optional[frozenset]:
        return state
