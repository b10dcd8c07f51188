"""The concolic tracer: concrete execution plus symbolic trace formula.

Given a program, a failing test input and a specification, the tracer
executes the program concretely on the test while emitting, for every
executed statement, the CNF clauses of that statement's transition relation
into the statement's clause group.  The test-input constraint and the
(violated) specification are emitted as hard clauses.  The result is the
extended trace formula of Section 2 of the paper, packaged as a
:class:`repro.encoding.TraceFormula`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.encoding.circuits import Bits, CircuitBuilder
from repro.encoding.context import ArenaEncodingContext, StatementGroup
from repro.encoding.symbolic import ExpressionEncoder, expression_has_effects
from repro.encoding.trace import TraceFormula, TraceStep
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH, apply_binary, apply_unary, truth, wrap
from repro.spec import Specification

#: Statements a trace may execute before it is abandoned as runaway.
MAX_STEPS = 200_000


class TraceError(RuntimeError):
    """Raised when a trace cannot be built (e.g. the test does not fail)."""


class _Return(Exception):
    """Internal non-local exit for return statements."""

    def __init__(self, concrete: Optional[int], symbolic: Optional[Bits]) -> None:
        super().__init__("return")
        self.concrete = concrete
        self.symbolic = symbolic


class _AssertionViolated(Exception):
    """Internal signal: the concrete run reached a failing assertion."""

    def __init__(self, line: int) -> None:
        super().__init__(f"assertion violated at line {line}")
        self.line = line


@dataclass
class _Frame:
    """One activation record with paired concrete and symbolic environments."""

    function: str
    concrete: dict[str, object] = field(default_factory=dict)
    symbolic: dict[str, object] = field(default_factory=dict)


class ConcolicTracer:
    """Builds extended trace formulas by concolic execution."""

    def __init__(
        self,
        program: ast.Program,
        width: int = DEFAULT_WIDTH,
        concrete_functions: Iterable[str] = (),
        loop_iteration_groups: bool = False,
        hard_functions: Iterable[str] = (),
        relevant_lines: Optional[Iterable[int]] = None,
        analysis_narrowing: bool = True,
    ) -> None:
        """Create a tracer.

        ``concrete_functions`` are executed concretely only (no clauses) —
        the concolic trace-reduction technique.  ``hard_functions`` are
        encoded but their statements are *not* candidate bug locations (their
        clauses are emitted as hard clauses), which is how the strncat
        example treats the C library implementation.  ``loop_iteration_groups``
        switches on the per-iteration selector variables of Section 5.2.
        ``relevant_lines`` restricts symbolic encoding to the given source
        lines (the slicing trace-reduction technique): assignments outside
        the slice are executed concretely and contribute no clauses.
        ``analysis_narrowing`` lets the abstract-interpretation pass narrow
        the bit-width of written values: statements whose value provably
        fits ``k < width`` bits get fresh vectors with the high bits pinned,
        which the circuit simplifier then folds through downstream uses.
        """
        self.program = program
        self.width = width
        self.concrete_functions = set(concrete_functions)
        self.hard_functions = set(hard_functions)
        self.loop_iteration_groups = loop_iteration_groups
        self.relevant_lines = set(relevant_lines) if relevant_lines is not None else None
        self.analysis_narrowing = analysis_narrowing

    # ------------------------------------------------------------------ API

    def trace(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
    ) -> TraceFormula:
        """Build the extended trace formula for a failing test.

        Raises :class:`TraceError` if the test does not actually violate the
        specification (the formula would not be unsatisfiable in that case).
        """
        self._context = ArenaEncodingContext(self.width)
        self._builder = CircuitBuilder(self._context)
        self._encoder = ExpressionEncoder(self._builder, self)
        self._steps: list[TraceStep] = []
        self._step_count = 0
        self._nondet_values = list(nondet_values)
        self._nondet_index = 0
        self._cache_stack: list[dict[int, int]] = [{}]
        self._frames: list[_Frame] = []
        self._loop_iterations: list[int] = []
        self._outputs_concrete: list[int] = []
        self._outputs_symbolic: list[Bits] = []
        self._test_inputs: dict[str, int] = {}
        self._current_function = entry

        function = self.program.function(entry)
        arguments = self._bind_inputs(function, inputs)
        self._write_intervals = None
        self._narrowed_vars = 0
        if self.analysis_narrowing:
            self._write_intervals = self._narrowing_table(entry, arguments)
        self._globals = self._initialize_globals()
        frame = _Frame(function=entry)
        for name, value in arguments.items():
            bits = self._builder.fresh()
            with self._context.group(None):
                self._builder.fix_to_value(bits, value)
            frame.concrete[name] = value
            frame.symbolic[name] = bits
            self._test_inputs[name] = value

        failing_line: Optional[int] = None
        return_concrete: Optional[int] = None
        return_symbolic: Optional[Bits] = None
        try:
            return_concrete, return_symbolic = self._call_function(function, frame)
        except _AssertionViolated as violation:
            failing_line = violation.line

        description = spec.describe()
        if spec.kind == "assertion":
            if failing_line is None:
                raise TraceError("the test does not violate any assertion")
        else:
            if failing_line is not None:
                # A crash before producing output still violates the spec; the
                # hard constraint is the assertion at the crash point, which
                # was already emitted by _exec_assert.
                pass
            else:
                observable = list(self._outputs_concrete)
                observable_symbolic = list(self._outputs_symbolic)
                if return_concrete is not None:
                    observable.append(return_concrete)
                    observable_symbolic.append(
                        return_symbolic
                        if return_symbolic is not None
                        else self._builder.const(return_concrete)
                    )
                expected = list(spec.expected)
                if spec.kind == "return-value":
                    observable = observable[-1:]
                    observable_symbolic = observable_symbolic[-1:]
                if observable == expected:
                    raise TraceError(
                        "the test does not violate the specification "
                        f"(observable output {observable} matches)"
                    )
                if len(observable_symbolic) != len(expected):
                    # Output length differs; constrain the common prefix and
                    # the mismatching positions we do have.
                    pass
                with self._context.group(None):
                    for bits, value in zip(observable_symbolic, expected):
                        self._builder.fix_to_value(bits, value)

        formula = TraceFormula.from_arena(
            self._context,
            steps=self._steps,
            test_inputs=self._test_inputs,
            assertion_description=description,
            narrowed_vars=self._narrowed_vars,
        )
        # The expression encoder refers back to this tracer; dropping it
        # lets the arena buffers be freed by reference counting instead of
        # waiting for the cyclic collector.
        self._encoder = None
        return formula

    def _narrowing_table(
        self, entry: str, arguments: Mapping[str, int]
    ) -> Optional[dict]:
        """The write intervals of the analysis pinned to this test, or
        ``None`` (full-width encoding) when the analysis raises or finds an
        ERROR that voids its intervals.

        Narrowing is an optimization: a failure is counted in
        ``repro_analysis_failures`` and named on the ``encode.analysis``
        span, which otherwise carries the run's solve counts and the solve
        table's size.  The ``unwind-insufficient`` lint does not gate: it
        judges the BMC's unrolling, and a concolic trace runs every
        iteration concretely.
        """
        from repro.analysis import analyze_program

        with obs.span("encode.analysis") as timed:
            try:
                analysis = analyze_program(
                    self.program, entry=entry, entry_inputs=arguments, width=self.width
                )
            except Exception as exc:  # noqa: BLE001 - reported, then skipped
                obs.REGISTRY.counter(
                    "repro_analysis_failures",
                    "Static analyses that raised; the compile went on unnarrowed",
                ).inc()
                timed.set(error=f"{type(exc).__name__}: {exc}")
                return None
            timed.set(
                solves=analysis.solves,
                solves_reused=analysis.solves_reused,
                products_reused=analysis.products_reused,
                table_solves=analysis.table_solves,
            )
        if any(d.code != "unwind-insufficient" for d in analysis.errors()):
            return None
        return analysis.write_intervals

    # ----------------------------------------------------- resolver protocol

    def read_scalar(self, name: str, line: int) -> Bits:
        frame = self._frame
        for scope in (frame.symbolic, self._globals.symbolic):
            if name in scope:
                value = scope[name]
                if isinstance(value, tuple):
                    return value
        raise TraceError(f"line {line}: read of undeclared variable {name!r}")

    def read_array(self, name: str, line: int) -> list[Bits]:
        frame = self._frame
        for scope in (frame.symbolic, self._globals.symbolic):
            if name in scope:
                value = scope[name]
                if isinstance(value, list):
                    return value
        raise TraceError(f"line {line}: read of undeclared array {name!r}")

    def encode_call(self, call: ast.Call) -> Bits:
        if call.name == "nondet":
            value = self._next_nondet()
            bits = self._builder.fresh()
            with self._context.group(None):
                self._builder.fix_to_value(bits, value)
            self._test_inputs[f"nondet#{self._nondet_index - 1}"] = value
            self._call_cache[id(call)] = value
            return bits
        callee = self.program.function(call.name)
        argument_values: dict[str, int] = {}
        argument_bits: dict[str, Bits] = {}
        force_binding = call.name in self.hard_functions
        for param, arg in zip(callee.params, call.args):
            bits = self._encoder.encode_argument(arg, force=force_binding)
            argument_bits[param] = bits
            argument_values[param] = self._concrete_eval(arg)
        if call.name in self.concrete_functions:
            value = self._execute_concretely(callee, argument_values)
            self._call_cache[id(call)] = value
            return self._builder.const(value)
        frame = _Frame(function=call.name)
        frame.concrete.update(argument_values)
        frame.symbolic.update(argument_bits)
        previous_function = self._current_function
        self._current_function = call.name
        try:
            concrete, symbolic = self._call_function(callee, frame)
        finally:
            self._current_function = previous_function
        concrete = concrete if concrete is not None else 0
        symbolic = symbolic if symbolic is not None else self._builder.const(0)
        self._call_cache[id(call)] = concrete
        return symbolic

    def concrete_value(self, expr: ast.Expr) -> Optional[int]:
        try:
            return self._concrete_eval(expr)
        except TraceError:
            return None


    # --------------------------------------------------------------- running

    def _call_function(
        self, function: ast.Function, frame: _Frame
    ) -> tuple[Optional[int], Optional[Bits]]:
        self._frames.append(frame)
        # A fresh frame starts outside any loop: a callee's statements must
        # not inherit the caller's iteration counter, or the same line would
        # land in different groups depending on the call site.
        previous_iterations = self._loop_iterations
        self._loop_iterations = []
        try:
            self._exec_block(function.body)
        except _Return as ret:
            return ret.concrete, ret.symbolic
        finally:
            self._frames.pop()
            self._loop_iterations = previous_iterations
        if function.returns_value:
            return 0, self._builder.const(0)
        return None, None

    @property
    def _frame(self) -> _Frame:
        return self._frames[-1]

    def _exec_block(self, statements: tuple[ast.Stmt, ...]) -> None:
        for stmt in statements:
            self._exec(stmt)

    def _make_group(self, line: int, kind: str) -> StatementGroup:
        iteration = None
        if self.loop_iteration_groups and self._loop_iterations:
            iteration = self._loop_iterations[-1]
        hard_context = self._current_function in self.hard_functions
        if hard_context:
            return None  # type: ignore[return-value]
        return StatementGroup(line=line, function=self._current_function, iteration=iteration)

    def _record(self, stmt: ast.Stmt, kind: str, description: str = "") -> None:
        iteration = self._loop_iterations[-1] if self._loop_iterations else None
        self._steps.append(
            TraceStep(
                line=stmt.line,
                function=self._current_function,
                kind=kind,
                iteration=iteration if self.loop_iteration_groups else None,
                description=description,
            )
        )

    def _tick(self) -> None:
        self._step_count += 1
        if self._step_count > MAX_STEPS:
            raise TraceError(f"trace exceeded {MAX_STEPS} steps")

    @property
    def _call_cache(self) -> dict[int, int]:
        """Call-value cache for the statement currently being encoded."""
        return self._cache_stack[-1]

    def _exec(self, stmt: ast.Stmt) -> None:
        self._tick()
        self._cache_stack.append({})
        try:
            self._dispatch(stmt)
        finally:
            self._cache_stack.pop()

    def _dispatch(self, stmt: ast.Stmt) -> None:
        if self.relevant_lines is not None and stmt.line not in self.relevant_lines:
            if self._exec_sliced_out(stmt):
                return
        if isinstance(stmt, ast.VarDecl):
            self._exec_assign_like(stmt, stmt.name, stmt.init, kind="decl")
        elif isinstance(stmt, ast.ArrayDecl):
            self._exec_array_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._exec_assign_like(stmt, stmt.name, stmt.value, kind="assign")
        elif isinstance(stmt, ast.ArrayAssign):
            self._exec_array_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt)
        elif isinstance(stmt, ast.Return):
            self._exec_return(stmt)
        elif isinstance(stmt, ast.Assert):
            self._exec_assert(stmt)
        elif isinstance(stmt, ast.Assume):
            self._exec_assume(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._exec_expr_stmt(stmt)
        elif isinstance(stmt, ast.Print):
            self._exec_print(stmt)
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"statement {type(stmt).__name__}")

    def _exec_sliced_out(self, stmt: ast.Stmt) -> bool:
        """Execute a statement outside the slice concretely only.

        The statement's effect on the concrete state is preserved (so the
        rest of the execution follows the same path) while its symbolic
        effect is a constant — no clauses, no clause group.  Returns ``True``
        when the statement was fully handled here; control-flow statements
        (branches, loops, returns, calls) return ``False`` because their
        children may still contain relevant lines.
        """
        if isinstance(stmt, (ast.Assign, ast.VarDecl)):
            value_expr = stmt.value if isinstance(stmt, ast.Assign) else stmt.init
            if value_expr is not None and expression_has_effects(value_expr):
                return False
            concrete = self._concrete_eval(value_expr) if value_expr is not None else 0
            self._store(
                stmt.name,
                concrete,
                self._builder.const(concrete),
                declare=isinstance(stmt, ast.VarDecl),
            )
            self._record(stmt, "sliced-out")
            return True
        if isinstance(stmt, ast.ArrayAssign):
            if expression_has_effects(stmt.index) or expression_has_effects(stmt.value):
                return False
            index = self._concrete_eval(stmt.index)
            value = self._concrete_eval(stmt.value)
            cells = self._lookup_array_concrete(stmt.name, stmt.line)
            symbolic = self._lookup_array_symbolic(stmt.name, stmt.line)
            if 0 <= index < len(cells):
                cells[index] = value
                symbolic[index] = self._builder.const(value)
            self._record(stmt, "sliced-out")
            return True
        if isinstance(stmt, (ast.Assume, ast.Print)):
            if isinstance(stmt, ast.Print):
                self._outputs_concrete.append(self._concrete_eval(stmt.value))
                self._outputs_symbolic.append(
                    self._builder.const(self._outputs_concrete[-1])
                )
            self._record(stmt, "sliced-out")
            return True
        return False

    # ----------------------------------------------------------- statements

    def _fresh_for_write(self, line: int) -> Bits:
        """A fresh vector for the value a statement writes — narrowed to the
        statically proven range when the analysis found one."""
        if self._write_intervals is not None:
            interval = self._write_intervals.get((self._current_function, line))
            if interval is not None:
                plan = interval.narrowing_plan(self.width)
                if plan is not None:
                    low_bits, signed = plan
                    self._narrowed_vars += self.width - low_bits
                    return self._builder.fresh_narrowed(low_bits, signed)
        return self._builder.fresh()

    def _check_write(self, line: int, concrete: int) -> None:
        """Soundness tripwire: the concrete value a narrowed statement writes
        must lie inside the interval the narrowing was derived from."""
        if __debug__ and self._write_intervals is not None:
            interval = self._write_intervals.get((self._current_function, line))
            assert interval is None or interval.contains(concrete), (
                f"analysis interval {interval} at {self._current_function}:"
                f"{line} does not contain traced value {concrete}"
            )

    def _exec_assign_like(
        self, stmt: ast.Stmt, name: str, value: Optional[ast.Expr], kind: str
    ) -> None:
        group = self._make_group(stmt.line, kind)
        with self._context.group(group):
            if value is not None:
                rhs_bits = self._encoder.encode(value)
            else:
                rhs_bits = self._builder.const(0)
            fresh = self._fresh_for_write(stmt.line)
            self._builder.assert_equal(fresh, rhs_bits)
        concrete = self._concrete_eval(value) if value is not None else 0
        self._check_write(stmt.line, concrete)
        self._store(name, concrete, fresh, declare=kind == "decl")
        self._record(stmt, kind, f"{name} = ...")

    def _exec_array_decl(self, stmt: ast.ArrayDecl) -> None:
        group = self._make_group(stmt.line, "decl")
        concrete_cells = [0] * stmt.size
        symbolic_cells: list[Bits] = []
        with self._context.group(group):
            for index in range(stmt.size):
                if index < len(stmt.init):
                    rhs_bits = self._encoder.encode(stmt.init[index])
                else:
                    rhs_bits = self._builder.const(0)
                fresh = self._fresh_for_write(stmt.line)
                self._builder.assert_equal(fresh, rhs_bits)
                symbolic_cells.append(fresh)
        for index in range(min(stmt.size, len(stmt.init))):
            concrete_cells[index] = self._concrete_eval(stmt.init[index])
        self._frame.concrete[stmt.name] = concrete_cells
        self._frame.symbolic[stmt.name] = symbolic_cells
        self._record(stmt, "decl", f"int {stmt.name}[{stmt.size}]")

    def _exec_array_assign(self, stmt: ast.ArrayAssign) -> None:
        group = self._make_group(stmt.line, "array-assign")
        cells = self._lookup_array_symbolic(stmt.name, stmt.line)
        with self._context.group(group):
            index_bits = self._encoder.encode(stmt.index)
            value_bits = self._encoder.encode(stmt.value)
            new_cells: list[Bits] = []
            constant_index = self._builder.constant_of(index_bits)
            for position, cell in enumerate(cells):
                if constant_index is not None:
                    chosen = value_bits if position == constant_index else cell
                else:
                    is_here = self._builder.equals(index_bits, self._builder.const(position))
                    chosen = self._builder.mux(is_here, value_bits, cell)
                fresh = self._fresh_for_write(stmt.line)
                self._builder.assert_equal(fresh, chosen)
                new_cells.append(fresh)
        concrete_index = self._concrete_eval(stmt.index)
        concrete_value = self._concrete_eval(stmt.value)
        concrete_cells = self._lookup_array_concrete(stmt.name, stmt.line)
        if 0 <= concrete_index < len(concrete_cells):
            concrete_cells[concrete_index] = concrete_value
        self._replace_array_symbolic(stmt.name, new_cells)
        self._record(stmt, "array-assign", f"{stmt.name}[...] = ...")

    def _exec_if(self, stmt: ast.If) -> None:
        group = self._make_group(stmt.line, "branch")
        with self._context.group(group):
            cond_lit = self._encoder.encode_bool(stmt.cond)
        taken = truth(self._concrete_eval(stmt.cond))
        with self._context.group(group):
            self._context.emit([cond_lit] if taken else [-cond_lit])
        self._record(stmt, "branch", f"if(...) taken={taken}")
        self._exec_block(stmt.then_body if taken else stmt.else_body)

    def _exec_while(self, stmt: ast.While) -> None:
        loop_key = len(self._loop_iterations)
        self._loop_iterations.append(1)
        try:
            while True:
                self._tick()
                self._cache_stack.append({})
                try:
                    group = self._make_group(stmt.line, "loop-guard")
                    with self._context.group(group):
                        cond_lit = self._encoder.encode_bool(stmt.cond)
                    taken = truth(self._concrete_eval(stmt.cond))
                    with self._context.group(group):
                        self._context.emit([cond_lit] if taken else [-cond_lit])
                    self._record(stmt, "loop-guard", f"while(...) taken={taken}")
                finally:
                    self._cache_stack.pop()
                if not taken:
                    break
                self._exec_block(stmt.body)
                self._loop_iterations[loop_key] += 1
        finally:
            self._loop_iterations.pop()

    def _exec_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self._record(stmt, "return")
            raise _Return(None, None)
        group = self._make_group(stmt.line, "return")
        with self._context.group(group):
            rhs_bits = self._encoder.encode(stmt.value)
            fresh = self._builder.fresh()
            self._builder.assert_equal(fresh, rhs_bits)
        concrete = self._concrete_eval(stmt.value)
        self._record(stmt, "return", "return ...")
        raise _Return(concrete, fresh)

    def _exec_assert(self, stmt: ast.Assert) -> None:
        # The condition is encoded in the hard context: if the assertion turns
        # out to be the violated one, the paper's post-condition "the assertion
        # holds at the end" must be hard.  For passing assertions the encoded
        # gates define auxiliary variables but add no constraint.
        with self._context.group(None):
            cond_lit = self._encoder.encode_bool(stmt.cond)
        concrete = truth(self._concrete_eval(stmt.cond))
        if concrete:
            self._record(stmt, "assert", "passed")
            return
        self._context.emit_hard([cond_lit])
        self._record(stmt, "assert", "failed")
        raise _AssertionViolated(stmt.line)

    def _exec_assume(self, stmt: ast.Assume) -> None:
        group = self._make_group(stmt.line, "assume")
        with self._context.group(group):
            cond_lit = self._encoder.encode_bool(stmt.cond)
        holds = truth(self._concrete_eval(stmt.cond))
        if not holds:
            raise TraceError(
                f"line {stmt.line}: assumption does not hold on the failing test"
            )
        with self._context.group(group):
            self._context.emit([cond_lit])
        self._record(stmt, "assume")

    def _exec_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        group = self._make_group(stmt.line, "call")
        with self._context.group(group):
            self._encoder.encode(stmt.expr)
        self._record(stmt, "call", f"{getattr(stmt.expr, 'name', '?')}(...)")

    def _exec_print(self, stmt: ast.Print) -> None:
        group = self._make_group(stmt.line, "print")
        with self._context.group(group):
            rhs_bits = self._encoder.encode(stmt.value)
            fresh = self._builder.fresh()
            self._builder.assert_equal(fresh, rhs_bits)
        concrete = self._concrete_eval(stmt.value)
        self._outputs_concrete.append(concrete)
        self._outputs_symbolic.append(fresh)
        self._record(stmt, "print", f"print_int -> {concrete}")

    # ------------------------------------------------------- concrete helpers

    def _bind_inputs(
        self, function: ast.Function, inputs: Sequence[int] | Mapping[str, int]
    ) -> dict[str, int]:
        if isinstance(inputs, Mapping):
            missing = [name for name in function.params if name not in inputs]
            if missing:
                raise ValueError(f"missing inputs for parameters {missing}")
            return {name: wrap(int(inputs[name]), self.width) for name in function.params}
        values = list(inputs)
        if len(values) != len(function.params):
            raise ValueError(
                f"{function.name} expects {len(function.params)} inputs, got {len(values)}"
            )
        return {
            name: wrap(int(value), self.width)
            for name, value in zip(function.params, values)
        }

    def _initialize_globals(self) -> _Frame:
        globals_frame = _Frame(function="<globals>")
        for decl in self.program.globals:
            if isinstance(decl, ast.VarDecl):
                value = 0
                if decl.init is not None:
                    value = self._static_eval(decl.init, globals_frame)
                globals_frame.concrete[decl.name] = value
                globals_frame.symbolic[decl.name] = self._builder_const_later(value)
            else:
                values = [0] * decl.size
                for index, expr in enumerate(decl.init):
                    values[index] = self._static_eval(expr, globals_frame)
                globals_frame.concrete[decl.name] = values
                globals_frame.symbolic[decl.name] = [
                    self._builder_const_later(value) for value in values
                ]
        return globals_frame

    def _builder_const_later(self, value: int) -> Bits:
        return self._builder.const(value)

    def _static_eval(self, expr: ast.Expr, globals_frame: _Frame) -> int:
        """Evaluate a global initializer (constants and earlier globals only)."""
        if isinstance(expr, ast.IntLiteral):
            return wrap(expr.value, self.width)
        if isinstance(expr, ast.VarRef):
            value = globals_frame.concrete.get(expr.name)
            if isinstance(value, int):
                return value
            raise TraceError(f"line {expr.line}: global initializer uses {expr.name!r}")
        if isinstance(expr, ast.UnaryOp):
            return apply_unary(expr.op, self._static_eval(expr.operand, globals_frame), self.width)
        if isinstance(expr, ast.BinaryOp):
            return apply_binary(
                expr.op,
                self._static_eval(expr.left, globals_frame),
                self._static_eval(expr.right, globals_frame),
                self.width,
            )
        raise TraceError(f"line {expr.line}: unsupported global initializer")

    def _store(self, name: str, concrete: int, symbolic: Bits, declare: bool) -> None:
        frame = self._frame
        if declare or name in frame.concrete:
            frame.concrete[name] = concrete
            frame.symbolic[name] = symbolic
        elif name in self._globals.concrete:
            self._globals.concrete[name] = concrete
            self._globals.symbolic[name] = symbolic
        else:
            frame.concrete[name] = concrete
            frame.symbolic[name] = symbolic

    def _lookup_array_symbolic(self, name: str, line: int) -> list[Bits]:
        for scope in (self._frame.symbolic, self._globals.symbolic):
            value = scope.get(name)
            if isinstance(value, list):
                return value
        raise TraceError(f"line {line}: undeclared array {name!r}")

    def _lookup_array_concrete(self, name: str, line: int) -> list[int]:
        for scope in (self._frame.concrete, self._globals.concrete):
            value = scope.get(name)
            if isinstance(value, list):
                return value
        raise TraceError(f"line {line}: undeclared array {name!r}")

    def _replace_array_symbolic(self, name: str, cells: list[Bits]) -> None:
        if isinstance(self._frame.symbolic.get(name), list):
            self._frame.symbolic[name] = cells
        else:
            self._globals.symbolic[name] = cells

    def _next_nondet(self) -> int:
        if self._nondet_index < len(self._nondet_values):
            value = self._nondet_values[self._nondet_index]
        else:
            value = 0
        self._nondet_index += 1
        return wrap(value, self.width)

    def _execute_concretely(self, function: ast.Function, arguments: dict[str, int]) -> int:
        """Run a designated function concretely only (concolic reduction)."""
        from repro.lang.interp import Interpreter, _State
        from repro.lang.interp import ExecutionResult

        interpreter = Interpreter(self.program, width=self.width, max_steps=MAX_STEPS)
        state = _State(ExecutionResult(), [], MAX_STEPS)
        before = {
            name: (list(value) if isinstance(value, list) else value)
            for name, value in self._globals.concrete.items()
        }
        value = interpreter._call(function, dict(arguments), self._globals.concrete, state)
        # Synchronise the symbolic view of any global the call modified: its
        # new value is a concrete constant from the perspective of the trace.
        for name, old in before.items():
            new = self._globals.concrete[name]
            if new == old:
                continue
            if isinstance(new, list):
                self._globals.symbolic[name] = [self._builder.const(cell) for cell in new]
            else:
                self._globals.symbolic[name] = self._builder.const(new)
        return value if value is not None else 0

    def _concrete_eval(self, expr: ast.Expr) -> int:
        """Concrete value of an expression, reusing already-executed calls."""
        if isinstance(expr, ast.IntLiteral):
            return wrap(expr.value, self.width)
        if isinstance(expr, ast.VarRef):
            for scope in (self._frame.concrete, self._globals.concrete):
                if expr.name in scope:
                    value = scope[expr.name]
                    if isinstance(value, int):
                        return value
            raise TraceError(f"line {expr.line}: undeclared variable {expr.name!r}")
        if isinstance(expr, ast.ArrayRef):
            index = self._concrete_eval(expr.index)
            cells = self._lookup_array_concrete(expr.name, expr.line)
            if 0 <= index < len(cells):
                return cells[index]
            return 0
        if isinstance(expr, ast.UnaryOp):
            return apply_unary(expr.op, self._concrete_eval(expr.operand), self.width)
        if isinstance(expr, ast.BinaryOp):
            left = self._concrete_eval(expr.left)
            if expr.op == "&&" and not truth(left):
                return 0
            if expr.op == "||" and truth(left):
                return 1
            right = self._concrete_eval(expr.right)
            return apply_binary(expr.op, left, right, self.width)
        if isinstance(expr, ast.Conditional):
            condition = self._concrete_eval(expr.cond)
            return self._concrete_eval(expr.then if truth(condition) else expr.otherwise)
        if isinstance(expr, ast.Call):
            if id(expr) in self._call_cache:
                return self._call_cache[id(expr)]
            raise TraceError(
                f"line {expr.line}: concrete value of call {expr.name}() requested "
                "before it was encoded"
            )
        raise TraceError(f"unsupported expression {type(expr).__name__}")
