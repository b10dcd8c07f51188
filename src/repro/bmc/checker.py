"""Whole-program bounded model checking over the mini-C language.

The checker symbolically executes the entry function with *guarded updates*:
every statement is encoded under a path-guard literal, assignments become
multiplexers between the new and old value, loops are unrolled up to the
``unwind`` bound (with a CBMC-style unwinding assumption that the loop has
terminated), and function calls are inlined up to :data:`MAX_CALL_DEPTH`.

Three front doors are provided:

* :meth:`BoundedModelChecker.find_counterexample` — the CBMC role in
  Section 4.1: find a concrete input violating some assertion.
* :meth:`BoundedModelChecker.compile_program` — encode "the entire boolean
  representation of the program" (Section 6.2) once, *without* any test
  baked in, as a reusable :class:`~repro.bmc.compiled.CompiledProgram`
  artifact; the session API localizes many failing tests against it.
* :meth:`BoundedModelChecker.encode_program_formula` — the one-shot
  convenience: compile and immediately pin one failing test plus the
  post-condition, yielding the extended trace formula used for the TCAS
  experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.bmc.compiled import CompiledProgram
from repro.encoding.arena import HDR_TRUE
from repro.encoding.circuits import Bits, CircuitBuilder
from repro.encoding.context import ArenaEncodingContext, StatementGroup
from repro.encoding.symbolic import ExpressionEncoder
from repro.encoding.trace import TraceFormula, TraceStep
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH
from repro.sat import Solver
from repro.spec import Specification

#: Call-stack depth beyond which a call's result is left unconstrained
#: (the inlining bound for recursion).
MAX_CALL_DEPTH = 24


@dataclass
class Counterexample:
    """A concrete failing test found by bounded model checking."""

    inputs: dict[str, int]
    nondet_values: list[int]
    violated_line: int

    def as_test(self) -> list[int]:
        """Input values in entry-function parameter order."""
        return list(self.inputs.values())


@dataclass
class _Frame:
    """Symbolic activation record for the guarded-update encoding."""

    function: str
    variables: dict[str, object] = field(default_factory=dict)
    active: int = 0  # literal: "this frame has not returned yet"
    return_value: Optional[Bits] = None


class BoundedModelChecker:
    """Bit-precise whole-program encoding, assertion checking and formulas."""

    def __init__(
        self,
        program: ast.Program,
        width: int = DEFAULT_WIDTH,
        unwind: int = 16,
        group_statements: bool = False,
        hard_functions: Iterable[str] = (),
        analysis_narrowing: bool = True,
        unwind_planning: bool = False,
        loop_iteration_groups: bool = False,
    ) -> None:
        """Configure the checker.

        With ``group_statements`` the clauses of every statement are routed
        into a per-line clause group (needed for localization); functions in
        ``hard_functions`` keep their clauses hard (library code that is not
        a candidate bug location).  ``analysis_narrowing`` lets the
        abstract-interpretation pass (:mod:`repro.analysis`) narrow the
        bit-width of written values whose range is statically bounded; the
        flow-insensitive table is used, which stays sound under the guarded
        encoding (off-path rhs values are covered by the variable domains).
        ``unwind_planning`` consumes the loop-bound pass: loops with a
        proven trip-count bound unroll exactly that many times (dropping
        the unwinding assumption) instead of the flat global ``unwind``.
        ``loop_iteration_groups`` gives every unrolled loop iteration its
        own clause group per statement, so candidates carry a
        ``(line, iteration)`` pair (the Section 5.2 loop extension).
        """
        self.program = program
        self.width = width
        self.unwind = unwind
        self.group_statements = group_statements
        self.hard_functions = set(hard_functions)
        self.analysis_narrowing = analysis_narrowing
        self.unwind_planning = unwind_planning
        self.loop_iteration_groups = loop_iteration_groups
        #: Per-loop unwind plans ``(function, guard line) -> (bound, proven)``;
        #: seeded by :meth:`_encode`.
        self._unwind_plans: dict[tuple[str, int], tuple[int, bool]] = {}
        #: 1-based unrolling indices of the loops currently being encoded
        #: within the innermost function frame.
        self._loop_stack: list[int] = []
        #: Analysis result per entry function (``None`` when it failed).
        self._analyses: dict[str, object] = {}

    # ------------------------------------------------------------------ API

    def compile_options(self, entry: str = "main") -> dict:
        """The encoding options that determine the compiled CNF.

        Stored inside every artifact, so a session adopting the artifact
        reads its settings back.
        """
        return {
            "entry": entry,
            "width": self.width,
            "unwind": self.unwind,
            "group_statements": self.group_statements,
            "hard_functions": tuple(sorted(self.hard_functions)),
            "analysis_narrowing": self.analysis_narrowing,
            "unwind_planning": self.unwind_planning,
            "loop_iteration_groups": self.loop_iteration_groups,
        }

    def find_counterexample(self, entry: str = "main") -> Optional[Counterexample]:
        """Return a failing test for some assertion, or ``None`` within the bound."""
        input_bits, _ = self._encode(entry)
        builder = self._builder
        if not self._violations:
            return None
        solver = Solver()
        solver.ensure_vars(self._context.num_vars)
        solver.add_clauses(
            chain(
                self._context.hard,
                *self._context.groups.values(),
                [[lit for _, lit in self._violations]],
            )
        )
        if not solver.solve():
            return None
        model = solver.get_model()
        inputs = {name: builder.decode(bits, model) for name, bits in input_bits.items()}
        nondet_values = [builder.decode(bits, model) for bits in self._nondet_bits]
        violated_line = next(
            (line for line, lit in self._violations if _lit_true(lit, model, builder)),
            self._violations[0][0],
        )
        return Counterexample(
            inputs=inputs, nondet_values=nondet_values, violated_line=violated_line
        )

    def holds(self, entry: str = "main") -> bool:
        """True when no assertion violation exists within the bound."""
        return self.find_counterexample(entry=entry) is None

    def compile_program(self, entry: str = "main") -> CompiledProgram:
        """Encode the whole program once into a reusable, test-free artifact.

        The returned :class:`~repro.bmc.compiled.CompiledProgram` holds the
        invariant CNF (structural hard clauses plus one clause group per
        statement) together with the input/nondet/return bit-vectors and
        assertion-violation literals — everything needed to derive the
        per-test unit clauses of any failing test later, without re-running
        the encoder.  Requires ``group_statements=True`` for localization
        use; the artifact is picklable so batch localization can ship it to
        worker processes once.
        """
        with obs.span("bmc.compile", program=self.program.name, entry=entry):
            return self._compile_program(entry)

    def _compile_program(self, entry: str) -> CompiledProgram:
        input_bits, return_bits = self._encode(entry)
        context = self._context
        function = self.program.function(entry)
        analysis = self._analysis_for(entry)
        diagnostics = analysis.diagnostics if analysis is not None else ()
        lits, ends, gids = context.arena.clause_store()
        compiled = CompiledProgram(
            program_name=self.program.name,
            entry=entry,
            width=self.width,
            unwind=self.unwind,
            num_vars=context.num_vars,
            params=tuple(function.params),
            lits=lits,
            ends=ends,
            gids=gids,
            steps=list(self._steps),
            input_bits=dict(input_bits),
            nondet_bits=list(self._nondet_bits),
            return_bits=return_bits,
            violations=tuple(self._violations),
            true_lit=context.arena.hdr[HDR_TRUE] or None,
            gates_shared=context.gate_hits,
            signature=context.gate_signature,
            diagnostics=diagnostics,
            pruned_lines=self._pruned_lines(),
            narrowed_vars=self._narrowed_vars,
            group_table=list(context.group_table),
            compile_options=self.compile_options(entry),
            unwind_plans=dict(self._unwind_plans),
            truncated_loops=self._truncated_loops_for(analysis),
        )
        from repro.bmc.compiled import _set_encode_profile

        encode_phases = dict(getattr(context, "encode_phases", {}))
        _set_encode_profile(
            compiled,
            {
                "encode_backend": getattr(context, "encode_backend", "python"),
                "encode_phases": encode_phases,
                "encode_kernel_calls": self._builder.kernel_calls,
                "analysis_solves": analysis.solves if analysis is not None else 0,
                "analysis_solves_reused": (
                    analysis.solves_reused if analysis is not None else 0
                ),
                "analysis_products_reused": (
                    analysis.products_reused if analysis is not None else 0
                ),
            },
        )
        obs.REGISTRY.counter(
            "repro_compiles", "Whole-program compiles (cold encodes)"
        ).inc()
        for phase, seconds in encode_phases.items():
            obs.REGISTRY.histogram(
                "repro_encode_phase_seconds",
                "Per-phase encode wall time",
                labels={"phase": phase},
            ).observe(seconds)
        # The expression encoder refers back to this checker; dropping it
        # lets the encode state, arena buffers included, be freed by
        # reference counting instead of waiting for the cyclic collector.
        self._encoder = None
        return compiled

    def encode_program_formula(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
    ) -> TraceFormula:
        """Encode the whole program with the failing test and post-condition.

        The returned :class:`TraceFormula` has the test-input equalities and
        the specification as hard clauses and one clause group per statement,
        ready to be turned into the partial MaxSAT instance of Algorithm 1.
        Requires the checker to have been built with ``group_statements=True``.
        One-shot convenience over :meth:`compile_program` — callers that
        localize several failing tests of the same program should compile
        once and use a :class:`~repro.core.session.LocalizationSession`.
        """
        compiled = self.compile_program(entry)
        return compiled.trace_formula(inputs, spec, nondet_values=nondet_values)

    # ----------------------------------------------------- resolver protocol

    def read_scalar(self, name: str, line: int) -> Bits:
        for scope in (self._frames[-1].variables, self._globals):
            if name in scope:
                value = scope[name]
                if isinstance(value, tuple):
                    return value
        raise KeyError(f"line {line}: undeclared variable {name!r}")

    def read_array(self, name: str, line: int) -> list[Bits]:
        for scope in (self._frames[-1].variables, self._globals):
            if name in scope:
                value = scope[name]
                if isinstance(value, list):
                    return value
        raise KeyError(f"line {line}: undeclared array {name!r}")

    def encode_call(self, call: ast.Call) -> Bits:
        builder = self._builder
        if call.name == "nondet":
            bits = builder.fresh()
            self._nondet_bits.append(bits)
            return bits
        if len(self._frames) > MAX_CALL_DEPTH:
            # Recursion beyond the bound: treat the result as unconstrained.
            return builder.fresh()
        callee = self.program.function(call.name)
        frame = _Frame(function=call.name, active=builder.true)
        force_binding = call.name in self.hard_functions
        for param, arg in zip(callee.params, call.args):
            frame.variables[param] = self._encoder.encode_argument(
                arg, force=force_binding
            )
        self._run_function(callee, frame, self._current_guard)
        result = frame.return_value
        if result is None:
            result = builder.const(0)
        return result

    def concrete_value(self, expr: ast.Expr) -> Optional[int]:
        return None

    # --------------------------------------------------------------- running

    def _analysis_for(self, entry: str, timed: Optional[obs.Span] = None):
        """The cached abstract-interpretation result, or ``None`` when the
        pass fails — analysis is an accelerator, never a prerequisite, so
        the compile goes on unnarrowed.  A run made here reports its solve
        counts, or its failure, on ``timed`` (the ``encode.analysis`` span);
        failures also count in ``repro_analysis_failures``."""
        cache = self._analyses
        if entry not in cache:
            from repro.analysis import analyze_program

            try:
                result = analyze_program(
                    self.program,
                    entry=entry,
                    width=self.width,
                    unwind=self.unwind,
                    unwind_planning=self.unwind_planning,
                )
            except Exception as exc:  # noqa: BLE001 - reported, then skipped
                result = None
                obs.REGISTRY.counter(
                    "repro_analysis_failures",
                    "Static analyses that raised; the compile went on unnarrowed",
                ).inc()
                if timed is not None:
                    timed.set(error=f"{type(exc).__name__}: {exc}")
            else:
                if timed is not None:
                    timed.set(
                        solves=result.solves,
                        solves_reused=result.solves_reused,
                        products_reused=result.products_reused,
                        table_solves=result.table_solves,
                    )
            cache[entry] = result
        return cache[entry]

    def _pruned_lines(self) -> tuple[int, ...]:
        """Statement lines provably irrelevant to every assertion/output.

        Computed from the flow-insensitive backward slice; the slicer's
        seeds are tied to ``main``, so pruning only applies there.
        """
        if "main" not in self.program.functions:
            return ()
        try:
            from repro.cfg.defuse import backward_slice_lines

            relevant = backward_slice_lines(self.program)
        except Exception:  # pragma: no cover - defensive
            return ()
        return tuple(sorted(self.program.statement_lines() - relevant))

    def _unwind_plan_table_for(self, analysis) -> dict[tuple[str, int], tuple[int, bool]]:
        """Per-loop unwind plans derived from one analysis result (a pure
        function of the loop-bound verdicts and the global unwind)."""
        if not self.unwind_planning or analysis is None or analysis.has_errors:
            return {}
        from repro.analysis.loops import plan_unwinds

        return plan_unwinds(analysis.loop_bounds, self.unwind)

    def _truncated_loops_for(self, analysis) -> tuple[tuple[str, int], ...]:
        """Loops whose proven minimum trip count the encoding truncates.

        Computed even when the analysis carries errors — the flag matters
        most exactly when ``unwind-insufficient`` fired.
        """
        if analysis is None:
            return ()
        from repro.analysis.loops import BOUNDED, EXACT, effective_unwind

        return tuple(
            sorted(
                key
                for key, bound in analysis.loop_bounds.items()
                if bound.verdict in (EXACT, BOUNDED)
                and bound.lo
                > effective_unwind(bound, self.unwind, self.unwind_planning)
            )
        )

    def _fresh_written(self, line: int) -> Bits:
        """A fresh vector for a written value — narrowed to the statically
        proven (flow-insensitive) range when the analysis found one."""
        builder = self._builder
        function = self._frames[-1].function
        interval = self._write_intervals.get((function, line))
        if interval is not None:
            plan = interval.narrowing_plan(self.width)
            if plan is not None:
                low_bits, signed = plan
                self._narrowed_vars += self.width - low_bits
                return builder.fresh_narrowed(low_bits, signed)
        return builder.fresh()

    def _encode(self, entry: str) -> tuple[dict[str, Bits], Optional[Bits]]:
        """Encode the whole program; returns (input bit-vectors, return bits)."""
        self._context = ArenaEncodingContext(self.width)
        self._builder = CircuitBuilder(self._context)
        self._encoder = ExpressionEncoder(self._builder, self)
        self._violations: list[tuple[int, int]] = []
        self._nondet_bits: list[Bits] = []
        self._frames: list[_Frame] = []
        self._globals: dict[str, object] = {}
        self._steps: list[TraceStep] = []
        self._narrowed_vars = 0
        self._write_intervals: dict[tuple[str, int], object] = {}
        self._unwind_plans = {}
        self._loop_stack = []
        phases = self._context.encode_phases
        with obs.span("encode.analysis") as timed:
            if self.analysis_narrowing or self.unwind_planning:
                analysis = self._analysis_for(entry, timed)
                if analysis is not None and not analysis.has_errors:
                    if self.analysis_narrowing:
                        self._write_intervals = analysis.flow_write_intervals
                self._unwind_plans = self._unwind_plan_table_for(analysis)
        phases["analysis"] = timed.duration

        with obs.span("encode.gates") as timed:
            builder = self._builder
            self._current_guard = builder.true
            self._initialize_globals()
            function = self.program.function(entry)
            frame = _Frame(function=entry, active=builder.true)
            input_bits: dict[str, Bits] = {}
            for param in function.params:
                bits = builder.fresh()
                frame.variables[param] = bits
                input_bits[param] = bits
            self._run_function(function, frame, builder.true)
            timed.set(kernel_calls=builder.kernel_calls)
        phases["gates"] = timed.duration
        return input_bits, frame.return_value

    def _initialize_globals(self) -> None:
        builder = self._builder
        root = _Frame(function="<globals>", active=builder.true)
        self._frames.append(root)
        try:
            for decl in self.program.globals:
                if isinstance(decl, ast.VarDecl):
                    bits = (
                        self._encoder.encode(decl.init)
                        if decl.init is not None
                        else builder.const(0)
                    )
                    self._globals[decl.name] = bits
                    root.variables[decl.name] = bits
                else:
                    cells = [builder.const(0)] * decl.size
                    for index, expr in enumerate(decl.init):
                        cells[index] = self._encoder.encode(expr)
                    self._globals[decl.name] = cells
                    root.variables[decl.name] = cells
        finally:
            self._frames.pop()

    def _run_function(self, function: ast.Function, frame: _Frame, guard: int) -> None:
        builder = self._builder
        frame.return_value = builder.const(0) if function.returns_value else None
        self._frames.append(frame)
        previous_guard = self._current_guard
        # Loop iterations are per function frame: a callee's statements are
        # not "inside" the caller's loop, so a line's iteration-awareness is
        # a static property of its own function (mixing iteration-tagged and
        # untagged groups for one line would break group ordering).
        previous_stack = self._loop_stack
        self._loop_stack = []
        try:
            self._exec_block(function.body, guard)
        finally:
            self._frames.pop()
            self._current_guard = previous_guard
            self._loop_stack = previous_stack

    def _exec_block(self, statements: tuple[ast.Stmt, ...], guard: int) -> None:
        for stmt in statements:
            self._exec(stmt, guard)

    def _effective(self, guard: int) -> int:
        return self._builder.bit_and(guard, self._frames[-1].active)

    def _current_iteration(self) -> Optional[int]:
        if self.loop_iteration_groups and self._loop_stack:
            return self._loop_stack[-1]
        return None

    def _group_for(self, stmt: ast.Stmt) -> Optional[StatementGroup]:
        if not self.group_statements:
            return None
        function = self._frames[-1].function
        if function in self.hard_functions:
            return None
        return StatementGroup(
            line=stmt.line, function=function, iteration=self._current_iteration()
        )

    def _record(self, stmt: ast.Stmt, kind: str) -> None:
        function = self._frames[-1].function
        iteration = self._current_iteration()
        self._steps.append(
            TraceStep(line=stmt.line, function=function, kind=kind, iteration=iteration)
        )

    def _exec(self, stmt: ast.Stmt, guard: int) -> None:
        builder = self._builder
        self._current_guard = self._effective(guard)
        frame = self._frames[-1]
        group = self._group_for(stmt)
        if isinstance(stmt, ast.VarDecl):
            # The clauses defining the *written value* belong to the statement
            # group (so relaxing the statement lets the value become
            # arbitrary); the guard multiplexer stays hard, so statements on
            # untaken paths can never explain the failure.
            with self._context.group(group):
                init = (
                    self._encoder.encode(stmt.init)
                    if stmt.init is not None
                    else builder.const(0)
                )
                written = self._fresh_written(stmt.line)
                builder.assert_equal(written, init)
            previous = frame.variables.get(stmt.name, builder.const(0))
            if not isinstance(previous, tuple):
                previous = builder.const(0)
            frame.variables[stmt.name] = builder.mux(
                self._effective(guard), written, previous
            )
            self._record(stmt, "decl")
        elif isinstance(stmt, ast.ArrayDecl):
            with self._context.group(group):
                cells = []
                for index in range(stmt.size):
                    if index < len(stmt.init):
                        value = self._encoder.encode(stmt.init[index])
                    else:
                        value = builder.const(0)
                    written = self._fresh_written(stmt.line)
                    builder.assert_equal(written, value)
                    cells.append(written)
            frame.variables[stmt.name] = cells
            self._record(stmt, "decl")
        elif isinstance(stmt, ast.Assign):
            with self._context.group(group):
                value = self._encoder.encode(stmt.value)
                written = self._fresh_written(stmt.line)
                builder.assert_equal(written, value)
            self._assign_scalar(stmt.name, written, guard)
            self._record(stmt, "assign")
        elif isinstance(stmt, ast.ArrayAssign):
            self._assign_array(stmt, guard, group)
            self._record(stmt, "array-assign")
        elif isinstance(stmt, ast.If):
            condition = self._encode_condition(stmt.cond, group)
            self._record(stmt, "branch")
            self._exec_block(stmt.then_body, builder.bit_and(guard, condition))
            self._exec_block(stmt.else_body, builder.bit_and(guard, -condition))
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, guard, group)
        elif isinstance(stmt, ast.Return):
            effective = self._effective(guard)
            if stmt.value is not None and frame.return_value is not None:
                with self._context.group(group):
                    value = self._encoder.encode(stmt.value)
                    written = builder.fresh()
                    builder.assert_equal(written, value)
                frame.return_value = builder.mux(effective, written, frame.return_value)
            frame.active = builder.bit_and(frame.active, -effective)
            self._record(stmt, "return")
        elif isinstance(stmt, ast.Assert):
            # The assertion is the specification, not a candidate bug
            # location: its condition is encoded in the hard context.
            with self._context.group(None):
                condition = self._encoder.encode_bool(stmt.cond)
                violation = builder.bit_and(self._effective(guard), -condition)
            if builder._const_value(violation) is not False:
                self._violations.append((stmt.line, violation))
            self._record(stmt, "assert")
        elif isinstance(stmt, ast.Assume):
            # The condition gets its own relaxable copy (like branch
            # conditions): the enforcing clause below is hard, so the
            # statement group must own the link between the circuit and the
            # enforced literal for the assumption to stay a candidate.
            condition = self._encode_condition(stmt.cond, group)
            self._context.emit_hard([-self._effective(guard), condition])
            self._record(stmt, "assume")
        elif isinstance(stmt, ast.ExprStmt):
            with self._context.group(group):
                self._encoder.encode(stmt.expr)
            self._record(stmt, "call")
        elif isinstance(stmt, ast.Print):
            with self._context.group(group):
                self._encoder.encode(stmt.value)
            self._record(stmt, "print")
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"statement {type(stmt).__name__}")

    def _encode_condition(self, cond: ast.Expr, group: Optional[StatementGroup]) -> int:
        """Encode a branch/loop condition with its own relaxable copy."""
        builder = self._builder
        with self._context.group(group):
            raw = self._encoder.encode_bool(cond)
            if builder._const_value(raw) is not None or group is None:
                # Constant conditions (or hard contexts) need no copy.
                condition = raw
            else:
                condition = self._context.new_var()
                self._context.emit([-condition, raw])
                self._context.emit([condition, -raw])
        return condition

    def _guard_copy(self, raw: int, group: Optional[StatementGroup]) -> int:
        """A relaxable copy of an already-encoded (hard) condition literal.

        Only the two binding clauses live in the statement group: relaxing
        the group frees the copy from the circuit, which is exactly the
        "this guard took the wrong branch" repair.  The circuit gates
        themselves stay hard — so reusing the raw literal elsewhere (the
        unwinding assumption) can never be undone by relaxing the guard.
        """
        builder = self._builder
        if builder._const_value(raw) is not None or group is None:
            return raw
        with self._context.group(group):
            condition = self._context.new_var()
            self._context.emit([-condition, raw])
            self._context.emit([condition, -raw])
        return condition

    def _exec_while(
        self, stmt: ast.While, guard: int, group: Optional[StatementGroup]
    ) -> None:
        builder = self._builder
        function = self._frames[-1].function
        plan = self._unwind_plans.get((function, stmt.line))
        bound, proven = plan if plan is not None else (self.unwind, False)
        path = guard
        #: The guard conjunction over *raw* (hard) condition literals; the
        #: unwinding assumption must be built from these, not from the
        #: relaxable copies, so the localizer can never "explain" a failure
        #: by flipping the truncation assumption itself.
        hard_path = guard
        self._loop_stack.append(1)
        try:
            for _ in range(bound):
                with self._context.group(None):
                    raw = self._encoder.encode_bool(stmt.cond)
                condition = self._guard_copy(raw, self._group_for(stmt))
                self._record(stmt, "loop-guard")
                path = builder.bit_and(path, condition)
                hard_path = builder.bit_and(hard_path, raw)
                if builder._const_value(path) is False:
                    return
                self._exec_block(stmt.body, path)
                self._loop_stack[-1] += 1
            if proven:
                # The analysis proved the loop exits within `bound` trips;
                # no unwinding assumption is needed (or sound to relax).
                return
            # Unwinding assumption: after `bound` iterations the loop must
            # exit.  Hard by construction — see `hard_path`.
            with self._context.group(None):
                condition = self._encoder.encode_bool(stmt.cond)
            still_running = builder.bit_and(self._effective(hard_path), condition)
            self._context.emit_hard([-still_running])
        finally:
            self._loop_stack.pop()

    # ------------------------------------------------------------- mutation

    def _assign_scalar(self, name: str, value: Bits, guard: int) -> None:
        builder = self._builder
        frame = self._frames[-1]
        effective = self._effective(guard)
        for scope in (frame.variables, self._globals):
            if name in scope and isinstance(scope[name], tuple):
                scope[name] = builder.mux(effective, value, scope[name])
                return
        frame.variables[name] = builder.mux(effective, value, builder.const(0))

    def _assign_array(
        self, stmt: ast.ArrayAssign, guard: int, group: Optional[StatementGroup]
    ) -> None:
        builder = self._builder
        effective = self._effective(guard)
        with self._context.group(group):
            index_raw = self._encoder.encode(stmt.index)
            value_raw = self._encoder.encode(stmt.value)
            index_bits = builder.fresh()
            builder.assert_equal(index_bits, index_raw)
            value_bits = self._fresh_written(stmt.line)
            builder.assert_equal(value_bits, value_raw)
        cells = self.read_array(stmt.name, stmt.line)
        new_cells: list[Bits] = []
        for position, cell in enumerate(cells):
            here = builder.bit_and(
                effective, builder.equals(index_bits, builder.const(position))
            )
            new_cells.append(builder.mux(here, value_bits, cell))
        for scope in (self._frames[-1].variables, self._globals):
            if stmt.name in scope and isinstance(scope[stmt.name], list):
                scope[stmt.name] = new_cells
                return


def _lit_true(lit: int, model: dict[int, bool], builder: CircuitBuilder) -> bool:
    constant = builder._const_value(lit)
    if constant is not None:
        return constant
    value = model.get(abs(lit), False)
    return value if lit > 0 else not value
