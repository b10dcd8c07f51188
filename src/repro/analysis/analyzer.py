"""The interprocedural analysis driver and the diagnostics engine.

:func:`analyze_program` runs the interval domain over every function of a
program to a global fixpoint, then the definite-init and live-locals
domains per function for the lints:

* functions exchange information through context-insensitive
  :class:`~repro.analysis.domains.FunctionSummary` entries (the join of
  argument intervals over all call sites, and the join of returns);
* global variables live in a flow-insensitive invariant — reads see the
  invariant, writes join into it — iterated together with the summaries
  (recursion and mutual recursion converge through the same loop, with
  widening after a few rounds);
* the entry function's parameters can be pinned to concrete values
  (``entry_inputs``), which is how the concolic tracer obtains ranges that
  hold on the specific failing test it encodes;
* every interval solve of a function is kept in one process-wide solve
  table, keyed by the function's content and the fingerprint of the
  environment it ran under, and reused by any later round or later
  analysis — of this program or of another one carrying the same
  function — whose environment for that function has the same
  fingerprint; a solve of a converged analysis also keeps the function's
  finished products (its narrowing entries, observed intervals, lints and
  loop verdicts).

The result carries structured :class:`~repro.lang.diagnostics.Diagnostic`
records (the lint output) and per-write-site value intervals (the narrowing
table consumed by the range-guided encoder).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro import obs
from repro.analysis.domains import (
    DefiniteInitDomain,
    FunctionSummary,
    IntervalDomain,
    IntervalState,
    LiveLocalsDomain,
)
from repro.analysis.framework import solve
from repro.analysis.incremental import environment_fingerprint, function_reads
from repro.analysis.intervals import Interval
from repro.analysis.loops import LoopBound, infer_loop_bounds, lint_loops
from repro.cfg.graph import FunctionGraph, build_function_graph
from repro.lang import ast
from repro.lang.diagnostics import ERROR, WARNING, Diagnostic, has_errors
from repro.lang.semantics import DEFAULT_WIDTH

#: Summary/global-invariant fixpoint rounds before widening kicks in, and
#: the hard cap (widening makes the cap unreachable in practice).
WIDEN_ROUND = 3
MAX_ROUNDS = 12

#: Solves kept in the process-wide solve table, over all functions of all
#: programs; the least recently used one is dropped beyond this.
SOLVE_TABLE_CAP = 1024


@dataclass
class AnalysisResult:
    """Everything the consumers need from one analysis run."""

    program: ast.Program
    width: int
    diagnostics: tuple[Diagnostic, ...]
    #: Joined interval of every value written by the statement at
    #: ``(function, line)`` — the narrowing table for the concolic tracer,
    #: which only encodes statements along the executed (reached) path.
    write_intervals: dict[tuple[str, int], Interval]
    #: Flow-insensitive narrowing table for the bounded model checker.  BMC's
    #: guarded encoding evaluates a statement's rhs circuit even on paths
    #: that skip the statement, over whatever values the variables hold at
    #: the branch point — so these entries evaluate each rhs over the
    #: whole-program variable domains instead of the path-refined state, and
    #: skip any rhs containing a call (summaries only cover observed
    #: arguments, not arbitrary off-path values).
    flow_write_intervals: dict[tuple[str, int], Interval]
    #: Join of a variable's interval over all program points of a function;
    #: array-cell entries use the ``name[]`` key, globals the ``""`` function.
    variable_intervals: dict[tuple[str, str], Interval]
    summaries: dict[str, FunctionSummary]
    #: Trip-count verdict per ``(function, guard line)`` — the source of
    #: the unwind plans the BMC consumes and of the loop lints.
    loop_bounds: dict[tuple[str, int], LoopBound] = field(default_factory=dict)
    graphs: dict[str, FunctionGraph] = field(default_factory=dict)
    states: dict[str, dict[int, IntervalState]] = field(default_factory=dict)
    #: Interval solves this run performed, and those it skipped by reusing
    #: a kept solve (an earlier round's, or an earlier analysis's of a
    #: function with the same content) made under the same environment.
    solves: int = 0
    solves_reused: int = 0
    #: Functions whose products (narrowing entries, observed intervals,
    #: lints, loop verdicts) came from a kept solve instead of being
    #: recomputed.
    products_reused: int = 0
    #: Solves kept in the process-wide solve table when the run ended.
    table_solves: int = 0

    @property
    def has_errors(self) -> bool:
        return has_errors(self.diagnostics)

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    def write_interval(self, function: str, line: int) -> Optional[Interval]:
        return self.write_intervals.get((function, line))

    def flow_write_interval(self, function: str, line: int) -> Optional[Interval]:
        return self.flow_write_intervals.get((function, line))


def failed_result(
    program_name: str, diagnostics: Iterable[Diagnostic], width: int = DEFAULT_WIDTH
) -> AnalysisResult:
    """An :class:`AnalysisResult` for a program that did not get past the
    front end (parse or type errors)."""
    return AnalysisResult(
        program=ast.Program(name=program_name),
        width=width,
        diagnostics=tuple(sorted(diagnostics)),
        write_intervals={},
        flow_write_intervals={},
        variable_intervals={},
        summaries={},
    )


def analyze_source(
    source: str,
    name: str = "<program>",
    entry: str = "main",
    entry_inputs: Optional[Union[Mapping[str, int], Sequence[int]]] = None,
    width: int = DEFAULT_WIDTH,
    unwind: int = 16,
    unwind_planning: bool = False,
) -> AnalysisResult:
    """Parse, type-check and analyze; front-end failures come back as
    ERROR diagnostics instead of exceptions."""
    from repro.lang import check_program, parse_program
    from repro.lang.parser import ParseError
    from repro.lang.typecheck import TypeError_

    try:
        program = parse_program(source, name=name)
        check_program(program)
    except (ParseError, TypeError_) as exc:
        return failed_result(name, [exc.to_diagnostic()], width)
    return analyze_program(
        program,
        entry=entry,
        entry_inputs=entry_inputs,
        width=width,
        unwind=unwind,
        unwind_planning=unwind_planning,
    )


def analyze_program(
    program: ast.Program,
    entry: str = "main",
    entry_inputs: Optional[Union[Mapping[str, int], Sequence[int]]] = None,
    width: int = DEFAULT_WIDTH,
    unwind: int = 16,
    unwind_planning: bool = False,
) -> AnalysisResult:
    """Run the abstract interpretation to a whole-program fixpoint.

    ``unwind``/``unwind_planning`` describe the encoding the caller will
    run; the loop bounds themselves are unwind-independent, but the
    ``unwind-insufficient`` lint compares proven trip counts against the
    unrollings that encoding would actually perform.

    Every live solve goes through the process-wide solve table.  Its key
    is the function's content digest, the width, the program's array-size
    table and each callee's parameter names, plus the fingerprint of the
    environment slice the function observes; a function whose key and
    fingerprint find a kept solve — from an earlier round, an earlier
    analysis of this program, or an analysis of another program carrying
    the same function — reuses it after one dict lookup.  The digest and
    the function's reads are computed once per ``Function`` object.  A
    converged analysis keeps each function's products on the solve it
    ended with, and a later converged analysis that ends on that solve
    takes them as they are; only the loop lints, which read ``unwind``,
    run every time.  The table keeps at most
    :data:`SOLVE_TABLE_CAP` solves, dropping the least recently used.
    ``solves``, ``solves_reused`` and ``products_reused`` on the result
    count the outcomes, and ``table_solves`` is the table's size after the
    run.
    """
    # ---- the flow-insensitive global invariant, seeded from initializers
    global_scalars: dict[str, Interval] = {}
    global_arrays: dict[str, Interval] = {}
    array_sizes: dict[str, int] = {}
    for decl in program.globals:
        if isinstance(decl, ast.VarDecl):
            value = _const_expr_interval(decl.init, width)
            global_scalars[decl.name] = value
        else:
            array_sizes[decl.name] = decl.size
            cells = (
                Interval.const(0, width)
                if len(decl.init) < decl.size
                else Interval.bottom()
            )
            for expr in decl.init:
                cells = cells.join(_const_expr_interval(expr, width))
            global_arrays[decl.name] = cells
    # Local array sizes (names are unique enough in mini-C programs for the
    # OOB lint; a local shadowing a global array keeps the local's size).
    for function in program.functions.values():
        for stmt in _walk_statements(function.body):
            if isinstance(stmt, ast.ArrayDecl):
                array_sizes[stmt.name] = stmt.size

    entry_params = _entry_param_intervals(program, entry, entry_inputs, width)

    # ---- call-argument / return-summary / global-invariant fixpoint
    call_args: dict[str, dict[str, Interval]] = {
        name: {param: Interval.bottom() for param in fn.params}
        for name, fn in program.functions.items()
    }
    summaries: dict[str, FunctionSummary] = {
        name: FunctionSummary(params={param: Interval.bottom() for param in fn.params})
        for name, fn in program.functions.items()
    }
    kept: dict[str, _Solve] = {}

    facts = {name: _function_facts(fn) for name, fn in program.functions.items()}
    keys = _solve_keys(program, facts, array_sizes, width)
    reads = {name: fact[1] for name, fact in facts.items()}
    table = _SOLVES
    solved = reused = 0

    def reuse_or_solve(
        name: str,
        function: ast.Function,
        params: dict[str, Interval],
        returns: dict[str, Interval],
    ) -> _Solve:
        """The function's solve under the live environment: a matching solve
        from the table, else a fresh one, kept in the table.  (Solves write
        only their own output tables, so the invariant and the summaries
        stay at their round-start values all round.)"""
        nonlocal solved, reused
        key = (
            keys[name],
            environment_fingerprint(
                reads[name], params, returns, global_scalars, global_arrays
            ),
        )
        hit = table.lookup(key)
        if hit is not None:
            reused += 1
            return hit
        graph = build_function_graph(function)
        domain = IntervalDomain(
            function,
            params,
            global_scalars,
            global_arrays,
            array_sizes,
            summaries,
            width,
        )
        function_states = solve(graph, domain)
        solved += 1
        out = (
            domain.returned,
            domain.call_arguments,
            domain.global_scalar_writes,
            domain.global_array_writes,
        )
        fresh = _Solve(key, params, graph, function_states, out)
        table.add(fresh)
        return fresh

    converged = False
    for round_index in range(MAX_ROUNDS):
        returns_now = {name: summaries[name].returns for name in summaries}
        for name, function in program.functions.items():
            params = _analysis_params(
                name, function, entry, entry_params, call_args[name], width
            )
            kept[name] = reuse_or_solve(name, function, params, returns_now)
        changed = False
        widen = round_index >= WIDEN_ROUND
        for name, solve_ in kept.items():
            returned, call_arguments, scalar_writes, array_writes = solve_.outputs
            summary = summaries[name]
            new_returns = _combine(summary.returns, returned, widen, width)
            if new_returns != summary.returns:
                summary.returns = new_returns
                changed = True
            for callee, arguments in call_arguments.items():
                if callee not in call_args:
                    continue
                target = call_args[callee]
                for param, interval in arguments.items():
                    old = target.get(param, Interval.bottom())
                    new = _combine(old, interval, widen, width)
                    if new != old:
                        target[param] = new
                        changed = True
            for store, writes in (
                (global_scalars, scalar_writes),
                (global_arrays, array_writes),
            ):
                for gname, interval in writes.items():
                    old = store.get(gname, Interval.bottom())
                    new = _combine(old, interval, widen, width)
                    if new != old:
                        store[gname] = new
                        changed = True
        for name, summary in summaries.items():
            summary.params = dict(call_args[name])
        if not changed:
            converged = True
            break

    diagnostics: list[Diagnostic] = []
    write_intervals: dict[tuple[str, int], Interval] = {}
    flow_write_intervals: dict[tuple[str, int], Interval] = {}
    variable_intervals: dict[tuple[str, str], Interval] = {}
    loop_bounds: dict[tuple[str, int], LoopBound] = {}
    products_reused = 0

    for gname, interval in global_scalars.items():
        variable_intervals[("", gname)] = interval
    for gname, interval in global_arrays.items():
        variable_intervals[("", f"{gname}[]")] = interval

    for name, function in program.functions.items():
        solve_ = kept[name]
        # A converged run ends in the environment its last round's solves
        # ran under, so products kept on a solve hold for every converged
        # run that ends on it.  A run cut at MAX_ROUNDS ends elsewhere: its
        # products are computed, but neither taken nor kept.
        products = solve_.products if converged else None
        if products is not None:
            products_reused += 1
        else:
            # The collectors and lints evaluate over this run's invariant
            # and summaries.
            domain = IntervalDomain(
                function,
                solve_.params,
                global_scalars,
                global_arrays,
                array_sizes,
                summaries,
                width,
            )
            products = _function_products(
                name, function, solve_.graph, solve_.states, domain, width
            )
            if converged:
                solve_.products = products
        write_intervals.update(products.write_intervals)
        flow_write_intervals.update(products.flow_write_intervals)
        for var, interval in products.observed.items():
            variable_intervals[(name, var)] = interval
        diagnostics.extend(products.diagnostics)
        for line, bound in products.loop_bounds.items():
            loop_bounds[(name, line)] = bound

    # Loop lints compare the (unwind-independent) verdicts against this
    # caller's unwind parameters.
    diagnostics.extend(
        lint_loops(loop_bounds.values(), unwind=unwind, unwind_planning=unwind_planning)
    )

    for outcome, count in (("solved", solved), ("reused", reused)):
        obs.REGISTRY.counter(
            "repro_analysis_solves",
            "Per-function interval solves of the analysis fixpoint",
            labels={"outcome": outcome},
        ).inc(count)
    table_solves = len(table)
    obs.REGISTRY.gauge(
        "repro_analysis_solve_table_solves",
        "Interval solves kept in the process-wide analysis solve table",
    ).set(table_solves)

    return AnalysisResult(
        program=program,
        width=width,
        diagnostics=tuple(sorted(set(diagnostics))),
        write_intervals=write_intervals,
        flow_write_intervals=flow_write_intervals,
        variable_intervals=variable_intervals,
        summaries=summaries,
        loop_bounds=loop_bounds,
        graphs={name: solve_.graph for name, solve_ in kept.items()},
        states={name: solve_.states for name, solve_ in kept.items()},
        solves=solved,
        solves_reused=reused,
        products_reused=products_reused,
        table_solves=table_solves,
    )


# --------------------------------------------------------------- driver bits


@dataclass(frozen=True)
class _Products:
    """What the post-fixpoint pass derives from one function's solve."""

    observed: dict[str, Interval]
    write_intervals: dict[tuple[str, int], Interval]
    flow_write_intervals: dict[tuple[str, int], Interval]
    diagnostics: tuple[Diagnostic, ...]
    loop_bounds: dict[int, LoopBound]


def _function_products(
    name: str,
    function: ast.Function,
    graph: FunctionGraph,
    function_states: dict[int, IntervalState],
    domain: IntervalDomain,
    width: int,
) -> _Products:
    observed = domain.observed_intervals(function_states)
    write_intervals: dict[tuple[str, int], Interval] = {}
    _collect_write_intervals(
        name, graph, function_states, domain, observed, write_intervals
    )
    flow_write_intervals: dict[tuple[str, int], Interval] = {}
    _collect_flow_write_intervals(
        name, function, domain, observed, flow_write_intervals
    )
    return _Products(
        observed=observed,
        write_intervals=write_intervals,
        flow_write_intervals=flow_write_intervals,
        diagnostics=tuple(
            _lint_function(name, function, graph, function_states, domain, width)
        ),
        loop_bounds=infer_loop_bounds(name, graph, function_states, domain),
    )


@dataclass(eq=False)
class _Solve:
    """One interval solve of a function, the parameter intervals it ran
    under and, once a converged analysis ended on it, the function's
    products."""

    #: ``(solve key, environment fingerprint)``: where the table files it.
    key: tuple
    params: dict[str, Interval]
    graph: FunctionGraph
    states: dict[int, IntervalState]
    outputs: tuple
    products: Optional[_Products] = None


#: ``(content digest, (callees, non-local names))`` of a function, the
#: names sorted.
_Facts = tuple[bytes, tuple[tuple[str, ...], tuple[str, ...]]]

#: Attribute under which :func:`_function_facts` memoizes on a function.
_FACTS = "_analysis_facts"


def _function_facts(function: ast.Function) -> _Facts:
    """A function's content digest and :func:`function_reads` as sorted
    tuples, computed once per :class:`~repro.lang.ast.Function` object.

    The digest is one sha256 of the function's ``repr``, which also carries
    its name, parameters and line numbers.  ``Function`` is frozen and
    nothing rewrites one in place (``dataclasses.replace`` builds a new
    object, which carries no memo), so the facts are kept on the object.
    """
    facts = function.__dict__.get(_FACTS)
    if facts is None:
        callees, nonlocals = function_reads(function)
        facts = (
            hashlib.sha256(repr(function).encode()).digest(),
            (tuple(sorted(callees)), tuple(sorted(nonlocals))),
        )
        object.__setattr__(function, _FACTS, facts)
    return facts


def _solve_keys(
    program: ast.Program,
    facts: dict[str, _Facts],
    array_sizes: dict[str, int],
    width: int,
) -> dict[str, tuple]:
    """The solve-table key of every function of ``program``.

    Beyond the body (its content digest), a solve reads the width, the
    program-wide array-size table and, through the summaries, each
    callee's parameter names — the environment fingerprint covers the
    rest.
    """
    functions = program.functions
    sizes = tuple(sorted(array_sizes.items()))
    keys: dict[str, tuple] = {}
    for name, (digest, (callees, _)) in facts.items():
        keyed_callees = tuple(
            (callee, functions[callee].params if callee in functions else None)
            for callee in callees
        )
        keys[name] = (digest, width, sizes, keyed_callees)
    return keys


class _SolveTable:
    """The kept interval solves of every function analyzed in the process.

    A solve is a pure function of its key (the function's content and the
    program facts its evaluation reads) and of the environment slice the
    function observes, so the table files each solve under ``(key,
    fingerprint)`` (:func:`environment_fingerprint`) and a lookup is one
    dict probe, however many solves a key holds.  Kept solves are
    read-only apart from their products, which a converged analysis sets
    (to the same value whichever one does): a hit hands out the solve's
    states and outputs as they are.
    """

    def __init__(self) -> None:
        #: Every kept solve by ``(key, fingerprint)``, least recently used
        #: first.
        self._solves: OrderedDict[tuple, _Solve] = OrderedDict()
        # Analyses may run on several threads at once.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._solves)

    def lookup(self, key: tuple) -> Optional[_Solve]:
        with self._lock:
            hit = self._solves.get(key)
            if hit is not None:
                self._solves.move_to_end(key)
        return hit

    def add(self, entry: _Solve) -> None:
        with self._lock:
            self._solves[entry.key] = entry
            self._solves.move_to_end(entry.key)
            while len(self._solves) > SOLVE_TABLE_CAP:
                self._solves.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._solves.clear()


#: The process-wide solve table.
_SOLVES = _SolveTable()


def _combine(old: Interval, new: Interval, widen: bool, width: int) -> Interval:
    joined = old.join(new)
    if widen and joined != old:
        return old.widen(joined, width)
    return joined


def _entry_param_intervals(
    program: ast.Program,
    entry: str,
    entry_inputs: Optional[Union[Mapping[str, int], Sequence[int]]],
    width: int,
) -> dict[str, Interval]:
    function = program.functions.get(entry)
    if function is None:
        return {}
    params = {name: Interval.top(width) for name in function.params}
    if entry_inputs is None:
        return params
    if isinstance(entry_inputs, Mapping):
        items = entry_inputs.items()
    else:
        items = zip(function.params, entry_inputs)
    for name, value in items:
        if name in params:
            params[name] = Interval.const(value, width)
    return params


def _analysis_params(
    name: str,
    function: ast.Function,
    entry: str,
    entry_params: dict[str, Interval],
    observed_args: dict[str, Interval],
    width: int,
) -> dict[str, Interval]:
    if name == entry:
        params = dict(entry_params)
        # The entry can also be called recursively from within the program.
        for param, interval in observed_args.items():
            if not interval.empty:
                params[param] = params.get(param, Interval.bottom()).join(interval)
        return params
    if any(not interval.empty for interval in observed_args.values()):
        return {
            param: (Interval.top(width) if interval.empty else interval)
            for param, interval in observed_args.items()
        }
    # Never (yet) called: analyze with unconstrained parameters so the lints
    # still cover the function; its summary is unused until a call appears.
    return {param: Interval.top(width) for param in function.params}


def _const_expr_interval(expr: Optional[ast.Expr], width: int) -> Interval:
    """Interval of a global initializer (constant-folded when possible)."""
    if expr is None:
        return Interval.const(0, width)
    from repro.lang.semantics import apply_binary, apply_unary, wrap

    def fold(node: ast.Expr) -> Optional[int]:
        if isinstance(node, ast.IntLiteral):
            return wrap(node.value, width)
        if isinstance(node, ast.UnaryOp):
            operand = fold(node.operand)
            return None if operand is None else apply_unary(node.op, operand, width)
        if isinstance(node, ast.BinaryOp):
            left, right = fold(node.left), fold(node.right)
            if left is None or right is None:
                return None
            return apply_binary(node.op, left, right, width)
        return None

    value = fold(expr)
    return Interval.top(width) if value is None else Interval.const(value, width)


def _walk_statements(statements: tuple[ast.Stmt, ...]) -> Iterable[ast.Stmt]:
    for stmt in statements:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _walk_statements(stmt.then_body)
            yield from _walk_statements(stmt.else_body)
        elif isinstance(stmt, ast.While):
            yield from _walk_statements(stmt.body)


def _collect_write_intervals(
    name: str,
    graph: FunctionGraph,
    function_states: dict[int, IntervalState],
    domain: IntervalDomain,
    observed: dict[str, Interval],
    table: dict[tuple[str, int], Interval],
) -> None:
    """Fill the narrowing table: one interval per (function, write line).

    Each entry is the join of the value the statement writes and the
    written variable's range over the *whole* program.  The second part is
    the repair-slack rule: when MaxSAT relaxes the statement, the freed
    value stands in for what a fixed program would compute there, and such
    values live in the variable's domain, not in the single write's range.
    Accumulator initializations like ``int info = 0;`` (a [0, 0] write to
    an unbounded variable) therefore stay full-width, while writes to
    genuinely bounded variables — indices, characters, flags — narrow hard.
    """

    def domain_of(var: str, is_array: bool) -> Interval:
        key = f"{var}[]" if is_array else var
        if var in domain.locals:
            return observed.get(key, Interval.bottom())
        if is_array:
            return domain.global_arrays.get(var, Interval.top(domain.width))
        return domain.global_scalars.get(var, Interval.top(domain.width))

    for node in graph.nodes:
        stmt = node.stmt
        if stmt is None or node.index not in function_states:
            continue
        state = function_states[node.index]
        written: Optional[Interval] = None
        if isinstance(stmt, ast.VarDecl):
            written = (
                domain.eval(stmt.init, state)
                if stmt.init is not None
                else Interval.const(0, domain.width)
            )
            written = written.join(domain_of(stmt.name, is_array=False))
        elif isinstance(stmt, ast.Assign):
            written = domain.eval(stmt.value, state)
            written = written.join(domain_of(stmt.name, is_array=False))
        elif isinstance(stmt, ast.ArrayDecl):
            written = (
                Interval.const(0, domain.width)
                if len(stmt.init) < stmt.size
                else Interval.bottom()
            )
            for expr in stmt.init:
                written = written.join(domain.eval(expr, state))
            written = written.join(domain_of(stmt.name, is_array=True))
        elif isinstance(stmt, ast.ArrayAssign):
            # The encoder re-binds the whole array: cells not written keep
            # their old value, so the range must also cover everything
            # already in the array.
            written = domain.eval(stmt.value, state).join(
                domain._read_array(stmt.name, state)
            )
            written = written.join(domain_of(stmt.name, is_array=True))
        if written is None or written.empty:
            continue
        key = (name, stmt.line)
        table[key] = table.get(key, Interval.bottom()).join(written)


def _collect_flow_write_intervals(
    name: str,
    function: ast.Function,
    domain: IntervalDomain,
    observed: dict[str, Interval],
    table: dict[tuple[str, int], Interval],
) -> None:
    """Fill the BMC narrowing table: path-insensitive write intervals.

    The bounded model checker's guarded encoding constrains ``written ==
    rhs`` unconditionally — the mux *after* the binding discards the value
    on untaken paths, but the equality itself must stay satisfiable there,
    where the rhs reads whatever the variables hold at the branch point.
    Evaluating each rhs over a state that maps every variable to its
    whole-program domain covers those off-path values; the repair-slack
    join with the written variable's domain applies as on the traced path.
    Statements whose rhs calls a function are left full-width: function
    summaries only describe observed call arguments.
    """
    from repro.cfg.defuse import expression_calls

    domain_state = IntervalState(
        scalars={
            var: interval
            for var, interval in observed.items()
            if not var.endswith("[]")
        },
        arrays={
            var[:-2]: interval
            for var, interval in observed.items()
            if var.endswith("[]")
        },
    )

    def domain_of(var: str, is_array: bool) -> Interval:
        key = f"{var}[]" if is_array else var
        if var in domain.locals:
            return observed.get(key, Interval.bottom())
        if is_array:
            return domain.global_arrays.get(var, Interval.top(domain.width))
        return domain.global_scalars.get(var, Interval.top(domain.width))

    for stmt in _walk_statements(function.body):
        written: Optional[Interval] = None
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None and expression_calls(stmt.init):
                continue
            written = (
                domain.eval(stmt.init, domain_state)
                if stmt.init is not None
                else Interval.const(0, domain.width)
            )
            written = written.join(domain_of(stmt.name, is_array=False))
        elif isinstance(stmt, ast.Assign):
            if expression_calls(stmt.value):
                continue
            written = domain.eval(stmt.value, domain_state)
            written = written.join(domain_of(stmt.name, is_array=False))
        elif isinstance(stmt, ast.ArrayDecl):
            if any(expression_calls(expr) for expr in stmt.init):
                continue
            written = (
                Interval.const(0, domain.width)
                if len(stmt.init) < stmt.size
                else Interval.bottom()
            )
            for expr in stmt.init:
                written = written.join(domain.eval(expr, domain_state))
            written = written.join(domain_of(stmt.name, is_array=True))
        elif isinstance(stmt, ast.ArrayAssign):
            # The BMC binds only the stored value (per-cell muxes follow),
            # but a relaxed group's repair value must still cover anything
            # already in the array, so join the array's domain.
            if expression_calls(stmt.value):
                continue
            written = domain.eval(stmt.value, domain_state)
            written = written.join(domain_of(stmt.name, is_array=True))
        if written is None or written.empty:
            continue
        key = (name, stmt.line)
        table[key] = table.get(key, Interval.bottom()).join(written)


# ---------------------------------------------------------------- lint pass


def _lint_function(
    name: str,
    function: ast.Function,
    graph: FunctionGraph,
    function_states: dict[int, IntervalState],
    domain: IntervalDomain,
    width: int,
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    # Dead code: reachable fixpoint states never arrived.  Report only the
    # first node of each dead region (a dead node all of whose predecessors
    # are also dead is implied by the earlier report).
    for node in graph.nodes:
        if node.stmt is None or node.index in function_states:
            continue
        preds = graph.predecessors(node.index)
        if preds and not any(edge.source in function_states for edge in preds):
            continue
        diagnostics.append(
            Diagnostic(
                line=node.line,
                severity=WARNING,
                code="dead-code",
                message="statement is unreachable",
                function=name,
            )
        )

    # Value lints on every reachable statement.
    for node in graph.nodes:
        stmt = node.stmt
        if stmt is None or node.index not in function_states:
            continue
        state = function_states[node.index]
        for expr in _statement_expressions(stmt):
            _lint_expression(expr, state, domain, name, diagnostics)
        if isinstance(stmt, ast.ArrayAssign):
            _lint_index(
                stmt.name, stmt.index, stmt.line, state, domain, name, diagnostics
            )

    # Dead stores: a backward liveness pass (the forward solver over the
    # reversed CFG).  A reachable scalar store to a local whose value can
    # never be read afterwards is reported; stores whose right-hand side
    # calls a function are kept quiet — the statement is not removable even
    # though its stored value is unused.
    live_domain = LiveLocalsDomain(function)
    if live_domain.locals:
        from repro.cfg.defuse import statement_calls

        live_after = solve(graph.reversed_view(), live_domain)
        for node in graph.nodes:
            stmt = node.stmt
            if stmt is None or node.index not in function_states:
                continue
            if not (
                isinstance(stmt, ast.Assign)
                or (isinstance(stmt, ast.VarDecl) and stmt.init is not None)
            ):
                continue
            after = live_after.get(node.index)
            if (
                after is None
                or stmt.name not in live_domain.locals
                or stmt.name in after
                or statement_calls(stmt)
            ):
                continue
            diagnostics.append(
                Diagnostic(
                    line=node.line,
                    severity=WARNING,
                    code="dead-store",
                    message=f"value stored to '{stmt.name}' is never read",
                    function=name,
                )
            )

    # Uninitialized reads: a must-analysis of definitely-assigned locals.
    init_domain = DefiniteInitDomain(function)
    if init_domain.implicit_zero:
        init_states = solve(graph, init_domain)
        reported: set[tuple[int, str]] = set()
        for node in graph.nodes:
            stmt = node.stmt
            if stmt is None or node.index not in init_states:
                continue
            assigned = init_states[node.index]
            for expr in _statement_expressions(stmt):
                for read in _scalar_reads(expr):
                    if (
                        read in init_domain.implicit_zero
                        and read not in assigned
                        and (stmt.line, read) not in reported
                    ):
                        reported.add((stmt.line, read))
                        diagnostics.append(
                            Diagnostic(
                                line=stmt.line,
                                severity=WARNING,
                                code="uninitialized-read",
                                message=(
                                    f"'{read}' may be read before it is assigned"
                                    " (mini-C zero-initializes; C would not)"
                                ),
                                function=name,
                            )
                        )
    return diagnostics


def _statement_expressions(stmt: ast.Stmt) -> list[ast.Expr]:
    if isinstance(stmt, ast.VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, ast.ArrayDecl):
        return list(stmt.init)
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.ArrayAssign):
        return [stmt.index, stmt.value]
    if isinstance(stmt, (ast.If, ast.While, ast.Assert, ast.Assume)):
        return [stmt.cond]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Print):
        return [stmt.value]
    if isinstance(stmt, ast.ExprStmt):
        return [stmt.expr]
    return []


def _lint_expression(
    expr: ast.Expr,
    state: IntervalState,
    domain: IntervalDomain,
    function: str,
    diagnostics: list[Diagnostic],
) -> None:
    if isinstance(expr, ast.BinaryOp):
        _lint_expression(expr.left, state, domain, function, diagnostics)
        if expr.op in ("&&", "||"):
            truth = domain.eval(expr.left, state).truth()
            short_circuits = truth is (expr.op == "||")
            if not short_circuits:
                _lint_expression(expr.right, state, domain, function, diagnostics)
            return
        _lint_expression(expr.right, state, domain, function, diagnostics)
        if expr.op in ("/", "%"):
            divisor = domain.eval(expr.right, state)
            if divisor.is_const and divisor.lo == 0:
                diagnostics.append(
                    Diagnostic(
                        line=expr.line,
                        severity=ERROR,
                        code="const-div-by-zero",
                        message=f"divisor of '{expr.op}' is always zero",
                        function=function,
                    )
                )
        elif expr.op in ("+", "-", "*"):
            left = domain.eval(expr.left, state)
            right = domain.eval(expr.right, state)
            if left.overflows(right, expr.op, domain.width):
                diagnostics.append(
                    Diagnostic(
                        line=expr.line,
                        severity=WARNING,
                        code="overflow",
                        message=(
                            f"'{expr.op}' always overflows"
                            f" {domain.width}-bit arithmetic"
                        ),
                        function=function,
                    )
                )
    elif isinstance(expr, ast.UnaryOp):
        _lint_expression(expr.operand, state, domain, function, diagnostics)
    elif isinstance(expr, ast.Conditional):
        _lint_expression(expr.cond, state, domain, function, diagnostics)
        truth = domain.eval(expr.cond, state).truth()
        if truth is not False:
            _lint_expression(expr.then, state, domain, function, diagnostics)
        if truth is not True:
            _lint_expression(expr.otherwise, state, domain, function, diagnostics)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            _lint_expression(arg, state, domain, function, diagnostics)
    elif isinstance(expr, ast.ArrayRef):
        _lint_expression(expr.index, state, domain, function, diagnostics)
        _lint_index(
            expr.name, expr.index, expr.line, state, domain, function, diagnostics
        )


def _lint_index(
    array: str,
    index: ast.Expr,
    line: int,
    state: IntervalState,
    domain: IntervalDomain,
    function: str,
    diagnostics: list[Diagnostic],
) -> None:
    size = domain.array_sizes.get(array)
    if size is None:
        return
    interval = domain.eval(index, state)
    if interval.empty:
        return
    if interval.hi < 0 or interval.lo >= size:
        diagnostics.append(
            Diagnostic(
                line=line,
                severity=ERROR,
                code="always-OOB",
                message=(
                    f"index {interval} of '{array}[{size}]' is always"
                    " out of bounds"
                ),
                function=function,
            )
        )


def _scalar_reads(expr: ast.Expr) -> Iterable[str]:
    if isinstance(expr, ast.VarRef):
        yield expr.name
    elif isinstance(expr, ast.UnaryOp):
        yield from _scalar_reads(expr.operand)
    elif isinstance(expr, ast.BinaryOp):
        yield from _scalar_reads(expr.left)
        yield from _scalar_reads(expr.right)
    elif isinstance(expr, ast.Conditional):
        yield from _scalar_reads(expr.cond)
        yield from _scalar_reads(expr.then)
        yield from _scalar_reads(expr.otherwise)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            yield from _scalar_reads(arg)
    elif isinstance(expr, ast.ArrayRef):
        yield from _scalar_reads(expr.index)


__all__ = [
    "AnalysisResult",
    "analyze_program",
    "analyze_source",
    "failed_result",
]
