"""Round-trajectory caching for incremental re-analysis.

The interprocedural driver in :mod:`repro.analysis.analyzer` reaches its
fixpoint through a deterministic sequence of rounds; within one round every
function is solved independently from a snapshot of the interprocedural
environment (its parameter intervals, its callees' return summaries, the
global invariant and the array-size table).  The solve is a pure function
of that environment plus the function's body — so a later analysis of a
*changed* program can skip the solve for any hash-identical function whose
environment at the same round compares equal to the recorded one, and
replay the recorded outputs instead.

That replay is exact, not approximate: a cache hit reproduces precisely
what a live solve would have produced, and a miss falls back to the live
solve — the incremental fixpoint is therefore value-identical to the cold
one on every program, which is what lets the splice path compare narrowing
tables across versions byte-for-byte.

The same predicate, :func:`environment_matches`, serves the analyzer's
solve table: every live solve is kept per program object, and a function
whose environment matches one a kept solve ran under — in a later round of
the same run or in a later analysis of the same program — reuses that
solve instead of re-solving.  Cross-version replay and the solve table
therefore rest on one notion of "the solve cannot have changed".

The :class:`AnalysisCache` produced by a recorded run is stored inside the
compiled artifact (everything in it pickles: intervals are frozen
dataclasses, diagnostics are plain records).  Line-keyed products carry
*base* line numbers; consumers remap them through the positional line map
of :mod:`repro.analysis.impact` before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis.intervals import Interval
from repro.cfg.defuse import function_local_names
from repro.lang import ast
from repro.lang.diagnostics import Diagnostic

#: Cache layout version — bump on any shape change so stale caches from
#: older artifacts are ignored rather than misread.
ANALYSIS_CACHE_VERSION = 2


@dataclass
class RoundRecord:
    """One fixpoint round: per-function environments and solve outputs."""

    #: Parameter intervals each function was solved under.
    params: dict[str, dict[str, Interval]] = field(default_factory=dict)
    #: Return-summary interval of every function at the round's start
    #: (the values callee evaluation reads during the solve).
    returns: dict[str, Interval] = field(default_factory=dict)
    #: Global invariant at the round's start.
    global_scalars: dict[str, Interval] = field(default_factory=dict)
    global_arrays: dict[str, Interval] = field(default_factory=dict)
    #: Solve outputs per function:
    #: ``(returned, call_arguments, global_scalar_writes, global_array_writes)``.
    outputs: dict[str, tuple] = field(default_factory=dict)


@dataclass
class FunctionProducts:
    """Final per-function analysis products, keyed for cross-version reuse.

    Line keys are the *recording* program's lines; remap through a line map
    before merging into a new :class:`~repro.analysis.analyzer.AnalysisResult`.
    """

    write_intervals: dict[int, Interval] = field(default_factory=dict)
    flow_write_intervals: dict[int, Interval] = field(default_factory=dict)
    variable_intervals: dict[str, Interval] = field(default_factory=dict)
    diagnostics: tuple[Diagnostic, ...] = ()
    #: Trip-count verdicts per guard line (``repro.analysis.loops``).
    #: Unwind-independent, so they transfer across encoding options; the
    #: unwind-dependent loop lints are re-derived from them after replay.
    loop_bounds: dict[int, "LoopBound"] = field(default_factory=dict)  # noqa: F821


@dataclass
class AnalysisCache:
    """Everything a later run needs to skip unchanged functions."""

    entry: str
    width: int
    array_sizes: dict[str, int] = field(default_factory=dict)
    rounds: list[RoundRecord] = field(default_factory=list)
    #: Environment of the final round (== the post-fixpoint environment the
    #: collectors and lints ran under), for product-reuse checks that must
    #: not depend on the two runs converging in the same number of rounds.
    final: Optional[RoundRecord] = None
    products: dict[str, FunctionProducts] = field(default_factory=dict)
    #: Per-function read sets: ``(callees, non-local names)``; recorded so a
    #: warm run compares only the environment slice a function can observe.
    reads: dict[str, tuple[frozenset, frozenset]] = field(default_factory=dict)
    version: int = ANALYSIS_CACHE_VERSION

    def usable_for(self, entry: str, width: int) -> bool:
        return (
            self.version == ANALYSIS_CACHE_VERSION
            and self.entry == entry
            and self.width == width
        )

    def __getstate__(self) -> dict:
        """The pickled state, every interval interned by value.

        Pickle writes an object once and refers back to it after that, so
        the bytes record which entries share one interval object.  A run
        that reuses solves kept from earlier analyses of the same program
        holds their interval objects, so that sharing would depend on the
        program's analysis history; interned, an artifact's bytes depend
        only on the values recorded.  Shared records and solve outputs stay
        shared: ``final`` is the last round, and a reused solve's outputs
        appear in several rounds.
        """
        intern = {}.setdefault
        copies: dict[int, object] = {}

        def intervals(table: dict) -> dict:
            return {key: intern(value, value) for key, value in table.items()}

        def outputs(out: tuple) -> tuple:
            done = copies.get(id(out))
            if done is None:
                returned, calls, scalar_writes, array_writes = out
                done = copies[id(out)] = (
                    intern(returned, returned),
                    {callee: intervals(args) for callee, args in calls.items()},
                    intervals(scalar_writes),
                    intervals(array_writes),
                )
            return done

        def record(round_: RoundRecord) -> RoundRecord:
            done = copies.get(id(round_))
            if done is None:
                done = copies[id(round_)] = RoundRecord(
                    params={name: intervals(p) for name, p in round_.params.items()},
                    returns=intervals(round_.returns),
                    global_scalars=intervals(round_.global_scalars),
                    global_arrays=intervals(round_.global_arrays),
                    outputs={name: outputs(o) for name, o in round_.outputs.items()},
                )
            return done

        state = dict(self.__dict__)
        state["rounds"] = [record(round_) for round_ in self.rounds]
        if self.final is not None:
            state["final"] = record(self.final)
        state["products"] = {
            name: replace(
                products,
                write_intervals=intervals(products.write_intervals),
                flow_write_intervals=intervals(products.flow_write_intervals),
                variable_intervals=intervals(products.variable_intervals),
            )
            for name, products in self.products.items()
        }
        return state


def function_reads(function: ast.Function) -> tuple[frozenset, frozenset]:
    """``(callees, non-local identifiers)`` a function's analysis can read.

    The second component over-approximates the function's window onto the
    global invariant: every variable or array name mentioned anywhere in
    the body that is neither a parameter nor a local declaration.  Write
    targets are included on purpose — the collectors join a written
    global's whole-program domain into the narrowing entry, so the global's
    invariant value is an analysis *input* even at a pure write site.
    """
    locals_ = function_local_names(function)
    callees: set[str] = set()
    names: set[str] = set()

    def visit_expr(expr: Optional[ast.Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.VarRef):
            names.add(expr.name)
        elif isinstance(expr, ast.ArrayRef):
            names.add(expr.name)
            visit_expr(expr.index)
        elif isinstance(expr, ast.UnaryOp):
            visit_expr(expr.operand)
        elif isinstance(expr, ast.BinaryOp):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, ast.Conditional):
            visit_expr(expr.cond)
            visit_expr(expr.then)
            visit_expr(expr.otherwise)
        elif isinstance(expr, ast.Call):
            callees.add(expr.name)
            for arg in expr.args:
                visit_expr(arg)

    def visit(statements: tuple[ast.Stmt, ...]) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.VarDecl):
                visit_expr(stmt.init)
            elif isinstance(stmt, ast.ArrayDecl):
                for expr in stmt.init:
                    visit_expr(expr)
            elif isinstance(stmt, ast.Assign):
                names.add(stmt.name)
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.ArrayAssign):
                names.add(stmt.name)
                visit_expr(stmt.index)
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.If):
                visit_expr(stmt.cond)
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, ast.While):
                visit_expr(stmt.cond)
                visit(stmt.body)
            elif isinstance(stmt, (ast.Assert, ast.Assume)):
                visit_expr(stmt.cond)
            elif isinstance(stmt, ast.Return):
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.Print):
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.ExprStmt):
                visit_expr(stmt.expr)

    visit(function.body)
    return frozenset(callees), frozenset(names - locals_)


def environment_matches(
    name: str,
    reads: tuple[frozenset, frozenset],
    params: dict[str, Interval],
    returns: dict[str, Interval],
    global_scalars: dict[str, Interval],
    global_arrays: dict[str, Interval],
    record: RoundRecord,
) -> bool:
    """Does the live environment match ``record``'s, as seen by ``name``?

    Compares only the slice the function can observe: its own parameter
    intervals, its callees' return summaries, and the global-invariant
    entries for names it mentions.  Missing entries on both sides count as
    equal (both reads would see the same default).
    """
    if record.params.get(name) != params:
        return False
    callees, nonlocals = reads
    record_returns = record.returns
    for callee in callees:
        if record_returns.get(callee) != returns.get(callee):
            return False
    record_scalars = record.global_scalars
    record_arrays = record.global_arrays
    for var in nonlocals:
        if record_scalars.get(var) != global_scalars.get(var):
            return False
        if record_arrays.get(var) != global_arrays.get(var):
            return False
    return True


__all__ = [
    "ANALYSIS_CACHE_VERSION",
    "AnalysisCache",
    "FunctionProducts",
    "RoundRecord",
    "environment_matches",
    "function_reads",
]
