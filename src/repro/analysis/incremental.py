"""The environment a function's interval solve depends on.

The interprocedural driver in :mod:`repro.analysis.analyzer` reaches its
fixpoint through a deterministic sequence of rounds; within one round every
function is solved independently from a snapshot of the interprocedural
environment (its parameter intervals, its callees' return summaries, the
global invariant and the array-size table).  The solve is a pure function
of that environment plus the function's body.

The analyzer's solve table rests on that: every live solve is kept in one
process-wide table, under a key naming the function's content and the
program facts its evaluation reads (width, array sizes, callee parameter
names), together with a :class:`RoundRecord` holding the slice of the
round's environment it ran under (:func:`environment_slice`).  A function
whose key is found and whose environment passes
:func:`environment_matches` against a kept solve's record — in a later
round of the same run, in a later analysis of the same program, or in an
analysis of another program carrying the same function — reuses that
solve instead of re-solving.  :func:`function_reads` names the slice of
the environment a function can observe, so the comparison ignores
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.intervals import Interval
from repro.cfg.defuse import function_local_names
from repro.lang import ast


@dataclass
class RoundRecord:
    """The environment of a fixpoint round, as a solve saw it: the slice
    :func:`environment_slice` keeps for one function."""

    #: Parameter intervals the function was solved under.
    params: dict[str, dict[str, Interval]] = field(default_factory=dict)
    #: Return-summary intervals at the round's start (the values callee
    #: evaluation reads during the solve).
    returns: dict[str, Interval] = field(default_factory=dict)
    #: Global invariant at the round's start.
    global_scalars: dict[str, Interval] = field(default_factory=dict)
    global_arrays: dict[str, Interval] = field(default_factory=dict)


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
    _add_statement_reads(function.body, callees, names)
    return frozenset(callees), frozenset(names - locals_)


def _add_expression_reads(
    expr: Optional[ast.Expr], callees: set[str], names: set[str]
) -> None:
    if expr is None:
        return
    if isinstance(expr, ast.VarRef):
        names.add(expr.name)
    elif isinstance(expr, ast.ArrayRef):
        names.add(expr.name)
        _add_expression_reads(expr.index, callees, names)
    elif isinstance(expr, ast.UnaryOp):
        _add_expression_reads(expr.operand, callees, names)
    elif isinstance(expr, ast.BinaryOp):
        _add_expression_reads(expr.left, callees, names)
        _add_expression_reads(expr.right, callees, names)
    elif isinstance(expr, ast.Conditional):
        _add_expression_reads(expr.cond, callees, names)
        _add_expression_reads(expr.then, callees, names)
        _add_expression_reads(expr.otherwise, callees, names)
    elif isinstance(expr, ast.Call):
        callees.add(expr.name)
        for arg in expr.args:
            _add_expression_reads(arg, callees, names)


def _add_statement_reads(
    statements: tuple[ast.Stmt, ...], callees: set[str], names: set[str]
) -> None:
    for stmt in statements:
        if isinstance(stmt, ast.VarDecl):
            _add_expression_reads(stmt.init, callees, names)
        elif isinstance(stmt, ast.ArrayDecl):
            for expr in stmt.init:
                _add_expression_reads(expr, callees, names)
        elif isinstance(stmt, ast.Assign):
            names.add(stmt.name)
            _add_expression_reads(stmt.value, callees, names)
        elif isinstance(stmt, ast.ArrayAssign):
            names.add(stmt.name)
            _add_expression_reads(stmt.index, callees, names)
            _add_expression_reads(stmt.value, callees, names)
        elif isinstance(stmt, ast.If):
            _add_expression_reads(stmt.cond, callees, names)
            _add_statement_reads(stmt.then_body, callees, names)
            _add_statement_reads(stmt.else_body, callees, names)
        elif isinstance(stmt, ast.While):
            _add_expression_reads(stmt.cond, callees, names)
            _add_statement_reads(stmt.body, callees, names)
        elif isinstance(stmt, (ast.Assert, ast.Assume)):
            _add_expression_reads(stmt.cond, callees, names)
        elif isinstance(stmt, (ast.Return, ast.Print)):
            _add_expression_reads(stmt.value, callees, names)
        elif isinstance(stmt, ast.ExprStmt):
            _add_expression_reads(stmt.expr, callees, names)


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


def environment_slice(
    name: str,
    reads: tuple[frozenset, frozenset],
    params: dict[str, Interval],
    returns: dict[str, Interval],
    global_scalars: dict[str, Interval],
    global_arrays: dict[str, Interval],
) -> RoundRecord:
    """The part of the live environment :func:`environment_matches`
    compares for ``name``, copied into a record (entries missing from the
    live environment stay missing)."""
    callees, nonlocals = reads
    return RoundRecord(
        params={name: params},
        returns={callee: returns[callee] for callee in callees if callee in returns},
        global_scalars={
            var: global_scalars[var] for var in nonlocals if var in global_scalars
        },
        global_arrays={
            var: global_arrays[var] for var in nonlocals if var in global_arrays
        },
    )


__all__ = [
    "RoundRecord",
    "environment_matches",
    "environment_slice",
    "function_reads",
]
