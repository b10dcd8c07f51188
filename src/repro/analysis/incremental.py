"""The environment a function's interval solve depends on.

The interprocedural driver in :mod:`repro.analysis.analyzer` reaches its
fixpoint through a deterministic sequence of rounds; within one round every
function is solved independently from a snapshot of the interprocedural
environment (its parameter intervals, its callees' return summaries, the
global invariant and the array-size table).  The solve is a pure function
of that environment plus the function's body.

The analyzer's solve table rests on that: every live solve is kept in one
process-wide table under its key, which names the function's content and
the program facts its evaluation reads (width, array sizes, callee
parameter names), together with the fingerprint of the slice of the
round's environment the function can observe
(:func:`environment_fingerprint`).  A function whose key and fingerprint
are found — in a later round of the same run, in a later analysis of the
same program, or in an analysis of another program carrying the same
function — reuses that solve instead of re-solving, after one dict lookup
however many solves its key holds.  :func:`function_reads` names the slice
of the environment a function can observe, so the fingerprint leaves
everything else out.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.intervals import Interval
from repro.cfg.defuse import function_local_names
from repro.lang import ast


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


def environment_fingerprint(
    reads: tuple[tuple[str, ...], tuple[str, ...]],
    params: Mapping[str, Interval],
    returns: Mapping[str, Interval],
    global_scalars: Mapping[str, Interval],
    global_arrays: Mapping[str, Interval],
) -> tuple:
    """The slice of an environment a function observes, as a hashable value.

    ``reads`` is :func:`function_reads` as sorted tuples.  The fingerprint
    holds the function's parameter intervals sorted by name, then each
    callee's return summary, each non-local name's global scalar interval
    and each non-local name's global array interval; an entry missing from
    the environment is ``None``, so entries missing on both sides count as
    equal (both reads would see the same default).  ``reads`` fixes every
    entry's position after the parameters, so one flat tuple tells the
    parts apart.  Intervals enter as plain ``(lo, hi, empty)`` tuples,
    which compare exactly as :class:`Interval` does and hash without a
    Python-level ``__hash__``.  Two environments give equal fingerprints
    under the same ``reads`` exactly when the function's solve would read
    the same values in both.
    """
    callees, nonlocals = reads
    fingerprint: list = []
    for param in sorted(params):
        interval = params[param]
        fingerprint.append((param, interval.lo, interval.hi, interval.empty))
    for entries, names in (
        (returns, callees),
        (global_scalars, nonlocals),
        (global_arrays, nonlocals),
    ):
        for name in names:
            interval = entries.get(name)
            fingerprint.append(
                None if interval is None else (interval.lo, interval.hi, interval.empty)
            )
    return tuple(fingerprint)


__all__ = [
    "environment_fingerprint",
    "function_reads",
]
