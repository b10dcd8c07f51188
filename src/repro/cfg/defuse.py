"""Def/use analysis and static backward slicing over mini-C programs.

The slice is computed at *line* granularity and is flow-insensitive (a
sound over-approximation), but it is scope-sensitive and
control-dependence-aware: variables are resolved per function (a local
``i`` of one function does not alias a local ``i`` of another), a control
statement (``if``/``while``) enters the slice only when its body contains a
relevant line, and a call site enters the slice only when its callee
contains one.  This matches the "simple program slicing" the paper applies
before building the MaxSAT instance for the larger benchmarks (Table 3): it
removes assignments that cannot influence the checked assertion or output.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.lang import ast


def expression_uses(expr: Optional[ast.Expr]) -> set[str]:
    """Variables (scalars and arrays) read by an expression."""
    if expr is None:
        return set()
    if isinstance(expr, ast.IntLiteral):
        return set()
    if isinstance(expr, ast.VarRef):
        return {expr.name}
    if isinstance(expr, ast.ArrayRef):
        return {expr.name} | expression_uses(expr.index)
    if isinstance(expr, ast.UnaryOp):
        return expression_uses(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return expression_uses(expr.left) | expression_uses(expr.right)
    if isinstance(expr, ast.Conditional):
        return (
            expression_uses(expr.cond)
            | expression_uses(expr.then)
            | expression_uses(expr.otherwise)
        )
    if isinstance(expr, ast.Call):
        uses: set[str] = set()
        for arg in expr.args:
            uses |= expression_uses(arg)
        return uses
    return set()


def expression_calls(expr: Optional[ast.Expr]) -> set[str]:
    """Functions called (directly) from an expression."""
    if expr is None:
        return set()
    if isinstance(expr, ast.Call):
        calls = {expr.name}
        for arg in expr.args:
            calls |= expression_calls(arg)
        return calls
    if isinstance(expr, ast.UnaryOp):
        return expression_calls(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return expression_calls(expr.left) | expression_calls(expr.right)
    if isinstance(expr, ast.Conditional):
        return (
            expression_calls(expr.cond)
            | expression_calls(expr.then)
            | expression_calls(expr.otherwise)
        )
    if isinstance(expr, ast.ArrayRef):
        return expression_calls(expr.index)
    return set()


def statement_defs(stmt: ast.Stmt) -> set[str]:
    """Variables written by a statement (not descending into bodies)."""
    if isinstance(stmt, (ast.VarDecl, ast.Assign)):
        return {stmt.name}
    if isinstance(stmt, (ast.ArrayDecl, ast.ArrayAssign)):
        return {stmt.name}
    return set()


def statement_uses(stmt: ast.Stmt) -> set[str]:
    """Variables read by a statement (not descending into bodies)."""
    if isinstance(stmt, ast.VarDecl):
        return expression_uses(stmt.init)
    if isinstance(stmt, ast.ArrayDecl):
        uses: set[str] = set()
        for expr in stmt.init:
            uses |= expression_uses(expr)
        return uses
    if isinstance(stmt, ast.Assign):
        return expression_uses(stmt.value)
    if isinstance(stmt, ast.ArrayAssign):
        return {stmt.name} | expression_uses(stmt.index) | expression_uses(stmt.value)
    if isinstance(stmt, (ast.If, ast.While)):
        return expression_uses(stmt.cond)
    if isinstance(stmt, ast.Return):
        return expression_uses(stmt.value)
    if isinstance(stmt, (ast.Assert, ast.Assume)):
        return expression_uses(stmt.cond)
    if isinstance(stmt, ast.ExprStmt):
        return expression_uses(stmt.expr)
    if isinstance(stmt, ast.Print):
        return expression_uses(stmt.value)
    return set()


def statement_calls(stmt: ast.Stmt) -> set[str]:
    """Functions called directly from a statement (not descending into bodies)."""
    if isinstance(stmt, ast.VarDecl):
        return expression_calls(stmt.init)
    if isinstance(stmt, ast.ArrayDecl):
        calls: set[str] = set()
        for expr in stmt.init:
            calls |= expression_calls(expr)
        return calls
    if isinstance(stmt, ast.Assign):
        return expression_calls(stmt.value)
    if isinstance(stmt, ast.ArrayAssign):
        return expression_calls(stmt.index) | expression_calls(stmt.value)
    if isinstance(stmt, (ast.If, ast.While)):
        return expression_calls(stmt.cond)
    if isinstance(stmt, ast.Return):
        return expression_calls(stmt.value)
    if isinstance(stmt, (ast.Assert, ast.Assume)):
        return expression_calls(stmt.cond)
    if isinstance(stmt, ast.ExprStmt):
        return expression_calls(stmt.expr)
    if isinstance(stmt, ast.Print):
        return expression_calls(stmt.value)
    return set()


def called_functions(program: ast.Program, function: str) -> set[str]:
    """Functions transitively reachable from ``function`` in the call graph."""
    graph = call_graph(program)
    seen: set[str] = set()
    frontier = [function]
    while frontier:
        current = frontier.pop()
        for callee in graph.get(current, set()):
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return seen


def call_graph(program: ast.Program) -> dict[str, set[str]]:
    """Direct call graph of the program."""
    graph: dict[str, set[str]] = {}

    def visit(statements: tuple[ast.Stmt, ...], caller: str) -> None:
        for stmt in statements:
            graph.setdefault(caller, set()).update(
                name for name in statement_calls(stmt) if name in program.functions
            )
            if isinstance(stmt, ast.If):
                visit(stmt.then_body, caller)
                visit(stmt.else_body, caller)
            elif isinstance(stmt, ast.While):
                visit(stmt.body, caller)

    for name, function in program.functions.items():
        graph.setdefault(name, set())
        visit(function.body, name)
    return graph


def function_local_names(function: ast.Function) -> set[str]:
    """Parameters and locally declared variable names of a function."""
    names: set[str] = set(function.params)
    _add_declared_names(function.body, names)
    return names


def _add_declared_names(statements: tuple[ast.Stmt, ...], names: set[str]) -> None:
    for stmt in statements:
        if isinstance(stmt, (ast.VarDecl, ast.ArrayDecl)):
            names.add(stmt.name)
        if isinstance(stmt, ast.If):
            _add_declared_names(stmt.then_body, names)
            _add_declared_names(stmt.else_body, names)
        elif isinstance(stmt, ast.While):
            _add_declared_names(stmt.body, names)


def backward_slice_lines(
    program: ast.Program,
    criterion_variables: Optional[Iterable[str]] = None,
) -> set[int]:
    """Lines that may influence the assertions / outputs of the program.

    The slicing criterion defaults to every variable used in an ``assert``,
    ``print_int`` or ``return`` statement of ``main`` (plus explicitly given
    ``criterion_variables``).  The result is the set of source lines whose
    statements can (transitively, flow-insensitively) affect those variables.

    Variables are qualified by their defining scope: a local of one function
    never matches a like-named local of another, so a helper whose locals
    merely shadow relevant names stays out of the slice.  Control statements
    join the slice only when their bodies contain a relevant line, and a
    call site joins only once its callee does — this keeps functions with no
    influence on the criterion entirely out of the slice, which is what lets
    :func:`repro.reduction.slicing.sliced_tracer_settings` classify them as
    concretizable.
    """
    locals_of = {
        name: function_local_names(function)
        for name, function in program.functions.items()
    }
    defined_functions = set(program.functions)

    # Each record is (statement, enclosing function, enclosing control
    # statements from outermost to innermost).
    records: list[tuple[ast.Stmt, str, tuple[ast.Stmt, ...]]] = []

    def collect(
        statements: tuple[ast.Stmt, ...], function: str, parents: tuple[ast.Stmt, ...]
    ) -> None:
        for stmt in statements:
            records.append((stmt, function, parents))
            if isinstance(stmt, ast.If):
                collect(stmt.then_body, function, parents + (stmt,))
                collect(stmt.else_body, function, parents + (stmt,))
            elif isinstance(stmt, ast.While):
                collect(stmt.body, function, parents + (stmt,))

    for name, function in program.functions.items():
        collect(function.body, name, ())

    def qualify(names: set[str], function: str) -> frozenset:
        scope = locals_of.get(function, set())
        return frozenset((function if name in scope else None, name) for name in names)

    # Precompute each record's slice-relevant facts once, plus the indexes
    # the worklist propagation consults: which records define a qualified
    # variable, which records call a function, which records sit on a line,
    # and which Return/Assert/Assume records belong to each function.  The
    # closure then touches each record and each fact a bounded number of
    # times instead of rescanning every record per round.
    count = len(records)
    rec_line: list[int] = [0] * count
    rec_uses: list[frozenset] = [frozenset()] * count
    rec_calls: list[frozenset] = [frozenset()] * count
    rec_parent_lines: list[tuple[int, ...]] = [()] * count
    line_records: dict[int, list[int]] = {}
    line_functions: dict[int, set[str]] = {}
    def_index: dict[tuple, list[int]] = {}
    call_index: dict[str, list[int]] = {}
    fn_exit_records: dict[str, list[int]] = {}
    for index, (stmt, function, parents) in enumerate(records):
        rec_line[index] = stmt.line
        rec_uses[index] = qualify(statement_uses(stmt), function)
        calls = frozenset(statement_calls(stmt) & defined_functions)
        rec_calls[index] = calls
        rec_parent_lines[index] = tuple(parent.line for parent in parents)
        line_records.setdefault(stmt.line, []).append(index)
        line_functions.setdefault(stmt.line, set()).add(function)
        for var in qualify(statement_defs(stmt), function):
            def_index.setdefault(var, []).append(index)
        for callee in calls:
            call_index.setdefault(callee, []).append(index)
        if isinstance(stmt, (ast.Return, ast.Assert, ast.Assume)):
            fn_exit_records.setdefault(function, []).append(index)

    relevant_lines: set[int] = set()
    relevant_vars: set[tuple[Optional[str], str]] = set()
    relevant_functions: set[str] = set()
    functions_with_relevant_lines: set[str] = set()
    marked = bytearray(count)
    queue: list[int] = []

    def mark(index: int) -> None:
        if not marked[index]:
            marked[index] = 1
            queue.append(index)

    def add_line(line: int) -> None:
        if line in relevant_lines:
            return
        relevant_lines.add(line)
        for function in line_functions.get(line, ()):
            if function not in functions_with_relevant_lines:
                functions_with_relevant_lines.add(function)
                # A call site matters as soon as its callee contains a
                # relevant statement (the call is what executes it).
                for site in call_index.get(function, ()):
                    mark(site)
        for index in line_records.get(line, ()):
            mark(index)

    def add_var(var: tuple) -> None:
        if var not in relevant_vars:
            relevant_vars.add(var)
            for index in def_index.get(var, ()):
                mark(index)

    def add_function(function: str) -> None:
        # A (transitively) called function's returns, assertions and
        # assumptions constrain what the caller observes.
        if function not in relevant_functions:
            relevant_functions.add(function)
            for index in fn_exit_records.get(function, ()):
                mark(index)

    for name in criterion_variables or ():
        # Explicit criterion names are matched in every scope they occur in.
        add_var((None, name))
        for function, scope in locals_of.items():
            if name in scope:
                add_var((function, name))

    # Seeds: assertions and outputs anywhere, plus the entry point (its
    # assumptions and returns constrain the test inputs and the result).
    add_function("main")
    for index, (stmt, function, parents) in enumerate(records):
        if isinstance(stmt, (ast.Assert, ast.Print)) or (
            isinstance(stmt, ast.Return) and function == "main"
        ):
            mark(index)

    while queue:
        index = queue.pop()
        add_line(rec_line[index])
        for line in rec_parent_lines[index]:  # control dependence
            add_line(line)
        for var in rec_uses[index]:
            add_var(var)
        for callee in rec_calls[index]:
            add_function(callee)
    return relevant_lines
