"""Program slicing (the "S" trace-reduction technique)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from repro.cfg import backward_slice_lines
from repro.lang import ast


#: Slices already computed, keyed by :func:`_slice_key`; at most
#: :data:`SLICE_MEMO_CAP` entries, least recently used evicted first.
_slice_memo: OrderedDict = OrderedDict()
SLICE_MEMO_CAP = 64


def _slice_key(
    program: ast.Program,
    criterion: Optional[tuple[str, ...]],
    protected: frozenset[str],
) -> tuple:
    """What a slice depends on: the program's frozen top-level objects by
    identity, the criterion and the protected functions.

    ``Function``, ``VarDecl`` and ``ArrayDecl`` are frozen, so a program
    whose function or global was replaced (the only way to change one)
    gets a new key.  The memo entry holds the objects themselves, so an id
    in a live key can never be reused by another object.
    """
    return (
        tuple((name, id(function)) for name, function in program.functions.items()),
        tuple(map(id, program.globals)),
        criterion,
        protected,
    )


def sliced_tracer_settings(
    program: ast.Program,
    criterion_variables: Optional[Iterable[str]] = None,
    protected_functions: Iterable[str] = (),
) -> dict[str, object]:
    """Tracer keyword arguments implementing slicing-based trace reduction.

    Returns ``{"relevant_lines": ..., "concrete_functions": ...}``: the
    backward slice plus the list of functions none of whose statements are in
    the slice — such functions are executed concretely, which removes whole
    irrelevant call trees from the formula (function-level slicing).

    The slice is memoized (:func:`_slice_key`): trace mode slices the same
    cached program on every request.  Each call returns its own
    ``relevant_lines`` set.
    """
    criterion = None if criterion_variables is None else tuple(criterion_variables)
    protected = frozenset(protected_functions) | {"main"}
    key = _slice_key(program, criterion, protected)
    entry = _slice_memo.get(key)
    if entry is None:
        relevant = backward_slice_lines(program, criterion)
        concrete: list[str] = []
        for name, function in program.functions.items():
            if name in protected:
                continue
            lines = _function_lines(function)
            if lines and not lines & relevant:
                concrete.append(name)
        # The objects ride along so their ids stay unique while keyed.
        entry = (
            tuple(program.functions.values()),
            tuple(program.globals),
            frozenset(relevant),
            tuple(sorted(concrete)),
        )
        _slice_memo[key] = entry
        if len(_slice_memo) > SLICE_MEMO_CAP:
            _slice_memo.popitem(last=False)
    else:
        _slice_memo.move_to_end(key)
    return {"relevant_lines": set(entry[2]), "concrete_functions": entry[3]}


def _function_lines(function: ast.Function) -> set[int]:
    lines: set[int] = set()

    def visit(statements) -> None:
        for stmt in statements:
            lines.add(stmt.line)
            if isinstance(stmt, ast.If):
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, ast.While):
                visit(stmt.body)

    visit(function.body)
    return lines


def slice_relevant_lines(
    program: ast.Program,
    criterion_variables: Optional[Iterable[str]] = None,
) -> set[int]:
    """Source lines that may influence the program's assertions and outputs.

    The returned set is meant to be passed as ``relevant_lines`` to
    :class:`repro.concolic.ConcolicTracer`: statements outside the slice are
    executed concretely and contribute no clauses to the MaxSAT instance,
    which is exactly how "a simple program slicing removed the assignments
    irrelevant to the assertion being checked" in the paper's tot_info
    experiment.
    """
    return backward_slice_lines(program, criterion_variables)
