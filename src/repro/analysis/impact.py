"""Interprocedural change-impact analysis between program versions.

The dominant production workload is "localize version N+1 after having
localized version N": a CI rerun after a one-line patch.  A cold compile
re-derives everything — the abstract fixpoint, the backward slice, the
whole gate arena — even though almost all of it is identical to the
previous version's artifact.  This module makes "identical" a provable
static judgment instead of a text diff.

Every function gets two canonical hashes, both *line-number free* so that
pure reformatting (a comment added above a function) never looks like a
semantic change:

* ``exact_hash`` keeps every identifier.  Two functions with equal exact
  hashes encode to the same gate structure given the same inputs, which is
  the property the journal-replay splice (:mod:`repro.bmc.splice`) relies
  on.
* ``body_hash`` alpha-renames parameters and locals (and the function's
  own name, so recursion survives) before hashing.  Equal body hashes with
  different names mean a *renamed-but-identical* function — reported by
  :func:`diff_fingerprints` so stores can still find a nearest ancestor
  across refactors.

A :class:`ProgramFingerprint` bundles the per-function signatures with a
per-global hash and is small enough to store inside every
:class:`~repro.bmc.compiled.CompiledProgram`.  Diffing two fingerprints
yields a :class:`ChangeSet`; closing it over the call graph yields an
:class:`ImpactSet` with two distinct closures:

* ``encoding_impacted`` — functions whose *inlined encoding subtree* can
  differ: the changed functions plus every (transitive) caller.  Anything
  outside this set replays verbatim from the base artifact's journal.
* ``analysis_impacted`` — functions whose abstract fixpoint inputs can
  differ: the closure of the changed set along *both* call-graph
  directions (callers see changed return summaries, callees see changed
  argument intervals) plus every function touching a changed global.

Line sequences are recorded per function so that a stored fingerprint can
be mapped onto a structurally identical function that merely moved in the
file (:func:`build_line_map`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.cfg.defuse import (
    call_graph,
    function_local_names,
    statement_calls,
    statement_defs,
    statement_uses,
)
from repro.lang import ast

__all__ = [
    "FunctionSignature",
    "ProgramFingerprint",
    "ChangeSet",
    "ImpactSet",
    "function_signature",
    "fingerprint_program",
    "diff_fingerprints",
    "compute_impact",
    "build_line_map",
    "program_line_map",
]


# ------------------------------------------------------------ canonical form


def _canonical_expr(expr: Optional[ast.Expr], out: list[str], rename: Optional[dict]) -> None:
    """Append a canonical token stream for ``expr`` (line numbers omitted)."""
    if expr is None:
        out.append("~")
        return
    if isinstance(expr, ast.IntLiteral):
        out.append(f"#{expr.value}")
    elif isinstance(expr, ast.VarRef):
        name = rename.get(expr.name, expr.name) if rename is not None else expr.name
        out.append(f"v:{name}")
    elif isinstance(expr, ast.ArrayRef):
        name = rename.get(expr.name, expr.name) if rename is not None else expr.name
        out.append(f"a:{name}[")
        _canonical_expr(expr.index, out, rename)
        out.append("]")
    elif isinstance(expr, ast.UnaryOp):
        out.append(f"u:{expr.op}(")
        _canonical_expr(expr.operand, out, rename)
        out.append(")")
    elif isinstance(expr, ast.BinaryOp):
        out.append(f"b:{expr.op}(")
        _canonical_expr(expr.left, out, rename)
        out.append(",")
        _canonical_expr(expr.right, out, rename)
        out.append(")")
    elif isinstance(expr, ast.Conditional):
        out.append("?(")
        _canonical_expr(expr.cond, out, rename)
        out.append(",")
        _canonical_expr(expr.then, out, rename)
        out.append(",")
        _canonical_expr(expr.otherwise, out, rename)
        out.append(")")
    elif isinstance(expr, ast.Call):
        name = rename.get(expr.name, expr.name) if rename is not None else expr.name
        out.append(f"c:{name}(")
        for arg in expr.args:
            _canonical_expr(arg, out, rename)
            out.append(",")
        out.append(")")
    else:  # pragma: no cover - parser produces no other node kinds
        raise TypeError(f"unknown expression node {type(expr).__name__}")


def _canonical_stmts(
    statements: tuple[ast.Stmt, ...],
    out: list[str],
    rename: Optional[dict],
) -> None:
    for stmt in statements:
        if isinstance(stmt, ast.VarDecl):
            name = rename.get(stmt.name, stmt.name) if rename is not None else stmt.name
            out.append(f"decl:{name}=")
            _canonical_expr(stmt.init, out, rename)
        elif isinstance(stmt, ast.ArrayDecl):
            name = rename.get(stmt.name, stmt.name) if rename is not None else stmt.name
            out.append(f"adecl:{name}[{stmt.size}]=")
            for init in stmt.init:
                _canonical_expr(init, out, rename)
                out.append(",")
        elif isinstance(stmt, ast.Assign):
            name = rename.get(stmt.name, stmt.name) if rename is not None else stmt.name
            out.append(f"set:{name}=")
            _canonical_expr(stmt.value, out, rename)
        elif isinstance(stmt, ast.ArrayAssign):
            name = rename.get(stmt.name, stmt.name) if rename is not None else stmt.name
            out.append(f"aset:{name}[")
            _canonical_expr(stmt.index, out, rename)
            out.append("]=")
            _canonical_expr(stmt.value, out, rename)
        elif isinstance(stmt, ast.If):
            out.append("if(")
            _canonical_expr(stmt.cond, out, rename)
            out.append("){")
            _canonical_stmts(stmt.then_body, out, rename)
            out.append("}else{")
            _canonical_stmts(stmt.else_body, out, rename)
            out.append("}")
        elif isinstance(stmt, ast.While):
            out.append("while(")
            _canonical_expr(stmt.cond, out, rename)
            out.append("){")
            _canonical_stmts(stmt.body, out, rename)
            out.append("}")
        elif isinstance(stmt, ast.Return):
            out.append("ret:")
            _canonical_expr(stmt.value, out, rename)
        elif isinstance(stmt, ast.Assert):
            out.append("assert:")
            _canonical_expr(stmt.cond, out, rename)
        elif isinstance(stmt, ast.Assume):
            out.append("assume:")
            _canonical_expr(stmt.cond, out, rename)
        elif isinstance(stmt, ast.ExprStmt):
            out.append("expr:")
            _canonical_expr(stmt.expr, out, rename)
        elif isinstance(stmt, ast.Print):
            out.append("print:")
            _canonical_expr(stmt.value, out, rename)
        else:  # pragma: no cover - parser produces no other node kinds
            raise TypeError(f"unknown statement node {type(stmt).__name__}")
        out.append(";")


def _alpha_rename_table(function: ast.Function) -> dict[str, str]:
    """Map parameters, locals and the function's own name to stable
    placeholders (binding order, which the canonical walk preserves)."""
    rename: dict[str, str] = {function.name: "@self"}
    for position, param in enumerate(function.params):
        rename[param] = f"@p{position}"
    counter = 0
    for name in sorted(function_local_names(function) - set(function.params)):
        rename[name] = f"@l{counter}"
        counter += 1
    return rename


def _digest(tokens: Iterable[str]) -> str:
    return hashlib.sha256("".join(tokens).encode("utf-8")).hexdigest()[:32]


def _statement_line_sequence(statements: tuple[ast.Stmt, ...], out: list[int]) -> None:
    for stmt in statements:
        out.append(stmt.line)
        if isinstance(stmt, ast.If):
            _statement_line_sequence(stmt.then_body, out)
            _statement_line_sequence(stmt.else_body, out)
        elif isinstance(stmt, ast.While):
            _statement_line_sequence(stmt.body, out)


# ---------------------------------------------------------------- signatures


@dataclass(frozen=True)
class FunctionSignature:
    """The stable canonical identity of one function."""

    name: str
    #: Name-preserving, line-free hash: equality means the function encodes
    #: to the same gate structure given the same interface bits.
    exact_hash: str
    #: Alpha-renamed, line-free hash: equality across different names means
    #: a renamed-but-identical function.
    body_hash: str
    #: Number of declared parameters (part of the callable interface).
    arity: int
    returns_value: bool
    #: Global-ish free names the body references (reads *or* writes):
    #: anything that is neither a parameter nor a declared local.
    free_globals: tuple[str, ...]
    #: Functions called directly from the body.
    calls: tuple[str, ...]
    #: Source lines of every statement in canonical walk order — the key to
    #: remapping stored line-keyed facts onto a shifted but structurally
    #: identical body.
    line_sequence: tuple[int, ...]
    #: Hash of exactly what the backward slicer consumes from this body:
    #: per statement (in collect order) its kind, line, scope-qualified
    #: defs and uses, callee names, and the control-nesting brackets.  Two
    #: versions whose functions all match on this hash (and share the same
    #: function-name set) have provably identical backward slices, so a
    #: warm compile reuses the base artifact's ``pruned_lines`` verbatim —
    #: operator and constant mutations preserve it, so the dominant
    #: one-line-patch workload skips the slice fixpoint entirely.
    slice_hash: str = ""

    @property
    def num_statements(self) -> int:
        return len(self.line_sequence)


def function_signature(function: ast.Function) -> FunctionSignature:
    """Compute the canonical signature of one function."""
    # Interface tokens: arity and whether a value is returned are part of
    # both hashes (a signature change must never hash equal).
    header = f"fn/{len(function.params)}/{int(function.returns_value)}:"
    exact_tokens: list[str] = [header]
    for param in function.params:
        exact_tokens.append(f"p:{param},")
    _canonical_stmts(function.body, exact_tokens, rename=None)

    rename = _alpha_rename_table(function)
    alpha_tokens: list[str] = [header]
    _canonical_stmts(function.body, alpha_tokens, rename=rename)

    locals_and_params = function_local_names(function) | set(function.params)
    free: set[str] = set()
    calls: set[str] = set()
    slice_tokens: list[str] = [header]

    def scope_qualified(names: set[str]) -> str:
        return ",".join(
            sorted(
                ("L:" if name in locals_and_params else "G:") + name
                for name in names
            )
        )

    def visit_stmts(statements: tuple[ast.Stmt, ...]) -> None:
        for stmt in statements:
            uses = statement_uses(stmt)
            defs = statement_defs(stmt)
            stmt_calls = statement_calls(stmt)
            free.update(uses - locals_and_params)
            free.update(defs - locals_and_params)
            calls.update(stmt_calls)
            slice_tokens.append(
                f"{type(stmt).__name__}@{stmt.line}"
                f"|d={scope_qualified(defs)}"
                f"|u={scope_qualified(uses)}"
                f"|c={','.join(sorted(stmt_calls))};"
            )
            if isinstance(stmt, ast.If):
                slice_tokens.append("{")
                visit_stmts(stmt.then_body)
                slice_tokens.append("}{")
                visit_stmts(stmt.else_body)
                slice_tokens.append("}")
            elif isinstance(stmt, ast.While):
                slice_tokens.append("{")
                visit_stmts(stmt.body)
                slice_tokens.append("}")

    visit_stmts(function.body)
    lines: list[int] = []
    _statement_line_sequence(function.body, lines)
    return FunctionSignature(
        name=function.name,
        exact_hash=_digest(exact_tokens),
        body_hash=_digest(alpha_tokens),
        arity=len(function.params),
        returns_value=function.returns_value,
        free_globals=tuple(sorted(free)),
        calls=tuple(sorted(calls)),
        line_sequence=tuple(lines),
        slice_hash=_digest(slice_tokens),
    )


@dataclass(frozen=True)
class ProgramFingerprint:
    """Per-function signatures plus a per-global hash for one program."""

    functions: Mapping[str, FunctionSignature]
    #: ``name -> canonical hash`` of each global declaration.  Order matters
    #: for initialization, so the declaration *sequence* is hashed too.
    global_hashes: Mapping[str, str]
    globals_order_hash: str
    #: ``name -> statically evaluated initializer``: an ``int`` for scalar
    #: globals, a size-padded tuple of ints for arrays, or ``None`` when the
    #: initializer is not a literal constant.  A re-initialized global whose
    #: old and new values are both known lets a warm compile substitute the
    #: new constant pattern instead of declining the whole splice.
    global_inits: Mapping[str, object] = field(default_factory=dict)

    def function_hashes(self) -> dict[str, str]:
        return {name: sig.exact_hash for name, sig in self.functions.items()}

    def shared_statements(self, other: "ProgramFingerprint") -> int:
        """Number of statements living in functions whose exact hashes match
        between the two fingerprints — the store's nearest-ancestor score."""
        shared = 0
        for name, sig in self.functions.items():
            base = other.functions.get(name)
            if base is not None and base.exact_hash == sig.exact_hash:
                shared += sig.num_statements
        return shared


def _literal_value(expr: Optional[ast.Expr]) -> Optional[int]:
    """Statically evaluate a literal (possibly negated) initializer."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _literal_value(expr.operand)
        return None if inner is None else -inner
    return None


def _global_init_value(decl: ast.Stmt) -> Optional[object]:
    if isinstance(decl, ast.VarDecl):
        return 0 if decl.init is None else _literal_value(decl.init)
    if isinstance(decl, ast.ArrayDecl):
        cells = [0] * decl.size
        for index, expr in enumerate(decl.init):
            value = _literal_value(expr)
            if value is None:
                return None
            cells[index] = value
        return tuple(cells)
    return None  # pragma: no cover - parser emits no other global decls


def fingerprint_program(program: ast.Program) -> ProgramFingerprint:
    """Fingerprint every function and global declaration of ``program``."""
    functions = {name: function_signature(fn) for name, fn in program.functions.items()}
    global_hashes: dict[str, str] = {}
    global_inits: dict[str, object] = {}
    order_tokens: list[str] = []
    for decl in program.globals:
        tokens: list[str] = []
        _canonical_stmts((decl,), tokens, rename=None)
        global_hashes[decl.name] = _digest(tokens)
        global_inits[decl.name] = _global_init_value(decl)
        order_tokens.append(decl.name)
        order_tokens.append(global_hashes[decl.name])
    return ProgramFingerprint(
        functions=functions,
        global_hashes=global_hashes,
        globals_order_hash=_digest(order_tokens),
        global_inits=global_inits,
    )


# ---------------------------------------------------------------------- diff


@dataclass(frozen=True)
class ChangeSet:
    """The raw difference between two fingerprints (base → new)."""

    #: Present in both versions with different exact hashes.
    changed: tuple[str, ...]
    added: tuple[str, ...]
    removed: tuple[str, ...]
    #: ``(base_name, new_name)`` pairs among added/removed whose alpha-renamed
    #: body hashes match: renamed-but-identical functions.
    renamed: tuple[tuple[str, str], ...]
    #: Global declarations that were added, removed, re-typed or re-initialized.
    changed_globals: tuple[str, ...]
    #: True when global declaration *order* changed even if each declaration
    #: is individually unchanged (initialization order is observable).
    globals_reordered: bool

    @property
    def is_identical(self) -> bool:
        return not (self.changed or self.added or self.removed or self.changed_globals or self.globals_reordered)


def diff_fingerprints(base: ProgramFingerprint, new: ProgramFingerprint) -> ChangeSet:
    """Structurally diff two program fingerprints."""
    changed = tuple(
        sorted(
            name
            for name, sig in new.functions.items()
            if name in base.functions and base.functions[name].exact_hash != sig.exact_hash
        )
    )
    added = tuple(sorted(set(new.functions) - set(base.functions)))
    removed = tuple(sorted(set(base.functions) - set(new.functions)))
    renamed: list[tuple[str, str]] = []
    claimed: set[str] = set()
    for old_name in removed:
        old_sig = base.functions[old_name]
        for new_name in added:
            if new_name in claimed:
                continue
            if new.functions[new_name].body_hash == old_sig.body_hash:
                renamed.append((old_name, new_name))
                claimed.add(new_name)
                break
    changed_globals = tuple(
        sorted(
            set(
                name
                for name in set(base.global_hashes) | set(new.global_hashes)
                if base.global_hashes.get(name) != new.global_hashes.get(name)
            )
        )
    )
    return ChangeSet(
        changed=changed,
        added=added,
        removed=removed,
        renamed=tuple(renamed),
        changed_globals=changed_globals,
        globals_reordered=(
            base.globals_order_hash != new.globals_order_hash and not changed_globals
        ),
    )


# --------------------------------------------------------------- impact sets


@dataclass(frozen=True)
class ImpactSet:
    """Change closure over the new program's call graph."""

    #: Functions whose own body differs (changed + added).
    changed: frozenset[str]
    #: Functions whose inlined encoding subtree can differ: ``changed`` plus
    #: every transitive caller.  Statements outside these functions replay
    #: verbatim from a base artifact.
    encoding_impacted: frozenset[str]
    #: Functions whose abstract-interpretation inputs can differ: the
    #: closure of ``changed`` along both call directions plus every function
    #: touching a changed global.
    analysis_impacted: frozenset[str]
    #: Fraction of statements (by count) living in directly changed
    #: functions — the quantity reported as ``impact_fraction`` in benches.
    impact_fraction: float


def compute_impact(program: ast.Program, changes: ChangeSet) -> ImpactSet:
    """Close a :class:`ChangeSet` over ``program``'s call graph.

    ``program`` is the *new* version; removed functions have no bodies here
    and only matter through their (changed) former callers.
    """
    graph = call_graph(program)
    callers: dict[str, set[str]] = {name: set() for name in program.functions}
    for caller, callees in graph.items():
        for callee in callees:
            if callee in callers:
                callers[callee].add(caller)

    changed = {name for name in changes.changed if name in program.functions}
    changed.update(name for name in changes.added if name in program.functions)

    def closure(seeds: set[str], neighbours: dict[str, set[str]]) -> set[str]:
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            current = stack.pop()
            for nxt in neighbours.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    encoding = closure(set(changed), callers)

    analysis = closure(set(changed), callers) | closure(set(changed), graph)
    if changes.changed_globals or changes.globals_reordered:
        touched_globals = set(changes.changed_globals)
        for name, fn in program.functions.items():
            free = _free_globals(fn)
            if changes.globals_reordered or free & touched_globals:
                analysis.add(name)
        # A changed global can shift intervals anywhere it flows, so close
        # again over both directions from the newly added functions.
        analysis = closure(analysis, callers) | closure(analysis, graph)

    total = sum(len(sig_lines(fn)) for fn in program.functions.values())
    changed_statements = sum(len(sig_lines(program.functions[name])) for name in changed)
    fraction = (changed_statements / total) if total else 0.0
    return ImpactSet(
        changed=frozenset(changed),
        encoding_impacted=frozenset(encoding),
        analysis_impacted=frozenset(analysis),
        impact_fraction=fraction,
    )


def _free_globals(function: ast.Function) -> set[str]:
    return set(function_signature(function).free_globals)


def sig_lines(function: ast.Function) -> list[int]:
    lines: list[int] = []
    _statement_line_sequence(function.body, lines)
    return lines


# ----------------------------------------------------------------- line maps


def build_line_map(
    base_lines: tuple[int, ...], new_function: ast.Function
) -> Optional[dict[int, int]]:
    """Positionally map a stored line sequence onto ``new_function``.

    Returns ``base_line -> new_line`` or ``None`` when the sequences have
    different lengths (different structure — never map in that case).  The
    map is only meaningful when the stored signature's ``exact_hash``
    matches ``new_function``; callers check that first.
    """
    new_lines = sig_lines(new_function)
    if len(new_lines) != len(base_lines):
        return None
    mapping: dict[int, int] = {}
    for base_line, new_line in zip(base_lines, new_lines):
        existing = mapping.get(base_line)
        if existing is not None and existing != new_line:
            return None  # one base line split into several — ambiguous
        mapping[base_line] = new_line
    return mapping


def program_line_map(
    base: ProgramFingerprint,
    program: ast.Program,
    new: Optional[ProgramFingerprint] = None,
) -> Optional[dict[int, int]]:
    """Line map across every function with matching exact hashes.

    Only those functions need mapping: changed functions are re-derived
    from the new AST and already carry new lines.  Returns ``None`` when
    any shared line maps ambiguously (distinct functions on one line —
    does not happen with the repo's one-statement-per-line corpus, but
    correctness must not depend on that).  Passing the new program's
    already-computed fingerprint as ``new`` skips re-deriving signatures.
    """
    mapping: dict[int, int] = {}
    for name, fn in program.functions.items():
        base_sig = base.functions.get(name)
        if base_sig is None:
            continue
        if new is not None:
            new_sig = new.functions[name]
        else:
            new_sig = function_signature(fn)
        if new_sig.exact_hash != base_sig.exact_hash:
            continue
        if new_sig.line_sequence == base_sig.line_sequence:
            # Common case: the function did not move — identity entries.
            for line in base_sig.line_sequence:
                existing = mapping.get(line)
                if existing is None:
                    mapping[line] = line
                elif existing != line:
                    return None
            continue
        local = build_line_map(base_sig.line_sequence, fn)
        if local is None:
            return None
        for base_line, new_line in local.items():
            existing = mapping.get(base_line)
            if existing is not None and existing != new_line:
                return None
            mapping[base_line] = new_line
    return mapping
