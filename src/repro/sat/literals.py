"""Literal and variable helpers.

Externally (the user-facing API) literals are non-zero signed integers:
``+v`` is the positive literal of variable ``v`` and ``-v`` its negation,
exactly as in the DIMACS convention.  This module provides the
small helpers shared by the solver, the encoders and the MaxSAT layer.
"""

from __future__ import annotations

from typing import Iterable


def neg(lit: int) -> int:
    """Return the negation of a signed literal."""
    return -lit


def lit_to_var(lit: int) -> int:
    """Return the (positive) variable index underlying ``lit``."""
    return lit if lit > 0 else -lit


def var_to_lit(var: int, positive: bool = True) -> int:
    """Build a literal for ``var`` with the requested polarity."""
    if var <= 0:
        raise ValueError(f"variable index must be positive, got {var}")
    return var if positive else -var


def normalize_clause(lits: Iterable[int]) -> list[int] | None:
    """Sort a clause, drop duplicate literals, and detect tautologies.

    Returns ``None`` when the clause is a tautology (contains both ``l`` and
    ``-l``), otherwise the deduplicated literal list in ascending order of
    variable index.
    """
    seen: set[int] = set()
    out: list[int] = []
    for lit in lits:
        if lit == 0:
            raise ValueError("0 is not a valid literal")
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    out.sort(key=lambda l: (lit_to_var(l), l < 0))
    return out
