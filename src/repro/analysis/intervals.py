"""The interval abstract domain over fixed-width two's-complement ints.

Every transfer function here over-approximates the concrete semantics of
:mod:`repro.lang.semantics` — including the silent wrap-around, the
``x / 0 == 0`` and ``x % 0 == x`` conventions and C truncation toward zero.
Soundness is load-bearing: the range-narrowed encoding emits clauses claiming
a statement's value fits the analyzed interval, so an interval that misses a
reachable concrete value would make the trace formula over-constrained.

Arithmetic is computed in unbounded math first and then pushed through
:func:`Interval.from_unbounded`, which models the wrap: a result range that
fits the width is exact, one that spans more than ``2**width`` values is TOP,
and anything else wraps both endpoints (collapsing to TOP if they cross the
sign boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.lang.semantics import DEFAULT_WIDTH, wrap


def width_bounds(width: int = DEFAULT_WIDTH) -> Tuple[int, int]:
    return -(1 << (width - 1)), (1 << (width - 1)) - 1


@dataclass(frozen=True)
class Interval:
    """A (possibly empty) closed integer interval ``[lo, hi]``."""

    lo: int
    hi: int
    empty: bool = False

    # ------------------------------------------------------------- factories

    @staticmethod
    def top(width: int = DEFAULT_WIDTH) -> "Interval":
        return _top(width)

    @staticmethod
    def bottom() -> "Interval":
        return _BOTTOM

    @staticmethod
    def const(value: int, width: int = DEFAULT_WIDTH) -> "Interval":
        value = wrap(value, width)
        return Interval(value, value)

    @staticmethod
    def boolean() -> "Interval":
        return Interval(0, 1)

    @staticmethod
    def from_unbounded(lo: int, hi: int, width: int = DEFAULT_WIDTH) -> "Interval":
        """Abstract the wrap of an unbounded-math result range."""
        if lo > hi:
            return Interval.bottom()
        wlo, whi = width_bounds(width)
        if wlo <= lo and hi <= whi:
            return Interval(lo, hi)
        if hi - lo >= (1 << width):
            return Interval.top(width)
        lo_wrapped, hi_wrapped = wrap(lo, width), wrap(hi, width)
        if lo_wrapped <= hi_wrapped:
            return Interval(lo_wrapped, hi_wrapped)
        return Interval.top(width)

    # ------------------------------------------------------------- predicates

    @property
    def is_const(self) -> bool:
        return not self.empty and self.lo == self.hi

    def const_value(self) -> Optional[int]:
        return self.lo if self.is_const else None

    def contains(self, value: int) -> bool:
        return not self.empty and self.lo <= value <= self.hi

    def is_top(self, width: int = DEFAULT_WIDTH) -> bool:
        return not self.empty and (self.lo, self.hi) == width_bounds(width)

    #: Truthiness of the interval as a C condition.
    def truth(self) -> Optional[bool]:
        """True / False when provable, None when both outcomes possible."""
        if self.empty:
            return None
        if self.lo == 0 and self.hi == 0:
            return False
        if self.lo > 0 or self.hi < 0:
            return True
        return None

    # ---------------------------------------------------------------- lattice

    def join(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        if self.lo <= other.lo and other.hi <= self.hi:
            return self
        if other.lo <= self.lo and self.hi <= other.hi:
            return other
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return Interval.bottom()
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return Interval.bottom()
        return Interval(lo, hi)

    def widen(self, other: "Interval", width: int = DEFAULT_WIDTH) -> "Interval":
        """Standard interval widening: jump unstable bounds to the width
        limits so loop iteration converges in O(1) rounds."""
        if self.empty:
            return other
        if other.empty:
            return self
        wlo, whi = width_bounds(width)
        lo = self.lo if other.lo >= self.lo else wlo
        hi = self.hi if other.hi <= self.hi else whi
        return Interval(lo, hi)

    # ------------------------------------------------------------- arithmetic

    def add(self, other: "Interval", width: int = DEFAULT_WIDTH) -> "Interval":
        if self.empty or other.empty:
            return Interval.bottom()
        return Interval.from_unbounded(self.lo + other.lo, self.hi + other.hi, width)

    def sub(self, other: "Interval", width: int = DEFAULT_WIDTH) -> "Interval":
        if self.empty or other.empty:
            return Interval.bottom()
        return Interval.from_unbounded(self.lo - other.hi, self.hi - other.lo, width)

    def neg(self, width: int = DEFAULT_WIDTH) -> "Interval":
        if self.empty:
            return Interval.bottom()
        return Interval.from_unbounded(-self.hi, -self.lo, width)

    def mul(self, other: "Interval", width: int = DEFAULT_WIDTH) -> "Interval":
        if self.empty or other.empty:
            return Interval.bottom()
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval.from_unbounded(min(products), max(products), width)

    def overflows(self, other: "Interval", op: str, width: int = DEFAULT_WIDTH) -> bool:
        """True when the *exact* result of ``self op other`` provably lies
        outside the representable range for every operand pair (the
        provable-overflow lint)."""
        if self.empty or other.empty:
            return False
        if op == "+":
            lo, hi = self.lo + other.lo, self.hi + other.hi
        elif op == "-":
            lo, hi = self.lo - other.hi, self.hi - other.lo
        elif op == "*":
            products = [
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            ]
            lo, hi = min(products), max(products)
        else:
            return False
        wlo, whi = width_bounds(width)
        return lo > whi or hi < wlo

    def overflow_possible(
        self, other: "Interval", op: str, width: int = DEFAULT_WIDTH
    ) -> bool:
        """True when ``self op other`` might wrap for *some* operand pair —
        the guard that keeps backward refinement (which reasons in unbounded
        arithmetic) sound."""
        if self.empty or other.empty:
            return False
        if op == "+":
            lo, hi = self.lo + other.lo, self.hi + other.hi
        elif op == "-":
            lo, hi = self.lo - other.hi, self.hi - other.lo
        elif op == "*":
            products = [
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            ]
            lo, hi = min(products), max(products)
        else:
            return True
        wlo, whi = width_bounds(width)
        return lo < wlo or hi > whi

    def div(self, other: "Interval", width: int = DEFAULT_WIDTH) -> "Interval":
        """C truncating division, with ``x / 0 == 0``."""
        if self.empty or other.empty:
            return Interval.bottom()
        result = Interval.bottom()
        if other.contains(0):
            result = result.join(Interval.const(0, width))
        for part in other._nonzero_parts():
            candidates = [
                _c_div(self.lo, part.lo),
                _c_div(self.lo, part.hi),
                _c_div(self.hi, part.lo),
                _c_div(self.hi, part.hi),
            ]
            # Truncation makes the quotient non-monotone around zero; the
            # endpoint quotients still bound it because |q| is maximized at
            # the dividend endpoints and the smallest-magnitude divisor.
            if part.contains(1):
                candidates.extend([self.lo, self.hi])
            if part.contains(-1):
                candidates.extend([-self.lo, -self.hi])
            result = result.join(
                Interval.from_unbounded(min(candidates), max(candidates), width)
            )
        return result

    def mod(self, other: "Interval", width: int = DEFAULT_WIDTH) -> "Interval":
        """C truncating remainder (sign of the dividend), ``x % 0 == x``."""
        if self.empty or other.empty:
            return Interval.bottom()
        result = Interval.bottom()
        if other.contains(0):
            result = result.join(self)  # x % 0 == x
        for part in other._nonzero_parts():
            magnitude = max(abs(part.lo), abs(part.hi)) - 1
            lo = 0 if self.lo >= 0 else max(self.lo, -magnitude)
            hi = 0 if self.hi <= 0 else min(self.hi, magnitude)
            result = result.join(Interval.from_unbounded(lo, hi, width))
        return result

    def _nonzero_parts(self) -> list["Interval"]:
        parts: list[Interval] = []
        if self.lo < 0:
            parts.append(Interval(self.lo, min(self.hi, -1)))
        if self.hi > 0:
            parts.append(Interval(max(self.lo, 1), self.hi))
        return parts

    # ------------------------------------------------------------ comparisons

    def compare(self, op: str, other: "Interval") -> "Interval":
        """Abstract a comparison: [1,1] / [0,0] when provable, else [0,1]."""
        if self.empty or other.empty:
            return Interval.bottom()
        definitely = {
            "<": (self.hi < other.lo, self.lo >= other.hi),
            "<=": (self.hi <= other.lo, self.lo > other.hi),
            ">": (self.lo > other.hi, self.hi <= other.lo),
            ">=": (self.lo >= other.hi, self.hi < other.lo),
            "==": (
                self.is_const and other.is_const and self.lo == other.lo,
                self.meet(other).empty,
            ),
            "!=": (
                self.meet(other).empty,
                self.is_const and other.is_const and self.lo == other.lo,
            ),
        }
        if op not in definitely:
            raise ValueError(f"unknown comparison {op!r}")
        is_true, is_false = definitely[op]
        if is_true:
            return Interval.const(1)
        if is_false:
            return Interval.const(0)
        return Interval.boolean()

    def refine(self, op: str, other: "Interval") -> Tuple["Interval", "Interval"]:
        """Refine both operand intervals under the assumption that the
        comparison holds; used along CFG branch edges."""
        if self.empty or other.empty:
            return Interval.bottom(), Interval.bottom()
        left, right = self, other
        if op == "<":
            left = left.meet(Interval(left.lo, right.hi - 1))
            right = right.meet(Interval(left.lo + 1, right.hi)) if not left.empty else Interval.bottom()
        elif op == "<=":
            left = left.meet(Interval(left.lo, right.hi))
            right = right.meet(Interval(left.lo, right.hi)) if not left.empty else Interval.bottom()
        elif op == ">":
            right_refined = right.meet(Interval(right.lo, left.hi - 1))
            left = left.meet(Interval(right.lo + 1, left.hi))
            right = right_refined
        elif op == ">=":
            right_refined = right.meet(Interval(right.lo, left.hi))
            left = left.meet(Interval(right.lo, left.hi))
            right = right_refined
        elif op == "==":
            both = left.meet(right)
            left = right = both
        elif op == "!=":
            left = left._trim(right)
            right = right._trim(self)
        return left, right

    def _trim(self, other: "Interval") -> "Interval":
        """Refinement for ``!=``: drop an endpoint equal to a constant."""
        if self.empty or not other.is_const:
            return self
        value = other.lo
        if self.is_const and self.lo == value:
            return Interval.bottom()
        if self.lo == value:
            return Interval(self.lo + 1, self.hi)
        if self.hi == value:
            return Interval(self.lo, self.hi - 1)
        return self

    # -------------------------------------------------------------- narrowing

    def narrowing_plan(
        self, width: int = DEFAULT_WIDTH, margin: int = 2, floor: int = 4
    ) -> Optional[Tuple[int, bool]]:
        """How to narrow a fresh bit-vector bound to a value in this range.

        Returns ``(k, signed)``: ``k`` low bits are fresh variables and the
        remaining high bits are pinned — to constant false for non-negative
        ranges (unsigned narrowing covers ``[0, 2**k - 1]``), or to a
        replicated sign bit otherwise (sign extension covers
        ``[-2**(k-1), 2**(k-1) - 1]``).  ``margin`` extra bits widen the
        representable range beyond the proven one and ``floor`` keeps at
        least that many bits free: both leave slack for MaxSAT repairs,
        whose values (the *fixed* program's values when the statement is
        relaxed) can stray beyond what the faulty program computes.  The
        main slack, though, comes from the caller narrowing against the
        variable's whole-program range, not a single write's range.
        Returns ``None`` when narrowing would not drop any bit.
        """
        if self.empty:
            return None
        if self.lo >= 0:
            k = max(1, self.hi.bit_length()) + margin
            signed = False
        else:
            magnitude = max(self.hi + 1 if self.hi >= 0 else 0, -self.lo)
            k = max(1, magnitude.bit_length() + 1) + margin
            signed = True
        k = max(k, floor)
        if k >= width:
            return None
        return k, signed

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "⊥" if self.empty else f"[{self.lo}, {self.hi}]"


# Intervals are immutable, so the analysis shares one bottom and one top per
# width instead of constructing a fresh one at every read of an unset name.
_BOTTOM = Interval(0, 0, empty=True)


@lru_cache(maxsize=None)
def _top(width: int) -> Interval:
    lo, hi = width_bounds(width)
    return Interval(lo, hi)


def _c_div(left: int, right: int) -> int:
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient
