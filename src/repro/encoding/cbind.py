"""ctypes dispatch of the C emission core over a :class:`GateArena`.

The :class:`CEncoder` wraps the shared library built from
``src/repro/sat/encode.c`` around an arena's flat ``array('q')`` buffers.
Python stays in charge of all memory: before every C call the wrapper
reserves worst-case capacity through the arena's ``ensure_*`` methods (the
C side never grows a buffer), and base addresses are re-resolved whenever a
buffer's length changed — ``array`` reallocation only happens on resize, so
the (cheap) length tuple is a sound cache key for the pointer tuple.

Granularity: the bit-vector operations (add / multiply / equals /
unsigned-less / mux), the statement-level equations (``assign``, behind
``CircuitBuilder.assert_equal`` and ``fix_to_value``) and the OR-reduction
(``or_many``, behind ``is_nonzero``) cross into C once per *vector*, the
residual scalar gate calls once per gate.  ``calls`` counts the crossings
(deterministic for a given compile).  Both directions interleave freely
with the pure-Python arena routines because all state lives in the shared
buffers.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Optional, Sequence

from repro.encoding.arena import GateArena

#: Worst-case per-gate cost used for capacity reservations: the largest
#: gate is XOR3 (8 clauses, 32 literals).
_CLAUSES_PER_GATE = 8
_LITS_PER_GATE = 32

#: The multiplier kernel keeps its accumulator rows in fixed C-local
#: arrays; wider vectors fall back to the Python composition.
MAX_VECTOR_BITS = 64


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


class CEncoder:
    """Per-compile binding of the C emission core onto one arena."""

    def __init__(self, arena: GateArena, library: ctypes.CDLL) -> None:
        self.arena = arena
        self._gate = library.repro_enc_gate
        self._add = library.repro_enc_add
        self._mul = library.repro_enc_mul
        self._equals = library.repro_enc_equals
        self._uless = library.repro_enc_uless
        self._mux = library.repro_enc_mux
        self._assign = library.repro_enc_assign
        self._or_many = library.repro_enc_or_many
        #: Entries into the C core so far (one per dispatch call).
        self.calls = 0
        self._key: Optional[tuple[int, int, int]] = None
        self._ptrs: tuple = ()
        rehash = library.repro_enc_rehash

        def rehash_hook(old: array, old_slots: int, new: array, new_mask: int) -> None:
            rehash(_addr(old), old_slots, _addr(new), new_mask)

        arena.rehash_hook = rehash_hook

    def _pointers(self) -> tuple:
        """The five buffer base addresses, refreshed after any growth."""
        arena = self.arena
        key = (len(arena.lits), len(arena.cend), len(arena.gtab))
        if key != self._key:
            self._key = key
            self._ptrs = (
                _addr(arena.hdr),
                _addr(arena.lits),
                _addr(arena.cend),
                _addr(arena.cgid),
                _addr(arena.gtab),
            )
        return self._ptrs

    def _reserve(self, gates: int) -> None:
        """Room for ``gates`` worst-case gates before handing off to C."""
        arena = self.arena
        arena.ensure_gates(gates)
        arena.ensure_clauses(gates * _CLAUSES_PER_GATE, gates * _LITS_PER_GATE)

    # ------------------------------------------------------------- dispatch

    def gate(self, op: int, a: int, b: int, c: int = 0) -> int:
        self.calls += 1
        self._reserve(1)
        return self._gate(*self._pointers(), op, a, b, c)

    def add(self, a: Sequence[int], b: Sequence[int], carry: int) -> tuple[int, ...]:
        n = len(a)
        self.calls += 1
        self._reserve(2 * n)
        va, vb = array("q", a), array("q", b)
        vout = array("q", bytes(8 * n))
        self._add(*self._pointers(), _addr(va), _addr(vb), _addr(vout), n, carry)
        return tuple(vout)

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        n = len(a)
        self.calls += 1
        self._reserve(3 * n * n)
        va, vb = array("q", a), array("q", b)
        vout = array("q", bytes(8 * n))
        self._mul(*self._pointers(), _addr(va), _addr(vb), _addr(vout), n)
        return tuple(vout)

    def equals(self, a: Sequence[int], b: Sequence[int]) -> int:
        n = len(a)
        self.calls += 1
        self._reserve(2 * n)
        va, vb = array("q", a), array("q", b)
        scratch = array("q", bytes(8 * n))
        return self._equals(
            *self._pointers(), _addr(va), _addr(vb), _addr(scratch), n
        )

    def unsigned_less(self, a: Sequence[int], b: Sequence[int]) -> int:
        n = len(a)
        self.calls += 1
        self._reserve(2 * n)
        va, vb = array("q", a), array("q", b)
        return self._uless(*self._pointers(), _addr(va), _addr(vb), n)

    def mux(
        self, cond: int, a: Sequence[int], b: Sequence[int]
    ) -> tuple[int, ...]:
        n = len(a)
        self.calls += 1
        self._reserve(n)
        va, vb = array("q", a), array("q", b)
        vout = array("q", bytes(8 * n))
        self._mux(*self._pointers(), cond, _addr(va), _addr(vb), _addr(vout), n)
        return tuple(vout)

    def assign(self, target: Sequence[int], source: Sequence[int], gid: int) -> None:
        n = len(target)
        self.calls += 1
        arena = self.arena
        arena.ensure_clauses(2 * n, 4 * n)
        vt, vs = array("q", target), array("q", source)
        self._assign(*self._pointers(), _addr(vt), _addr(vs), n, gid)

    def or_many(self, a: Sequence[int]) -> int:
        n = len(a)
        self.calls += 1
        self._reserve(n)
        va = array("q", a)
        return self._or_many(*self._pointers(), _addr(va), n)
