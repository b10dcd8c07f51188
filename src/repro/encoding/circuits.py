"""Gate-level circuits: Tseitin encoding of fixed-width integer operations.

A symbolic value is a :data:`Bits` tuple of CNF literals, least-significant
bit first.  Constant bits are represented by the context's ``true_lit`` (or
its negation), which lets the builder constant-fold aggressively — the
"constant-folding input-independent parts of the constraints" optimisation
the paper borrows from concolic execution.

With ``simplify=True`` (the default) the builder additionally performs
AIG-style *structure hashing*: every ``bit_and`` / ``bit_xor`` / ``bit_ite``
looks up a canonicalized ``(op, a, b)`` key in a gate cache before emitting
Tseitin clauses, so a subterm that is re-encoded — the same ``rows * cols``
guard on every loop iteration, the same comparison across statement groups —
reuses the one existing gate instead of bit-blasting a fresh copy.  Gate
*definitions* go into the hard set (the arena's gate insertion): a Tseitin
definition with a fresh output is total, so sharing it across statement
groups never couples those groups' relaxation — the relaxable output
bindings still go through :meth:`ArenaEncodingContext.emit` and stay owned
by the active group.

Statement-level clause emissions (:meth:`CircuitBuilder.assert_equal`,
:meth:`CircuitBuilder.force_true`, :meth:`CircuitBuilder.fix_to_value`, and
direct :meth:`ArenaEncodingContext.emit` calls) are unaffected: whatever
statement group is active when an operation is encoded owns those clauses.

With the C emission core loaded (``src/repro/sat/encode.c``), every
bit-vector operation of at most 64 bits crosses into C once per vector:
``add``, ``multiply``, ``equals``, ``unsigned_less``, ``mux``, the
OR-reduction behind ``is_nonzero`` and the equations of ``assert_equal``
(``fix_to_value`` is an ``assert_equal`` against a constant).  The Python
loops below are the ``REPRO_BACKEND=python`` reference, and the path for
wider vectors; both fill the arena identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.encoding.context import ArenaEncodingContext
from repro.lang.semantics import to_unsigned
from repro.sat import _ccore

Bits = tuple[int, ...]


#: Vector lengths the C kernels accept (the multiplier's rows live in
#: fixed-size C locals); wider vectors use the Python composition.
_MAX_VECTOR_BITS = 64

#: Opcode tags folded into the structural gate signature.
_OP_AND = 1
_OP_XOR = 2
_OP_ITE = 3
_OP_XOR3 = 4
_OP_MAJ = 5


class CircuitBuilder:
    """Builds bit-vector circuits over an :class:`ArenaEncodingContext`.

    ``simplify`` enables the structure-hashed gate cache plus the
    constant-aware arithmetic rewrites (shift-add decomposition of
    multiplications by constants); with ``simplify=False`` the builder
    reproduces the historical one-gate-per-call Tseitin encoding, which the
    property-based equivalence suite uses as the reference.
    """

    def __init__(self, context: ArenaEncodingContext, simplify: bool = True) -> None:
        self.context = context
        self.width = context.width
        self.simplify = simplify
        # The gate cache is the arena's open-addressed flat table; the C
        # emission core probes and fills the same table.
        self._arena = context.arena
        self._cenc = None
        if simplify:
            library = _ccore.encode_library()
            if library is not None:
                from repro.encoding.cbind import CEncoder

                self._cenc = CEncoder(self._arena, library)
            context.encode_backend = "c" if self._cenc is not None else "python"
        # The context's constant-true literal as a plain int once it exists
        # (0 before).  Allocation stays lazy: the first constant a fold or a
        # gate asks for allocates it, at the same point in emission order.
        self._true = 0

    @property
    def kernel_calls(self) -> int:
        """Entries into the C emission core so far (0 on the Python path)."""
        return self._cenc.calls if self._cenc is not None else 0

    # ----------------------------------------------------------- bit helpers

    def _allocate_true(self) -> int:
        self._true = self.context.true_lit
        return self._true

    @property
    def true(self) -> int:
        return self._true or self._allocate_true()

    @property
    def false(self) -> int:
        return -(self._true or self._allocate_true())

    def _const_value(self, lit: int) -> Optional[bool]:
        """Return the Boolean value of a literal if it is a known constant."""
        true = self._true or self._allocate_true()
        if lit == true:
            return True
        if lit == -true:
            return False
        return None

    def bit_and(self, a: int, b: int) -> int:
        cenc = self._cenc
        if cenc is not None:
            # The constant allocates first, as in the folds; the identity
            # fold with it needs no crossing into C.
            true = self._true or self._allocate_true()
            if a == true:
                return b
            if b == true:
                return a
            return cenc.gate(_OP_AND, a, b)
        for first, second in ((a, b), (b, a)):
            value = self._const_value(first)
            if value is True:
                return second
            if value is False:
                return self.false
        if a == b:
            return a
        if a == -b:
            return self.false
        context = self.context
        if not self.simplify:
            out = context.new_var()
            context.emit([-a, -b, out])
            context.emit([a, -out])
            context.emit([b, -out])
            return out
        if a > b:
            a, b = b, a
        arena = self._arena
        out = arena.gate_lookup(_OP_AND, a, b)
        if out:
            return out
        out = context.new_var()
        arena.gate_insert(_OP_AND, a, b, out, ([-a, -b, out], [a, -out], [b, -out]))
        return out

    def bit_or(self, a: int, b: int) -> int:
        return -self.bit_and(-a, -b)

    def bit_xor(self, a: int, b: int) -> int:
        cenc = self._cenc
        if cenc is not None:
            if not self._true:
                self._allocate_true()
            return cenc.gate(_OP_XOR, a, b)
        value_a, value_b = self._const_value(a), self._const_value(b)
        if value_a is not None:
            return -b if value_a else b
        if value_b is not None:
            return -a if value_b else a
        if a == b:
            return self.false
        if a == -b:
            return self.true
        context = self.context
        if not self.simplify:
            out = context.new_var()
            context.emit([-a, -b, -out])
            context.emit([a, b, -out])
            context.emit([-a, b, out])
            context.emit([a, -b, out])
            return out
        # XOR is invariant under negating both inputs and flips under
        # negating one: canonicalize to positive inputs and carry the sign.
        sign = (a < 0) != (b < 0)
        pa, pb = abs(a), abs(b)
        if pa > pb:
            pa, pb = pb, pa
        arena = self._arena
        out = arena.gate_lookup(_OP_XOR, pa, pb)
        if not out:
            out = context.new_var()
            arena.gate_insert(
                _OP_XOR,
                pa,
                pb,
                out,
                ([-pa, -pb, -out], [pa, pb, -out], [-pa, pb, out], [pa, -pb, out]),
            )
        return -out if sign else out

    def bit_and_many(self, lits: Sequence[int]) -> int:
        result = self.true
        for lit in lits:
            result = self.bit_and(result, lit)
        return result

    def bit_or_many(self, lits: Sequence[int]) -> int:
        cenc = self._cenc
        if cenc is not None and 0 < len(lits) <= _MAX_VECTOR_BITS:
            if not self._true:
                self._allocate_true()
            return cenc.or_many(lits)
        result = self.false
        for lit in lits:
            result = self.bit_or(result, lit)
        return result

    def bit_ite(self, cond: int, then_lit: int, else_lit: int) -> int:
        cenc = self._cenc
        if cenc is not None:
            if not self._true:
                self._allocate_true()
            return cenc.gate(_OP_ITE, cond, then_lit, else_lit)
        value = self._const_value(cond)
        if value is True:
            return then_lit
        if value is False:
            return else_lit
        if then_lit == else_lit:
            return then_lit
        context = self.context
        if not self.simplify:
            out = context.new_var()
            context.emit([-cond, -then_lit, out])
            context.emit([-cond, then_lit, -out])
            context.emit([cond, -else_lit, out])
            context.emit([cond, else_lit, -out])
            return out
        # Constant branches reduce to AND/OR/XNOR gates, which hash better.
        then_const = self._const_value(then_lit)
        else_const = self._const_value(else_lit)
        if then_const is True:
            return self.bit_or(cond, else_lit)
        if then_const is False:
            return self.bit_and(-cond, else_lit)
        if else_const is True:
            return self.bit_or(-cond, then_lit)
        if else_const is False:
            return self.bit_and(cond, then_lit)
        if then_lit == -else_lit:
            return -self.bit_xor(cond, then_lit)
        # ite(!c, t, e) == ite(c, e, t): canonicalize to a positive condition.
        if cond < 0:
            cond, then_lit, else_lit = -cond, else_lit, then_lit
        arena = self._arena
        packed = cond * (1 << 32) + then_lit
        out = arena.gate_lookup(_OP_ITE, packed, else_lit)
        if out:
            return out
        out = context.new_var()
        arena.gate_insert(
            _OP_ITE,
            packed,
            else_lit,
            out,
            (
                [-cond, -then_lit, out],
                [-cond, then_lit, -out],
                [cond, -else_lit, out],
                [cond, else_lit, -out],
            ),
        )
        return out

    def bit_equal(self, a: int, b: int) -> int:
        return -self.bit_xor(a, b)

    def bit_xor3(self, a: int, b: int, c: int) -> int:
        """Three-input parity, encoded as one 8-clause gate when hashing.

        The workhorse of the ripple-carry adder: a direct XOR3 gate costs 8
        clauses and one auxiliary variable where the composed
        ``xor(xor(a, b), c)`` costs 8 clauses and *two* auxiliaries — and the
        single canonical key hashes better across repeated adder chains.
        """
        if not self.simplify:
            return self.bit_xor(self.bit_xor(a, b), c)
        cenc = self._cenc
        if cenc is not None:
            if not self._true:
                self._allocate_true()
            return cenc.gate(_OP_XOR3, a, b, c)
        # Fold constants and cancelling pairs: parity is invariant under
        # removing (x, x) and flips under removing (x, -x) or a true input.
        sign = False
        lits: list[int] = []
        for lit in (a, b, c):
            value = self._const_value(lit)
            if value is None:
                if lit < 0:
                    sign = not sign
                    lit = -lit
                lits.append(lit)
            elif value:
                sign = not sign
        by_var: dict[int, int] = {}
        for lit in lits:
            by_var[lit] = by_var.get(lit, 0) + 1
        reduced = sorted(lit for lit, count in by_var.items() if count % 2)
        if not reduced:
            return self.false if not sign else self.true
        if len(reduced) == 1:
            return -reduced[0] if sign else reduced[0]
        if len(reduced) == 2:
            result = self.bit_xor(reduced[0], reduced[1])
            return -result if sign else result
        pa, pb, pc = reduced
        context = self.context
        arena = self._arena
        packed = pa * (1 << 32) + pb
        out = arena.gate_lookup(_OP_XOR3, packed, pc)
        if not out:
            out = context.new_var()
            arena.gate_insert(
                _OP_XOR3,
                packed,
                pc,
                out,
                (
                    [pa, pb, pc, -out],
                    [pa, -pb, -pc, -out],
                    [-pa, pb, -pc, -out],
                    [-pa, -pb, pc, -out],
                    [-pa, -pb, -pc, out],
                    [-pa, pb, pc, out],
                    [pa, -pb, pc, out],
                    [pa, pb, -pc, out],
                ),
            )
        return -out if sign else out

    def bit_majority(self, a: int, b: int, c: int) -> int:
        """Three-input majority (the full adder's carry-out), one 6-clause gate.

        Composed, the carry ``(a and b) or ((a xor b) and c)`` costs 9
        clauses and three auxiliaries; the direct gate costs 6 and one.
        """
        if not self.simplify:
            return self.bit_or(self.bit_and(a, b), self.bit_and(self.bit_xor(a, b), c))
        cenc = self._cenc
        if cenc is not None:
            if not self._true:
                self._allocate_true()
            return cenc.gate(_OP_MAJ, a, b, c)
        for first, second, third in ((a, b, c), (b, c, a), (c, a, b)):
            value = self._const_value(first)
            if value is True:
                return self.bit_or(second, third)
            if value is False:
                return self.bit_and(second, third)
            if second == third:
                return second
            if second == -third:
                return first
        # maj(-a, -b, -c) == -maj(a, b, c): canonicalize to at most one
        # negative input and carry the sign on the output.
        sign = False
        lits = [a, b, c]
        if sum(1 for lit in lits if lit < 0) >= 2:
            sign = True
            lits = [-lit for lit in lits]
        pa, pb, pc = sorted(lits)
        context = self.context
        arena = self._arena
        packed = pa * (1 << 32) + pb
        out = arena.gate_lookup(_OP_MAJ, packed, pc)
        if not out:
            out = context.new_var()
            arena.gate_insert(
                _OP_MAJ,
                packed,
                pc,
                out,
                (
                    [-pa, -pb, out],
                    [-pa, -pc, out],
                    [-pb, -pc, out],
                    [pa, pb, -out],
                    [pa, pc, -out],
                    [pb, pc, -out],
                ),
            )
        return -out if sign else out

    def force_true(self, lit: int) -> None:
        """Emit a unit clause making ``lit`` true (in the active group)."""
        value = self._const_value(lit)
        if value is True:
            return
        self.context.emit([lit])

    # ------------------------------------------------------------ bit-vectors

    def const(self, value: int, width: Optional[int] = None) -> Bits:
        width = width or self.width
        pattern = to_unsigned(value, width)
        true = self._true or self._allocate_true()
        return tuple(
            true if (pattern >> position) & 1 else -true for position in range(width)
        )

    def fresh(self, width: Optional[int] = None) -> Bits:
        return tuple(self._arena.new_vars(width or self.width))

    def fresh_narrowed(
        self, low_bits: int, signed: bool, width: Optional[int] = None
    ) -> Bits:
        """A fresh vector with only ``low_bits`` free variables.

        The high bits are pinned: constant false for an unsigned narrowing
        (the vector ranges over ``[0, 2**low_bits - 1]``) or a replica of
        the top free bit for a signed one (plain sign extension, ranging
        over ``[-2**(low_bits-1), 2**(low_bits-1) - 1]``).  Downstream
        circuitry then constant-folds or gate-shares away the work the
        pinned bits would have cost.
        """
        width = width or self.width
        if low_bits >= width:
            return self.fresh(width)
        low = tuple(self._arena.new_vars(low_bits))
        high_bit = low[-1] if signed else self.false
        return low + (high_bit,) * (width - low_bits)

    def constant_of(self, bits: Bits) -> Optional[int]:
        """If every bit is constant, return the signed integer value."""
        pattern = 0
        for position, lit in enumerate(bits):
            value = self._const_value(lit)
            if value is None:
                return None
            if value:
                pattern |= 1 << position
        if pattern >= 1 << (len(bits) - 1):
            pattern -= 1 << len(bits)
        return pattern

    def zero_extend(self, bits: Bits, width: int) -> Bits:
        if len(bits) >= width:
            return bits[:width]
        return bits + tuple(self.false for _ in range(width - len(bits)))

    def bool_to_bits(self, lit: int, width: Optional[int] = None) -> Bits:
        width = width or self.width
        return (lit,) + tuple(self.false for _ in range(width - 1))

    # ------------------------------------------------------------- arithmetic

    def add(self, a: Bits, b: Bits, carry_in: Optional[int] = None) -> Bits:
        assert len(a) == len(b)
        cenc = self._cenc
        if cenc is not None and 0 < len(a) <= _MAX_VECTOR_BITS:
            carry = carry_in if carry_in is not None else self.false
            return cenc.add(a, b, carry)
        carry = carry_in if carry_in is not None else self.false
        out: list[int] = []
        if self.simplify:
            for bit_a, bit_b in zip(a, b):
                out.append(self.bit_xor3(bit_a, bit_b, carry))
                carry = self.bit_majority(bit_a, bit_b, carry)
            return tuple(out)
        for bit_a, bit_b in zip(a, b):
            partial = self.bit_xor(bit_a, bit_b)
            out.append(self.bit_xor(partial, carry))
            carry = self.bit_or(
                self.bit_and(bit_a, bit_b), self.bit_and(partial, carry)
            )
        return tuple(out)

    def sub(self, a: Bits, b: Bits) -> Bits:
        negated = tuple(-bit for bit in b)
        return self.add(a, negated, carry_in=self.true)

    def negate(self, a: Bits) -> Bits:
        zero = self.const(0, len(a))
        return self.sub(zero, a)

    def multiply(self, a: Bits, b: Bits, width: Optional[int] = None) -> Bits:
        """Shift-and-add multiplier truncated to ``width`` bits.

        Constant-aware: a fully constant operand becomes the control side,
        so the product decomposes into shift-adds of the other operand at
        the constant's set bits (no partial-product AND gates at all), and
        a fully constant pair folds to a constant outright.  Partial-product
        rows whose control bit is a known ``false`` are dropped, and rows
        masked by constant multiplicand bits fold through the constant
        propagation in :meth:`bit_and`/:meth:`add`.
        """
        width = width or len(a)
        if self.simplify:
            const_a = self.constant_of(a)
            const_b = self.constant_of(b)
            if const_a is not None and const_b is not None:
                product = to_unsigned(const_a, len(a)) * to_unsigned(const_b, len(b))
                return self.const(product & ((1 << width) - 1), width)
            if const_a is None and const_b is not None:
                # Make the constant the control side: popcount(const) rows of
                # pure shift-adds instead of a full partial-product array.
                a, b = b, a
        cenc = self._cenc
        if cenc is not None and 0 < width <= _MAX_VECTOR_BITS:
            if not self._true:
                self._allocate_true()
            return cenc.multiply(self.zero_extend(a, width), self.zero_extend(b, width))
        accumulator = self.const(0, width)
        a_ext = self.zero_extend(a, width)
        b_ext = self.zero_extend(b, width)
        for shift, control in enumerate(a_ext):
            if self._const_value(control) is False:
                continue
            partial_bits = [self.false] * shift + [
                self.bit_and(control, bit) for bit in b_ext[: width - shift]
            ]
            accumulator = self.add(accumulator, tuple(partial_bits))
        return accumulator

    def absolute(self, a: Bits) -> Bits:
        sign = a[-1]
        return self.mux(sign, self.negate(a), a)

    def divmod(self, a: Bits, b: Bits) -> tuple[Bits, Bits]:
        """C-style signed division and remainder (division by zero yields 0/a).

        The quotient and remainder are fresh vectors constrained by the
        defining identity ``|a| == q_u * |b| + r_u`` with ``0 <= r_u < |b|``,
        evaluated at double width to avoid overflow, then signed according to
        C's truncation-toward-zero rules.
        """
        width = len(a)
        double = width * 2
        sign_a, sign_b = a[-1], b[-1]
        abs_a, abs_b = self.absolute(a), self.absolute(b)
        quotient_u = self.fresh(width)
        remainder_u = self.fresh(width)
        product = self.multiply(
            self.zero_extend(quotient_u, double), self.zero_extend(abs_b, double), double
        )
        total = self.add(product, self.zero_extend(remainder_u, double))
        b_zero = -self.is_nonzero(b)
        identity = self.equals(total, self.zero_extend(abs_a, double))
        in_range = self.unsigned_less(remainder_u, abs_b)
        # When b != 0 the defining identity and range constraint must hold.
        self.context.emit([b_zero, identity])
        self.context.emit([b_zero, in_range])
        quotient_signed = self.mux(
            self.bit_xor(sign_a, sign_b), self.negate(quotient_u), quotient_u
        )
        remainder_signed = self.mux(sign_a, self.negate(remainder_u), remainder_u)
        quotient = self.mux(b_zero, self.const(0, width), quotient_signed)
        remainder = self.mux(b_zero, a, remainder_signed)
        return quotient, remainder

    # ------------------------------------------------------------ comparison

    def equals(self, a: Bits, b: Bits) -> int:
        cenc = self._cenc
        if cenc is not None and 0 < len(a) == len(b) <= _MAX_VECTOR_BITS:
            if not self._true:
                self._allocate_true()
            return cenc.equals(a, b)
        bits = [self.bit_equal(bit_a, bit_b) for bit_a, bit_b in zip(a, b)]
        if self.simplify:
            # MSB-first so the AND chain's high-bit prefix — identical across
            # the nearby constants of an array-index comparison — hashes to
            # one shared gate chain instead of one chain per constant.
            bits.reverse()
        return self.bit_and_many(bits)

    def unsigned_less(self, a: Bits, b: Bits) -> int:
        """a < b treating the vectors as unsigned integers."""
        cenc = self._cenc
        if cenc is not None and 0 < len(a) == len(b) <= _MAX_VECTOR_BITS:
            if not self._true:
                self._allocate_true()
            return cenc.unsigned_less(a, b)
        less = self.false
        if self.simplify:
            # When the bits differ, "less so far" is exactly b's bit;
            # otherwise the lower-order verdict stands: one XOR (shared with
            # any equality chain on the same operands) plus one mux per bit.
            for bit_a, bit_b in zip(a, b):  # LSB to MSB
                less = self.bit_ite(self.bit_xor(bit_a, bit_b), bit_b, less)
            return less
        for bit_a, bit_b in zip(a, b):  # LSB to MSB
            eq = self.bit_equal(bit_a, bit_b)
            lt = self.bit_and(-bit_a, bit_b)
            less = self.bit_or(lt, self.bit_and(eq, less))
        return less

    def signed_less(self, a: Bits, b: Bits) -> int:
        """a < b treating the vectors as two's-complement integers."""
        flipped_a = a[:-1] + (-a[-1],)
        flipped_b = b[:-1] + (-b[-1],)
        return self.unsigned_less(flipped_a, flipped_b)

    def signed_less_equal(self, a: Bits, b: Bits) -> int:
        return -self.signed_less(b, a)

    def is_nonzero(self, a: Bits) -> int:
        return self.bit_or_many(a)

    # ------------------------------------------------------------- structure

    def mux(self, cond: int, then_bits: Bits, else_bits: Bits) -> Bits:
        cenc = self._cenc
        if cenc is not None and 0 < len(then_bits) == len(else_bits) <= _MAX_VECTOR_BITS:
            if not self._true:
                self._allocate_true()
            return cenc.mux(cond, then_bits, else_bits)
        return tuple(
            self.bit_ite(cond, then_bit, else_bit)
            for then_bit, else_bit in zip(then_bits, else_bits)
        )

    def assert_equal(self, target: Bits, source: Bits) -> None:
        """Emit clauses forcing ``target == source`` (in the active group)."""
        cenc = self._cenc
        if cenc is not None and 0 < len(target) == len(source) <= _MAX_VECTOR_BITS:
            gid = self.context.active_group_id()
            if gid is not None:
                if not self._true:
                    self._allocate_true()
                cenc.assign(target, source, gid)
                return
        for target_bit, source_bit in zip(target, source):
            value = self._const_value(source_bit)
            target_value = self._const_value(target_bit)
            if target_value is not None:
                # Narrowed targets carry constant high bits: the equation
                # degenerates to a unit on the source (or a contradiction
                # when both sides are constants that disagree).
                if value is None:
                    self.context.emit([source_bit if target_value else -source_bit])
                elif value != target_value:
                    self.context.emit([self.false])
            elif value is True:
                self.context.emit([target_bit])
            elif value is False:
                self.context.emit([-target_bit])
            else:
                self.context.emit([-target_bit, source_bit])
                self.context.emit([target_bit, -source_bit])

    def fix_to_value(self, bits: Bits, value: int) -> None:
        """Emit unit clauses pinning ``bits`` to a concrete integer value
        (a constant bit that disagrees yields the contradiction unit)."""
        if bits:
            self.assert_equal(bits, self.const(value, len(bits)))

    def decode(self, bits: Bits, model: dict[int, bool]) -> int:
        """Read back a signed integer value of ``bits`` under a SAT model."""
        pattern = 0
        for position, lit in enumerate(bits):
            constant = self._const_value(lit)
            if constant is not None:
                value = constant
            else:
                assigned = model.get(abs(lit), False)
                value = assigned if lit > 0 else not assigned
            if value:
                pattern |= 1 << position
        if pattern >= 1 << (len(bits) - 1):
            pattern -= 1 << len(bits)
        return pattern
