"""Flat gate-arena storage behind the trace-formula encoder.

Every clause, journal event and structure-hash gate of an encode lives in
a handful of flat ``array('q')`` buffers instead of millions of small heap
objects:

* ``lits``  — every clause's literals, concatenated (one literal pool);
* ``cend``  — per-clause end offset into ``lits`` (start = previous end);
* ``cgid``  — per-clause owning group id (``-1`` = hard set);
* ``js``    — the emission journal as a flat integer event stream
  (:data:`TAG_V` … :data:`TAG_GRP` below);
* ``gtab``  — the structure-hash gate cache as an open-addressed table of
  ``(op, k1, k2, out)`` int quadruples (linear probing, power-of-two size);
* ``hdr``   — the mutable scalars (variable counter, pending-run length,
  gate/hit counters, rolling FNV signature, journaling flag …) in one small
  shared array.

Because every buffer is a plain C-layout int64 array, the optional C
emission core (``src/repro/sat/encode.c``) can operate on the *same* state
as the pure-Python routines: a compile may interleave Python scalar gates
with C vector kernels freely, and both backends produce bit-identical
results by construction of the shared layout (and by the differential test
matrix for the C reimplementation of the fold rules).

The buffers are also the encoding's only representation downstream.  A
whole-program artifact stores the filled clause store and journal
(:meth:`GateArena.clause_store`, :meth:`GateArena.journal_store`), the
splice replays that journal into a fresh arena, and :func:`gather_clauses`
reorders a clause store into the MaxSAT engine's load order in one pass, so
no per-clause Python list exists between the encoder and the SAT kernel.
:meth:`GateArena.mark` / :meth:`GateArena.rewind` undo a journaled stretch
of emission (the splice's abandoned span replays).

String-bearing journal events (statements, call interfaces …) cannot live
in an int stream; they are kept in a side list (``raw``) and referenced by
index from :data:`TAG_RAW`/:data:`TAG_CE`/:data:`TAG_CX` records.  The
call-interface records additionally flatten their literal payload into the
stream, so flat-buffer consumers can walk interfaces without touching
Python objects.
"""

from __future__ import annotations

from array import array
from typing import Optional

_M64 = (1 << 64) - 1

# ------------------------------------------------------------- header slots

HDR_NUM_VARS = 0  #: CNF variable counter.
HDR_PENDING = 1  #: Length of the pending (unflushed) "v" allocation run.
HDR_GATES = 2  #: Gates emitted (structure-hash misses).
HDR_HITS = 3  #: Gate-cache hits.
HDR_SIG = 4  #: Rolling FNV-1a signature (int64 bit pattern of the uint64).
HDR_TRUE = 5  #: The constant-true literal, 0 while unallocated.
HDR_NCLAUSES = 6  #: Number of clauses in the store.
HDR_LITS = 7  #: Logical length of the literal pool.
HDR_JLEN = 8  #: Logical length of the journal stream.
HDR_GMASK = 9  #: Gate-table slot mask (slot count - 1).
HDR_GUSED = 10  #: Occupied gate-table slots.
# Slot 11 is reserved.
HDR_JOURNAL = 12  #: 1 while the journal stream is recording.
HDR_IFACE = 13  #: Total call-interface literal words in the stream.
HDR_SLOTS = 16  #: Header size (room for growth without an ABI break).

# ------------------------------------------------------------ journal tags
#
# The flat stream is a sequence of records, each a tag followed by its
# fixed operands.  TAG_C and TAG_G consume clauses from the clause store by
# cursor (clauses are stored in emission order), so clause payloads are
# never duplicated into the stream.

TAG_V = 1  #: ``TAG_V n`` — a run of n plain variable allocations.
TAG_C = 2  #: ``TAG_C`` — one non-gate clause (group id from ``cgid``).
TAG_G = 3  #: ``TAG_G op k1 k2 out n`` — a gate insertion owning n clauses.
TAG_T = 4  #: ``TAG_T lit`` — the constant-true literal (owns one unit).
TAG_RAW = 5  #: ``TAG_RAW idx n v…`` — a side-list event plus its literals.
TAG_CE = 6  #: ``TAG_CE idx n v…`` — call-entry interface event.
TAG_CX = 7  #: ``TAG_CX idx n v…`` — call-exit interface event.
TAG_GRP = 8  #: ``TAG_GRP gid`` — statement-group registration.

#: Opcodes of the packed-key gates (first key slot holds two literals:
#: ``x * 2**32 + y``): ITE, XOR3, MAJ.
PACKED_OPS = frozenset((3, 4, 5))


def record_end(js: array, position: int) -> int:
    """The stream position just past the record starting at ``position``."""
    tag = js[position]
    if tag == TAG_C:
        return position + 1
    if tag == TAG_G:
        return position + 6
    if TAG_RAW <= tag <= TAG_CX:
        return position + 3 + js[position + 2]
    return position + 2

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _hash_key(op: int, k1: int, k2: int) -> int:
    """Position hash of a canonical gate key (identical in encode.c).

    Multiplicative mixing over the three key words; Python applies the
    64-bit wraparound masks that C gets from ``uint64_t`` arithmetic.
    """
    h = (
        (op * 0x9E3779B97F4A7C15)
        ^ ((k1 & _M64) * 0xC2B2AE3D27D4EB4F)
        ^ ((k2 & _M64) * 0x165667B19E3779F9)
    ) & _M64
    h ^= h >> 29
    h = (h * 0xBF58476D1CE4E5B9) & _M64
    h ^= h >> 32
    return h


def _canonical_key(op: int, a: int, b: int, c: int = 0, tl: int = 0) -> bool:
    """Is a gate key with literals ``a, b`` (``c``: the third of a packed
    key) in the builder's canonical form, free of every constant fold for
    the true literal ``tl``?  (Mirrored by ``canonical_key`` in encode.c.)"""
    if op == 1:  # AND: value-sorted signed literals
        return a < b and a != -b and a not in (tl, -tl) and b not in (tl, -tl)
    if op == 2:  # XOR: ascending positive inputs
        return a < b and tl not in (a, b)
    if op == 3:  # ITE: cond, then, else
        return a != tl and b not in (tl, -tl, c, -c) and c not in (tl, -tl)
    if op == 4:  # XOR3: ascending positive inputs
        return a < b < c and tl not in (a, b, c)
    # MAJ: value-sorted, at most one negative in front
    return (
        a < b < c and a not in (-b, -c, tl, -tl) and b != tl and c != tl
    )


def _signed64(value: int) -> int:
    """The int64 bit pattern of a uint64 (array('q') stores signed)."""
    return value - (1 << 64) if value >= (1 << 63) else value


class GateArena:
    """The flat buffers plus the pure-Python routines that fill them."""

    def __init__(self, journal: bool = False) -> None:
        self.hdr = array("q", [0] * HDR_SLOTS)
        self.hdr[HDR_SIG] = _signed64(_FNV_OFFSET)
        self.hdr[HDR_JOURNAL] = 1 if journal else 0
        self.lits = array("q", bytes(8 * 4096))
        self.cend = array("q", bytes(8 * 1024))
        self.cgid = array("q", bytes(8 * 1024))
        self.js = array("q", bytes(8 * 4096)) if journal else array("q")
        #: Gate table: stride-4 slots of (op, k1, k2, out); op == 0 = empty.
        self.gtab = array("q", bytes(8 * 4 * 2048))
        self.hdr[HDR_GMASK] = 2048 - 1
        #: Side list for string-bearing journal events, by TAG_RAW/CE/CX idx.
        self.raw: list[tuple] = []
        #: Optional C rehash routine ``(old, old_slots, new, new_mask)``,
        #: installed by the C-backend binding (same layout as the Python loop).
        self.rehash_hook = None

    def begin_journal(self) -> None:
        """Enable journal recording (must precede any allocation/emission)."""
        if self.hdr[HDR_NUM_VARS] or self.hdr[HDR_NCLAUSES]:  # pragma: no cover
            raise RuntimeError("begin_journal() after emission started")
        self.hdr[HDR_JOURNAL] = 1
        if not len(self.js):
            self.js = array("q", bytes(8 * 4096))

    # ------------------------------------------------------------- capacity

    def _grow(self, buf: array, need: int) -> array:
        capacity = len(buf)
        while capacity < need:
            capacity *= 2
        buf.extend(array("q", bytes(8 * (capacity - len(buf)))))
        return buf

    def ensure_clauses(self, clauses: int, lits: int) -> None:
        """Guarantee room for ``clauses`` more clauses / ``lits`` literals."""
        n = self.hdr[HDR_NCLAUSES] + clauses
        if n > len(self.cend):
            self.cend = self._grow(self.cend, n)
            self.cgid = self._grow(self.cgid, n)
        n = self.hdr[HDR_LITS] + lits
        if n > len(self.lits):
            self.lits = self._grow(self.lits, n)

    def ensure_journal(self, words: int) -> None:
        if not self.hdr[HDR_JOURNAL]:
            return
        n = self.hdr[HDR_JLEN] + words
        if n > len(self.js):
            self.js = self._grow(self.js, n)

    def ensure_gates(self, gates: int) -> None:
        """Guarantee table headroom (rehash under 50% load) for new gates."""
        mask = self.hdr[HDR_GMASK]
        if (self.hdr[HDR_GUSED] + gates) * 2 <= mask + 1:
            return
        slots = (mask + 1) * 2
        while (self.hdr[HDR_GUSED] + gates) * 2 > slots:
            slots *= 2
        old, old_mask = self.gtab, mask
        self.gtab = array("q", bytes(8 * 4 * slots))
        self.hdr[HDR_GMASK] = slots - 1
        hook = self.rehash_hook
        if hook is not None:
            hook(old, old_mask + 1, self.gtab, slots - 1)
            return
        new, new_mask = self.gtab, slots - 1
        for slot in range(0, (old_mask + 1) * 4, 4):
            op = old[slot]
            if not op:
                continue
            k1, k2 = old[slot + 1], old[slot + 2]
            probe = _hash_key(op, k1, k2) & new_mask
            while new[probe * 4]:
                probe = (probe + 1) & new_mask
            base = probe * 4
            new[base] = op
            new[base + 1] = k1
            new[base + 2] = k2
            new[base + 3] = old[slot + 3]

    # ------------------------------------------------------------ emission

    def new_var(self) -> int:
        hdr = self.hdr
        hdr[HDR_NUM_VARS] += 1
        if hdr[HDR_JOURNAL]:
            hdr[HDR_PENDING] += 1
        return hdr[HDR_NUM_VARS]

    def new_vars(self, count: int) -> range:
        """Allocate a run of ``count`` fresh variables (one "v" run)."""
        hdr = self.hdr
        first = hdr[HDR_NUM_VARS] + 1
        hdr[HDR_NUM_VARS] += count
        if hdr[HDR_JOURNAL]:
            hdr[HDR_PENDING] += count
        return range(first, first + count)

    def flush_vars(self) -> None:
        hdr = self.hdr
        if hdr[HDR_PENDING]:
            self.ensure_journal(2)
            js, jlen = self.js, hdr[HDR_JLEN]
            js[jlen] = TAG_V
            js[jlen + 1] = hdr[HDR_PENDING]
            hdr[HDR_JLEN] = jlen + 2
            hdr[HDR_PENDING] = 0

    def true_lit(self) -> int:
        """The constant-true literal, allocated (with its hard unit) lazily."""
        hdr = self.hdr
        lit = hdr[HDR_TRUE]
        if lit:
            return lit
        lit = self.new_var()
        hdr[HDR_TRUE] = lit
        self.ensure_clauses(1, 1)
        n, off = hdr[HDR_NCLAUSES], hdr[HDR_LITS]
        self.lits[off] = lit
        self.cend[n] = off + 1
        self.cgid[n] = -1
        hdr[HDR_NCLAUSES] = n + 1
        hdr[HDR_LITS] = off + 1
        if hdr[HDR_JOURNAL]:
            # The variable is owned by the "t" event, not by a "v" run.
            hdr[HDR_PENDING] -= 1
            self.flush_vars()
            self.ensure_journal(2)
            js, jlen = self.js, hdr[HDR_JLEN]
            js[jlen] = TAG_T
            js[jlen + 1] = lit
            hdr[HDR_JLEN] = jlen + 2
        return lit

    def emit(self, clause: list[int] | tuple[int, ...], gid: int) -> None:
        """Store one non-gate clause under group ``gid`` (-1 = hard)."""
        hdr = self.hdr
        self.ensure_clauses(1, len(clause))
        n, off = hdr[HDR_NCLAUSES], hdr[HDR_LITS]
        lits = self.lits
        for lit in clause:
            lits[off] = lit
            off += 1
        self.cend[n] = off
        self.cgid[n] = gid
        hdr[HDR_NCLAUSES] = n + 1
        hdr[HDR_LITS] = off
        if hdr[HDR_JOURNAL]:
            self.flush_vars()
            self.ensure_journal(1)
            self.js[hdr[HDR_JLEN]] = TAG_C
            hdr[HDR_JLEN] += 1

    def _observe(self, op: int, k1: int, k2: int, out: int, nclauses: int) -> None:
        """Fold a fresh gate into the signature and journal its insertion."""
        hdr = self.hdr
        sig = hdr[HDR_SIG] & _M64
        for word in (op, k1, k2, out):
            sig = ((sig ^ (word & 0xFFFFFFFF)) * _FNV_PRIME) & _M64
        hdr[HDR_SIG] = _signed64(sig)
        hdr[HDR_GATES] += 1
        if hdr[HDR_JOURNAL]:
            # The gate owns its freshly allocated output variable.
            hdr[HDR_PENDING] -= 1
            self.flush_vars()
            self.ensure_journal(6)
            js, jlen = self.js, hdr[HDR_JLEN]
            js[jlen] = TAG_G
            js[jlen + 1] = op
            js[jlen + 2] = k1
            js[jlen + 3] = k2
            js[jlen + 4] = out
            js[jlen + 5] = nclauses
            hdr[HDR_JLEN] = jlen + 6

    def gate_find(self, op: int, k1: int, k2: int) -> int:
        """The cached output of a canonical gate key, or 0 (a miss)."""
        gtab, mask = self.gtab, self.hdr[HDR_GMASK]
        probe = _hash_key(op, k1, k2) & mask
        while True:
            base = probe * 4
            slot_op = gtab[base]
            if not slot_op:
                return 0
            if slot_op == op and gtab[base + 1] == k1 and gtab[base + 2] == k2:
                return gtab[base + 3]
            probe = (probe + 1) & mask

    def gate_lookup(self, op: int, k1: int, k2: int) -> int:
        """:meth:`gate_find`, counting a hit toward the sharing statistic."""
        out = self.gate_find(op, k1, k2)
        if out:
            self.hdr[HDR_HITS] += 1
        return out

    def gate_insert(
        self, op: int, k1: int, k2: int, out: int, clauses: list[list[int]]
    ) -> None:
        """Insert a fresh gate: table entry, signature, journal, definition."""
        self.ensure_gates(1)
        gtab, mask = self.gtab, self.hdr[HDR_GMASK]
        probe = _hash_key(op, k1, k2) & mask
        while gtab[probe * 4]:
            probe = (probe + 1) & mask
        base = probe * 4
        gtab[base] = op
        gtab[base + 1] = k1
        gtab[base + 2] = k2
        gtab[base + 3] = out
        self.hdr[HDR_GUSED] += 1
        self._observe(op, k1, k2, out, len(clauses))
        hdr = self.hdr
        total = sum(len(clause) for clause in clauses)
        self.ensure_clauses(len(clauses), total)
        n, off = hdr[HDR_NCLAUSES], hdr[HDR_LITS]
        lits, cend, cgid = self.lits, self.cend, self.cgid
        for clause in clauses:
            for lit in clause:
                lits[off] = lit
                off += 1
            cend[n] = off
            cgid[n] = -1
            n += 1
        hdr[HDR_NCLAUSES] = n
        hdr[HDR_LITS] = off

    # -------------------------------------------------------------- journal

    def record_event(self, event: tuple, tag: int, refs: tuple[int, ...]) -> None:
        """Append a side-list event with its literal payload to the stream."""
        hdr = self.hdr
        if not hdr[HDR_JOURNAL]:
            return
        self.flush_vars()
        index = len(self.raw)
        self.raw.append(event)
        if tag != TAG_RAW:
            hdr[HDR_IFACE] += len(refs)
        self.ensure_journal(3 + len(refs))
        js, jlen = self.js, hdr[HDR_JLEN]
        js[jlen] = tag
        js[jlen + 1] = index
        js[jlen + 2] = len(refs)
        jlen += 3
        for lit in refs:
            js[jlen] = lit
            jlen += 1
        hdr[HDR_JLEN] = jlen

    def record_group(self, gid: int) -> None:
        hdr = self.hdr
        if not hdr[HDR_JOURNAL]:
            return
        self.flush_vars()
        self.ensure_journal(2)
        js, jlen = self.js, hdr[HDR_JLEN]
        js[jlen] = TAG_GRP
        js[jlen + 1] = gid
        hdr[HDR_JLEN] = jlen + 2

    # ----------------------------------------------------------------- copy

    def copy_records(
        self,
        js: array,
        lits: array,
        ends: array,
        gids: array,
        gid_map: array,
        cursor: array,
        mu: Optional[array] = None,
        check: bool = False,
    ) -> int:
        """Append the plain records of another arena's journal.

        ``cursor`` is ``array("q")`` ``[position, clause, consumed,
        unmapped]``: the copy starts at stream ``position`` of ``js``, at
        clause ``clause`` of the store ``lits``/``ends``/``gids``, with
        ``consumed`` source variables behind it, and stops at the first
        record that is not TAG_V, TAG_C or TAG_G, updating the first three
        words.  TAG_V runs allocate, TAG_C clauses are emitted under
        ``gid_map[group]`` (-1 stays hard), TAG_G gates are inserted with
        their definition clauses.

        Without ``mu`` every literal is copied as it is.  With ``mu``
        (source variable -> variable here, 0 = unmapped) every literal is
        mapped, allocations extend ``mu``, and a gate whose mapped key the
        table already holds is elided: ``mu`` takes the cached output, the
        definition is skipped and the hit is counted.  With ``check`` a
        mapped gate key must also keep the builder's canonical form and
        fold nothing (:func:`_canonical_key`).

        Returns 0 at a record that is not plain (or the end); 1 (no ``mu``)
        at a gate already in the table; 2 at a clause whose group
        ``gid_map`` does not know yet (an entry below -1); 3 (no ``mu``) at
        a gate whose output is not the next variable; 5 at a literal whose
        variable ``mu`` leaves unmapped (``unmapped`` names it); 6 (with
        ``check``) at a non-canonical gate key.  Nothing of the stopping
        record is done.  Every buffer is ``array("q")``.

        One ``repro_enc_copy`` call per stop on the C backend; the
        pure-Python mirror (:meth:`_copy_records_python`) does the same.
        """
        from repro.sat import _ccore

        library = _ccore.encode_library()
        if library is None:
            return self._copy_records_python(
                js, lits, ends, gids, gid_map, cursor, mu, check
            )
        while True:
            caps = array("q", [len(self.lits), len(self.cend), len(self.js)])
            status = library.repro_enc_copy(
                *(
                    buf.buffer_info()[0]
                    for buf in (
                        self.hdr,
                        self.lits,
                        self.cend,
                        self.cgid,
                        self.js,
                        self.gtab,
                        js,
                    )
                ),
                len(js),
                *(buf.buffer_info()[0] for buf in (lits, ends, gids, gid_map)),
                None if mu is None else mu.buffer_info()[0],
                1 if check else 0,
                caps.buffer_info()[0],
                cursor.buffer_info()[0],
            )
            if status != 4:
                return status
            # Room for the next record and then some; the largest record is
            # a gate, whose definition spans at most 8 clauses.
            clause = cursor[1]
            start = ends[clause - 1] if clause else 0
            need = ends[min(clause + 8, len(ends)) - 1] - start
            self.ensure_clauses(1024, need + 8192)
            self.ensure_journal(8192)
            self.ensure_gates(1024)

    def _copy_records_python(
        self,
        js: array,
        lits: array,
        ends: array,
        gids: array,
        gid_map: array,
        cursor: array,
        mu: Optional[array],
        check: bool,
    ) -> int:
        """The pure-Python mirror of ``repro_enc_copy``."""
        hdr = self.hdr
        position, clause, consumed = cursor[0], cursor[1], cursor[2]
        status = 0
        while position < len(js):
            tag = js[position]
            if tag == TAG_V:
                count = js[position + 1]
                if mu is not None:
                    for offset in range(1, count + 1):
                        mu[consumed + offset] = hdr[HDR_NUM_VARS] + offset
                hdr[HDR_NUM_VARS] += count
                if hdr[HDR_JOURNAL]:
                    hdr[HDR_PENDING] += count
                consumed += count
                position += 2
            elif tag == TAG_C:
                gid = gids[clause]
                if gid >= 0:
                    gid = gid_map[gid]
                    if gid < -1:
                        status = 2
                        break
                body = lits[ends[clause - 1] if clause else 0 : ends[clause]]
                if mu is not None:
                    mapped = [mu[lit] if lit > 0 else -mu[-lit] for lit in body]
                    if 0 in mapped:
                        cursor[3] = abs(body[mapped.index(0)])
                        status = 5
                        break
                    body = mapped
                self.emit(body, gid)
                clause += 1
                position += 1
            elif tag == TAG_G:
                op, k1, k2, out, count = js[position + 1 : position + 6]
                if mu is not None:
                    if op in PACKED_OPS:
                        first = (k1 + (1 << 31)) >> 32
                        key = (first, k1 - (first << 32), k2)
                    else:
                        key = (k1, k2)
                    mapped = [mu[lit] if lit > 0 else -mu[-lit] for lit in key]
                    if 0 in mapped:
                        cursor[3] = abs(key[mapped.index(0)])
                        status = 5
                        break
                    if check and not _canonical_key(op, *mapped, tl=hdr[HDR_TRUE]):
                        status = 6
                        break
                    if len(mapped) == 3:
                        k1, k2 = mapped[0] * (1 << 32) + mapped[1], mapped[2]
                    else:
                        k1, k2 = mapped
                    cached = self.gate_lookup(op, k1, k2)
                    if cached:
                        mu[out] = cached
                        consumed += 1
                        clause += count
                        position += 6
                        continue
                else:
                    if self.gate_find(op, k1, k2):
                        status = 1
                        break
                    if out != hdr[HDR_NUM_VARS] + 1:
                        status = 3
                        break
                var = self.new_var()
                definition = [
                    lits[ends[index - 1] if index else 0 : ends[index]]
                    for index in range(clause, clause + count)
                ]
                if mu is not None:
                    mu[out] = var
                    definition = [
                        [mu[lit] if lit > 0 else -mu[-lit] for lit in body]
                        for body in definition
                    ]
                self.gate_insert(op, k1, k2, var, definition)
                consumed += 1
                clause += count
                position += 6
            else:
                break
        cursor[0], cursor[1], cursor[2] = position, clause, consumed
        return status

    # --------------------------------------------------------------- stores

    def clause_store(self) -> tuple[array, array, array]:
        """Copies of the filled part of ``lits``, ``cend`` and ``cgid``."""
        hdr = self.hdr
        nclauses = hdr[HDR_NCLAUSES]
        return (
            self.lits[: hdr[HDR_LITS]],
            self.cend[:nclauses],
            self.cgid[:nclauses],
        )

    def journal_store(self) -> tuple[Optional[array], list]:
        """A copy of the filled journal stream and of ``raw``.

        ``(None, [])`` when the arena never journaled.
        """
        if not self.hdr[HDR_JOURNAL]:
            return None, []
        return self.js[: self.hdr[HDR_JLEN]], list(self.raw)

    def copy(self) -> "GateArena":
        """An independent arena holding the same state (no rehash hook)."""
        clone = GateArena.__new__(GateArena)
        for name in ("hdr", "lits", "cend", "cgid", "js", "gtab"):
            setattr(clone, name, getattr(self, name)[:])
        clone.raw = list(self.raw)
        clone.rehash_hook = None
        return clone

    # --------------------------------------------------------------- rewind

    def mark(self) -> tuple[array, int]:
        """The current state, to return to with :meth:`rewind`."""
        return self.hdr[:], len(self.raw)

    def rewind(self, mark: tuple[array, int]) -> None:
        """Undo every emission since ``mark`` (a journaling arena only).

        The clause, journal and ``raw`` lengths and the header scalars go
        back to their marked values.  The gates inserted since the mark are
        exactly the TAG_G records after it; they leave the table newest
        first by backward-shift deletion, which keeps every other lookup
        intact even when a rehash happened in between.  The table size is
        the one thing that is not rewound.
        """
        hdr_then, nraw = mark
        hdr, js = self.hdr, self.js
        if not hdr[HDR_JOURNAL]:  # pragma: no cover - defensive
            raise RuntimeError("rewind() needs a journaling arena")
        gates: list[int] = []
        position, end = hdr_then[HDR_JLEN], hdr[HDR_JLEN]
        while position < end:
            if js[position] == TAG_G:
                gates.append(position)
            position = record_end(js, position)
        for position in reversed(gates):
            self._gate_delete(js[position + 1], js[position + 2], js[position + 3])
        mask = hdr[HDR_GMASK]
        hdr[:] = hdr_then
        hdr[HDR_GMASK] = mask
        del self.raw[nraw:]

    def _gate_delete(self, op: int, k1: int, k2: int) -> None:
        """Remove one gate key, shifting its probe run back over the hole."""
        gtab, mask = self.gtab, self.hdr[HDR_GMASK]
        hole = _hash_key(op, k1, k2) & mask
        while not (
            gtab[hole * 4] == op
            and gtab[hole * 4 + 1] == k1
            and gtab[hole * 4 + 2] == k2
        ):
            if not gtab[hole * 4]:  # pragma: no cover - defensive
                raise KeyError((op, k1, k2))
            hole = (hole + 1) & mask
        probe = hole
        while True:
            probe = (probe + 1) & mask
            base = probe * 4
            slot_op = gtab[base]
            if not slot_op:
                break
            home = _hash_key(slot_op, gtab[base + 1], gtab[base + 2]) & mask
            # The entry may fill the hole unless its home lies strictly
            # between the hole and its slot (it would become unreachable).
            if (probe - home) & mask >= (probe - hole) & mask:
                gtab[hole * 4 : hole * 4 + 4] = gtab[base : base + 4]
                hole = probe
        gtab[hole * 4 : hole * 4 + 4] = array("q", bytes(32))
        self.hdr[HDR_GUSED] -= 1


# ---------------------------------------------------------------- views


def split_clauses(
    lits: array, ends: array, gids: array, group_table: list
) -> tuple[list[list[int]], dict]:
    """The hard clauses and each group's clauses of a clause store, as
    lists in emission order (``group_table`` gives the groups' order; a
    group without clauses maps to ``[]``)."""
    hard: list[list[int]] = []
    groups: dict = {group: [] for group in group_table}
    buckets = list(groups.values())
    start = 0
    for gid, end in zip(gids, ends):
        clause = lits[start:end].tolist()
        start = end
        if gid < 0:
            hard.append(clause)
        else:
            buckets[gid].append(clause)
    return hard, groups


# ------------------------------------------------------------------ gather


def gather_clauses(
    lits: array, ends: array, gids: array, rank: array, tags: array
) -> tuple[array, array, int]:
    """Reorder a clause store into load order, tagging grouped clauses.

    Clause ``i`` spans ``lits[ends[i-1]:ends[i]]`` and belongs to group
    ``gids[i]`` (-1 = hard).  ``rank[g]`` is group ``g``'s bucket
    (``1 .. len(tags) - 1``); bucket 0 holds the hard clauses.  The result
    lists the hard clauses in emission order, then each bucket's clauses in
    emission order, every clause followed by ``tags[bucket]`` unless that
    is 0.  Returns ``(lits, ends, top)`` with ``top`` the largest variable
    an input literal names.  Raises :class:`ValueError` for a 0 literal or
    a malformed store (a group index outside ``rank``, a rank outside the
    buckets, decreasing or out-of-range end offsets).  All five arrays are
    ``array("q")``.

    One ``repro_enc_gather`` call on the C backend; the pure-Python mirror
    (:func:`_gather_python`) produces the same buffers.
    """
    from repro.sat import _ccore

    count = len(ends)
    if len(gids) != count or (count and ends[-1] > len(lits)):
        raise ValueError("malformed clause store")
    library = _ccore.encode_library()
    if library is None:
        return _gather_python(lits, ends, gids, rank, tags)
    if any(buf.typecode != "q" for buf in (lits, ends, gids, rank, tags)):
        raise TypeError("gather_clauses takes array('q') buffers")
    out_lits = array("q", bytes(8 * (len(lits) + count)))
    out_ends = array("q", bytes(8 * count))
    cursor = array("q", bytes(16 * len(tags)))
    result = array("q", bytes(16))
    status = library.repro_enc_gather(
        lits.buffer_info()[0],
        ends.buffer_info()[0],
        gids.buffer_info()[0],
        count,
        rank.buffer_info()[0],
        len(rank),
        tags.buffer_info()[0],
        len(tags),
        out_lits.buffer_info()[0],
        out_ends.buffer_info()[0],
        cursor.buffer_info()[0],
        result.buffer_info()[0],
    )
    if status == -1:
        raise ValueError("0 is not a valid literal")
    if status:
        raise ValueError("malformed clause store")
    del out_lits[result[0]:]
    return out_lits, out_ends, result[1]


def _gather_python(
    lits: array, ends: array, gids: array, rank: array, tags: array
) -> tuple[array, array, int]:
    """The pure-Python mirror of ``repro_enc_gather``."""
    used = lits[: ends[-1]] if ends else array("q")
    if 0 in used:
        raise ValueError("0 is not a valid literal")
    buckets: list[list[tuple[int, int]]] = [[] for _ in tags]
    start = 0
    for gid, end in zip(gids, ends):
        if (
            gid >= len(rank)
            or end < start
            or (gid >= 0 and not 0 <= rank[gid] < len(tags))
        ):
            raise ValueError("malformed clause store")
        buckets[0 if gid < 0 else rank[gid]].append((start, end))
        start = end
    out_lits = array("q")
    out_ends = array("q")
    for tag, spans in zip(tags, buckets):
        for start, end in spans:
            out_lits.extend(lits[start:end])
            if tag:
                out_lits.append(tag)
            out_ends.append(len(out_lits))
    top = max(max(used), -min(used)) if used else 0
    return out_lits, out_ends, top
