"""Flat gate-arena storage behind the trace-formula encoder.

The legacy :class:`~repro.encoding.context.EncodingContext` stores every
clause as a ``list[int]``, every journal event as a tuple and the
structure-hash gate cache as a Python dict — millions of small heap objects
per compile.  The arena keeps the same information in a handful of flat
``array('q')`` buffers instead:

* ``lits``  — every clause's literals, concatenated (one literal pool);
* ``cend``  — per-clause end offset into ``lits`` (start = previous end);
* ``cgid``  — per-clause owning group id (``-1`` = hard set);
* ``js``    — the emission journal as a flat integer event stream
  (:data:`TAG_V` … :data:`TAG_GRP` below) instead of per-event tuples;
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

At the end of a whole-program compile
:meth:`ArenaEncodingContext.finalize` materializes the exact legacy
structures — ``hard``/``groups`` clause lists and the tuple journal, with
clause lists shared between the two just as the legacy emitter produces
them — so artifacts, the splice replay and every other consumer are
byte-for-byte unaffected by which storage backed the encode.

A concolic trace never journals and never materializes: the trace formula
keeps the clause store itself (:meth:`GateArena.clause_store`), and
:func:`gather_clauses` reorders it into the MaxSAT engine's load order in
one pass, so no per-clause Python list exists between the encoder and the
SAT kernel.

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
HDR_GID = 11  #: Active clause group id (-1 = hard set).
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

#: Opcodes of the packed-key gates (first key slot holds two literals).
_PACKED_OPS = (3, 4, 5)

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


def _signed64(value: int) -> int:
    """The int64 bit pattern of a uint64 (array('q') stores signed)."""
    return value - (1 << 64) if value >= (1 << 63) else value


class GateArena:
    """The flat buffers plus the pure-Python routines that fill them."""

    def __init__(self, journal: bool = False) -> None:
        self.hdr = array("q", [0] * HDR_SLOTS)
        self.hdr[HDR_GID] = -1
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

    def gate_lookup(self, op: int, k1: int, k2: int) -> int:
        """The cached output of a canonical gate key, or 0 (a miss).

        A hit counts toward the gate-sharing statistic, mirroring the
        legacy builder's ``gate_hits`` bookkeeping.
        """
        gtab, mask = self.gtab, self.hdr[HDR_GMASK]
        probe = _hash_key(op, k1, k2) & mask
        while True:
            base = probe * 4
            slot_op = gtab[base]
            if not slot_op:
                return 0
            if slot_op == op and gtab[base + 1] == k1 and gtab[base + 2] == k2:
                self.hdr[HDR_HITS] += 1
                return gtab[base + 3]
            probe = (probe + 1) & mask

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

    # -------------------------------------------------------- materialization

    def clause_store(self) -> tuple[array, array, array]:
        """Copies of the filled part of ``lits``, ``cend`` and ``cgid``."""
        hdr = self.hdr
        nclauses = hdr[HDR_NCLAUSES]
        return (
            self.lits[: hdr[HDR_LITS]],
            self.cend[:nclauses],
            self.cgid[:nclauses],
        )

    def materialize(
        self, group_table: list
    ) -> tuple[list, dict, Optional[list], Optional[int]]:
        """Rebuild the legacy ``(hard, groups, journal, true_lit)`` view.

        Clause ``list`` objects are shared between ``hard``/``groups`` and
        the tuple journal exactly as the legacy emitter shares them, so
        artifact pickles are identical whichever storage ran the compile.
        """
        hdr = self.hdr
        nclauses = hdr[HDR_NCLAUSES]
        lits, cend, cgid = self.lits, self.cend, self.cgid
        from repro.sat import _ccore

        native = _ccore.materialize_function()
        if native is not None:
            _, hard, grouped, journal = native(
                lits.buffer_info()[0],
                cend.buffer_info()[0],
                cgid.buffer_info()[0],
                nclauses,
                self.js.buffer_info()[0] if len(self.js) else 0,
                hdr[HDR_JLEN],
                self.raw,
                len(group_table),
                hdr[HDR_JOURNAL],
            )
            groups = dict(zip(group_table, grouped))
            return hard, groups, journal, hdr[HDR_TRUE] or None
        hard: list[list[int]] = []
        groups: dict = {group: [] for group in group_table}
        grouped: list[list] = [groups[group] for group in group_table]
        clauses: list[list[int]] = []
        start = 0
        append_clause = clauses.append
        for index in range(nclauses):
            end = cend[index]
            clause = lits[start:end].tolist()
            start = end
            append_clause(clause)
            gid = cgid[index]
            if gid < 0:
                hard.append(clause)
            else:
                grouped[gid].append(clause)
        true_lit = hdr[HDR_TRUE] or None
        if not hdr[HDR_JOURNAL]:
            return hard, groups, None, true_lit
        journal: list[tuple] = []
        append = journal.append
        js, jlen = self.js, hdr[HDR_JLEN]
        raw = self.raw
        cursor = 0
        position = 0
        while position < jlen:
            tag = js[position]
            if tag == TAG_C:
                append(("c", cgid[cursor], clauses[cursor]))
                cursor += 1
                position += 1
            elif tag == TAG_G:
                count = js[position + 5]
                append(
                    (
                        "g",
                        js[position + 1],
                        js[position + 2],
                        js[position + 3],
                        js[position + 4],
                        count,
                    )
                )
                position += 6
                for _ in range(count):
                    append(("c", -1, clauses[cursor]))
                    cursor += 1
            elif tag == TAG_V:
                append(("v", js[position + 1]))
                position += 2
            elif tag in (TAG_RAW, TAG_CE, TAG_CX):
                append(raw[js[position + 1]])
                position += 3 + js[position + 2]
            elif tag == TAG_GRP:
                append(("grp", js[position + 1]))
                position += 2
            elif tag == TAG_T:
                append(("t", js[position + 1]))
                cursor += 1  # the constant's hard unit occupies one slot
                position += 2
            else:  # pragma: no cover - defensive
                raise AssertionError(f"corrupt journal stream tag {tag}")
        return hard, groups, journal, true_lit


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
