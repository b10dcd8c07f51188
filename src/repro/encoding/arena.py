"""Flat gate-arena storage behind the trace-formula encoder.

Every clause and structure-hash gate of an encode lives in a handful of
flat ``array('q')`` buffers instead of millions of small heap objects:

* ``lits``  — every clause's literals, concatenated (one literal pool);
* ``cend``  — per-clause end offset into ``lits`` (start = previous end);
* ``cgid``  — per-clause owning group id (``-1`` = hard set);
* ``gtab``  — the structure-hash gate cache as an open-addressed table of
  ``(op, k1, k2, out)`` int quadruples (linear probing, power-of-two size);
* ``hdr``   — the mutable scalars (variable counter, gate/hit counters,
  rolling FNV signature, clause and literal counts …) in one small shared
  array.

Because every buffer is a plain C-layout int64 array, the optional C
emission core (``src/repro/sat/encode.c``) can operate on the *same* state
as the pure-Python routines: a compile may interleave Python scalar gates
with C vector kernels freely, and both backends produce bit-identical
results by construction of the shared layout (and by the differential test
matrix for the C reimplementation of the fold rules).

The buffers are also the encoding's only representation downstream.  A
whole-program artifact stores the filled clause store
(:meth:`GateArena.clause_store`), and :func:`gather_clauses` reorders a
clause store into the MaxSAT engine's load order in one pass, so no
per-clause Python list exists between the encoder and the SAT kernel.
"""

from __future__ import annotations

from array import array

_M64 = (1 << 64) - 1

# ------------------------------------------------------------- header slots

HDR_NUM_VARS = 0  #: CNF variable counter.
HDR_GATES = 1  #: Gates emitted (structure-hash misses).
HDR_HITS = 2  #: Gate-cache hits.
HDR_SIG = 3  #: Rolling FNV-1a signature (int64 bit pattern of the uint64).
HDR_TRUE = 4  #: The constant-true literal, 0 while unallocated.
HDR_NCLAUSES = 5  #: Number of clauses in the store.
HDR_LITS = 6  #: Logical length of the literal pool.
HDR_GMASK = 7  #: Gate-table slot mask (slot count - 1).
HDR_GUSED = 8  #: Occupied gate-table slots.
HDR_SLOTS = 16  #: Header size (room for growth without an ABI break).

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

    def __init__(self) -> None:
        self.hdr = array("q", [0] * HDR_SLOTS)
        self.hdr[HDR_SIG] = _signed64(_FNV_OFFSET)
        self.lits = array("q", bytes(8 * 4096))
        self.cend = array("q", bytes(8 * 1024))
        self.cgid = array("q", bytes(8 * 1024))
        #: Gate table: stride-4 slots of (op, k1, k2, out); op == 0 = empty.
        self.gtab = array("q", bytes(8 * 4 * 2048))
        self.hdr[HDR_GMASK] = 2048 - 1
        #: Optional C rehash routine ``(old, old_slots, new, new_mask)``,
        #: installed by the C-backend binding (same layout as the Python loop).
        self.rehash_hook = None

    # ------------------------------------------------------------- capacity

    def _grow(self, buf: array, need: int) -> array:
        capacity = len(buf)
        while capacity < need:
            capacity *= 2
        buf.frombytes(bytes(8 * (capacity - len(buf))))
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
        return hdr[HDR_NUM_VARS]

    def new_vars(self, count: int) -> range:
        """Allocate a run of ``count`` fresh variables."""
        hdr = self.hdr
        first = hdr[HDR_NUM_VARS] + 1
        hdr[HDR_NUM_VARS] += count
        return range(first, first + count)

    def true_lit(self) -> int:
        """The constant-true literal, allocated (with its hard unit) lazily."""
        hdr = self.hdr
        lit = hdr[HDR_TRUE]
        if lit:
            return lit
        lit = self.new_var()
        hdr[HDR_TRUE] = lit
        self.emit((lit,), -1)
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
        """Insert a fresh gate: table entry, signature, definition."""
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
        hdr = self.hdr
        hdr[HDR_GUSED] += 1
        # Fold the fresh gate into the structural signature.
        sig = hdr[HDR_SIG] & _M64
        for word in (op, k1, k2, out):
            sig = ((sig ^ (word & 0xFFFFFFFF)) * _FNV_PRIME) & _M64
        hdr[HDR_SIG] = _signed64(sig)
        hdr[HDR_GATES] += 1
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
