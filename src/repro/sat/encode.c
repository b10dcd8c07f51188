/* The C emission core of the flat gate-arena encoder.
 *
 * Operates on the same flat int64 buffers as the pure-Python arena
 * (repro/encoding/arena.py): the header scalar block, the clause literal
 * pool + end-offset/group-id indexes and the open-addressed structure-hash
 * gate table.  Every routine implements exactly the same canonicalization,
 * constant folding, clause order and signature arithmetic as the Python
 * mirror (CircuitBuilder + GateArena), so a compile may interleave Python
 * and C emission freely and both backends produce bit-identical CNF and
 * gate signatures.  Any divergence is a bug; the differential suite
 * (tests/test_encode_backends.py) compares whole compiles across backends.
 *
 * Exported entry points (buffers first, then operands):
 *
 *   repro_enc_gate     one scalar gate (and / xor / ite / xor3 / majority)
 *                      including all constant folds; returns the literal.
 *   repro_enc_add      ripple-carry adder chain (xor3 + majority per bit).
 *   repro_enc_mul      shift-and-add multiplier (control side = first arg).
 *   repro_enc_equals   MSB-first equality AND chain.
 *   repro_enc_uless    unsigned less-than mux chain.
 *   repro_enc_mux      per-bit if-then-else.
 *   repro_enc_assign   target == source equation clauses under one clause
 *                      group, constant folds included (mirror:
 *                      CircuitBuilder.assert_equal).
 *   repro_enc_or_many  OR-reduction chain seeded with false (mirror:
 *                      CircuitBuilder.bit_or_many).
 *   repro_enc_gather   reorder a finished clause store into the MaxSAT
 *                      engine's load order, tagging grouped clauses with
 *                      their selector (mirror: arena._gather_python).
 *
 * Capacity contract: the Python caller reserves worst-case room (gates,
 * clauses, literals, gate-table load factor < 1/2) before
 * every call; the kernels never grow a buffer.  Vector lengths are capped
 * at 64 bits by the caller.
 */

#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

/* Header slots — keep in sync with repro/encoding/arena.py. */
enum {
    H_NUM_VARS = 0,
    H_GATES = 1,
    H_HITS = 2,
    H_SIG = 3,
    H_TRUE = 4,
    H_NCLAUSES = 5,
    H_LITS = 6,
    H_GMASK = 7,
    H_GUSED = 8
};

/* Gate opcodes — keep in sync with repro/encoding/circuits.py. */
enum { OP_AND = 1, OP_XOR = 2, OP_ITE = 3, OP_XOR3 = 4, OP_MAJ = 5 };

typedef struct {
    i64 *hdr;
    i64 *lits;
    i64 *cend;
    i64 *cgid;
    i64 *gtab;
} Enc;

/* Position hash of a canonical gate key (mirror of arena._hash_key). */
static u64 hash_key(i64 op, i64 k1, i64 k2) {
    u64 h = ((u64)op * 0x9E3779B97F4A7C15ULL)
          ^ ((u64)k1 * 0xC2B2AE3D27D4EB4FULL)
          ^ ((u64)k2 * 0x165667B19E3779F9ULL);
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return h;
}

static i64 new_var(Enc *e) {
    return ++e->hdr[H_NUM_VARS];
}

/* One gate-definition clause (always hard, group id -1). */
static void put_clause(Enc *e, const i64 *clause, int n) {
    i64 *h = e->hdr;
    i64 nc = h[H_NCLAUSES], off = h[H_LITS];
    for (int i = 0; i < n; i++)
        e->lits[off++] = clause[i];
    e->cend[nc] = off;
    e->cgid[nc] = -1;
    h[H_NCLAUSES] = nc + 1;
    h[H_LITS] = off;
}

/* The cached output of a gate key, or 0 (mirror of GateArena.gate_find). */
static i64 find(Enc *e, i64 op, i64 k1, i64 k2) {
    i64 mask = e->hdr[H_GMASK];
    i64 *t = e->gtab;
    u64 p = hash_key(op, k1, k2) & (u64)mask;
    for (;;) {
        i64 *slot = t + p * 4;
        if (!slot[0])
            return 0;
        if (slot[0] == op && slot[1] == k1 && slot[2] == k2)
            return slot[3];
        p = (p + 1) & (u64)mask;
    }
}

/* find() counting a hit (mirror of GateArena.gate_lookup). */
static i64 lookup(Enc *e, i64 op, i64 k1, i64 k2) {
    i64 out = find(e, op, k1, k2);
    if (out)
        e->hdr[H_HITS] += 1;
    return out;
}

static void insert(Enc *e, i64 op, i64 k1, i64 k2, i64 out) {
    i64 mask = e->hdr[H_GMASK];
    i64 *t = e->gtab;
    u64 p = hash_key(op, k1, k2) & (u64)mask;
    while (t[p * 4])
        p = (p + 1) & (u64)mask;
    i64 *slot = t + p * 4;
    slot[0] = op;
    slot[1] = k1;
    slot[2] = k2;
    slot[3] = out;
    e->hdr[H_GUSED] += 1;
}

/* Signature fold for a fresh gate (mirror of GateArena.gate_insert). */
static void observe(Enc *e, i64 op, i64 k1, i64 k2, i64 out) {
    i64 *h = e->hdr;
    u64 sig = (u64)h[H_SIG];
    sig = (sig ^ (u64)(uint32_t)op) * 0x100000001B3ULL;
    sig = (sig ^ (u64)(uint32_t)k1) * 0x100000001B3ULL;
    sig = (sig ^ (u64)(uint32_t)k2) * 0x100000001B3ULL;
    sig = (sig ^ (u64)(uint32_t)out) * 0x100000001B3ULL;
    h[H_SIG] = (i64)sig;
    h[H_GATES] += 1;
}

/* ------------------------------------------------------------ scalar gates
 *
 * Each mirrors the corresponding CircuitBuilder.bit_* method with
 * simplify=True, fold for fold and clause for clause.
 */

static i64 enc_xor(Enc *e, i64 a, i64 b);

static i64 enc_and(Enc *e, i64 a, i64 b) {
    i64 t = e->hdr[H_TRUE];
    if (a == t)
        return b;
    if (a == -t)
        return -t;
    if (b == t)
        return a;
    if (b == -t)
        return -t;
    if (a == b)
        return a;
    if (a == -b)
        return -t;
    if (a > b) {
        i64 swap = a;
        a = b;
        b = swap;
    }
    i64 out = lookup(e, OP_AND, a, b);
    if (out)
        return out;
    out = new_var(e);
    insert(e, OP_AND, a, b, out);
    observe(e, OP_AND, a, b, out);
    {
        i64 c1[3] = {-a, -b, out};
        i64 c2[2] = {a, -out};
        i64 c3[2] = {b, -out};
        put_clause(e, c1, 3);
        put_clause(e, c2, 2);
        put_clause(e, c3, 2);
    }
    return out;
}

static i64 enc_or(Enc *e, i64 a, i64 b) {
    return -enc_and(e, -a, -b);
}

static i64 enc_xor(Enc *e, i64 a, i64 b) {
    i64 t = e->hdr[H_TRUE];
    if (a == t)
        return -b;
    if (a == -t)
        return b;
    if (b == t)
        return -a;
    if (b == -t)
        return a;
    if (a == b)
        return -t;
    if (a == -b)
        return t;
    int sign = (a < 0) != (b < 0);
    i64 pa = a < 0 ? -a : a;
    i64 pb = b < 0 ? -b : b;
    if (pa > pb) {
        i64 swap = pa;
        pa = pb;
        pb = swap;
    }
    i64 out = lookup(e, OP_XOR, pa, pb);
    if (!out) {
        out = new_var(e);
        insert(e, OP_XOR, pa, pb, out);
        observe(e, OP_XOR, pa, pb, out);
        {
            i64 c1[3] = {-pa, -pb, -out};
            i64 c2[3] = {pa, pb, -out};
            i64 c3[3] = {-pa, pb, out};
            i64 c4[3] = {pa, -pb, out};
            put_clause(e, c1, 3);
            put_clause(e, c2, 3);
            put_clause(e, c3, 3);
            put_clause(e, c4, 3);
        }
    }
    return sign ? -out : out;
}

static i64 enc_ite(Enc *e, i64 cond, i64 tl, i64 el) {
    i64 t = e->hdr[H_TRUE];
    if (cond == t)
        return tl;
    if (cond == -t)
        return el;
    if (tl == el)
        return tl;
    /* Constant branches reduce to AND/OR/XNOR gates, which hash better. */
    if (tl == t)
        return enc_or(e, cond, el);
    if (tl == -t)
        return enc_and(e, -cond, el);
    if (el == t)
        return enc_or(e, -cond, tl);
    if (el == -t)
        return enc_and(e, cond, tl);
    if (tl == -el)
        return -enc_xor(e, cond, tl);
    if (cond < 0) {
        i64 swap = tl;
        cond = -cond;
        tl = el;
        el = swap;
    }
    i64 k1 = cond * (((i64)1) << 32) + tl;
    i64 out = lookup(e, OP_ITE, k1, el);
    if (out)
        return out;
    out = new_var(e);
    insert(e, OP_ITE, k1, el, out);
    observe(e, OP_ITE, k1, el, out);
    {
        i64 c1[3] = {-cond, -tl, out};
        i64 c2[3] = {-cond, tl, -out};
        i64 c3[3] = {cond, -el, out};
        i64 c4[3] = {cond, el, -out};
        put_clause(e, c1, 3);
        put_clause(e, c2, 3);
        put_clause(e, c3, 3);
        put_clause(e, c4, 3);
    }
    return out;
}

static i64 enc_xor3(Enc *e, i64 a, i64 b, i64 c) {
    i64 t = e->hdr[H_TRUE];
    int sign = 0;
    i64 pos[3];
    int n = 0;
    i64 in[3] = {a, b, c};
    for (int i = 0; i < 3; i++) {
        i64 lit = in[i];
        if (lit == t) {
            sign = !sign;
        } else if (lit == -t) {
            /* constant false: drops out of the parity */
        } else {
            if (lit < 0) {
                sign = !sign;
                lit = -lit;
            }
            pos[n++] = lit;
        }
    }
    /* Keep the variables with odd multiplicity, ascending (mirror of the
     * by_var parity reduction). */
    i64 red[3];
    int m = 0;
    for (int i = 0; i < n; i++) {
        int count = 0, seen = 0;
        for (int j = 0; j < n; j++)
            if (pos[j] == pos[i])
                count++;
        for (int j = 0; j < i; j++)
            if (pos[j] == pos[i])
                seen = 1;
        if (!seen && (count & 1))
            red[m++] = pos[i];
    }
    for (int i = 0; i < m; i++)
        for (int j = i + 1; j < m; j++)
            if (red[j] < red[i]) {
                i64 swap = red[i];
                red[i] = red[j];
                red[j] = swap;
            }
    if (m == 0)
        return sign ? t : -t;
    if (m == 1)
        return sign ? -red[0] : red[0];
    if (m == 2) {
        i64 result = enc_xor(e, red[0], red[1]);
        return sign ? -result : result;
    }
    i64 pa = red[0], pb = red[1], pc = red[2];
    i64 k1 = pa * (((i64)1) << 32) + pb;
    i64 out = lookup(e, OP_XOR3, k1, pc);
    if (!out) {
        out = new_var(e);
        insert(e, OP_XOR3, k1, pc, out);
        observe(e, OP_XOR3, k1, pc, out);
        {
            i64 c1[4] = {pa, pb, pc, -out};
            i64 c2[4] = {pa, -pb, -pc, -out};
            i64 c3[4] = {-pa, pb, -pc, -out};
            i64 c4[4] = {-pa, -pb, pc, -out};
            i64 c5[4] = {-pa, -pb, -pc, out};
            i64 c6[4] = {-pa, pb, pc, out};
            i64 c7[4] = {pa, -pb, pc, out};
            i64 c8[4] = {pa, pb, -pc, out};
            put_clause(e, c1, 4);
            put_clause(e, c2, 4);
            put_clause(e, c3, 4);
            put_clause(e, c4, 4);
            put_clause(e, c5, 4);
            put_clause(e, c6, 4);
            put_clause(e, c7, 4);
            put_clause(e, c8, 4);
        }
    }
    return sign ? -out : out;
}

static i64 enc_maj(Enc *e, i64 a, i64 b, i64 c) {
    i64 t = e->hdr[H_TRUE];
    i64 rot[3][3] = {{a, b, c}, {b, c, a}, {c, a, b}};
    for (int i = 0; i < 3; i++) {
        i64 first = rot[i][0], second = rot[i][1], third = rot[i][2];
        if (first == t)
            return enc_or(e, second, third);
        if (first == -t)
            return enc_and(e, second, third);
        if (second == third)
            return second;
        if (second == -third)
            return first;
    }
    int sign = 0;
    i64 lits[3] = {a, b, c};
    if ((a < 0) + (b < 0) + (c < 0) >= 2) {
        sign = 1;
        lits[0] = -a;
        lits[1] = -b;
        lits[2] = -c;
    }
    for (int i = 0; i < 3; i++)
        for (int j = i + 1; j < 3; j++)
            if (lits[j] < lits[i]) {
                i64 swap = lits[i];
                lits[i] = lits[j];
                lits[j] = swap;
            }
    i64 pa = lits[0], pb = lits[1], pc = lits[2];
    i64 k1 = pa * (((i64)1) << 32) + pb;
    i64 out = lookup(e, OP_MAJ, k1, pc);
    if (!out) {
        out = new_var(e);
        insert(e, OP_MAJ, k1, pc, out);
        observe(e, OP_MAJ, k1, pc, out);
        {
            i64 c1[3] = {-pa, -pb, out};
            i64 c2[3] = {-pa, -pc, out};
            i64 c3[3] = {-pb, -pc, out};
            i64 c4[3] = {pa, pb, -out};
            i64 c5[3] = {pa, pc, -out};
            i64 c6[3] = {pb, pc, -out};
            put_clause(e, c1, 3);
            put_clause(e, c2, 3);
            put_clause(e, c3, 3);
            put_clause(e, c4, 3);
            put_clause(e, c5, 3);
            put_clause(e, c6, 3);
        }
    }
    return sign ? -out : out;
}

static i64 gate_dispatch(Enc *e, i64 op, i64 a, i64 b, i64 c) {
    switch (op) {
    case OP_AND:
        return enc_and(e, a, b);
    case OP_XOR:
        return enc_xor(e, a, b);
    case OP_ITE:
        return enc_ite(e, a, b, c);
    case OP_XOR3:
        return enc_xor3(e, a, b, c);
    case OP_MAJ:
        return enc_maj(e, a, b, c);
    }
    return 0;
}

/* ----------------------------------------------------------- entry points */

#define ENC_ARGS i64 *hdr, i64 *lits, i64 *cend, i64 *cgid, i64 *gtab
#define ENC_INIT Enc enc = {hdr, lits, cend, cgid, gtab}

i64 repro_enc_gate(ENC_ARGS, i64 op, i64 a, i64 b, i64 c) {
    ENC_INIT;
    return gate_dispatch(&enc, op, a, b, c);
}

/* Ripple-carry adder: out[i] = xor3(a, b, carry); carry = maj(a, b, carry).
 * Mirrors CircuitBuilder.add with simplify=True (carry already resolved by
 * the caller: the false constant, or the explicit carry-in literal). */
void repro_enc_add(ENC_ARGS, i64 *va, i64 *vb, i64 *vout, i64 n, i64 carry) {
    ENC_INIT;
    for (i64 i = 0; i < n; i++) {
        i64 bit_a = va[i], bit_b = vb[i];
        vout[i] = enc_xor3(&enc, bit_a, bit_b, carry);
        carry = enc_maj(&enc, bit_a, bit_b, carry);
    }
}

/* Shift-and-add multiplier over zero-extended operands: va is the control
 * side (the caller already swapped a constant operand into it).  Mirrors
 * the CircuitBuilder.multiply accumulation loop exactly: skip rows with a
 * known-false control bit, AND-mask the partial product, ripple-add. */
void repro_enc_mul(ENC_ARGS, i64 *va, i64 *vb, i64 *vout, i64 n) {
    ENC_INIT;
    i64 t = hdr[H_TRUE];
    i64 acc[64];
    i64 part[64];
    for (i64 i = 0; i < n; i++)
        acc[i] = -t;
    for (i64 shift = 0; shift < n; shift++) {
        i64 control = va[shift];
        if (control == -t)
            continue;
        for (i64 j = 0; j < shift; j++)
            part[j] = -t;
        for (i64 j = 0; j < n - shift; j++)
            part[shift + j] = enc_and(&enc, control, vb[j]);
        i64 carry = -t;
        for (i64 i = 0; i < n; i++) {
            i64 bit_a = acc[i], bit_b = part[i];
            acc[i] = enc_xor3(&enc, bit_a, bit_b, carry);
            carry = enc_maj(&enc, bit_a, bit_b, carry);
        }
    }
    for (i64 i = 0; i < n; i++)
        vout[i] = acc[i];
}

/* Equality: per-bit XNORs LSB-first (gate creation order), then the
 * MSB-first AND chain seeded with the true constant. */
i64 repro_enc_equals(ENC_ARGS, i64 *va, i64 *vb, i64 *scratch, i64 n) {
    ENC_INIT;
    for (i64 i = 0; i < n; i++)
        scratch[i] = -enc_xor(&enc, va[i], vb[i]);
    i64 result = hdr[H_TRUE];
    for (i64 i = n - 1; i >= 0; i--)
        result = enc_and(&enc, result, scratch[i]);
    return result;
}

/* Unsigned less-than: LSB-to-MSB mux chain over the per-bit XORs. */
i64 repro_enc_uless(ENC_ARGS, i64 *va, i64 *vb, i64 n) {
    ENC_INIT;
    i64 less = -hdr[H_TRUE];
    for (i64 i = 0; i < n; i++)
        less = enc_ite(&enc, enc_xor(&enc, va[i], vb[i]), vb[i], less);
    return less;
}

/* Per-bit if-then-else over two vectors. */
void repro_enc_mux(ENC_ARGS, i64 cond, i64 *va, i64 *vb, i64 *vout, i64 n) {
    ENC_INIT;
    for (i64 i = 0; i < n; i++)
        vout[i] = enc_ite(&enc, cond, va[i], vb[i]);
}

/* One statement clause under group gid (mirror of GateArena.emit). */
static void emit_clause(Enc *e, const i64 *clause, int n, i64 gid) {
    put_clause(e, clause, n);
    e->cgid[e->hdr[H_NCLAUSES] - 1] = gid;
}

/* The value of a constant literal (1 true, 0 false), -1 for any other. */
static int const_value(i64 lit, i64 t) {
    return lit == t ? 1 : lit == -t ? 0 : -1;
}

/* target == source, bit by bit, under group gid.  Mirrors
 * CircuitBuilder.assert_equal: a constant target bit (narrowed high bits)
 * pins the source bit, or contradicts ([-true]) a disagreeing constant; a
 * constant source bit pins the target bit; otherwise the two binary
 * clauses of the equivalence. */
void repro_enc_assign(ENC_ARGS, i64 *vt, i64 *vs, i64 n, i64 gid) {
    ENC_INIT;
    i64 t = hdr[H_TRUE];
    for (i64 i = 0; i < n; i++) {
        i64 tb = vt[i], sb = vs[i];
        int value = const_value(sb, t), target = const_value(tb, t);
        i64 unit;
        if (target >= 0) {
            if (value < 0)
                unit = target ? sb : -sb;
            else if (value != target)
                unit = -t;
            else
                continue;
        } else if (value >= 0) {
            unit = value ? tb : -tb;
        } else {
            i64 c1[2] = {-tb, sb};
            i64 c2[2] = {tb, -sb};
            emit_clause(&enc, c1, 2, gid);
            emit_clause(&enc, c2, 2, gid);
            continue;
        }
        emit_clause(&enc, &unit, 1, gid);
    }
}

/* OR-reduction: the left-to-right chain acc = or(acc, bit) seeded with the
 * false constant (mirror of CircuitBuilder.bit_or_many). */
i64 repro_enc_or_many(ENC_ARGS, i64 *va, i64 n) {
    ENC_INIT;
    i64 acc = -hdr[H_TRUE];
    for (i64 i = 0; i < n; i++)
        acc = enc_or(&enc, acc, va[i]);
    return acc;
}

/* Rehash the gate table into a fresh zeroed table (Python grew it).
 * Scans old slots in order and re-inserts with linear probing — the same
 * procedure as the Python fallback, so both produce the same layout. */
void repro_enc_rehash(const i64 *old_tab, i64 old_slots, i64 *new_tab,
                      i64 new_mask) {
    for (i64 s = 0; s < old_slots; s++) {
        const i64 *slot = old_tab + s * 4;
        i64 op = slot[0];
        if (!op)
            continue;
        u64 p = hash_key(op, slot[1], slot[2]) & (u64)new_mask;
        while (new_tab[p * 4])
            p = (p + 1) & (u64)new_mask;
        i64 *dst = new_tab + p * 4;
        dst[0] = op;
        dst[1] = slot[1];
        dst[2] = slot[2];
        dst[3] = slot[3];
    }
}

/* Gather a clause store into load order: the hard clauses (group -1) in
 * emission order, then bucket after bucket, each in emission order, every
 * clause followed by its bucket's tag literal unless the tag is 0.
 *
 * Clause i spans lits[ends[i-1] .. ends[i]) (ends[-1] = 0) and belongs to
 * group gids[i]; rank[g] (1 .. nbuckets-1) is group g's bucket, bucket 0
 * holds the hard clauses and tags[b] is bucket b's tag.  out_lits has room
 * for every literal plus one tag per clause, out_ends for one end offset
 * per clause; cursor is 2 * nbuckets words of scratch.  On success
 * result[0] is the number of literals written and result[1] the largest
 * variable an input literal names.  Returns 0, -1 for a 0 literal or -2
 * for a malformed store: a group index outside the rank table, a rank
 * outside the buckets or a decreasing end offset (nothing written then).
 * The caller guarantees ends[count-1] <= the length of lits. */
i64 repro_enc_gather(const i64 *lits, const i64 *ends, const i64 *gids,
                     i64 count, const i64 *rank, i64 ngroups, const i64 *tags,
                     i64 nbuckets, i64 *out_lits, i64 *out_ends, i64 *cursor,
                     i64 *result) {
    i64 *clause_at = cursor, *lit_at = cursor + nbuckets;
    for (i64 b = 0; b < nbuckets; b++) {
        clause_at[b] = 0;
        lit_at[b] = 0;
    }
    i64 top = 0, start = 0;
    for (i64 i = 0; i < count; i++) {
        i64 g = gids[i], end = ends[i];
        if (g >= ngroups || end < start)
            return -2;
        i64 b = g < 0 ? 0 : rank[g];
        if (b < 0 || b >= nbuckets)
            return -2;
        for (i64 k = start; k < end; k++) {
            i64 lit = lits[k];
            if (lit == 0)
                return -1;
            i64 var = lit < 0 ? -lit : lit;
            if (var > top)
                top = var;
        }
        clause_at[b] += 1;
        lit_at[b] += end - start + (tags[b] != 0);
        start = end;
    }
    i64 clauses = 0, words = 0;
    for (i64 b = 0; b < nbuckets; b++) {
        i64 c = clause_at[b], w = lit_at[b];
        clause_at[b] = clauses;
        lit_at[b] = words;
        clauses += c;
        words += w;
    }
    start = 0;
    for (i64 i = 0; i < count; i++) {
        i64 g = gids[i], end = ends[i];
        i64 b = g < 0 ? 0 : rank[g];
        i64 pos = lit_at[b];
        for (i64 k = start; k < end; k++)
            out_lits[pos++] = lits[k];
        if (tags[b])
            out_lits[pos++] = tags[b];
        lit_at[b] = pos;
        out_ends[clause_at[b]++] = pos;
        start = end;
    }
    result[0] = words;
    result[1] = top;
    return 0;
}
