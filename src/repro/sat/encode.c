/* The C emission core of the flat gate-arena encoder.
 *
 * Operates on the same flat int64 buffers as the pure-Python arena
 * (repro/encoding/arena.py): the header scalar block, the clause literal
 * pool + end-offset/group-id indexes, the flat journal stream and the
 * open-addressed structure-hash gate table.  Every routine implements
 * exactly the same canonicalization, constant folding, clause order,
 * journal order and signature arithmetic as the Python mirror
 * (CircuitBuilder + GateArena), so a compile may interleave Python and C
 * emission freely and both backends produce bit-identical CNF, journals
 * and gate signatures.  Any divergence is a bug; the differential suite
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
 *   repro_enc_copy     append the plain records of another journal verbatim
 *                      (mirror: GateArena._copy_records_python).
 *   repro_enc_gather   reorder a finished clause store into the MaxSAT
 *                      engine's load order, tagging grouped clauses with
 *                      their selector (mirror: arena._gather_python).
 *
 * Capacity contract: the Python caller reserves worst-case room (gates,
 * clauses, literals, journal words, gate-table load factor < 1/2) before
 * every call; the kernels never grow a buffer.  Vector lengths are capped
 * at 64 bits by the caller.
 */

#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

/* Header slots — keep in sync with repro/encoding/arena.py. */
enum {
    H_NUM_VARS = 0,
    H_PENDING = 1,
    H_GATES = 2,
    H_HITS = 3,
    H_SIG = 4,
    H_TRUE = 5,
    H_NCLAUSES = 6,
    H_LITS = 7,
    H_JLEN = 8,
    H_GMASK = 9,
    H_GUSED = 10,
    H_GID = 11,
    H_JOURNAL = 12,
    H_IFACE = 13
};

/* Flat journal tags — keep in sync with repro/encoding/arena.py. */
enum {
    TAG_V = 1,
    TAG_C = 2,
    TAG_G = 3,
    TAG_T = 4,
    TAG_RAW = 5,
    TAG_CE = 6,
    TAG_CX = 7,
    TAG_GRP = 8
};

/* Gate opcodes — keep in sync with repro/encoding/circuits.py. */
enum { OP_AND = 1, OP_XOR = 2, OP_ITE = 3, OP_XOR3 = 4, OP_MAJ = 5 };

typedef struct {
    i64 *hdr;
    i64 *lits;
    i64 *cend;
    i64 *cgid;
    i64 *js;
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

static void flush_vars(Enc *e) {
    i64 *h = e->hdr;
    if (h[H_PENDING]) {
        i64 j = h[H_JLEN];
        e->js[j] = TAG_V;
        e->js[j + 1] = h[H_PENDING];
        h[H_JLEN] = j + 2;
        h[H_PENDING] = 0;
    }
}

static i64 new_var(Enc *e) {
    i64 *h = e->hdr;
    h[H_NUM_VARS] += 1;
    if (h[H_JOURNAL])
        h[H_PENDING] += 1;
    return h[H_NUM_VARS];
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

/* Signature fold + "g" journal record for a fresh gate (mirror of
 * arena._observe: the gate owns its freshly allocated output variable). */
static void observe(Enc *e, i64 op, i64 k1, i64 k2, i64 out, i64 ncl) {
    i64 *h = e->hdr;
    u64 sig = (u64)h[H_SIG];
    sig = (sig ^ (u64)(uint32_t)op) * 0x100000001B3ULL;
    sig = (sig ^ (u64)(uint32_t)k1) * 0x100000001B3ULL;
    sig = (sig ^ (u64)(uint32_t)k2) * 0x100000001B3ULL;
    sig = (sig ^ (u64)(uint32_t)out) * 0x100000001B3ULL;
    h[H_SIG] = (i64)sig;
    h[H_GATES] += 1;
    if (h[H_JOURNAL]) {
        h[H_PENDING] -= 1;
        flush_vars(e);
        i64 j = h[H_JLEN];
        e->js[j] = TAG_G;
        e->js[j + 1] = op;
        e->js[j + 2] = k1;
        e->js[j + 3] = k2;
        e->js[j + 4] = out;
        e->js[j + 5] = ncl;
        h[H_JLEN] = j + 6;
    }
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
    observe(e, OP_AND, a, b, out, 3);
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
        observe(e, OP_XOR, pa, pb, out, 4);
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
    observe(e, OP_ITE, k1, el, out, 4);
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
        observe(e, OP_XOR3, k1, pc, out, 8);
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
        observe(e, OP_MAJ, k1, pc, out, 6);
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

#define ENC_ARGS i64 *hdr, i64 *lits, i64 *cend, i64 *cgid, i64 *js, i64 *gtab
#define ENC_INIT Enc enc = {hdr, lits, cend, cgid, js, gtab}

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

/* A source literal under the variable map mu (0: its variable is unmapped). */
static i64 map_lit(const i64 *mu, i64 lit) {
    return lit > 0 ? mu[lit] : -mu[-lit];
}

/* floor(v / 2**32): splits a packed key word like Python's >> does. */
static i64 high_word(i64 v) {
    return v >= 0 ? v >> 32 : -((-v + 0xFFFFFFFFLL) >> 32);
}

/* Is a mapped gate key still in the builder's canonical form, and free of
 * every constant fold (tl = the true literal)?  a, b, c are the mapped key
 * literals (c unused for and/xor).  Mirror of arena._canonical_key. */
static int canonical_key(i64 op, i64 a, i64 b, i64 c, i64 tl) {
    switch (op) {
    case OP_AND:
        return a < b && a != -b && a != tl && a != -tl && b != tl && b != -tl;
    case OP_XOR:
        return a < b && a != tl && b != tl;
    case OP_ITE:
        return a != tl && b != tl && b != -tl && c != tl && c != -tl && b != c
               && b != -c;
    case OP_XOR3:
        return a < b && b < c && a != tl && b != tl && c != tl;
    case OP_MAJ:
        return a < b && b < c && a != -b && a != -c && a != tl && a != -tl
               && b != tl && c != tl;
    }
    return 0;
}

/* Copy the plain records of a source journal (sjs, slen) and its clause
 * store (slits, sends, sgids) into the arena, from cursor[0] (stream
 * position), cursor[1] (clause index) and cursor[2] (source variables
 * consumed), stopping at the first other record.  TAG_V runs allocate,
 * TAG_C clauses are emitted under gidmap[group] (-1 stays hard), TAG_G
 * gates are inserted with their definition clauses — what the Python arena
 * routines do for the same records.
 *
 * Without mu every literal is copied as it is.  With mu (source variable
 * -> arena variable, 0 = unmapped) every literal is mapped, allocations
 * extend mu, and a gate whose mapped key the table already holds is
 * elided — mu takes the cached output, its definition is skipped, and the
 * hit is counted in the header.  With check, a mapped
 * gate key must also stay canonical.
 *
 * Returns 0 at a record that is not plain (or the end); 1 (no mu) at a
 * gate the table already holds; 2 at a clause whose group gidmap does not
 * know yet (< -1); 3 (no mu) at a gate whose output is not the next
 * variable; 4 when caps (lits, clauses, journal words) or the gate table
 * lack room; 5 at a literal whose variable mu leaves unmapped (cursor[3]
 * = that variable); 6 (check) at a gate whose mapped key is not
 * canonical.  Nothing of the stopping record is done. */
i64 repro_enc_copy(ENC_ARGS, const i64 *sjs, i64 slen, const i64 *slits,
                   const i64 *sends, const i64 *sgids, const i64 *gidmap,
                   i64 *mu, i64 check, const i64 *caps, i64 *cursor) {
    ENC_INIT;
    i64 *h = hdr;
    i64 p = cursor[0], c = cursor[1], bc = cursor[2];
    i64 status = 0;
    while (p < slen) {
        i64 tag = sjs[p];
        if (tag == TAG_V) {
            i64 n = sjs[p + 1];
            if (mu)
                for (i64 k = 1; k <= n; k++)
                    mu[bc + k] = h[H_NUM_VARS] + k;
            h[H_NUM_VARS] += n;
            if (h[H_JOURNAL])
                h[H_PENDING] += n;
            bc += n;
            p += 2;
        } else if (tag == TAG_C) {
            i64 g = sgids[c];
            if (g >= 0) {
                g = gidmap[g];
                if (g < -1) {
                    status = 2;
                    break;
                }
            }
            i64 start = c ? sends[c - 1] : 0, end = sends[c];
            if (mu) {
                for (i64 k = start; k < end; k++)
                    if (!map_lit(mu, slits[k])) {
                        cursor[3] = slits[k] < 0 ? -slits[k] : slits[k];
                        status = 5;
                        break;
                    }
                if (status)
                    break;
            }
            if (h[H_LITS] + end - start > caps[0] || h[H_NCLAUSES] + 1 > caps[1]
                || (h[H_JOURNAL] && h[H_JLEN] + 3 > caps[2])) {
                status = 4;
                break;
            }
            i64 nc = h[H_NCLAUSES], off = h[H_LITS];
            for (i64 k = start; k < end; k++)
                lits[off++] = mu ? map_lit(mu, slits[k]) : slits[k];
            cend[nc] = off;
            cgid[nc] = g;
            h[H_NCLAUSES] = nc + 1;
            h[H_LITS] = off;
            if (h[H_JOURNAL]) {
                flush_vars(&enc);
                js[h[H_JLEN]] = TAG_C;
                h[H_JLEN] += 1;
            }
            c += 1;
            p += 1;
        } else if (tag == TAG_G) {
            i64 op = sjs[p + 1], k1 = sjs[p + 2], k2 = sjs[p + 3];
            i64 out = sjs[p + 4], n = sjs[p + 5];
            if (mu) {
                i64 key[3], mapped[3], nkey = 2;
                if (op >= OP_ITE) {
                    key[0] = high_word(k1 + ((i64)1 << 31));
                    key[1] = k1 - key[0] * ((i64)1 << 32);
                    key[2] = k2;
                    nkey = 3;
                } else {
                    key[0] = k1;
                    key[1] = k2;
                }
                for (i64 k = 0; k < nkey; k++) {
                    mapped[k] = map_lit(mu, key[k]);
                    if (!mapped[k]) {
                        cursor[3] = key[k] < 0 ? -key[k] : key[k];
                        status = 5;
                        break;
                    }
                }
                if (status)
                    break;
                if (nkey == 3) {
                    if (check
                        && !canonical_key(op, mapped[0], mapped[1], mapped[2],
                                          h[H_TRUE])) {
                        status = 6;
                        break;
                    }
                    k1 = mapped[0] * ((i64)1 << 32) + mapped[1];
                    k2 = mapped[2];
                } else {
                    if (check
                        && !canonical_key(op, mapped[0], mapped[1], 0, h[H_TRUE])) {
                        status = 6;
                        break;
                    }
                    k1 = mapped[0];
                    k2 = mapped[1];
                }
                i64 cached = find(&enc, op, k1, k2);
                if (cached) {
                    h[H_HITS] += 1;
                    mu[out] = cached;
                    bc += 1;
                    c += n;
                    p += 6;
                    continue;
                }
            } else {
                if (find(&enc, op, k1, k2)) {
                    status = 1;
                    break;
                }
                if (out != h[H_NUM_VARS] + 1) {
                    status = 3;
                    break;
                }
            }
            i64 first = c ? sends[c - 1] : 0;
            if (h[H_LITS] + sends[c + n - 1] - first > caps[0]
                || h[H_NCLAUSES] + n > caps[1]
                || (h[H_JOURNAL] && h[H_JLEN] + 8 > caps[2])
                || (h[H_GUSED] + 1) * 2 > h[H_GMASK] + 1) {
                status = 4;
                break;
            }
            i64 var = new_var(&enc);
            if (mu)
                mu[out] = var;
            insert(&enc, op, k1, k2, var);
            observe(&enc, op, k1, k2, var, n);
            for (i64 i = c; i < c + n; i++) {
                i64 start = i ? sends[i - 1] : 0, len = sends[i] - start;
                i64 clause[8];
                for (i64 k = 0; k < len; k++)
                    clause[k] = mu ? map_lit(mu, slits[start + k]) : slits[start + k];
                put_clause(&enc, clause, (int)len);
            }
            bc += 1;
            c += n;
            p += 6;
        } else {
            break;
        }
    }
    cursor[0] = p;
    cursor[1] = c;
    cursor[2] = bc;
    return status;
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
