/* The C-accelerated solver cores of repro.sat.solver.
 *
 * Five entry points are exported, all operating on flat buffers allocated
 * and owned by the Python side:
 *
 *   repro_propagate     two-watched-literal unit propagation, used for
 *                       root-level propagation outside the search loop;
 *   repro_search        one whole solve: the trail keeping against the
 *                       previous solve's assumptions (the shared-prefix
 *                       compare, the optimistic full-trail resume and its
 *                       re-check, the backtracks before the search and after
 *                       an assumption core), and the full CDCL search
 *                       kernel: propagation, first-UIP conflict analysis with
 *                       clause learning and local minimization, backjumping,
 *                       VSIDS bump/decay/rescale, the activity order heap,
 *                       phase saving, assumption decisions, Luby restarts
 *                       and, when an assumption is falsified, the extraction
 *                       of the assumption core;
 *   repro_add_clauses   the bulk clause load: one call simplifies, stores and
 *                       attaches a whole batch of clauses (units are enqueued
 *                       and propagated at the root on the spot); under a kept
 *                       assumption trail each longer clause is placed as
 *                       Solver._place_under_trail places it, backjumping just
 *                       far enough, and the call reports the decision levels
 *                       and kept assumptions it left; clauses of an open
 *                       layer arrive already tagged with the layer's
 *                       -selector literal;
 *   repro_cancel        the backtrack outside the search loop: unassign the
 *                       trail above a bound, saving phases and reinserting
 *                       the variables into the order heap;
 *   repro_sweep         retract a batch of clauses in one pass: mark them
 *                       (and, on a layer pop, every learnt clause naming the
 *                       dead selector literal) dead, unlink them from every
 *                       affected watcher list and clear root reasons naming
 *                       them (layer pops and learnt-database reduction).
 *
 * Each implements exactly the same algorithm, over exactly the same data
 * layout, as its pure-Python mirror (Solver._propagate_python,
 * Solver._solve_python around Solver._search_python with
 * Solver._analyze_final, the per-clause Solver.add_clause loop with
 * Solver._place_under_trail, the Python loops of Solver._cancel_until and
 * Solver._sweep).  Any behavioural divergence between the two is a
 * bug; the differential suites (tests/test_propagation_backends.py,
 * tests/test_search_backends.py, tests/test_comss_iteration.py) compare
 * models, conflicts, cores, statistics and the solver state of python/c
 * solver pairs.
 *
 * Every entry point takes the solver's *buffer table* first: an array of
 * B_SLOTS pointers (see the B_* slots below) that the Python side keeps
 * current and refreshes only when a buffer is grown or replaced, so a call
 * marshals one address instead of one per buffer.
 *
 * Data layout (all "long" words unless noted):
 *
 *   arena    clause arena.  A clause at offset `ref` occupies
 *              arena[ref]     header: size << 2 | dead << 1 | learnt
 *              arena[ref+1]   next watch pointer for watch slot 0
 *              arena[ref+2]   next watch pointer for watch slot 1
 *              arena[ref+3]   blocker literal for watch slot 0
 *              arena[ref+4]   blocker literal for watch slot 1
 *              arena[ref+5..] the literals (internal 2*var+sign encoding)
 *            A watch pointer packs (ref << 1) | slot; 0 is the list end
 *            (offset 0 of the arena is a sentinel, so no clause has ref 0).
 *            The arena's *logical* length may trail its physical capacity:
 *            the kernel appends learnt clauses into the preallocated slack
 *            and exits with EXIT_CAPACITY before it could overflow.
 *   heads    per-literal heads of the intrusive watcher lists.
 *   assigns  per-variable value: -1 unassigned, 0 false, 1 true (signed char).
 *   levels   per-variable decision level.
 *   reasons  per-variable reason clause ref (0 = decision / no reason).
 *   trail    the assignment trail (fixed capacity: one slot per variable).
 *   trail_lim   per-decision-level trail bounds (capacity provisioned by the
 *            driver: one slot per variable plus one per assumption).
 *   polarity per-variable saved phase (signed char 0/1).
 *   seen     per-variable marker (signed char), all zero between calls:
 *            conflict analysis, the bulk load and the sweep use it.
 *   activity per-variable VSIDS activity (double).
 *   heap / heap_pos   the activity order heap and its position index
 *            (heap_pos[var] is -1 when var is not in the heap).
 *   assumptions   the solve call's assumption literals, written by the
 *            driver as DIMACS literals and converted to the internal
 *            encoding in place when the solve starts.
 *   scratch  out-buffer receiving the refs of newly learnt clauses; the
 *            driver drains it into Solver._learnts after every call.
 *   bumplog  out-buffer recording clause-activity events in execution
 *            order: a positive entry is a learnt clause ref that was
 *            bumped, a 0 entry is the per-conflict decay marker.  Clause
 *            activities only influence Python-side database reduction, so
 *            the driver replays the log through Solver._clause_bump for a
 *            bit-identical activity table without the kernel needing the
 *            activity dict.
 *   tmp      analysis scratch: the first num_vars+2 words hold the raw
 *            learnt clause, the second num_vars+2 words the minimized one.
 *            On EXIT_ASSUMPTION the first words hold the core's decision
 *            literals instead (their count in state[30]).
 *   kept     the assumption literals (internal encoding) whose decision
 *            levels the trail keeps from the previous solve; their count
 *            is state[31] of repro_search and state[9] of
 *            repro_add_clauses.  Both rewrite it; between calls the driver
 *            only truncates it.
 *   state    the 36-word bookkeeping block of repro_search (see _S_* in
 *            solver.py); the other entry points take the short blocks
 *            documented at their definitions.
 *   fp       [var_inc, var_decay] (doubles, var_inc written back).
 *
 * repro_search returns (and stores in state) one of the EXIT_* codes;
 * repro_add_clauses returns one of the ADD_* codes.
 */

#define HDR 5
#define FLAG_LEARNT 1
#define FLAG_DEAD 2

/* Slots of the buffer table (mirrored by _B_* in solver.py). */
enum {
    B_ARENA,
    B_HEADS,
    B_ASSIGNS,
    B_LEVELS,
    B_REASONS,
    B_TRAIL,
    B_TRAIL_LIM,
    B_POLARITY,
    B_SEEN,
    B_ACTIVITY,
    B_HEAP,
    B_HEAP_POS,
    B_ASSUMPTIONS,
    B_SCRATCH,
    B_BUMPLOG,
    B_TMP,
    B_KEPT,
    B_SLOTS
};

#define EXIT_SAT 1
#define EXIT_UNSAT 2
#define EXIT_ASSUMPTION 3
#define EXIT_REDUCE 4
#define EXIT_CAPACITY 5
#define EXIT_CONFLICT_BUDGET 6

/* ------------------------------------------------------------ propagation */

static long propagate(long *arena, long *heads, signed char *assigns,
                      long *levels, long *reasons, long *trail,
                      long *qhead_io, long *trail_len_io, long current_level,
                      long *count_io)
{
    long qhead = *qhead_io;
    long trail_len = *trail_len_io;
    long propagated = 0;
    long conflict = 0;

    while (qhead < trail_len) {
        long p = trail[qhead++];
        propagated++;
        long false_lit = p ^ 1;
        long *prev = &heads[false_lit];
        long ptr = *prev;
        while (ptr) {
            long ref = ptr >> 1;
            long slot = ptr & 1;
            long next = arena[ref + 1 + slot];
            /* Blocker literal: when the cached literal is already true the
             * clause is satisfied and needs no inspection at all. */
            long blocker = arena[ref + 3 + slot];
            signed char bval = assigns[blocker >> 1];
            if (bval >= 0 && (bval ^ (blocker & 1)) == 1) {
                prev = &arena[ref + 1 + slot];
                ptr = next;
                continue;
            }
            long base = ref + HDR;
            long other = arena[base + (1 - slot)];
            if (other != blocker) {
                signed char oval = assigns[other >> 1];
                if (oval >= 0 && (oval ^ (other & 1)) == 1) {
                    arena[ref + 3 + slot] = other; /* refresh the blocker */
                    prev = &arena[ref + 1 + slot];
                    ptr = next;
                    continue;
                }
            }
            long size = arena[ref] >> 2;
            int moved = 0;
            for (long k = 2; k < size; k++) {
                long lit = arena[base + k];
                signed char v = assigns[lit >> 1];
                if (v < 0 || (v ^ (lit & 1)) == 1) {
                    /* Move this watch slot to `lit`. */
                    arena[base + slot] = lit;
                    arena[base + k] = false_lit;
                    arena[ref + 3 + slot] = other;
                    arena[ref + 1 + slot] = heads[lit];
                    heads[lit] = ptr;
                    *prev = next;
                    moved = 1;
                    break;
                }
            }
            if (moved) {
                ptr = next;
                continue;
            }
            /* No replacement: the clause is unit on `other` or conflicting. */
            {
                signed char oval = assigns[other >> 1];
                if (oval >= 0 && (oval ^ (other & 1)) == 0) {
                    qhead = trail_len; /* consume the queue */
                    conflict = ref;
                    goto done;
                }
            }
            {
                long var = other >> 1;
                assigns[var] = (signed char) ((other & 1) ^ 1);
                levels[var] = current_level;
                reasons[var] = ref;
                trail[trail_len++] = other;
            }
            prev = &arena[ref + 1 + slot];
            ptr = next;
        }
    }
done:
    *qhead_io = qhead;
    *trail_len_io = trail_len;
    *count_io += propagated;
    return conflict;
}

/* state: [0] qhead, [1] trail length (both in/out), [2] current decision
 * level, [3] propagations (accumulated).  Returns a conflicting clause ref,
 * or 0. */
long repro_propagate(void *const *buf, long *state)
{
    long qhead = state[0];
    long trail_len = state[1];
    long conflict = propagate(buf[B_ARENA], buf[B_HEADS], buf[B_ASSIGNS],
                              buf[B_LEVELS], buf[B_REASONS], buf[B_TRAIL],
                              &qhead, &trail_len, state[2], &state[3]);
    state[0] = qhead;
    state[1] = trail_len;
    return conflict;
}

/* ------------------------------------------------------------- order heap */

static void heap_sift_up(long *heap, long *pos, double *act, long i)
{
    long var = heap[i];
    double a = act[var];
    while (i > 0) {
        long parent = (i - 1) >> 1;
        long pvar = heap[parent];
        if (act[pvar] >= a)
            break;
        heap[i] = pvar;
        pos[pvar] = i;
        i = parent;
    }
    heap[i] = var;
    pos[var] = i;
}

static void heap_sift_down(long *heap, long *pos, double *act, long size, long i)
{
    long var = heap[i];
    double a = act[var];
    for (;;) {
        long left = 2 * i + 1;
        if (left >= size)
            break;
        long right = left + 1;
        long child = left;
        if (right < size && act[heap[right]] > act[heap[left]])
            child = right;
        long cvar = heap[child];
        if (a >= act[cvar])
            break;
        heap[i] = cvar;
        pos[cvar] = i;
        i = child;
    }
    heap[i] = var;
    pos[var] = i;
}

static void heap_insert(long *heap, long *pos, double *act, long *size, long var)
{
    if (pos[var] >= 0)
        return;
    heap[*size] = var;
    pos[var] = *size;
    heap_sift_up(heap, pos, act, *size);
    (*size)++;
}

static long heap_pop(long *heap, long *pos, double *act, long *size)
{
    long top = heap[0];
    (*size)--;
    long last = heap[*size];
    pos[top] = -1;
    if (*size) {
        heap[0] = last;
        pos[last] = 0;
        heap_sift_down(heap, pos, act, *size, 0);
    }
    return top;
}

static void var_bump(double *act, double *fp, long num_vars,
                     long *heap, long *pos, long *heap_size, long var)
{
    act[var] += fp[0];
    if (act[var] > 1e100) {
        for (long v = 1; v <= num_vars; v++)
            act[v] *= 1e-100;
        fp[0] *= 1e-100;
        for (long i = *heap_size / 2 - 1; i >= 0; i--)
            heap_sift_down(heap, pos, act, *heap_size, i);
    }
    if (pos[var] >= 0)
        heap_sift_up(heap, pos, act, pos[var]);
}

/* --------------------------------------------------------- search helpers */

static void attach(long *arena, long *heads, long ref)
{
    long base = ref + HDR;
    long lit0 = arena[base];
    long lit1 = arena[base + 1];
    arena[ref + 3] = lit1;
    arena[ref + 4] = lit0;
    arena[ref + 1] = heads[lit0];
    heads[lit0] = ref << 1;
    arena[ref + 2] = heads[lit1];
    heads[lit1] = (ref << 1) | 1;
}

static void enqueue(signed char *assigns, long *levels, long *reasons,
                    long *trail, long *trail_len, long level_count,
                    long ilit, long reason_ref)
{
    long var = ilit >> 1;
    if (assigns[var] >= 0)
        return; /* mirror Solver._enqueue: already assigned, nothing to do */
    assigns[var] = (signed char) ((ilit & 1) ^ 1);
    levels[var] = level_count;
    reasons[var] = reason_ref;
    trail[(*trail_len)++] = ilit;
}

/* Unassign trail[bound..trail_len) from the top down: save each literal's
 * phase, clear its reason and put its variable back into the order heap. */
static void unassign(long *trail, long bound, long trail_len,
                     signed char *assigns, signed char *polarity, long *reasons,
                     long *heap, long *pos, double *act, long *heap_size)
{
    for (long index = trail_len - 1; index >= bound; index--) {
        long ilit = trail[index];
        long var = ilit >> 1;
        assigns[var] = -1;
        polarity[var] = (signed char) (((ilit & 1) == 0) ? 1 : 0);
        reasons[var] = 0;
        heap_insert(heap, pos, act, heap_size, var);
    }
}

static void cancel_until(long *trail, long *trail_lim, signed char *assigns,
                         signed char *polarity, long *reasons,
                         long *heap, long *pos, double *act, long *heap_size,
                         long *trail_len, long *qhead, long *level_count,
                         long *search_floor, long level)
{
    if (*level_count <= level)
        return;
    if (level < *search_floor)
        *search_floor = level;
    long bound = trail_lim[level];
    unassign(trail, bound, *trail_len, assigns, polarity, reasons,
             heap, pos, act, heap_size);
    *trail_len = bound;
    *level_count = level;
    *qhead = bound;
}

/* The backtrack of Solver._cancel_until outside the search loop: unassign
 * trail[bound..trail_len) exactly as the kernel's own backjumps do.  The
 * driver truncates its trail bookkeeping; returns the new heap size. */
long repro_cancel(void *const *buf, long trail_len, long bound, long heap_size)
{
    unassign(buf[B_TRAIL], bound, trail_len, buf[B_ASSIGNS], buf[B_POLARITY],
             buf[B_REASONS], buf[B_HEAP], buf[B_HEAP_POS], buf[B_ACTIVITY],
             &heap_size);
    return heap_size;
}

static long luby(long index)
{
    /* The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ... (0-based index). */
    long size = 1, sequence = 0;
    while (size < index + 1) {
        sequence++;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        sequence--;
        index %= size;
    }
    return 1L << sequence;
}

/* First-UIP conflict analysis with seen-buffer local minimization.  The raw
 * learnt clause is assembled in tmp[0..], the minimized clause (asserting
 * literal first, deepest remaining literal second) in tmp[num_vars+2..].
 * Returns the backjump level and stores the minimized length in *out_len. */
static long analyze(long *arena, long *levels, long *reasons, long *trail,
                    signed char *seen, double *act, double *fp, long num_vars,
                    long *heap, long *pos, long *heap_size,
                    long trail_len, long level_count, long conflict,
                    long *tmp, long *bumplog, long *log_len,
                    long *out_len, long *minimized_count)
{
    long *learnt = tmp;
    long *minimized = tmp + num_vars + 2;
    long llen = 1;
    long counter = 0;
    long p = -1;
    long index = trail_len - 1;
    long clause = conflict;

    for (;;) {
        if (arena[clause] & FLAG_LEARNT)
            bumplog[(*log_len)++] = clause;
        long base = clause + HDR;
        long size = arena[clause] >> 2;
        for (long k = 0; k < size; k++) {
            long q = arena[base + k];
            if (p != -1 && (q >> 1) == (p >> 1))
                continue;
            long var = q >> 1;
            if (!seen[var] && levels[var] > 0) {
                seen[var] = 1;
                var_bump(act, fp, num_vars, heap, pos, heap_size, var);
                if (levels[var] >= level_count)
                    counter++;
                else
                    learnt[llen++] = q;
            }
        }
        while (!seen[trail[index] >> 1])
            index--;
        p = trail[index];
        clause = reasons[p >> 1];
        seen[p >> 1] = 0;
        counter--;
        index--;
        if (counter == 0)
            break;
    }
    learnt[0] = p ^ 1;

    /* Local minimization over the shared seen buffer: seen[var] == 1 holds
     * exactly for the vars of learnt[1..] here (the UIP was cleared when
     * dequeued and cannot occur in a lower-level literal's reason).  A
     * literal is redundant when every other literal of its reason clause
     * is already in the learnt clause or fixed at level 0. */
    long mlen = 1;
    minimized[0] = learnt[0];
    for (long i = 1; i < llen; i++) {
        long q = learnt[i];
        long reason = reasons[q >> 1];
        if (!reason) {
            minimized[mlen++] = q;
            continue;
        }
        int redundant = 1;
        long rbase = reason + HDR;
        long rsize = arena[reason] >> 2;
        for (long k = 0; k < rsize; k++) {
            long var = arena[rbase + k] >> 1;
            if (var != (q >> 1) && !seen[var] && levels[var] > 0) {
                redundant = 0;
                break;
            }
        }
        if (redundant)
            continue;
        minimized[mlen++] = q;
    }
    for (long i = 1; i < llen; i++)
        seen[learnt[i] >> 1] = 0;
    *minimized_count += llen - mlen;

    long backjump = 0;
    if (mlen > 1) {
        long max_index = 1;
        long max_level = levels[minimized[1] >> 1];
        for (long i = 2; i < mlen; i++) {
            long lvl = levels[minimized[i] >> 1];
            if (lvl > max_level) {
                max_level = lvl;
                max_index = i;
            }
        }
        long swap = minimized[1];
        minimized[1] = minimized[max_index];
        minimized[max_index] = swap;
        backjump = max_level;
    }
    *out_len = mlen;
    return backjump;
}

/* Assumption core extraction (mirror of Solver._analyze_final): walk the
 * trail above the root from the top, following the reasons of every marked
 * variable back to the decisions that implied the falsified assumption
 * `failed`.  The decision literals land in core[] in descending trail
 * order; returns their count (0 at decision level 0). */
static long analyze_final(long *arena, long *levels, long *reasons,
                          long *trail, long *trail_lim, signed char *seen,
                          long trail_len, long level_count, long failed,
                          long *core)
{
    long count = 0;
    if (level_count == 0)
        return 0;
    seen[failed >> 1] = 1;
    for (long index = trail_len - 1; index >= trail_lim[0]; index--) {
        long ilit = trail[index];
        long var = ilit >> 1;
        if (!seen[var])
            continue;
        long reason = reasons[var];
        if (!reason) {
            core[count++] = ilit;
        } else {
            long base = reason + HDR;
            long size = arena[reason] >> 2;
            for (long k = 0; k < size; k++) {
                long qvar = arena[base + k] >> 1;
                if (qvar != var && levels[qvar] > 0)
                    seen[qvar] = 1;
            }
        }
        seen[var] = 0;
    }
    seen[failed >> 1] = 0;
    return count;
}

/* ------------------------------------------------------------ the kernel */

/* Phases of one solve, kept in state[33] across the kernel's calls. */
#define PHASE_START 0   /* the driver's value: run the trail-keeping prologue */
#define PHASE_PLAIN 1   /* searching from the shared assumption prefix */
#define PHASE_RESUMED 2 /* searching on the whole kept trail (optimistic) */

static int lit_true(const signed char *assigns, long ilit)
{
    signed char value = assigns[ilit >> 1];
    return value >= 0 && (value ^ (ilit & 1)) == 1;
}

/* One solve under the assumption list, with the trail keeping of the
 * previous solve's assumption decision levels (mirror of Solver._solve_python
 * around Solver._search_python).
 *
 * On PHASE_START the driver has written the assumptions as DIMACS literals;
 * the prologue converts them in place, takes the longest prefix shared with
 * the kept assumptions (state[31] literals in buf[B_KEPT]) and either keeps
 * the whole trail (identical lists, or an optimistic resume when every
 * changed slot already holds) or backtracks to the shared prefix.  An
 * optimistic answer that is not SAT, or a model that dropped an assumption,
 * is re-derived from the shared prefix inside the same solve, with fresh
 * restart and learnt-database budgets.  At the answer the epilogue
 * backtracks an UNSAT answer to the assumption levels and writes the
 * assumption literals left on the trail back to buf[B_KEPT] and state[31].
 *
 * The driver zeroes the scratch and log lengths once per call; the kernel
 * zeroes the per-solve counters (state[3] and state[19..25]) in the
 * prologue and accumulates into them across the calls of one solve.  The
 * other exits (EXIT_REDUCE, EXIT_CAPACITY) return mid-solve; the next call
 * resumes in the phase state[33] holds. */
long repro_search(void *const *buf, long *state, double *fp)
{
    long *arena = buf[B_ARENA];
    long *heads = buf[B_HEADS];
    signed char *assigns = buf[B_ASSIGNS];
    long *levels = buf[B_LEVELS];
    long *reasons = buf[B_REASONS];
    long *trail = buf[B_TRAIL];
    long *trail_lim = buf[B_TRAIL_LIM];
    signed char *polarity = buf[B_POLARITY];
    signed char *seen = buf[B_SEEN];
    double *activity = buf[B_ACTIVITY];
    long *heap = buf[B_HEAP];
    long *heap_pos = buf[B_HEAP_POS];
    long *assumptions = buf[B_ASSUMPTIONS];
    long *scratch = buf[B_SCRATCH];
    long *bumplog = buf[B_BUMPLOG];
    long *tmp = buf[B_TMP];
    long *kept = buf[B_KEPT];
    long qhead = state[0];
    long trail_len = state[1];
    long level_count = state[2];
    long arena_len = state[4];
    long arena_cap = state[5];
    long heap_size = state[6];
    long num_vars = state[7];
    long n_assumptions = state[8];
    long learnt_count = state[9];
    long max_learnts = state[10];
    long restart_index = state[11];
    long conflict_budget = state[12];
    long conflicts_since_restart = state[13];
    long total_conflicts = state[14];
    long max_conflicts = state[15];
    long search_floor = state[16];
    long scratch_len = state[26];
    long scratch_cap = state[27];
    long log_len = state[28];
    long log_cap = state[29];
    long keep = state[32];
    long phase = state[33];
    long exit_reason = 0;
    long exit_payload = 0;

    if (phase == PHASE_START) {
        long kept_len = state[31];
        long limit = kept_len < n_assumptions ? kept_len : n_assumptions;
        for (long i = 0; i < n_assumptions; i++) {
            long lit = assumptions[i];
            assumptions[i] = lit > 0 ? 2 * lit : 1 - 2 * lit;
        }
        /* Reuse the decision levels of the longest assumption prefix shared
         * with the previous solve: their propagations are still on the
         * trail. */
        keep = 0;
        while (keep < limit && kept[keep] == assumptions[keep])
            keep++;
        /* Optimistic full-trail resume: the list has the same layout and
         * every changed assumption already holds on the kept trail. */
        phase = PHASE_PLAIN;
        if (keep < n_assumptions && kept_len == n_assumptions) {
            phase = PHASE_RESUMED;
            for (long i = keep; i < n_assumptions; i++) {
                if (kept[i] != assumptions[i] && !lit_true(assigns, assumptions[i])) {
                    phase = PHASE_PLAIN;
                    break;
                }
            }
        }
        /* Identical lists resume on the full trail as well. */
        if (phase == PHASE_PLAIN && !(keep == n_assumptions && kept_len == keep))
            cancel_until(trail, trail_lim, assigns, polarity, reasons,
                         heap, heap_pos, activity, &heap_size,
                         &trail_len, &qhead, &level_count, &search_floor, keep);
        search_floor = level_count;
        max_learnts = state[35];
        restart_index = 0;
        conflict_budget = 100 * luby(0);
        conflicts_since_restart = 0;
        total_conflicts = 0;
        state[3] = 0;
        for (long i = 19; i <= 25; i++)
            state[i] = 0;
        state[34] = 0;
    }

    for (;;) {
        /* One conflict analysis may allocate a learnt clause of up to
         * num_vars literals, log one bump per resolved clause plus the
         * learnt ref and the decay sentinel, and push one scratch ref:
         * leave for Python before any of that could overflow. */
        if (arena_cap - arena_len < num_vars + HDR + 2 ||
            scratch_len >= scratch_cap ||
            log_cap - log_len < num_vars + 3) {
            exit_reason = EXIT_CAPACITY;
            goto out;
        }

        long conflict = propagate(arena, heads, assigns, levels, reasons,
                                  trail, &qhead, &trail_len, level_count,
                                  &state[3]);
        if (conflict) {
            state[19]++; /* conflicts */
            conflicts_since_restart++;
            total_conflicts++;
            if (max_conflicts >= 0 && total_conflicts > max_conflicts) {
                cancel_until(trail, trail_lim, assigns, polarity, reasons,
                             heap, heap_pos, activity, &heap_size,
                             &trail_len, &qhead, &level_count, &search_floor, 0);
                state[31] = 0;
                exit_reason = EXIT_CONFLICT_BUDGET;
                goto out;
            }
            if (level_count == 0) {
                exit_reason = EXIT_UNSAT;
                goto answer;
            }
            long mlen = 0;
            long backjump = analyze(arena, levels, reasons, trail, seen,
                                    activity, fp, num_vars, heap, heap_pos,
                                    &heap_size, trail_len, level_count,
                                    conflict, tmp, bumplog, &log_len,
                                    &mlen, &state[24]);
            state[23]++; /* analyses */
            state[25] += level_count - backjump; /* backjumped levels */
            cancel_until(trail, trail_lim, assigns, polarity, reasons,
                         heap, heap_pos, activity, &heap_size,
                         &trail_len, &qhead, &level_count, &search_floor,
                         backjump);
            long *clause = tmp + num_vars + 2;
            if (mlen == 1) {
                enqueue(assigns, levels, reasons, trail, &trail_len,
                        level_count, clause[0], 0);
            } else {
                long ref = arena_len;
                arena[ref] = (mlen << 2) | FLAG_LEARNT;
                arena[ref + 1] = 0;
                arena[ref + 2] = 0;
                arena[ref + 3] = 0;
                arena[ref + 4] = 0;
                for (long i = 0; i < mlen; i++)
                    arena[ref + HDR + i] = clause[i];
                arena_len += HDR + mlen;
                attach(arena, heads, ref);
                scratch[scratch_len++] = ref;
                bumplog[log_len++] = ref;
                state[22]++; /* learnt clauses */
                learnt_count++;
                enqueue(assigns, levels, reasons, trail, &trail_len,
                        level_count, clause[0], ref);
            }
            bumplog[log_len++] = 0; /* per-conflict clause-decay marker */
            fp[0] /= fp[1];         /* VSIDS decay: var_inc /= var_decay */
            continue;
        }

        if (conflicts_since_restart >= conflict_budget) {
            state[21]++; /* restarts */
            restart_index++;
            conflict_budget = 100 * luby(restart_index);
            conflicts_since_restart = 0;
            /* Assumption-aware restart: keep the established assumption
             * levels and their propagations, undoing only the free
             * decisions above them. */
            cancel_until(trail, trail_lim, assigns, polarity, reasons,
                         heap, heap_pos, activity, &heap_size,
                         &trail_len, &qhead, &level_count, &search_floor,
                         level_count < n_assumptions ? level_count
                                                     : n_assumptions);
            continue;
        }

        if (learnt_count >= max_learnts + trail_len) {
            exit_reason = EXIT_REDUCE;
            goto out;
        }

        long next_lit = -1;
        while (level_count < n_assumptions) {
            long assumption = assumptions[level_count];
            signed char av = assigns[assumption >> 1];
            long value = (av < 0) ? -1 : (av ^ (assumption & 1));
            if (value == 1) {
                trail_lim[level_count++] = trail_len;
            } else if (value == 0) {
                exit_reason = EXIT_ASSUMPTION;
                exit_payload = assumption;
                state[30] = analyze_final(arena, levels, reasons, trail,
                                          trail_lim, seen, trail_len,
                                          level_count, assumption, tmp);
                goto answer;
            } else {
                next_lit = assumption;
                break;
            }
        }
        if (next_lit < 0) {
            while (heap_size > 0) {
                long var = heap_pop(heap, heap_pos, activity, &heap_size);
                if (assigns[var] < 0) {
                    state[20]++; /* decisions */
                    next_lit = 2 * var + (polarity[var] ? 0 : 1);
                    break;
                }
            }
            if (next_lit < 0) {
                exit_reason = EXIT_SAT;
                goto answer;
            }
        }
        trail_lim[level_count++] = trail_len;
        enqueue(assigns, levels, reasons, trail, &trail_len, level_count,
                next_lit, 0);
        continue;

    answer:
        if (phase == PHASE_RESUMED) {
            /* The optimistic answer may rest on stale decisions kept from
             * the previous assumption list (not SAT) or on a model that
             * dropped a changed assumption: redo from the shared prefix. */
            int redo = exit_reason != EXIT_SAT;
            for (long i = 0; !redo && i < n_assumptions; i++)
                redo = !lit_true(assigns, assumptions[i]);
            if (redo) {
                if (exit_reason == EXIT_UNSAT)
                    state[34] = 1;
                phase = PHASE_PLAIN;
                cancel_until(trail, trail_lim, assigns, polarity, reasons,
                             heap, heap_pos, activity, &heap_size,
                             &trail_len, &qhead, &level_count, &search_floor,
                             keep);
                search_floor = level_count;
                max_learnts = state[35];
                restart_index = 0;
                conflict_budget = 100 * luby(0);
                conflicts_since_restart = 0;
                total_conflicts = 0;
                exit_reason = 0;
                exit_payload = 0;
                continue;
            }
        }
        break;
    }

    /* The answer: an UNSAT answer keeps at most the assumption levels, and
     * the assumption literals left on the trail become the kept prefix.
     * After an optimistic resume the levels below the search's lowest
     * backtrack point still hold the previous list's decisions. */
    {
        long level = level_count;
        if (exit_reason != EXIT_SAT) {
            if (level > n_assumptions)
                level = n_assumptions;
            cancel_until(trail, trail_lim, assigns, polarity, reasons,
                         heap, heap_pos, activity, &heap_size,
                         &trail_len, &qhead, &level_count, &search_floor,
                         level);
        }
        long kept_len = level < n_assumptions ? level : n_assumptions;
        long from = 0;
        if (phase == PHASE_RESUMED)
            from = search_floor < n_assumptions ? search_floor : n_assumptions;
        for (long i = from; i < kept_len; i++)
            kept[i] = assumptions[i];
        state[31] = kept_len;
    }
out:
    state[0] = qhead;
    state[1] = trail_len;
    state[2] = level_count;
    state[4] = arena_len;
    state[6] = heap_size;
    state[9] = learnt_count;
    state[10] = max_learnts;
    state[11] = restart_index;
    state[12] = conflict_budget;
    state[13] = conflicts_since_restart;
    state[14] = total_conflicts;
    state[16] = search_floor;
    state[17] = exit_reason;
    state[18] = exit_payload;
    state[26] = scratch_len;
    state[28] = log_len;
    state[32] = keep;
    state[33] = phase;
    return exit_reason;
}

/* -------------------------------------------------------------- bulk load */

#define ADD_OK 0
#define ADD_UNSAT 1
#define ADD_BAD_LITERAL 2
#define ADD_GROW 3

/* Place a stored clause of `size` literals at arena[ref] under the kept
 * trail (mirror of Solver._place_under_trail): backjump just far enough that
 * the clause is not conflicting.  With two non-false literals they become
 * its watches; a clause unit after the backjump has its literal enqueued
 * (the next propagation processes it) and watches it and a deepest false
 * literal.  Each backjump truncates the kept assumption prefix *kept_len.
 * Returns 0 when only a root restart can place the clause. */
static int place_under_trail(long *arena, long ref, long size,
                             signed char *assigns, long *levels, long *reasons,
                             long *trail, long *trail_lim, signed char *polarity,
                             long *heap, long *pos, double *act, long *heap_size,
                             long *trail_len, long *qhead, long *level_count,
                             long *kept_len)
{
    long base = ref + HDR;
    long floor = 0; /* cancel_until's search floor: unused outside a solve */
    for (;;) {
        long first = -1, second = -1, max_level = 0;
        for (long k = 0; k < size; k++) {
            long ilit = arena[base + k];
            if (assigns[ilit >> 1] == (ilit & 1)) { /* false */
                if (levels[ilit >> 1] > max_level)
                    max_level = levels[ilit >> 1];
            } else if (first < 0) {
                first = k;
            } else {
                second = k;
                break;
            }
        }
        if (second >= 0) {
            long swap = arena[base];
            arena[base] = arena[base + first];
            arena[base + first] = swap;
            swap = arena[base + 1];
            arena[base + 1] = arena[base + second];
            arena[base + second] = swap;
            return 1;
        }
        if (max_level == 0)
            return 0;
        long level = first >= 0 ? max_level : max_level - 1;
        if (level < *kept_len)
            *kept_len = level;
        cancel_until(trail, trail_lim, assigns, polarity, reasons, heap, pos,
                     act, heap_size, trail_len, qhead, level_count, &floor,
                     level);
        if (first < 0)
            continue; /* conflicting: the deepest false literals are free now */
        long unit = arena[base + first];
        if (assigns[unit >> 1] < 0) {
            enqueue(assigns, levels, reasons, trail, trail_len, *level_count,
                    unit, ref);
            if (*qhead > *trail_len - 1)
                *qhead = *trail_len - 1;
        }
        arena[base + first] = arena[base];
        arena[base] = unit;
        for (long k = 1; k < size; k++) {
            long ilit = arena[base + k];
            if (assigns[ilit >> 1] == (ilit & 1) && levels[ilit >> 1] == max_level) {
                arena[base + k] = arena[base + 1];
                arena[base + 1] = ilit;
                break;
            }
        }
        return 1;
    }
}

/* Bulk clause load: the mirror of Solver.add_clause applied to every clause
 * of a batch in order.  Under an open layer the driver has already appended
 * -selector to every clause, so a layered clause is loaded like any other;
 * the driver registers the returned refs on the layer.
 *
 *   lits     the batch's DIMACS literals, clause after clause;
 *   ends     ends[i] is the offset one past clause i in lits;
 *   refs     out-buffer receiving the refs of the attached clauses, in
 *            order (the driver appends them to Solver._clauses);
 *   seen     per-variable marker while a clause is simplified (1: the
 *            clause holds the positive literal, 2: the negative one);
 *            all-zero again on return;
 *   state    [0] qhead, [1] trail length, [2] arena logical length (all
 *            in/out), [3] propagations (accumulated), [4] clause count
 *            (in), [5] refs written (out), [6] allocated variables (in) /
 *            highest variable of the batch (out, with ADD_GROW), [7]
 *            decision levels, [8] order-heap size and [9] kept assumption
 *            count (all in/out).
 *
 * Literals false at the root are dropped and clauses true at the root
 * skipped; under a kept assumption trail (state[7] > 0) a clause of two or
 * more literals is placed by place_under_trail, which may backjump, while a
 * unit or empty clause gives the trail up first (the backtrack to the root
 * also empties the kept prefix), exactly as Solver.add_clause does.
 *
 * A batch naming a variable beyond state[6] returns ADD_GROW before
 * touching anything; the driver allocates the variables and calls again.
 * The arena must have room for every clause of the batch at its logical
 * end.  A literal 0 stops the load with ADD_BAD_LITERAL; an empty clause or
 * a root conflict stops it with ADD_UNSAT (later clauses would be no-ops on
 * an unsatisfiable solver).
 */
long repro_add_clauses(void *const *buf, const long *lits, const long *ends,
                       long *refs, long *state)
{
    long *arena = buf[B_ARENA];
    long *heads = buf[B_HEADS];
    signed char *assigns = buf[B_ASSIGNS];
    long *levels = buf[B_LEVELS];
    long *reasons = buf[B_REASONS];
    long *trail = buf[B_TRAIL];
    long *trail_lim = buf[B_TRAIL_LIM];
    signed char *polarity = buf[B_POLARITY];
    signed char *seen = buf[B_SEEN];
    double *activity = buf[B_ACTIVITY];
    long *heap = buf[B_HEAP];
    long *heap_pos = buf[B_HEAP_POS];
    long qhead = state[0];
    long trail_len = state[1];
    long arena_len = state[2];
    long count = state[4];
    long level_count = state[7];
    long heap_size = state[8];
    long kept_len = state[9];
    long floor = 0; /* cancel_until's search floor: unused outside a solve */
    long nrefs = 0;
    long status = ADD_OK;
    long start = 0;
    long max_var = 0;

    for (long k = 0; count > 0 && k < ends[count - 1]; k++) {
        long var = lits[k] > 0 ? lits[k] : -lits[k];
        if (var > max_var)
            max_var = var;
    }
    if (max_var > state[6]) {
        state[6] = max_var;
        return ADD_GROW;
    }
    for (long i = 0; i < count && status == ADD_OK; i++) {
        long end = ends[i];
        long base = arena_len + HDR;
        long size = 0;
        int skip = 0;
        /* Simplify into the arena slack: the kept literals land where the
         * clause body will live. */
        for (long k = start; k < end; k++) {
            long lit = lits[k];
            if (lit == 0) {
                status = ADD_BAD_LITERAL;
                break;
            }
            long var = lit > 0 ? lit : -lit;
            long ilit = 2 * var + (lit < 0);
            signed char mark = (signed char) (1 + (ilit & 1));
            if (seen[var] == 3 - mark) {
                skip = 1; /* tautology */
                break;
            }
            if (seen[var] == mark)
                continue; /* duplicate literal */
            signed char value = assigns[var];
            if (value >= 0 && levels[var] == 0) {
                if ((value ^ (ilit & 1)) == 1) {
                    skip = 1; /* already satisfied at the root */
                    break;
                }
                continue; /* false at the root: drop the literal */
            }
            seen[var] = mark;
            arena[base + size++] = ilit;
        }
        for (long k = 0; k < size; k++)
            seen[arena[base + k] >> 1] = 0;
        start = end;
        if (status != ADD_OK || skip)
            continue;
        if (size < 2) {
            /* Units are root facts: give the kept trail up. */
            kept_len = 0;
            cancel_until(trail, trail_lim, assigns, polarity, reasons,
                         heap, heap_pos, activity, &heap_size,
                         &trail_len, &qhead, &level_count, &floor, 0);
        }
        if (size == 0) {
            status = ADD_UNSAT;
        } else if (size == 1) {
            enqueue(assigns, levels, reasons, trail, &trail_len, 0,
                    arena[base], 0);
            if (propagate(arena, heads, assigns, levels, reasons, trail,
                          &qhead, &trail_len, 0, &state[3]))
                status = ADD_UNSAT;
        } else {
            long ref = arena_len;
            arena[ref] = size << 2;
            arena_len = base + size;
            if (level_count > 0 &&
                !place_under_trail(arena, ref, size, assigns, levels, reasons,
                                   trail, trail_lim, polarity, heap, heap_pos,
                                   activity, &heap_size, &trail_len, &qhead,
                                   &level_count, &kept_len)) {
                /* No placement kept the trail: restart from the root, where
                 * the clause attaches like any other. */
                kept_len = 0;
                cancel_until(trail, trail_lim, assigns, polarity, reasons,
                             heap, heap_pos, activity, &heap_size,
                             &trail_len, &qhead, &level_count, &floor, 0);
            }
            attach(arena, heads, ref);
            refs[nrefs++] = ref;
        }
    }
    state[0] = qhead;
    state[1] = trail_len;
    state[2] = arena_len;
    state[5] = nrefs;
    state[7] = level_count;
    state[8] = heap_size;
    state[9] = kept_len;
    return status;
}

/* ------------------------------------------------------------ the sweep */

/* Mark an attached clause dead, add its span to *garbage and flag the
 * variables of its two watched literals for the unlink pass. */
static void kill_clause(long *arena, signed char *seen, long ref, long *garbage)
{
    arena[ref] |= FLAG_DEAD;
    *garbage += (arena[ref] >> 2) + HDR;
    seen[arena[ref + HDR] >> 1] = 1;
    seen[arena[ref + HDR + 1] >> 1] = 1;
}

/* Drop every dead clause from the watcher list of `lit`, keeping the order
 * of the live watchers (the links of the dead clauses are left as they are). */
static void unlink_dead(long *arena, long *heads, long lit)
{
    long *prev = &heads[lit];
    long ptr = *prev;
    while (ptr) {
        long ref = ptr >> 1;
        long *link = &arena[ref + 1 + (ptr & 1)];
        if (arena[ref] & FLAG_DEAD)
            *prev = *link;
        else
            prev = link;
        ptr = *link;
    }
}

static void unlink_flagged(long *arena, long *heads, signed char *seen,
                           const long *refs, long count)
{
    for (long i = 0; i < count; i++) {
        for (long slot = 0; slot < 2; slot++) {
            long var = arena[refs[i] + HDR + slot] >> 1;
            if (seen[var]) {
                seen[var] = 0;
                unlink_dead(arena, heads, 2 * var);
                unlink_dead(arena, heads, 2 * var + 1);
            }
        }
    }
}

/* Retract a batch of attached clauses (mirror of Solver._sweep).
 *
 *   kill     the refs of the clauses to retract;
 *   learnts  the learnt clause refs (in/out): with a dead literal, every
 *            learnt naming it is retracted too and the rest are compacted
 *            to the front in order;
 *   stale    out-buffer receiving the refs of those retracted learnts;
 *   state    [0] kill count, [1] learnt count (in) / kept learnts (out),
 *            [2] the dead literal (0: none, learnts are left alone),
 *            [3] trail entries whose reasons are checked, [4] garbage words
 *            of the retracted clauses (out), [5] stale count (out).
 *
 * Both watcher lists of each affected variable are walked once, so a batch
 * sharing a watched literal (every clause of a layer watches -selector)
 * costs one pass over that list instead of one per clause.  A trail
 * variable whose reason was retracted gets reason 0.
 */
void repro_sweep(void *const *buf, const long *kill, long *learnts,
                 long *stale, long *state)
{
    long *arena = buf[B_ARENA];
    long *heads = buf[B_HEADS];
    long *reasons = buf[B_REASONS];
    const long *trail = buf[B_TRAIL];
    signed char *seen = buf[B_SEEN];
    long count = state[0];
    long dead_lit = state[2];
    long garbage = 0;
    long kept = 0;
    long nstale = 0;

    for (long i = 0; i < count; i++)
        kill_clause(arena, seen, kill[i], &garbage);
    if (dead_lit) {
        for (long i = 0; i < state[1]; i++) {
            long ref = learnts[i];
            long base = ref + HDR;
            long size = arena[ref] >> 2;
            long k = 0;
            while (k < size && arena[base + k] != dead_lit)
                k++;
            if (k < size) {
                kill_clause(arena, seen, ref, &garbage);
                stale[nstale++] = ref;
            } else {
                learnts[kept++] = ref;
            }
        }
        state[1] = kept;
    }
    unlink_flagged(arena, heads, seen, kill, count);
    unlink_flagged(arena, heads, seen, stale, nstale);
    for (long i = 0; i < state[3]; i++) {
        long var = trail[i] >> 1;
        long reason = reasons[var];
        if (reason && (arena[reason] & FLAG_DEAD))
            reasons[var] = 0;
    }
    state[4] = garbage;
    state[5] = nstale;
}
