"""Warm cross-version compilation: splice a journaled artifact onto a new
program version, re-encoding only the changed regions.

The cold compiler (:meth:`~repro.bmc.checker.BoundedModelChecker.compile_program`)
records an *emission journal*: every variable allocation, clause emission,
gate-cache insertion and call-interface crossing, in order.  Given a later
version of the same program, :func:`splice_compile` replays that journal —
statement for statement — and drops into the real encoder only for the
inlined subtrees of functions the change-impact diff
(:mod:`repro.analysis.impact`) marked as changed.  The journal is the
encoder arena's flat record stream (:mod:`repro.encoding.arena`), read
together with the base artifact's clause store, and the replay emits into
a fresh arena: the one encoding context a cold compile uses, so region
re-encodes run on the same emitter (C core included) and the warm
artifact takes the arena's buffers as they are.

The replay maintains a variable map ``mu : base var -> new var`` that starts
as the identity and is extended at every region boundary from the recorded
call interface (arguments, guard, globals in; result, globals out).  The map
is kept *sign-preserving* and *strictly monotone*: under those two
invariants every canonicalization decision the structure-hashed circuit
builder made during the base compile (AND operand swaps, XOR sign
normalization, ITE condition flips, MAJ sign carries, sorted keys) comes
out identically for the mapped variables, so the replayed clauses are
literal-for-literal what a cold compile of the new version would emit.
Whenever an invariant would break — a sign flip across the interface, a
non-monotone pairing, a narrowing-plan divergence in supposedly unchanged
code — the splice *declines* (returns ``None``) and the caller falls back
to a cold compile.  Declining is always safe; splicing is only ever an
accelerator.

Two refinements keep the replayed and re-encoded parts converging on the
cold result.  *Gate elision*: a journal gate record owns its definition
clauses and carries their count, so when a remapped gate key hits the warm
gate table (typically because a region re-encode built the gate first) the
replay binds the output to the cached variable and skips the definition —
exactly the no-allocation, no-emission behavior of a cold compile's cache
hit.  *Span replay*: inside a changed function's re-encode, calls to
unchanged callees are paired positionally with the base subtree's recorded
child spans and replayed under the map instead of re-encoded (the bulk of
a changed function's cost is usually its unchanged callees); any
obstruction rewinds the arena to a mark taken before the attempt
(:meth:`~repro.encoding.arena.GateArena.rewind`) and the live encoder
takes over.

Byte-identity of the result is not best-effort: the warm artifact has the
same variables, the same clauses in the same order, the same groups, steps,
violations and narrowing as a cold compile of the new version, so
localization reports (:func:`repro.serve.protocol.canonical_report_bytes`)
compare equal byte for byte.  The only intentionally approximate field is
``gates_shared`` (a compile-effort statistic, never part of a report): the
replay does not re-count cache hits inside unchanged code.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Optional

from repro import obs
from repro.analysis.impact import (
    ProgramFingerprint,
    compute_impact,
    diff_fingerprints,
    fingerprint_program,
    program_line_map,
)
from repro.bmc.checker import BoundedModelChecker, _Frame
from repro.bmc.compiled import CompiledProgram
from repro.encoding.arena import (
    HDR_NUM_VARS,
    HDR_TRUE,
    PACKED_OPS,
    TAG_C,
    TAG_CE,
    TAG_CX,
    TAG_G,
    TAG_GRP,
    TAG_RAW,
    TAG_T,
    TAG_V,
    record_end,
)
from repro.encoding.circuits import Bits, CircuitBuilder
from repro.encoding.context import ArenaEncodingContext, StatementGroup
from repro.encoding.symbolic import ExpressionEncoder
from repro.encoding.trace import TraceStep

__all__ = ["splice_compile", "SpliceDecline"]

#: Per-base-artifact span metadata (``id(base) -> {ce position -> refs}``):
#: whether each recorded call span is *self-contained* — references only
#: its own interface, its own allocations and the constant-true variable.
#: The property depends only on the base journal, so it is computed once
#: per artifact and shared by every warm compile against it (the store
#: replays many versions against one nearest ancestor).  Entries die with
#: the artifact via ``weakref.finalize``.
_SPAN_META_REGISTRY: dict[int, dict] = {}


def _span_meta(base: "CompiledProgram") -> dict:
    key = id(base)
    meta = _SPAN_META_REGISTRY.get(key)
    if meta is None:
        meta = {}
        _SPAN_META_REGISTRY[key] = meta
        weakref.finalize(base, _SPAN_META_REGISTRY.pop, key, None)
    return meta


#: Per-base-artifact prefix checkpoints (``id(base) -> meta``), same
#: lifecycle as `_SPAN_META_REGISTRY`.  ``meta["ce"]`` caches the journal
#: positions of every call-enter record; ``meta["checkpoints"]`` maps a
#: journal position to the complete replay state just before it (a copy of
#: the warm arena plus the replay's own lists).  The identity prefix of a
#: journal (everything before the first changed-region call) replays
#: deterministically, so a later splice against the same base can restore
#: the state instead of stepping through thousands of records.  Only valid while
#: the map is still the identity, the line map is the identity, and no
#: global-initializer substitution is active — the conditions under which
#: the prefix bytes cannot depend on the new program version at all.
_PREFIX_REGISTRY: dict[int, dict] = {}


def _prefix_meta(base: "CompiledProgram") -> dict:
    key = id(base)
    meta = _PREFIX_REGISTRY.get(key)
    if meta is None:
        meta = {"checkpoints": {}}
        _PREFIX_REGISTRY[key] = meta
        weakref.finalize(base, _PREFIX_REGISTRY.pop, key, None)
    return meta


class SpliceDecline(Exception):
    """Internal control flow: the journal cannot be replayed soundly."""


def _const_snapshot(value, width: int, true_lit: int):
    """The snapshot bits a constant encodes to: a ± true-literal pattern
    (per cell, for array values) — exactly ``CircuitBuilder.const``."""
    if isinstance(value, tuple):
        return tuple(_const_snapshot(cell, width, true_lit) for cell in value)
    pattern = value & ((1 << width) - 1)
    return tuple(
        true_lit if (pattern >> position) & 1 else -true_lit
        for position in range(width)
    )


def splice_compile(
    base: CompiledProgram,
    checker: BoundedModelChecker,
    entry: str = "main",
    base_key: Optional[str] = None,
    new_fingerprint: Optional[ProgramFingerprint] = None,
    outcome: Optional[dict] = None,
) -> Optional[CompiledProgram]:
    """Compile ``checker.program`` by replaying ``base``'s journal.

    Returns a :class:`CompiledProgram` byte-equivalent to what
    ``checker.compile_program(entry)`` would produce, or ``None`` when the
    diff is not spliceable (the caller should compile cold).  ``base_key``
    is recorded as ``spliced_from`` provenance when given.  Callers that
    already fingerprinted the new program (the store does, for its
    nearest-ancestor lookup) pass it as ``new_fingerprint`` to avoid a
    second canonicalization walk.  ``outcome``, when given, receives
    ``declined`` and ``declined_early`` flags: an early decline failed a
    precondition before any replay or analysis work, a late one gave up
    mid-replay (and paid for the partial replay).
    """
    try:
        result = _splice(base, checker, entry, base_key, new_fingerprint)
    except SpliceDecline:
        if outcome is not None:
            outcome["declined"] = True
            outcome["declined_early"] = False
        return None
    if result is None and outcome is not None:
        outcome["declined"] = True
        outcome["declined_early"] = True
    return result


def _splice(
    base: CompiledProgram,
    checker: BoundedModelChecker,
    entry: str,
    base_key: Optional[str],
    new_fingerprint: Optional[ProgramFingerprint],
) -> Optional[CompiledProgram]:
    if base.journal is None or base.fingerprint is None:
        return None
    options = checker.compile_options(entry)
    if dict(base.compile_options) != options:
        return None
    program = checker.program
    if entry not in program.functions:
        return None
    new_fp = (
        new_fingerprint
        if new_fingerprint is not None
        else fingerprint_program(program)
    )
    base_fp = base.fingerprint
    changes = diff_fingerprints(base_fp, new_fp)
    if changes.globals_reordered:
        # Initialization order is observable; there is no region boundary
        # around the global-initializer walk to splice across.
        return None
    region = set(changes.changed) & set(program.functions)
    init_subst: dict[str, tuple] = {}
    if changes.changed_globals:
        # A re-initialized global is spliceable when both initializers are
        # literal constants: constants encode as true-literal patterns (no
        # variables, no clauses), so the initializer walk emits the same
        # journal either way — only interface snapshots and the functions
        # *reading* the global see the new value.  Those functions join the
        # re-encode region; snapshots get the old pattern substituted for
        # the new one (`_subst_value`).  Added/removed globals change the
        # walk itself, so they still decline.
        if list(base_fp.global_hashes) != list(new_fp.global_hashes):
            return None
        base_inits = getattr(base_fp, "global_inits", None) or {}
        for gname in changes.changed_globals:
            base_init = base_inits.get(gname)
            new_init = new_fp.global_inits.get(gname)
            if base_init is None or new_init is None:
                return None
            if isinstance(base_init, tuple) != isinstance(new_init, tuple):
                return None
            init_subst[gname] = (base_init, new_init)
        if base.true_lit is None:
            return None
        touched = set(changes.changed_globals)
        for name, sig in new_fp.functions.items():
            if name in program.functions and touched & set(sig.free_globals):
                region.add(name)
    if entry in region or entry in changes.added or entry in changes.removed:
        # The entry function's body is the top level of the journal — it is
        # not bracketed by a call interface, so it cannot be re-encoded in
        # isolation.
        return None
    line_map = program_line_map(base_fp, program, new_fp)
    if line_map is None:
        return None

    # Narrowing-plan precondition: replaying an unchanged function reuses
    # its recorded narrowed widths verbatim, which is only sound when the
    # new version's analysis table proves the *same* plans there.  A
    # changed callee can ripple intervals into textually unchanged callers;
    # comparing the full (execution-independent) plan tables catches that.
    new_table: dict = {}
    analysis = None
    if checker.analysis_narrowing or checker.unwind_planning:
        # Seed the incremental re-analysis: hash-identical functions replay
        # their recorded fixpoint rounds from the base artifact instead of
        # re-solving (repro.analysis.incremental); the result is
        # value-identical to a cold analysis either way.
        checker._analysis_seed = (
            base.analysis_cache,
            set(program.functions) - region - set(changes.added),
            line_map,
        )
        try:
            with obs.span("encode.analysis") as timed:
                analysis = checker._analysis_for(entry, timed)
        finally:
            checker._analysis_seed = None
    if (
        checker.analysis_narrowing
        and analysis is not None
        and not analysis.has_errors
    ):
        new_table = analysis.flow_write_intervals
    checker._write_intervals = new_table
    new_plans = checker._narrowing_plan_table()
    skip_base = region | set(changes.removed)
    skip_new = region | set(changes.added)
    base_side: dict = {}
    for (fn, line), plan in base.narrowing_plans.items():
        if fn in skip_base:
            continue
        mapped_line = line_map.get(line)
        if mapped_line is None:
            raise SpliceDecline
        base_side[(fn, mapped_line)] = plan
    new_side = {k: p for k, p in new_plans.items() if k[0] not in skip_new}
    if base_side != new_side:
        raise SpliceDecline

    # Unwind-plan precondition, same shape: a replayed loop keeps the base
    # encoding's unroll count and (when proven) its dropped unwinding
    # assumption, which is only sound if the new version's loop-bound
    # analysis derives the identical per-loop plan.
    new_unwind_plans = checker._unwind_plan_table_for(analysis)
    base_unwind_side: dict = {}
    for (fn, line), plan in base.unwind_plans.items():
        if fn in skip_base:
            continue
        mapped_line = line_map.get(line)
        if mapped_line is None:
            raise SpliceDecline
        base_unwind_side[(fn, mapped_line)] = plan
    new_unwind_side = {
        k: p for k, p in new_unwind_plans.items() if k[0] not in skip_new
    }
    if base_unwind_side != new_unwind_side:
        raise SpliceDecline
    checker._unwind_plans = new_unwind_plans

    unchanged = set(program.functions) - region - set(changes.added)
    checkpoint = capture_at = checkpoints = None
    if not init_subst and all(new == old for old, new in line_map.items()):
        # The identity prefix (everything before the first region call)
        # cannot depend on the new version: jump over it from a checkpoint
        # left by an earlier splice against this base, and leave one at
        # this splice's own first region for the next version.
        journal = base.journal
        meta = _prefix_meta(base)
        positions = meta.get("ce")
        if positions is None:
            positions = []
            position = 0
            while position < len(journal):
                if journal[position] == TAG_CE:
                    positions.append((position, base.raw[journal[position + 1]][1]))
                position = record_end(journal, position)
            meta["ce"] = positions
        first = next((i for i, fn in positions if fn in region), len(journal))
        checkpoints = meta["checkpoints"]
        best = max((i for i in checkpoints if i <= first), default=None)
        if best is not None:
            checkpoint = checkpoints[best]
        if first < len(journal) and first not in checkpoints:
            capture_at = first
    replay = _Replay(
        base, checker, region, line_map, unchanged, init_subst, checkpoint
    )
    replay._checkpoint_at = capture_at
    replay._checkpoints = checkpoints
    replay.run()
    context = replay.context
    # The expression encoder refers back to the checker; dropping it lets
    # the warm arena be freed by reference counting.
    checker._encoder = None

    # The backward slice consumes only statement kinds, lines, scope-
    # qualified defs/uses and callee names — all captured per function in
    # ``slice_hash``.  When every function matches (operator and constant
    # mutations do), the new program's slice provably equals the base's,
    # so the stored ``pruned_lines`` are reused verbatim instead of
    # re-running the fixpoint.
    if set(base_fp.functions) == set(new_fp.functions) and all(
        sig.slice_hash
        and sig.slice_hash == getattr(base_fp.functions[name], "slice_hash", None)
        for name, sig in new_fp.functions.items()
    ):
        pruned_lines = base.pruned_lines
    else:
        pruned_lines = checker._pruned_lines()

    function = program.function(entry)
    impact = compute_impact(program, changes)
    diagnostics = analysis.diagnostics if analysis is not None else ()
    lits, ends, gids = context.arena.clause_store()
    journal, raw = context.arena.journal_store()
    return CompiledProgram(
        program_name=program.name,
        entry=entry,
        width=checker.width,
        unwind=checker.unwind,
        num_vars=context.num_vars,
        params=tuple(function.params),
        lits=lits,
        ends=ends,
        gids=gids,
        steps=list(replay.steps),
        input_bits=dict(replay.input_bits),
        nondet_bits=list(replay.nondet_bits),
        return_bits=replay.return_bits,
        violations=tuple(replay.violations),
        true_lit=context.arena.hdr[HDR_TRUE] or None,
        # Approximate: replayed spans do not re-count their cache hits.
        gates_shared=base.gates_shared + context.gate_hits,
        signature=context.gate_signature,
        diagnostics=diagnostics,
        pruned_lines=pruned_lines,
        narrowed_vars=checker._narrowed_vars,
        fingerprint=new_fp,
        journal=journal,
        raw=raw,
        group_table=list(context.group_table),
        compile_options=options,
        narrowing_plans=new_plans,
        unwind_plans=new_unwind_plans,
        truncated_loops=checker._truncated_loops_for(analysis),
        spliced_from=base_key,
        impact_fraction=impact.impact_fraction,
        analysis_cache=analysis.cache if analysis is not None else None,
    )


class _Replay:
    """One pass over the base journal, producing the warm encoding.

    The base artifact's flat journal (``base.journal`` with its ``raw`` side
    list) is read record by record; clause and gate records consume the
    base clause store (``lits``/``ends``/``gids``) in order, tracked by a
    clause cursor.  Everything is emitted into a journaling
    :class:`ArenaEncodingContext`, the same context a cold compile fills, so
    region re-encodes run on the ordinary encoder (C emission core
    included) and the warm artifact takes the arena's buffers as they are.
    """

    def __init__(
        self,
        base: CompiledProgram,
        checker: BoundedModelChecker,
        region: set[str],
        line_map: dict[int, int],
        unchanged: set[str],
        init_subst: Optional[dict[str, tuple]] = None,
        checkpoint: Optional[dict] = None,
    ) -> None:
        self.base = base
        self.checker = checker
        self.region = region
        self.line_map = line_map
        # Hash-identical functions present in both versions: the only
        # candidates for replaying a call span inside a region re-encode.
        self.unchanged = unchanged
        self.program = checker.program

        if checkpoint is None:
            context = ArenaEncodingContext(checker.width)
            context.begin_journal()
        else:
            context = ArenaEncodingContext(
                checker.width,
                checkpoint["arena"].copy(),
                checkpoint["group_table"],
            )
        builder = CircuitBuilder(context)
        self.context = context
        self.arena = context.arena
        self.builder = builder
        # Wire the checker onto the warm context so region re-encodes emit
        # into it, interleaved with the replayed records in emission order.
        checker._context = context
        checker._builder = builder
        checker._encoder = ExpressionEncoder(builder, checker)
        self.violations = checker._violations = []
        self.nondet_bits = checker._nondet_bits = []
        self.steps = checker._steps = []
        checker._frames = []
        checker._globals = {}
        checker._narrowed_vars = 0
        checker._current_guard = 0

        self.input_bits: dict[str, Bits] = {}
        self.return_bits: Optional[Bits] = None
        # mu[base var] = signed-positive warm var; None while the replay is
        # still in the identity prefix (before the first region).
        self.mu: Optional[array] = None
        # Where `run` stands in the base (a `GateArena.copy_records`
        # cursor): journal position, base clauses and base variables
        # consumed, and the variable a copy found unmapped.
        self.cursor = array("q", bytes(8 * 4))
        self.mapped_groups: dict[int, StatementGroup] = {}
        # Warm group index per base group index, -2 while not looked up
        # (`_warm_gid` fills it; the record copy reads it).
        self._gid_map = array("q", [-2]) * len(base.group_table)
        if checkpoint is not None:
            self.cursor[:3] = checkpoint["cursor"]
            self.mapped_groups.update(checkpoint["mapped_groups"])
            self.steps.extend(checkpoint["steps"])
            self.violations.extend(checkpoint["violations"])
            self.nondet_bits.extend(checkpoint["nondet_bits"])
            self.input_bits.update(checkpoint["input_bits"])
            self.return_bits = checkpoint["return_bits"]
            checker._narrowed_vars = checkpoint["narrowed_vars"]
        # Span-replay state, live only while `_region` runs the encoder.
        # `_span_stack` holds one frame per call level being *paired*: the
        # base child spans at that level (matched positionally with the new
        # body's calls), the next unused child, and the frame depth the
        # pairing applies at.  `_span_children_by_start` indexes every span
        # of the region subtree by its call-enter position, so a dirty
        # child encoded live can still pair its own calls one level down.
        self._span_stack: list[list] = []
        self._span_children_by_start: dict[int, list] = {}
        self._region_base_start = 0
        self._region_new_start = 0
        # Gate records of the current region's base subtree (journal
        # positions), keyed by output variable; consulted (only) during a
        # span replay to resolve references to gates built earlier in the
        # subtree.
        self._region_gate_index: dict[int, int] = {}
        self._span_gate_index: Optional[dict[int, int]] = None
        self._span_commits: Optional[list[int]] = None
        # Self-containment verdicts per span of this base artifact (shared
        # across all splices against it; see `_SPAN_META_REGISTRY`).
        self._span_meta = _span_meta(base)
        # Prefix checkpointing (see `_PREFIX_REGISTRY`): when set, `run`
        # captures the replay state just before the journal position
        # `_checkpoint_at` into `_checkpoints` for later splices to restore.
        self._checkpoint_at: Optional[int] = None
        self._checkpoints: Optional[dict] = None
        # Re-initialized globals: name -> (base pattern, new pattern), the
        # true-literal-encoded constants of the two initializer values.
        # Snapshot values matching the base pattern are *substituted* with
        # the new one (never mapped): constants are pure true-literal
        # patterns, and every function reading the global re-encodes live.
        self._subst: dict[str, tuple] = {}
        if init_subst:
            tl = base.true_lit
            width = checker.width
            for name, (base_init, new_init) in init_subst.items():
                self._subst[name] = (
                    _const_snapshot(base_init, width, tl),
                    _const_snapshot(new_init, width, tl),
                )

    def _subst_value(self, name: str, value: tuple) -> Optional[tuple]:
        """The substituted snapshot value for a re-initialized global, or
        ``None`` when no substitution applies to ``value``."""
        patterns = self._subst.get(name)
        if patterns is not None and value == patterns[0]:
            return patterns[1]
        return None

    # ------------------------------------------------------------ base data

    def _base_clause(self, index: int):
        """Literals of clause ``index`` of the base clause store."""
        ends = self.base.ends
        return self.base.lits[ends[index - 1] if index else 0 : ends[index]]

    def _copy_record(self, position: int) -> None:
        """Append the base raw/call record at ``position`` unchanged."""
        js = self.base.journal
        end = record_end(js, position)
        self.arena.record_event(
            self.base.raw[js[position + 1]], js[position], js[position + 3 : end]
        )

    def _gate_key(self, position: int, lit_map) -> Optional[tuple[int, int, int]]:
        """The key of the base gate record at ``position`` under ``lit_map``
        (``None`` when ``lit_map`` leaves one of its literals unmapped)."""
        js = self.base.journal
        op, key1, key2 = js[position + 1], js[position + 2], js[position + 3]
        if op in PACKED_OPS:
            first = (key1 + (1 << 31)) >> 32
            parts = (lit_map(first), lit_map(key1 - (first << 32)), lit_map(key2))
            if not all(parts):
                return None
            return op, parts[0] * (1 << 32) + parts[1], parts[2]
        mapped1, mapped2 = lit_map(key1), lit_map(key2)
        if not mapped1 or not mapped2:
            return None
        return op, mapped1, mapped2

    def _emit_group_record(self, gid: int) -> None:
        """Replay a base group registration (``TAG_GRP gid``)."""
        base_group = self.base.group_table[gid]
        group = StatementGroup(
            line=self.line_map.get(base_group.line, base_group.line),
            function=base_group.function,
            iteration=base_group.iteration,
        )
        self.mapped_groups[gid] = group
        if group not in self.context._group_ids:
            # Already registered means an earlier region re-encode created
            # the group first — exactly what a cold compile of the new
            # version would have done.
            self.arena.record_group(self.context.group_id(group))

    def _warm_gid(self, gid: int) -> int:
        """The warm group index of a base group index (-1 stays hard)."""
        if gid < 0:
            return -1
        warm = self._gid_map[gid]
        if warm < -1:
            warm = self._gid_map[gid] = self.context._group_ids[
                self._group_for_gid(gid)
            ]
        return warm

    def _copy_plain(self, cursor: array, mapped: bool, check: bool = False) -> int:
        """Copy the plain records at ``cursor`` (:meth:`GateArena.copy_records`,
        under ``mu`` when ``mapped``), looking groups up and resolving span
        references to shared gates on the way.

        Returns the status the copy stopped with: 0 at a record that is not
        plain, 1 at a gate the warm table already holds and 3 at a
        misnumbered gate output (both identity only), 6 at a non-canonical
        mapped key (``check`` only).  An unmapped variable outside a span
        replay declines.
        """
        base = self.base
        while True:
            status = self.arena.copy_records(
                base.journal,
                base.lits,
                base.ends,
                base.gids,
                self._gid_map,
                cursor,
                self.mu if mapped else None,
                check,
            )
            if status == 2:
                self._warm_gid(base.gids[cursor[1]])
            elif status == 5:
                if self._span_gate_index is None:
                    raise SpliceDecline
                self._resolve_span_var(cursor[3])
            else:
                return status

    # ------------------------------------------------------------- mapping

    def _map_lit(self, lit: int) -> int:
        mu = self.mu
        if mu is None:
            return lit
        var = lit if lit > 0 else -lit
        mapped = mu[var]
        if mapped == 0:
            if self._span_gate_index is None:
                raise SpliceDecline
            mapped = self._resolve_span_var(var)
        return mapped if lit > 0 else -mapped

    def _resolve_span_var(self, var: int) -> int:
        """Map a base variable referenced inside a replayed span but never
        paired: necessarily the output of a gate built earlier in the
        region's base subtree (structure sharing across the call).  The
        gate's key is remapped — recursively; its inputs may be such gates
        themselves — and looked up in the warm gate table the region
        re-encode populated: a cold compile's encode of this callee would
        hit exactly that entry.  A miss means the new region never built
        the gate, so the span cannot be replayed — decline (rolled back to
        a live encode by the caller)."""
        position = self._span_gate_index.get(var)
        if position is None:
            raise SpliceDecline
        cached = self.arena.gate_find(*self._gate_key(position, self._map_lit))
        if not cached:
            raise SpliceDecline
        self.mu[var] = cached
        self._span_commits.append(var)
        return cached

    def _map_bits(self, bits: Optional[Bits]) -> Optional[Bits]:
        if bits is None:
            return None
        if self.mu is None:
            return bits
        return tuple(self._map_lit(lit) for lit in bits)

    def _map_snapshot(self, snapshot: tuple) -> tuple:
        if self.mu is None and not self._subst:
            return snapshot
        mapped = []
        for name, value in snapshot:
            subst = self._subst_value(name, value)
            if subst is not None:
                mapped.append((name, subst))
            elif value and isinstance(value[0], int):
                mapped.append((name, self._map_bits(value)))
            else:
                mapped.append((name, tuple(self._map_bits(cell) for cell in value)))
        return tuple(mapped)

    def _group_for_gid(self, gid: int) -> StatementGroup:
        """The warm group for a base journal group index.

        Usually cached by the group-record replay; the lazy path covers
        groups whose first base registration happened *inside* a region
        span (an unchanged helper first called from a changed function):
        the region re-encode has already created the warm group, so the
        base identity just needs remapping.  A group the warm context never
        created means the encodings diverged — decline.
        """
        group = self.mapped_groups.get(gid)
        if group is None:
            base_group = self.base.group_table[gid]
            group = StatementGroup(
                line=self.line_map.get(base_group.line, base_group.line),
                function=base_group.function,
                iteration=base_group.iteration,
            )
            if group not in self.context._group_ids:
                raise SpliceDecline
            self.mapped_groups[gid] = group
        return group

    def _start_map(self) -> None:
        """Switch from the implicit identity prefix to an explicit map."""
        consumed = self.cursor[2]
        if self.context.num_vars != consumed:  # pragma: no cover
            raise SpliceDecline
        self.mu = array("q", range(consumed + 1)) + array(
            "q", bytes(8 * (self.base.num_vars - consumed))
        )

    # ----------------------------------------------------------------- run

    def _capture_checkpoint(self) -> dict:
        """Snapshot the replay state just before a journal position.

        Taken only while the map is still the identity; the arena and every
        list are copied, and a restore copies the arena again, so a stored
        checkpoint is never aliased by a live compile.
        """
        return {
            "arena": self.arena.copy(),
            "group_table": list(self.context.group_table),
            "cursor": self.cursor[:3],
            "mapped_groups": dict(self.mapped_groups),
            "steps": list(self.steps),
            "violations": list(self.violations),
            "nondet_bits": list(self.nondet_bits),
            "input_bits": dict(self.input_bits),
            "return_bits": self.return_bits,
            "narrowed_vars": self.checker._narrowed_vars,
        }

    def run(self) -> None:
        """Replay every journal record, entering `_region` at changed calls.

        Runs of clause, variable and gate records go through one
        `_copy_plain` each: verbatim while the map is still the identity,
        under ``mu`` (with canonical-key checks) after it.  Raw records are
        appended with the base event objects shared while nothing needs
        mapping.
        """
        js, raw = self.base.journal, self.base.raw
        cursor = self.cursor
        count = len(js)
        while True:
            status = self._copy_plain(cursor, self.mu is not None, check=True)
            if status:  # pragma: no cover - the prefix repeats base gates
                raise SpliceDecline
            index = cursor[0]
            if index >= count:
                break
            tag = js[index]
            if tag == TAG_GRP:
                self._emit_group_record(js[index + 1])
            elif tag == TAG_T:
                base_var = js[index + 1]
                lit = self.context.true_lit
                cursor[2] += 1
                cursor[1] += 1  # the constant's hard unit
                if self.mu is not None:
                    self.mu[base_var] = lit
                elif lit != base_var:  # pragma: no cover - defensive
                    raise SpliceDecline
            else:
                event = raw[js[index + 1]]
                if event[0] == "ce" and event[1] in self.region:
                    if index == self._checkpoint_at and self.mu is None:
                        self._checkpoints[index] = self._capture_checkpoint()
                    self._region()
                    continue
                if self.mu is None and not self._subst:
                    self._replay_identity_event(index, event)
                else:
                    self._replay_mapped_event(event)
            cursor[0] = record_end(js, index)

    def _replay_identity_event(self, position: int, event: tuple) -> None:
        """Replay a raw/call record whose literals need no mapping (the
        identity prefix, or a self-contained span under an identical
        interface): only group indexes and lines can differ from the base
        record, which is otherwise copied with its event shared."""
        kind = event[0]
        if kind == "ce":
            gid = self._warm_gid(event[3])
            if gid != event[3]:
                self.context.record(("ce", event[1], event[2], gid) + event[4:])
                return
        elif kind == "s" or kind == "viol":
            line = event[1]
            mapped_line = self.line_map.get(line, line)
            if kind == "s":
                _, _, fn, step_kind, iteration = event
                self.steps.append(
                    TraceStep(
                        line=mapped_line,
                        function=fn,
                        kind=step_kind,
                        iteration=iteration,
                    )
                )
            else:
                self.violations.append((mapped_line, event[2]))
            if mapped_line != line:
                self.context.record((kind, mapped_line) + event[2:])
                return
        elif kind == "nw":
            self.checker._narrowed_vars += event[1]
        elif kind == "nd":
            self.nondet_bits.append(event[1])
        elif kind == "in":
            self.input_bits[event[1]] = event[2]
        elif kind == "ret":
            self.return_bits = event[1]
        self._copy_record(position)

    def _replay_mapped_event(self, event: tuple) -> None:
        """Replay one raw/call record of the base journal under the map."""
        context = self.context
        kind = event[0]
        if kind == "ce":
            _, fn, depth, gid, guard, args, snapshot = event
            context.record(
                (
                    "ce",
                    fn,
                    depth,
                    self._warm_gid(gid),
                    self._map_lit(guard),
                    tuple(self._map_bits(a) for a in args),
                    self._map_snapshot(snapshot),
                )
            )
        elif kind == "cx":
            _, fn, result, snapshot = event
            context.record(
                ("cx", fn, self._map_bits(result), self._map_snapshot(snapshot))
            )
        elif kind == "s":
            _, line, fn, step_kind, iteration = event
            mapped_line = self.line_map.get(line, line)
            self.steps.append(
                TraceStep(
                    line=mapped_line, function=fn, kind=step_kind, iteration=iteration
                )
            )
            context.record(("s", mapped_line, fn, step_kind, iteration))
        elif kind == "nw":
            self.checker._narrowed_vars += event[1]
            context.record(event)
        elif kind == "nd":
            bits = self._map_bits(event[1])
            self.nondet_bits.append(bits)
            context.record(("nd", bits))
        elif kind == "viol":
            _, line, lit = event
            mapped_line = self.line_map.get(line, line)
            mapped_lit = self._map_lit(lit)
            self.violations.append((mapped_line, mapped_lit))
            context.record(("viol", mapped_line, mapped_lit))
        elif kind == "in":
            _, name, bits = event
            mapped_bits = self._map_bits(bits)
            self.input_bits[name] = mapped_bits
            context.record(("in", name, mapped_bits))
        elif kind == "ret":
            mapped_bits = self._map_bits(event[1])
            self.return_bits = mapped_bits
            context.record(("ret", mapped_bits))
        else:  # pragma: no cover - defensive
            raise SpliceDecline

    # -------------------------------------------------------------- regions

    def _region(self) -> None:
        """Re-encode the changed call subtree at the replay cursor.

        Moves the cursor past the subtree.  The base journal's call-enter
        record there carries the complete interface the inlined subtree
        depended on; the matching call-exit carries everything the caller
        observed.  The subtree in between is discarded and the real encoder
        runs on the new program's function, after which the variable map is
        extended by pairing the old and new interface bits.
        """
        js, raw = self.base.journal, self.base.raw
        index = self.cursor[0]
        _, fn, depth, gid, guard, args, snapshot = raw[js[index + 1]]
        if self.mu is None:
            self._start_map()
        context = self.context
        builder = self.builder
        checker = self.checker
        region_base_start = self.cursor[2]
        region_new_start = context.num_vars

        # One pass over the discarded subtree, up front: find the matching
        # call-exit, count the subtree's variables and clauses, collect its
        # gate records (their outputs may be shared with later code and
        # need recovering below), and build the call-span tree — for every
        # span, at every depth, the list of its direct child spans.  The
        # hook pairs the new body's calls with these positionally; a clean
        # child (no changed function anywhere below) is replayed wholesale,
        # a dirty one is encoded live *with its own children pushed*, so
        # unchanged callees keep replaying at every depth under a change.
        children: list[list] = []
        children_by_start: dict[int, list] = {}
        span_gates: list[int] = []
        unchanged = self.unchanged
        # Scan stack frames: (span entry | None for the region root, kids).
        stack: list[tuple[Optional[list], list]] = [(None, children)]
        cursor = region_base_start
        ccur = self.cursor[1]
        scan = record_end(js, index)
        while True:
            tag = js[scan]
            if tag == TAG_C:
                ccur += 1
            elif tag == TAG_V:
                cursor += js[scan + 1]
            elif tag == TAG_G:
                cursor += 1
                ccur += js[scan + 5]
                span_gates.append(scan)
            elif tag == TAG_CE:
                # [fn, start, base-var cursor, clause cursor, clean]
                name = raw[js[scan + 1]][1]
                stack.append(([name, scan, cursor, ccur, name in unchanged], []))
            elif tag == TAG_CX:
                entry, kids = stack.pop()
                if entry is None:
                    break
                children_by_start[entry[1]] = kids
                parent_entry, parent_kids = stack[-1]
                parent_kids.append(entry)
                if not entry[4] and parent_entry is not None:
                    # A changed function below poisons every enclosing span.
                    parent_entry[4] = False
            elif tag == TAG_T:  # pragma: no cover - true_lit precedes any call
                cursor += 1
                ccur += 1
            scan = record_end(js, scan)
        end_index, end_cursor = scan, cursor

        try:
            callee = self.program.function(fn)
        except KeyError:
            raise SpliceDecline
        mapped_args = [self._map_bits(a) for a in args]
        if len(mapped_args) != len(callee.params):
            raise SpliceDecline
        mapped_guard = self._map_lit(guard)
        mapped_globals: dict[str, object] = {}
        for name, value in snapshot:
            subst = self._subst_value(name, value)
            if subst is not None:
                if subst and isinstance(subst[0], int):
                    mapped_globals[name] = subst
                else:
                    mapped_globals[name] = list(subst)
            elif value and isinstance(value[0], int):
                mapped_globals[name] = self._map_bits(value)
            else:
                mapped_globals[name] = [self._map_bits(cell) for cell in value]

        checker._globals = mapped_globals
        checker._frames = [
            _Frame(function="<splice>", active=builder.true) for _ in range(depth)
        ]
        checker._current_guard = mapped_guard
        caller_group = None if gid < 0 else self._group_for_gid(gid)
        previous = context._current
        context._current = caller_group
        self._span_stack = [[children, 0, depth + 1]]
        self._span_children_by_start = children_by_start
        self._region_base_start = region_base_start
        self._region_new_start = region_new_start
        self._region_gate_index = {js[position + 4]: position for position in span_gates}
        checker._splice_call_hook = self._try_span_replay
        try:
            frame = _Frame(function=fn, active=builder.true)
            for param, bits in zip(callee.params, mapped_args):
                frame.variables[param] = bits
            context.record(
                (
                    "ce",
                    fn,
                    depth,
                    -1 if caller_group is None else context._group_ids[caller_group],
                    mapped_guard,
                    tuple(mapped_args),
                    checker._globals_snapshot(),
                )
            )
            checker._run_function(callee, frame, mapped_guard)
            result = frame.return_value
            if result is None:
                result = builder.const(0)
            new_snapshot = checker._globals_snapshot()
            context.record(("cx", fn, result, new_snapshot))
        finally:
            checker._splice_call_hook = None
            context._current = previous
            self._span_stack = []
            self._span_children_by_start = {}

        self.cursor[:3] = array("q", [record_end(js, end_index), ccur, end_cursor])
        _, _, base_result, base_snapshot = raw[js[end_index + 1]]
        region_base_end = end_cursor
        region_new_end = context.num_vars

        # Extend mu from the observed interface.  Already-mapped base bits
        # must agree exactly; fresh pairings must preserve sign, stay inside
        # the two region windows, and be mutually monotone — the invariants
        # that make every later canonicalization decision replayable.
        mu = self.mu
        pending: dict[int, int] = {}

        def pair(base_lit: int, new_lit: int) -> None:
            var = base_lit if base_lit > 0 else -base_lit
            mapped = mu[var]
            if mapped:
                if (mapped if base_lit > 0 else -mapped) != new_lit:
                    raise SpliceDecline
                return
            if (base_lit > 0) != (new_lit > 0):
                raise SpliceDecline
            new_var = new_lit if new_lit > 0 else -new_lit
            if not (region_base_start < var <= region_base_end):
                raise SpliceDecline
            if not (region_new_start < new_var <= region_new_end):
                raise SpliceDecline
            known = pending.get(var)
            if known is None:
                pending[var] = new_var
            elif known != new_var:
                raise SpliceDecline

        for base_lit, new_lit in zip(base_result, result):
            pair(base_lit, new_lit)
        if [name for name, _ in base_snapshot] != [name for name, _ in new_snapshot]:
            raise SpliceDecline
        for (gname, base_value), (_, new_value) in zip(base_snapshot, new_snapshot):
            patterns = self._subst.get(gname)
            if (
                patterns is not None
                and base_value == patterns[0]
                and new_value == patterns[1]
            ):
                # A re-initialized global still holding its initializer on
                # both sides: two constant patterns, nothing to pair.
                continue
            base_scalar = bool(base_value) and isinstance(base_value[0], int)
            new_scalar = bool(new_value) and isinstance(new_value[0], int)
            if base_scalar != new_scalar:
                raise SpliceDecline
            if base_scalar:
                if len(base_value) != len(new_value):
                    raise SpliceDecline
                for base_lit, new_lit in zip(base_value, new_value):
                    pair(base_lit, new_lit)
            else:
                if len(base_value) != len(new_value):
                    raise SpliceDecline
                for base_cell, new_cell in zip(base_value, new_value):
                    if len(base_cell) != len(new_cell):
                        raise SpliceDecline
                    for base_lit, new_lit in zip(base_cell, new_cell):
                        pair(base_lit, new_lit)

        for var, new_var in pending.items():
            mu[var] = new_var

        # Recover mappings for subtree gates shared with later code: the
        # region re-encode built the corresponding gate under the mapped
        # key, so the warm gate table tells us its output variable.  Gates
        # whose inputs are region-internal stay unmapped — if later code
        # somehow referenced one anyway, `_map_lit` declines at that use.
        def look(lit: int) -> int:
            """`_map_lit` without the decline exception: 0 when unmapped."""
            mapped = mu[lit] if lit > 0 else mu[-lit]
            if not mapped:
                return 0
            return mapped if lit > 0 else -mapped

        for position in span_gates:
            out = js[position + 4]
            if mu[out]:
                continue
            key = self._gate_key(position, look)
            if key is not None:
                shared = self.arena.gate_find(*key)
                if shared:
                    mu[out] = shared
        # The map stays explicit for the rest of the replay, even when every
        # pairing above is the identity: region-internal base variables the
        # re-encode did not pair stay unmapped, and a later record naming
        # one must decline rather than be copied as it is.

    # --------------------------------------------------------------- spans

    def _try_span_replay(self, name: str, frame: _Frame, guard: int):
        """Call hook active during a region re-encode (`encode_call`).

        Calls at the currently paired depth are matched positionally with
        the base subtree's child spans at that depth.  A matched *clean*
        child (no changed code anywhere below) is replayed under the
        variable map instead of re-encoded — the bulk of a changed
        function's encoding cost is usually its unchanged callees.  A
        matched dirty child, or a clean one whose replay aborts, is
        encoded live but *paired*: its own base child spans are pushed so
        the unchanged functions below it still replay.  A positional
        mismatch falls back to the plain live encoder (returns None), whose
        inner calls then pair with nothing.
        """
        checker = self.checker
        stack = self._span_stack
        if not stack:
            return None
        children, k, pair_depth = stack[-1]
        if len(checker._frames) != pair_depth:
            # Inside an unpaired live callee — its calls match no spans.
            return None
        if k >= len(children):
            return None
        stack[-1][1] = k + 1
        fn, start, cursor0, clause0, clean = children[k]
        if fn != name:
            return None
        if clean:
            result = self._replay_span_identity(
                name, start, cursor0, clause0, frame, guard
            )
            if result is None:
                result = self._replay_span(name, start, cursor0, clause0, frame, guard)
            if result is not None:
                return result
        return self._paired_live(name, start, frame, guard)

    def _paired_live(self, name: str, start: int, frame: _Frame, guard: int):
        """Encode a call live while keeping its base span paired.

        Mirrors exactly what `encode_call` does past the hook (journal
        call-enter, run, journal call-exit), but pushes the base span's own
        direct children first so the callee's calls keep pairing one level
        down.  Used for spans that contain changed code and for clean spans
        whose replay declined — either way the subtree must be re-encoded,
        but its unchanged descendants need not be.
        """
        checker = self.checker
        context = self.context
        callee = self.program.function(name)
        group = context.current_group
        context.record(
            (
                "ce",
                name,
                len(checker._frames),
                -1 if group is None else context.group_id(group),
                guard,
                tuple(frame.variables[param] for param in callee.params),
                checker._globals_snapshot(),
            )
        )
        self._span_stack.append(
            [
                self._span_children_by_start.get(start, []),
                0,
                len(checker._frames) + 1,
            ]
        )
        try:
            checker._run_function(callee, frame, guard)
        finally:
            self._span_stack.pop()
        result = frame.return_value
        if result is None:
            result = self.builder.const(0)
        context.record(("cx", name, result, checker._globals_snapshot()))
        return result

    def _span_external_refs(
        self, start: int, cursor0: int, clause0: int
    ) -> Optional[tuple]:
        """Variables the base call span at ``start`` references from outside
        its own interface (the call-enter guard/argument/global bits), its
        own allocations and the constant-true variable — in practice,
        outputs of gates structure-shared from earlier in the base journal.
        ``None`` when the span contains a record the identity fast path
        cannot share (a misnumbered gate output or an out-of-place record).

        A property of the base journal alone, so the result is memoized on
        the artifact and shared by every splice against it.  The fast path
        may share the span's records once every external reference is
        proven identity-mapped: every other literal it emits is either
        pinned equal by the interface check or allocated at an identical
        position by the aligned cursors.  Call records carry their literal
        payload in the stream, and a gate's definition clauses name only
        its key's inputs and its output, so the scan reads the stream and
        the span's non-gate clauses.
        """
        cached = self._span_meta.get(start, False)
        if cached is not False:
            return cached
        base = self.base
        js, raw = base.journal, base.raw
        iface = {lit if lit > 0 else -lit for lit in js[start + 3 : record_end(js, start)]}
        if base.true_lit:
            iface.add(abs(base.true_lit))

        external: set[int] = set()

        def scan(bits, cursor: int) -> bool:
            for lit in bits:
                var = lit if lit > 0 else -lit
                if var <= cursor0:
                    if var not in iface:
                        external.add(var)
                elif var > cursor:  # forward reference: cannot occur
                    return False
            return True

        ok = True
        cursor = cursor0
        ccur = clause0
        index = record_end(js, start)
        nesting = 1
        while ok:
            tag = js[index]
            end = record_end(js, index)
            if tag == TAG_C:
                ok = scan(self._base_clause(ccur), cursor)
                ccur += 1
            elif tag == TAG_V:
                cursor += js[index + 1]
            elif tag == TAG_G:
                op, key1, key2 = js[index + 1], js[index + 2], js[index + 3]
                if op in PACKED_OPS:
                    first = (key1 + (1 << 31)) >> 32
                    keys = (first, key1 - (first << 32), key2)
                else:
                    keys = (key1, key2)
                cursor += 1
                ccur += js[index + 5]
                ok = scan(keys, cursor) and js[index + 4] == cursor
            elif tag == TAG_CE or tag == TAG_CX:
                nesting += 1 if tag == TAG_CE else -1
                ok = scan(js[index + 3 : end], cursor)
                if nesting == 0:
                    break
            elif tag == TAG_RAW:
                # "t"/"in"/"ret" cannot occur inside a call span.
                ok = raw[js[index + 1]][0] not in ("in", "ret") and scan(
                    js[index + 3 : end], cursor
                )
            elif tag == TAG_T:
                ok = False
            index = end
        refs = tuple(sorted(external)) if ok else None
        self._span_meta[start] = refs
        return refs

    def _rewind_span(self, mark, commits: list[int], gids_mapped: list[int]) -> None:
        """Roll an abandoned span replay back to ``mark``."""
        context_mark, steps, violations, nondet, narrowed = mark
        mu = self.mu
        for var in commits:
            mu[var] = 0
        for gid in gids_mapped:
            self.mapped_groups.pop(gid, None)
            self._gid_map[gid] = -2
        self.context.rewind(context_mark)
        del self.steps[steps:]
        del self.violations[violations:]
        del self.nondet_bits[nondet:]
        self.checker._narrowed_vars = narrowed

    def _span_mark(self) -> tuple:
        return (
            self.context.mark(),
            len(self.steps),
            len(self.violations),
            len(self.nondet_bits),
            self.checker._narrowed_vars,
        )

    def _replay_span_identity(
        self,
        name: str,
        start: int,
        cursor0: int,
        clause0: int,
        frame: _Frame,
        guard: int,
    ):
        """Replay a clean span by copying the base records as they are.

        Applies when the live call interface is bit-for-bit the base one
        (same guard, argument and global literals), the warm variable
        counter sits exactly at the span's base cursor, the constant-true
        literal agrees, and the span is self-contained: then a cold compile
        of the new version would emit exactly the bytes the base journal
        already holds, so the replay copies clauses and records without
        mapping a literal.  The one live decision left is the gate table —
        a hit (a region re-encode built one of these gates first) changes
        the bytes, so the attempt rewinds and returns ``None``; the caller
        redoes the span under the variable map, whose elision path handles
        the hit correctly.
        """
        context = self.context
        arena = self.arena
        checker = self.checker
        if cursor0 != context.num_vars:
            return None
        if self.base.true_lit != arena.hdr[HDR_TRUE]:
            return None
        js, raw = self.base.journal, self.base.raw
        _, _, _, _, base_guard, base_args, base_snapshot = raw[js[start + 1]]
        if guard != base_guard:
            return None
        try:
            callee = self.program.function(name)
        except KeyError:
            return None
        args = tuple(frame.variables[param] for param in callee.params)
        if args != base_args:
            return None
        live_globals = checker._globals
        if [n for n, _ in base_snapshot] != list(live_globals):
            return None
        for (_, base_value), new_value in zip(base_snapshot, live_globals.values()):
            if base_value is new_value or base_value == new_value:
                continue
            if isinstance(new_value, tuple) or len(base_value) != len(new_value):
                return None
            for base_cell, new_cell in zip(base_value, new_value):
                if base_cell is not new_cell and base_cell != tuple(new_cell):
                    return None
        refs = self._span_external_refs(start, cursor0, clause0)
        if refs is None:
            return None
        mu = self.mu
        commits: list[int] = []
        if refs:
            # Structure-shared gates from earlier in the base journal: the
            # bytes are only shareable if each resolves to itself.
            self._span_gate_index = self._region_gate_index
            self._span_commits = commits
            try:
                for var in refs:
                    mapped = mu[var]
                    if mapped == 0:
                        try:
                            mapped = self._resolve_span_var(var)
                        except SpliceDecline:
                            mapped = 0
                    if mapped != var:
                        for committed in commits:
                            mu[committed] = 0
                        return None
            finally:
                self._span_gate_index = None
                self._span_commits = None

        mark = self._span_mark()
        gids_mapped: list[int] = []
        group = context.current_group
        context.record(
            (
                "ce",
                name,
                len(checker._frames),
                -1 if group is None else context.group_id(group),
                guard,
                args,
                checker._globals_snapshot(),
            )
        )
        cursor = array("q", [record_end(js, start), clause0, cursor0, 0])
        try:
            _, _, base_result, base_out = self._span_records(
                cursor, False, gids_mapped
            )
        except SpliceDecline:
            # Typically a gate a region re-encode built first: cold would
            # elide it, changing the bytes.  The caller redoes the span
            # under the map, whose elision path handles the hit.
            commits.extend(range(cursor0 + 1, cursor[2] + 1))
            self._rewind_span(mark, commits, gids_mapped)
            return None
        out_globals: dict[str, object] = {}
        for gname, value in base_out:
            if value and isinstance(value[0], int):
                out_globals[gname] = value
            else:
                out_globals[gname] = list(value)
        checker._globals = out_globals
        context.record(("cx", name, base_result, checker._globals_snapshot()))
        return base_result

    def _span_records(self, cursor: array, mapped: bool, gids_mapped: list[int]):
        """Replay the records of a base call span from ``cursor`` to its
        call-exit, and return that call-exit event.

        Literals go through ``mu`` when ``mapped``; otherwise they are
        copied as they are, which the aligned cursors make the identity
        map.  Registered groups are added to ``gids_mapped``.  Raises
        :class:`SpliceDecline` where the span cannot be replayed that way;
        the caller rewinds.
        """
        js, raw = self.base.journal, self.base.raw
        hdr = self.arena.hdr
        mu = self.mu
        nesting = 1
        while True:
            before = hdr[HDR_NUM_VARS]
            status = self._copy_plain(cursor, mapped)
            if not mapped:
                after = hdr[HDR_NUM_VARS]
                mu[before + 1 : after + 1] = array("q", range(before + 1, after + 1))
            if status:
                raise SpliceDecline
            index = cursor[0]
            tag = js[index]
            if tag == TAG_GRP:
                gids_mapped.append(js[index + 1])
                self._emit_group_record(js[index + 1])
            elif tag == TAG_T:  # pragma: no cover - outside any call span
                raise SpliceDecline
            else:
                event = raw[js[index + 1]]
                kind = event[0]
                if kind == "cx":
                    nesting -= 1
                    if nesting == 0:
                        return event
                elif kind == "ce":
                    nesting += 1
                elif kind in ("in", "ret"):  # pragma: no cover - as above
                    raise SpliceDecline
                if mapped:
                    self._replay_mapped_event(event)
                else:
                    self._replay_identity_event(index, event)
            cursor[0] = record_end(js, index)

    def _replay_span(
        self,
        name: str,
        start: int,
        cursor0: int,
        clause0: int,
        frame: _Frame,
        guard: int,
    ):
        """Replay one base call span against the live interface at `frame`.

        The base journal's call-enter record at ``start`` records the
        interface the inlined subtree depended on; the map is seeded by
        pairing it with the live arguments/guard/globals, then the span's
        records replay exactly like the top-level mapped phase (gate
        elision included — the warm gate table is consulted live, so hits
        and misses land wherever a cold compile's would).  An unmappable
        variable, sign flip or shape mismatch aborts the attempt: the arena
        and the replay state are rewound and the caller encodes the subtree
        live instead.  Soundness never rests on the pairing being "right" —
        a wrong pairing either fails seeding, hits an unmapped variable, or
        later fails the top-level replay's canonical-key check, all of which
        decline.
        """
        checker = self.checker
        context = self.context
        js, raw = self.base.journal, self.base.raw
        mu = self.mu
        _, _, _, _, base_guard, base_args, base_snapshot = raw[js[start + 1]]
        try:
            callee = self.program.function(name)
        except KeyError:
            return None
        args = tuple(frame.variables[param] for param in callee.params)
        if len(base_args) != len(args):
            return None
        live_globals = checker._globals
        if [n for n, _ in base_snapshot] != list(live_globals):
            return None

        mark = self._span_mark()
        commits: list[int] = []
        gids_mapped: list[int] = []
        region_base_start = self._region_base_start
        region_new_start = self._region_new_start

        def seed(base_lit: int, new_lit: int) -> None:
            var = base_lit if base_lit > 0 else -base_lit
            mapped = mu[var]
            if mapped:
                if (mapped if base_lit > 0 else -mapped) != new_lit:
                    raise SpliceDecline
                return
            if (base_lit > 0) != (new_lit > 0):
                raise SpliceDecline
            new_var = new_lit if new_lit > 0 else -new_lit
            # Fresh seeds must pair region-internal base variables with
            # region-internal new ones; anything else risks committing a
            # mapping that poisons the global monotonicity invariant.
            if not (region_base_start < var <= cursor0):
                raise SpliceDecline
            if new_var <= region_new_start:
                raise SpliceDecline
            mu[var] = new_var
            commits.append(var)

        def seed_bits(base_bits, new_bits) -> None:
            if len(base_bits) != len(new_bits):
                raise SpliceDecline
            for base_lit, new_lit in zip(base_bits, new_bits):
                seed(base_lit, new_lit)

        cursor = array("q", [record_end(js, start), clause0, cursor0, 0])
        self._span_gate_index = self._region_gate_index
        self._span_commits = commits
        try:
            # The warm journal's call-enter is recorded from the *live*
            # interface — exactly what `encode_call` would have written.
            group = context.current_group
            context.record(
                (
                    "ce",
                    name,
                    len(checker._frames),
                    -1 if group is None else context.group_id(group),
                    guard,
                    args,
                    checker._globals_snapshot(),
                )
            )
            seed(base_guard, guard)
            for base_bits, new_bits in zip(base_args, args):
                seed_bits(base_bits, new_bits)
            for (gname, base_value), new_value in zip(
                base_snapshot, live_globals.values()
            ):
                patterns = self._subst.get(gname)
                if patterns is not None and base_value == patterns[0]:
                    live_tuple = (
                        new_value
                        if isinstance(new_value, tuple)
                        else tuple(
                            cell if isinstance(cell, tuple) else tuple(cell)
                            for cell in new_value
                        )
                    )
                    if live_tuple == patterns[1]:
                        # Both sides still hold their (differing)
                        # initializer constants: nothing to pair.
                        continue
                base_scalar = bool(base_value) and isinstance(base_value[0], int)
                new_scalar = bool(new_value) and isinstance(new_value[0], int)
                if base_scalar != new_scalar:
                    raise SpliceDecline
                if base_scalar:
                    seed_bits(base_value, new_value)
                else:
                    if len(base_value) != len(new_value):
                        raise SpliceDecline
                    for base_cell, new_cell in zip(base_value, new_value):
                        seed_bits(base_cell, new_cell)

            _, _, base_result, base_out = self._span_records(
                cursor, True, gids_mapped
            )

            # Matching call-exit: the caller observes the mapped result and
            # the mapped globals-out snapshot.
            result = self._map_bits(base_result)
            out_globals: dict[str, object] = {}
            for gname, value in base_out:
                subst = self._subst_value(gname, value)
                if subst is not None:
                    out_globals[gname] = (
                        subst if subst and isinstance(subst[0], int) else list(subst)
                    )
                elif value and isinstance(value[0], int):
                    out_globals[gname] = self._map_bits(value)
                else:
                    out_globals[gname] = [self._map_bits(cell) for cell in value]
            checker._globals = out_globals
            context.record(("cx", name, result, checker._globals_snapshot()))
            return result
        except SpliceDecline:
            # Rewind and let the live encoder take over; declining a span
            # is as safe as declining the splice.
            commits.extend(range(cursor0 + 1, cursor[2] + 1))
            self._rewind_span(mark, commits, gids_mapped)
            return None
        finally:
            self._span_gate_index = None
            self._span_commits = None
