"""Warm cross-version compilation: splice a journaled artifact onto a new
program version, re-encoding only the changed regions.

The cold compiler (:meth:`~repro.bmc.checker.BoundedModelChecker.compile_program`)
records an *emission journal*: every variable allocation, clause emission,
gate-cache insertion and call-interface crossing, in order.  Given a later
version of the same program, :func:`splice_compile` replays that journal —
statement for statement — and drops into the real encoder only for the
inlined subtrees of functions the change-impact diff
(:mod:`repro.analysis.impact`) marked as changed.

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
cold result.  *Gate elision*: journal gate events precede their definition
clauses and carry a clause count, so when a remapped gate key hits the warm
cache (typically because a region re-encode built the gate first) the
replay binds the output to the cached variable and skips the definition —
exactly the no-allocation, no-emission behavior of a cold compile's cache
hit.  *Span replay*: inside a changed function's re-encode, calls to
unchanged callees are paired positionally with the base subtree's recorded
child spans and replayed under the map instead of re-encoded (the bulk of
a changed function's cost is usually its unchanged callees); any
obstruction rolls the attempt back and the live encoder takes over.

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
from repro.encoding.circuits import Bits, CircuitBuilder
from repro.encoding.context import EncodingContext, StatementGroup
from repro.encoding.symbolic import ExpressionEncoder
from repro.encoding.trace import TraceStep

__all__ = ["splice_compile", "SpliceDecline"]

#: Opcodes whose first cache-key component packs two literals
#: (``x * 2**32 + y``): ITE, XOR3, MAJ.  See ``repro.encoding.circuits``.
_PACKED_OPS = frozenset((3, 4, 5))

#: Per-base-artifact span metadata (``id(base) -> {ce index -> bool}``):
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
#: positions of every call-enter event; ``meta["checkpoints"]`` maps a
#: journal index to the complete replay state just before that index.  The
#: identity prefix of a journal (everything before the first changed-region
#: call) replays deterministically and produces shared, never-mutated
#: values, so a later splice against the same base can bulk-restore the
#: state instead of stepping through thousands of events.  Only valid while
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
    replay = _Replay(base, checker, region, line_map, unchanged, init_subst)
    start_index = start_pending = 0
    if not init_subst and all(new == old for old, new in line_map.items()):
        # The identity prefix (everything before the first region call)
        # cannot depend on the new version: jump over it from a checkpoint
        # left by an earlier splice against this base, and leave one at
        # this splice's own first region for the next version.
        meta = _prefix_meta(base)
        positions = meta.get("ce")
        if positions is None:
            positions = [
                (i, e[1]) for i, e in enumerate(base.journal) if e[0] == "ce"
            ]
            meta["ce"] = positions
        first = next((i for i, fn in positions if fn in region), len(base.journal))
        checkpoints = meta["checkpoints"]
        best = -1
        for i in checkpoints:
            if best < i <= first:
                best = i
        if best >= 0:
            start_index, start_pending = replay._restore_checkpoint(
                checkpoints[best], best
            )
        if first < len(base.journal) and first not in checkpoints:
            replay._checkpoint_at = first
            replay._checkpoints = checkpoints
    replay.run(start_index, start_pending)
    context = replay.context

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
    return CompiledProgram(
        program_name=program.name,
        entry=entry,
        width=checker.width,
        unwind=checker.unwind,
        num_vars=context.num_vars,
        params=tuple(function.params),
        hard=list(context.hard),
        groups={group: clauses for group, clauses in context.groups.items()},
        steps=list(replay.steps),
        input_bits=dict(replay.input_bits),
        nondet_bits=list(replay.nondet_bits),
        return_bits=replay.return_bits,
        violations=tuple(replay.violations),
        true_lit=context._true_lit,
        # Approximate: replayed spans do not re-count their cache hits.
        gates_shared=base.gates_shared + context.gate_hits,
        signature=context.gate_signature,
        diagnostics=diagnostics,
        pruned_lines=pruned_lines,
        narrowed_vars=checker._narrowed_vars,
        fingerprint=new_fp,
        journal=context.journal,
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
    """One pass over the base journal, producing the warm encoding."""

    def __init__(
        self,
        base: CompiledProgram,
        checker: BoundedModelChecker,
        region: set[str],
        line_map: dict[int, int],
        unchanged: set[str],
        init_subst: Optional[dict[str, tuple]] = None,
    ) -> None:
        self.base = base
        self.checker = checker
        self.region = region
        self.line_map = line_map
        # Hash-identical functions present in both versions: the only
        # candidates for replaying a call span inside a region re-encode.
        self.unchanged = unchanged
        self.program = checker.program

        context = EncodingContext(checker.width)
        context.begin_journal()
        builder = CircuitBuilder(context)
        self.context = context
        self.builder = builder
        # Wire the checker onto the warm context so region re-encodes emit
        # into it; the lists are shared so replayed and region-built entries
        # interleave in true emission order.
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
        self.mu: Optional[list[int]] = None
        self.base_cursor = 0
        self.mapped_groups: dict[int, StatementGroup] = {}
        # Every non-identity (base var, warm var) commitment, across all
        # regions; sorted-strictly-increasing is the global monotonicity
        # invariant the canonicalization-replay argument rests on.
        self.pairs: list[tuple[int, int]] = []
        # Span-replay state, live only while `_region` runs the encoder.
        # `_span_stack` holds one frame per call level being *paired*: the
        # base child spans at that level (matched positionally with the new
        # body's calls), the next unused child, and the frame depth the
        # pairing applies at.  `_span_children_by_start` indexes every span
        # of the region subtree by its "ce" journal position, so a dirty
        # child encoded live can still pair its own calls one level down.
        self._span_stack: list[list] = []
        self._span_children_by_start: dict[int, list] = {}
        self._region_base_start = 0
        self._region_new_start = 0
        # Gate events of the current region's base subtree, keyed by output
        # variable; consulted (only) during a span replay to resolve
        # references to gates built earlier in the subtree.
        self._region_gate_index: dict[int, tuple] = {}
        self._span_gate_index: Optional[dict[int, tuple]] = None
        self._span_commits: Optional[list[int]] = None
        # Self-containment verdicts per span of this base artifact (shared
        # across all splices against it; see `_SPAN_META_REGISTRY`).
        self._span_meta = _span_meta(base)
        # Prefix checkpointing (see `_PREFIX_REGISTRY`): when set, `run`
        # captures the replay state just before the journal index
        # `_checkpoint_at` into `_checkpoints` for later splices to restore.
        self._checkpoint_at: Optional[int] = None
        self._checkpoints: Optional[dict] = None
        # True while every committed mapping so far is the identity: lets
        # the replay drop back into the cheap identity prefix after a
        # region that allocated the exact same variables as its base.
        self._mu_identity = True
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
        themselves — and looked up in the warm cache the region re-encode
        populated: a cold compile's encode of this callee would hit exactly
        that entry.  A miss means the new region never built the gate, so
        the span cannot be replayed — decline (rolled back to a live
        encode by the caller)."""
        event = self._span_gate_index.get(var)
        if event is None:
            raise SpliceDecline
        _, op, key1, key2, _out, _nclauses = event
        if op in _PACKED_OPS:
            first = (key1 + (1 << 31)) >> 32
            second = key1 - (first << 32)
            mapped1 = self._map_lit(first) * (1 << 32) + self._map_lit(second)
        else:
            mapped1 = self._map_lit(key1)
        mapped2 = self._map_lit(key2)
        cached = self.builder._gate_cache.get((op, mapped1, mapped2))
        if cached is None:
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

        Usually cached by the "grp" replay; the lazy path covers groups
        whose first base registration happened *inside* a region span (an
        unchanged helper first called from a changed function): the region
        re-encode has already created the warm group, so the base identity
        just needs remapping.  A group the warm context never created means
        the encodings diverged — decline.
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

    def _materialize(self) -> None:
        """Switch from the implicit identity prefix to an explicit map."""
        if self.context.num_vars != self.base_cursor:  # pragma: no cover
            raise SpliceDecline
        self.mu = list(range(self.base_cursor + 1)) + [0] * (
            self.base.num_vars - self.base_cursor
        )

    # ----------------------------------------------------------------- run

    def _capture_checkpoint(self, pending: int) -> dict:
        """Snapshot the replay state just before a journal index.

        Taken only while the map is still the identity: everything stored
        is either immutable (event tuples, group keys) or shallow-copied,
        and `_restore_checkpoint` copies again on the way out, so a stored
        checkpoint is never aliased by a live compile.
        """
        context = self.context
        return {
            "pending": pending,
            "num_vars": context.num_vars,
            "base_cursor": self.base_cursor,
            "sig": context._sig,
            "gates_emitted": context.gates_emitted,
            "gate_hits": context.gate_hits,
            "true_lit": context._true_lit,
            "hard": list(context.hard),
            "journal": list(context.journal),
            "groups": {g: list(c) for g, c in context.groups.items()},
            "group_table": list(context.group_table),
            "gate_cache": dict(self.builder._gate_cache),
            "mapped_groups": dict(self.mapped_groups),
            "steps": list(self.steps),
            "violations": list(self.violations),
            "nondet_bits": list(self.nondet_bits),
            "input_bits": dict(self.input_bits),
            "return_bits": self.return_bits,
            "narrowed_vars": self.checker._narrowed_vars,
        }

    def _restore_checkpoint(self, state: dict, index: int) -> tuple[int, int]:
        """Install a stored prefix state; returns (journal index, pending)."""
        context = self.context
        context.num_vars = state["num_vars"]
        self.base_cursor = state["base_cursor"]
        context._sig = state["sig"]
        context.gates_emitted = state["gates_emitted"]
        context.gate_hits = state["gate_hits"]
        context._true_lit = state["true_lit"]
        self.builder.forget_true()
        context.hard[:] = state["hard"]
        context.journal[:] = state["journal"]
        context.groups.clear()
        for group, clauses in state["groups"].items():
            context.groups[group] = list(clauses)
        context.group_table[:] = state["group_table"]
        context._group_ids.clear()
        context._group_ids.update(
            (group, i) for i, group in enumerate(context.group_table)
        )
        cache = self.builder._gate_cache
        cache.clear()
        cache.update(state["gate_cache"])
        self.mapped_groups.clear()
        self.mapped_groups.update(state["mapped_groups"])
        self.steps[:] = state["steps"]
        self.violations[:] = state["violations"]
        self.nondet_bits[:] = state["nondet_bits"]
        self.input_bits.clear()
        self.input_bits.update(state["input_bits"])
        self.return_bits = state["return_bits"]
        self.checker._narrowed_vars = state["narrowed_vars"]
        return index, state["pending"]

    def run(self, start_index: int = 0, start_pending: int = 0) -> None:
        """Replay every journal event, entering `_region` at changed calls.

        This loop dominates warm-compile time, so the three frequent event
        kinds ("c" clauses, "v" allocation runs, "g" gate insertions) are
        inlined against local aliases instead of going through the context
        methods, and while the map is still the identity the original event
        tuples and clause lists are appended verbatim (shared, not copied).
        The pending-variable run-length counter is kept in a local and only
        synchronized with the context around the rare event kinds and
        region re-encodes.
        """
        events = self.base.journal
        context = self.context
        builder = self.builder
        checker = self.checker
        hard_append = context.hard.append
        journal = context.journal
        journal_append = journal.append
        groups = context.groups
        group_ids = context._group_ids
        gate_cache = builder._gate_cache
        mapped_groups = self.mapped_groups
        fnv = 0x100000001B3
        mask64 = 0xFFFFFFFFFFFFFFFF
        mask32 = 0xFFFFFFFF
        mu: Optional[list[int]] = None
        pending = start_pending
        index, count = start_index, len(events)
        while index < count:
            event = events[index]
            tag = event[0]
            if tag == "c":
                dest = event[1]
                if mu is None:
                    mapped_event, clause = event, event[2]
                else:
                    clause = []
                    for lit in event[2]:
                        m = mu[lit] if lit > 0 else -mu[-lit]
                        if not m:
                            raise SpliceDecline
                        clause.append(m)
                    mapped_event = None
                if dest < 0:
                    hard_append(clause)
                    if pending:
                        journal_append(("v", pending))
                        pending = 0
                    journal_append(mapped_event or ("c", -1, clause))
                else:
                    group = mapped_groups.get(dest)
                    if group is None:
                        group = self._group_for_gid(dest)
                    gid = group_ids[group]
                    groups[group].append(clause)
                    if pending:
                        journal_append(("v", pending))
                        pending = 0
                    if mapped_event is not None and gid == dest:
                        journal_append(mapped_event)
                    else:
                        journal_append(("c", gid, clause))
            elif tag == "v":
                n = event[1]
                pending += n
                if mu is None:
                    context.num_vars += n
                    self.base_cursor += n
                else:
                    var = context.num_vars
                    cursor = self.base_cursor
                    for offset in range(1, n + 1):
                        mu[cursor + offset] = var + offset
                    context.num_vars = var + n
                    self.base_cursor = cursor + n
            elif tag == "g":
                # A gate event owns its output variable (it is excluded from
                # the "v" runs) and precedes its definition clauses, whose
                # count it carries — so a replay can reproduce both of cold's
                # behaviors: fresh insertion (allocate + emit) and cache hit
                # (neither; the definition clauses are skipped wholesale).
                if mu is None:
                    op, m1, m2, mout = event[1], event[2], event[3], event[4]
                    cached = gate_cache.get((op, m1, m2))
                    if cached is not None:
                        # Possible only after an identity-resumed region
                        # built this gate first: a cold compile of the new
                        # version hits the cache here, so leave the
                        # identity prefix and elide the insertion.
                        self._materialize()
                        self._mu_identity = False
                        mu = self.mu
                        mu[mout] = cached
                        self.base_cursor += 1
                        context.gate_hits += 1
                        index += 1 + event[5]
                        continue
                    context.num_vars += 1
                    self.base_cursor += 1
                    mapped_event = event
                else:
                    op, key1, key2, out, nclauses = (
                        event[1],
                        event[2],
                        event[3],
                        event[4],
                        event[5],
                    )
                    # The mapped key must still be in the builder's canonical
                    # form (operand order, sign placement) and must not hit
                    # any constant-folding case the live encoder would have
                    # reduced away — the replay copies the base key and its
                    # definition clauses verbatim, so any such divergence
                    # would produce bytes a cold compile never emits.  A
                    # region re-encode may legally map recovered gate
                    # outputs *backwards* (cross-span structure sharing the
                    # new version unifies), so the map as a whole need not
                    # be order-preserving; only each key's internal order
                    # matters, and it is checked here at the point of use.
                    tl = context.true_lit or 0
                    if op >= 3:  # packed first component: ITE / XOR3 / MAJ
                        first = (key1 + (1 << 31)) >> 32
                        second = key1 - (first << 32)
                        # A majority key may carry one negative literal in
                        # front; map sign-preservingly (never index mu with
                        # a negative, which would silently read the tail).
                        mf = mu[first] if first > 0 else -mu[-first]
                        ms = mu[second] if second > 0 else -mu[-second]
                        m2 = mu[key2] if key2 > 0 else -mu[-key2]
                        if not mf or not ms or not m2:
                            raise SpliceDecline
                        if op == 3:  # ITE: cond, then, else
                            if (
                                mf == tl
                                or ms == tl
                                or ms == -tl
                                or m2 == tl
                                or m2 == -tl
                                or ms == m2
                                or ms == -m2
                            ):
                                raise SpliceDecline
                        elif op == 4:  # XOR3: ascending positive inputs
                            if not mf < ms < m2 or mf == tl or ms == tl or m2 == tl:
                                raise SpliceDecline
                        else:  # MAJ: value-sorted, <=1 negative in front
                            if (
                                not mf < ms < m2
                                or mf == -ms
                                or mf == -m2
                                or mf == tl
                                or mf == -tl
                                or ms == tl
                                or m2 == tl
                            ):
                                raise SpliceDecline
                        m1 = mf * (1 << 32) + ms
                    else:
                        m1 = mu[key1] if key1 > 0 else -mu[-key1]
                        m2 = mu[key2] if key2 > 0 else -mu[-key2]
                        if not m1 or not m2:
                            raise SpliceDecline
                        if op == 1:  # AND: value-sorted signed literals
                            if (
                                not m1 < m2
                                or m1 == -m2
                                or m1 == tl
                                or m1 == -tl
                                or m2 == tl
                                or m2 == -tl
                            ):
                                raise SpliceDecline
                        elif not m1 < m2 or m1 == tl or m2 == tl:
                            # XOR: ascending positive inputs
                            raise SpliceDecline
                    self.base_cursor += 1
                    cached = gate_cache.get((op, m1, m2))
                    if cached is not None:
                        # A region re-encode already built this gate, so a
                        # cold compile of the new version would hit the
                        # cache here: no allocation, no clauses.  Elide the
                        # insertion and skip its definition clauses.
                        mu[out] = cached
                        self._mu_identity = False
                        context.gate_hits += 1
                        index += 1 + nclauses
                        continue
                    mout = context.num_vars + 1
                    context.num_vars = mout
                    mu[out] = mout
                    mapped_event = ("g", op, m1, m2, mout, nclauses)
                gate_cache[(op, m1, m2)] = mout
                context.gates_emitted += 1
                sig = context._sig
                sig = ((sig ^ (op & mask32)) * fnv) & mask64
                sig = ((sig ^ (m1 & mask32)) * fnv) & mask64
                sig = ((sig ^ (m2 & mask32)) * fnv) & mask64
                sig = ((sig ^ (mout & mask32)) * fnv) & mask64
                context._sig = sig
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(mapped_event)
            else:
                # Rare events go through the context methods; hand them the
                # accumulated pending-variable run and reclaim the (flushed
                # or untouched) remainder afterwards.
                context._pending_vars = pending
                if tag == "grp":
                    gid = event[1]
                    group = self.base.group_table[gid]
                    mapped_group = StatementGroup(
                        line=self.line_map.get(group.line, group.line),
                        function=group.function,
                        iteration=group.iteration,
                    )
                    self.mapped_groups[gid] = mapped_group
                    if mapped_group not in context._group_ids:
                        # Already registered means an earlier region
                        # re-encode created the group first — exactly what
                        # a cold compile of the new version would have done.
                        context.groups.setdefault(mapped_group, [])
                        context.record(("grp", context.group_id(mapped_group)))
                elif tag == "s":
                    _, line, fn, kind, iteration = event
                    mapped_line = self.line_map.get(line, line)
                    self.steps.append(
                        TraceStep(
                            line=mapped_line,
                            function=fn,
                            kind=kind,
                            iteration=iteration,
                        )
                    )
                    context.record(("s", mapped_line, fn, kind, iteration))
                elif tag == "ce":
                    fn = event[1]
                    if fn in self.region:
                        if (
                            index == self._checkpoint_at
                            and mu is None
                            and self._mu_identity
                        ):
                            self._checkpoints[index] = self._capture_checkpoint(
                                pending
                            )
                        index = self._region(index)
                        pending = context._pending_vars
                        context._pending_vars = 0
                        mu = self.mu
                        continue
                    _, _, depth, gid, guard, args, snapshot = event
                    mapped_gid = (
                        -1
                        if gid < 0
                        else context._group_ids[self._group_for_gid(gid)]
                    )
                    context.record(
                        (
                            "ce",
                            fn,
                            depth,
                            mapped_gid,
                            self._map_lit(guard),
                            tuple(self._map_bits(a) for a in args),
                            self._map_snapshot(snapshot),
                        )
                    )
                elif tag == "cx":
                    _, fn, result, snapshot = event
                    context.record(
                        ("cx", fn, self._map_bits(result), self._map_snapshot(snapshot))
                    )
                elif tag == "t":
                    base_var = event[1]
                    lit = context.true_lit
                    self.base_cursor += 1
                    if mu is not None:
                        mu[base_var] = lit
                        if lit != base_var:
                            self._mu_identity = False
                    elif lit != base_var:  # pragma: no cover - defensive
                        raise SpliceDecline
                elif tag == "nw":
                    checker._narrowed_vars += event[1]
                    context.record(event)
                elif tag == "nd":
                    bits = self._map_bits(event[1])
                    self.nondet_bits.append(bits)
                    context.record(("nd", bits))
                elif tag == "viol":
                    _, line, lit = event
                    mapped_line = self.line_map.get(line, line)
                    mapped_lit = self._map_lit(lit)
                    self.violations.append((mapped_line, mapped_lit))
                    context.record(("viol", mapped_line, mapped_lit))
                elif tag == "in":
                    _, name, bits = event
                    mapped_bits = self._map_bits(bits)
                    self.input_bits[name] = mapped_bits
                    context.record(("in", name, mapped_bits))
                elif tag == "ret":
                    mapped_bits = self._map_bits(event[1])
                    self.return_bits = mapped_bits
                    context.record(("ret", mapped_bits))
                else:  # pragma: no cover - defensive
                    raise SpliceDecline
                pending = context._pending_vars
                context._pending_vars = 0
            index += 1
        context._pending_vars = pending
        context._flush_vars()

    # -------------------------------------------------------------- regions

    def _region(self, index: int) -> int:
        """Re-encode one changed call subtree; return the next journal index.

        The base journal's ``ce`` event at ``index`` carries the complete
        interface the inlined subtree depended on; the matching ``cx``
        carries everything the caller observed.  The subtree in between is
        discarded and the real encoder runs on the new program's function,
        after which the variable map is extended by pairing the old and new
        interface bits.
        """
        events = self.base.journal
        _, fn, depth, gid, guard, args, snapshot = events[index]
        if self.mu is None:
            self._materialize()
        context = self.context
        builder = self.builder
        checker = self.checker
        region_base_start = self.base_cursor
        region_new_start = context.num_vars

        # One pass over the discarded subtree, up front: find the matching
        # call-exit, count the subtree's variable allocations, collect its
        # gate insertions (their outputs may be shared with later code and
        # need recovering below), and build the call-span tree — for every
        # span, at every depth, the list of its direct child spans.  The
        # hook pairs the new body's calls with these positionally; a clean
        # child (no changed function anywhere below) is replayed wholesale,
        # a dirty one is encoded live *with its own children pushed*, so
        # unchanged callees keep replaying at every depth under a change.
        children: list[list] = []
        children_by_start: dict[int, list] = {}
        span_gates: list[tuple] = []
        unchanged = self.unchanged
        # Scan stack frames: (span entry | None for the region root, kids).
        stack: list[tuple[Optional[list], list]] = [(None, children)]
        cursor = self.base_cursor
        scan = index + 1
        while True:
            event = events[scan]
            tag = event[0]
            if tag == "c":
                pass
            elif tag == "v":
                cursor += event[1]
            elif tag == "g":
                cursor += 1
                span_gates.append(event)
            elif tag == "ce":
                # [fn, start index, base-var cursor at entry, clean]
                stack.append(
                    ([event[1], scan, cursor, event[1] in unchanged], [])
                )
            elif tag == "cx":
                entry, kids = stack.pop()
                if entry is None:
                    break
                children_by_start[entry[1]] = kids
                parent_entry, parent_kids = stack[-1]
                parent_kids.append(entry)
                if not entry[3] and parent_entry is not None:
                    # A changed function below poisons every enclosing span.
                    parent_entry[3] = False
            elif tag == "t":  # pragma: no cover - true_lit precedes any call
                cursor += 1
            scan += 1
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
        self._region_gate_index = {e[4]: e for e in span_gates}
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

        self.base_cursor = end_cursor
        base_event = events[end_index]
        base_result, base_snapshot = base_event[2], base_event[3]
        region_base_end = self.base_cursor
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
        # key, so the warm cache tells us its output variable.  Gates whose
        # inputs are region-internal stay unmapped — if later code somehow
        # referenced one anyway, `_map_lit` declines at that use.
        cache = self.builder._gate_cache

        def look(lit: int) -> int:
            """`_map_lit` without the decline exception: 0 when unmapped."""
            mapped = mu[lit] if lit > 0 else mu[-lit]
            if not mapped:
                return 0
            return mapped if lit > 0 else -mapped

        for _, op, key1, key2, out, _nclauses in span_gates:
            if mu[out]:
                continue
            if op in _PACKED_OPS:
                first = (key1 + (1 << 31)) >> 32
                second = key1 - (first << 32)
                mapped_first = look(first)
                mapped_second = look(second)
                if not mapped_first or not mapped_second:
                    continue
                mapped1 = mapped_first * (1 << 32) + mapped_second
            else:
                mapped1 = look(key1)
                if not mapped1:
                    continue
            mapped2 = look(key2)
            if not mapped2:
                continue
            shared = cache.get((op, mapped1, mapped2))
            if shared is not None:
                mu[out] = shared

        # A region whose re-encode allocated the exact same variables as
        # its base subtree — every pairing the identity — leaves the map
        # indistinguishable from the identity prefix, so the replay can
        # resume the cheap shared-event path.  (Unmapped subtree-internal
        # variables are unreachable from later code except through the
        # gate cache, which the elision path consults live either way.)
        if self._mu_identity and context.num_vars == self.base_cursor:
            start = region_base_start + 1
            if all(
                m == 0 or m == v
                for v, m in enumerate(mu[start : region_base_end + 1], start)
            ):
                self.mu = None
            else:
                self._mu_identity = False
        else:
            self._mu_identity = False
        return end_index + 1

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
        fn, start, cursor0, clean = children[k]
        if fn != name:
            return None
        if clean:
            result = self._replay_span_identity(name, start, cursor0, frame, guard)
            if result is None:
                result = self._replay_span(name, start, cursor0, frame, guard)
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

    def _span_external_refs(self, start: int, cursor0: int) -> Optional[tuple]:
        """Variables the base call span at ``start`` references from outside
        its own interface (the ``ce`` guard/argument/global bits), its own
        allocations and the constant-true variable — in practice, outputs of
        gates structure-shared from earlier in the base journal.  ``None``
        when the span contains an event the identity fast path cannot share
        (a misnumbered gate output or an out-of-place rare event).

        A property of the base journal alone, so the result is memoized on
        the artifact and shared by every splice against it.  The fast path
        may share the span's events verbatim once every external reference
        is proven identity-mapped: every other literal it emits is either
        pinned equal by the interface check or allocated at an identical
        position by the aligned cursors.
        """
        cached = self._span_meta.get(start, False)
        if cached is not False:
            return cached
        events = self.base.journal
        base_ce = events[start]
        iface: set[int] = set()

        def absorb(bits) -> None:
            for lit in bits:
                iface.add(lit if lit > 0 else -lit)

        guard = base_ce[4]
        iface.add(guard if guard > 0 else -guard)
        for bits in base_ce[5]:
            absorb(bits)
        for _, value in base_ce[6]:
            if value and isinstance(value[0], int):
                absorb(value)
            else:
                for cell in value:
                    absorb(cell)
        if self.base.true_lit:
            iface.add(abs(self.base.true_lit))

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

        def scan_snapshot(snapshot, cursor: int) -> bool:
            for _, value in snapshot:
                if value and isinstance(value[0], int):
                    if not scan(value, cursor):
                        return False
                else:
                    for cell in value:
                        if not scan(cell, cursor):
                            return False
            return True

        ok = True
        cursor = cursor0
        index = start + 1
        nesting = 1
        while ok:
            event = events[index]
            tag = event[0]
            if tag == "c":
                ok = scan(event[2], cursor)
            elif tag == "v":
                cursor += event[1]
            elif tag == "g":
                op, key1, key2 = event[1], event[2], event[3]
                if op in _PACKED_OPS:
                    first = (key1 + (1 << 31)) >> 32
                    keys = (first, key1 - (first << 32), key2)
                else:
                    keys = (key1, key2)
                cursor += 1
                ok = scan(keys, cursor) and event[4] == cursor
            elif tag == "ce":
                nesting += 1
                ok = (
                    scan((event[4],), cursor)
                    and all(scan(bits, cursor) for bits in event[5])
                    and scan_snapshot(event[6], cursor)
                )
            elif tag == "cx":
                nesting -= 1
                ok = scan(event[2], cursor) and scan_snapshot(event[3], cursor)
                if nesting == 0:
                    break
            elif tag == "nd":
                ok = scan(event[1], cursor)
            elif tag == "viol":
                ok = scan((event[2],), cursor)
            elif tag in ("s", "grp", "nw"):
                pass
            else:  # "t"/"in"/"ret" cannot occur inside a call span
                ok = False
            index += 1
        refs = tuple(sorted(external)) if ok else None
        self._span_meta[start] = refs
        return refs

    def _replay_span_identity(
        self, name: str, start: int, cursor0: int, frame: _Frame, guard: int
    ):
        """Replay a clean span by sharing the base events verbatim.

        Applies when the live call interface is bit-for-bit the base one
        (same guard, argument and global literals), the warm variable
        counter sits exactly at the span's base cursor, the constant-true
        literal agrees, and the span is self-contained: then a cold compile
        of the new version would emit exactly the bytes the base journal
        already holds, so the replay appends the original event tuples and
        clause lists without rebuilding them.  The one live decision left
        is the gate cache — a hit (a region re-encode built one of these
        gates first) changes the bytes, so the attempt rolls back and
        returns ``None``; the caller redoes the span under the variable
        map, whose elision path handles the hit correctly.
        """
        context = self.context
        checker = self.checker
        if cursor0 != context.num_vars:
            return None
        if self.base.true_lit != context.true_lit:
            return None
        events = self.base.journal
        base_ce = events[start]
        base_guard, base_args, base_snapshot = base_ce[4], base_ce[5], base_ce[6]
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
        refs = self._span_external_refs(start, cursor0)
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

        # ---------------------------------------------------- state snapshot
        journal = context.journal
        saved_num_vars = context.num_vars
        saved_sig = context._sig
        saved_emitted = context.gates_emitted
        saved_pending = context._pending_vars
        saved_hard = len(context.hard)
        saved_journal = len(journal)
        saved_groups = len(context.group_table)
        saved_steps = len(self.steps)
        saved_viol = len(self.violations)
        saved_nondet = len(self.nondet_bits)
        saved_narrowed = checker._narrowed_vars
        cache_keys: list[tuple] = []
        grouped: list[list] = []
        gids_mapped: list[int] = []

        gate_cache = self.builder._gate_cache
        mapped_groups = self.mapped_groups
        group_ids = context._group_ids
        hard_append = context.hard.append
        journal_append = journal.append
        line_map = self.line_map
        fnv = 0x100000001B3
        mask64 = 0xFFFFFFFFFFFFFFFF
        mask32 = 0xFFFFFFFF

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
        ok = True
        pending = 0
        cursor = cursor0
        index = start + 1
        nesting = 1
        while True:
            event = events[index]
            tag = event[0]
            if tag == "c":
                dest = event[1]
                clause = event[2]
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                if dest < 0:
                    hard_append(clause)
                    journal_append(event)
                else:
                    mapped_group = mapped_groups.get(dest)
                    if mapped_group is None:
                        mapped_group = self._group_for_gid(dest)
                    gid = group_ids[mapped_group]
                    bucket = context.groups[mapped_group]
                    bucket.append(clause)
                    grouped.append(bucket)
                    journal_append(event if gid == dest else ("c", gid, clause))
            elif tag == "v":
                n = event[1]
                var = context.num_vars
                for offset in range(1, n + 1):
                    mu[cursor + offset] = var + offset
                    commits.append(cursor + offset)
                context.num_vars = var + n
                cursor += n
                pending += n
            elif tag == "g":
                key = (event[1], event[2], event[3])
                if key in gate_cache:
                    # A region re-encode built this gate first; cold would
                    # elide here, changing the bytes.  Redo the span mapped.
                    ok = False
                    break
                out = event[4]
                cursor += 1
                context.num_vars = out
                mu[out] = out
                commits.append(out)
                gate_cache[key] = out
                cache_keys.append(key)
                context.gates_emitted += 1
                sig = context._sig
                sig = ((sig ^ (key[0] & mask32)) * fnv) & mask64
                sig = ((sig ^ (key[1] & mask32)) * fnv) & mask64
                sig = ((sig ^ (key[2] & mask32)) * fnv) & mask64
                sig = ((sig ^ (out & mask32)) * fnv) & mask64
                context._sig = sig
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(event)
            elif tag == "cx":
                nesting -= 1
                if nesting == 0:
                    break
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(event)
            elif tag == "ce":
                nesting += 1
                gid = event[3]
                mapped_gid = (
                    -1 if gid < 0 else group_ids[self._group_for_gid(gid)]
                )
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(
                    event
                    if mapped_gid == gid
                    else ("ce", event[1], event[2], mapped_gid) + event[4:]
                )
            elif tag == "s":
                line = event[1]
                mapped_line = line_map.get(line, line)
                self.steps.append(
                    TraceStep(
                        line=mapped_line,
                        function=event[2],
                        kind=event[3],
                        iteration=event[4],
                    )
                )
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(
                    event
                    if mapped_line == line
                    else ("s", mapped_line) + event[2:]
                )
            elif tag == "grp":
                gid = event[1]
                base_group = self.base.group_table[gid]
                mapped_group = StatementGroup(
                    line=line_map.get(base_group.line, base_group.line),
                    function=base_group.function,
                    iteration=base_group.iteration,
                )
                mapped_groups[gid] = mapped_group
                gids_mapped.append(gid)
                if mapped_group not in group_ids:
                    context.groups.setdefault(mapped_group, [])
                    if pending:
                        journal_append(("v", pending))
                        pending = 0
                    journal_append(("grp", context.group_id(mapped_group)))
            elif tag == "nw":
                checker._narrowed_vars += event[1]
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(event)
            elif tag == "viol":
                line = event[1]
                mapped_line = line_map.get(line, line)
                self.violations.append((mapped_line, event[2]))
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(
                    event if mapped_line == line else ("viol", mapped_line, event[2])
                )
            elif tag == "nd":
                self.nondet_bits.append(event[1])
                if pending:
                    journal_append(("v", pending))
                    pending = 0
                journal_append(event)
            else:  # pragma: no cover - excluded by self-containment
                ok = False
                break
            index += 1

        if ok:
            base_result, base_out = event[2], event[3]
            context._pending_vars = pending
            out_globals: dict[str, object] = {}
            for gname, value in base_out:
                if value and isinstance(value[0], int):
                    out_globals[gname] = value
                else:
                    out_globals[gname] = list(value)
            checker._globals = out_globals
            context.record(("cx", name, base_result, checker._globals_snapshot()))
            return base_result

        # Roll the partial share back; the caller retries under the map.
        for var in commits:
            mu[var] = 0
        for key in cache_keys:
            del gate_cache[key]
        for bucket in reversed(grouped):
            bucket.pop()
        while len(context.group_table) > saved_groups:
            stale = context.group_table.pop()
            del group_ids[stale]
            context.groups.pop(stale, None)
        for gid in gids_mapped:
            mapped_groups.pop(gid, None)
        del context.hard[saved_hard:]
        del journal[saved_journal:]
        context.num_vars = saved_num_vars
        context._sig = saved_sig
        context.gates_emitted = saved_emitted
        context._pending_vars = saved_pending
        del self.steps[saved_steps:]
        del self.violations[saved_viol:]
        del self.nondet_bits[saved_nondet:]
        checker._narrowed_vars = saved_narrowed
        return None

    def _replay_span(
        self, name: str, start: int, cursor0: int, frame: _Frame, guard: int
    ):
        """Replay one base call span against the live interface at `frame`.

        The base journal's ``ce`` at ``start`` records the interface the
        inlined subtree depended on; the map is seeded by pairing it with
        the live arguments/guard/globals, then the span's events replay
        exactly like the top-level mapped phase (gate elision included —
        the warm cache is consulted live, so hits and misses land wherever
        a cold compile's would).  An unmappable variable, sign flip or
        shape mismatch aborts the attempt: every side effect is rolled
        back and the caller encodes the subtree live instead.  Soundness
        never rests on the pairing being "right" — a wrong pairing either
        fails seeding, hits an unmapped variable, or breaks the global
        monotonicity sweep, all of which decline.
        """
        checker = self.checker
        context = self.context
        events = self.base.journal
        mu = self.mu
        base_ce = events[start]
        _, _, _, _, base_guard, base_args, base_snapshot = base_ce
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

        # ---------------------------------------------------- state snapshot
        journal = context.journal
        saved_num_vars = context.num_vars
        saved_sig = context._sig
        saved_emitted = context.gates_emitted
        saved_hits = context.gate_hits
        saved_pending = context._pending_vars
        saved_hard = len(context.hard)
        saved_journal = len(journal)
        saved_groups = len(context.group_table)
        saved_steps = len(self.steps)
        saved_viol = len(self.violations)
        saved_nondet = len(self.nondet_bits)
        saved_narrowed = checker._narrowed_vars
        commits: list[int] = []
        cache_keys: list[tuple] = []
        grouped: list[list] = []
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

        gate_cache = self.builder._gate_cache
        mapped_groups = self.mapped_groups
        group_ids = context._group_ids
        hard_append = context.hard.append
        journal_append = journal.append
        line_map = self.line_map
        fnv = 0x100000001B3
        mask64 = 0xFFFFFFFFFFFFFFFF
        mask32 = 0xFFFFFFFF
        resolve = self._resolve_span_var

        def sl(lit: int) -> int:
            """Span-lit map: mu with fallback to shared-gate resolution."""
            var = lit if lit > 0 else -lit
            mapped = mu[var]
            if not mapped:
                mapped = resolve(var)
            return mapped if lit > 0 else -mapped

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

            pending = 0
            cursor = cursor0
            index = start + 1
            nesting = 1
            while True:
                event = events[index]
                tag = event[0]
                if tag == "c":
                    dest = event[1]
                    clause = []
                    for lit in event[2]:
                        if lit > 0:
                            m = mu[lit]
                            if not m:
                                m = resolve(lit)
                        else:
                            m = mu[-lit]
                            if not m:
                                m = resolve(-lit)
                            m = -m
                        clause.append(m)
                    if pending:
                        journal_append(("v", pending))
                        pending = 0
                    if dest < 0:
                        hard_append(clause)
                        journal_append(("c", -1, clause))
                    else:
                        group = mapped_groups.get(dest)
                        if group is None:
                            group = self._group_for_gid(dest)
                        context.groups[group].append(clause)
                        grouped.append(context.groups[group])
                        journal_append(("c", group_ids[group], clause))
                elif tag == "v":
                    n = event[1]
                    var = context.num_vars
                    for offset in range(1, n + 1):
                        mu[cursor + offset] = var + offset
                        commits.append(cursor + offset)
                    context.num_vars = var + n
                    cursor += n
                    pending += n
                elif tag == "g":
                    op, key1, key2, out, nclauses = (
                        event[1],
                        event[2],
                        event[3],
                        event[4],
                        event[5],
                    )
                    if op >= 3:
                        first = (key1 + (1 << 31)) >> 32
                        second = key1 - (first << 32)
                        m1 = sl(first) * (1 << 32) + sl(second)
                    else:
                        m1 = sl(key1)
                    m2 = sl(key2)
                    cursor += 1
                    cached = gate_cache.get((op, m1, m2))
                    if cached is not None:
                        mu[out] = cached
                        commits.append(out)
                        context.gate_hits += 1
                        index += 1 + nclauses
                        continue
                    mout = context.num_vars + 1
                    context.num_vars = mout
                    mu[out] = mout
                    commits.append(out)
                    gate_cache[(op, m1, m2)] = mout
                    cache_keys.append((op, m1, m2))
                    context.gates_emitted += 1
                    sig = context._sig
                    sig = ((sig ^ (op & mask32)) * fnv) & mask64
                    sig = ((sig ^ (m1 & mask32)) * fnv) & mask64
                    sig = ((sig ^ (m2 & mask32)) * fnv) & mask64
                    sig = ((sig ^ (mout & mask32)) * fnv) & mask64
                    context._sig = sig
                    if pending:
                        journal_append(("v", pending))
                        pending = 0
                    journal_append(("g", op, m1, m2, mout, nclauses))
                elif tag == "cx":
                    nesting -= 1
                    context._pending_vars = pending
                    pending = 0
                    if nesting == 0:
                        break
                    _, fn, res, snap = event
                    context.record(
                        ("cx", fn, self._map_bits(res), self._map_snapshot(snap))
                    )
                    pending = context._pending_vars
                    context._pending_vars = 0
                else:
                    context._pending_vars = pending
                    pending = 0
                    if tag == "ce":
                        nesting += 1
                        _, fn, depth, gid, g, a, snap = event
                        mapped_gid = (
                            -1
                            if gid < 0
                            else group_ids[self._group_for_gid(gid)]
                        )
                        context.record(
                            (
                                "ce",
                                fn,
                                depth,
                                mapped_gid,
                                self._map_lit(g),
                                tuple(self._map_bits(b) for b in a),
                                self._map_snapshot(snap),
                            )
                        )
                    elif tag == "grp":
                        gid = event[1]
                        base_group = self.base.group_table[gid]
                        mapped_group = StatementGroup(
                            line=line_map.get(base_group.line, base_group.line),
                            function=base_group.function,
                            iteration=base_group.iteration,
                        )
                        mapped_groups[gid] = mapped_group
                        gids_mapped.append(gid)
                        if mapped_group not in group_ids:
                            context.groups.setdefault(mapped_group, [])
                            context.record(("grp", context.group_id(mapped_group)))
                    elif tag == "s":
                        _, line, fn, kind, iteration = event
                        mapped_line = line_map.get(line, line)
                        self.steps.append(
                            TraceStep(
                                line=mapped_line,
                                function=fn,
                                kind=kind,
                                iteration=iteration,
                            )
                        )
                        context.record(("s", mapped_line, fn, kind, iteration))
                    elif tag == "nw":
                        checker._narrowed_vars += event[1]
                        context.record(event)
                    elif tag == "nd":
                        bits = self._map_bits(event[1])
                        self.nondet_bits.append(bits)
                        context.record(("nd", bits))
                    elif tag == "viol":
                        _, line, lit = event
                        mapped_line = line_map.get(line, line)
                        mapped_lit = self._map_lit(lit)
                        self.violations.append((mapped_line, mapped_lit))
                        context.record(("viol", mapped_line, mapped_lit))
                    else:
                        # "t"/"in"/"ret" cannot occur inside a call span.
                        raise SpliceDecline
                    pending = context._pending_vars
                    context._pending_vars = 0
                index += 1

            # Matching call-exit: the caller observes the mapped result and
            # the mapped globals-out snapshot.
            _, _, base_result, base_out = event
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
            # Roll every side effect back and let the live encoder take
            # over; declining a span is as safe as declining the splice.
            for var in commits:
                mu[var] = 0
            for key in cache_keys:
                del gate_cache[key]
            for clauses in reversed(grouped):
                clauses.pop()
            while len(context.group_table) > saved_groups:
                stale = context.group_table.pop()
                del group_ids[stale]
                context.groups.pop(stale, None)
            for gid in gids_mapped:
                mapped_groups.pop(gid, None)
            del context.hard[saved_hard:]
            del journal[saved_journal:]
            context.num_vars = saved_num_vars
            context._sig = saved_sig
            context.gates_emitted = saved_emitted
            context.gate_hits = saved_hits
            context._pending_vars = saved_pending
            del self.steps[saved_steps:]
            del self.violations[saved_viol:]
            del self.nondet_bits[saved_nondet:]
            checker._narrowed_vars = saved_narrowed
            return None
        finally:
            self._span_gate_index = None
            self._span_commits = None
