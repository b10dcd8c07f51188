"""The reusable whole-program encoding artifact behind the session API.

The paper's Table 1 protocol localizes *every* failing test of a TCAS
version independently, yet the CBMC-style whole-program encoding is
identical across all of them — only the test-input equalities and the
post-condition units change.  :class:`CompiledProgram` captures exactly the
invariant part: the program CNF (hard structural clauses plus one clause
group per statement, as the encoder arena's flat clause store), the
bit-vectors of the entry function's inputs,
``nondet()`` results and return value, and the assertion-violation
literals.

The per-test part is *data*, not encoding: :meth:`CompiledProgram.test_clauses`
derives the handful of unit clauses pinning the inputs and asserting the
specification, which a :class:`~repro.core.session.LocalizationSession`
asserts as a retractable layer on a persistent MaxSAT engine.  The artifact
is a plain picklable value, so a process pool can ship it to each worker
once and shard failing tests across workers.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Mapping, Optional, Sequence

from repro import obs

from repro.encoding.arena import split_clauses
from repro.encoding.context import StatementGroup
from repro.encoding.trace import TraceFormula, TraceStep
from repro.lang.semantics import to_unsigned, wrap
from repro.spec import Specification

Bits = tuple[int, ...]

#: Version stamp of the pickled artifact layout.  Bumped whenever the
#: :class:`CompiledProgram` fields (or anything reachable from them, such as
#: :class:`~repro.encoding.context.StatementGroup`) change incompatibly, so a
#: content-addressed store never deserializes a stale on-disk spill into a
#: newer process — it recompiles instead.
ARTIFACT_FORMAT_VERSION = 6

#: Magic prefix of a serialized artifact (sanity check before unpickling).
_ARTIFACT_MAGIC = b"repro-artifact\x00"


class ArtifactFormatError(ValueError):
    """A serialized artifact is corrupt or from an incompatible version."""


def artifact_key(program_text: str, options: Mapping[str, object]) -> str:
    """Stable content hash addressing one compiled artifact.

    The key covers everything that determines the compiled CNF: the program
    source text, the encoding options (width, unwind bound, entry function,
    hard functions, program name), the artifact format version, and the
    library version — the last so that upgrading to a build with a changed
    encoder (new gate rewrites, different clause forms) can never serve a
    stale persistent spill whose pickle layout happens to still load.  The gate-cache signature of the *result* is a
    function of exactly these inputs, so hashing the inputs gives a key
    that can be computed before (and without) compiling.  Canonical JSON
    keeps the hash independent of dict ordering.
    """
    from repro.version import __version__

    canonical = json.dumps(
        {
            "format": ARTIFACT_FORMAT_VERSION,
            "library": __version__,
            "options": _canonical_options(options),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256()
    digest.update(canonical.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(program_text.encode("utf-8"))
    return digest.hexdigest()


def _canonical_options(options: Mapping[str, object]) -> dict:
    """Normalize option values so equivalent spellings hash identically."""
    canonical: dict[str, object] = {}
    for name, value in options.items():
        if isinstance(value, (set, frozenset)):
            canonical[name] = sorted(value)
        elif isinstance(value, tuple):
            canonical[name] = list(value)
        else:
            canonical[name] = value
    return canonical


def dumps_artifact(compiled: "CompiledProgram") -> bytes:
    """Serialize an artifact with the format-version envelope."""
    return (
        _ARTIFACT_MAGIC
        + ARTIFACT_FORMAT_VERSION.to_bytes(4, "big")
        + pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
    )


def peek_artifact_version(data: bytes) -> Optional[int]:
    """The format version stamped in an artifact's envelope, or ``None``
    when the bytes do not start with the artifact magic.  Reads only the
    header: callers can pass the first :data:`ARTIFACT_HEADER_BYTES` of a
    spill file to triage stale formats without unpickling anything."""
    header = len(_ARTIFACT_MAGIC) + 4
    if len(data) < header or not data.startswith(_ARTIFACT_MAGIC):
        return None
    return int.from_bytes(data[len(_ARTIFACT_MAGIC) : header], "big")


#: Bytes of envelope needed by :func:`peek_artifact_version`.
ARTIFACT_HEADER_BYTES = len(_ARTIFACT_MAGIC) + 4


def loads_artifact(data: bytes) -> "CompiledProgram":
    """Deserialize an artifact, raising :class:`ArtifactFormatError` when the
    envelope is missing, the format version differs, or the pickle is corrupt."""
    header = len(_ARTIFACT_MAGIC) + 4
    if len(data) < header or not data.startswith(_ARTIFACT_MAGIC):
        raise ArtifactFormatError("not a serialized CompiledProgram artifact")
    version = int.from_bytes(data[len(_ARTIFACT_MAGIC) : header], "big")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactFormatError(
            f"artifact format {version} incompatible with {ARTIFACT_FORMAT_VERSION}"
        )
    try:
        compiled = pickle.loads(data[header:])
    except Exception as exc:
        raise ArtifactFormatError(f"corrupt artifact pickle: {exc}") from exc
    if not isinstance(compiled, CompiledProgram):
        raise ArtifactFormatError(
            f"artifact pickle holds {type(compiled).__name__}, not CompiledProgram"
        )
    return compiled


def _set_encode_profile(compiled: "CompiledProgram", profile: dict) -> None:
    """Attach the encode profile (emission backend, phase wall times and
    analysis solve counts).

    Held in :mod:`repro.obs`'s id-keyed weakref side table and *never*
    pickled: timings differ run to run and backend to backend, while
    artifact bytes must stay bit-identical whichever emission core filled
    the buffers.
    """
    obs.attach_profile(compiled, profile)


def _int_array() -> array:
    return array("q")


@dataclass
class CompiledProgram:
    """The invariant whole-program CNF of one entry function.

    Produced by :meth:`repro.bmc.BoundedModelChecker.compile_program` (or
    the warm :func:`repro.bmc.splice.splice_compile`).  The clauses never
    mention a concrete test.  They are kept as the encoder's flat clause
    store — ``lits``/``ends``/``gids`` in emission order, group indexes
    into ``group_table`` — and the flat emission journal, exactly as the
    arena filled them: a session loads the store without a flatten pass,
    and the splice replays the journal.  The read-only views ``hard`` (the
    structural clauses: guards, multiplexers, unwinding assumptions) and
    ``groups`` (the per-statement transition clauses that become soft
    selector groups) are built on demand.  The bit-vector maps locate the
    points where a test plugs in.
    """

    program_name: str
    entry: str
    width: int
    unwind: int
    num_vars: int
    params: tuple[str, ...]
    #: Every clause's literals, concatenated in emission order.
    lits: array = field(default_factory=_int_array)
    #: Per clause, its end offset into ``lits`` (start = previous end).
    ends: array = field(default_factory=_int_array)
    #: Per clause, its index into ``group_table`` (-1 = hard).
    gids: array = field(default_factory=_int_array)
    steps: list[TraceStep] = field(default_factory=list)
    input_bits: dict[str, Bits] = field(default_factory=dict)
    nondet_bits: list[Bits] = field(default_factory=list)
    return_bits: Optional[Bits] = None
    violations: tuple[tuple[int, int], ...] = ()
    true_lit: Optional[int] = None
    #: Structure-hashing statistics of the compile (gate-cache hits).
    gates_shared: int = 0
    #: Structural gate-cache signature: equal signatures mean equal
    #: encodings (warm splices are checked against cold compiles by it).
    signature: str = ""
    #: Static-analysis lint findings for the compiled program, as
    #: :class:`~repro.lang.diagnostics.Diagnostic` records.
    diagnostics: tuple = ()
    #: Statement lines outside the backward slice of any assertion: their
    #: writes provably cannot reach a checked variable, so localization
    #: keeps their clause groups hard (never a fault candidate).
    pruned_lines: tuple[int, ...] = ()
    #: Bits eliminated by analysis-guided range narrowing during compile.
    narrowed_vars: int = 0
    #: Canonical per-function hashes of the compiled program
    #: (:class:`~repro.analysis.impact.ProgramFingerprint`): the identity
    #: the store's nearest-ancestor index and the change-impact diff use.
    fingerprint: Optional[object] = None
    #: Emission journal: the arena's flat event stream
    #: (:mod:`repro.encoding.arena` tags; clause and gate records consume
    #: the clause store in order).  ``None`` for artifacts built without
    #: journaling.
    journal: Optional[array] = None
    #: The journal's string-bearing events, by the stream's side-list index.
    raw: list = field(default_factory=list)
    #: Every registered statement group, by the index ``gids`` and the
    #: journal use (empty groups included).
    group_table: list = field(default_factory=list)
    #: The checker options that produced this artifact (splice precondition).
    compile_options: dict = field(default_factory=dict)
    #: ``(function, line) -> (low_bits, signed)`` narrowing plans actually
    #: applied during the compile; a replay must prove these identical for
    #: every unchanged function before reusing the encoding.
    narrowing_plans: dict = field(default_factory=dict)
    #: ``(function, guard line) -> (iterations, proven)`` per-loop unwind
    #: plans applied during the compile (``repro.analysis.loops``); subject
    #: to the same splice precondition as ``narrowing_plans``.
    unwind_plans: dict = field(default_factory=dict)
    #: Loops whose proven minimum trip count exceeds what this encoding
    #: unrolled: executions through them are truncated, and localization
    #: reports derived from this artifact carry ``unwind_truncated=True``.
    truncated_loops: tuple = ()
    #: Key of the base artifact this one was warm-compiled from (``None``
    #: for cold compiles) plus the fraction of statements re-encoded.
    spliced_from: Optional[str] = None
    impact_fraction: Optional[float] = None
    #: Round-trajectory cache of the abstract interpretation that narrowed
    #: this encoding (:class:`repro.analysis.incremental.AnalysisCache`);
    #: seeds the incremental re-analysis of later program versions.
    analysis_cache: Optional[object] = None

    # ------------------------------------------------------------ statistics

    def encode_profile(self) -> dict:
        """Emission backend, per-phase wall times and analysis solve counts
        of the compile that produced this artifact: ``{"encode_backend":
        ..., "encode_phases": {phase: seconds}, "analysis_solves": n,
        "analysis_solves_reused": m}``.  Empty for unpickled or spliced
        artifacts — timings are observability data, not content, and never
        serialize."""
        return obs.profile_of(self)

    @property
    def num_clauses(self) -> int:
        """Clause count of the invariant encoding (hard plus grouped)."""
        return len(self.ends)

    @property
    def hard(self) -> list[list[int]]:
        """The hard clauses in emission order (a view built on demand)."""
        return split_clauses(self.lits, self.ends, self.gids, self.group_table)[0]

    @property
    def groups(self) -> dict[StatementGroup, list[list[int]]]:
        """Each group's clauses in emission order (a view built on demand)."""
        return split_clauses(self.lits, self.ends, self.gids, self.group_table)[1]

    @property
    def planned_loops(self) -> int:
        """Loops encoded under a proven per-loop unwind plan."""
        return sum(1 for _, proven in self.unwind_plans.values() if proven)

    @property
    def unwind_truncated(self) -> bool:
        """True when some loop's proven trip count was truncated."""
        return bool(self.truncated_loops)

    @property
    def num_assignments(self) -> int:
        """Number of assignment operations in the encoding (Table 3's assign#)."""
        return sum(
            1 for step in self.steps if step.kind in ("assign", "array-assign", "decl")
        )

    # -------------------------------------------------------- constant bits

    def _const_value(self, lit: int) -> Optional[bool]:
        if self.true_lit is None:
            return None
        if lit == self.true_lit:
            return True
        if lit == -self.true_lit:
            return False
        return None

    def _false_clause(self) -> list[int]:
        if self.true_lit is None:  # pragma: no cover - defensive
            raise ValueError("encoding has no constant-true literal")
        return [-self.true_lit]

    def _fix_clauses(self, bits: Bits, value: int) -> list[list[int]]:
        """Unit clauses pinning ``bits`` to a concrete integer value.

        Mirrors :meth:`repro.encoding.circuits.CircuitBuilder.fix_to_value`
        without needing a builder: constant bits that disagree with the
        wanted value yield a contradiction unit.
        """
        pattern = to_unsigned(value, len(bits))
        clauses: list[list[int]] = []
        for position, lit in enumerate(bits):
            wanted = bool((pattern >> position) & 1)
            known = self._const_value(lit)
            if known is None:
                clauses.append([lit if wanted else -lit])
            elif known != wanted:
                clauses.append(self._false_clause())
        return clauses

    # ------------------------------------------------------------- per-test

    def input_values(self, inputs: Sequence[int] | Mapping[str, int]) -> dict[str, int]:
        """Normalize a test case to entry-parameter name/value pairs."""
        if isinstance(inputs, Mapping):
            missing = [name for name in self.params if name not in inputs]
            if missing:
                raise ValueError(f"missing inputs for parameters {missing}")
            return {name: wrap(int(inputs[name]), self.width) for name in self.params}
        values = list(inputs)
        if len(values) != len(self.params):
            raise ValueError(
                f"{self.entry} expects {len(self.params)} inputs, got {len(values)}"
            )
        return {
            name: wrap(int(value), self.width)
            for name, value in zip(self.params, values)
        }

    def test_clauses(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        nondet_values: Sequence[int] = (),
    ) -> tuple[list[list[int]], dict[str, int]]:
        """The retractable per-test units: input equalities plus the spec.

        Returns ``(clauses, test_inputs)`` where ``clauses`` are the unit
        clauses to assert on top of the invariant encoding and
        ``test_inputs`` is the report-facing name/value map (including
        ``nondet#i`` entries).
        """
        clauses: list[list[int]] = []
        test_inputs: dict[str, int] = {}
        values = self.input_values(inputs)
        for name, bits in self.input_bits.items():
            value = values[name]
            clauses.extend(self._fix_clauses(bits, value))
            test_inputs[name] = value
        for index, bits in enumerate(self.nondet_bits):
            value = wrap(
                nondet_values[index] if index < len(nondet_values) else 0, self.width
            )
            clauses.extend(self._fix_clauses(bits, value))
            test_inputs[f"nondet#{index}"] = value

        if spec.kind == "assertion":
            for _, violation in self.violations:
                clauses.append([-violation])
        elif spec.kind in ("return-value", "golden-output"):
            if self.return_bits is None:
                raise ValueError(
                    f"entry function {self.entry!r} does not return a value"
                )
            expected = spec.expected[-1] if spec.expected else 0
            clauses.extend(self._fix_clauses(self.return_bits, expected))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unsupported specification kind {spec.kind!r}")
        return clauses, test_inputs

    def phase_hints(self, test_inputs: Mapping[str, int]) -> dict[int, bool]:
        """Warm-start phases from the concrete failing test (ROADMAP item).

        Seeds the saved phase of every input and nondet bit variable with
        its concrete value so the solver's first descent into the circuit
        re-traces the failing execution instead of a cold default.
        """
        hints: dict[int, bool] = {}
        named = dict(test_inputs)
        vectors: list[tuple[Bits, int]] = []
        for name, bits in self.input_bits.items():
            if name in named:
                vectors.append((bits, named[name]))
        for index, bits in enumerate(self.nondet_bits):
            key = f"nondet#{index}"
            if key in named:
                vectors.append((bits, named[key]))
        for bits, value in vectors:
            pattern = to_unsigned(value, len(bits))
            for position, lit in enumerate(bits):
                if self._const_value(lit) is not None:
                    continue
                wanted = bool((pattern >> position) & 1)
                hints[abs(lit)] = wanted if lit > 0 else not wanted
        return hints

    # ----------------------------------------------------------- conversion

    def trace_formula(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        nondet_values: Sequence[int] = (),
    ) -> TraceFormula:
        """Bake one test into a standalone extended trace formula.

        This reproduces the classic one-shot
        :meth:`~repro.bmc.BoundedModelChecker.encode_program_formula`
        output: the invariant hard clauses followed by the per-test units.
        """
        clauses, test_inputs = self.test_clauses(inputs, spec, nondet_values)
        formula = self.base_formula()
        # The test units join the store as hard clauses after the invariant
        # ones; the artifact's own buffers are not touched.
        formula.lits = self.lits + array("q", chain.from_iterable(clauses))
        formula.ends = self.ends + array(
            "q", accumulate(map(len, clauses), initial=len(self.lits))
        )[1:]
        formula.gids = self.gids + array("q", [-1]) * len(clauses)
        formula.test_inputs = test_inputs
        formula.assertion_description = spec.describe()
        return formula

    def base_formula(self) -> TraceFormula:
        """The invariant encoding as a test-less trace formula.

        Its :meth:`~repro.encoding.trace.TraceFormula.to_wcnf` is the shared
        partial MaxSAT instance a session loads exactly once; per-test units
        are then asserted as retractable layers.
        """
        return TraceFormula(
            width=self.width,
            num_vars=self.num_vars,
            lits=self.lits,
            ends=self.ends,
            gids=self.gids,
            group_table=list(self.group_table),
            steps=list(self.steps),
            gates_shared=self.gates_shared,
            narrowed_vars=self.narrowed_vars,
        )
