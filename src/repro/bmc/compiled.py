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

The per-test part is *data*, not encoding: :meth:`CompiledProgram.test_units`
derives the handful of unit clauses pinning the inputs and asserting the
specification, straight from the compiled bit-vectors into one literal
array, which a :class:`~repro.core.session.LocalizationSession` asserts as
a retractable layer on a persistent MaxSAT engine.  The artifact
is a plain picklable value, so a process pool can ship it to each worker
once and shard failing tests across workers.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from array import array
from dataclasses import dataclass, field
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
ARTIFACT_FORMAT_VERSION = 7

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
    """Attach the encode profile (emission backend, phase wall times,
    C-core entries and analysis solve counts).

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

    Produced by :meth:`repro.bmc.BoundedModelChecker.compile_program`.  The
    clauses never mention a concrete test.  They are kept as the encoder's
    flat clause store — ``lits``/``ends``/``gids`` in emission order, group
    indexes into ``group_table`` — exactly as the arena filled them, so a
    session loads the store without a flatten pass.  The read-only views
    ``hard`` (the
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
    #: encodings (the backend differential suite compares compiles by it).
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
    #: Every registered statement group, by the index ``gids`` uses (empty
    #: groups included).
    group_table: list = field(default_factory=list)
    #: The checker options that produced this artifact (read back by
    #: :meth:`~repro.core.session.LocalizationSession.from_compiled`).
    compile_options: dict = field(default_factory=dict)
    #: ``(function, guard line) -> (iterations, proven)`` per-loop unwind
    #: plans applied during the compile (``repro.analysis.loops``).
    unwind_plans: dict = field(default_factory=dict)
    #: Loops whose proven minimum trip count exceeds what this encoding
    #: unrolled: executions through them are truncated, and localization
    #: reports derived from this artifact carry ``unwind_truncated=True``.
    truncated_loops: tuple = ()

    # ------------------------------------------------------------ statistics

    def encode_profile(self) -> dict:
        """Emission backend, per-phase wall times, C-core entries and
        analysis solve counts of the compile that produced this artifact:
        ``{"encode_backend": ..., "encode_phases": {phase: seconds},
        "encode_kernel_calls": k, "analysis_solves": n,
        "analysis_solves_reused": m, "analysis_products_reused": p}``
        (``k`` is 0 on the Python backend).
        Empty for unpickled artifacts — timings are
        observability data, not content, and never serialize."""
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

    # ------------------------------------------------------------ per-test

    def _fix_units(self, bits: Bits, value: int, units: list[int]) -> None:
        """Append the unit literals pinning ``bits`` to a concrete value.

        The units :meth:`repro.encoding.circuits.CircuitBuilder.fix_to_value`
        emits — an ``assert_equal`` of ``bits`` against the constant vector
        of ``value`` — without needing a builder: constant bits that
        disagree with the wanted value yield a contradiction unit.
        """
        pattern = to_unsigned(value, len(bits))
        true_lit = self.true_lit or 0  # a literal is never 0
        for lit in bits:
            wanted = pattern & 1
            pattern >>= 1
            if lit != true_lit and lit != -true_lit:
                units.append(lit if wanted else -lit)
            elif (lit == true_lit) != wanted:
                units.append(-true_lit)

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

    def test_units(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        nondet_values: Sequence[int] = (),
    ) -> tuple[array, dict[str, int], int]:
        """The retractable per-test units: input equalities plus the spec.

        Every per-test clause is a unit over an input, nondet or return bit
        (or a violation literal), so they come back as one literal array:
        ``(units, test_inputs, pinned)`` where ``units`` is an
        ``array('l')`` with one unit clause per literal, to assert on top of
        the invariant encoding, ``test_inputs`` is the report-facing
        name/value map (including ``nondet#i`` entries), and the first
        ``pinned`` units fix the input and nondet bits to the test's
        concrete values.  Those bits are fresh variables, never the constant
        literal, so each has its own unit, and the units carry the
        warm-start phases (ROADMAP item): seeding each bit's saved phase
        with its unit's sign makes the solver's first descent into the
        circuit re-trace the failing execution.
        """
        units: list[int] = []
        test_inputs: dict[str, int] = {}
        values = self.input_values(inputs)
        for name, bits in self.input_bits.items():
            value = values[name]
            self._fix_units(bits, value, units)
            test_inputs[name] = value
        for index, bits in enumerate(self.nondet_bits):
            value = wrap(
                nondet_values[index] if index < len(nondet_values) else 0, self.width
            )
            self._fix_units(bits, value, units)
            test_inputs[f"nondet#{index}"] = value
        pinned = len(units)

        if spec.kind == "assertion":
            units.extend(-violation for _, violation in self.violations)
        elif spec.kind in ("return-value", "golden-output"):
            if self.return_bits is None:
                raise ValueError(
                    f"entry function {self.entry!r} does not return a value"
                )
            expected = spec.expected[-1] if spec.expected else 0
            self._fix_units(self.return_bits, expected, units)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unsupported specification kind {spec.kind!r}")
        return array("l", units), test_inputs, pinned

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
        units, test_inputs, _ = self.test_units(inputs, spec, nondet_values)
        formula = self.base_formula()
        # The test units join the store as hard clauses after the invariant
        # ones; the artifact's own buffers are not touched.
        start = len(self.lits)
        formula.lits = self.lits + array("q", units)
        formula.ends = self.ends + array("q", range(start + 1, start + len(units) + 1))
        formula.gids = self.gids + array("q", [-1]) * len(units)
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
