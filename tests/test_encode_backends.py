"""Differential tests: the C emission core versus the pure-Python arena.

Both backends fill the identical flat :class:`~repro.encoding.arena.GateArena`
buffers with the identical fold rules and hash mixing, so whole compiles must
be bit-identical between them: same CNF, same gate signature, same pickled
artifact bytes, same localization reports.  These tests drive
matched compile pairs through every Table 3 program, a hypothesis gate-op
matrix over the five scalar gates, and seeded bit-vector kernel chains
(add / multiply / equals / unsigned_less / mux / is_nonzero, and the
assert_equal / fix_to_value equations), and require exact equality.

The Python arm of each pair is produced in-process by pinning
``_ccore.encode_library`` to ``None`` —
exactly the state a ``REPRO_BACKEND=python`` process runs in — so a single
process compares the two emitters over the same interned objects.  Separate
subprocess tests cover the ``REPRO_BACKEND`` switch itself (``python`` and
``c`` pins, and cross-process artifact identity under
``PYTHONHASHSEED=0``).

When the C core cannot be built (no compiler), the differential pairs are
skipped but the arena unit tests and the pure-Python feature checks still
run, which is the fallback guarantee.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bmc import BoundedModelChecker, dumps_artifact
from repro.encoding import CircuitBuilder, encode_backend
from repro.encoding.arena import GateArena, HDR_GUSED, HDR_HITS, HDR_NCLAUSES
from repro.encoding.context import ArenaEncodingContext
from repro.sat import _ccore
from repro.siemens import tcas_faulty_program
from repro.siemens.programs import LARGE_BENCHMARKS

C_AVAILABLE = encode_backend() == "c"

needs_c = pytest.mark.skipif(
    not C_AVAILABLE, reason="C emission core unavailable on this machine"
)

#: The two big Table 3 rows take ~30s on the pure-Python arm; they run under
#: ``--runslow`` while the two quick rows keep the cross-program differential
#: in the tier-1 loop.
TABLE3_CASES = [
    pytest.param(case, id=case.name, marks=[pytest.mark.slow])
    if case.name in ("tot_info", "print_tokens")
    else pytest.param(case, id=case.name)
    for case in LARGE_BENCHMARKS
]


@contextlib.contextmanager
def python_pinned():
    """Encode in the body exactly as a ``REPRO_BACKEND=python`` process would."""
    saved = _ccore.encode_library
    _ccore.encode_library = lambda: None
    try:
        yield
    finally:
        _ccore.encode_library = saved


def compile_cold(program):
    return BoundedModelChecker(program, group_statements=True).compile_program()


def _subprocess_env(**overrides: str) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_BACKEND", None)
    env.update(overrides)
    return env


# --------------------------------------------------------------- differential


@needs_c
class TestDifferential:
    @pytest.mark.parametrize("case", TABLE3_CASES)
    def test_table3_artifacts_bit_identical(self, case):
        program = case.faulty_program()
        c_artifact = compile_cold(program)
        assert c_artifact.encode_profile()["encode_backend"] == "c"
        with python_pinned():
            py_artifact = compile_cold(program)
        assert py_artifact.encode_profile()["encode_backend"] == "python"
        assert c_artifact.signature == py_artifact.signature
        assert c_artifact.num_vars == py_artifact.num_vars
        assert c_artifact.num_clauses == py_artifact.num_clauses
        assert dumps_artifact(c_artifact) == dumps_artifact(py_artifact)

    def test_tcas_artifact_bit_identical(self):
        program = tcas_faulty_program("v1")
        c_artifact = compile_cold(program)
        with python_pinned():
            py_artifact = compile_cold(program)
        for field in dataclasses.fields(c_artifact):
            assert getattr(c_artifact, field.name) == getattr(
                py_artifact, field.name
            ), field.name
        assert dumps_artifact(c_artifact) == dumps_artifact(py_artifact)

    def test_localization_reports_identical(self):
        from repro.core import LocalizationSession, Specification
        from repro.serve import canonical_report_bytes
        from repro.siemens import classify_tcas_tests

        failing, _ = classify_tcas_tests("v2", count=200)
        assert failing
        vector, expected = failing[0]
        spec = Specification.return_value(expected)
        reports = {}
        for backend in ("c", "python"):
            pin = python_pinned() if backend == "python" else contextlib.nullcontext()
            with pin:
                compiled = compile_cold(tcas_faulty_program("v2"))
            with LocalizationSession.from_compiled(compiled) as session:
                reports[backend] = canonical_report_bytes(
                    session.localize(vector.as_list(), spec)
                )
        assert reports["c"] == reports["python"]


# --------------------------------------------------------- gate-op matrices


def _context_fingerprint(context: ArenaEncodingContext) -> tuple:
    return (
        context.gate_signature,
        context.num_vars,
        context.num_clauses,
        context.gates_emitted,
        context.gate_hits,
        context.arena.clause_store(),
    )


def _run_scalar_ops(ops: list[tuple[int, int, int, int, int]]) -> tuple:
    """Replay an op tape against a fresh arena context; fingerprint it.

    Each record is ``(op, i, j, k, signs)``: pick operands from the growing
    literal pool by index (modulo its size), negate per the sign bits, apply
    the gate, and append the result to the pool.  The same tape therefore
    drives the exact same call sequence on either backend.
    """
    context = ArenaEncodingContext(width=8)
    builder = CircuitBuilder(context)
    pool = [context.new_var() for _ in range(4)]
    pool.append(builder.true)  # the constant feeds the fold rules
    for op, i, j, k, signs in ops:
        a = pool[i % len(pool)] * (1 if signs & 1 else -1)
        b = pool[j % len(pool)] * (1 if signs & 2 else -1)
        c = pool[k % len(pool)] * (1 if signs & 4 else -1)
        if op == 0:
            result = builder.bit_and(a, b)
        elif op == 1:
            result = builder.bit_or(a, b)
        elif op == 2:
            result = builder.bit_xor(a, b)
        elif op == 3:
            result = builder.bit_ite(a, b, c)
        elif op == 4:
            result = builder.bit_xor3(a, b, c)
        elif op == 5:
            result = builder.bit_majority(a, b, c)
        else:
            result = builder.bit_equal(a, b)
        pool.append(result)
    return _context_fingerprint(context)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=7),
        ),
        max_size=40,
    )
)
def test_hypothesis_gate_matrix(ops):
    if not C_AVAILABLE:
        pytest.skip("C emission core unavailable")
    with_c = _run_scalar_ops(ops)
    with python_pinned():
        pure = _run_scalar_ops(ops)
    assert with_c == pure


def _run_vector_ops(seed: int) -> tuple:
    """A seeded chain of the bit-vector kernels and statement equations,
    fingerprinted.

    The vectors include narrowed targets (constant high bits) and a
    constant; the equations run both hard and inside statement groups.  A
    fixed tail adds two disagreeing constants and a 65-bit vector, which
    takes the Python path on either backend.
    """
    from repro.encoding.context import StatementGroup

    rng = random.Random(seed)
    context = ArenaEncodingContext(width=8)
    builder = CircuitBuilder(context)
    vectors = [builder.fresh() for _ in range(3)]
    vectors.append(builder.const(rng.randint(-128, 127)))
    vectors.append(builder.fresh_narrowed(3, signed=False))
    vectors.append(builder.fresh_narrowed(4, signed=True))
    bits = [builder.true]
    groups = [StatementGroup(line=1), StatementGroup(line=2, function="f")]
    for _ in range(20):
        a = vectors[rng.randrange(len(vectors))]
        b = vectors[rng.randrange(len(vectors))]
        choice = rng.randrange(9)
        if choice == 0:
            vectors.append(builder.add(a, b))
        elif choice == 1:
            vectors.append(builder.multiply(a, b))
        elif choice == 2:
            bits.append(builder.equals(a, b))
        elif choice == 3:
            bits.append(builder.unsigned_less(a, b))
        elif choice == 4:
            vectors.append(builder.mux(bits[rng.randrange(len(bits))], a, b))
        elif choice == 5:
            bits.append(builder.is_nonzero(a))
        elif choice == 6:
            builder.assert_equal(a, b)
        elif choice == 7:
            with context.group(groups[rng.randrange(len(groups))]):
                builder.assert_equal(a, b)
        else:
            with context.group(groups[rng.randrange(len(groups))]):
                builder.fix_to_value(a, rng.randint(-128, 127))
    with context.group(groups[0]):
        builder.assert_equal(builder.const(3), builder.const(5))
        builder.assert_equal(builder.const(3), builder.const(3))
        builder.fix_to_value(vectors[3], 1 - builder.constant_of(vectors[3]))
    wide = builder.fresh(65)
    bits.append(builder.is_nonzero(wide))
    builder.assert_equal(wide, builder.fresh(65))
    with context.group(groups[1]):
        builder.fix_to_value(wide, -1)
    return _context_fingerprint(context) + (context.group_table, tuple(bits))


@needs_c
@pytest.mark.parametrize("seed", range(10))
def test_vector_kernels_identical(seed):
    with_c = _run_vector_ops(seed)
    with python_pinned():
        pure = _run_vector_ops(seed)
    assert with_c == pure


@needs_c
def test_and_with_the_true_constant_stays_in_python():
    """``bit_and`` folds the constant-true operand before the C crossing:
    the other operand comes back with no ``CEncoder`` call."""
    context = ArenaEncodingContext(width=8)
    builder = CircuitBuilder(context)
    x = context.new_var()
    true = builder.true
    calls = builder.kernel_calls
    assert builder.bit_and(x, true) == x
    assert builder.bit_and(true, -x) == -x
    assert builder.bit_and(true, true) == true
    assert builder.kernel_calls == calls
    # Every other operand pair still crosses once.
    builder.bit_and(x, -true)
    assert builder.kernel_calls == calls + 1


@needs_c
def test_kernel_calls_reach_span_and_profile(monkeypatch):
    """The ``encode.gates`` span and the encode profile count the C-core
    entries of a compile: the same count on every compile of a program,
    0 on the Python backend."""
    from repro import obs

    monkeypatch.setenv("REPRO_TRACE", "on")
    counts = []
    for _ in range(2):
        with obs.trace("compile") as handle:
            compiled = compile_cold(tcas_faulty_program("v1"))
        spans = {span["name"]: span for span in handle.spans()}
        counts.append(spans["encode.gates"]["attrs"]["kernel_calls"])
        assert compiled.encode_profile()["encode_kernel_calls"] == counts[-1]
    assert counts[0] == counts[1] > 0
    with python_pinned():
        compiled = compile_cold(tcas_faulty_program("v1"))
    assert compiled.encode_profile()["encode_kernel_calls"] == 0


# ------------------------------------------------------------- feature check


class TestFeatureCheck:
    def test_env_forces_python_fallback(self):
        """REPRO_BACKEND=python pins the arena fallback in a fresh process."""
        script = (
            "from repro.encoding import encode_backend\n"
            "from repro.bmc import BoundedModelChecker\n"
            "from repro.siemens import tcas_faulty_program\n"
            "assert encode_backend() == 'python'\n"
            "compiled = BoundedModelChecker(\n"
            "    tcas_faulty_program('v1'), group_statements=True\n"
            ").compile_program()\n"
            "assert compiled.encode_profile()['encode_backend'] == 'python'\n"
            "print('ok', compiled.signature)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=_subprocess_env(REPRO_BACKEND="python"),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    @needs_c
    def test_env_requires_c_core(self):
        script = (
            "from repro.encoding import encode_backend\n"
            "assert encode_backend() == 'c'\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=_subprocess_env(REPRO_BACKEND="c"),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    @needs_c
    def test_cross_process_artifacts_identical(self):
        """Pinned subprocesses agree byte-for-byte under PYTHONHASHSEED=0."""
        script = (
            "import hashlib\n"
            "from repro.bmc import BoundedModelChecker, dumps_artifact\n"
            "from repro.siemens import tcas_faulty_program\n"
            "compiled = BoundedModelChecker(\n"
            "    tcas_faulty_program('v1'), group_statements=True\n"
            ").compile_program()\n"
            "print(hashlib.sha256(dumps_artifact(compiled)).hexdigest())\n"
        )
        digests = {}
        for backend in ("c", "python"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=_subprocess_env(REPRO_BACKEND=backend, PYTHONHASHSEED="0"),
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            digests[backend] = result.stdout.strip()
        assert digests["c"] == digests["python"]


# -------------------------------------------------------- arena housekeeping


class TestArenaHousekeeping:
    """Flat-buffer growth and rehashing, on the always-on Python routines."""

    def test_clause_buffer_growth_preserves_contents(self):
        arena = GateArena()
        rng = random.Random(11)
        expected = []
        for index in range(6000):  # far past the 1024-clause / 4096-lit seeds
            clause = [
                rng.choice([-1, 1]) * rng.randint(1, 400)
                for _ in range(rng.randint(1, 7))
            ]
            gid = -1 if index % 3 else index % 5
            expected.append((gid, clause))
            arena.emit(clause, gid)
        assert arena.hdr[HDR_NCLAUSES] == len(expected)
        # The store keeps exact emission order with each clause's group.
        lits, ends, gids = arena.clause_store()
        restored = [
            (gid, lits[start:end].tolist())
            for gid, start, end in zip(gids, [0, *ends], ends)
        ]
        assert restored == expected

    def test_gate_table_rehash_preserves_lookups(self):
        arena = GateArena()
        gates = [(1 + (i % 5), i * 7 + 1, i * 13 + 2) for i in range(3000)]
        for out, (op, k1, k2) in enumerate(gates, start=1):
            assert arena.gate_lookup(op, k1, k2) == 0
            arena.gate_insert(op, k1, k2, out, [[out]])
        assert arena.hdr[HDR_GUSED] == len(gates)  # > the 2048-slot seed
        hits_before = arena.hdr[HDR_HITS]
        for out, (op, k1, k2) in enumerate(gates, start=1):
            assert arena.gate_lookup(op, k1, k2) == out
        assert arena.hdr[HDR_HITS] == hits_before + len(gates)

    @needs_c
    def test_c_rehash_hook_matches_python(self):
        """The C rehash lands every gate where the Python loop would."""
        from repro.encoding.cbind import CEncoder

        library = _ccore.encode_library()
        plain = GateArena()
        hooked = GateArena()
        CEncoder(hooked, library)  # installs hooked.rehash_hook
        assert hooked.rehash_hook is not None
        for i in range(3000):
            op, k1, k2 = 1 + (i % 5), i * 11 + 3, i * 17 + 4
            plain.gate_insert(op, k1, k2, i + 1, [[i + 1]])
            hooked.gate_insert(op, k1, k2, i + 1, [[i + 1]])
        assert plain.hdr[HDR_GUSED] == hooked.hdr[HDR_GUSED]
        assert plain.gtab == hooked.gtab
