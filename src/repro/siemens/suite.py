"""The Table 1 harness: run BugAssist on every faulty TCAS version.

For one faulty version the harness

1. runs the test pool through the faulty program and keeps the tests whose
   output differs from the golden output (the failing test cases, TC#),
2. opens one :class:`~repro.core.session.LocalizationSession` for the
   version (the whole-program encoding is compiled once) and localizes (a
   sample of) the failing tests against it with the golden output as the
   per-test specification,
3. aggregates the Table 1 metrics: Detect# (runs that reported the true
   fault line), SizeReduc% (reported lines over program lines) and the mean
   run time.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.core import LocalizationSession, Specification
from repro.lang import Interpreter
from repro.siemens.faults import FaultVersion
from repro.siemens.tcas import (
    tcas_fault,
    tcas_faulty_program,
    tcas_faulty_source,
    tcas_program,
)
from repro.siemens.testgen import TcasTestVector, generate_tcas_tests, golden_outputs


@dataclass
class TcasVersionResult:
    """One row of Table 1."""

    version: str
    error_type: str
    errors: int
    failing_tests: int
    runs: int = 0
    detected: int = 0
    reported_lines: set[int] = field(default_factory=set)
    total_time: float = 0.0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.runs if self.runs else 0.0

    def size_reduction_percent(self, total_lines: int) -> float:
        if total_lines <= 0:
            return 0.0
        return 100.0 * len(self.reported_lines) / total_lines


#: Lines of the TCAS ``main`` harness that copy the test inputs into the
#: global state.  The paper's tool sets the globals directly from the test
#: vector, so these copies are not candidate bug locations; they are kept
#: hard during localization.
TCAS_HARNESS_LINES = tuple(range(89, 102))


def classify_tcas_tests(
    version: str, count: int = 1600, seed: int = 2011
) -> tuple[list[tuple[TcasTestVector, int]], list[tuple[TcasTestVector, int]]]:
    """Split the test pool into failing and passing tests for one version.

    Returns (failing, passing) lists of (vector, golden output) pairs.
    """
    program = tcas_faulty_program(version)
    interpreter = Interpreter(program)
    vectors = generate_tcas_tests(count, seed)
    golden = golden_outputs(count, seed)
    failing: list[tuple[TcasTestVector, int]] = []
    passing: list[tuple[TcasTestVector, int]] = []
    for vector, expected in zip(vectors, golden):
        actual = interpreter.run(vector.as_list()).return_value
        if actual == expected:
            passing.append((vector, expected))
        else:
            failing.append((vector, expected))
    return failing, passing


def run_tcas_version(
    version: str,
    test_count: int = 1600,
    seed: int = 2011,
    max_localized_tests: Optional[int] = 3,
    strategy: str = "hitting-set",
) -> TcasVersionResult:
    """Run the full Table 1 protocol on one faulty version.

    ``max_localized_tests`` bounds how many failing tests are localized (the
    paper localizes every failing test; a pure-Python SAT stack makes a
    sample the practical default — pass ``None`` for the full protocol).
    """
    fault: FaultVersion = tcas_fault(version)
    failing, _ = classify_tcas_tests(version, count=test_count, seed=seed)
    result = TcasVersionResult(
        version=version,
        error_type=fault.error_type.value,
        errors=fault.errors,
        failing_tests=len(failing),
    )
    program = tcas_faulty_program(version)
    fault_lines = set(fault.fault_lines)
    selected = failing if max_localized_tests is None else failing[:max_localized_tests]
    # One trace per version run: with REPRO_TRACE=export this writes a
    # Chrome trace of the whole compile-once/localize-many protocol.
    with obs.trace(f"tcas.{version}", attrs={"tests": len(selected)}):
        with LocalizationSession(
            program, strategy=strategy, hard_lines=TCAS_HARNESS_LINES
        ) as session:
            for vector, expected in selected:
                with obs.span("tcas.localize") as timed:
                    report = session.localize(
                        vector.as_list(), Specification.return_value(expected)
                    )
                result.runs += 1
                result.total_time += timed.duration
                result.reported_lines.update(report.lines)
                if any(line in fault_lines for line in report.lines):
                    result.detected += 1
    return result


def tcas_total_lines() -> int:
    """Total number of (non-blank) lines of the TCAS program."""
    return tcas_program().lines_of_code()


# ---------------------------------------------------------------- serving


@dataclass
class ServiceRequest:
    """One client request against the localization service.

    ``source`` is the faulty program text a client would submit (the
    daemon content-addresses it); ``tests`` are (inputs, specification)
    pairs ready for :meth:`~repro.serve.client.Client.localize_batch` or an
    in-process :class:`~repro.core.session.LocalizationSession` baseline.
    """

    version: str
    source: str
    tests: list[tuple[list[int], Specification]]

    @property
    def name(self) -> str:
        return f"tcas-{self.version}"


def service_workload(
    versions: Optional[list[str]] = None,
    tests_per_version: int = 3,
    test_count: int = 300,
    seed: int = 2011,
) -> list[ServiceRequest]:
    """The serving benchmark's workload: few programs, many requests.

    For each faulty TCAS version, classify the test pool and keep the first
    ``tests_per_version`` failing tests with their golden outputs as
    specifications — the per-version slice of the Table 1 protocol that a
    localization-service client replays.  Versions with fewer failing tests
    contribute what they have.
    """
    versions = versions or ["v1", "v2", "v13", "v16", "v22", "v28", "v37", "v40", "v41"]
    workload: list[ServiceRequest] = []
    for version in versions:
        failing, _ = classify_tcas_tests(version, count=test_count, seed=seed)
        tests = [
            (vector.as_list(), Specification.return_value(expected))
            for vector, expected in failing[:tests_per_version]
        ]
        workload.append(
            ServiceRequest(
                version=version, source=tcas_faulty_source(version), tests=tests
            )
        )
    return workload


@dataclass
class LargeBenchmarkResult:
    """One row of Table 3: trace sizes before/after reduction and localization."""

    name: str
    reduction: str
    loc: int
    procedures: int
    assignments_before: int = 0
    assignments_after: int = 0
    variables_before: int = 0
    variables_after: int = 0
    clauses_before: int = 0
    clauses_after: int = 0
    fault_candidates: int = 0
    maxsat_calls: int = 0
    sat_calls: int = 0
    detected: bool = False
    #: Wall-clock seconds of the timed protocol: delta debugging, the full
    #: and reduced traces, slicing and the CoMSS enumeration.  The side
    #: experiments (whole-program compiles, the unnarrowed re-trace) are
    #: excluded.
    time_seconds: float = 0.0
    #: Solver propagations per second of ``time_seconds`` — the throughput
    #: the C-accelerated core (or the pure-Python fallback) hit.
    propagations_per_second: float = 0.0
    #: Solver conflicts analyzed per second of ``time_seconds`` — the
    #: search-kernel (conflict analysis + backjump + VSIDS) throughput.
    conflicts_per_second: float = 0.0
    #: Gate-cache hits while encoding the reduced trace (structure sharing).
    gates_shared: int = 0
    #: Clauses the interval analysis removed from the reduced trace: the
    #: same trace encoded with ``analysis_narrowing`` off minus with it on.
    clauses_pruned: int = 0
    #: High bits pinned by narrowing plans across all written values.
    narrowed_vars: int = 0
    #: Whole-program encode time of the faulty version from scratch.
    encode_time_cold: float = 0.0
    #: Whole-program encode time splicing the reference version's journal
    #: (the faulty version differs by the seeded patch only); equals a cold
    #: fallback when the splice declined (``warm_spliced`` False).
    encode_time_warm: float = 0.0
    #: Whether the warm encode actually spliced (False = declined, cold ran).
    warm_spliced: bool = False
    #: Fraction of journal groups the change-impact pass re-encoded on the
    #: warm path (0.0 = everything replayed; None-like 1.0 when declined).
    impact_fraction: float = 1.0
    #: Which emission backend filled the cold compile's buffers ("python"
    #: or "c"); both produce bit-identical artifacts.
    encode_backend: str = ""
    #: Wall-clock seconds per cold-encode phase (analysis, gate emission).
    encode_phases: dict = field(default_factory=dict)
    #: Whether a declined warm compile failed a precondition up front
    #: (before paying for impact analysis or any journal replay).
    splice_declined_early: bool = False
    #: Clauses the per-loop unwind plans removed from the whole-program
    #: encoding: flat compile minus the ``unwind_planning`` compile.
    unwind_pruned_clauses: int = 0
    #: Loops the loop-bound analysis proved a bound for (and so planned).
    planned_loops: int = 0


def run_large_benchmark(benchmark, max_candidates: int = 8) -> LargeBenchmarkResult:
    """Run the Table 3 protocol on one of the larger benchmarks.

    The failing test's trace formula is built twice — without and with the
    benchmark's designated trace-reduction techniques — and BugAssist then
    localizes on the reduced formula.  Each run opens one trace
    (``bench.<name>``), so ``REPRO_TRACE=export`` yields a per-row Chrome
    trace; the cold/warm encode times are span durations.
    """
    with obs.trace(
        f"bench.{benchmark.name}", attrs={"reduction": benchmark.reduction}
    ):
        return _run_large_benchmark(benchmark, max_candidates)


def _reduction_options(benchmark, faulty) -> dict:
    """``ConcolicTracer`` options of the benchmark's slicing (``S``) and
    concretization (``C``)."""
    from repro.reduction import sliced_tracer_settings

    settings: dict[str, object] = {}
    if "S" in benchmark.reduction:
        settings = sliced_tracer_settings(faulty)
    concrete = set(settings.get("concrete_functions", ()))
    if "C" in benchmark.reduction:
        concrete |= set(benchmark.concretize)
    return {
        "relevant_lines": settings.get("relevant_lines"),
        "concrete_functions": concrete,
    }


def localize_large_input(benchmark, inputs, max_candidates: int = 8):
    """The reduced Table 3 protocol on one failing input of ``benchmark``.

    Delta debugging (``D``), then the concolic trace reduced by slicing
    (``S``) or concretization (``C``), then the CoMSS enumeration.  Returns
    the reduced trace formula and the localization report.
    """
    from repro.concolic import ConcolicTracer
    from repro.core.localizer import BugAssistLocalizer
    from repro.reduction import minimize_failing_input

    faulty = benchmark.faulty_program()
    test = list(inputs)
    if "D" in benchmark.reduction:
        test = minimize_failing_input(test, benchmark.fails)
    formula = ConcolicTracer(faulty, **_reduction_options(benchmark, faulty)).trace(
        test, benchmark.specification(tuple(test))
    )
    localizer = BugAssistLocalizer(faulty, mode="trace", max_candidates=max_candidates)
    return formula, localizer.localize_trace(formula, program_name=benchmark.name)


def _parse_fresh(benchmark):
    """A new parse of ``benchmark``'s faulty version (not the cached one)."""
    from repro.siemens.programs import _parse

    return _parse.__wrapped__(f"{benchmark.name}-faulty", benchmark.faulty_lines())


def _run_large_benchmark(benchmark, max_candidates: int) -> LargeBenchmarkResult:
    from repro.concolic import ConcolicTracer
    from repro.core.localizer import BugAssistLocalizer
    from repro.reduction import minimize_failing_input

    faulty = benchmark.faulty_program()
    result = LargeBenchmarkResult(
        name=benchmark.name,
        reduction=benchmark.reduction,
        loc=faulty.lines_of_code(),
        procedures=len(faulty.functions),
    )
    test = list(benchmark.failing_test)
    spec = benchmark.specification()

    # Side experiments (the cold, unwind-planned, reference and warm
    # whole-program compiles, and the unnarrowed re-trace below) run outside
    # the timed protocol: the localization uses none of them, so
    # ``time_seconds`` and the rates derived from it exclude them.
    #
    # Incremental cross-version encode: the unpatched reference program
    # stands in for the previously stored artifact, the faulty version for
    # the new compile — the Table 3 analogue of re-localizing after an edit.
    # Measured first, before the tracers populate the heap: with several
    # million retained objects alive the small-object allocator slows every
    # later allocation several-fold, which would contaminate the encode
    # timings with heap state rather than encoder throughput.
    from repro.bmc import BoundedModelChecker
    from repro.bmc.splice import splice_compile

    with obs.span("bench.encode_cold") as cold_span:
        cold_compiled = BoundedModelChecker(
            faulty, group_statements=True
        ).compile_program()
    result.encode_time_cold = cold_span.duration
    cold_profile = cold_compiled.encode_profile()
    result.encode_backend = cold_profile.get("encode_backend", "")
    result.encode_phases = {
        phase: round(seconds, 4)
        for phase, seconds in cold_profile.get("encode_phases", {}).items()
    }
    cold_signature = cold_compiled.signature
    # Per-loop unwind planning on the same whole-program encode: the clause
    # gap is what proven loop bounds bought on this row.  This compile and
    # the warm one below run on fresh parses: ``faulty`` is cached and
    # keeps the interval solves of every analysis run on it, which a
    # daemon's warm compile of a newly parsed version never has.
    planned_compiled = BoundedModelChecker(
        _parse_fresh(benchmark), group_statements=True, unwind_planning=True
    ).compile_program()
    result.unwind_pruned_clauses = (
        cold_compiled.num_clauses - planned_compiled.num_clauses
    )
    result.planned_loops = planned_compiled.planned_loops
    del planned_compiled
    reference_compiled = BoundedModelChecker(
        benchmark.reference_program(), group_statements=True
    ).compile_program()
    # Drop the cold artifact so the warm run sees the same heap the cold
    # run did (plus the base artifact a warm client genuinely holds).
    del cold_compiled
    gc.collect()
    splice_outcome: dict = {}
    warm_program = _parse_fresh(benchmark)
    with obs.span("bench.encode_warm") as warm_span:
        warm_compiled = splice_compile(
            reference_compiled,
            BoundedModelChecker(warm_program, group_statements=True),
            base_key=f"{benchmark.name}-reference",
            outcome=splice_outcome,
        )
        if warm_compiled is None:
            # Declined: the honest warm number is decline-check plus cold run.
            result.splice_declined_early = bool(
                splice_outcome.get("declined_early")
            )
            warm_compiled = BoundedModelChecker(
                warm_program, group_statements=True
            ).compile_program()
        else:
            result.warm_spliced = True
            result.impact_fraction = warm_compiled.impact_fraction
    result.encode_time_warm = warm_span.duration
    if warm_compiled.signature != cold_signature:
        raise AssertionError(
            f"{benchmark.name}: warm encode diverged from cold"
        )
    del warm_compiled, warm_program, reference_compiled
    gc.collect()

    started = time.perf_counter()
    # Delta debugging (D): minimize the failure-inducing input first.
    if "D" in benchmark.reduction:
        test = minimize_failing_input(test, benchmark.fails)
        spec = benchmark.specification(tuple(test))

    full = ConcolicTracer(faulty).trace(test, spec)
    result.assignments_before = full.num_assignments
    result.variables_before = full.num_vars
    result.clauses_before = full.num_clauses

    options = _reduction_options(benchmark, faulty)
    reduced = ConcolicTracer(faulty, **options).trace(test, spec)
    result.assignments_after = reduced.num_assignments
    result.variables_after = reduced.num_vars
    result.clauses_after = reduced.num_clauses
    result.narrowed_vars = reduced.narrowed_vars

    localizer = BugAssistLocalizer(faulty, mode="trace", max_candidates=max_candidates)
    report = localizer.localize_trace(reduced, program_name=benchmark.name)
    result.fault_candidates = len(report.lines)
    result.maxsat_calls = report.maxsat_calls
    result.sat_calls = report.sat_calls
    result.detected = any(line in benchmark.fault_lines for line in report.lines)
    result.time_seconds = time.perf_counter() - started
    result.gates_shared = reduced.gates_shared
    if result.time_seconds > 0:
        result.propagations_per_second = report.propagations / result.time_seconds
        result.conflicts_per_second = report.conflicts / result.time_seconds

    # Same reduced trace without analysis narrowing: the clause-count gap is
    # what the interval analysis bought on this row.
    unnarrowed = ConcolicTracer(faulty, analysis_narrowing=False, **options).trace(
        test, spec
    )
    result.clauses_pruned = unnarrowed.num_clauses - reduced.num_clauses
    return result
