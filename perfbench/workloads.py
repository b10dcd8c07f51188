"""The timed request loops of the three workloads.

All three are closed loops: one client, one request in flight, as an IDE
or CI caller that waits for each reply.  Each loop takes a request list
made by :mod:`perfbench.generate` and returns a :class:`RunRecord`; a loop
never generates inputs and never installs wrappers itself (the traced run
does that around it).

Every step is timed with :func:`perfbench.hostspeed.step`, so its time is
at the reference host speed.  Each localization is checked: it must not
raise or return an error, every candidate line must be a statement line of
the submitted program, and a serve-replay repeat must be byte-identical
(``canonical_report_bytes``) to the first answer.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro import lang, reduction
from repro.concolic import ConcolicTracer
from repro.core import LocalizationSession
from repro.core.localizer import BugAssistLocalizer
from repro.serve.client import Client
from repro.serve.protocol import canonical_report_bytes
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import TCAS_HARNESS_LINES
from repro.siemens.tcas import tcas_faulty_program
from repro.spec import Specification

from perfbench.generate import SiemensRequest, TcasRequest, TcasVersionWork
from perfbench.hostspeed import Step, step

#: CoMSSes enumerated per localization (the Table 3 default budget).
COMSS_BUDGET = 8

#: Session options every serve-replay localization sends.
SERVE_OPTIONS = {"max_candidates": COMSS_BUDGET, "hard_lines": list(TCAS_HARNESS_LINES)}


@dataclass
class Outcome:
    """One localize request: how long it took and whether it was right."""

    program: str
    latency: float
    #: "computed", or "cached" for a serve-replay repeat.
    kind: str = "computed"
    error: Optional[str] = None
    #: 1-based rank of the first candidate naming a seeded fault line.
    hit_rank: Optional[int] = None
    #: How much slower than the reference host the request ran.
    slowdown: float = 1.0


@dataclass
class RunRecord:
    """Everything one pass over a request list measured."""

    outcomes: list[Outcome] = field(default_factory=list)
    #: Seconds to make each program version ready (see each workload).
    compiles: list[float] = field(default_factory=list)
    #: Measured wall seconds of the whole request list.
    wall: float = 0.0
    #: Daemon counters from the ``stats`` op (serve-replay only).
    serve_counters: dict = field(default_factory=dict)


def combine_passes(passes: list[RunRecord]) -> RunRecord:
    """One record from several passes over the same request list.

    Each request's latency and each compile is the median over the passes,
    the wall time the median pass wall, which filters out a slowdown of
    the host that hits only one pass.  A request fails when it failed in
    any pass or when the passes disagree on its first fault hit.
    """
    combined = RunRecord(
        wall=statistics.median(record.wall for record in passes),
        compiles=[statistics.median(times) for times in zip(*(r.compiles for r in passes))],
        serve_counters=passes[0].serve_counters,
    )
    for runs in zip(*(record.outcomes for record in passes)):
        first = runs[0]
        error = next((run.error for run in runs if run.error is not None), None)
        if error is None and any(run.hit_rank != first.hit_rank for run in runs):
            error = "passes disagree on the first fault hit"
        combined.outcomes.append(
            Outcome(
                first.program,
                statistics.median(run.latency for run in runs),
                first.kind,
                error,
                first.hit_rank,
                statistics.median(run.slowdown for run in runs),
            )
        )
    return combined


def judge(
    program: str,
    timing: Step,
    candidates: Iterable[Iterable[int]],
    statement_lines: set[int],
    fault_lines: Iterable[int],
    kind: str = "computed",
) -> Outcome:
    """Check one report's candidate lines and find its first fault hit."""
    faults = set(fault_lines)
    hit_rank = None
    for rank, lines in enumerate(candidates, start=1):
        lines = set(lines)
        stray = lines - statement_lines
        if stray:
            error = f"non-statement lines {sorted(stray)}"
            return Outcome(program, timing.seconds, kind, error, None, timing.slowdown)
        if hit_rank is None and lines & faults:
            hit_rank = rank
    return Outcome(program, timing.seconds, kind, None, hit_rank, timing.slowdown)


def _failed(program: str, timing: Step, exc: Exception, kind="computed") -> Outcome:
    error = f"{type(exc).__name__}: {exc}"
    return Outcome(program, timing.seconds, kind, error, None, timing.slowdown)


def tcas_session(work: list[TcasVersionWork], tracer) -> RunRecord:
    """Program mode (Table 1): one ``LocalizationSession`` per TCAS version.

    A version is made ready by parsing and checking its source and building
    the session's whole-program encoding (``LocalizationSession.compiled``);
    that is the compile time.  Its failing tests are then localized one by
    one with the serial executor.
    """
    statement_lines = {
        version.version: tcas_faulty_program(version.version).statement_lines()
        for version in work
    }
    record = RunRecord()
    started = time.perf_counter()
    for version in work:
        name = f"tcas-{version.version}"
        with step() as timing, tracer.request(f"compile:{name}"):
            program = lang.parse_program(version.source, name=name)
            lang.check_program(program)
            session = LocalizationSession(
                program, hard_lines=TCAS_HARNESS_LINES, max_candidates=COMSS_BUDGET
            )
            session.compiled
        record.compiles.append(timing.seconds)
        with session:
            for index, request in enumerate(version.requests):
                try:
                    with step() as timing, tracer.request(f"{name}/{index}"):
                        report = session.localize(
                            list(request.inputs),
                            Specification.return_value(request.expected),
                        )
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    record.outcomes.append(_failed(name, timing, exc))
                    continue
                record.outcomes.append(
                    judge(
                        name,
                        timing,
                        (candidate.lines for candidate in report.candidates),
                        statement_lines[version.version],
                        request.fault_lines,
                    )
                )
    record.wall = time.perf_counter() - started
    return record


def siemens_trace(requests: list[SiemensRequest], tracer) -> RunRecord:
    """Trace mode (Table 3): the paper's reduction protocol per failing input.

    Each request runs delta debugging (programs marked D), builds the
    reduced trace formula (slicing for S, concretization for C, then
    ``ConcolicTracer.trace``) and enumerates CoMSSes with
    ``BugAssistLocalizer.localize_trace``.  The compile time of trace mode
    is the formula build: slicing plus the concolic trace.
    """
    benchmarks = {benchmark.name: benchmark for benchmark in LARGE_BENCHMARKS}
    statement_lines = {
        name: benchmark.faulty_program().statement_lines()
        for name, benchmark in benchmarks.items()
    }
    record = RunRecord()
    started = time.perf_counter()
    for index, request in enumerate(requests):
        benchmark = benchmarks[request.program]
        try:
            with step() as timing, tracer.request(f"{request.program}/{index}"):
                report, formula_share = _trace_localize(benchmark, request.inputs)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            record.outcomes.append(_failed(request.program, timing, exc))
            continue
        record.compiles.append(timing.seconds * formula_share)
        record.outcomes.append(
            judge(
                request.program,
                timing,
                (candidate.lines for candidate in report.candidates),
                statement_lines[request.program],
                request.fault_lines,
            )
        )
    record.wall = time.perf_counter() - started
    return record


def _trace_localize(benchmark, inputs: tuple[int, ...]):
    """Localize one input; returns the report and the formula build's share
    of the request's time."""
    request_started = time.perf_counter()
    faulty = benchmark.faulty_program()
    test = list(inputs)
    if "D" in benchmark.reduction:
        test = reduction.minimize_failing_input(test, benchmark.fails)
    spec = benchmark.specification(tuple(test))
    formula_started = time.perf_counter()
    settings: dict = {}
    if "S" in benchmark.reduction:
        settings = reduction.sliced_tracer_settings(faulty)
    concrete = set(settings.get("concrete_functions", ()))
    if "C" in benchmark.reduction:
        concrete |= set(benchmark.concretize)
    formula = ConcolicTracer(
        faulty,
        relevant_lines=settings.get("relevant_lines"),
        concrete_functions=concrete,
    ).trace(test, spec)
    formula_seconds = time.perf_counter() - formula_started
    localizer = BugAssistLocalizer(faulty, mode="trace", max_candidates=COMSS_BUDGET)
    report = localizer.localize_trace(formula, program_name=benchmark.name)
    return report, formula_seconds / (time.perf_counter() - request_started)


def serve_replay(
    client: Client,
    work: list[TcasVersionWork],
    repeats: list[TcasRequest],
    tracer,
) -> RunRecord:
    """The daemon's traffic: many requests against few programs.

    Per version the client sends ``compile`` (the compile time is its
    client-side latency), then localizes the version's tests by artifact
    key.  Afterwards it sends the seeded repeats, which the daemon answers
    from its result cache; each must match the first answer byte for byte.
    """
    statement_lines = {
        version.version: tcas_faulty_program(version.version).statement_lines()
        for version in work
    }
    record = RunRecord()
    artifacts: dict[str, str] = {}
    first_answers: dict[TcasRequest, bytes] = {}
    started = time.perf_counter()
    for version in work:
        name = f"tcas-{version.version}"
        with step() as timing, tracer.request(f"compile:{name}"):
            response = client.compile(version.source, name=name)
        record.compiles.append(timing.seconds)
        artifacts[version.version] = response["artifact"]
        for index, request in enumerate(version.requests):
            outcome, answer = _serve_localize(
                client, tracer, f"{name}/{index}", request, artifacts, statement_lines
            )
            record.outcomes.append(outcome)
            if answer is not None:
                first_answers[request] = answer
    for index, request in enumerate(repeats):
        name = f"tcas-{request.version}"
        outcome, answer = _serve_localize(
            client,
            tracer,
            f"repeat:{name}/{index}",
            request,
            artifacts,
            statement_lines,
            kind="cached",
        )
        if outcome.error is None and answer != first_answers.get(request):
            outcome.error = "repeat differs from the first answer"
        record.outcomes.append(outcome)
    record.wall = time.perf_counter() - started
    stats = client.stats()
    record.serve_counters = {
        "serve.compiles": stats["store"]["compiles"],
        "serve.warm_compiles": stats["store"]["warm_compiles"],
        "serve.result_cache_hits": stats["result_cache"]["hits"],
        "serve.artifact_resends": stats["pool"]["artifact_resends"],
    }
    return record


def _serve_localize(client, tracer, request_id, request, artifacts, statement_lines,
                    kind="computed"):
    name = f"tcas-{request.version}"
    try:
        with step() as timing, tracer.request(request_id, kind):
            response = client.localize(
                list(request.inputs),
                Specification.return_value(request.expected),
                artifact=artifacts[request.version],
                options=SERVE_OPTIONS,
            )
    except Exception as exc:  # noqa: BLE001 - counted as failed
        return _failed(name, timing, exc, kind), None
    report = response["report"]
    outcome = judge(
        name,
        timing,
        (candidate["lines"] for candidate in report["candidates"]),
        statement_lines[request.version],
        request.fault_lines,
        kind,
    )
    return outcome, canonical_report_bytes(report)
