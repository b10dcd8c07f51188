"""Compile once, localize many: the session-oriented BugAssist API.

The Table 1 protocol localizes *each* failing test of a program
independently, but the whole-program encoding (and hence almost the entire
partial MaxSAT instance) is identical across those runs — only the
test-input equalities and the post-condition units differ.  A
:class:`LocalizationSession` exploits that:

* the program is compiled exactly once into a
  :class:`~repro.bmc.compiled.CompiledProgram` (the invariant CNF plus the
  bit-vectors where a test plugs in);
* one persistent MaxSAT engine is loaded with the shared instance, and
  each failing test is localized inside a retractable *layer*
  (:meth:`~repro.maxsat.engine.MaxSatEngine.push_layer` /
  :meth:`~repro.maxsat.engine.MaxSatEngine.pop_layer`): the per-test units
  and the CoMSS blocking clauses go in, Algorithm 1 runs, and the layer is
  popped — learnt clauses, variable activities and saved phases survive
  into the next test;
* solver phases are warm-started from the concrete failing test, so the
  first model search starts from the failing execution rather than from a
  cold default;
* :meth:`LocalizationSession.localize_batch` shards the failing tests over
  the daemon's :class:`~repro.serve.workers.WorkerPool`
  (``executor="process"``), shipping the serialized artifact once per
  worker, and merges the per-test reports into a
  :class:`~repro.core.report.RankedLocalization`.

Typical use::

    with LocalizationSession(program) as session:
        ranked = session.localize_batch(failing_tests)
    for line, count in ranked.ranked_lines:
        print(line, count)
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.bmc import BoundedModelChecker, CompiledProgram, dumps_artifact
from repro.core.localizer import run_comss_loop
from repro.core.ranking import merge_reports
from repro.core.report import LocalizationReport, RankedLocalization
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH
from repro.maxsat import MaxSatEngine, make_engine
from repro.spec import Specification

TestCase = Sequence[int] | Mapping[str, int]
FailingTest = tuple[TestCase, Specification]

#: Executors accepted by :meth:`LocalizationSession.localize_batch`.
EXECUTORS = ("serial", "process")


@dataclass
class SessionStats:
    """Counters proving the compile-once contract (used by the benchmarks)."""

    encodings_built: int = 0
    tests_localized: int = 0
    maxsat_calls: int = 0
    sat_calls: int = 0


class LocalizationSession:
    """Localize many failing tests against one compiled program encoding.

    The session is the one entry point for program mode (the whole-program
    BMC encoding); :class:`~repro.core.localizer.BugAssistLocalizer` is the
    one for trace mode (a concolic trace per failing input, nothing to
    compile once).  Sessions are context managers::

        with LocalizationSession(program, hard_lines=(7, 8)) as session:
            report = session.localize(test, spec)
            ranked = session.localize_batch(failing_tests, executor="process",
                                            workers=4)
    """

    def __init__(
        self,
        program: ast.Program,
        width: int = DEFAULT_WIDTH,
        strategy: str = "hitting-set",
        unwind: int = 16,
        max_candidates: int = 25,
        entry: str = "main",
        hard_functions: Iterable[str] = (),
        hard_lines: Iterable[int] = (),
        unwind_planning: bool = False,
        loop_iteration_groups: bool = False,
    ) -> None:
        self.program = program
        self.width = width
        self.strategy = strategy
        self.unwind = unwind
        self.max_candidates = max_candidates
        self.entry = entry
        self.hard_functions = tuple(hard_functions)
        self.hard_lines = set(hard_lines)
        self.unwind_planning = unwind_planning
        self.loop_iteration_groups = loop_iteration_groups
        self.stats = SessionStats()
        #: Solver-effort profile of the most recent :meth:`localize` call
        #: (the innermost engine layer's deltas), for per-request reporting.
        self.last_request_profile: dict[str, object] = {}
        self._compiled: Optional[CompiledProgram] = None
        self._engine: Optional[MaxSatEngine] = None
        self._closed = False
        self._pins = 0

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "LocalizationSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release the persistent engine (the compiled artifact is kept)."""
        if self._pins:
            raise RuntimeError(f"session is pinned ({self._pins} holders)")
        self._engine = None
        self._closed = True

    # -------------------------------------------------------------- pinning

    def pin(self) -> "LocalizationSession":
        """Mark the session in use, protecting it from cache eviction.

        Warm-session caches (the serve worker pool's per-worker LRU) call
        :meth:`pin` while a request runs against the session and
        :meth:`unpin` afterwards; :meth:`close` refuses while pins are held,
        so an eviction sweep can never tear down a session mid-request.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        self._pins += 1
        return self

    def unpin(self) -> None:
        """Drop one pin (the converse of :meth:`pin`)."""
        if self._pins <= 0:
            raise RuntimeError("session is not pinned")
        self._pins -= 1

    @property
    def pinned(self) -> bool:
        """True while at least one holder has the session pinned."""
        return self._pins > 0

    @classmethod
    def from_compiled(
        cls,
        compiled: CompiledProgram,
        strategy: str = "hitting-set",
        max_candidates: int = 25,
        hard_lines: Iterable[int] = (),
    ) -> "LocalizationSession":
        """Adopt an existing compiled artifact (pool workers do this).

        The encoding settings are read back from the artifact.  The session
        never re-encodes: ``stats.encodings_built`` stays 0.
        """
        options = compiled.compile_options
        session = cls(
            None,
            width=compiled.width,
            strategy=strategy,
            unwind=compiled.unwind,
            max_candidates=max_candidates,
            entry=compiled.entry,
            hard_functions=options.get("hard_functions", ()),
            hard_lines=hard_lines,
            unwind_planning=options.get("unwind_planning", False),
            loop_iteration_groups=options.get("loop_iteration_groups", False),
        )
        session._compiled = compiled
        return session

    # --------------------------------------------------------------- compile

    @property
    def compiled(self) -> CompiledProgram:
        """The whole-program encoding, built on first use and then reused."""
        if self._compiled is None:
            checker = BoundedModelChecker(
                self.program,
                width=self.width,
                unwind=self.unwind,
                group_statements=True,
                hard_functions=self.hard_functions,
                unwind_planning=self.unwind_planning,
                loop_iteration_groups=self.loop_iteration_groups,
            )
            self._compiled = checker.compile_program(entry=self.entry)
            self.stats.encodings_built += 1
        return self._compiled

    def _ensure_engine(self) -> MaxSatEngine:
        if self._closed:
            raise RuntimeError("session is closed")
        if self._engine is None:
            # Static soft-clause pruning: statement lines outside the
            # backward slice of every assertion/output stay hard — their
            # writes provably cannot explain the failure, so they are never
            # offered to MaxSAT as fault candidates.
            hard_groups = self.hard_lines.union(self.compiled.pruned_lines)
            wcnf, _ = self.compiled.base_formula().to_wcnf(
                hard_groups=hard_groups or None
            )
            engine = make_engine(self.strategy)
            engine.load(wcnf)
            self._engine = engine
        return self._engine

    # -------------------------------------------------------------- localize

    def localize(
        self,
        failing_test: TestCase,
        spec: Specification,
        nondet_values: Sequence[int] = (),
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Run Algorithm 1 for one failing test on the shared encoding.

        The per-test input and specification units (and every blocking
        clause the CoMSS loop adds) live in a retractable layer that is
        popped before returning, so the next call starts from the same
        shared instance — plus whatever the solver learnt.
        """
        compiled = self.compiled
        # The engine's first load happens inside the request span, so the
        # first report's time covers it.  ``kernel_ms``, ``glue_ms`` and
        # ``kernel_calls`` on the span cover the whole request: engine load,
        # layer load, CoMSS loop and pop.
        seconds_before, calls_before = (
            (0.0, 0) if self._engine is None else self._engine.kernel_totals()
        )
        with obs.span(
            "session.localize", program=program_name or compiled.program_name
        ) as request_span:
            engine = self._ensure_engine()
            units, test_inputs, pinned = compiled.test_units(
                failing_test, spec, nondet_values=nondet_values
            )
            report = LocalizationReport(
                program_name=program_name or compiled.program_name,
                test_inputs=test_inputs,
                specification=spec.describe(),
                trace_assignments=compiled.num_assignments,
                trace_variables=compiled.num_vars,
                trace_clauses=compiled.num_clauses + len(units),
                unwind_truncated=compiled.unwind_truncated,
            )
            sat_calls_before = engine.sat_calls
            engine.push_layer()
            try:
                engine.add_hard_units(units)
                # Warm start: the input and nondet units carry the failing
                # test's concrete bits (see CompiledProgram.test_units).
                engine.set_phases(units[:pinned])
                loop_calls = engine.kernel_totals()[1]
                cores = engine.cores_found
                with obs.span("solve.comss") as solve_span:
                    run_comss_loop(engine, report, self.max_candidates)
                loop_calls = engine.kernel_totals()[1] - loop_calls
                cores = engine.cores_found - cores
                layer_stats = engine.layer_stats()
                report.propagations = layer_stats.propagations
                report.conflicts = layer_stats.conflicts
                profile = dict(engine.layer_profile())
                kernel_exits = engine.layer_kernel_exits()
                kernel_ms = engine.layer_kernel_seconds() * 1000.0
                solve_span.set(
                    sat_calls=profile.get("sat_calls"),
                    propagations=layer_stats.propagations,
                    conflicts=layer_stats.conflicts,
                    kernel_reduce_exits=kernel_exits["reduce"],
                    kernel_capacity_exits=kernel_exits["capacity"],
                    kernel_ms=kernel_ms,
                    # The Python around the kernel: engine, CoMSS loop, glue.
                    glue_ms=solve_span.duration * 1000.0 - kernel_ms,
                    # Calls into the compiled library during the loop, the
                    # engine's solve_current calls, and the UNSAT answers
                    # whose cores fed its hitting set.
                    kernel_calls=loop_calls,
                    iterations=report.maxsat_calls,
                    cores=cores,
                )
                encode_profile = compiled.encode_profile()
                if encode_profile:
                    profile["encode_backend"] = encode_profile["encode_backend"]
                    for phase, seconds in encode_profile["encode_phases"].items():
                        profile[f"encode_phase_{phase}"] = round(seconds, 6)
                trace_id = obs.current_trace_id()
                if trace_id is not None:
                    profile["trace_id"] = trace_id
                self.last_request_profile = profile
            finally:
                engine.pop_layer()
            report.sat_calls = engine.sat_calls - sat_calls_before
        seconds, calls = engine.kernel_totals()
        request_kernel_ms = (seconds - seconds_before) * 1000.0
        request_span.set(
            kernel_ms=request_kernel_ms,
            glue_ms=request_span.duration * 1000.0 - request_kernel_ms,
            kernel_calls=calls - calls_before,
        )
        report.time_seconds = request_span.duration
        _record_localize_metrics(report, layer_stats)
        self.stats.tests_localized += 1
        self.stats.maxsat_calls += report.maxsat_calls
        self.stats.sat_calls += report.sat_calls
        return report

    def localize_test(
        self,
        inputs: TestCase,
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Drop-in signature compatibility with ``BugAssistLocalizer``.

        Lets :func:`repro.core.ranking.rank_locations` and the repair loop
        drive a session unchanged.  The entry function is fixed per session.
        """
        if entry != self.entry:
            raise ValueError(
                f"session compiled for entry {self.entry!r}, got {entry!r}"
            )
        return self.localize(
            inputs, spec, nondet_values=nondet_values, program_name=program_name
        )

    # ----------------------------------------------------------------- batch

    def localize_batch(
        self,
        failing_tests: Iterable[FailingTest],
        executor: str = "serial",
        workers: Optional[int] = None,
        max_runs: Optional[int] = None,
        program_name: Optional[str] = None,
        on_run: Optional[Callable[[LocalizationReport], None]] = None,
    ) -> RankedLocalization:
        """Section 4.3 at session speed: localize a batch and rank the lines.

        ``executor="serial"`` reuses this session's engine for every test;
        ``executor="process"`` compiles once, ships the artifact to each
        worker of a :class:`~repro.serve.workers.WorkerPool`, gives each
        worker one contiguous shard and merges the reports.
        Either way the reports arrive in input order, so the resulting
        :class:`~repro.core.report.RankedLocalization` is identical across
        executors.
        """
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if self._closed:
            raise RuntimeError("session is closed")
        tests = list(failing_tests)
        if max_runs is not None:
            tests = tests[:max_runs]
        name = program_name or self.compiled.program_name
        if executor == "process" and len(tests) > 1:
            reports = self._localize_with_pool(tests, workers)
        else:
            # A generator, so on_run streams per-test progress as each
            # localization finishes instead of after the whole batch.
            reports = (self.localize(inputs, spec) for inputs, spec in tests)
        return merge_reports(name, reports, on_run=on_run)

    def _localize_with_pool(
        self, tests: list[FailingTest], workers: Optional[int]
    ) -> list[LocalizationReport]:
        """Run the batch on a :class:`~repro.serve.workers.WorkerPool`.

        The daemon's pool, started for this call only: the artifact is
        serialized once, each worker adopts it with
        :meth:`from_compiled` (zero encodings), and the tests are cut into
        one contiguous shard per worker.  A dead or wedged worker gets the
        pool's single retry; a test that raises surfaces as
        :class:`~repro.serve.workers.ServeShardError` naming its inputs.
        """
        from repro.serve.workers import Job, WorkerPool

        workers = workers or min(len(tests), os.cpu_count() or 1)
        workers = max(1, min(workers, len(tests)))
        blob = dumps_artifact(self.compiled)
        job = Job(
            artifact_key=hashlib.sha256(blob).hexdigest(),
            artifact_bytes=lambda: blob,
            session_options={
                "strategy": self.strategy,
                "max_candidates": self.max_candidates,
                "hard_lines": sorted(self.hard_lines),
            },
            tests=[
                (index, inputs, spec, ()) for index, (inputs, spec) in enumerate(tests)
            ],
            # The caller's open span, if any: worker spans ship back with
            # the results and stitch under it.
            trace_ctx=obs.current_context(),
        )
        with WorkerPool(
            workers=workers, max_tests_per_shard=math.ceil(len(tests) / workers)
        ) as pool:
            by_index = pool.run_jobs([job])
        reports = [by_index[index] for index in range(len(tests))]
        self.stats.tests_localized += len(tests)
        for report in reports:
            self.stats.maxsat_calls += report.maxsat_calls
            self.stats.sat_calls += report.sat_calls
        return reports


def _record_localize_metrics(report: LocalizationReport, layer_stats) -> None:
    """Absorb one request's solver effort into the process metrics registry.

    ``layer_stats`` is the per-request :class:`~repro.sat.solver.SolverStats`
    delta (the engine layer's ``since`` snapshot), so the counters aggregate
    true per-request effort — including the C-core propagation/conflict/
    restart counts when those backends ran.
    """
    registry = obs.REGISTRY
    registry.counter(
        "repro_localizations", "Localization requests completed"
    ).inc()
    registry.counter(
        "repro_solver_sat_calls", "Incremental SAT calls issued by the CoMSS loop"
    ).inc(report.sat_calls)
    registry.counter(
        "repro_solver_propagations", "Unit propagations across all solves"
    ).inc(layer_stats.propagations)
    registry.counter(
        "repro_solver_conflicts", "Conflicts across all solves"
    ).inc(layer_stats.conflicts)
    registry.counter(
        "repro_solver_restarts", "Solver restarts across all solves"
    ).inc(layer_stats.restarts)
    registry.histogram(
        "repro_localize_seconds", "End-to-end localization latency"
    ).observe(report.time_seconds)
