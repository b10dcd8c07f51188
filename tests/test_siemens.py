"""Tests for the Siemens-style benchmark suite and the trace reductions."""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.core import (
    BugAssistLocalizer,
    LocalizationSession,
    OffByOneRepairer,
    Specification,
)
from repro.concolic import ConcolicTracer
from repro.lang import Interpreter
from repro.reduction import (
    concretizable_functions,
    ddmin,
    minimize_failing_input,
    slice_relevant_lines,
    sliced_tracer_settings,
)
from repro.siemens import (
    TCAS_FAULTS,
    classify_tcas_tests,
    generate_tcas_tests,
    golden_outputs,
    run_tcas_version,
    tcas_fault,
    tcas_faulty_program,
    tcas_program,
    tcas_versions,
)
from repro.siemens.faults import ErrorType
from repro.siemens.programs import (
    LARGE_BENCHMARKS,
    PRINT_TOKENS,
    SCHEDULE,
    SCHEDULE2,
    TOT_INFO,
)
from repro.siemens.strncat_example import (
    FAULT_LINE,
    LIBRARY_FUNCTIONS,
    fixed_strncat_program,
    strncat_program,
)
from repro.siemens.suite import TCAS_HARNESS_LINES, run_large_benchmark

POOL = 300  # small test pool for unit tests; benchmarks use larger pools


class TestTcasProgram:
    def test_reference_program_parses_and_runs(self):
        program = tcas_program()
        assert program.lines_of_code() == 103
        result = Interpreter(program).run([601, 1, 1, 2000, 500, 3000, 0, 399, 400, 0, 1, 0])
        assert result.return_value in (0, 1, 2)

    def test_all_versions_parse(self):
        for version in tcas_versions():
            program = tcas_faulty_program(version)
            assert program.functions["main"].params  # parsed with 12 inputs

    def test_catalogue_matches_table1_shape(self):
        assert len(TCAS_FAULTS) == 39  # Table 1 lists v1-v41 minus v33, v38
        multi_error = {fault.name: fault.errors for fault in TCAS_FAULTS if fault.errors > 1}
        assert set(multi_error) == {"v10", "v11", "v15", "v31", "v32", "v40"}
        assert multi_error["v15"] == 3

    def test_error_types_cover_table2(self):
        used = {fault.error_type for fault in TCAS_FAULTS}
        assert used == set(ErrorType)
        for error_type in ErrorType:
            assert error_type.explanation()

    def test_every_version_has_failing_tests(self):
        for version in tcas_versions():
            failing, passing = classify_tcas_tests(version, count=600)
            assert failing, f"{version} has no failing tests in the pool"
            assert passing

    def test_golden_outputs_deterministic(self):
        assert golden_outputs(100) == golden_outputs(100)
        assert len(generate_tcas_tests(100)) == 100

    def test_fault_lookup(self):
        fault = tcas_fault("v2")
        assert fault.error_type is ErrorType.CONST
        assert fault.fault_lines == (28,)
        with pytest.raises(KeyError):
            tcas_fault("v99")

    def test_localization_detects_v2_fault(self):
        # Figure 2: the constant fault in Inhibit_Biased_Climb (line 28 here)
        # must be among the reported locations for a failing test.
        result = run_tcas_version("v2", test_count=600, max_localized_tests=1)
        assert result.failing_tests > 0
        assert result.detected == result.runs == 1
        assert 28 in result.reported_lines
        assert 0 < result.size_reduction_percent(103) < 100
        assert all(line not in TCAS_HARNESS_LINES for line in result.reported_lines)


class TestLargeBenchmarks:
    def test_failing_tests_fail_and_reference_passes(self):
        for benchmark in LARGE_BENCHMARKS:
            assert benchmark.fails(list(benchmark.failing_test)), benchmark.name
            reference = Interpreter(benchmark.reference_program()).run(
                list(benchmark.failing_test)
            )
            assert not reference.assertion_failed

    @pytest.mark.slow
    def test_reduction_shrinks_formula(self):
        for benchmark in (TOT_INFO, PRINT_TOKENS):
            row = run_large_benchmark(benchmark, max_candidates=4)
            assert row.clauses_after < row.clauses_before
            assert row.variables_after <= row.variables_before
            assert row.fault_candidates >= 1

    def test_reduction_smoke(self):
        # Fast tier-1 variant of the Table 3 protocol: one CoMSS on the
        # concolically reduced print_tokens trace exercises the same
        # reduction + incremental localization pipeline in well under a
        # second of MaxSAT work.
        row = run_large_benchmark(PRINT_TOKENS, max_candidates=1)
        assert row.clauses_after < row.clauses_before
        assert row.variables_after <= row.variables_before
        assert row.fault_candidates >= 1
        assert row.maxsat_calls == 1
        assert row.sat_calls >= 1

    @pytest.mark.slow
    def test_schedule_delta_debugging(self):
        row = run_large_benchmark(SCHEDULE, max_candidates=4)
        assert row.reduction == "DS"
        assert row.fault_candidates >= 1

    def test_schedule_delta_debugging_smoke(self):
        row = run_large_benchmark(SCHEDULE, max_candidates=1)
        assert row.reduction == "DS"
        assert row.fault_candidates >= 1

    def test_side_experiments_are_not_timed(self, monkeypatch):
        # Delay every side experiment (the two whole-program compiles and
        # the unnarrowed re-trace) by ``delay``: none of it may show up in
        # the row's ``time_seconds``.
        from repro.bmc import BoundedModelChecker

        delay = 0.5
        delayed: list[str] = []

        def slowed(name, original):
            def wrapper(*args, **kwargs):
                delayed.append(name)
                time.sleep(delay)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            BoundedModelChecker,
            "compile_program",
            slowed("compile", BoundedModelChecker.compile_program),
        )
        original_trace = ConcolicTracer.trace

        def trace(tracer, *args, **kwargs):
            if not tracer.analysis_narrowing:
                delayed.append("unnarrowed")
                time.sleep(delay)
            return original_trace(tracer, *args, **kwargs)

        monkeypatch.setattr(ConcolicTracer, "trace", trace)
        row = run_large_benchmark(SCHEDULE2)
        assert delayed.count("compile") >= 2
        assert "unnarrowed" in delayed
        assert row.time_seconds < delay


class TestReductions:
    def test_backward_slice_keeps_assertion_relevant_lines(self):
        program = TOT_INFO.faulty_program()
        relevant = slice_relevant_lines(program)
        # The info computation feeds the return value and must stay.
        assert 70 in relevant and 71 in relevant
        settings = sliced_tracer_settings(program)
        # The scratch statistics function is irrelevant to the output.
        assert "scratch_statistics" in settings["concrete_functions"]

    def test_tot_info_slice_contents_pinned(self):
        # Regression for the slicer over-approximation: every line of
        # scratch_statistics (49-58) used to land in the slice because all
        # control statements were marked relevant, which kept the function
        # symbolic.  Pin the exact slice so coarsening is caught immediately.
        program = TOT_INFO.faulty_program()
        relevant = slice_relevant_lines(program)
        assert relevant == {
            # fill_table writes the table read by info_statistic
            5, 6, 7, 8,
            # info_statistic feeds main's return value (grand on lines 12/22
            # influences nothing and stays out)
            13, 14, 15, 16, 17, 18, 19, 20, 23, 25, 26, 27, 28, 29, 30, 31,
            33, 35, 36, 37, 38, 39, 40, 41, 42, 43, 45, 47,
            # main: info, the input assumptions, the bounds check and returns
            61, 63, 64, 65, 66, 68, 70, 71,
        }
        # scratch_statistics (49-58) and its call site (69) are irrelevant.
        assert not relevant & set(range(49, 60))
        assert 69 not in relevant and 62 not in relevant

    def test_concretizable_functions(self):
        program = PRINT_TOKENS.faulty_program()
        concretizable = concretizable_functions(program)
        assert "skip_separators" in concretizable
        assert "main" not in concretizable

    def test_ddmin_minimizes(self):
        # Failure occurs whenever both 3 and 7 are present.
        result = ddmin([1, 3, 5, 7, 9], lambda items: 3 in items and 7 in items)
        assert sorted(result) == [3, 7]

    def test_ddmin_requires_failing_input(self):
        with pytest.raises(ValueError):
            ddmin([1, 2], lambda items: False)

    def test_minimize_failing_input_keeps_length(self):
        minimized = minimize_failing_input(
            [4, 1, 9, 2], lambda values: values[2] == 9, neutral=0
        )
        assert len(minimized) == 4
        assert minimized[2] == 9
        assert minimized.count(0) >= 2

    def test_slice_memo_hits_and_misses(self, monkeypatch):
        """The slice is memoized on the program's frozen objects: a program
        sharing them hits, replacing a function or a global misses, and
        every answer equals a cold slice."""
        import dataclasses
        from collections import OrderedDict

        from repro.reduction import slicing

        monkeypatch.setattr(slicing, "_slice_memo", OrderedDict())
        slices = []
        backward = slicing.backward_slice_lines

        def counting(*args):
            slices.append(args)
            return backward(*args)

        monkeypatch.setattr(slicing, "backward_slice_lines", counting)

        def cold(program, **options):
            saved = slicing._slice_memo
            slicing._slice_memo = OrderedDict()
            try:
                return sliced_tracer_settings(program, **options)
            finally:
                slicing._slice_memo = saved

        cached = TOT_INFO.faulty_program()
        program = dataclasses.replace(
            cached, functions=dict(cached.functions), globals=list(cached.globals)
        )
        first = sliced_tracer_settings(cached)
        again = sliced_tracer_settings(program)  # same objects: a hit
        assert len(slices) == 1
        assert again == first and again["relevant_lines"] is not first["relevant_lines"]
        assert "scratch_statistics" in first["concrete_functions"]

        # Replacing a function (here: emptying it) misses.
        statistics = program.functions["scratch_statistics"]
        program.functions["scratch_statistics"] = dataclasses.replace(
            statistics, body=()
        )
        emptied = sliced_tracer_settings(program)
        assert len(slices) == 2
        assert emptied == cold(program)
        assert "scratch_statistics" not in emptied["concrete_functions"]

        # Replacing a global, even by an equal one, misses.
        program.globals[0] = dataclasses.replace(program.globals[0])
        regloballed = sliced_tracer_settings(program)
        assert len(slices) == 4
        assert regloballed == cold(program) == emptied

        # The criterion and the protected functions are part of the key.
        program.functions["scratch_statistics"] = statistics
        protected = sliced_tracer_settings(
            program, protected_functions=["scratch_statistics"]
        )
        assert "scratch_statistics" not in protected["concrete_functions"]
        assert protected == cold(program, protected_functions=["scratch_statistics"])
        narrowed = sliced_tracer_settings(program, criterion_variables=["info"])
        assert narrowed == cold(program, criterion_variables=["info"])
        # The original functions with the replaced global: a miss, and the
        # original slice again.
        assert sliced_tracer_settings(program) == first
        assert len(slices) == 10

    def test_sliced_trace_still_localizes_schedule2(self):
        benchmark = LARGE_BENCHMARKS[3]
        faulty = benchmark.faulty_program()
        settings = sliced_tracer_settings(faulty)
        formula = ConcolicTracer(
            faulty,
            relevant_lines=settings["relevant_lines"],
            concrete_functions=settings["concrete_functions"],
        ).trace(list(benchmark.failing_test), benchmark.specification())
        report = BugAssistLocalizer(faulty, mode="trace").localize_trace(formula)
        assert report.lines


class TestStrncatExample:
    def test_buggy_program_overflows(self):
        result = Interpreter(strncat_program()).run([3])
        assert result.assertion_failed

    def test_fixed_program_is_safe(self):
        result = Interpreter(fixed_strncat_program()).run([3])
        assert not result.assertion_failed

    def test_localization_blames_the_call_not_the_library(self):
        program = strncat_program()
        session = LocalizationSession(
            program, unwind=10, hard_functions=LIBRARY_FUNCTIONS
        )
        report = session.localize([3], Specification.assertion())
        assert report.contains_line(FAULT_LINE)
        library_lines = set(range(5, 26))
        assert not set(report.lines) & library_lines

    def test_off_by_one_repair_fixes_the_call(self):
        program = strncat_program()
        session = LocalizationSession(
            program, unwind=10, hard_functions=LIBRARY_FUNCTIONS
        )
        repairer = OffByOneRepairer(program, localizer=session, validator="tests")
        regressions = []
        result = repairer.repair([3], Specification.assertion(), regression_tests=regressions)
        # The only constant on the faulty call line is the buffer length
        # argument... the call passes SIZE (a variable), so the constant
        # repair may fail; operator repair is not needed for the paper's fix.
        # What matters is that the report localizes the call.
        assert result.localization is not None
        assert result.localization.contains_line(FAULT_LINE)


def test_table3_record_carries_detection(tmp_path, monkeypatch):
    """Each row the Table 3 benchmark writes records whether the fault was found."""
    from repro.siemens.suite import LargeBenchmarkResult

    path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "bench_table3_large_programs.py"
    )
    spec = importlib.util.spec_from_file_location("bench_table3_record", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    record = tmp_path / "BENCH_table3.json"
    monkeypatch.setattr(bench, "BENCH_JSON_PATH", record)
    for name, detected in (("schedule", True), ("tot_info", False)):
        bench._rows[name] = LargeBenchmarkResult(
            name=name, reduction="S", loc=1, procedures=1, detected=detected
        )
    bench._write_bench_json()
    rows = json.loads(record.read_text())["rows"]
    assert {row["name"]: row["detected"] for row in rows} == {
        "schedule": True,
        "tot_info": False,
    }
