"""Solve reuse in the analysis fixpoint, within one run and across runs.

Every fixpoint round of :func:`repro.analysis.analyze_program` used to
re-solve every function.  A function whose environment (parameter
intervals, callee return summaries, the global-invariant entries it
mentions) matches the one a kept solve ran under now reuses that solve.
Solves are kept in one process-wide table keyed by function content (plus
the width, the array-size table and the callees' parameter names) and a
fingerprint of that environment, so any later analysis carrying the same
function — the concolic tracer's next failing test, a second compile, the
next version of an edited program — reuses them too, along with the
products a converged analysis kept on them.  These tests pin the reuse to the re-solve-everything fixpoint:

* the analysis products equal a reference run with every table lookup
  forced to miss, on every TCAS version, the four Table 3 programs and
  a mutually recursive program that reaches the widening rounds;
* a pinned analysis of every seed-7 ``siemens-trace`` request on a warm
  table equals a cold one, an earlier result stays as it was however many
  later analyses share its solves, and the table's total bound keeps the
  most recently used solves of any program;
* a lookup hits exactly when the scan it replaced would have
  (``environment_matches`` over the kept slice, kept here as the
  reference), makes as many key comparisons with a thousand environments
  under one key as with one, and a function's key and reads are computed
  once per ``Function`` object;
* a second program analyzed after a first equals its cold analysis when
  the two differ in a callee's parameter names, another function's local
  array size, a global initializer or the entry, and after a first
  analysis cut at ``MAX_ROUNDS``;
* every TCAS version, the Table 3 programs and the loop corpus analyzed
  and compiled on a warm table, in forward and in reverse order, equal
  their cold analyses field by field and their cold artifacts byte by byte
  (a subset in tier 1, all of them with ``--runslow``);
* every TCAS compile keeps the signature, variable count and clause lists
  recorded from the re-solve-everything fixpoint
  (``golden_tcas_compile.json``), and a compile's artifact bytes do not
  depend on the analyses run before it;
* the solve and product counts reach the ``encode.analysis`` span (of a
  compile and of a concolic trace), the ``repro_analysis_solves`` counter
  and the encode profile;
* an analysis that raises is counted and named on the span, and the
  compile or trace goes on without narrowing;
* with ``--runslow``: the ordered candidates and trace-formula clause
  stores of every ``siemens-trace`` request of seeds 7, 1, 3 and 11 equal
  a run whose solve table is cleared before each request.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.analysis
import repro.analysis.analyzer as analyzer
from repro import obs
from repro.analysis import AnalysisResult, Interval, analyze_program
from repro.analysis.incremental import environment_fingerprint
from repro.bmc import BoundedModelChecker, dumps_artifact
from repro.concolic import ConcolicTracer
from repro.core import LocalizationSession
from repro.lang import check_program, parse_program
from repro.reduction import minimize_failing_input
from repro.sat import search_backend
from repro.siemens import tcas_faulty_program, tcas_faulty_source
from repro.siemens.loop_corpus import LOOP_BENCHMARKS
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import TCAS_HARNESS_LINES, localize_large_input
from repro.siemens.tcas import tcas_versions
from repro.spec import Specification

GOLDEN = Path(__file__).with_name("golden_tcas_compile.json")

#: Return summaries grow by one every round until widening stops them.
MUTUAL_RECURSION = """
int count = 0;
int ping(int n) {
    count = count + 1;
    if (n <= 0) {
        return count;
    }
    return pong(n - 1) + 1;
}
int pong(int n) {
    if (n <= 0) {
        return 0;
    }
    return ping(n - 1) + 2;
}
int main(int x) {
    assume(x >= 0);
    assume(x < 10);
    return ping(x);
}
"""

#: One function, no calls, no globals: one kept solve per pinned input.
STRAIGHT_LINE = """
int main(int x) {
    int y = x + 1;
    return y;
}
"""

#: ``f`` runs only when ``x > 0``.  The fixpoint environment of ``f`` under
#: ``x == 0`` is the one the first round of an ``x == 5`` analysis solved it
#: under, before that analysis moved ``g`` on to ``[0, 5]``.
SUPERSEDED = """
int g = 0;
int f(int v) {
    int r = g + 1;
    return r + v;
}
int main(int x) {
    int out = 0;
    if (x > 0) {
        g = x;
        out = f(1);
    }
    return out;
}
"""

#: tot_info's requests take about a minute each on the pure-Python search
#: loop (about 1.6 s on the C kernel).
PYTHON_SEARCH_SKIPS = {"tot_info"} if search_backend() == "python" else set()

BENCHMARKS = {benchmark.name: benchmark for benchmark in LARGE_BENCHMARKS}

#: The analysis products compared against the reference.
PRODUCTS = (
    "diagnostics",
    "write_intervals",
    "flow_write_intervals",
    "variable_intervals",
    "loop_bounds",
    "summaries",
    "states",
)


def mutual_recursion_program():
    program = parse_program(MUTUAL_RECURSION, name="ping-pong")
    check_program(program)
    return program


def parsed(source: str, name: str):
    program = parse_program(source, name=name)
    check_program(program)
    return program


def fresh_tcas(version: str):
    """A newly parsed TCAS version (not the lru-cached object)."""
    return parsed(tcas_faulty_source(version), f"tcas-{version}")


@pytest.fixture
def table(monkeypatch):
    """An empty solve table, in place of the process-wide one for the
    test."""
    fresh = analyzer._SolveTable()
    monkeypatch.setattr(analyzer, "_SOLVES", fresh)
    return fresh


@contextmanager
def empty_table():
    """An empty solve table in place of the process-wide one, which is
    left as it was."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "_SOLVES", analyzer._SolveTable())
        yield


def cold_analysis(program, **options):
    with empty_table():
        return analyze_program(program, **options)


def cold_compile(program):
    with empty_table():
        return compile_program(program)


def compile_program(program):
    return BoundedModelChecker(program, group_statements=True).compile_program()


#: The counters that differ between a warm and a cold analysis by design.
COUNTS = ("solves", "solves_reused", "products_reused", "table_solves")


def assert_equal_analyses(warm, cold, context=None):
    """Every :class:`AnalysisResult` field but the reuse counters is equal,
    and both runs went through the same number of rounds."""
    for field_ in dataclasses.fields(AnalysisResult):
        if field_.name not in COUNTS:
            assert getattr(warm, field_.name) == getattr(cold, field_.name), (
                context,
                field_.name,
            )
    assert warm.solves + warm.solves_reused == cold.solves + cold.solves_reused


def siemens_trace_tests(seed: int):
    """``(benchmark, test)`` per ``siemens-trace`` request of ``seed``, with
    the inputs delta-debugged as the workload does before it traces."""
    from perfbench.generate import siemens_requests

    runs = []
    for request in siemens_requests(seed):
        benchmark = BENCHMARKS[request.program]
        test = list(request.inputs)
        if "D" in benchmark.reduction:
            test = minimize_failing_input(test, benchmark.fails)
        runs.append((benchmark, test))
    return runs


def corpus():
    programs = [tcas_faulty_program(version) for version in tcas_versions()]
    programs += [benchmark.faulty_program() for benchmark in LARGE_BENCHMARKS]
    programs.append(mutual_recursion_program())
    return programs


def resolve_every_round(monkeypatch):
    """Turn reuse off: every round re-solves every function."""
    monkeypatch.setattr(analyzer._SolveTable, "lookup", lambda self, key: None)


def clause_digest(compiled) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(compiled.hard).encode())
    for group, clauses in compiled.groups.items():
        digest.update(
            json.dumps([group.line, group.function, group.iteration, clauses]).encode()
        )
    return digest.hexdigest()


def test_mutual_recursion_reaches_widening():
    program = mutual_recursion_program()
    result = analyze_program(program)
    # Every round solves or reuses each function exactly once.
    rounds, rest = divmod(
        result.solves + result.solves_reused, len(program.functions)
    )
    assert rest == 0
    assert rounds > analyzer.WIDEN_ROUND + 1
    assert result.solves_reused > 0


def test_products_equal_the_resolving_fixpoint(monkeypatch):
    programs = corpus()
    reused = [analyze_program(program) for program in programs]
    resolve_every_round(monkeypatch)
    reference = [analyze_program(program) for program in programs]
    for program, got, want in zip(programs, reused, reference):
        assert want.solves_reused == 0
        assert got.solves + got.solves_reused == want.solves, program.name
        for name in PRODUCTS:
            assert getattr(got, name) == getattr(want, name), (program.name, name)


def test_pinned_entry_inputs_equal_the_resolving_fixpoint(monkeypatch):
    """The concolic tracer's analysis: entry parameters pinned to a test."""
    runs = [
        (benchmark.faulty_program(), list(benchmark.failing_test))
        for benchmark in LARGE_BENCHMARKS
    ]
    runs.append((mutual_recursion_program(), [7]))
    reused = [analyze_program(program, entry_inputs=test) for program, test in runs]
    resolve_every_round(monkeypatch)
    for (program, test), got in zip(runs, reused):
        want = analyze_program(program, entry_inputs=test)
        for name in PRODUCTS:
            assert getattr(got, name) == getattr(want, name), (program.name, name)


def test_tcas_reuse_fires(table):
    solved = reused = 0
    for version in tcas_versions():
        program = fresh_tcas(version)
        result = analyze_program(program)
        solved += result.solves
        reused += result.solves_reused
        # A second analysis of the same program solves nothing and takes
        # every function's products from the kept solves.
        again = analyze_program(program)
        assert again.solves == 0, version
        assert again.solves_reused == result.solves + result.solves_reused, version
        assert again.products_reused == len(program.functions), version
    assert reused > 0
    assert solved > 0


def test_tcas_versions_reuse_each_other_s_solves(table):
    """A version shares all but its faulty function with an earlier one,
    so a pass over every version solves a small fraction of what cold
    analyses would."""
    warm = [analyze_program(fresh_tcas(version)) for version in tcas_versions()]
    cold = [cold_analysis(fresh_tcas(version)) for version in tcas_versions()]
    assert sum(r.solves for r in warm) * 4 < sum(r.solves for r in cold)
    assert sum(r.products_reused for r in warm) > 0
    assert all(r.products_reused == 0 for r in cold)


def test_pinned_analyses_on_a_warm_table_equal_cold_ones():
    """The tracer's analysis of every seed-7 ``siemens-trace`` request, on
    the table the earlier requests left, equals one on an empty table."""
    warm_reused = cold_reused = 0
    for benchmark, test in siemens_trace_tests(7):
        program = benchmark.faulty_program()
        warm = analyze_program(program, entry_inputs=test)
        cold = cold_analysis(program, entry_inputs=test)
        warm_reused += warm.solves_reused
        cold_reused += cold.solves_reused
        assert_equal_analyses(warm, cold, (benchmark.name, test))
    assert warm_reused > cold_reused


def test_a_reused_solve_reads_the_reusing_run_s_environment():
    """The collectors evaluate a reused solve against this run's global
    invariant, not the one its solving run ended with."""
    program = parsed(SUPERSEDED, "superseded")
    analyze_program(program, entry_inputs=[5])
    warm = analyze_program(program, entry_inputs=[0])
    cold = cold_analysis(program, entry_inputs=[0])
    assert warm.solves_reused > cold.solves_reused
    assert warm.write_interval("f", 4) == Interval.const(1)
    assert_equal_analyses(warm, cold)


def test_earlier_results_survive_later_analyses():
    """Later analyses share an earlier one's solves but never write to
    them: its products stay as they were."""
    benchmark = BENCHMARKS["schedule2"]
    program = copy.deepcopy(benchmark.faulty_program())
    test = list(benchmark.failing_test)
    earlier = [
        analyze_program(program),
        analyze_program(program, entry_inputs=test),
    ]
    snapshots = [
        {name: copy.deepcopy(getattr(result, name)) for name in PRODUCTS}
        for result in earlier
    ]
    reused = 0
    for value in range(30):
        later = analyze_program(program, entry_inputs=test[:-1] + [value])
        reused += later.solves_reused
    assert reused > 0
    for result, snapshot in zip(earlier, snapshots):
        for name in PRODUCTS:
            assert getattr(result, name) == snapshot[name], name


def test_artifact_bytes_do_not_depend_on_analysis_history():
    """A compile that reuses solves of earlier analyses pickles to the
    same bytes as a cold one (artifact keys hash those bytes)."""
    benchmark = BENCHMARKS["schedule2"]
    program = copy.deepcopy(benchmark.faulty_program())
    cold = cold_compile(program)
    for value in range(5):
        analyze_program(program, entry_inputs=[value, *benchmark.failing_test[1:]])
    warm = compile_program(program)
    assert dumps_artifact(warm) == dumps_artifact(cold)


def test_concurrent_analyses_of_one_program_share_its_table(monkeypatch, table):
    """Threads analysing one program object at once, with a short switch
    interval and a bound small enough to evict all the time, get the cold
    results and leave the table within its bound."""
    benchmark = BENCHMARKS["schedule2"]
    program = copy.deepcopy(benchmark.faulty_program())
    tests = [[value, *benchmark.failing_test[1:]] for value in range(12)]
    expected = [cold_analysis(program, entry_inputs=test) for test in tests]
    monkeypatch.setattr(analyzer, "SOLVE_TABLE_CAP", 3)
    failures: list = []

    def worker(offset: int) -> None:
        try:
            for index in range(len(tests)):
                index = (index + offset) % len(tests)
                got = analyze_program(program, entry_inputs=tests[index])
                for name in PRODUCTS:
                    if getattr(got, name) != getattr(expected[index], name):
                        failures.append((index, name))
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(table) <= analyzer.SOLVE_TABLE_CAP
    # Every kept solve is filed under its own key and fingerprint.
    assert all(key == solve_.key for key, solve_ in table._solves.items())


def test_the_cap_keeps_the_most_recently_used_solves(monkeypatch, table):
    monkeypatch.setattr(analyzer, "SOLVE_TABLE_CAP", 2)
    program = parsed(STRAIGHT_LINE, "straight-line")
    assert [analyze_program(program, entry_inputs=[x]).solves for x in (1, 2, 1, 3)] == [
        1,
        1,
        0,
        1,
    ]
    # x=1 was used after x=2, so x=2's solve is the one x=3 displaced.
    assert len(table) == 2
    assert analyze_program(program, entry_inputs=[1]).solves == 0
    assert analyze_program(program, entry_inputs=[2]).solves == 1
    assert len(table) == 2


def test_the_bound_drops_the_least_recently_used_solve_of_any_program(
    monkeypatch, table
):
    """The bound counts the solves of every program together: a third
    program's solve displaces whichever of the two kept ones was used
    least recently, whatever program it came from."""
    monkeypatch.setattr(analyzer, "SOLVE_TABLE_CAP", 2)
    first, second, third = (
        parsed(STRAIGHT_LINE.replace("x + 1", f"x + {k}"), f"straight-{k}")
        for k in (1, 2, 3)
    )
    assert [analyze_program(program).solves for program in (first, second)] == [1, 1]
    # A newly parsed copy of the first program is a hit: same content.
    assert analyze_program(parsed(STRAIGHT_LINE, "copy")).solves == 0
    assert analyze_program(third).solves == 1
    assert len(table) == 2
    assert analyze_program(first).solves == 0
    assert analyze_program(second).solves == 1
    assert len(table) == 2


# ------------------------------------------------ cross-program hazards
#
# Each pair differs outside one function's body in something that function's
# solve or products read; the second program analyzed after the first must
# equal its cold analysis.

#: ``f`` is byte-identical in both; ``g`` swaps its parameter names, so the
#: same call ``g(x, 1)`` binds ``p`` to 1 instead of ``x``.
RENAMED_CALLEE = """
int g(int {first}, int {second}) {{
    return p - q;
}}
int f(int x) {{
    int r = g(x, 1);
    return r;
}}
int main(int x) {{
    assume(x >= 10);
    assume(x < 20);
    return f(x);
}}
"""

#: ``f`` indexes its local ``buf`` at 5; ``g``'s local ``buf``, declared
#: later, sets the size the program-wide array table holds for the name.
OTHER_LOCAL_ARRAY = """
int f(int i) {{
    int buf[8];
    buf[5] = i;
    return buf[5];
}}
int g(int i) {{
    int buf[{size}];
    buf[0] = i;
    return buf[0];
}}
int main(int x) {{
    return f(x) + g(x);
}}
"""

GLOBAL_INITIALIZER = """
int limit = {limit};
int f(int v) {{
    int r = limit * 2;
    return r + v;
}}
int main(int x) {{
    assume(x >= 0);
    assume(x < 4);
    return f(x);
}}
"""

TWO_ENTRIES = """
int f(int v) {
    int r = v * 2;
    return r;
}
int main(int x) {
    assume(x >= 0);
    assume(x < 4);
    return f(x);
}
"""

#: ``h`` writes the global ``f`` reads only in the first program.  One
#: round is not enough for that program to converge, so its products of
#: ``f`` see ``g`` widened by ``h``'s write; the second program converges
#: with ``g`` at its initializer and must not take them.
UNCONVERGED = """
int g = 0;
int f(int v) {{
    int r = g + 1;
    return r;
}}
int h(int v) {{
    {write}
    return 0;
}}
int main(int x) {{
    int a = h(x);
    return f(x) + a;
}}
"""


@pytest.mark.parametrize(
    "first, second, options",
    [
        pytest.param(
            RENAMED_CALLEE.format(first="p", second="q"),
            RENAMED_CALLEE.format(first="q", second="p"),
            {},
            id="callee-parameters-renamed",
        ),
        pytest.param(
            OTHER_LOCAL_ARRAY.format(size=4),
            OTHER_LOCAL_ARRAY.format(size=16),
            {},
            id="other-function-s-local-array-size",
        ),
        pytest.param(
            GLOBAL_INITIALIZER.format(limit=3),
            GLOBAL_INITIALIZER.format(limit=7),
            {},
            id="global-initializer",
        ),
        # ``f`` as the pinned entry first, then as ``main``'s callee.
        pytest.param(
            TWO_ENTRIES,
            TWO_ENTRIES,
            {"entry": "f", "entry_inputs": [2]},
            id="entry",
        ),
    ],
)
def test_a_second_program_equals_its_cold_analysis(table, first, second, options):
    analyze_program(parsed(first, "first"), **options)
    program = parsed(second, "second")
    assert_equal_analyses(analyze_program(program), cold_analysis(program))


def test_an_unconverged_analysis_keeps_no_products(monkeypatch, table):
    monkeypatch.setattr(analyzer, "MAX_ROUNDS", 1)
    first = parsed(UNCONVERGED.format(write="g = 5;"), "first")
    assert_equal_analyses(analyze_program(first), cold_analysis(first))
    monkeypatch.undo()
    monkeypatch.setattr(analyzer, "_SOLVES", table)
    second = parsed(UNCONVERGED.format(write="g = g;"), "second")
    warm = analyze_program(second)
    cold = cold_analysis(second)
    assert warm.solves_reused > cold.solves_reused
    assert warm.write_interval("f", 4) == Interval.const(1)
    assert_equal_analyses(warm, cold)


# ------------------------------------------- fingerprint lookup and the memo
#
# The table used to scan every kept solve under a key with
# ``environment_matches`` against the slice of the environment the solve
# kept.  Both live on here as the reference the fingerprint lookup must
# agree with.


@dataclass
class RoundRecord:
    """The slice of a round's environment one function observes."""

    params: dict = field(default_factory=dict)
    returns: dict = field(default_factory=dict)
    global_scalars: dict = field(default_factory=dict)
    global_arrays: dict = field(default_factory=dict)


def environment_slice(
    name, reads, params, returns, global_scalars, global_arrays
) -> RoundRecord:
    """The part of the live environment :func:`environment_matches`
    compares for ``name`` (entries missing from it stay missing)."""
    callees, nonlocals = reads
    return RoundRecord(
        params={name: params},
        returns={callee: returns[callee] for callee in callees if callee in returns},
        global_scalars={
            var: global_scalars[var] for var in nonlocals if var in global_scalars
        },
        global_arrays={
            var: global_arrays[var] for var in nonlocals if var in global_arrays
        },
    )


def environment_matches(
    name, reads, params, returns, global_scalars, global_arrays, record
) -> bool:
    """Does the live environment match ``record``'s, as seen by ``name``?
    Missing entries on both sides count as equal."""
    if record.params.get(name) != params:
        return False
    callees, nonlocals = reads
    for callee in callees:
        if record.returns.get(callee) != returns.get(callee):
            return False
    for var in nonlocals:
        if record.global_scalars.get(var) != global_scalars.get(var):
            return False
        if record.global_arrays.get(var) != global_arrays.get(var):
            return False
    return True


def kept_solve(key, fingerprint) -> "analyzer._Solve":
    return analyzer._Solve((key, fingerprint), {}, None, {}, ())


#: A small pool, so that an edit often sets an entry to the value it had;
#: two empty intervals with different bounds compare unequal, as
#: ``Interval`` equality has them.
INTERVALS = st.sampled_from(
    [
        Interval.bottom(),
        Interval(1, 0, empty=True),
        Interval.const(0),
        Interval.const(1),
        Interval(0, 1),
        Interval.top(),
    ]
)


def interval_maps(names):
    """Dicts over a subset of ``names``, in a drawn insertion order."""
    return st.lists(
        st.tuples(st.sampled_from(names), INTERVALS), unique_by=lambda kv: kv[0]
    ).map(dict)


#: The names each part of an environment draws from: parameters, callees
#: (return summaries), and non-locals (global scalars, global arrays).
NAMES = (("a", "b", "c"), ("f", "g", "h"), ("u", "v", "w"), ("u", "v", "w"))

ENVIRONMENTS = st.tuples(*(interval_maps(list(names)) for names in NAMES))

#: Changes that turn the kept environment into the live one: set an entry
#: to an interval, or drop it (``None``).
EDITS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.none() | INTERVALS),
    max_size=3,
)


def edited(environment, edits, reverse: bool):
    maps = [dict(part) for part in environment]
    for part, position, interval in edits:
        name = NAMES[part][position]
        if interval is None:
            maps[part].pop(name, None)
        else:
            maps[part][name] = interval
    if reverse:
        maps = [dict(reversed(part.items())) for part in maps]
    return tuple(maps)


def case(callees=(), nonlocals=(), kept=({}, {}, {}, {}), edits=(), reverse=False):
    return example(
        callees=frozenset(callees),
        nonlocals=frozenset(nonlocals),
        kept=kept,
        edits=list(edits),
        reverse=reverse,
    )


@settings(max_examples=400, deadline=None)
# An empty interval against a constant with the same bounds.
@case(kept=({"a": Interval.bottom()}, {}, {}, {}), edits=[(0, 0, Interval.const(0))])
@case(
    callees="f",
    kept=({}, {"f": Interval.bottom()}, {}, {}),
    edits=[(1, 0, Interval.const(0))],
)
# Two empty intervals with different bounds.
@case(
    nonlocals="u",
    kept=({}, {}, {"u": Interval.bottom()}, {}),
    edits=[(2, 0, Interval(1, 0, empty=True))],
)
# A summary missing on one side only, then on both.
@case(callees="f", edits=[(1, 0, Interval.bottom())])
@case(callees="fg", nonlocals="uv", kept=({}, {"g": Interval.top()}, {}, {}))
# The same parameters inserted in another order.
@case(kept=({"a": Interval.const(1), "b": Interval.top()}, {}, {}, {}), reverse=True)
@given(
    callees=st.frozensets(st.sampled_from(NAMES[1])),
    nonlocals=st.frozensets(st.sampled_from(NAMES[2])),
    kept=ENVIRONMENTS,
    edits=EDITS,
    reverse=st.booleans(),
)
def test_a_lookup_hits_exactly_when_the_environments_match(
    callees, nonlocals, kept, edits, reverse
):
    """The fingerprint lookup agrees with ``environment_matches`` over the
    kept slice, with entries missing on one or both sides, dicts in any
    insertion order and empty intervals."""
    live = edited(kept, edits, reverse)
    reads = (callees, nonlocals)
    sorted_reads = (tuple(sorted(callees)), tuple(sorted(nonlocals)))
    record = environment_slice("fn", reads, *kept)
    # The fingerprint of the kept slice is the fingerprint of the whole
    # environment it was cut from.
    kept_fingerprint = environment_fingerprint(
        sorted_reads,
        record.params["fn"],
        record.returns,
        record.global_scalars,
        record.global_arrays,
    )
    assert kept_fingerprint == environment_fingerprint(sorted_reads, *kept)
    table = analyzer._SolveTable()
    entry = kept_solve("key", kept_fingerprint)
    table.add(entry)
    hit = table.lookup(("key", environment_fingerprint(sorted_reads, *live)))
    assert (hit is entry) == environment_matches("fn", reads, *live, record)
    if not edits:
        assert hit is entry


class CountingKey:
    """A solve key that counts how often the table compares it."""

    compares = 0

    def __hash__(self) -> int:
        return 7

    def __eq__(self, other) -> bool:
        CountingKey.compares += 1
        return isinstance(other, CountingKey)


def compares_per_lookup(kept: int) -> float:
    """Key comparisons per lookup on a table holding ``kept`` solves under
    one key, one per environment; each lookup must find its own solve."""
    reads = ((), ("g",))
    environments = [
        ({"x": Interval.const(value)}, {}, {"g": Interval.const(-value)}, {})
        for value in range(kept)
    ]
    table = analyzer._SolveTable()
    solves = [
        kept_solve(CountingKey(), environment_fingerprint(reads, *environment))
        for environment in environments
    ]
    for solve_ in solves:
        table.add(solve_)
    assert len(table) == kept
    CountingKey.compares = 0
    for environment, solve_ in zip(environments, solves):
        fingerprint = environment_fingerprint(reads, *environment)
        assert table.lookup((CountingKey(), fingerprint)) is solve_
    compares = CountingKey.compares
    missing = ({"x": Interval.const(kept)}, {}, {"g": Interval.const(0)}, {})
    assert table.lookup((CountingKey(), environment_fingerprint(reads, *missing))) is None
    return compares / kept


def test_a_lookup_never_scans_the_solves_of_its_key(monkeypatch):
    """Many environments under one key: each lookup returns its own solve,
    and compares as many kept keys with one solve under the key as with a
    thousand."""
    monkeypatch.setattr(analyzer, "SOLVE_TABLE_CAP", 1000)
    one = compares_per_lookup(1)
    assert 1 <= one <= 2
    assert compares_per_lookup(1000) == one


def test_each_pinned_input_reuses_its_own_solve(monkeypatch, table):
    """Inputs analyzed oldest first — the last place a scan newest first
    would look — each reuse their own solve, and equal cold analyses."""
    monkeypatch.setattr(analyzer, "SOLVE_TABLE_CAP", 200)
    program = parsed(STRAIGHT_LINE, "straight-line")
    inputs = range(-100, 100)
    first = [analyze_program(program, entry_inputs=[x]) for x in inputs]
    assert [result.solves for result in first] == [1] * len(inputs)
    assert len(table) == len(inputs)
    for x, earlier in zip(inputs, first):
        again = analyze_program(program, entry_inputs=[x])
        assert again.solves == 0
        assert again.products_reused == 1
        assert again.write_interval("main", 3) == Interval.const(x + 1)
        assert_equal_analyses(again, earlier)


def test_a_function_s_key_and_reads_are_computed_once(monkeypatch, table):
    """A second analysis of the same program reprints and rereads no
    function; a function rebuilt by ``dataclasses.replace`` is keyed
    afresh."""
    from repro.lang import ast

    calls = {"repr": 0, "reads": 0}
    reprint = ast.Function.__repr__
    reread = analyzer.function_reads

    def counted_repr(function):
        calls["repr"] += 1
        return reprint(function)

    def counted_reads(function):
        calls["reads"] += 1
        return reread(function)

    monkeypatch.setattr(ast.Function, "__repr__", counted_repr)
    monkeypatch.setattr(analyzer, "function_reads", counted_reads)
    program = fresh_tcas("v1")
    analyze_program(program)
    functions = len(program.functions)
    assert calls == {"repr": functions, "reads": functions}
    again = analyze_program(program)
    assert calls == {"repr": functions, "reads": functions}
    assert again.solves == 0
    # A rebuilt function is a new object: it is keyed again, and an edit
    # that changes its content misses the table.
    main = program.functions["main"]
    program.functions["main"] = dataclasses.replace(main)
    assert analyze_program(program).solves == 0
    assert calls == {"repr": functions + 1, "reads": functions + 1}
    program.functions["main"] = dataclasses.replace(main, line=main.line + 100)
    changed = analyze_program(program)
    assert changed.solves > 0
    assert calls == {"repr": functions + 2, "reads": functions + 2}
    assert_equal_analyses(changed, cold_analysis(program))



# ------------------------------------------------- warm versus cold, at scale


def differential_corpus(full: bool) -> list[tuple[str, str]]:
    """``(name, source)`` per program: every TCAS version (every fourth
    without ``full``), the four Table 3 programs and the loop corpus."""
    versions = tcas_versions() if full else tcas_versions()[::4]
    sources = [(f"tcas-{v}", tcas_faulty_source(v)) for v in versions]
    sources += [
        (benchmark.name, "\n".join(benchmark.faulty_lines()) + "\n")
        for benchmark in LARGE_BENCHMARKS
        if full or benchmark.name == "schedule2"
    ]
    sources += [(benchmark.name, benchmark.source) for benchmark in LOOP_BENCHMARKS]
    return sources


#: tot_info's whole-program compile takes over a second on the C encoder;
#: its artifact is compared with ``--runslow`` only.
SLOW_COMPILES = {"tot_info"}


def run_differential(full: bool) -> None:
    corpus = differential_corpus(full)
    cold = {}
    for name, source in corpus:
        compiled = None if name in SLOW_COMPILES and not full else cold_compile(
            parsed(source, name)
        )
        cold[name] = (
            cold_analysis(parsed(source, name)),
            compiled and dumps_artifact(compiled),
        )
    with empty_table():
        for order in (corpus, corpus[::-1]):
            for name, source in order:
                want, artifact = cold[name]
                assert_equal_analyses(analyze_program(parsed(source, name)), want, name)
                if artifact is not None:
                    got = dumps_artifact(compile_program(parsed(source, name)))
                    assert got == artifact, name


def test_warm_analyses_and_artifacts_equal_cold_ones():
    run_differential(full=False)


@pytest.mark.slow
def test_warm_analyses_and_artifacts_equal_cold_ones_on_the_whole_corpus():
    run_differential(full=True)


def test_tcas_compiles_match_the_recorded_goldens():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(tcas_versions())
    for version in tcas_versions():
        compiled = LocalizationSession(
            tcas_faulty_program(version), hard_lines=TCAS_HARNESS_LINES
        ).compiled
        recorded = golden[version]
        assert compiled.signature == recorded["signature"], version
        assert compiled.num_vars == recorded["num_vars"], version
        assert clause_digest(compiled) == recorded["clauses"], version


def counter_value(name: str, **labels) -> float:
    return obs.REGISTRY.counter(name, labels=labels or None).value


def test_solve_counts_reach_span_counter_and_profile(monkeypatch, table):
    monkeypatch.setenv("REPRO_TRACE", "on")
    solved_before = counter_value("repro_analysis_solves", outcome="solved")
    reused_before = counter_value("repro_analysis_solves", outcome="reused")
    # Both runs start cold: each on an empty table.
    with obs.trace("compile") as handle:
        compiled = compile_program(fresh_tcas("v1"))
    reference = cold_analysis(fresh_tcas("v1"))
    spans = {span["name"]: span for span in handle.spans()}
    attrs = spans["encode.analysis"]["attrs"]
    assert attrs == {
        "solves": reference.solves,
        "solves_reused": reference.solves_reused,
        "products_reused": 0,
        "table_solves": reference.solves,
    }
    assert reference.solves_reused > 0
    profile = compiled.encode_profile()
    assert profile["analysis_solves"] == reference.solves
    assert profile["analysis_solves_reused"] == reference.solves_reused
    assert profile["analysis_products_reused"] == 0
    # A second compile of the version takes every function's products.
    again = compile_program(fresh_tcas("v1"))
    assert again.encode_profile()["analysis_products_reused"] == len(
        tcas_faulty_program("v1").functions
    )
    gauge = obs.REGISTRY.gauge("repro_analysis_solve_table_solves")
    assert gauge.value == len(table) == reference.solves
    # The compiles' analyses and the reference run all counted.
    assert (
        counter_value("repro_analysis_solves", outcome="solved") - solved_before
        == 2 * reference.solves
    )
    assert (
        counter_value("repro_analysis_solves", outcome="reused") - reused_before
        == 3 * reference.solves_reused + reference.solves
    )


def test_analysis_crash_is_counted_and_the_compile_goes_on(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("analysis exploded")

    monkeypatch.setenv("REPRO_TRACE", "on")
    monkeypatch.setattr(repro.analysis, "analyze_program", crash)
    failures_before = counter_value("repro_analysis_failures")
    with obs.trace("compile") as handle:
        compiled = BoundedModelChecker(
            tcas_faulty_program("v1"), group_statements=True
        ).compile_program()
    assert counter_value("repro_analysis_failures") == failures_before + 1
    spans = {span["name"]: span for span in handle.spans()}
    assert spans["encode.analysis"]["attrs"] == {
        "error": "RuntimeError: analysis exploded"
    }
    # Unnarrowed but complete: no diagnostics.
    assert compiled.num_clauses > 0
    assert compiled.diagnostics == ()
    assert compiled.narrowed_vars == 0


def test_trace_analysis_reports_solves_and_reuses_earlier_ones(monkeypatch, table):
    monkeypatch.setenv("REPRO_TRACE", "on")
    program = mutual_recursion_program()
    spec = Specification.return_value(0)
    reused_before = counter_value("repro_analysis_solves", outcome="reused")
    attrs = []
    for _ in range(2):
        with obs.trace("trace") as handle:
            ConcolicTracer(program).trace([4], spec)
        spans = {span["name"]: span for span in handle.spans()}
        attrs.append(spans["encode.analysis"]["attrs"])
    cold, warm = attrs
    assert cold["solves"] > 0
    assert cold["products_reused"] == 0
    assert cold["table_solves"] == cold["solves"] == len(table)
    # The second trace of the same test reuses every solve and every
    # function's products of the first.
    assert warm == {
        "solves": 0,
        "solves_reused": cold["solves"] + cold["solves_reused"],
        "products_reused": len(program.functions),
        "table_solves": cold["solves"],
    }
    assert (
        counter_value("repro_analysis_solves", outcome="reused") - reused_before
        == cold["solves_reused"] + warm["solves_reused"]
    )


def test_trace_analysis_crash_is_counted_and_the_trace_goes_on(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("analysis exploded")

    monkeypatch.setenv("REPRO_TRACE", "on")
    monkeypatch.setattr(repro.analysis, "analyze_program", crash)
    failures_before = counter_value("repro_analysis_failures")
    with obs.trace("trace") as handle:
        formula = ConcolicTracer(mutual_recursion_program()).trace(
            [4], Specification.return_value(0)
        )
    assert counter_value("repro_analysis_failures") == failures_before + 1
    spans = {span["name"]: span for span in handle.spans()}
    assert spans["encode.analysis"]["attrs"] == {
        "error": "RuntimeError: analysis exploded"
    }
    assert formula.num_clauses > 0
    assert formula.narrowed_vars == 0


def clause_store(formula) -> tuple:
    return (
        formula.num_vars,
        formula.lits,
        formula.ends,
        formula.gids,
        formula.group_table,
    )


def ordered_candidates(report) -> list:
    return [
        ([(g.line, g.function, g.iteration) for g in candidate.groups], candidate.cost)
        for candidate in report.candidates
    ]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 1, 3, 11])
def test_siemens_trace_equals_the_table_cleared_run(seed):
    """The whole trace-mode protocol with the solve table kept across
    requests equals the run that clears it before each request."""
    from perfbench.generate import siemens_requests

    requests = [
        request
        for request in siemens_requests(seed)
        if request.program not in PYTHON_SEARCH_SKIPS
    ]
    warm = [
        localize_large_input(BENCHMARKS[request.program], request.inputs)
        for request in requests
    ]
    for request, (warm_formula, warm_report) in zip(requests, warm):
        analyzer._SOLVES.clear()
        formula, report = localize_large_input(
            BENCHMARKS[request.program], request.inputs
        )
        assert clause_store(formula) == clause_store(warm_formula), request
        assert ordered_candidates(report) == ordered_candidates(warm_report), request
