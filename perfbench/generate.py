"""Seeded request lists for the three benchmark workloads.

Every list is a pure function of the seed: the same seed gives the same
requests in the same order, a different seed a different list.  Each input
is checked to fail against the reference before it is kept (TCAS golden
outputs, ``LargeBenchmark.fails`` for the Table 3 programs) and duplicates
are dropped.  Generation runs before any timed region and outside the
set-up measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lang import Interpreter
from repro.siemens.faults import TCAS_FAULTS
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.tcas import tcas_faulty_program, tcas_faulty_source
from repro.siemens.testgen import generate_tcas_tests, golden_outputs

#: Failing tests localized per TCAS version (fewer when a version fails
#: fewer tests of the seeded pool; a version failing none is left out).
#: The first localization of a version loads the engine and takes about
#: twice as long as the others, so those ~37 first localizations hold the
#: tail, and the median lies among the others.
TCAS_TESTS_PER_VERSION = 3

#: Size of the seeded TCAS test pool each version is classified against.
TCAS_POOL_SIZE = 300

#: Failing inputs drawn per Table 3 program.  Latencies cluster by program
#: (schedule fastest, then schedule2, print_tokens and tot_info), and the
#: clusters of schedule and schedule2 nearly touch.  With these counts both
#: the median and the tail of the 32 requests lie inside the 24 schedule2
#: requests, away from any boundary between two programs.
SIEMENS_REQUESTS = {"print_tokens": 3, "schedule": 4, "schedule2": 24}

#: Programs that run their own Table 3 failing test (one request, sent
#: first) instead of a seeded draw.  tot_info's ~100k-clause localization
#: takes over half of a pass, and its cost moves by a factor of up to 3
#: (5.5k to 17k conflicts) with the fill value of the input; a seeded draw
#: would make the seed, not the program, set the throughput.  Sent first,
#: it always meets the same heap, so the seed does not move peak RSS either.
SIEMENS_FIXED = ("tot_info",)

#: Inclusive ranges each Table 3 program's inputs are drawn from.
SIEMENS_INPUT_RANGES = {
    "print_tokens": ((0, 999),),
    "schedule": ((0, 5),) * 6,
    "schedule2": ((0, 9),) * 4,
}

#: Share of the serve-replay localizations that are sent a second time.
SERVE_REPEAT_SHARE = 0.2

_MAX_DRAWS = 20000


@dataclass(frozen=True)
class TcasRequest:
    """Localize one failing TCAS test of one faulty version."""

    version: str
    inputs: tuple[int, ...]
    expected: int
    fault_lines: tuple[int, ...]


@dataclass(frozen=True)
class TcasVersionWork:
    """One TCAS version: its source text and the failing tests to localize."""

    version: str
    source: str
    requests: tuple[TcasRequest, ...]


@dataclass(frozen=True)
class SiemensRequest:
    """Run the Table 3 protocol on one failing input of one program."""

    program: str
    inputs: tuple[int, ...]
    fault_lines: tuple[int, ...]


def tcas_work(seed: int) -> list[TcasVersionWork]:
    """Every TCAS version, with seeded failing tests.

    The pool is drawn with the seed; a test is failing when the faulty
    version's advisory differs from the reference program's golden output.
    Versions come in catalogue order: the daemon splices each new version
    from the nearest one it stores, so a seeded order would let the seed,
    not the program, set serve-replay's compile times.
    """
    rng = random.Random(seed)
    pool_seed = rng.randrange(1 << 30)
    pool = generate_tcas_tests(TCAS_POOL_SIZE, seed=pool_seed)
    golden = golden_outputs(TCAS_POOL_SIZE, seed=pool_seed)
    unique: dict[tuple[int, ...], int] = {}
    for vector, expected in zip(pool, golden):
        unique.setdefault(vector.values, expected)
    work = []
    for fault in TCAS_FAULTS:
        interpreter = Interpreter(tcas_faulty_program(fault.name))
        failing = [
            (values, expected)
            for values, expected in unique.items()
            if interpreter.run(list(values)).return_value != expected
        ]
        chosen = rng.sample(failing, min(TCAS_TESTS_PER_VERSION, len(failing)))
        requests = tuple(
            TcasRequest(fault.name, values, expected, fault.fault_lines)
            for values, expected in chosen
        )
        if requests:
            work.append(
                TcasVersionWork(fault.name, tcas_faulty_source(fault.name), requests)
            )
    return work


def siemens_requests(seed: int) -> list[SiemensRequest]:
    """The fixed requests, then seeded failing inputs of the other Table 3
    programs, interleaved."""
    rng = random.Random(seed)
    fixed, mixed = [], []
    for benchmark in LARGE_BENCHMARKS:
        if benchmark.name in SIEMENS_FIXED:
            fixed.append(
                SiemensRequest(benchmark.name, benchmark.failing_test, benchmark.fault_lines)
            )
        else:
            mixed.extend(
                SiemensRequest(benchmark.name, inputs, benchmark.fault_lines)
                for inputs in _draw_failing(benchmark, rng)
            )
    rng.shuffle(mixed)
    return fixed + mixed


def _draw_failing(benchmark, rng: random.Random) -> list[tuple[int, ...]]:
    ranges = SIEMENS_INPUT_RANGES[benchmark.name]
    wanted = SIEMENS_REQUESTS[benchmark.name]
    kept: dict[tuple[int, ...], None] = {}
    for _ in range(_MAX_DRAWS):
        if len(kept) == wanted:
            return list(kept)
        inputs = tuple(rng.randint(low, high) for low, high in ranges)
        if inputs not in kept and benchmark.fails(list(inputs)):
            kept[inputs] = None
    raise RuntimeError(
        f"{benchmark.name}: only {len(kept)} failing inputs in {_MAX_DRAWS} draws"
    )


def serve_repeats(work: list[TcasVersionWork], seed: int) -> list[TcasRequest]:
    """The seeded share of earlier localizations a client sends again."""
    rng = random.Random(f"serve-repeats-{seed}")
    sent = [request for version in work for request in version.requests]
    return rng.sample(sent, max(1, round(SERVE_REPEAT_SHARE * len(sent))))
