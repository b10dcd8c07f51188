"""Detection as a ratcheted gate: recomputed counts must not fall below
``tests/detection_floor.json``.

Candidate order is deterministic (the solver counters are), so these
checks are exact, not statistical.  A change that detects more raises the
floor in the same change; no change lowers it.

* TCAS Detect# on the listed subset (tier-1, about 2 s);
* Table 3 ``detected`` and ``first_hit_rank`` on each program's designated
  failing test (tier-1);
* TCAS Detect# on perfbench's full seed-7 ``tcas-session`` request list
  (``slow``: run with ``--runslow``; CI's detection job does).
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import pytest

from repro.core import LocalizationSession
from repro.sat import search_backend
from repro.siemens.faults import TCAS_FAULTS
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import TCAS_HARNESS_LINES, localize_large_input
from repro.siemens.tcas import tcas_faulty_program
from repro.spec import Specification

FLOOR = json.loads(Path(__file__).with_name("detection_floor.json").read_text())

FAULT_LINES = {fault.name: set(fault.fault_lines) for fault in TCAS_FAULTS}

#: tot_info's designated test takes about a minute on the pure-Python
#: search loop (about 1.6 s on the C kernel); its counters, and so its
#: candidates, are identical on both backends.
PYTHON_SEARCH_SKIPS = {"tot_info"} if search_backend() == "python" else set()


def first_hit_rank(candidates, fault_lines) -> int | None:
    """1-based rank of the first candidate naming a fault line, or None."""
    for rank, candidate in enumerate(candidates, start=1):
        if set(candidate.lines) & set(fault_lines):
            return rank
    return None


def tcas_detected(requests) -> int:
    """Detect# over ``(version, inputs, expected)`` requests, in order, with
    one session per consecutive run of a version (tcas-session semantics)."""
    detected = 0
    for version, tests in groupby(requests, key=itemgetter(0)):
        with LocalizationSession(
            tcas_faulty_program(version),
            hard_lines=TCAS_HARNESS_LINES,
            max_candidates=FLOOR["tcas"]["max_candidates"],
        ) as session:
            for _, inputs, expected in tests:
                report = session.localize(
                    list(inputs), Specification.return_value(expected)
                )
                if first_hit_rank(report.candidates, FAULT_LINES[version]):
                    detected += 1
    return detected


def test_tcas_subset_detection_floor():
    floor = FLOOR["tcas"]
    detected = tcas_detected(floor["subset"])
    assert detected >= floor["subset_detected"], (
        f"TCAS Detect# fell to {detected}/{len(floor['subset'])} "
        f"(floor {floor['subset_detected']})"
    )


@pytest.mark.parametrize("program", LARGE_BENCHMARKS, ids=lambda b: b.name)
def test_table3_detection_floor(program):
    if program.name in PYTHON_SEARCH_SKIPS:
        pytest.skip("pure-Python search: covered by the C-backend runs")
    floor = FLOOR["table3"][program.name]
    _, report = localize_large_input(program, program.failing_test)
    rank = first_hit_rank(report.candidates, program.fault_lines)
    if floor["detected"]:
        assert rank is not None, f"{program.name}: fault no longer detected"
    if floor["first_hit_rank"] is not None:
        assert rank is not None and rank <= floor["first_hit_rank"], (
            f"{program.name}: first hit at rank {rank} "
            f"(floor {floor['first_hit_rank']})"
        )


@pytest.mark.slow
def test_tcas_seed7_detection_floor():
    from perfbench.generate import tcas_work

    requests = [
        (version.version, request.inputs, request.expected)
        for version in tcas_work(7)
        for request in version.requests
    ]
    floor = FLOOR["tcas"]
    assert len(requests) == floor["seed7_localizations"]
    detected = tcas_detected(requests)
    assert detected >= floor["seed7_detected"], (
        f"seed-7 TCAS Detect# fell to {detected}/{len(requests)} "
        f"(floor {floor['seed7_detected']})"
    )
