"""Figure 2: the TCAS v2 walkthrough — which lines explain the wrong advisory.

The paper's Figure 2 shows version v2 (constant 300 instead of 100 in
Inhibit_Biased_Climb) with all reported bug locations underlined; the actual
fault is reported in every run together with the call chain that propagates
it (the descend predicate, the advisory assignment, and the final return).
"""

from __future__ import annotations

import pytest

from repro.core import LocalizationSession, Specification
from repro.siemens import classify_tcas_tests, tcas_fault, tcas_faulty_program
from repro.siemens.suite import TCAS_HARNESS_LINES


def test_fig2_v2_localization(benchmark):
    version = "v2"
    fault = tcas_fault(version)
    program = tcas_faulty_program(version)
    failing, _ = classify_tcas_tests(version, count=600)
    assert failing, "v2 must have failing tests in the pool"
    vector, expected = failing[0]
    session = LocalizationSession(program, hard_lines=TCAS_HARNESS_LINES)

    def run():
        return session.localize(
            vector.as_list(), Specification.return_value(expected)
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"Figure 2 — TCAS {version} ({fault.description})")
    print(f"failing test: {vector.as_dict()}")
    print(f"expected advisory: {expected}")
    print(report.summary())
    # The actual fault (the constant in Inhibit_Biased_Climb) is reported.
    assert report.contains_line(28)
    # The descend predicate / advisory propagation chain shows up as well,
    # mirroring the underlined lines of Figure 2.
    propagation_lines = {50, 51, 52, 54, 56, 71, 78, 79, 86, 102}
    assert set(report.lines) & propagation_lines
    # Nothing from the untouched climb predicate's then-branch context that
    # the paper singles out as *not* reported.
    assert not report.contains_line(41)
