"""The BugAssist algorithms — the paper's primary contribution.

Algorithm 1 has one front door per formula source:

* :class:`LocalizationSession` — program mode: compile the whole-program
  BMC encoding once, then ``localize``/``localize_batch`` many failing
  tests against it with solver push/pop between tests (Table 1, TCAS, and
  every request the ``repro.serve`` daemon answers).
* :class:`BugAssistLocalizer` — trace mode: build the concolic trace
  formula of one failing execution, repeatedly extract CoMSSes from the
  partial MaxSAT instance, block each one, and report the corresponding
  source lines as candidate error locations (Table 3).

Around them:

* :func:`rank_locations` / :class:`RankedLocalization` — Section 4.3:
  aggregate localization over many failing tests and rank lines by how
  often they are reported.
* :class:`OffByOneRepairer` — Algorithm 2 (Section 5.1): mutate constants
  (and optionally operators) at reported locations and check whether the
  failure disappears.
* :class:`LoopIterationLocalizer` — Section 5.2: weighted soft clauses with
  per-iteration selector variables to pin-point the loop iteration at which
  the failure is first caused.
"""

from repro.core.report import BugLocation, LocalizationReport, RankedLocalization
from repro.core.localizer import BugAssistLocalizer
from repro.core.ranking import merge_reports, rank_locations
from repro.core.repair import OffByOneRepairer, RepairResult
from repro.core.loops import LoopIterationLocalizer, LoopIterationReport
from repro.core.session import LocalizationSession, SessionStats, TestCase
from repro.spec import Specification

__all__ = [
    "BugAssistLocalizer",
    "BugLocation",
    "LocalizationReport",
    "LocalizationSession",
    "RankedLocalization",
    "SessionStats",
    "TestCase",
    "merge_reports",
    "rank_locations",
    "OffByOneRepairer",
    "RepairResult",
    "LoopIterationLocalizer",
    "LoopIterationReport",
    "Specification",
]
