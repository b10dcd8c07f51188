"""Journal-replay splice: warm cross-version compiles must be cold-equivalent.

The contract under test is the tentpole invariant of the incremental
pipeline: an artifact produced by splicing a prior version's emission
journal is *encoding-identical* to one compiled cold — same CNF, same
groups, same journal, same analysis products — differing only in
provenance (``spliced_from``, ``impact_fraction``, ``gates_shared``).
Localization reports over the two artifacts are byte-identical.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.bmc import BoundedModelChecker, dumps_artifact, loads_artifact
from repro.bmc.splice import splice_compile
from repro.core import LocalizationSession, Specification
from repro.serve import canonical_report_bytes
from repro.siemens import classify_tcas_tests, tcas_faulty_program

#: Fields that legitimately differ between a warm and a cold compile.
PROVENANCE_FIELDS = {"spliced_from", "impact_fraction", "gates_shared"}


def cold_compile(version: str):
    program = tcas_faulty_program(version)
    return BoundedModelChecker(program, group_statements=True).compile_program()


def warm_compile(base, version: str, base_key: str = "base"):
    program = tcas_faulty_program(version)
    return splice_compile(
        base, BoundedModelChecker(program, group_statements=True), base_key=base_key
    )


def assert_encoding_identical(warm, cold) -> None:
    for field in dataclasses.fields(warm):
        if field.name in PROVENANCE_FIELDS:
            continue
        assert getattr(warm, field.name) == getattr(cold, field.name), field.name


#: Follow-up TCAS versions that splice from v1 (impact 0.12 to 0.49).
SPLICED_VERSIONS = ["v2", "v13", "v16", "v22", "v28", "v37", "v40", "v41"]


class TestSpliceEquivalence:
    @pytest.mark.parametrize("version", SPLICED_VERSIONS)
    def test_warm_equals_cold(self, version):
        base = cold_compile("v1")
        warm = warm_compile(base, version)
        assert warm is not None, f"{version} unexpectedly declined"
        assert warm.spliced_from == "base"
        assert 0.0 <= warm.impact_fraction < 1.0
        assert_encoding_identical(warm, cold_compile(version))

    def test_changed_global_initializer_version(self):
        # v16 edits a global initializer; whether the splice proceeds (via
        # mapped replay) or declines, the result must match cold.
        base = cold_compile("v1")
        warm = warm_compile(base, "v16")
        if warm is not None:
            assert_encoding_identical(warm, cold_compile("v16"))

    def test_identity_pairings_keep_the_map_explicit(self):
        """A region re-encode may pair every interface bit with itself yet
        leave region-internal base variables it did not rebuild unmapped;
        a later record naming one must decline, not be copied as it is.
        From v20's artifact that is the difference between declining and
        a wrong encoding for v2, v23 and v37."""
        base = cold_compile("v20")
        for version in ("v2", "v23", "v37"):
            warm = warm_compile(base, version)
            if warm is not None:
                assert_encoding_identical(warm, cold_compile(version))

    def test_identity_splice(self):
        base = cold_compile("v1")
        warm = warm_compile(base, "v1")
        assert warm is not None
        assert warm.impact_fraction == 0.0
        assert_encoding_identical(warm, base)

    def test_splice_chains_across_versions(self):
        v1 = cold_compile("v1")
        v2 = warm_compile(v1, "v2")
        assert v2 is not None
        v13 = warm_compile(v2, "v13", base_key="v2-warm")
        assert v13 is not None
        assert v13.spliced_from == "v2-warm"
        assert_encoding_identical(v13, cold_compile("v13"))

    def test_spliced_artifact_round_trips(self):
        base = cold_compile("v1")
        warm = warm_compile(base, "v2")
        clone = loads_artifact(dumps_artifact(warm))
        assert clone.signature == warm.signature
        assert clone.num_clauses == warm.num_clauses
        assert clone.spliced_from == warm.spliced_from
        # A reloaded warm artifact works as a splice base in turn.
        again = warm_compile(clone, "v13")
        assert again is not None
        assert_encoding_identical(again, cold_compile("v13"))


class TestSpliceDeclines:
    def test_option_mismatch_declines(self):
        base = cold_compile("v1")
        program = tcas_faulty_program("v2")
        checker = BoundedModelChecker(program, group_statements=True, unwind=8)
        assert splice_compile(base, checker) is None

    def test_missing_journal_declines(self):
        base = cold_compile("v1")
        stripped = dataclasses.replace(base, journal=None)
        program = tcas_faulty_program("v2")
        checker = BoundedModelChecker(program, group_statements=True)
        assert splice_compile(stripped, checker) is None

    def test_unknown_entry_declines(self):
        base = cold_compile("v1")
        program = tcas_faulty_program("v2")
        checker = BoundedModelChecker(program, group_statements=True)
        assert splice_compile(base, checker, entry="nonexistent") is None


class TestSpliceLocalization:
    @pytest.mark.parametrize("version", SPLICED_VERSIONS)
    def test_reports_byte_identical(self, version):
        failing, _ = classify_tcas_tests(version, count=200)
        assert failing
        vector, expected = failing[0]
        spec = Specification.return_value(expected)
        base = cold_compile("v1")
        warm = warm_compile(base, version)
        cold = cold_compile(version)
        reports = []
        for compiled in (warm, cold):
            with LocalizationSession.from_compiled(compiled) as session:
                reports.append(
                    canonical_report_bytes(session.localize(vector.as_list(), spec))
                )
        assert reports[0] == reports[1]

    def test_session_base_artifact(self):
        base = cold_compile("v1")
        warm_session = LocalizationSession(
            tcas_faulty_program("v2"), base_artifact=base
        )
        compiled = warm_session.compiled
        assert warm_session.stats.encodings_spliced == 1
        assert warm_session.stats.encodings_built == 1
        assert_encoding_identical(compiled, cold_compile("v2"))

    def test_session_falls_back_cold_on_decline(self):
        base = cold_compile("v1")
        session = LocalizationSession(
            tcas_faulty_program("v2"), unwind=8, base_artifact=base
        )
        compiled = session.compiled
        assert session.stats.encodings_spliced == 0
        assert session.stats.encodings_built == 1
        assert compiled.spliced_from is None
        # An option mismatch is a precondition failure: counted as an
        # *early* decline (no analysis or replay work was paid for).
        assert session.stats.splices_declined == 1
        assert session.stats.splices_declined_early == 1


class TestDeclineCost:
    """Declined warm compiles must not pay for work they then discard."""

    def test_early_decline_skips_analysis_and_replay(self, monkeypatch):
        """A precondition failure declines before any expensive stage."""
        import repro.bmc.splice as splice_mod

        def forbid(self, *args, **kwargs):
            raise AssertionError("journal replay ran on an early decline")

        monkeypatch.setattr(splice_mod._Replay, "run", forbid)
        monkeypatch.setattr(splice_mod._Replay, "__init__", forbid)
        base = cold_compile("v1")
        program = tcas_faulty_program("v2")
        outcome = {}
        checker = BoundedModelChecker(program, group_statements=True, unwind=8)
        assert splice_compile(base, checker, outcome=outcome) is None
        assert outcome == {"declined": True, "declined_early": True}
        # Missing journal, unknown entry: same early path.
        for kwargs, entry in (({"journal": None}, "main"), ({}, "nonexistent")):
            outcome = {}
            stripped = dataclasses.replace(base, **kwargs)
            checker = BoundedModelChecker(program, group_statements=True)
            assert splice_compile(stripped, checker, entry=entry, outcome=outcome) is None
            assert outcome == {"declined": True, "declined_early": True}

    def test_late_decline_reported_distinctly(self, monkeypatch):
        """A mid-replay abort is flagged as a *late* (paid-for) decline."""
        import repro.bmc.splice as splice_mod

        def abort(self, *args, **kwargs):
            raise splice_mod.SpliceDecline

        monkeypatch.setattr(splice_mod._Replay, "run", abort)
        base = cold_compile("v1")
        outcome = {}
        checker = BoundedModelChecker(
            tcas_faulty_program("v2"), group_statements=True
        )
        assert splice_compile(base, checker, outcome=outcome) is None
        assert outcome == {"declined": True, "declined_early": False}

    def test_early_decline_costs_fraction_of_cold(self):
        """The declined-warm ≤ ~1.05× cold guarantee, at mechanism level:
        the decline check itself is a vanishing fraction of a cold compile
        (the honest warm number is decline check + cold re-run)."""
        base = cold_compile("v1")
        program = tcas_faulty_program("v2")
        started = time.perf_counter()
        cold = cold_compile("v2")
        cold_seconds = time.perf_counter() - started
        assert cold is not None
        checker = BoundedModelChecker(program, group_statements=True, unwind=8)
        started = time.perf_counter()
        outcome = {}
        assert splice_compile(base, checker, outcome=outcome) is None
        decline_seconds = time.perf_counter() - started
        assert outcome["declined_early"]
        # Measured ~1000x headroom; 4x tolerance keeps slow CI green.
        assert decline_seconds <= cold_seconds / 4


class TestRegionReencode:
    def test_schedule_cross_span_sharing_splices(self):
        """Regression: schedule's region re-encode unifies structurally
        identical gates across call spans, mapping recovered gate outputs
        *backwards*.  The replay must accept such maps (per-key canonical
        checks, not global monotonicity) and still land on the cold bytes."""
        from repro.bmc.splice import splice_compile as run_splice
        from repro.siemens.programs import LARGE_BENCHMARKS

        case = next(b for b in LARGE_BENCHMARKS if b.name == "schedule")
        base = BoundedModelChecker(
            case.reference_program(), group_statements=True
        ).compile_program()
        outcome = {}
        warm = run_splice(
            base,
            BoundedModelChecker(case.faulty_program(), group_statements=True),
            base_key="reference",
            outcome=outcome,
        )
        assert warm is not None, f"schedule declined: {outcome}"
        cold = BoundedModelChecker(
            case.faulty_program(), group_statements=True
        ).compile_program()
        assert warm.signature == cold.signature
        assert warm.num_vars == cold.num_vars
        assert warm.num_clauses == cold.num_clauses
