"""End-to-end metrics of one run, from its :class:`RunRecord`."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES_BEYOND = 10

#: End-to-end metric name -> unit, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "localizations_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "program_p50_geomean_ms": "ms",
    "compile_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "success_fraction": "fraction",
}


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it."""
    if len(values) <= TAIL_SAMPLES_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_SAMPLES_BEYOND} samples, got {len(values)}"
        )
    ordered = sorted(values)
    index = len(ordered) - TAIL_SAMPLES_BEYOND - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def busy_seconds(record) -> float:
    """The request list's timed seconds: every localization and compile."""
    return sum(outcome.latency for outcome in record.outcomes) + sum(record.compiles)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def end_to_end(record, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """``(metrics, quality)``: the end-to-end metrics and the detection record.

    Detection is reported beside the metrics, not among them: it is a pure
    function of the seed, so it repeats exactly for one seed but moves with
    the seed's sample of versions and tests.
    """
    outcomes = record.outcomes
    latencies = [outcome.latency for outcome in outcomes]
    by_program: dict[str, list[float]] = defaultdict(list)
    for outcome in outcomes:
        by_program[outcome.program].append(outcome.latency)
    succeeded = [outcome for outcome in outcomes if outcome.error is None]
    tail_percentile, tail_value = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "localizations_per_s": len(succeeded) / busy_seconds(record),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_value,
        "program_p50_geomean_ms": 1000.0
        * geomean([statistics.median(values) for values in by_program.values()]),
        "compile_p50_ms": 1000.0 * statistics.median(record.compiles),
        "peak_rss_mb": peak_rss_mb,
        "success_fraction": len(succeeded) / len(outcomes),
    }
    hits = [outcome.hit_rank for outcome in succeeded if outcome.hit_rank is not None]
    quality = {
        "tail_percentile": tail_percentile,
        "detected_fraction": len(hits) / len(outcomes),
        "first_hit_rank": statistics.mean(hits) if hits else 0.0,
    }
    return metrics, quality
