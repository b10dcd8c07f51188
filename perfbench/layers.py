"""Which public calls the traced run times, and the per-layer metrics.

The layers are the ``src/repro`` modules.  Each is timed at the calls the
benchmark (or the layer above) makes into it, from outside the program:

====================  ====================================================
layer                 timed calls
====================  ====================================================
``lang``              ``parse_program``, ``check_program``
``bmc``               ``BoundedModelChecker.compile_program``
``reduction``         ``minimize_failing_input`` (its ``fails`` probes
                      counted), ``sliced_tracer_settings``
``concolic``          ``ConcolicTracer.trace``
``maxsat``            ``TraceFormula.to_wcnf``, ``MaxSatEngine.load``,
                      ``run_comss_loop``
``sat``               ``Solver.solve``
``core``              ``LocalizationSession.localize``,
                      ``BugAssistLocalizer.localize_trace``
``serve``             ``Client.compile``, ``Client.localize``
====================  ====================================================

Times are summed over the traced pass, in milliseconds at the reference
host speed; counts are summed too.  ``serve.overhead_ms`` (client latency
minus the report's ``time_seconds``, computed requests) and
``serve.cache_hit_ms`` (repeats) are medians per request; the other
``serve.*`` counts come from the daemon's ``stats`` op.  A layer a workload
bypasses reads 0 on that workload; on serve-replay that includes every
layer below ``serve``, which runs inside the daemon.
"""

from __future__ import annotations

import statistics

from perfbench.tracer import SpanTracer, layer_self_times

LAYERS = ("lang", "bmc", "reduction", "concolic", "maxsat", "sat", "core", "serve")

#: Per-layer metric name -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "lang.parse_ms": "ms",
    "lang.parses": "count",
    "bmc.compile_ms": "ms",
    "bmc.compiles": "count",
    "bmc.clauses": "count",
    "bmc.encode_analysis_ms": "ms",
    "bmc.encode_gates_ms": "ms",
    "bmc.encode_materialize_ms": "ms",
    "bmc.artifact_bytes": "bytes",
    "reduction.dd_ms": "ms",
    "reduction.dd_probes": "count",
    "reduction.slice_ms": "ms",
    "concolic.trace_ms": "ms",
    "concolic.clauses": "count",
    "concolic.assignments": "count",
    "maxsat.wcnf_ms": "ms",
    "maxsat.load_ms": "ms",
    "maxsat.comss_ms": "ms",
    "maxsat.calls": "count",
    "maxsat.candidates": "count",
    "sat.solve_ms": "ms",
    "sat.calls": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.propagations_per_s": "1/s",
    "core.localize_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.cache_hit_ms": "ms",
    "serve.compiles": "count",
    "serve.warm_compiles": "count",
    "serve.result_cache_hits": "count",
    "serve.artifact_resends": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "quality.detected_fraction": "fraction",
    "quality.first_hit_rank": "rank",
    "obs.tracing_overhead_fraction": "fraction",
}


def install(tracer: SpanTracer) -> None:
    """Wrap every timed call; :meth:`SpanTracer.uninstall` undoes it."""
    from repro import lang, reduction
    from repro.bmc import BoundedModelChecker, compiled as bmc_compiled
    from repro.concolic import ConcolicTracer
    from repro.core import localizer, session
    from repro.encoding.trace import TraceFormula
    from repro.maxsat import MaxSatEngine
    from repro.sat import Solver
    from repro.serve.client import Client
    from repro.siemens.programs import LargeBenchmark

    def count(name):
        return lambda tracer, span, result, args, token: tracer.add(name)

    def after_compile(tracer, span, compiled, args, token):
        tracer.add("bmc.compiles")
        tracer.add("bmc.clauses", compiled.num_clauses)
        phases = compiled.encode_profile().get("encode_phases", {})
        for phase in ("analysis", "gates", "materialize"):
            tracer.add(f"bmc.encode_{phase}_ms", 1000.0 * phases.get(phase, 0.0))
        with tracer.side_work():
            tracer.add("bmc.artifact_bytes", len(bmc_compiled.dumps_artifact(compiled)))

    def after_trace(tracer, span, formula, args, token):
        tracer.add("concolic.clauses", formula.num_clauses)
        tracer.add("concolic.assignments", formula.num_assignments)

    def after_comss(tracer, span, result, args, token):
        report = args[1]
        tracer.add("maxsat.calls", report.maxsat_calls)
        tracer.add("maxsat.candidates", len(report.candidates))

    def before_solve(args):
        stats = args[0].stats
        return stats.conflicts, stats.propagations

    def after_solve(tracer, span, result, args, token):
        stats = args[0].stats
        tracer.add("sat.calls")
        tracer.add("sat.conflicts", stats.conflicts - token[0])
        tracer.add("sat.propagations", stats.propagations - token[1])

    def after_client_localize(tracer, span, response, args, token):
        if tracer.request_kind == "cached":
            tracer.samples.setdefault("serve.cache_hit_ms", []).append(span.duration)
        else:
            overhead = span.duration - float(response["report"]["time_seconds"])
            tracer.samples.setdefault("serve.overhead_ms", []).append(overhead)

    tracer.wrap(lang, "parse_program", "lang", "lang.parse_ms", count("lang.parses"))
    tracer.wrap(lang, "check_program", "lang", "lang.parse_ms")
    tracer.wrap(
        BoundedModelChecker, "compile_program", "bmc", "bmc.compile_ms", after_compile
    )
    tracer.wrap(reduction, "minimize_failing_input", "reduction", "reduction.dd_ms")
    tracer.wrap(LargeBenchmark, "fails", "reduction", None, count("reduction.dd_probes"))
    tracer.wrap(reduction, "sliced_tracer_settings", "reduction", "reduction.slice_ms")
    tracer.wrap(ConcolicTracer, "trace", "concolic", "concolic.trace_ms", after_trace)
    tracer.wrap(TraceFormula, "to_wcnf", "maxsat", "maxsat.wcnf_ms")
    tracer.wrap(MaxSatEngine, "load", "maxsat", "maxsat.load_ms")
    for module in (session, localizer):
        tracer.wrap(module, "run_comss_loop", "maxsat", "maxsat.comss_ms", after_comss)
    tracer.wrap(Solver, "solve", "sat", "sat.solve_ms", after_solve, before_solve)
    tracer.wrap(session.LocalizationSession, "localize", "core", "core.localize_ms")
    tracer.wrap(
        localizer.BugAssistLocalizer, "localize_trace", "core", "core.localize_ms"
    )
    tracer.wrap(Client, "compile", "serve")
    tracer.wrap(Client, "localize", "serve", None, after_client_localize)


def per_layer_metrics(
    tracer: SpanTracer, serve_counters: dict, slowdown: float = 1.0
) -> dict[str, float]:
    """Every layer metric except the quality and overhead rows.

    Span times are divided by ``slowdown``, the traced pass's slowdown
    against the reference host (see :mod:`perfbench.hostspeed`).
    """
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    ms = 1000.0 / slowdown
    for name, seconds in tracer.metric_totals().items():
        metrics[name] = ms * seconds
    for layer, own in layer_self_times(tracer.spans).items():
        if layer in LAYERS:
            metrics[f"{layer}.self_ms"] = ms * own
    for name, value in tracer.counters.items():
        metrics[name] = value / slowdown if name.endswith("_ms") else float(value)
    for name, samples in tracer.samples.items():
        metrics[name] = ms * statistics.median(samples)
    solve_seconds = metrics["sat.solve_ms"] / 1000.0
    if solve_seconds > 0:
        metrics["sat.propagations_per_s"] = metrics["sat.propagations"] / solve_seconds
    for name, value in serve_counters.items():
        metrics[name] = float(value)
    return metrics
