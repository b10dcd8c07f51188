"""Benchmark of the BugAssist reproduction: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tcas-session --seed 7 --seconds 20 --trace 0

Workloads (all closed loops: one client, one request in flight):

* ``tcas-session`` — program mode (Table 1): one ``LocalizationSession``
  per TCAS version, serial executor, CoMSS budget 8.
* ``siemens-trace`` — trace mode (Table 3): delta debugging, slicing or
  concretization, ``ConcolicTracer.trace``, ``localize_trace``.
* ``serve-replay`` — ``python -m repro.serve`` with at most ``nproc``
  workers: per version a ``compile``, its localizations by artifact key,
  then a seeded 20% of them again (answered from the result cache).

The seed fixes the exact request list (fixed work, not fixed duration);
``--seconds`` is the nominal length of the timed passes on a 2-vCPU host
and is only reported.  Inputs are generated before any timed region and
outside the set-up measurement.  Every time is reported at the reference
host speed (see ``perfbench/hostspeed.py``).

With ``--trace 0`` the last line of standard output is the end-to-end
result.  With ``--trace 1`` the untraced passes are followed by one traced
pass over the same requests, and the last line holds the per-layer metrics
(see ``perfbench/layers.py``); its spans are written to ``.bench_build/``.
Either way the run fails (exit status 1) if the traced pass or any step
outside the requests fails, and reports ``correct: false`` if a request
does.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".bench_build"
WORKLOADS = ("tcas-session", "siemens-trace", "serve-replay")

#: Untraced passes over the request list per run.  Each request's latency
#: is its median over the passes, so a slowdown of the host that hits one
#: pass does not move the result.
PASSES = 3

#: Set-up is measured this many times per run (for serve-replay, the
#: daemons of the passes count) and the median reported.
SETUP_SAMPLES = 5

#: What one in-process set-up sample does: the imports the workloads need
#: and loading the compiled solver and encoder cores.
PROBE = (
    "import perfbench.workloads\n"
    "from repro.sat import _ccore, propagation_backend, search_backend\n"
    "from repro.encoding import encode_backend\n"
    "_ccore.load_materialize_core()\n"
    "print('ready', propagation_backend(), search_backend(), encode_backend(),"
    " flush=True)\n"
)

#: The daemon keeps every TCAS version's artifact in memory, so a repeat
#: sent by artifact key finds its artifact (the default 16-entry store
#: evicts some of the 39 versions before the repeats arrive).
RESIDENT_ARTIFACTS = 64

_READY = re.compile(r"repro-serve ready tcp=(\S+):(\d+)")


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))


def _probe_once() -> tuple[float, str]:
    """Spawn one process that imports and loads the cores; time to ready."""
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return time.perf_counter() - started, child.stdout.split("ready", 1)[1].strip()


class Daemon:
    """One ``python -m repro.serve`` process on an ephemeral local port."""

    def __init__(self, workers: int) -> None:
        from repro.serve.client import Client, ServeError

        self._shutdown_errors = (OSError, ServeError)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--tcp", "127.0.0.1:0",
             "--workers", str(workers),
             "--memory-artifacts", str(RESIDENT_ARTIFACTS)],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            match = None
            while match is None:
                line = self.process.stdout.readline()
                if not line:
                    raise RuntimeError("daemon exited before reporting ready")
                match = _READY.search(line)
            self.client = Client(tcp=(match.group(1), int(match.group(2))), timeout=170)
            self.client.wait_until_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the daemon and every process below it."""
        pids = [self.process.pid]
        total_kb = 0
        while pids:
            pid = pids.pop()
            total_kb += _peak_rss_kb(pid)
            children = Path(f"/proc/{pid}/task/{pid}/children")
            if children.exists():
                pids.extend(int(child) for child in children.read_text().split())
        return total_kb / 1024.0

    def stop(self) -> None:
        """Shut the daemon down (its workers with it) and reap it."""
        client = getattr(self, "client", None)
        if client is None:
            self.process.terminate()
        elif self.process.poll() is None:
            try:
                client.shutdown()
            except self._shutdown_errors:
                pass  # the daemon is already going; the wait below reaps it
            client.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        self.process.stdout.close()


def _peak_rss_kb(pid) -> int:
    """``VmHWM`` of one process (0 once it has exited)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+) kB", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


def _serve_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _generate(workload: str, seed: int):
    from perfbench import generate

    if workload == "siemens-trace":
        return (generate.siemens_requests(seed),)
    work = generate.tcas_work(seed)
    if workload == "serve-replay":
        return work, generate.serve_repeats(work, seed)
    return (work,)


def _run_pass(workload: str, inputs, tracer):
    """One pass over the request list; serve-replay gets a fresh daemon.

    Returns the pass record, the pass's peak RSS in MB and, for
    serve-replay, the daemon's set-up seconds.
    """
    from perfbench import workloads

    if workload != "serve-replay":
        run = workloads.tcas_session if workload == "tcas-session" else workloads.siemens_trace
        record = run(*inputs, tracer)
        return record, _peak_rss_kb("self") / 1024.0, None
    daemon = Daemon(_serve_workers())
    try:
        record = workloads.serve_replay(daemon.client, *inputs, tracer)
        return record, daemon.peak_rss_mb(), daemon.setup_seconds
    finally:
        daemon.stop()


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from perfbench.metrics import END_TO_END_UNITS, end_to_end
    from perfbench.tracer import NullTracer
    from perfbench.workloads import combine_passes

    _, backends = _probe_once()  # builds the C cores once, untimed
    print(f"backends propagation/search/encode: {backends}", flush=True)
    inputs = _generate(workload, seed)
    passes, peaks, setups = [], [], []
    for _ in range(PASSES):
        record, peak, setup = _run_pass(workload, inputs, NullTracer())
        passes.append(record)
        peaks.append(peak)
        if setup is not None:
            setups.append(setup)
    while len(setups) < SETUP_SAMPLES:
        if workload == "serve-replay":
            daemon = Daemon(_serve_workers())
            daemon.stop()
            setups.append(daemon.setup_seconds)
        else:
            setups.append(_probe_once()[0])
    record = combine_passes(passes)
    # A kernel right next to a process start reads the machine while that
    # process starts or exits, so set-up is scaled by the run's slowdown.
    slowdown = statistics.median(outcome.slowdown for outcome in record.outcomes)
    setup_s = statistics.median(setups) / slowdown
    metrics, quality = end_to_end(record, setup_s, statistics.median(peaks))
    _print_summary(workload, seed, seconds, slowdown, record, metrics, quality)
    failed = sum(1 for outcome in record.outcomes if outcome.error is not None)
    if trace:
        from perfbench.layers import PER_LAYER_UNITS

        layer_metrics = _traced_pass(workload, seed, inputs, record, quality)
        chosen = {name: (layer_metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": failed == 0,
        "attempted": len(record.outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
        },
    }


def _traced_pass(workload: str, seed: int, inputs, untraced, quality) -> dict:
    """Run the same requests once more with every layer call wrapped."""
    from perfbench import layers
    from perfbench.metrics import busy_seconds
    from perfbench.tracer import SpanTracer

    tracer = SpanTracer()
    layers.install(tracer)
    try:
        traced, _, _ = _run_pass(workload, inputs, tracer)
    finally:
        tracer.uninstall()
    slowdown = statistics.median(outcome.slowdown for outcome in traced.outcomes)
    metrics = layers.per_layer_metrics(tracer, traced.serve_counters, slowdown)
    metrics["quality.detected_fraction"] = quality["detected_fraction"]
    metrics["quality.first_hit_rank"] = quality["first_hit_rank"]
    traced_busy = busy_seconds(traced) - tracer.side_seconds / slowdown
    metrics["obs.tracing_overhead_fraction"] = traced_busy / busy_seconds(untraced) - 1.0
    tracer.write(OUTPUT_DIR / f"spans-{workload}-{seed}.json")
    for outcome in traced.outcomes:
        if outcome.error is not None:
            raise RuntimeError(f"traced pass: {outcome.program}: {outcome.error}")
    return metrics


def _print_summary(workload, seed, seconds, slowdown, record, metrics, quality) -> None:
    print(f"workload {workload} seed {seed}: {len(record.outcomes)} localizations, "
          f"{len(record.compiles)} compiles, median pass {record.wall:.3f} s "
          f"(nominal {seconds} s) x {PASSES} passes")
    print(f"latency_tail_ms is p{quality['tail_percentile']:.1f} "
          f"({len(record.outcomes)} samples); times are at reference host speed, "
          f"this host ran {slowdown:.3f}x slower")
    print(f"detected_fraction {quality['detected_fraction']:.4f}, "
          f"first_hit_rank {quality['first_hit_rank']:.4f}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g}")
    for outcome in record.outcomes:
        if outcome.error is not None:
            print(f"FAILED {outcome.program}: {outcome.error}")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["REPRO_TRACE"] = "off"
    (OUTPUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUTPUT_DIR / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
