"""Serving-layer throughput: the daemon vs the serial session path.

The workload is the 9-version TCAS top-3 protocol reshaped as service
traffic: several client passes each replay the same handful of failing
tests against every faulty version (exactly what CI reruns and multiple
developers do until a bug is fixed — many requests, few programs).

Two ways to serve it:

* **daemon** — one ``python -m repro.serve`` process (content-addressed
  artifact store, warm-session workers, result cache); every localization
  is an individual ``localize`` request over TCP, so the latency
  distribution is per-request and honest.
* **serial session path** — what each client does without the daemon: per
  pass and per version, open a :class:`~repro.core.session.LocalizationSession`
  (compile + engine load), localize the version's tests, close.  No state
  survives between passes because independent client processes cannot
  share sessions — that is precisely the gap the daemon closes.

Besides the printed table the run writes ``BENCH_service.json`` at the
repository root: requests/sec for both paths, artifact-cache hit rate,
compiles performed (must equal the version count — the compile-exactly-once
contract), p50/p95 request latency (computed by the
:class:`repro.obs.Histogram` the daemon's own metrics use), and the
daemon's metrics-registry snapshot (``daemon.metrics``).  Line sets must
be identical per (version, test) across both paths and all passes.

Run with ``pytest benchmarks/bench_service_throughput.py --runslow``,
directly with ``python benchmarks/bench_service_throughput.py``, or as the
CI smoke with ``python benchmarks/bench_service_throughput.py --smoke``
(two versions, fewer passes, two workers).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from repro.core import LocalizationSession, Specification
from repro.serve import Client
from repro.siemens.suite import TCAS_HARNESS_LINES, service_workload
from repro.siemens.tcas import tcas_faulty_program

#: Machine-readable benchmark record, written next to ROADMAP.md.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: CoMSSes examined per failing test (the "top-3" of the protocol).
MAX_CANDIDATES = 3

FULL_PROTOCOL = {
    "versions": ["v1", "v2", "v13", "v16", "v22", "v28", "v37", "v40", "v41"],
    "tests_per_version": 4,
    "client_passes": 4,
    "workers": 4,
    "test_pool": 300,
}

SMOKE_PROTOCOL = {
    "versions": ["v1", "v2"],
    "tests_per_version": 3,
    "client_passes": 2,
    "workers": 2,
    "test_pool": 300,
}


def _session_options() -> dict:
    return {
        "hard_lines": list(TCAS_HARNESS_LINES),
        "max_candidates": MAX_CANDIDATES,
    }


def spawn_daemon(workers: int, store_dir: str) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start ``python -m repro.serve`` and parse its ready line."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}{env['PYTHONPATH']}" if env.get(
        "PYTHONPATH"
    ) else str(src_dir)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            str(workers),
            "--store-dir",
            store_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    ready = proc.stdout.readline()
    match = re.search(r"tcp=([\d.]+):(\d+)", ready)
    if not match:
        proc.kill()
        raise RuntimeError(f"daemon did not report a TCP address: {ready!r}")
    return proc, (match.group(1), int(match.group(2)))


def run_daemon_path(protocol: dict, workload) -> dict:
    """Replay the workload as individual localize requests against a daemon."""
    from repro.obs import Histogram

    store_dir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    proc, address = spawn_daemon(protocol["workers"], store_dir)
    # Client-observed request latency, in the same fixed-bucket histogram
    # the daemon's own metrics use (replaces hand-rolled sorted-index
    # percentile math).
    latency = Histogram("bench_request_seconds")
    lines: dict[tuple[int, str, int], list[int]] = {}
    try:
        with Client(tcp=address) as client:
            client.wait_until_ready()
            started = time.perf_counter()
            for pass_index in range(protocol["client_passes"]):
                for request in workload:
                    for test_index, (inputs, spec) in enumerate(request.tests):
                        sent = time.perf_counter()
                        reply = client.localize(
                            test=inputs,
                            spec=spec,
                            program=request.source,
                            options={"name": request.name, **_session_options()},
                        )
                        latency.observe(time.perf_counter() - sent)
                        lines[(pass_index, request.version, test_index)] = reply[
                            "report"
                        ]["lines"]
            total = time.perf_counter() - started
            stats = client.stats()
            metrics = client.metrics()
            client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    requests = latency.count
    return {
        "total_seconds": round(total, 3),
        "requests": requests,
        "requests_per_second": round(requests / total, 2) if total else 0.0,
        "latency_p50_ms": round(1000 * latency.percentile(50), 2),
        "latency_p95_ms": round(1000 * latency.percentile(95), 2),
        "compiles": stats["store"]["compiles"],
        "artifact_cache": stats["store"],
        "result_cache": stats["result_cache"],
        "pool": {
            key: value
            for key, value in stats["pool"].items()
            if key != "workers"
        },
        # The daemon's own metrics registry snapshot (span-fed request
        # histograms, solver counters, store/cache/pool gauges).
        "metrics": metrics["snapshot"],
        "lines": lines,
    }


def run_serial_path(protocol: dict, workload) -> dict:
    """The no-daemon client behaviour: fresh sessions per pass and version."""
    lines: dict[tuple[int, str, int], list[int]] = {}
    compiles = 0
    requests = 0
    started = time.perf_counter()
    for pass_index in range(protocol["client_passes"]):
        for request in workload:
            program = tcas_faulty_program(request.version)
            with LocalizationSession(
                program,
                hard_lines=TCAS_HARNESS_LINES,
                max_candidates=MAX_CANDIDATES,
            ) as session:
                for test_index, (inputs, spec) in enumerate(request.tests):
                    report = session.localize(inputs, spec)
                    requests += 1
                    lines[(pass_index, request.version, test_index)] = report.lines
                compiles += session.stats.encodings_built
    total = time.perf_counter() - started
    return {
        "total_seconds": round(total, 3),
        "requests": requests,
        "requests_per_second": round(requests / total, 2) if total else 0.0,
        "compiles": compiles,
        "lines": lines,
    }


def run_benchmark(protocol: dict = FULL_PROTOCOL) -> dict:
    workload = service_workload(
        versions=protocol["versions"],
        tests_per_version=protocol["tests_per_version"],
        test_count=protocol["test_pool"],
    )
    daemon = run_daemon_path(protocol, workload)
    serial = run_serial_path(protocol, workload)
    lines_equal = daemon["lines"] == serial["lines"]
    speedup = (
        round(daemon["requests_per_second"] / serial["requests_per_second"], 2)
        if serial["requests_per_second"]
        else 0.0
    )
    payload = {
        "protocol": {**protocol, "max_candidates": MAX_CANDIDATES},
        "daemon": {key: value for key, value in daemon.items() if key != "lines"},
        "serial": {key: value for key, value in serial.items() if key != "lines"},
        "throughput_speedup": speedup,
        "lines_equal": lines_equal,
    }
    _print_table(payload)
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _print_table(payload: dict) -> None:
    daemon, serial = payload["daemon"], payload["serial"]
    protocol = payload["protocol"]
    print()
    print(
        f"Service throughput — {len(protocol['versions'])} TCAS versions, "
        f"{protocol['tests_per_version']} tests/version, "
        f"{protocol['client_passes']} client passes, "
        f"{protocol['workers']} workers"
    )
    print(f"{'path':>8} {'req':>5} {'secs':>8} {'req/s':>8} {'p50ms':>7} {'p95ms':>7} {'compiles':>8}")
    print(
        f"{'daemon':>8} {daemon['requests']:>5} {daemon['total_seconds']:>8.2f} "
        f"{daemon['requests_per_second']:>8.2f} {daemon['latency_p50_ms']:>7.1f} "
        f"{daemon['latency_p95_ms']:>7.1f} {daemon['compiles']:>8}"
    )
    print(
        f"{'serial':>8} {serial['requests']:>5} {serial['total_seconds']:>8.2f} "
        f"{serial['requests_per_second']:>8.2f} {'-':>7} {'-':>7} {serial['compiles']:>8}"
    )
    print(
        f"speedup {payload['throughput_speedup']}x, artifact cache hit rate "
        f"{daemon['artifact_cache']['hit_rate']}, result cache hit rate "
        f"{daemon['result_cache']['hit_rate']}, lines_equal={payload['lines_equal']}"
    )


@pytest.mark.slow
def test_service_throughput():
    """Daemon serving: identical line sets, N compiles, ≥2x throughput."""
    payload = run_benchmark()
    # Identical answers on every (pass, version, test) — the serving layer
    # may cache, never change a localization.
    assert payload["lines_equal"]
    # Compile-exactly-once: one compile per distinct version, regardless of
    # client passes and test count (the serial path recompiles every pass).
    assert payload["daemon"]["compiles"] == len(payload["protocol"]["versions"])
    assert payload["serial"]["compiles"] == (
        len(payload["protocol"]["versions"]) * payload["protocol"]["client_passes"]
    )
    # The point of the subsystem: ≥2x throughput over the serial path.
    assert payload["throughput_speedup"] >= 2.0


if __name__ == "__main__":
    protocol = SMOKE_PROTOCOL if "--smoke" in sys.argv else FULL_PROTOCOL
    result = run_benchmark(protocol)
    sys.exit(0 if result["lines_equal"] else 1)
