"""Tests for repro.obs: metrics math, span stitching, trace propagation.

The histogram tests pin the percentile-estimate contract (inclusive ``le``
bucket boundaries, linear interpolation, the empty and single-sample edge
cases); the tracing tests pin the cross-process contract (one trace_id
stitches the serve frontend, worker subprocesses and the solver spans) and
the compatibility contract of the profile keys the span migration took
over from PR 8's hand-rolled timers.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro import obs
from repro.core.session import LocalizationSession
from repro.lang import parse_program
from repro.lang.interp import Interpreter
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.spec import Specification

CLASSIFY = (
    "int classify(int x) {\n"
    "    int big = 0;\n"
    "    if (x > 7) {\n"  # bug: spec wants threshold 10
    "        big = 1;\n"
    "    }\n"
    "    return big;\n"
    "}\n"
    "int main(int x) { return classify(x); }\n"
)


def classify_failing_tests():
    program = parse_program(CLASSIFY, name="classify")
    interpreter = Interpreter(program)
    failing = []
    for x in range(16):
        expected = 1 if x > 10 else 0
        if interpreter.run([x]).return_value != expected:
            failing.append(([x], Specification.return_value(expected)))
    assert failing
    return program, failing


# ------------------------------------------------------------------ metrics


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        # Prometheus ``le`` semantics: a sample equal to a bound lands in
        # that bound's bucket, not the next one.
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 4.0):
            hist.observe(value)
        rendered = "\n".join(hist.render())
        assert 'h_bucket{le="1"} 1' in rendered
        assert 'h_bucket{le="2"} 2' in rendered
        assert 'h_bucket{le="4"} 3' in rendered
        assert 'h_bucket{le="+Inf"} 3' in rendered
        assert "h_count 3" in rendered

    def test_sample_above_all_bounds_lands_in_inf(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(100.0)
        rendered = "\n".join(hist.render())
        assert 'h_bucket{le="1"} 0' in rendered
        assert 'h_bucket{le="+Inf"} 1' in rendered

    def test_percentiles_on_known_distribution(self):
        # 100 samples spread uniformly through (0, 10] with bounds every
        # 1.0: the p-th percentile interpolates to ~p/10.
        hist = Histogram("h", buckets=tuple(float(b) for b in range(1, 11)))
        for i in range(1, 101):
            hist.observe(i / 10.0)
        assert hist.percentile(50) == pytest.approx(5.0, abs=0.1)
        assert hist.percentile(95) == pytest.approx(9.5, abs=0.1)
        assert hist.percentile(100) == pytest.approx(10.0, abs=0.1)

    def test_interpolation_within_a_bucket(self):
        # All 4 samples in the (1, 2] bucket: p50 is the 2nd of 4 ranks,
        # half way through the bucket's count → 1.0 + (2/4) * 1.0.
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (1.2, 1.4, 1.6, 1.8):
            hist.observe(value)
        assert hist.percentile(50) == pytest.approx(1.5)

    def test_empty_histogram_has_no_percentile(self):
        hist = Histogram("h", buckets=(1.0,))
        assert hist.percentile(50) is None
        assert hist.percentile(95) is None
        assert hist.count == 0

    def test_single_sample(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.5)
        # Every percentile lands in the single occupied bucket (1, 2].
        for p in (0, 50, 95, 100):
            value = hist.percentile(p)
            assert 1.0 <= value <= 2.0, (p, value)

    def test_inf_bucket_percentile_clamps_to_highest_bound(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(50.0)
        assert hist.percentile(95) == 1.0

    def test_percentile_range_validated(self):
        hist = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.percentile(101)


class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.gauge("g").dec(2)
        assert registry.counter("c").value == 3
        assert registry.gauge("g").value == 5
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")
        labelled = registry.counter("c", labels={"op": "x"})
        assert labelled is not registry.counter("c")
        with pytest.raises(TypeError):
            registry.gauge("c")

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_reqs", "requests").inc(2)
        registry.counter("repro_reqs", labels={"op": "stats"}).inc()
        registry.histogram("repro_lat", buckets=(0.5,)).observe(0.1)
        text = registry.render_prometheus()
        # Counter headers carry the ``_total`` suffix of their samples —
        # text-format parsers group samples by the TYPE-line name.
        assert "# TYPE repro_reqs_total counter" in text
        assert "# HELP repro_reqs_total requests" in text
        assert "repro_reqs_total 2" in text
        assert 'repro_reqs_total{op="stats"} 1' in text
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{le="0.5"} 1' in text
        assert "repro_lat_count 1" in text
        # One TYPE header per family even with labelled children.
        assert text.count("# TYPE repro_reqs_total counter") == 1

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 1
        assert snap["h"]["count"] == 1
        assert snap["h"]["p50"] is not None


# ------------------------------------------------------------------- spans


class TestSpans:
    def test_disabled_span_still_times(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert obs.tracing_mode() == "off"
        with obs.trace("root") as handle:
            with obs.span("work") as span:
                pass
        assert span.duration >= 0.0
        assert handle.spans() == []
        assert obs.current_context() is None

    def test_nesting_and_attributes(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        with obs.trace("root") as handle:
            with obs.span("outer", k=1):
                with obs.span("inner") as inner:
                    inner.set(extra=True)
        spans = {s["name"]: s for s in handle.spans()}
        assert set(spans) == {"root", "outer", "inner"}
        assert spans["outer"]["parent_id"] == spans["root"]["span_id"]
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["attrs"] == {"k": 1}
        assert spans["inner"]["attrs"] == {"extra": True}
        assert all(s["trace_id"] == handle.trace_id for s in spans.values())
        assert all(s["dur_us"] >= 0 for s in spans.values())

    def test_sibling_spans_share_parent(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        with obs.trace("root") as handle:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        spans = {s["name"]: s for s in handle.spans()}
        assert spans["a"]["parent_id"] == spans["root"]["span_id"]
        assert spans["b"]["parent_id"] == spans["root"]["span_id"]

    def test_error_annotation(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        with obs.trace("root") as handle:
            with pytest.raises(RuntimeError):
                with obs.span("bad"):
                    raise RuntimeError("boom")
        bad = next(s for s in handle.spans() if s["name"] == "bad")
        assert bad["error"] == "RuntimeError"

    def test_remote_trace_roundtrip(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        with obs.trace("root") as handle:
            ctx = obs.current_context()
            with obs.remote_trace(ctx) as bundle:
                with obs.span("remote.work"):
                    pass
            assert len(bundle.spans) == 1
            assert obs.merge_spans(ctx[0], bundle.spans) == 1
            # The parent's own context survives the same-process shadowing.
            assert obs.current_context() == ctx
        names = [s["name"] for s in handle.spans()]
        assert names.count("remote.work") == 1

    def test_merge_after_close_is_dropped(self):
        assert obs.merge_spans("deadbeef", [{"name": "late"}]) == 0

    def test_valid_trace_id(self):
        assert obs.valid_trace_id(obs.new_trace_id())
        assert obs.valid_trace_id("deadbeef")
        for bad in (
            "../../etc/passwd",
            "DEADBEEF",  # case-sensitive: only what new_trace_id mints
            "abc",  # too short
            "f" * 33,  # too long
            "dead beef",
            "",
            7,
            None,
        ):
            assert not obs.valid_trace_id(bad), bad

    def test_concurrent_remote_shards_non_lifo_exit(self, monkeypatch):
        # Two same-process shards of one trace exiting out of order must
        # not leave a stale, finished collector in the registry — a late
        # merge has to land in the parent's live collector.
        monkeypatch.setenv("REPRO_TRACE", "on")
        with obs.trace("root") as handle:
            ctx = obs.current_context()
            first = obs.remote_trace(ctx)
            second = obs.remote_trace(ctx)
            first.__enter__()
            second.__enter__()
            first.__exit__(None, None, None)
            second.__exit__(None, None, None)
            assert obs.collector_for(handle.trace_id) is handle.collector
            late = {"name": "late", "trace_id": handle.trace_id}
            assert obs.merge_spans(handle.trace_id, [late]) == 1
        assert any(s["name"] == "late" for s in handle.spans())

    def test_request_trace_is_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        request = obs.start_request_trace("serve.op", op="stats")
        # No thread-local binding: the event loop thread stays clean.
        assert obs.current_context() is None
        with obs.bind_trace(request.ctx):
            with obs.span("inner"):
                pass
        request.finish()
        spans = {s["name"]: s for s in request.collector.spans()}
        assert set(spans) == {"serve.op", "inner"}
        assert spans["inner"]["parent_id"] == spans["serve.op"]["span_id"]

    def test_profile_side_table(self):
        class Carrier:
            pass

        carrier = Carrier()
        obs.attach_profile(carrier, {"backend": "c"})
        assert obs.profile_of(carrier) == {"backend": "c"}
        assert obs.profile_of(object()) == {}


# ----------------------------------------------------------------- export


class TestChromeExport:
    def test_roundtrip_is_valid(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", "export")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        with obs.trace("root") as handle:
            with obs.span("child"):
                pass
        assert handle.export_path is not None
        document = json.loads((tmp_path / f"{handle.trace_id}.trace.json").read_text())
        assert obs.validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert names == {"root", "child"}
        assert document["otherData"]["trace_id"] == handle.trace_id
        log_lines = (tmp_path / "traces.jsonl").read_text().strip().splitlines()
        record = json.loads(log_lines[-1])
        assert record["trace_id"] == handle.trace_id
        assert record["spans"] == 2

    def test_hostile_trace_id_cannot_escape_export_dir(self, tmp_path):
        # Defense in depth behind the frontend's wire-id validation: even a
        # collector holding a path-shaped id must write inside the trace dir.
        from repro.obs.export import export_trace
        from repro.obs.trace import TraceCollector

        out_dir = tmp_path / "inner" / "traces"
        collector = TraceCollector("../../escape")
        collector.add(
            {
                "trace_id": "../../escape",
                "span_id": "aabbccdd",
                "parent_id": None,
                "name": "root",
                "ts_us": 0,
                "dur_us": 1,
                "pid": 1,
                "tid": 1,
            }
        )
        path = export_trace(collector, root_name="root", directory=str(out_dir))
        assert path is not None
        assert Path(path).resolve().parent == out_dir.resolve()
        assert not (tmp_path / "escape.trace.json").exists()
        assert obs.validate_chrome_trace(json.loads(Path(path).read_text())) == []

    def test_validator_rejects_malformed(self):
        assert obs.validate_chrome_trace([]) != []
        assert obs.validate_chrome_trace({}) != []
        assert obs.validate_chrome_trace({"traceEvents": [{}]}) != []
        missing_dur = {
            "traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]
        }
        assert any("dur" in p for p in obs.validate_chrome_trace(missing_dur))


# ------------------------------------------------------- session integration


class TestSessionTracing:
    def test_encode_profile_keys_unchanged(self):
        # Satellite contract: the span migration must not move the profile
        # schema PR 8 established — BENCH_table3.json's encode_phase_*
        # fields and the serve stats keys are derived from these.
        program, failing = classify_failing_tests()
        with LocalizationSession(program) as session:
            session.localize(*failing[0])
            profile = session.last_request_profile
            encode_profile = session.compiled.encode_profile()
        # The analysis solve counts joined the schema as two more keys.
        assert set(encode_profile) == {
            "encode_backend",
            "encode_phases",
            "analysis_solves",
            "analysis_solves_reused",
        }
        assert set(encode_profile["encode_phases"]) == {"analysis", "gates"}
        for key in (
            "sat_calls",
            "propagations",
            "conflicts",
            "encode_backend",
            "encode_phase_analysis",
            "encode_phase_gates",
        ):
            assert key in profile, key

    def test_localize_span_tree(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        program, failing = classify_failing_tests()
        with obs.trace("request") as handle:
            with LocalizationSession(program) as session:
                session.localize(*failing[0])
                profile = session.last_request_profile
        spans = {s["name"]: s for s in handle.spans()}
        assert {"bmc.compile", "session.localize", "solve.comss"} <= set(spans)
        assert spans["solve.comss"]["parent_id"] == spans["session.localize"]["span_id"]
        assert spans["session.localize"]["trace_id"] == handle.trace_id
        # The solver-effort attributes ride the solve span.
        assert spans["solve.comss"]["attrs"]["sat_calls"] > 0
        # And the request profile names the trace it ran under.
        assert profile["trace_id"] == handle.trace_id

    def test_kernel_exits_on_solve_span(self, monkeypatch):
        """The solve span reports the layer's C-kernel exits by reason.

        Every search of the engine's solver that reaches the kernel ends in
        one answer exit: a model or an assumption core.
        """
        from repro.sat import Solver
        from repro.siemens import classify_tcas_tests, tcas_faulty_program

        searches = []
        search = Solver._search

        def counting_search(solver, assumptions):
            searches.append(solver)
            return search(solver, assumptions)

        monkeypatch.setattr(Solver, "_search", counting_search)
        monkeypatch.setenv("REPRO_TRACE", "on")
        failing, _ = classify_tcas_tests("v1", count=200)
        vector, expected = failing[0]
        with obs.trace("request") as handle:
            with LocalizationSession(tcas_faulty_program("v1")) as session:
                session.localize(
                    vector.as_list(), Specification.return_value(expected)
                )
                solver = session._engine._solver
        attrs = next(s for s in handle.spans() if s["name"] == "solve.comss")["attrs"]
        assert attrs["kernel_reduce_exits"] >= 0
        assert attrs["kernel_capacity_exits"] >= 0
        exits = solver.kernel_exits
        kernel_calls = sum(searched is solver for searched in searches)
        assert kernel_calls > 0
        if solver.backend == "c":
            assert exits["sat"] + exits["assumption"] == kernel_calls
            assert attrs["kernel_reduce_exits"] <= exits["reduce"]
            assert attrs["kernel_capacity_exits"] <= exits["capacity"]
        else:
            assert not any(exits.values())
            assert attrs["kernel_reduce_exits"] == 0
            assert attrs["kernel_capacity_exits"] == 0

    @pytest.mark.parametrize("backend", ["default", "python"])
    def test_kernel_ms_on_solve_span(self, backend, monkeypatch):
        """The solve span reports the layer's wall time inside the C search
        kernel: within the span's own duration, and zero on the Python
        backend.  ``glue_ms`` is the rest of the span's duration."""
        from repro.sat import _ccore
        from repro.siemens import classify_tcas_tests, tcas_faulty_program

        if backend == "python":
            # What REPRO_BACKEND=python selects for every new Solver.
            monkeypatch.setattr(_ccore, "backend", lambda: "python")
        monkeypatch.setenv("REPRO_TRACE", "on")
        failing, _ = classify_tcas_tests("v1", count=200)
        vector, expected = failing[0]
        with obs.trace("request") as handle:
            with LocalizationSession(tcas_faulty_program("v1")) as session:
                session.localize(
                    vector.as_list(), Specification.return_value(expected)
                )
                solver = session._engine._solver
        span = next(s for s in handle.spans() if s["name"] == "solve.comss")
        kernel_ms = span["attrs"]["kernel_ms"]
        glue_ms = span["attrs"]["glue_ms"]
        # dur_us is truncated to whole microseconds.
        assert 0 <= kernel_ms <= (span["dur_us"] + 1) / 1000
        assert glue_ms > 0
        assert abs(kernel_ms + glue_ms - span["dur_us"] / 1000) <= 0.001
        if solver.backend == "c":
            assert kernel_ms > 0
        else:
            assert kernel_ms == 0

    def test_engine_load_span(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        program, failing = classify_failing_tests()
        with obs.trace("request") as handle:
            with LocalizationSession(program) as session:
                session.localize(*failing[0])
                session.localize(*failing[-1])
                loaded = session._engine._wcnf
                backend = session._engine._solver.backend
        loads = [s for s in handle.spans() if s["name"] == "maxsat.load"]
        # The session loads its engine once, on the first localize.
        assert len(loads) == 1
        attrs = loads[0]["attrs"]
        ends = list(loaded.hard_ends)
        lengths = [end - start for start, end in zip([0] + ends, ends)]
        assert attrs["clauses"] == len(ends)
        assert attrs["literals"] == ends[-1] == len(loaded.hard_lits)
        assert attrs["units"] == lengths.count(1)
        assert attrs["units"] > 0 and attrs["root_propagations"] > 0
        assert attrs["path"] == ("kernel" if backend == "c" else "python")

    def test_trace_propagates_through_process_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        program, failing = classify_failing_tests()
        with obs.trace("batch") as handle:
            with LocalizationSession(program) as session:
                session.localize_batch(failing, executor="process", workers=2)
        spans = handle.spans()
        assert {s["trace_id"] for s in spans} == {handle.trace_id}
        # Worker subprocesses contributed spans under the parent's root.
        assert len({s["pid"] for s in spans}) >= 2
        by_id = {s["span_id"]: s for s in spans}
        # The same span tree as daemon traffic:
        # batch -> serve.shard -> worker.shard -> session.localize.
        serve_shards = [s for s in spans if s["name"] == "serve.shard"]
        assert serve_shards
        for shard in serve_shards:
            assert by_id[shard["parent_id"]]["name"] == "batch"
        worker_shards = [s for s in spans if s["name"] == "worker.shard"]
        assert len(worker_shards) == len(serve_shards)
        for shard in worker_shards:
            assert by_id[shard["parent_id"]]["name"] == "serve.shard"
        localize_spans = [s for s in spans if s["name"] == "session.localize"]
        assert len(localize_spans) == len(failing)
        for span in localize_spans:
            assert by_id[span["parent_id"]]["name"] == "worker.shard"

    def test_pool_untraced_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        program, failing = classify_failing_tests()
        with obs.trace("batch") as handle:
            with LocalizationSession(program) as session:
                ranked = session.localize_batch(
                    failing, executor="process", workers=2
                )
        assert handle.spans() == []
        assert ranked.ranked_lines


# --------------------------------------------------------- serve integration


@pytest.fixture(scope="module")
def serve_thread():
    from repro.serve import ServerThread

    with ServerThread(workers=2) as thread:
        yield thread


class TestServeObservability:
    def _client(self, serve_thread):
        from repro.serve import Client

        host, port = serve_thread.tcp_address
        return Client(tcp=(host, port))

    def test_response_carries_trace_id(self, serve_thread):
        with self._client(serve_thread) as client:
            client.wait_until_ready()
            reply = client.localize(
                program=CLASSIFY,
                test=[9],
                spec={"kind": "return-value", "expected": [0]},
            )
        assert reply["ok"]
        assert isinstance(reply["trace_id"], str) and reply["trace_id"]

    def test_client_supplied_trace_id_is_adopted(self, serve_thread):
        with self._client(serve_thread) as client:
            client.wait_until_ready()
            reply = client.stats()
            assert reply["trace_id"]
            chosen = obs.new_trace_id()
            reply = client.request({"op": "stats", "trace_id": chosen})
        assert reply["trace_id"] == chosen

    def test_malformed_wire_trace_id_is_not_adopted(self, serve_thread):
        # A path-shaped (or otherwise malformed) wire id names the export
        # file, so the frontend mints a fresh id instead of adopting it.
        with self._client(serve_thread) as client:
            client.wait_until_ready()
            reply = client.request({"op": "stats", "trace_id": "../../evil"})
        assert reply["trace_id"] != "../../evil"
        assert obs.valid_trace_id(reply["trace_id"])

    def test_cancelled_request_still_unregisters_collector(self, monkeypatch):
        # A client disconnect surfaces as CancelledError (a BaseException)
        # inside the handler; the request trace must still be finished or
        # its collector leaks in the process-global registry forever.
        monkeypatch.setenv("REPRO_TRACE", "on")
        from repro.obs.trace import _ACTIVE
        from repro.serve.server import LocalizationServer

        server = LocalizationServer(workers=1)

        async def cancelled_handler(request, trace_ctx):
            raise asyncio.CancelledError

        monkeypatch.setattr(server, "_op_stats", cancelled_handler)
        before = dict(_ACTIVE)
        with pytest.raises(asyncio.CancelledError):
            asyncio.run(server._dispatch({"op": "stats"}))
        assert _ACTIVE == before

    def test_stats_snapshot_seq_and_window(self, serve_thread):
        with self._client(serve_thread) as client:
            client.wait_until_ready()
            first = client.stats()
            second = client.stats()
        assert second["snapshot_seq"] == first["snapshot_seq"] + 1
        # Cumulative keys unchanged (compat contract)...
        for section in ("server", "store", "result_cache", "pool"):
            assert section in first
        assert "requests_served" in first["server"]
        # ...and the window closes over exactly the inter-poll interval:
        # the second poll saw at least its own stats request arrive.
        window = second["window"]
        assert window["seconds"] >= 0
        assert window["deltas"]["server.requests_served"] >= 1
        # Deltas never include non-counter noise.
        assert "server.uptime_seconds" not in window["deltas"]

    def test_metrics_op(self, serve_thread):
        with self._client(serve_thread) as client:
            client.wait_until_ready()
            client.localize(
                program=CLASSIFY,
                test=[8],
                spec={"kind": "return-value", "expected": [0]},
            )
            reply = client.metrics()
        text = reply["metrics"]
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_requests_total{op="localize"}' in text
        assert "repro_serve_request_seconds_bucket" in text
        snapshot = reply["snapshot"]
        assert snapshot['repro_serve_requests{op="localize"}'] >= 1
        assert any(key.startswith("repro_store_") for key in snapshot)
        assert any(key.startswith("repro_pool_") for key in snapshot)

    def test_stitched_trace_exports_valid_chrome_json(
        self, serve_thread, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TRACE", "export")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        with self._client(serve_thread) as client:
            client.wait_until_ready()
            reply = client.localize(
                program=CLASSIFY + "// traced variant\n",
                test=[10],
                spec={"kind": "return-value", "expected": [0]},
            )
        assert reply["ok"]
        document = json.loads(open(reply["trace_path"]).read())
        assert obs.validate_chrome_trace(document) == []
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        assert {"serve.localize", "serve.shard", "worker.shard", "session.localize"} <= names
        # The trace crosses the daemon/worker process boundary.
        assert len({event["pid"] for event in events}) >= 2
        # One stitched tree: every span reaches the frontend root.
        by_id = {event["args"]["span_id"]: event for event in events}
        for event in events:
            current = event
            for _ in range(len(events)):
                parent = current["args"].get("parent_id")
                if parent is None:
                    break
                current = by_id[parent]
            assert current["name"] == "serve.localize", event["name"]
