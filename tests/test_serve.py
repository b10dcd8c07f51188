"""Tests for the `repro.serve` subsystem.

Covers the content-addressed artifact store (round trip, LRU eviction,
corrupt-spill recovery), the length-prefixed JSON protocol (framing fuzz:
garbage, truncated and oversized frames must cost at most one connection,
never the daemon), the warm-session worker pool (eviction, worker-death
retry) and the end-to-end daemon contract: reports byte-identical to an
in-process :class:`~repro.core.session.LocalizationSession`, with each
distinct program version compiled exactly once however many clients ask.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.bmc import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactFormatError,
    BoundedModelChecker,
    artifact_key,
    dumps_artifact,
    loads_artifact,
)
from repro.core import LocalizationSession, Specification
from repro.lang import parse_program
from repro.serve import Client, ServeError, ServerThread, canonical_report_bytes
from repro.serve import protocol
from repro.serve.store import ArtifactStore, ResultCache, normalize_compile_options

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

OTHER = (
    "int main(int x) {\n"
    "    int y = x + 1;\n"
    "    return y;\n"
    "}\n"
)

SPEC_ZERO = {"kind": "return-value", "expected": [0]}


def classify_failing_tests():
    failing = []
    for x in (8, 9, 10):
        failing.append(([x], Specification.return_value(0)))
    return failing


# ---------------------------------------------------------------- artifacts


class TestArtifactSerialization:
    def test_round_trip(self):
        program = parse_program(CLASSIFY, name="classify")
        compiled = BoundedModelChecker(program, group_statements=True).compile_program()
        clone = loads_artifact(dumps_artifact(compiled))
        assert clone.num_vars == compiled.num_vars
        assert clone.num_clauses == compiled.num_clauses
        assert clone.signature == compiled.signature

    def test_rejects_garbage_and_wrong_version(self):
        with pytest.raises(ArtifactFormatError):
            loads_artifact(b"definitely not an artifact")
        program = parse_program(OTHER, name="other")
        compiled = BoundedModelChecker(program, group_statements=True).compile_program()
        blob = bytearray(dumps_artifact(compiled))
        offset = blob.index(ARTIFACT_FORMAT_VERSION.to_bytes(4, "big")[-1])
        blob[offset] = (blob[offset] + 1) % 256
        with pytest.raises(ArtifactFormatError):
            loads_artifact(bytes(blob))
        # Truncated pickle body.
        with pytest.raises(ArtifactFormatError):
            loads_artifact(dumps_artifact(compiled)[:-20])

    def test_rejects_format_5_blobs(self):
        """Format 5 stored clause lists and a tuple journal, format 6 the
        encoder's flat clause store and journal: a format-5 spill must be
        recompiled, never unpickled."""
        from repro.bmc.compiled import ARTIFACT_HEADER_BYTES, peek_artifact_version

        assert ARTIFACT_FORMAT_VERSION == 6
        program = parse_program(OTHER, name="other")
        compiled = BoundedModelChecker(program, group_statements=True).compile_program()
        blob = dumps_artifact(compiled)
        magic = blob[: ARTIFACT_HEADER_BYTES - 4]
        old = magic + (5).to_bytes(4, "big") + blob[ARTIFACT_HEADER_BYTES:]
        assert peek_artifact_version(old) == 5
        with pytest.raises(ArtifactFormatError, match="format 5 incompatible"):
            loads_artifact(old)

    def test_key_is_stable_and_option_sensitive(self):
        base = artifact_key(CLASSIFY, normalize_compile_options({"name": "classify"}))
        again = artifact_key(CLASSIFY, normalize_compile_options({"name": "classify"}))
        assert base == again
        other_text = artifact_key(OTHER, normalize_compile_options({"name": "classify"}))
        other_opts = artifact_key(
            CLASSIFY, normalize_compile_options({"name": "classify", "unwind": 8})
        )
        assert len({base, other_text, other_opts}) == 3

    def test_unknown_compile_option_rejected(self):
        with pytest.raises(ValueError):
            normalize_compile_options({"no_such_option": 1})


class TestArtifactStore:
    def test_compile_once_then_memory_hits(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key1, compiled1, source1 = store.get_or_compile(CLASSIFY, {"name": "classify"})
        key2, compiled2, source2 = store.get_or_compile(CLASSIFY, {"name": "classify"})
        assert key1 == key2
        assert source1 == "compiled" and source2 == "memory"
        assert compiled2 is compiled1
        assert store.stats.compiles == 1

    def test_disk_round_trip_across_stores(self, tmp_path):
        first = ArtifactStore(root=tmp_path)
        key, compiled, _ = first.get_or_compile(CLASSIFY, {"name": "classify"})
        # A second store over the same directory: no compile, a disk hit.
        second = ArtifactStore(root=tmp_path)
        key2, clone, source = second.get_or_compile(CLASSIFY, {"name": "classify"})
        assert key2 == key
        assert source == "disk"
        assert second.stats.compiles == 0
        assert clone.num_clauses == compiled.num_clauses

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        store = ArtifactStore(root=tmp_path, max_memory_entries=1)
        key_a, _, _ = store.get_or_compile(CLASSIFY, {"name": "classify"})
        store.get_or_compile(OTHER, {"name": "other"})  # evicts the first
        assert store.stats.evictions == 1
        assert len(store) == 1
        _, _, source = store.get_or_compile(CLASSIFY, {"name": "classify"})
        assert source == "disk"
        assert store.stats.compiles == 2  # no third compile

    def test_memory_only_store_recompiles_after_eviction(self):
        store = ArtifactStore(root=None, max_memory_entries=1)
        store.get_or_compile(CLASSIFY, {"name": "classify"})
        store.get_or_compile(OTHER, {"name": "other"})
        _, _, source = store.get_or_compile(CLASSIFY, {"name": "classify"})
        assert source == "compiled"
        assert store.stats.compiles == 3

    def test_corrupt_spill_is_recovered(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key, _, _ = store.get_or_compile(CLASSIFY, {"name": "classify"})
        spill = tmp_path / f"{key}.artifact"
        assert spill.exists()
        spill.write_bytes(b"rotten bytes, not a pickle")
        fresh = ArtifactStore(root=tmp_path)
        _, compiled, source = fresh.get_or_compile(CLASSIFY, {"name": "classify"})
        assert source == "compiled"
        assert fresh.stats.corrupt_recovered == 1
        assert compiled.num_clauses > 0
        # The recompile re-spilled a healthy artifact.
        assert loads_artifact(spill.read_bytes()).num_clauses == compiled.num_clauses

    def test_truncated_spill_is_recovered(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key, _, _ = store.get_or_compile(CLASSIFY, {"name": "classify"})
        spill = tmp_path / f"{key}.artifact"
        spill.write_bytes(spill.read_bytes()[:40])
        fresh = ArtifactStore(root=tmp_path)
        _, _, source = fresh.get_or_compile(CLASSIFY, {"name": "classify"})
        assert source == "compiled"
        assert fresh.stats.corrupt_recovered == 1

    def test_stale_format_spill_swept_at_startup(self, tmp_path):
        """A format bump invalidates old spills in one startup pass."""
        store = ArtifactStore(root=tmp_path)
        key, _, _ = store.get_or_compile(CLASSIFY, {"name": "classify"})
        spill = tmp_path / f"{key}.artifact"
        data = spill.read_bytes()
        magic = len(b"repro-artifact\x00")
        stale = (
            data[:magic]
            + (ARTIFACT_FORMAT_VERSION - 1).to_bytes(4, "big")
            + data[magic + 4 :]
        )
        spill.write_bytes(stale)
        fresh = ArtifactStore(root=tmp_path)
        assert fresh.stats.stale_swept == 1
        assert not spill.exists()
        # The stale spill never reaches the unpickler: the next request is
        # a clean miss-and-recompile, not a corrupt recovery.
        _, _, source = fresh.get_or_compile(CLASSIFY, {"name": "classify"})
        assert source == "compiled"
        assert fresh.stats.corrupt_recovered == 0
        assert fresh.stats.compiles == 1


CLASSIFY_FIXED = CLASSIFY.replace("x > 7", "x > 10")


class TestWarmCompile:
    def test_nearest_ancestor_is_spliced(self):
        store = ArtifactStore()
        base_key, _, _ = store.get_or_compile(CLASSIFY, {"name": "classify"})
        key, compiled, source = store.get_or_compile(
            CLASSIFY_FIXED, {"name": "classify"}
        )
        assert key != base_key
        assert source == "warm"
        assert compiled.spliced_from == base_key
        assert 0.0 < compiled.impact_fraction < 1.0
        assert store.stats.warm_compiles == 1
        # Byte-equivalent encoding: a store with no ancestor compiles the
        # same program cold and lands on the same CNF signature.
        cold_store = ArtifactStore()
        _, cold, cold_source = cold_store.get_or_compile(
            CLASSIFY_FIXED, {"name": "classify"}
        )
        assert cold_source == "compiled"
        assert cold.signature == compiled.signature
        assert cold.num_clauses == compiled.num_clauses

    def test_explicit_base_artifact_hint(self):
        store = ArtifactStore()
        base_key, _, _ = store.get_or_compile(CLASSIFY, {"name": "classify"})
        _, compiled, source = store.get_or_compile(
            CLASSIFY_FIXED, {"name": "classify"}, base_artifact=base_key
        )
        assert source == "warm"
        assert compiled.spliced_from == base_key

    def test_unknown_hint_falls_back_to_cold(self):
        store = ArtifactStore()
        store.get_or_compile(CLASSIFY, {"name": "classify"})
        _, compiled, source = store.get_or_compile(
            CLASSIFY_FIXED, {"name": "classify"}, base_artifact="no-such-key"
        )
        assert source == "compiled"
        assert compiled.spliced_from is None

    def test_dissimilar_program_compiles_cold(self):
        store = ArtifactStore()
        store.get_or_compile(CLASSIFY, {"name": "classify"})
        _, compiled, source = store.get_or_compile(OTHER, {"name": "other"})
        assert source == "compiled"
        assert store.stats.warm_compiles == 0

    def test_option_mismatch_is_not_a_splice_base(self):
        store = ArtifactStore()
        store.get_or_compile(CLASSIFY, {"name": "classify", "unwind": 8})
        _, compiled, source = store.get_or_compile(
            CLASSIFY_FIXED, {"name": "classify", "unwind": 16}
        )
        assert source == "compiled"
        assert compiled.spliced_from is None

    def test_decline_stats_distinguish_early(self, monkeypatch):
        """A declined splice is counted, split by early (precondition) vs
        late (mid-replay); both fields travel through ``as_dict``."""
        import repro.bmc.splice as splice_mod

        store = ArtifactStore()
        store.get_or_compile(CLASSIFY, {"name": "classify"})

        def abort(self, *args, **kwargs):
            raise splice_mod.SpliceDecline

        monkeypatch.setattr(splice_mod._Replay, "run", abort)
        _, compiled, source = store.get_or_compile(
            CLASSIFY_FIXED, {"name": "classify"}
        )
        assert source == "compiled"
        assert compiled.spliced_from is None
        assert store.stats.splice_declines == 1
        assert store.stats.splice_declined_early == 0
        stats = store.stats.as_dict()
        assert stats["splice_declines"] == 1
        assert stats["splice_declined_early"] == 0

    def test_evicted_memory_only_base_is_unindexed(self):
        store = ArtifactStore(root=None, max_memory_entries=1)
        store.get_or_compile(CLASSIFY, {"name": "classify"})
        store.get_or_compile(OTHER, {"name": "other"})  # evicts the base
        _, _, source = store.get_or_compile(CLASSIFY_FIXED, {"name": "classify"})
        assert source == "compiled"

    def test_spilled_base_survives_eviction_as_ancestor(self, tmp_path):
        store = ArtifactStore(root=tmp_path, max_memory_entries=1)
        base_key, _, _ = store.get_or_compile(CLASSIFY, {"name": "classify"})
        store.get_or_compile(OTHER, {"name": "other"})  # evicts to disk
        _, compiled, source = store.get_or_compile(
            CLASSIFY_FIXED, {"name": "classify"}
        )
        assert source == "warm"
        assert compiled.spliced_from == base_key


class TestResultCache:
    def test_lru_bound_and_stats(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}
        cache.put("c", {"v": 3})  # evicts "b" (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert len(cache) == 2
        stats = cache.as_dict()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_disabled_cache(self):
        cache = ResultCache(max_entries=0)
        cache.put("a", {"v": 1})
        assert cache.get("a") is None


# ----------------------------------------------------------------- protocol


class TestFraming:
    def test_pack_and_decode_round_trip(self):
        payload = {"op": "stats", "value": [1, 2, 3]}
        frame = protocol.pack_frame(payload)
        length = protocol.frame_length(frame[:4])
        assert protocol.decode_body(frame[4 : 4 + length]) == payload

    def test_header_validation(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_length(b"\x00\x00")  # short header
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_length(struct.pack("!I", 0))  # zero length
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_length(struct.pack("!I", protocol.MAX_FRAME_BYTES + 1))

    def test_body_validation(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"\xff\xfe garbage")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"[1, 2, 3]")  # JSON, but not an object

    def test_spec_codec(self):
        spec = Specification.return_value(-1)
        assert protocol.spec_from_wire(protocol.spec_to_wire(spec)) == spec
        with pytest.raises(protocol.ProtocolError):
            protocol.spec_from_wire({"kind": "telepathy"})

    def test_test_codec(self):
        assert protocol.test_from_wire([1, 2]) == [1, 2]
        assert protocol.test_from_wire({"x": 3}) == {"x": 3}
        with pytest.raises(protocol.ProtocolError):
            protocol.test_from_wire("nope")


# ------------------------------------------------------------------- daemon


@pytest.fixture(scope="module")
def daemon():
    with ServerThread(workers=2, max_sessions_per_worker=4) as handle:
        with Client(tcp=handle.tcp_address) as probe:
            probe.wait_until_ready()
        yield handle


class TestDaemon:
    def test_reports_byte_identical_to_in_process_session(self, daemon):
        failing = classify_failing_tests()
        with Client(tcp=daemon.tcp_address) as client:
            reply = client.localize_batch(
                [
                    {
                        "program": CLASSIFY,
                        "options": {"name": "classify", "max_candidates": 25},
                        "tests": [
                            {"inputs": inputs, "spec": spec}
                            for inputs, spec in failing
                        ],
                    }
                ]
            )
        result = reply["results"][0]
        program = parse_program(CLASSIFY, name="classify")
        with LocalizationSession(program) as session:
            baseline = [session.localize(inputs, spec) for inputs, spec in failing]
            ranked = [
                [line, count]
                for line, count in LocalizationSession.from_compiled(
                    session.compiled
                ).localize_batch(failing).ranked_lines
            ]
        for wire, mine in zip(result["reports"], baseline):
            assert canonical_report_bytes(wire) == canonical_report_bytes(mine)
        assert result["ranked_lines"] == ranked

    def test_compile_exactly_once_across_clients(self, daemon):
        before = daemon.server.store.stats.compiles
        for _ in range(2):
            with Client(tcp=daemon.tcp_address) as client:
                compiled = client.compile(OTHER, name="other-once")
                client.localize(
                    test=[1],
                    spec={"kind": "return-value", "expected": [2]},
                    artifact=compiled["artifact"],
                )
        assert daemon.server.store.stats.compiles == before + 1

    def test_repeated_request_replays_from_result_cache(self, daemon):
        with Client(tcp=daemon.tcp_address) as client:
            first = client.localize(
                test=[8], spec=SPEC_ZERO, program=CLASSIFY,
                options={"name": "classify-cache"},
            )
            hits_before = daemon.server.result_cache.hits
            second = client.localize(
                test=[8], spec=SPEC_ZERO, program=CLASSIFY,
                options={"name": "classify-cache"},
            )
        assert second["report"] == first["report"]
        assert daemon.server.result_cache.hits == hits_before + 1

    def test_worker_death_is_retried_transparently(self, daemon):
        pool = daemon.server.pool
        restarts_before = pool.stats.worker_restarts
        pool.kill_worker(0)
        pool.kill_worker(1)
        with Client(tcp=daemon.tcp_address) as client:
            reply = client.localize(
                test=[9], spec=SPEC_ZERO, program=CLASSIFY,
                options={"name": "classify-chaos"},
            )
        assert reply["report"]["lines"]
        assert pool.stats.worker_restarts > restarts_before

    def test_worker_sessions_are_bounded_and_warm(self, daemon):
        # Push more program versions than the per-worker session bound; the
        # worker must report a bounded session count, evictions, and zero
        # encodings built (sessions only ever adopt store artifacts).
        with Client(tcp=daemon.tcp_address) as client:
            for index in range(6):
                source = OTHER.replace("x + 1", f"x + {index + 2}")
                client.localize(
                    test=[0],
                    spec={"kind": "return-value", "expected": [index + 2]},
                    program=source,
                    options={"name": f"variant-{index}"},
                )
        reports = daemon.server.pool.stats.worker_reports
        assert reports
        for report in reports.values():
            assert report["sessions"] <= 4
            assert report["encodings_built"] == 0

    def test_errors_are_answered_not_fatal(self, daemon):
        with Client(tcp=daemon.tcp_address) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.request({"op": "transmogrify"})
            with pytest.raises(ServeError, match="unknown artifact"):
                client.localize(test=[1], spec=SPEC_ZERO, artifact="f" * 64)
            with pytest.raises(ServeError, match="ParseError|error"):
                client.compile("int main( {")
            # A wrong-arity test among good ones: the error names that test.
            tests = [
                {"inputs": [8], "spec": SPEC_ZERO},
                {"inputs": [1, 2, 3], "spec": SPEC_ZERO},
                {"inputs": [9], "spec": SPEC_ZERO},
            ]
            with pytest.raises(ServeError) as excinfo:
                client.localize_batch(
                    [
                        {
                            "program": CLASSIFY,
                            "options": {"name": "classify-poisoned"},
                            "tests": tests,
                        }
                    ]
                )
            assert "[1, 2, 3]" in str(excinfo.value)
            assert "ValueError" in str(excinfo.value)
            # The daemon is still healthy.
            assert client.stats()["ok"] is True

    def test_framing_fuzz_never_kills_the_daemon(self, daemon):
        host, port = daemon.tcp_address
        attacks = [
            b"\x00\x00",                                      # truncated header
            struct.pack("!I", 0),                             # zero-length frame
            struct.pack("!I", protocol.MAX_FRAME_BYTES + 7),  # oversized claim
            b"\xde\xad\xbe\xef" + b"\x00" * 64,               # garbage header+body
            struct.pack("!I", 9) + b"not json!",              # invalid JSON body
            struct.pack("!I", 40) + b'{"op": "stats"}',       # length > body, hang up
        ]
        for attack in attacks:
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(attack)
                sock.shutdown(socket.SHUT_WR)
                # Drain whatever the daemon answers (an error frame or a
                # clean close); the connection must terminate either way.
                while sock.recv(4096):
                    pass
        # After the whole barrage the daemon still serves real clients.
        with Client(tcp=daemon.tcp_address) as client:
            reply = client.localize(
                test=[10], spec=SPEC_ZERO, program=CLASSIFY,
                options={"name": "classify-after-fuzz"},
            )
        assert reply["report"]["lines"]

    def test_stats_surface(self, daemon):
        with Client(tcp=daemon.tcp_address) as client:
            stats = client.stats()
        assert stats["server"]["requests_served"] > 0
        assert set(stats["store"]) >= {"compiles", "hit_rate", "corrupt_recovered"}
        assert set(stats["pool"]) >= {"shards_dispatched", "worker_restarts"}


class TestStoreConcurrency:
    def test_concurrent_requests_compile_single_flight(self, tmp_path):
        import threading

        store = ArtifactStore(root=tmp_path)
        results = []
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait()
            results.append(store.get_or_compile(CLASSIFY, {"name": "single-flight"}))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stats.compiles == 1
        assert len({key for key, _, _ in results}) == 1
        assert sum(1 for _, _, source in results if source == "compiled") == 1


class TestWorkerWatchdog:
    def test_unresponsive_worker_is_killed_and_shard_fails_cleanly(self, tmp_path):
        from repro.serve.workers import Job, ServeShardError, WorkerPool
        from repro.bmc import dumps_artifact

        store = ArtifactStore(root=tmp_path)
        key, compiled, _ = store.get_or_compile(CLASSIFY, {"name": "watchdog"})
        blob = dumps_artifact(compiled)
        job = Job(
            artifact_key=key,
            artifact_bytes=lambda: blob,
            session_options={"max_candidates": 3},
            tests=[((0, 0), [8], Specification.return_value(0), ())],
        )
        # A timeout far below any real localization: the watchdog must
        # declare the worker wedged, kill it, retry once on a respawned
        # worker, and surface a clean ServeShardError — never hang.
        pool = WorkerPool(workers=1, shard_timeout=0.001)
        try:
            with pytest.raises(ServeShardError, match="no reply|died twice"):
                pool.run_jobs([job])
            assert pool.stats.worker_restarts >= 1
        finally:
            pool.stop()


class TestScheduling:
    def test_shard_size_bound_is_honoured(self):
        from repro.serve.workers import Job, WorkerPool

        pool = WorkerPool(workers=2, max_tests_per_shard=8)
        job = Job(
            artifact_key="k",
            artifact_bytes=lambda: b"",
            session_options={},
            tests=[(i, [i], None, ()) for i in range(20)],
        )
        sizes = [len(shard.tests) for shard in pool._make_shards([job])]
        # The shard is the retry/watchdog unit: its size must respect the
        # bound even when the job would fit in fewer, larger shards.
        assert sizes == [8, 8, 4]

    def test_batch_larger_than_memory_store_still_succeeds(self):
        # Jobs hold a strong reference to their artifact, so a memory-only
        # store whose LRU is smaller than one batch cannot lose an earlier
        # entry's artifact to eviction while the batch is still running.
        with ServerThread(
            workers=1, store=ArtifactStore(root=None, max_memory_entries=2)
        ) as handle:
            with Client(tcp=handle.tcp_address) as client:
                client.wait_until_ready()
                entries = []
                for index in range(4):
                    source = OTHER.replace("x + 1", f"x + {index + 10}")
                    entries.append(
                        {
                            "program": source,
                            "options": {"name": f"evict-{index}"},
                            "tests": [
                                {
                                    "inputs": [0],
                                    "spec": {
                                        "kind": "return-value",
                                        "expected": [index + 10],
                                    },
                                }
                            ],
                        }
                    )
                reply = client.localize_batch(entries)
        assert len(reply["results"]) == 4
        assert handle.server.store.stats.evictions >= 1


class TestDaemonLifecycle:
    def test_bind_failure_does_not_leak_workers(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        handle = ServerThread(tcp=("127.0.0.1", port), workers=1)
        try:
            with pytest.raises(RuntimeError):
                handle.start()
            # The pre-forked pool was torn down with the failed bind.
            assert handle.server.pool.worker_pids() == []
        finally:
            blocker.close()
            handle.stop()

    def test_unix_socket_and_shutdown(self, tmp_path):
        path = tmp_path / "serve.sock"
        with ServerThread(tcp=None, unix_path=path, workers=1) as handle:
            with Client(unix_path=path) as client:
                client.wait_until_ready()
                reply = client.localize(
                    test=[1], spec={"kind": "return-value", "expected": [2]},
                    program=OTHER, options={"name": "unix-other"},
                )
                assert reply["ok"]
                assert client.shutdown()["stopping"]
        assert not path.exists()


# ------------------------------------------------- compile-time diagnostics


WARNY = (
    "int main(int x) {\n"
    "    int total;\n"
    "    int sum = total + x;\n"
    "    return sum;\n"
    "}\n"
)

REJECTED = (
    "int main(int x) {\n"
    "    int zero = 0;\n"
    "    return x / zero;\n"
    "}\n"
)


class TestCompileDiagnostics:
    def test_compile_response_carries_diagnostics(self, daemon):
        with Client(tcp=daemon.tcp_address) as client:
            reply = client.compile(WARNY, name="warny")
        assert reply["ok"]
        codes = {d["code"] for d in reply["diagnostics"]}
        assert "uninitialized-read" in codes
        assert all(isinstance(d["line"], int) for d in reply["diagnostics"])
        assert "pruned_lines" in reply and "narrowed_vars" in reply

    def test_clean_program_has_empty_diagnostics(self, daemon):
        with Client(tcp=daemon.tcp_address) as client:
            reply = client.compile(CLASSIFY, name="classify-diag")
        assert reply["ok"]
        assert reply["diagnostics"] == []

    def test_error_program_is_rejected_with_structure(self, daemon):
        host, port = daemon.tcp_address
        with socket.create_connection((host, port), timeout=10) as sock:
            protocol.send_frame(
                sock,
                {"op": "compile", "program": REJECTED, "options": {"name": "bad"}},
            )
            response = protocol.recv_frame(sock)
        assert response["ok"] is False
        assert response["error_kind"] == "rejected"
        assert "rejected" in response["error"]
        codes = {d["code"] for d in response["diagnostics"]}
        assert codes == {"const-div-by-zero"}
        assert response["diagnostics"][0]["line"] == 3
        # The daemon is healthy and the artifact was never stored.
        with Client(tcp=daemon.tcp_address) as client:
            assert client.stats()["ok"] is True

    def test_parse_error_is_rejected_with_structure(self, daemon):
        host, port = daemon.tcp_address
        with socket.create_connection((host, port), timeout=10) as sock:
            protocol.send_frame(
                sock, {"op": "compile", "program": "int main( {", "options": {}}
            )
            response = protocol.recv_frame(sock)
        assert response["ok"] is False
        assert response["error_kind"] == "rejected"
        assert response["diagnostics"][0]["severity"] == "error"



class TestOptionChecks:
    @pytest.mark.parametrize(
        "name", ["warm_start", "static_pruning", "analysis_narrowing", "simplify"]
    )
    def test_retired_option_is_unknown(self, daemon, name):
        with Client(tcp=daemon.tcp_address) as client:
            with pytest.raises(ServeError, match=f"unknown compile option '{name}'"):
                client.localize(
                    test=[8], spec=SPEC_ZERO, program=CLASSIFY, options={name: True}
                )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("hard_functions", "main"),
            ("hard_functions", ["main", 1]),
            ("hard_lines", "12"),
            ("hard_lines", [3, "4"]),
            ("hard_lines", [True]),
            ("unwind", "16"),
            ("unwind", True),
            ("unwind", 0),
            ("width", "8"),
            ("width", -1),
            ("max_candidates", "3"),
            ("max_candidates", False),
        ],
    )
    def test_ill_typed_option_is_refused_by_name(self, daemon, name, value):
        with Client(tcp=daemon.tcp_address) as client:
            with pytest.raises(ServeError, match=f"ValueError: option '{name}'"):
                client.localize(
                    test=[8],
                    spec=SPEC_ZERO,
                    program=CLASSIFY,
                    options={"name": "classify-typed", name: value},
                )
            with pytest.raises(ServeError, match=f"ValueError: option '{name}'"):
                client.compile(CLASSIFY, options={name: value})
            # The daemon is still healthy.
            assert client.stats()["ok"] is True

    def test_well_typed_options_still_compile_and_localize(self, daemon):
        with Client(tcp=daemon.tcp_address) as client:
            reply = client.localize(
                test=[8],
                spec=SPEC_ZERO,
                program=CLASSIFY,
                options={
                    "name": "classify-typed",
                    "hard_functions": ["main"],
                    "hard_lines": [3],
                    "unwind": 4,
                    "width": 8,
                    "max_candidates": 3,
                },
            )
        assert reply["report"]["lines"]
        assert 3 not in reply["report"]["lines"]


# ------------------------------------------------------ inbound frame bound


class TestInboundFrameBound:
    def test_oversized_frame_gets_structured_error_and_drop(self):
        with ServerThread(workers=1, max_frame_bytes=4096) as handle:
            host, port = handle.tcp_address
            with Client(tcp=(host, port)) as client:
                client.wait_until_ready()
            with socket.create_connection((host, port), timeout=10) as sock:
                payload = json.dumps(
                    {"op": "compile", "program": "x" * 8192}
                ).encode()
                sock.sendall(struct.pack("!I", len(payload)) + payload)
                response = protocol.recv_frame(sock)
                assert response["ok"] is False
                assert response["error_kind"] == "protocol"
                assert "exceeds" in response["error"]
                # Only this connection is dropped: EOF follows the error.
                assert sock.recv(4096) == b""
            # Compliant clients on new connections are unaffected.
            with Client(tcp=(host, port)) as client:
                reply = client.compile(OTHER, name="after-oversize")
                assert reply["ok"]

    def test_bound_does_not_limit_responses(self):
        # A server with a tiny inbound bound can still answer with frames
        # bigger than that bound (response packing uses the protocol cap).
        with ServerThread(workers=1, max_frame_bytes=512) as handle:
            host, port = handle.tcp_address
            with socket.create_connection((host, port), timeout=10) as sock:
                protocol.send_frame(sock, {"op": "stats"})
                response = protocol.recv_frame(sock)
            assert response["ok"] is True

    def test_fuzz_small_bound_server_survives(self):
        import random

        rng = random.Random(20260807)
        with ServerThread(workers=1, max_frame_bytes=1024) as handle:
            host, port = handle.tcp_address
            for _ in range(25):
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
                with socket.create_connection((host, port), timeout=10) as sock:
                    sock.sendall(blob)
                    sock.shutdown(socket.SHUT_WR)
                    while sock.recv(4096):
                        pass
            with Client(tcp=(host, port)) as client:
                assert client.stats()["ok"] is True

    def test_nonpositive_bound_rejected(self):
        from repro.serve.server import LocalizationServer

        with pytest.raises(ValueError):
            LocalizationServer(max_frame_bytes=0)
