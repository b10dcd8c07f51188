"""The localization daemon: an asyncio front end over store + worker pool.

One :class:`LocalizationServer` listens on a unix socket, a TCP socket, or
both, speaking the length-prefixed JSON protocol of
:mod:`repro.serve.protocol`.  Requests flow store-first: ``compile`` and
the compile-on-demand of ``localize``/``localize_batch`` resolve through
the content-addressed :class:`~repro.serve.store.ArtifactStore` (so each
distinct program version compiles exactly once, whoever asks), repeated
localizations replay from the :class:`~repro.serve.store.ResultCache`, and
everything else is sharded over the warm-session
:class:`~repro.serve.workers.WorkerPool`.

Localization work is CPU-bound and runs on the pool's worker processes;
the event loop only parses frames and waits, so many clients can be
connected while batches run.  A malformed frame gets an error response
(when the stream is still writable) and costs that client its connection —
never the daemon.

:class:`ServerThread` runs the whole daemon inside a host process (tests,
benchmarks, notebook use) with the same code path as ``python -m
repro.serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Mapping, Optional

from repro import obs
from repro.lang.diagnostics import diagnostics_to_wire
from repro.serve import protocol
from repro.serve.store import (
    ArtifactStore,
    CompileRejectedError,
    ResultCache,
    check_positive_int,
    checked_sorted_list,
    normalize_compile_options,
)
from repro.serve.workers import Job, ServeShardError, WorkerPool

#: Session-level options accepted per request (never part of the artifact
#: key — they shape the MaxSAT run, not the compiled encoding).
SESSION_OPTION_DEFAULTS: dict[str, object] = {
    "strategy": "hitting-set",
    "max_candidates": 25,
    "hard_lines": (),
}


def _split_options(options: Optional[Mapping[str, Any]]) -> tuple[dict, dict]:
    """Partition a request's options into normalized compile-level and
    session-level sets; an unknown or ill-typed option raises ValueError."""
    compile_options: dict[str, Any] = {}
    session_options = dict(SESSION_OPTION_DEFAULTS)
    for name, value in (options or {}).items():
        if name in SESSION_OPTION_DEFAULTS:
            session_options[name] = value
        else:
            compile_options[name] = value
    check_positive_int("max_candidates", session_options["max_candidates"])
    session_options["hard_lines"] = checked_sorted_list(
        "hard_lines", session_options["hard_lines"], int
    )
    return normalize_compile_options(compile_options), session_options


def _reject_retired_fields(request: Mapping[str, Any]) -> None:
    """Refuse, by name, a request field the daemon no longer honours rather
    than serve the request as if the field were absent."""
    if "base_artifact" in request:
        raise ValueError(
            "request field 'base_artifact' is no longer supported; "
            "every compile is cold"
        )


class LocalizationServer:
    """The daemon: artifact store + result cache + worker pool + sockets."""

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        pool: Optional[WorkerPool] = None,
        workers: int = 2,
        max_sessions_per_worker: int = 8,
        result_cache_entries: int = 1024,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        #: Inbound frame-size bound: a client sending a larger (or garbage)
        #: length prefix gets a structured error and loses only its own
        #: connection.  Outbound responses keep the protocol-wide bound.
        self.max_frame_bytes = min(max_frame_bytes, protocol.MAX_FRAME_BYTES)
        self.store = store if store is not None else ArtifactStore()
        self.pool = pool if pool is not None else WorkerPool(
            workers=workers, max_sessions_per_worker=max_sessions_per_worker
        )
        self.result_cache = ResultCache(result_cache_entries)
        self.requests_served = 0
        self.localizations_served = 0
        self.protocol_errors = 0
        self.started_at = time.time()
        #: Windowed-delta state of the ``stats`` op: a monotonically
        #: increasing poll sequence number plus the counter values seen at
        #: the previous poll, so two consecutive polls yield rates without
        #: any client-side bookkeeping.  Mutated only inside the ``stats``
        #: handler, which runs on the event loop — naturally serialized.
        self._stats_seq = 0
        self._stats_prev: tuple[float, dict] = (time.monotonic(), {})
        self._servers: list[asyncio.AbstractServer] = []
        self._unix_path: Optional[Path] = None
        self._tcp_address: Optional[tuple[str, int]] = None
        self._shutdown = asyncio.Event()
        #: Localization batches run here so the event loop stays responsive;
        #: sized to the worker count because that is the real parallelism.
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.pool.num_workers),
            thread_name_prefix="repro-serve-request",
        )

    # -------------------------------------------------------------- lifecycle

    @property
    def tcp_address(self) -> Optional[tuple[str, int]]:
        """The bound (host, port) once started with TCP enabled."""
        return self._tcp_address

    @property
    def unix_path(self) -> Optional[Path]:
        return self._unix_path

    async def start(
        self,
        tcp: Optional[tuple[str, int]] = ("127.0.0.1", 0),
        unix_path: Optional[Path | str] = None,
    ) -> "LocalizationServer":
        """Bind the requested sockets (port 0 picks an ephemeral port)."""
        if tcp is None and unix_path is None:
            raise ValueError("need at least one of tcp or unix_path")
        self.pool.start()
        try:
            if tcp is not None:
                host, port = tcp
                server = await asyncio.start_server(self._handle_connection, host, port)
                self._servers.append(server)
                bound = server.sockets[0].getsockname()
                self._tcp_address = (bound[0], bound[1])
            if unix_path is not None:
                path = Path(unix_path)
                path.unlink(missing_ok=True)
                server = await asyncio.start_unix_server(
                    self._handle_connection, str(path)
                )
                self._servers.append(server)
                self._unix_path = path
        except Exception:
            # A failed bind (port in use, bad socket path) must not leak
            # the pre-forked workers or the request executor into the host.
            await self.aclose()
            raise
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`shutdown`) arrives."""
        await self._shutdown.wait()
        await self.aclose()

    def shutdown(self) -> None:
        self._shutdown.set()

    async def aclose(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        if self._unix_path is not None:
            self._unix_path.unlink(missing_ok=True)
        self._executor.shutdown(wait=False)
        self.pool.stop()

    # ------------------------------------------------------------ connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await protocol.read_frame(
                        reader, max_bytes=self.max_frame_bytes
                    )
                except protocol.ProtocolError as exc:
                    # Malformed framing: tell the client if the stream is
                    # still writable, then drop the connection.  The daemon
                    # itself is unaffected.
                    self.protocol_errors += 1
                    with contextlib.suppress(Exception):
                        await protocol.write_frame(
                            writer,
                            {
                                "ok": False,
                                "error": f"protocol error: {exc}",
                                "error_kind": "protocol",
                            },
                        )
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                try:
                    await protocol.write_frame(writer, response)
                except protocol.ProtocolError as exc:
                    # The assembled response overflowed the frame bound
                    # (e.g. a gigantic batch): answer with a small error
                    # frame rather than silently dropping the connection.
                    self.protocol_errors += 1
                    await protocol.write_frame(
                        writer,
                        {"ok": False, "error": f"response too large to frame: {exc}"},
                    )
                if request.get("op") == "shutdown":
                    break
        except asyncio.CancelledError:
            # Loop teardown cancels connections parked in read_frame; the
            # client sees a clean close, the log stays quiet.
            pass
        finally:
            # CancelledError too: loop teardown cancels the handler again
            # while it awaits wait_closed, and letting that escape logs an
            # unhandled-exception callback on every shutdown.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: Mapping[str, Any]) -> dict:
        self.requests_served += 1
        op = request.get("op")
        handlers = {
            "compile": self._op_compile,
            "localize": self._op_localize,
            "localize_batch": self._op_localize_batch,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
        }
        handler = handlers.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        # One trace per request, minted here (or adopted from the client's
        # optional ``trace_id`` field — only when well-formed: the id names
        # the export file, so an unchecked wire string is a path-injection
        # surface).  Explicitly finished, never bound to the event-loop
        # thread: interleaved awaits of concurrent requests would corrupt
        # any thread-local nesting.
        wire_trace_id = request.get(protocol.TRACE_FIELD)
        request_trace = obs.start_request_trace(
            f"serve.{op}",
            trace_id=wire_trace_id if obs.valid_trace_id(wire_trace_id) else None,
            op=op,
        )
        response: Optional[dict] = None
        try:
            try:
                response = await handler(request, request_trace.ctx)
            except CompileRejectedError as exc:
                # The program itself is bad (parse/type error, or the static
                # analyzer proved a hard error): a structured rejection, not a
                # worker traceback.
                response = {
                    "ok": False,
                    "error": str(exc),
                    "error_kind": "rejected",
                    "diagnostics": diagnostics_to_wire(exc.diagnostics),
                }
            except (protocol.ProtocolError, ValueError, KeyError, TypeError) as exc:
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            except ServeShardError as exc:
                response = {"ok": False, "error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - the daemon must outlive any request
                response = {
                    "ok": False,
                    "error": f"internal error: {type(exc).__name__}: {exc}",
                }
        finally:
            # Must run even on CancelledError (client disconnect, server
            # shutdown): finish() unregisters the trace's collector from
            # the process-global registry — skipping it leaks one entry
            # per cancelled request for the life of the daemon.
            if response is not None:
                request_trace.set(ok=bool(response.get("ok")))
            request_trace.finish()
        response[protocol.TRACE_FIELD] = request_trace.trace_id
        if request_trace.export_path is not None:
            response["trace_path"] = request_trace.export_path
        registry = obs.REGISTRY
        registry.counter(
            "repro_serve_requests", "Requests dispatched", labels={"op": str(op)}
        ).inc()
        if not response.get("ok"):
            registry.counter(
                "repro_serve_errors", "Requests answered with ok=false"
            ).inc()
        registry.histogram(
            "repro_serve_request_seconds", "Request latency at the frontend"
        ).observe(request_trace.duration)
        return response

    # ---------------------------------------------------------------- compile

    def _resolve_artifact(
        self, request: Mapping[str, Any], compile_options: Mapping[str, Any]
    ) -> tuple[str, "object"]:
        """Resolve a request to its artifact, compiling on a full miss.

        Accepts ``program`` (source text, content-addressed) or ``artifact``
        (a key from an earlier ``compile``).  Returns ``(key, compiled)`` —
        the live object, so batch jobs keep a strong reference and cannot
        lose their artifact to an LRU eviction racing the batch (a
        memory-only store admits later entries of the same batch, which may
        evict earlier ones before their shards are serialized).
        """
        _reject_retired_fields(request)
        if "program" in request:
            key, compiled, _ = self.store.get_or_compile(
                str(request["program"]), compile_options
            )
            return key, compiled
        key = request.get("artifact")
        if not isinstance(key, str):
            raise ValueError("request needs either 'program' text or an 'artifact' key")
        compiled = self.store.get(key)
        if compiled is None:
            raise KeyError(
                f"unknown artifact {key[:12]}…; compile it first or send program text"
            )
        return key, compiled

    async def _op_compile(
        self, request: Mapping[str, Any], trace_ctx: Optional[tuple] = None
    ) -> dict:
        if "program" not in request:
            raise ValueError("compile needs 'program' source text")
        _reject_retired_fields(request)
        compile_options, _ = _split_options(request.get("options"))
        loop = asyncio.get_running_loop()

        def compile_bound():
            with obs.bind_trace(trace_ctx):
                return self.store.get_or_compile(
                    str(request["program"]), compile_options
                )

        key, compiled, source = await loop.run_in_executor(
            self._executor, compile_bound
        )
        return {
            "ok": True,
            "artifact": key,
            "cached": source in ("memory", "disk"),
            "source": source,
            "program_name": compiled.program_name,
            "num_vars": compiled.num_vars,
            "num_clauses": compiled.num_clauses,
            "signature": compiled.signature,
            "diagnostics": diagnostics_to_wire(compiled.diagnostics),
            "pruned_lines": list(compiled.pruned_lines),
            "narrowed_vars": compiled.narrowed_vars,
        }

    # --------------------------------------------------------------- localize

    def _result_key(
        self, artifact: str, session_options: Mapping[str, Any], test: Mapping[str, Any]
    ) -> str:
        return json.dumps(
            {
                "artifact": artifact,
                "options": dict(session_options),
                "inputs": test.get("inputs"),
                "spec": test.get("spec"),
                "nondet": list(test.get("nondet", ())),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def _decode_test(self, test: Mapping[str, Any]) -> tuple:
        inputs = protocol.test_from_wire(test["inputs"])
        spec = protocol.spec_from_wire(test["spec"])
        nondet = tuple(int(v) for v in test.get("nondet", ()))
        return inputs, spec, nondet

    async def _op_localize(
        self, request: Mapping[str, Any], trace_ctx: Optional[tuple] = None
    ) -> dict:
        _reject_retired_fields(request)
        entry = {
            k: request[k]
            for k in ("program", "artifact", "options")
            if k in request
        }
        entry["tests"] = [
            {
                "inputs": request["test"],
                "spec": request["spec"],
                "nondet": request.get("nondet", []),
            }
        ]
        batch = await self._run_batch([entry], trace_ctx)
        result = batch[0]
        return {
            "ok": True,
            "artifact": result["artifact"],
            "report": result["reports"][0],
        }

    async def _op_localize_batch(
        self, request: Mapping[str, Any], trace_ctx: Optional[tuple] = None
    ) -> dict:
        entries = request.get("requests")
        if not isinstance(entries, list) or not entries:
            raise ValueError("localize_batch needs a non-empty 'requests' list")
        results = await self._run_batch(entries, trace_ctx)
        return {"ok": True, "results": results}

    async def _run_batch(
        self, entries: list, trace_ctx: Optional[tuple] = None
    ) -> list[dict]:
        """Resolve artifacts, split cached/uncached, shard the rest.

        Tests are batched by version: all uncached tests that target one
        artifact form one :class:`~repro.serve.workers.Job` regardless of
        which request entry they came from, so the scheduler sees the
        "many tests, few programs" shape directly.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._run_batch_sync, entries, trace_ctx
        )

    def _run_batch_sync(
        self, entries: list, trace_ctx: Optional[tuple] = None
    ) -> list[dict]:
        # One request per executor thread at a time, so binding the
        # request's trace context thread-locally here is safe — compiles
        # and job dispatch below record under the request's root span.
        with obs.bind_trace(trace_ctx):
            return self._run_batch_traced(entries, trace_ctx)

    def _run_batch_traced(
        self, entries: list, trace_ctx: Optional[tuple]
    ) -> list[dict]:
        # Per entry: resolve artifact + options, decode tests.
        resolved: list[dict] = []
        jobs: dict[tuple, Job] = {}
        wire_reports: dict[tuple[int, int], dict] = {}
        for entry_index, entry in enumerate(entries):
            compile_options, session_options = _split_options(entry.get("options"))
            artifact, compiled = self._resolve_artifact(entry, compile_options)
            tests = entry.get("tests")
            if not isinstance(tests, list) or not tests:
                raise ValueError("each batch entry needs a non-empty 'tests' list")
            resolved.append(
                {"artifact": artifact, "session_options": session_options, "tests": tests}
            )
            job_key = (
                artifact,
                json.dumps(session_options, sort_keys=True, separators=(",", ":")),
            )
            for test_index, test in enumerate(tests):
                request_id = (entry_index, test_index)
                cache_key = self._result_key(artifact, session_options, test)
                cached = self.result_cache.get(cache_key)
                if cached is not None:
                    wire_reports[request_id] = cached
                    continue
                inputs, spec, nondet = self._decode_test(test)
                job = jobs.get(job_key)
                if job is None:
                    job = Job(
                        artifact_key=artifact,
                        artifact_bytes=_serializer(compiled),
                        session_options=session_options,
                        tests=[],
                        trace_ctx=trace_ctx,
                    )
                    jobs[job_key] = job
                job.tests.append((request_id, inputs, spec, nondet))
        if jobs:
            reports = self.pool.run_jobs(list(jobs.values()))
            for request_id, report in reports.items():
                wire = protocol.report_to_wire(report)
                entry_index, test_index = request_id
                info = resolved[entry_index]
                cache_key = self._result_key(
                    info["artifact"],
                    info["session_options"],
                    info["tests"][test_index],
                )
                self.result_cache.put(cache_key, wire)
                wire_reports[request_id] = wire
        # Assemble per-entry responses in input order; ranked lines are
        # recomputed from the wire reports so cached and fresh runs merge
        # identically.
        results: list[dict] = []
        for entry_index, info in enumerate(resolved):
            entry_reports = [
                wire_reports[(entry_index, test_index)]
                for test_index in range(len(info["tests"]))
            ]
            self.localizations_served += len(entry_reports)
            results.append(
                {
                    "artifact": info["artifact"],
                    "reports": entry_reports,
                    "ranked_lines": _rank_wire_reports(entry_reports),
                }
            )
        return results

    # ------------------------------------------------------------------ stats

    async def _op_stats(
        self, request: Mapping[str, Any], trace_ctx: Optional[tuple] = None
    ) -> dict:
        from repro.encoding import encode_backend

        response = {
            "ok": True,
            "server": {
                "requests_served": self.requests_served,
                "localizations_served": self.localizations_served,
                "protocol_errors": self.protocol_errors,
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "encode_backend": encode_backend(),
            },
            "store": self.store.stats.as_dict(),
            "result_cache": self.result_cache.as_dict(),
            "pool": self.pool.stats.as_dict(),
        }
        # Windowed deltas: cumulative counters alone force every client to
        # keep its own previous sample to compute a rate.  Each poll gets a
        # monotonic ``snapshot_seq`` and the counter deltas since the
        # previous poll (the first window spans from server start), so two
        # consecutive polls — by whoever — always describe a closed window.
        now = time.monotonic()
        current = _flatten_counters(response)
        prev_time, prev_counters = self._stats_prev
        self._stats_seq += 1
        self._stats_prev = (now, current)
        response["snapshot_seq"] = self._stats_seq
        response["window"] = {
            "seconds": round(now - prev_time, 6),
            "deltas": {
                key: value - prev_counters.get(key, 0)
                for key, value in current.items()
            },
        }
        return response

    async def _op_metrics(
        self, request: Mapping[str, Any], trace_ctx: Optional[tuple] = None
    ) -> dict:
        """The process metrics in Prometheus text exposition format.

        The span-fed histograms and solver counters accumulate in
        :data:`repro.obs.REGISTRY` as requests run; the store/cache/pool
        snapshot counters are folded in as gauges at scrape time, so one
        scrape sees every layer under one naming scheme.
        """
        registry = obs.REGISTRY
        stats_sources = {
            "store": self.store.stats.as_dict(),
            "result_cache": self.result_cache.as_dict(),
            "pool": self.pool.stats.as_dict(),
        }
        for section, values in stats_sources.items():
            for name, value in values.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    registry.gauge(
                        f"repro_{section}_{name}",
                        f"serve {section} counter {name!r}",
                    ).set(value)
        registry.gauge(
            "repro_serve_uptime_seconds", "Seconds since daemon start"
        ).set(round(time.time() - self.started_at, 3))
        return {
            "ok": True,
            "metrics": registry.render_prometheus(),
            "snapshot": registry.snapshot(),
        }

    async def _op_shutdown(
        self, request: Mapping[str, Any], trace_ctx: Optional[tuple] = None
    ) -> dict:
        self.shutdown()
        return {"ok": True, "stopping": True}


def _flatten_counters(stats_response: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a stats response's numeric counters to dotted keys.

    Only counter-like numbers participate in the window deltas; gauges
    that are not cumulative (``uptime_seconds``, the per-worker report
    dicts) are excluded.
    """
    flat: dict[str, float] = {}
    for section in ("server", "store", "result_cache", "pool"):
        values = stats_response.get(section)
        if not isinstance(values, Mapping):
            continue
        for name, value in values.items():
            if name == "uptime_seconds" or isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                flat[f"{section}.{name}"] = value
    return flat


def _serializer(compiled):
    """A lazy artifact-bytes supplier closing over the live object.

    Serialization happens only when a worker actually needs the bytes
    (first shard for that key, or after a worker-side eviction).
    """
    from repro.bmc.compiled import dumps_artifact

    return lambda: dumps_artifact(compiled)


def _rank_wire_reports(wire_reports: list[dict]) -> list[list[int]]:
    """Section 4.3 ranking over wire reports (mirrors ``merge_reports``)."""
    counts: dict[int, int] = {}
    for report in wire_reports:
        for line in report["lines"]:
            counts[line] = counts.get(line, 0) + 1
    return [
        [line, count]
        for line, count in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    ]


class ServerThread:
    """Run a :class:`LocalizationServer` on a background thread.

    The worker pool is pre-forked on the calling thread *before* the
    asyncio loop starts, keeping process creation away from a threaded
    parent.  ``start()`` blocks until the sockets are bound and returns
    ``self``; ``stop()`` shuts the daemon down and joins the thread.
    """

    def __init__(
        self,
        tcp: Optional[tuple[str, int]] = ("127.0.0.1", 0),
        unix_path: Optional[Path | str] = None,
        **server_kwargs,
    ) -> None:
        self.server = LocalizationServer(**server_kwargs)
        self._tcp = tcp
        self._unix_path = unix_path
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def tcp_address(self) -> Optional[tuple[str, int]]:
        return self.server.tcp_address

    @property
    def unix_path(self) -> Optional[Path]:
        return self.server.unix_path

    def start(self) -> "ServerThread":
        self.server.pool.start()

        def run() -> None:
            async def main() -> None:
                try:
                    await self.server.start(tcp=self._tcp, unix_path=self._unix_path)
                except BaseException as exc:  # noqa: BLE001 - reported to start()
                    self._startup_error = exc
                    self._ready.set()
                    return
                self._loop = asyncio.get_running_loop()
                self._ready.set()
                await self.server.serve_until_shutdown()

            asyncio.run(main())

        self._thread = threading.Thread(
            target=run, name="repro-serve-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
