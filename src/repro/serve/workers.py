"""The daemon's warm-session worker pool and its scheduler.

Each worker is a persistent OS process holding an LRU of warm
:class:`~repro.core.session.LocalizationSession`\\ s keyed by artifact hash
(plus the session options), so a request against a version the worker has
seen before pays neither a compile nor an engine load — only the per-test
retractable layer.  Sessions are :meth:`~repro.core.session.LocalizationSession.pin`\\ ned
while a shard runs against them, so the eviction sweep can never close a
session mid-request.

The scheduler (:meth:`WorkerPool.run_jobs`) batches tests by program
version (one job per artifact), shards each job's tests, and places shards
with *artifact affinity*: a shard goes to a worker that already holds the
artifact when one exists, falling back to the least-loaded worker.
Artifact bytes ride along only on the first shard a worker sees for that
key; a worker that evicted the artifact in the meantime answers
``need-artifact`` and the shard is resent with bytes.  A shard whose
worker dies (crash, OOM-kill) or wedges is retried exactly once on a
freshly restarted worker before :class:`ServeShardError` reaches the
caller; a localization that raises is answered at once, naming the test
(a deterministic error fails the same way twice).

This is the only process pool:
:meth:`LocalizationSession.localize_batch(executor="process")
<repro.core.session.LocalizationSession.localize_batch>` runs its batch as
one :class:`Job` on a pool started for the call.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro import obs
from repro.core.report import LocalizationReport

#: A single localization inside a shard:
#: (request id, test inputs, Specification, nondet values).
ShardTest = tuple[object, object, object, tuple]


class ServeShardError(RuntimeError):
    """A shard failed: a test raised, or its worker died twice."""


@dataclass
class Job:
    """All tests of one batch that target one artifact (one program version)."""

    artifact_key: str
    #: Lazily fetches the serialized artifact when a worker needs it.
    artifact_bytes: Callable[[], bytes]
    #: Normalized keyword arguments of
    #: :meth:`~repro.core.session.LocalizationSession.from_compiled`; they
    #: also key the worker's session cache.
    session_options: dict
    tests: list[ShardTest]
    #: The request's forwarded ``(trace_id, parent_span_id)``; rides every
    #: shard message so worker-side spans stitch into the request's trace.
    #: ``None`` when tracing is off.
    trace_ctx: Optional[tuple] = None


@dataclass
class _Shard:
    job: Job
    tests: list[ShardTest]


@dataclass
class PoolStats:
    shards_dispatched: int = 0
    shard_retries: int = 0
    worker_restarts: int = 0
    artifact_resends: int = 0
    localizations: int = 0
    worker_reports: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "shards_dispatched": self.shards_dispatched,
            "shard_retries": self.shard_retries,
            "worker_restarts": self.worker_restarts,
            "artifact_resends": self.artifact_resends,
            "localizations": self.localizations,
            "workers": dict(self.worker_reports),
        }


class _WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, index: int, context, max_sessions: int) -> None:
        self.index = index
        self._context = context
        self._max_sessions = max_sessions
        self.lock = threading.Lock()
        #: Artifact keys this worker is believed to hold (advisory: the
        #: worker may have evicted one, in which case it asks again).
        self.artifacts: set[str] = set()
        self.assigned = 0
        self.process: Optional[multiprocessing.Process] = None
        self.conn = None
        self.spawn()

    def spawn(self, context=None) -> None:
        """(Re)create the worker process.

        ``context`` overrides the pool's start method for this spawn: the
        initial pre-fork happens before any server thread exists, but a
        *respawn* after a worker death runs inside a heavily threaded
        daemon, where forking risks inheriting a lock held by another
        thread — restarts therefore pass the "spawn" context (a clean
        interpreter, slower but fork-safe).
        """
        context = context or self._context
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(child_conn, self._max_sessions),
            daemon=True,
            name=f"repro-serve-worker-{self.index}",
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        self.artifacts = set()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        if self.conn is not None:
            # Keep the closed connection object: a dispatch racing the kill
            # then fails with OSError ("handle is closed"), which is exactly
            # the dead-worker signal the retry path handles.
            self.conn.close()

    def stop(self) -> None:
        try:
            if self.conn is not None:
                self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        if self.process is not None:
            self.process.join(timeout=5)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5)
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class WorkerPool:
    """Persistent worker processes behind a version-batching scheduler."""

    def __init__(
        self,
        workers: int = 2,
        max_sessions_per_worker: int = 8,
        max_tests_per_shard: int = 8,
        start_method: str = "fork",
        shard_timeout: float = 900.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.num_workers = workers
        self.max_sessions_per_worker = max_sessions_per_worker
        self.max_tests_per_shard = max_tests_per_shard
        #: Seconds a shard may run before its worker is declared wedged and
        #: killed (the shard then gets its one retry).  Generous — Table 3
        #: sized localizations take minutes — but finite, so a hung worker
        #: can never hold its dispatch thread and lock forever.
        self.shard_timeout = shard_timeout
        self.stats = PoolStats()
        self._context = multiprocessing.get_context(start_method)
        #: Respawns after a worker death use a clean interpreter (see
        #: :meth:`_WorkerHandle.spawn`).
        self._respawn_context = multiprocessing.get_context("spawn")
        self._workers: list[_WorkerHandle] = []
        self._lock = threading.Lock()
        self._started = False

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "WorkerPool":
        """Pre-fork every worker (before any server thread/loop exists)."""
        with self._lock:
            if not self._started:
                self._workers = [
                    _WorkerHandle(index, self._context, self.max_sessions_per_worker)
                    for index in range(self.num_workers)
                ]
                self._started = True
        return self

    def stop(self) -> None:
        with self._lock:
            for worker in self._workers:
                worker.stop()
            self._workers = []
            self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------- scheduling

    def run_jobs(self, jobs: Sequence[Job]) -> dict[object, LocalizationReport]:
        """Run every test of every job; returns reports by request id.

        Tests arrive pre-batched by version (one :class:`Job` per artifact).
        Each job is split into shards of at most ``max_tests_per_shard``
        tests; the first shard of a job lands on the job's affinity worker
        (one already holding the artifact, else the least-loaded), extra
        shards spill onto other workers so a single hot version still uses
        the whole pool.
        """
        if not self._started:
            self.start()
        shards = self._make_shards(jobs)
        if not shards:
            return {}
        assignments = self._assign(shards)
        results: dict[object, LocalizationReport] = {}
        errors: list[BaseException] = []
        result_lock = threading.Lock()

        def run_worker_queue(worker: _WorkerHandle, queue: list[_Shard]) -> None:
            for shard in queue:
                try:
                    shard_results = self._execute_shard(worker, shard)
                except Exception as exc:  # noqa: BLE001 - collected below
                    with result_lock:
                        errors.append(exc)
                    return
                with result_lock:
                    results.update(shard_results)

        if len(assignments) == 1:
            # One worker queue (every serve ``localize`` request with one
            # shard): a dispatcher thread would only be started and joined
            # around it, so the calling thread runs it.
            ((worker, queue),) = assignments.items()
            run_worker_queue(worker, queue)
        else:
            with ThreadPoolExecutor(
                max_workers=len(assignments),
                thread_name_prefix="repro-serve-dispatch",
            ) as dispatcher:
                futures = [
                    dispatcher.submit(run_worker_queue, worker, queue)
                    for worker, queue in assignments.items()
                ]
                for future in futures:
                    future.result()
        if errors:
            raise errors[0]
        self.stats.localizations += len(results)
        return results

    def _make_shards(self, jobs: Sequence[Job]) -> list[_Shard]:
        """Chunk each job's tests into shards of at most ``max_tests_per_shard``.

        The bound is honoured regardless of worker count: a shard is the
        unit of retry and of the wedged-worker watchdog, so it must stay
        small even when one giant job could in principle be split across
        exactly ``num_workers`` pieces.  Spreading shards over workers is
        the assignment step's problem, not the chunking step's.
        """
        shards: list[_Shard] = []
        per_shard = max(1, self.max_tests_per_shard)
        for job in jobs:
            tests = list(job.tests)
            for start in range(0, len(tests), per_shard):
                shards.append(_Shard(job=job, tests=tests[start : start + per_shard]))
        return shards

    def _assign(self, shards: list[_Shard]) -> dict[_WorkerHandle, list[_Shard]]:
        with self._lock:
            workers = list(self._workers)
        load: dict[_WorkerHandle, int] = {worker: 0 for worker in workers}
        assignments: dict[_WorkerHandle, list[_Shard]] = {}
        seen_key: dict[str, set[_WorkerHandle]] = {}
        for shard in shards:
            key = shard.job.artifact_key
            used = seen_key.setdefault(key, set())
            candidates = [w for w in workers if key in w.artifacts and w not in used]
            if not candidates:
                candidates = [w for w in workers if w not in used] or workers
            worker = min(candidates, key=lambda w: (load[w], w.index))
            used.add(worker)
            load[worker] += len(shard.tests)
            assignments.setdefault(worker, []).append(shard)
        return assignments

    # -------------------------------------------------------------- execution

    def _execute_shard(
        self, worker: _WorkerHandle, shard: _Shard, retried: bool = False
    ) -> dict[object, LocalizationReport]:
        self.stats.shards_dispatched += 1
        key = shard.job.artifact_key
        # Dispatcher threads interleave shards of different requests, so the
        # span is attached by explicit context (never thread-local); its own
        # id becomes the parent of the worker-side spans.
        with obs.attached_span(
            shard.job.trace_ctx,
            "serve.shard",
            worker=worker.index,
            artifact=key[:12],
            tests=len(shard.tests),
        ) as dispatch_span:
            worker_ctx = dispatch_span.ctx or shard.job.trace_ctx
            try:
                with worker.lock:
                    if worker.conn is None or worker.conn.closed:
                        raise BrokenPipeError("worker connection is closed")
                    include_bytes = key not in worker.artifacts
                    blob = shard.job.artifact_bytes() if include_bytes else None
                    worker.conn.send(
                        (
                            "shard",
                            key,
                            blob,
                            shard.job.session_options,
                            shard.tests,
                            worker_ctx,
                        )
                    )
                    reply = self._recv_reply(worker)
                    if reply[0] == "need-artifact":
                        # The worker evicted the artifact since we last sent it.
                        self.stats.artifact_resends += 1
                        worker.conn.send(
                            (
                                "shard",
                                key,
                                shard.job.artifact_bytes(),
                                shard.job.session_options,
                                shard.tests,
                                worker_ctx,
                            )
                        )
                        reply = self._recv_reply(worker)
            except (BrokenPipeError, EOFError, OSError) as exc:
                return self._retry_dead_worker(worker, shard, retried, exc)
            if reply[0] == "error":
                _, label, detail = reply
                raise ServeShardError(
                    f"worker {worker.index} failed localizing {label}: {detail}"
                )
            _, shard_results, worker_report, worker_spans = reply
            if shard.job.trace_ctx is not None:
                obs.merge_spans(shard.job.trace_ctx[0], worker_spans)
        worker.artifacts.add(key)
        self.stats.worker_reports[worker.index] = worker_report
        return dict(shard_results)

    def _retry_dead_worker(
        self,
        worker: _WorkerHandle,
        shard: _Shard,
        retried: bool,
        cause: BaseException,
    ) -> dict[object, LocalizationReport]:
        if retried:
            raise ServeShardError(
                f"worker died twice running a shard of "
                f"{len(shard.tests)} test(s) for artifact "
                f"{shard.job.artifact_key[:12]}…: {cause}"
            ) from cause
        with worker.lock:
            worker.kill()
            worker.spawn(self._respawn_context)
        self.stats.worker_restarts += 1
        self.stats.shard_retries += 1
        return self._execute_shard(worker, shard, retried=True)

    def _recv_reply(self, worker: _WorkerHandle):
        """Receive a shard reply with the wedged-worker watchdog applied.

        A worker that neither answers nor dies within ``shard_timeout``
        (runaway solver, deadlocked child) is indistinguishable from a dead
        one for scheduling purposes; the TimeoutError routes it into the
        same kill-respawn-retry path.
        """
        if not worker.conn.poll(self.shard_timeout):
            raise TimeoutError(
                f"worker {worker.index} gave no reply within {self.shard_timeout}s"
            )
        return worker.conn.recv()

    # ------------------------------------------------------------- inspection

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [w.process.pid for w in self._workers if w.process is not None]

    def kill_worker(self, index: int = 0) -> None:
        """Hard-kill one worker (chaos hook for tests and drills)."""
        with self._lock:
            worker = self._workers[index]
        with worker.lock:
            worker.kill()


# ----------------------------------------------------------- worker process


def _worker_main(conn, max_sessions: int) -> None:
    """One persistent worker: warm sessions over unpickled artifacts.

    Sessions are created with
    :meth:`~repro.core.session.LocalizationSession.from_compiled`, so a
    worker never compiles (``encodings_built`` stays 0 pool-wide — the
    store's compile counter is the only one that moves).
    """
    from repro.core.session import LocalizationSession

    artifacts: dict[str, object] = {}
    sessions: "OrderedDict[tuple, LocalizationSession]" = OrderedDict()
    localized = 0
    evicted = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        if message[0] != "shard":  # pragma: no cover - defensive
            conn.send(("error", "protocol", f"unknown message {message[0]!r}"))
            continue
        _, key, blob, options, tests, trace_ctx = message
        # The test being localized, so an error reply can name it.
        current: Optional[tuple] = None
        try:
            if blob is not None and key not in artifacts:
                from repro.bmc.compiled import loads_artifact

                artifacts[key] = loads_artifact(blob)
            if key not in artifacts:
                conn.send(("need-artifact", key))
                continue
            session_key = (key, json.dumps(options, sort_keys=True))
            with obs.remote_trace(trace_ctx) as trace_bundle:
                with obs.span("worker.shard", tests=len(tests)) as shard_span:
                    session = sessions.get(session_key)
                    if session is None:
                        with obs.span("worker.session_load"):
                            session = LocalizationSession.from_compiled(
                                artifacts[key], **options
                            )
                        sessions[session_key] = session
                        shard_span.set(session="cold")
                    sessions.move_to_end(session_key)
                    evicted += _evict_sessions(sessions, artifacts, max_sessions)
                    results = []
                    session.pin()
                    try:
                        for request_id, inputs, spec, nondet in tests:
                            current = (request_id, inputs)
                            report = session.localize(
                                inputs, spec, nondet_values=nondet
                            )
                            results.append((request_id, report))
                            localized += 1
                        current = None
                    finally:
                        session.unpin()
            conn.send(
                (
                    "ok",
                    results,
                    {
                        "sessions": len(sessions),
                        "artifacts": len(artifacts),
                        "localized": localized,
                        "sessions_evicted": evicted,
                        "encodings_built": sum(
                            s.stats.encodings_built for s in sessions.values()
                        ),
                        "last_request_profile": session.last_request_profile,
                    },
                    trace_bundle.spans,
                )
            )
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            label = f"artifact {key[:12]}…"
            if current is not None:
                request_id, inputs = current
                shown = dict(inputs) if isinstance(inputs, Mapping) else list(inputs)
                label = f"test {request_id!r} inputs={shown!r} of {label}"
            conn.send(("error", label, f"{type(exc).__name__}: {exc}\n"
                       + traceback.format_exc(limit=8)))
    conn.close()


def _evict_sessions(
    sessions: "OrderedDict[tuple, object]",
    artifacts: dict[str, object],
    max_sessions: int,
) -> int:
    """LRU-evict unpinned sessions beyond the bound; drop orphaned artifacts."""
    evicted = 0
    while len(sessions) > max_sessions:
        victim_key = next(
            (k for k, s in sessions.items() if not s.pinned),
            None,
        )
        if victim_key is None:
            break
        victim = sessions.pop(victim_key)
        victim.close()
        evicted += 1
    live_artifacts = {key for key, *_ in sessions}
    for key in list(artifacts):
        if key not in live_artifacts:
            del artifacts[key]
    return evicted
