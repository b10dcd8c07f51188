"""Content-addressed caches behind the localization daemon.

:class:`ArtifactStore` retires the ROADMAP's cross-version encoding-cache
item at the serving layer: the nine per-version encodings of a Siemens
suite run are compiled exactly once each across all clients, however many
tests and connections ask about them.  Artifacts are addressed by
:func:`repro.bmc.compiled.artifact_key` — a stable hash of the program
text plus the encoding options — so the key exists before the compile
does, and a second client asking for the same version waits on the first
compile instead of repeating it.

Storage is two-tier: a bounded in-memory LRU of live
:class:`~repro.bmc.compiled.CompiledProgram` objects over an optional
on-disk spill of version-stamped pickles
(:func:`~repro.bmc.compiled.dumps_artifact`).  Memory eviction keeps the
disk copy; a corrupt or stale spill (truncated write, incompatible
:data:`~repro.bmc.compiled.ARTIFACT_FORMAT_VERSION`) is deleted and
recompiled rather than surfacing an error.

:class:`ResultCache` memoizes whole localization responses.  Localization
is a deterministic function of (artifact, test, spec, session options), so
repeated requests — every CI rerun re-localizes the same failing tests
until the bug is fixed — are served from memory without touching a worker.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from repro import obs
from repro.bmc import BoundedModelChecker, CompiledProgram
from repro.bmc.compiled import (
    ARTIFACT_FORMAT_VERSION,
    ARTIFACT_HEADER_BYTES,
    ArtifactFormatError,
    artifact_key,
    dumps_artifact,
    loads_artifact,
    peek_artifact_version,
)
from repro.lang import check_program, parse_program
from repro.lang.diagnostics import ERROR, Diagnostic, has_errors

#: Compile options understood by :meth:`ArtifactStore.get_or_compile`,
#: with their defaults.  Only these participate in the artifact key.
COMPILE_OPTION_DEFAULTS: dict[str, object] = {
    "name": "program",
    "entry": "main",
    "width": None,  # None = the language default width
    "unwind": 16,
    "hard_functions": (),
    "unwind_planning": False,
    "loop_iteration_groups": False,
}


class CompileRejectedError(ValueError):
    """The program failed compilation with structured diagnostics.

    Raised for parse errors, type errors, and static-analysis findings of
    ERROR severity (a division whose divisor is always zero, an array index
    that is always out of bounds).  Carries the
    :class:`~repro.lang.diagnostics.Diagnostic` records so the daemon can
    answer with a structured rejection instead of a worker traceback.
    """

    def __init__(self, diagnostics: tuple[Diagnostic, ...]) -> None:
        self.diagnostics = tuple(diagnostics)
        summary = "; ".join(
            f"line {d.line}: [{d.code}] {d.message}" for d in self.diagnostics
        )
        super().__init__(f"program rejected: {summary}")


def check_positive_int(name: str, value: object) -> None:
    """Raise ValueError unless ``value`` is a positive int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"option {name!r} must be a positive int, got {value!r}")


def checked_sorted_list(name: str, value: object, kind: type) -> list:
    """``value`` sorted if it is a list (or tuple) of ``kind``, else ValueError."""
    if not isinstance(value, (list, tuple)) or any(
        isinstance(item, bool) or not isinstance(item, kind) for item in value
    ):
        raise ValueError(
            f"option {name!r} must be a list of {kind.__name__}, got {value!r}"
        )
    return sorted(value)


def normalize_compile_options(options: Optional[Mapping[str, object]]) -> dict:
    """Fill defaults and reject unknown or ill-typed compile options."""
    merged = dict(COMPILE_OPTION_DEFAULTS)
    for name, value in (options or {}).items():
        if name not in COMPILE_OPTION_DEFAULTS:
            raise ValueError(f"unknown compile option {name!r}")
        merged[name] = value
    merged["hard_functions"] = checked_sorted_list(
        "hard_functions", merged["hard_functions"], str
    )
    check_positive_int("unwind", merged["unwind"])
    if merged["width"] is not None:
        check_positive_int("width", merged["width"])
    return merged


@dataclass
class StoreStats:
    """Counters proving the compile-exactly-once contract."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    compiles: int = 0
    evictions: int = 0
    spills: int = 0
    corrupt_recovered: int = 0
    stale_swept: int = 0

    @property
    def requests(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return (self.memory_hits + self.disk_hits) / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "compiles": self.compiles,
            # Every compile is cold; the key stays for stats readers that
            # predate the removal of warm compiles.
            "warm_compiles": 0,
            "evictions": self.evictions,
            "spills": self.spills,
            "corrupt_recovered": self.corrupt_recovered,
            "stale_swept": self.stale_swept,
            "hit_rate": round(self.hit_rate, 4),
        }


class ArtifactStore:
    """Content-addressed, two-tier cache of compiled program artifacts.

    ``root=None`` keeps the store memory-only (no spill, evictions lose the
    artifact and a later request recompiles).  All methods are thread-safe;
    a compile for one key excludes concurrent compiles of the same key (so
    "exactly one compile per distinct artifact" holds under concurrency)
    while lookups of other keys proceed — the store lock is never held
    across a compile.
    """

    def __init__(
        self,
        root: Optional[Path | str] = None,
        max_memory_entries: int = 16,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be at least 1")
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = max_memory_entries
        self.stats = StoreStats()
        self._memory: OrderedDict[str, CompiledProgram] = OrderedDict()
        self._lock = threading.RLock()
        #: Per-key compile-in-flight events: a second client asking for a
        #: key being compiled waits on its event instead of recompiling,
        #: while lookups of *other* keys proceed (the store lock is never
        #: held across a compile).
        self._in_flight: dict[str, threading.Event] = {}
        self._sweep_outdated_spills()

    # ------------------------------------------------------------- addressing

    def _spill_path(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / f"{key}.artifact"

    # ----------------------------------------------------------------- lookup

    def get(self, key: str) -> Optional[CompiledProgram]:
        """Fetch by key from memory, then disk; ``None`` on a full miss."""
        with self._lock:
            compiled = self._memory.get(key)
            if compiled is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return compiled
            compiled = self._load_spill(key)
            if compiled is not None:
                self.stats.disk_hits += 1
                self._admit(key, compiled, spill=False)
                return compiled
            self.stats.misses += 1
            return None

    def get_or_compile(
        self,
        program_text: str,
        options: Optional[Mapping[str, object]] = None,
    ) -> tuple[str, CompiledProgram, str]:
        """Resolve (and, on a full miss, compile) one program version.

        Returns ``(key, compiled, source)`` where ``source`` is one of
        ``"memory"``, ``"disk"`` or ``"compiled"``.
        """
        normalized = normalize_compile_options(options)
        key = artifact_key(program_text, normalized)
        while True:
            with self._lock:
                memory_before = self.stats.memory_hits
                compiled = self.get(key)
                if compiled is not None:
                    source = (
                        "memory" if self.stats.memory_hits > memory_before else "disk"
                    )
                    return key, compiled, source
                pending = self._in_flight.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._in_flight[key] = pending
                    owner = True
                else:
                    owner = False
            if not owner:
                # Another thread is compiling this exact key: wait for it,
                # then loop back to the (now hitting) lookup.
                pending.wait()
                continue
            try:
                with obs.span("store.compile", key=key[:12]):
                    compiled = self._compile(program_text, normalized)
                with self._lock:
                    self.stats.compiles += 1
                    self._admit(key, compiled, spill=True)
                return key, compiled, "compiled"
            finally:
                with self._lock:
                    self._in_flight.pop(key, None)
                pending.set()

    def serialized(self, key: str) -> Optional[bytes]:
        """The version-stamped artifact bytes (for shipping to a worker)."""
        compiled = self.get(key)
        if compiled is None:
            return None
        return dumps_artifact(compiled)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ----------------------------------------------------------------- fill

    def _compile(self, program_text: str, normalized: dict) -> CompiledProgram:
        """Compile one program version, rejecting ERROR diagnostics."""
        from repro.lang.parser import ParseError
        from repro.lang.typecheck import TypeError_

        try:
            program = parse_program(program_text, name=normalized["name"])
            check_program(program)
        except (ParseError, TypeError_) as exc:
            raise CompileRejectedError((exc.to_diagnostic(),)) from exc
        # The other compile options are checker keywords of the same name
        # (a None width leaves the checker's default).
        checker_kwargs = {
            name: value
            for name, value in normalized.items()
            if name not in ("name", "entry") and value is not None
        }
        checker_kwargs["group_statements"] = True
        checker = BoundedModelChecker(program, **checker_kwargs)
        compiled = checker.compile_program(entry=normalized["entry"])
        if has_errors(compiled.diagnostics):
            raise CompileRejectedError(
                tuple(d for d in compiled.diagnostics if d.severity == ERROR)
            )
        return compiled

    def _admit(self, key: str, compiled: CompiledProgram, spill: bool) -> None:
        self._memory[key] = compiled
        self._memory.move_to_end(key)
        if spill:
            self._write_spill(key, compiled)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # ----------------------------------------------------------------- spill

    def _write_spill(self, key: str, compiled: CompiledProgram) -> None:
        path = self._spill_path(key)
        if path is None:
            return
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_bytes(dumps_artifact(compiled))
            tmp.replace(path)
            self.stats.spills += 1
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            tmp.unlink(missing_ok=True)

    def _load_spill(self, key: str) -> Optional[CompiledProgram]:
        path = self._spill_path(key)
        if path is None or not path.exists():
            return None
        try:
            return loads_artifact(path.read_bytes())
        except (ArtifactFormatError, OSError):
            # Truncated write, stale format version, or plain corruption:
            # drop the spill and let the caller recompile.
            path.unlink(missing_ok=True)
            self.stats.corrupt_recovered += 1
            return None

    def _sweep_outdated_spills(self) -> None:
        """Delete spills written under an older artifact format at startup.

        A format bump (``ARTIFACT_FORMAT_VERSION``) invalidates every spill
        a previous process left behind; sweeping them eagerly — by peeking
        at the fixed-size header, without unpickling — turns what would be
        a per-request load-and-discard into one startup pass, and keeps
        stale files from lingering on disk when their keys are never asked
        for again.
        """
        if self.root is None:
            return
        for path in sorted(self.root.glob("*.artifact")):
            try:
                with path.open("rb") as handle:
                    header = handle.read(ARTIFACT_HEADER_BYTES)
            except OSError:
                continue
            version = peek_artifact_version(header)
            # Only positively identified old-format artifacts are swept; a
            # file without the magic could be anything, so it is left for
            # the per-request corrupt-recovery path to deal with.
            if version is not None and version != ARTIFACT_FORMAT_VERSION:
                path.unlink(missing_ok=True)
                self.stats.stale_swept += 1


class ResultCache:
    """Bounded LRU memoizing whole localization responses.

    Localization is deterministic given (artifact key, test, spec, session
    options), so the server can answer a repeated request from memory; the
    cached value is the exact wire payload, keeping responses byte-identical
    whether computed or replayed.  ``max_entries=0`` disables the cache.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[dict]:
        if self.max_entries <= 0:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: dict) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> dict:
        with self._lock:
            entries = len(self._entries)
        total = self.hits + self.misses
        return {
            "entries": entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }
