"""Feature-checked loader for the compiled solver and encoder cores.

The solver's and the encoder's hot paths exist twice: as pure-Python loops
(always available, always tested) and as small C libraries compiled at
first use:

* ``search.c`` exports five entry points: ``repro_propagate``
  (two-watched-literal unit propagation, used for root-level propagation
  outside the search loop), ``repro_search`` (the full CDCL search kernel:
  propagation, first-UIP conflict analysis with clause learning and local
  minimization, backjumping, VSIDS bump/decay/rescale, the activity order
  heap, phase saving, assumption decisions, Luby restarts and
  assumption-core extraction, returning to Python only for rare control
  events), ``repro_add_clauses`` (the root-level bulk clause load behind
  :meth:`Solver.add_clauses`), ``repro_cancel`` (the backtrack behind
  ``Solver._cancel_until``) and ``repro_detach`` (batch watcher-list
  unlinking for layer pops and learnt-database reduction);
* ``encode.c`` — the CNF emission core (gate hashing, Tseitin clauses and
  the bit-vector kernels), the record copy the warm splice replays a base
  journal with, and the gather that reorders a finished clause store into
  the MaxSAT engine's load order.

Each implements the same algorithms step for step as its Python fallback,
so both backends produce identical assignments, conflicts, cores,
statistics and artifacts.

One environment variable, ``REPRO_BACKEND``, selects the backend for the
whole process:

* ``auto`` (default) uses each library that builds and loads, and falls
  back to pure Python per library (no compiler, a sandboxed temp dir);
* ``python`` compiles nothing;
* ``c`` requires the compiled cores and raises when one fails to build.

The per-layer variables it replaced (:data:`_RETIRED_ENV`) are rejected
with a :class:`ValueError` rather than ignored, so a stale setting cannot
silently run the other backend.

The compiled artifacts are cached under ``_build/`` next to this module
(override the location with ``REPRO_SAT_BUILD_DIR``; CI's compiler-less job
points it at an empty directory so a stale artifact cannot mask a missing
compiler), keyed by a hash of the C source, so rebuilding only happens when
the source changes.  When the package directory is not writable, the cores
are compiled into a fresh private per-process temporary directory instead —
cached artifacts are never loaded from shared locations other users could
write.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

_SOURCE = Path(__file__).resolve().parent / "search.c"
_ENCODE_SOURCE = Path(__file__).resolve().parent / "encode.c"

BACKEND_ENV = "REPRO_BACKEND"
_MODES = ("auto", "python", "c")
_RETIRED_ENV = ("REPRO_PROPAGATION", "REPRO_SEARCH", "REPRO_ENCODE")

#: Per library name: the loaded library (``None`` when unavailable) and why
#: it is unavailable (``None`` when it loaded).  A name is present once its
#: load was attempted.
_libraries: dict[str, Optional[ctypes.CDLL]] = {}
_reasons: dict[str, Optional[str]] = {}


def _backend_mode() -> str:
    """The requested backend: ``REPRO_BACKEND``, ``auto`` when unset or empty.

    Raises :class:`ValueError` for an unknown value and for any of the
    retired per-layer variables, naming ``REPRO_BACKEND`` in both cases.
    """
    for name in _RETIRED_ENV:
        if name in os.environ:
            raise ValueError(
                f"{name} is no longer supported; set {BACKEND_ENV}=auto|python|c "
                "to choose the backend of every compiled core"
            )
    raw = os.environ.get(BACKEND_ENV, "")
    mode = raw.strip().lower() or "auto"
    if mode not in _MODES:
        raise ValueError(
            f"{BACKEND_ENV}={raw!r}: expected 'auto', 'python' or 'c'"
        )
    return mode


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


#: Sanitizers accepted in ``REPRO_SAT_SANITIZE`` (comma-separated) and the
#: cflags each one adds.  ``-fno-sanitize-recover=all`` turns any finding
#: into an abort, so a sanitizer CI job fails loudly instead of logging.
_SANITIZERS = {
    "asan": ("-fsanitize=address",),
    "ubsan": ("-fsanitize=undefined",),
}


def sanitize_flags() -> tuple[str, ...]:
    """Extra compile flags from ``REPRO_SAT_SANITIZE`` (empty = plain build).

    ``REPRO_SAT_SANITIZE=asan,ubsan`` builds the C cores under
    AddressSanitizer and UndefinedBehaviorSanitizer.  The flags participate
    in the build-cache key, so sanitized and plain artifacts occupy
    separate cache slots and never shadow each other.  Running under ASan
    typically also needs the sanitizer runtime preloaded into the host
    python (``LD_PRELOAD=$(cc -print-file-name=libasan.so)``) and, because
    CPython itself is not leak-clean, ``ASAN_OPTIONS=detect_leaks=0``.
    """
    raw = os.environ.get("REPRO_SAT_SANITIZE", "").strip().lower()
    if not raw:
        return ()
    flags: list[str] = []
    for name in raw.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in _SANITIZERS:
            raise ValueError(
                f"REPRO_SAT_SANITIZE={raw!r}: unknown sanitizer {name!r} "
                f"(expected a comma-separated subset of {sorted(_SANITIZERS)})"
            )
        flags.extend(_SANITIZERS[name])
    if flags:
        flags.extend(("-fno-sanitize-recover=all", "-g"))
    return tuple(flags)


def _build_dir() -> Optional[Path]:
    """The package-local cache directory, or ``None`` when not writable.

    Only the package-local directory is trusted for *reusing* a previously
    compiled artifact: a shared temp location could be pre-seeded by another
    local user with a malicious library of the expected name.  When the
    package is not writable the loader compiles into a fresh private
    per-process directory instead (no reuse).
    """
    override = os.environ.get("REPRO_SAT_BUILD_DIR")
    local = Path(override) if override else _SOURCE.parent / "_build"
    try:
        local.mkdir(parents=True, exist_ok=True)
        probe = local / ".writable"
        probe.touch()
        probe.unlink()
        return local
    except OSError:
        return None


def _compile_source(source_path: Path, prefix: str) -> Path:
    source = source_path.read_bytes()
    extra = sanitize_flags()
    # The sanitizer flags join the digest: a sanitized build lands in its
    # own cache slot and a later plain run never loads it by accident.
    digest = hashlib.sha256(source + b"\x00" + " ".join(extra).encode()).hexdigest()[:16]
    cache = _build_dir()
    out = None if cache is None else cache / f"_{prefix}_{digest}.so"
    if out is not None and out.exists():
        return out
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    command = [compiler, "-O2", "-shared", "-fPIC", *extra]
    if out is None:
        # Private per-process directory (0700 by mkdtemp): built fresh every
        # process, never loaded from a path another user could pre-create.
        private = Path(tempfile.mkdtemp(prefix="repro-sat-"))
        target = private / f"_{prefix}_{digest}.so"
        subprocess.run(
            [*command, "-o", str(target), str(source_path)],
            check=True,
            capture_output=True,
        )
        return target
    with tempfile.TemporaryDirectory(dir=str(out.parent)) as workdir:
        staging = Path(workdir) / out.name
        subprocess.run(
            [*command, "-o", str(staging), str(source_path)],
            check=True,
            capture_output=True,
        )
        # Atomic move so concurrent builders never load a half-written .so.
        os.replace(staging, out)
    return out


def _load(name: str, build: Callable[[], ctypes.CDLL]) -> Optional[ctypes.CDLL]:
    """Load library ``name`` once per process, honouring ``REPRO_BACKEND``.

    ``build`` compiles and binds the library.  Under ``auto`` any build failure falls back to pure Python; under ``c``
    it raises (again on every call, so a required core never degrades).
    """
    if name in _libraries:
        return _libraries[name]
    mode = _backend_mode()
    library = None
    if mode == "python":
        _reasons[name] = f"disabled by {BACKEND_ENV}=python"
    else:
        try:
            library = build()
            _reasons[name] = None
        except Exception as error:  # compiler missing, sandboxed tmpdir, ...
            reason = f"{type(error).__name__}: {error}"
            if mode == "c":
                raise RuntimeError(
                    f"{BACKEND_ENV}=c but the C {name} core failed to load: {reason}"
                ) from error
            _reasons[name] = reason
    _libraries[name] = library
    return library


def _bind(function, restype, argtypes) -> None:
    function.restype = restype
    function.argtypes = argtypes


def _build_solver() -> ctypes.CDLL:
    library = ctypes.CDLL(str(_compile_source(_SOURCE, "search")))
    _bind(library.repro_propagate, ctypes.c_long, [ctypes.c_void_p] * 7)
    _bind(library.repro_search, ctypes.c_long, [ctypes.c_void_p] * 18)
    _bind(library.repro_add_clauses, ctypes.c_long, [ctypes.c_void_p] * 11)
    _bind(
        library.repro_cancel,
        ctypes.c_long,
        [ctypes.c_void_p] * 7 + [ctypes.c_long] * 3,
    )
    _bind(library.repro_detach, None, [ctypes.c_void_p] * 3 + [ctypes.c_long])
    return library


def _build_encode() -> ctypes.CDLL:
    library = ctypes.CDLL(str(_compile_source(_ENCODE_SOURCE, "encode")))
    ptr, num = ctypes.c_void_p, ctypes.c_longlong
    _bind(library.repro_enc_gate, num, [ptr] * 6 + [num] * 4)
    _bind(library.repro_enc_add, None, [ptr] * 9 + [num] * 2)
    _bind(library.repro_enc_mul, None, [ptr] * 9 + [num])
    _bind(library.repro_enc_equals, num, [ptr] * 9 + [num])
    _bind(library.repro_enc_uless, num, [ptr] * 8 + [num])
    _bind(library.repro_enc_mux, None, [ptr] * 6 + [num] + [ptr] * 3 + [num])
    _bind(library.repro_enc_rehash, None, [ptr, num, ptr, num])
    _bind(
        library.repro_enc_copy, num, [ptr] * 6 + [ptr, num] + [ptr] * 5 + [num, ptr, ptr]
    )
    _bind(
        library.repro_enc_gather,
        num,
        [ptr] * 3 + [num, ptr, num, ptr, num] + [ptr] * 4,
    )
    return library


def load_core() -> Optional[ctypes.CDLL]:
    """The solver library (``search.c``), or ``None`` when unavailable."""
    return _load("solver", _build_solver)


def encode_library() -> Optional[ctypes.CDLL]:
    """The CNF emission library (``encode.c``), or ``None``."""
    return _load("encode", _build_encode)


#: The benchmark harness's set-up probe still loads the cores under this
#: name; it once named a separate library and is kept for that probe only.
load_materialize_core = encode_library


def unavailable_reason() -> Optional[str]:
    """Why the solver library is unavailable (``None`` when it loaded)."""
    load_core()
    return _reasons["solver"]


def encode_unavailable() -> Optional[str]:
    """Why the C emission core cannot be used (``None`` when it can)."""
    encode_library()
    return _reasons["encode"]


def backend() -> str:
    """Which backend new :class:`Solver` instances use (``"c"``/``"python"``)."""
    return "c" if load_core() is not None else "python"


def encode_backend() -> str:
    """Which emission backend new compiles use (``"c"`` or ``"python"``)."""
    return "c" if encode_library() is not None else "python"
