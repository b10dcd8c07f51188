"""The daemon's wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON.  Requests and responses are JSON objects; every request
carries an ``"op"`` (``compile`` / ``localize`` / ``localize_batch`` /
``stats`` / ``metrics`` / ``shutdown``) and every response an ``"ok"``
boolean.  A request may carry an optional ``"trace_id"``
(:data:`TRACE_FIELD`) naming the distributed trace the daemon should join
— a router that already opened a trace passes its id so the daemon-side
spans stitch under it; otherwise the daemon mints one.  Every response
echoes the ``trace_id`` that was used (plus, with ``REPRO_TRACE=export``,
the ``trace_path`` the Chrome trace-event file was written to).  The
framing functions validate hard before allocating: a length of zero, a
length above :data:`MAX_FRAME_BYTES` (a garbage header read as a huge
integer), truncated bodies and non-JSON bodies all raise
:class:`ProtocolError`, which the server answers (when it still can) with
an error frame before dropping the connection — never by dying.

The module also owns the wire codecs for domain values (specifications,
tests, localization reports).  :func:`canonical_report_bytes` defines the
*identity* of a report — everything user-facing (candidates, lines, costs,
inputs, spec, trace sizes, CoMSS count), excluding run-dependent
solver-effort counters and wall time — which is what "the daemon returns
the same answer as an in-process session" means, byte for byte.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Mapping, Optional, Sequence

from repro.core.report import LocalizationReport
from repro.spec import Specification

#: Default upper bound on one frame.  Reports and batched requests are
#: small; the largest legitimate payloads are program sources (kilobytes).
#: Anything bigger is a framing error or abuse.  Servers can lower the
#: *inbound* bound per instance (``LocalizationServer(max_frame_bytes=...)``)
#: without affecting what they are allowed to send back.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Optional request field carrying the caller's distributed trace id; the
#: response always echoes the id the daemon used (supplied or minted).
TRACE_FIELD = "trace_id"

_HEADER = struct.Struct("!I")


class ProtocolError(Exception):
    """A malformed frame (bad length, truncated body, invalid JSON)."""


# ------------------------------------------------------------------ framing


def pack_frame(payload: Mapping[str, Any]) -> bytes:
    """Encode one JSON object as a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def frame_length(header: bytes, max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Validate and decode a frame header against a frame-size bound."""
    if len(header) != _HEADER.size:
        raise ProtocolError(f"short frame header ({len(header)} bytes)")
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds {max_bytes}")
    return length


def decode_body(body: bytes) -> dict:
    """Parse a frame body into a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    return payload


async def read_frame(reader, max_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    ``max_bytes`` bounds the frame *before* the body is allocated, so an
    adversarial or garbage length prefix can never balloon memory.
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    length = frame_length(header, max_bytes=max_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_body(body)


async def write_frame(writer, payload: Mapping[str, Any]) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(pack_frame(payload))
    await writer.drain()


def send_frame(sock: socket.socket, payload: Mapping[str, Any]) -> None:
    """Blocking-socket counterpart of :func:`write_frame` (client side)."""
    sock.sendall(pack_frame(payload))


def recv_frame(sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """Blocking-socket counterpart of :func:`read_frame`; ``None`` on EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    length = frame_length(header, max_bytes=max_bytes)
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-read")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ------------------------------------------------------------- domain codecs


def spec_to_wire(spec: Specification) -> dict:
    return {"kind": spec.kind, "expected": list(spec.expected)}


def spec_from_wire(value: Mapping[str, Any]) -> Specification:
    kind = value.get("kind")
    if kind not in ("assertion", "golden-output", "return-value"):
        raise ProtocolError(f"unknown specification kind {kind!r}")
    expected = tuple(int(v) for v in value.get("expected", ()))
    return Specification(kind=kind, expected=expected)


def test_from_wire(value: Any) -> Sequence[int] | dict[str, int]:
    """Decode a test case: a list of ints or a name→value object."""
    if isinstance(value, dict):
        return {str(name): int(v) for name, v in value.items()}
    if isinstance(value, list):
        return [int(v) for v in value]
    raise ProtocolError(f"test inputs must be a list or object, got {type(value).__name__}")


def report_to_wire(report: LocalizationReport) -> dict:
    """Full JSON view of one localization report (effort counters included)."""
    return {
        "program_name": report.program_name,
        "test_inputs": dict(report.test_inputs),
        "specification": report.specification,
        "candidates": [
            {
                "lines": list(candidate.lines),
                "cost": candidate.cost,
                "description": candidate.describe(),
            }
            for candidate in report.candidates
        ],
        "lines": list(report.lines),
        "trace_assignments": report.trace_assignments,
        "trace_variables": report.trace_variables,
        "trace_clauses": report.trace_clauses,
        "maxsat_calls": report.maxsat_calls,
        "unwind_truncated": report.unwind_truncated,
        "sat_calls": report.sat_calls,
        "propagations": report.propagations,
        "conflicts": report.conflicts,
        "time_seconds": report.time_seconds,
    }


#: Wire fields that depend on *how hard* the solver worked rather than on
#: what the localization means; excluded from the canonical identity.
EFFORT_FIELDS = ("sat_calls", "propagations", "conflicts", "time_seconds")


def canonical_report_wire(report_wire: Mapping[str, Any]) -> dict:
    """Strip run-dependent effort fields from a wire report."""
    return {k: v for k, v in report_wire.items() if k not in EFFORT_FIELDS}


def canonical_report_bytes(report: LocalizationReport | Mapping[str, Any]) -> bytes:
    """The byte-level identity of a report.

    Accepts a :class:`LocalizationReport` or its wire dict and produces
    canonical JSON (sorted keys, tight separators) over every user-facing
    field.  Two localizations of the same test against the same artifact
    compare equal here whether they ran in-process, in a cold worker, or
    were replayed from the result cache.
    """
    wire = report_to_wire(report) if isinstance(report, LocalizationReport) else dict(report)
    return json.dumps(
        canonical_report_wire(wire), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
