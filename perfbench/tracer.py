"""Outside-in spans around the public calls into each ``repro`` layer.

The traced run replaces a few public functions and methods with timing
wrappers (:meth:`SpanTracer.wrap`); the end-to-end runs never install them.
Every span records its layer, start, end, the span that caused it and the
request it belongs to.  Spans stay in memory and are written out once, at
the end of the run.

A layer's self time is its spans' time minus the part of each span that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    request: Optional[str]
    layer: str
    name: str
    start: float
    end: float = 0.0
    #: Metric this span's time is summed into (outermost span only).
    metric: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    covered = 0.0
    reach = low
    for start, end in clipped:
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover, by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds per layer: the sum of its spans' self times."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.span_id]
    return totals


@dataclass
class SpanTracer:
    """Collects spans and counters from wrapped calls (single-threaded)."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Seconds the wrappers spent on measurement side work (for example
    #: serializing an artifact to count its bytes), excluded from overhead.
    side_seconds: float = 0.0
    #: Per-call samples (seconds) whose median a metric reports.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Kind of the request in flight ("computed" or "cached").
    request_kind: Optional[str] = None
    _stack: list[Span] = field(default_factory=list)
    _request: Optional[str] = None
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, layer: str, name: str, metric: Optional[str] = None):
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, self._request, layer, name, 0.0, metric=metric)
        self.spans.append(record)
        self._stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def request(self, request_id: str, kind: str = "computed"):
        """Root span of one request; its id is stamped on every child span."""
        self._request = request_id
        self.request_kind = kind
        try:
            with self.span("request", request_id):
                yield
        finally:
            self._request = None
            self.request_kind = None

    @contextlib.contextmanager
    def side_work(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.side_seconds += time.perf_counter() - started

    def wrap(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        metric: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a ``layer`` span.

        The span's time is summed into ``metric`` unless the span sits
        inside another span of the same metric.
        ``before(args)`` runs inside the span before the call; its value is
        handed to ``after(tracer, span, result, args, token)``, which runs
        once the span has closed.
        """
        original = getattr(owner, attribute)
        name = f"{getattr(owner, '__name__', owner)}.{attribute}"
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(layer, name, metric) as record:
                token = before(args) if before else None
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, record, result, args, token)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def metric_totals(self) -> dict[str, float]:
        """Seconds per span metric, outermost spans of each metric only."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.metric is None:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].metric != span.metric:
                parent = self.spans[parent].parent
            if parent is None:
                totals[span.metric] = totals.get(span.metric, 0.0) + span.duration
        return totals

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": [asdict(span) for span in self.spans], "counters": self.counters}
        path.write_text(json.dumps(payload) + "\n")


class NullTracer:
    """The end-to-end runs' stand-in: no spans, no wrappers."""

    def request(self, request_id: str, kind: str = "computed"):
        return contextlib.nullcontext()
