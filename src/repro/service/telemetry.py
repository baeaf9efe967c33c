"""End-to-end observability: trace spans, a metrics registry, and the cost log.

The service spans five layers (wire → micro-batch → planner → shard executor/
supervisor → kernels); this module is the one place their telemetry meets.
It deliberately changes *nothing* about answers: trace ids are excluded from
cache keys and results (see :func:`repro.service.wire.request_cache_key`), a
traced stream is byte-identical on its result lines to an untraced one, and
every hook no-ops behind a single ``enabled()`` check when telemetry is off.

Three coordinated pieces:

**Trace spans** (:class:`Tracer`, :class:`Span`).  A trace id is minted at
decode (or propagated from the request's optional wire-v3 ``trace`` field).
The *root span id is derived from the trace id* (``<trace>.r``), so any
layer that knows only ``request.trace`` — the session evaluating in a worker
process, the supervisor annotating an escalation — can parent spans to the
request's root without extra plumbing.  Completed spans buffer in a bounded
deque; worker processes drain theirs into the supervisor reply's ``info``
dict (``{"spans": [...], "cost": [...]}``) and the parent adopts them, so
one request's tree is whole even when its work crossed process boundaries.

**Metrics registry** (:class:`MetricsRegistry`).  Counters, gauges, and
bounded fixed-bucket histograms under flat dotted names.  ``absorb()``
flattens the service's pre-existing stats dicts (micro-batch, supervision,
cache tiers) into gauges, so ``{"control": "metrics"}`` and the
``--metrics-dir`` dump expose *one* deterministic canonical-JSON document
instead of today's per-layer patchwork.

**Cost log** (:class:`CostLog`).  Every executed work unit appends one
``(kind, method, |Γ|, request count, query size, kernel counters, wall
time)`` record — the calibration feed the ROADMAP's capacity-aware adaptive
planner will learn per-group cost models from.

Process-global state is intentional (one service process, one telemetry
sink); ``os.register_at_fork`` clears inherited buffers in forked workers so
parent spans are never double-reported, and :func:`reset` gives tests a
clean slate.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro import profiling
from repro.service.wire import QueryRequest, QueryResult, canonical_dumps

__all__ = [
    "Span",
    "Tracer",
    "MetricsRegistry",
    "CostLog",
    "configure",
    "enabled",
    "reset",
    "registry",
    "tracer",
    "cost_log",
    "new_trace_id",
    "root_span_id",
    "ensure_trace",
    "begin_request",
    "finish_request",
    "record_request_tree",
    "evaluate_span",
    "finish_evaluate",
    "work_unit",
    "record_escalation",
    "drain_for_reply",
    "adopt_reply",
    "metrics_export",
    "flush",
]

#: Default histogram bucket upper bounds, in milliseconds.
DEFAULT_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0)

#: Bounded-buffer sizes: old entries are dropped, never blocked on.
SPAN_BUFFER_LIMIT = 65536
COST_LOG_LIMIT = 65536


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    """One timed operation in a trace tree.

    Times are captured on ``time.perf_counter()`` and converted to wall-clock
    milliseconds at export through the tracer's anchor, so spans recorded in
    different processes on one machine land on a shared timeline.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "attrs", "events", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: Optional[float] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter() if start is None else start
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.events: List[dict] = []

    def annotate(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def event(self, name: str, at: Optional[float] = None, **attrs: Any) -> "Span":
        entry: Dict[str, Any] = {"name": name, "at": time.perf_counter() if at is None else at}
        if attrs:
            entry.update(attrs)
        self.events.append(entry)
        return self

    def end(self, at: Optional[float] = None) -> None:
        """Close the span and hand it to the tracer's buffer."""
        finish = time.perf_counter() if at is None else at
        self._tracer._record(self, finish)


class _NullSpan:
    """The disabled-path span: every method is a no-op returning ``self``."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None

    def annotate(self, key: str, value: Any) -> "_NullSpan":
        return self

    def event(self, name: str, at: Optional[float] = None, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, at: Optional[float] = None) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Mints span ids and buffers completed spans (bounded, oldest dropped)."""

    def __init__(self, limit: int = SPAN_BUFFER_LIMIT) -> None:
        self._spans: deque = deque(maxlen=limit)
        self._counter = itertools.count(1)
        self._prefix = f"{os.getpid():x}"
        # wall(perf_t) = anchor + perf_t: one wall-clock timeline per machine.
        self._anchor = time.time() - time.perf_counter()
        self.started = 0
        self.recorded = 0
        self.adopted = 0

    def new_id(self, tag: str = "s") -> str:
        """A process-unique id; the pid prefix keeps workers from colliding."""
        return f"{tag}{self._prefix}-{next(self._counter):x}"

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        start: Optional[float] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        self.started += 1
        return Span(
            self,
            name,
            trace_id=trace_id if trace_id is not None else self.new_id("t"),
            span_id=span_id if span_id is not None else self.new_id("s"),
            parent_id=parent_id,
            start=start,
            attrs=attrs,
        )

    def _wall_ms(self, perf_time: float) -> float:
        return round((self._anchor + perf_time) * 1000.0, 3)

    def _record(self, span: Span, finish: float) -> None:
        payload: Dict[str, Any] = {
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start_ms": self._wall_ms(span.start),
            "duration_ms": round(max(0.0, finish - span.start) * 1000.0, 3),
        }
        if span.attrs:
            payload["attrs"] = span.attrs
        if span.events:
            payload["events"] = [
                {**{k: v for k, v in event.items() if k != "at"}, "at_ms": self._wall_ms(event["at"])}
                for event in span.events
            ]
        self._spans.append(payload)
        self.recorded += 1

    def adopt(self, payloads: Sequence[dict]) -> None:
        """Take already-exported span dicts from another process's tracer."""
        for payload in payloads:
            if isinstance(payload, dict):
                self._spans.append(payload)
                self.adopted += 1

    def drain(self) -> List[dict]:
        """Remove and return every buffered span payload."""
        drained: List[dict] = []
        while True:
            try:
                drained.append(self._spans.popleft())
            except IndexError:
                return drained

    def snapshot(self) -> Dict[str, int]:
        return {
            "started": self.started,
            "recorded": self.recorded,
            "adopted": self.adopted,
            "pending": len(self._spans),
        }


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class _Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow slot."""

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 6),
        }


class MetricsRegistry:
    """Counters, gauges, and bounded histograms under flat dotted names.

    The export is a plain dict ready for :func:`canonical_dumps`: three
    top-level sections whose keys sort deterministically, so two registries
    fed the same observations export byte-identical documents.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    def inc(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float, bounds: Sequence[float] = DEFAULT_BUCKETS_MS) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram(bounds)
        histogram.observe(value)

    def absorb(self, prefix: str, mapping: Any) -> None:
        """Flatten a nested stats dict into gauges under dotted names.

        Numbers become gauges (bools as 0/1); nested dicts recurse with a
        dotted prefix; strings, lists, and ``None`` values are skipped —
        they belong in the structured stats document, not in metrics.
        """
        if isinstance(mapping, dict):
            for key in sorted(mapping, key=str):
                self.absorb(f"{prefix}.{key}", mapping[key])
            return
        if isinstance(mapping, bool):
            self._gauges[prefix] = int(mapping)
        elif isinstance(mapping, (int, float)):
            self._gauges[prefix] = mapping

    def export(self) -> dict:
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {
                name: (round(value, 6) if isinstance(value, float) else value)
                for name, value in sorted(self._gauges.items())
            },
            "histograms": {name: self._histograms[name].as_dict() for name in sorted(self._histograms)},
        }


# ---------------------------------------------------------------------------
# Cost log
# ---------------------------------------------------------------------------


class CostLog:
    """Bounded buffer of per-work-unit cost records (the planner's feedstock)."""

    def __init__(self, limit: int = COST_LOG_LIMIT) -> None:
        self._records: deque = deque(maxlen=limit)
        self.recorded = 0

    def append(self, record: dict) -> None:
        self._records.append(record)
        self.recorded += 1

    def extend(self, records: Sequence[dict]) -> None:
        for record in records:
            if isinstance(record, dict):
                self.append(record)

    def drain(self) -> List[dict]:
        drained: List[dict] = []
        while True:
            try:
                drained.append(self._records.popleft())
            except IndexError:
                return drained

    def snapshot(self) -> Dict[str, int]:
        return {"recorded": self.recorded, "pending": len(self._records)}


# ---------------------------------------------------------------------------
# Process-global state
# ---------------------------------------------------------------------------


class _TelemetryState:
    def __init__(self) -> None:
        self.enabled = False
        self.metrics_dir: Optional[Path] = None
        self.interval_ms = 1000.0
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.cost_log = CostLog()


_STATE = _TelemetryState()
_FLUSH_LOCK = threading.Lock()


def configure(
    *,
    trace: bool = False,
    metrics_dir: Optional[str] = None,
    interval_ms: Optional[float] = None,
) -> None:
    """Turn telemetry on or off for this process.

    Tracing is enabled when either flag asks for it: an explicit ``trace``
    request, or a ``metrics_dir`` (a dump destination implies collection).
    Existing buffers are kept — reconfiguring mid-run must not lose spans.
    """
    _STATE.metrics_dir = Path(metrics_dir) if metrics_dir else None
    _STATE.enabled = bool(trace) or _STATE.metrics_dir is not None
    if interval_ms is not None:
        _STATE.interval_ms = float(interval_ms)


def enabled() -> bool:
    return _STATE.enabled


def reset() -> None:
    """Fresh disabled state — test isolation."""
    _STATE.enabled = False
    _STATE.metrics_dir = None
    _STATE.interval_ms = 1000.0
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = Tracer()
    _STATE.cost_log = CostLog()


def registry() -> MetricsRegistry:
    return _STATE.registry


def tracer() -> Tracer:
    return _STATE.tracer


def cost_log() -> CostLog:
    return _STATE.cost_log


def interval_ms() -> float:
    return _STATE.interval_ms


def metrics_dir() -> Optional[Path]:
    return _STATE.metrics_dir


def _after_fork() -> None:
    # A forked worker inherits the parent's buffers; drop them (they are the
    # parent's to report) and re-anchor ids on the child's pid.  The enabled
    # flag is inherited on purpose — a traced parent wants traced workers —
    # but the child never writes the parent's dump files.
    _STATE.metrics_dir = None
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = Tracer()
    _STATE.cost_log = CostLog()


os.register_at_fork(after_in_child=_after_fork)


# ---------------------------------------------------------------------------
# Request-level span helpers
# ---------------------------------------------------------------------------


def new_trace_id() -> str:
    return _STATE.tracer.new_id("t")


def root_span_id(trace_id: str) -> str:
    """The request root's span id, derivable from the trace id alone.

    This convention is what lets spans parent correctly across process
    boundaries: a worker that knows only ``request.trace`` can still attach
    its evaluate span to the right root.
    """
    return f"{trace_id}.r"


def ensure_trace(request: QueryRequest) -> QueryRequest:
    """The request with a trace id — the caller's if present, minted otherwise."""
    if request.trace is not None:
        return request
    return replace(request, trace=new_trace_id())


def begin_request(request: QueryRequest) -> tuple:
    """Mint/propagate the trace id at decode and open the root span."""
    request = ensure_trace(request)
    span = _STATE.tracer.start_span(
        "request",
        trace_id=request.trace,
        span_id=root_span_id(request.trace),
        attrs={"kind": request.kind, "id": request.id, "tenant": request.tenant},
    )
    _STATE.registry.inc("trace.requests_started")
    return request, span


def _annotate_outcome(span: Any, result: Optional[QueryResult]) -> None:
    if result is None:
        return
    span.annotate("ok", result.ok)
    if result.ok:
        return
    error_type = (result.error or {}).get("type")
    if error_type:
        span.annotate("error_type", error_type)
    if error_type == "Timeout":
        span.event("deadline_exceeded")
    elif error_type == "Overloaded":
        span.event("shed")
    elif error_type == "WorkerCrashed":
        span.event("worker_crashed")


def finish_request(span: Span, ticket: Any, result: Optional[QueryResult]) -> None:
    """Close a root span from a micro-batch ticket's lifecycle stamps.

    Emits the ``plan`` / ``execute`` / ``respond`` children retrospectively —
    the ticket's monotonic stamps already delimit them exactly, so the hot
    path never touches the tracer.
    """
    state = _STATE
    enqueued = getattr(ticket, "enqueued_at", None)
    window_closed = getattr(ticket, "window_closed_at", None)
    planned = getattr(ticket, "planned_at", None)
    executed = getattr(ticket, "executed_at", None)
    responded = getattr(ticket, "responded_at", None)
    if getattr(ticket, "shed", False):
        span.event("shed", at=responded)
    window_size = getattr(ticket, "window_size", None)
    if window_size is not None:
        span.annotate("window_size", window_size)
        span.annotate("window_closed_by", getattr(ticket, "window_reason", None))

    def child(name: str, start: Optional[float], finish: Optional[float]) -> None:
        if start is None or finish is None:
            return
        state.tracer.start_span(
            name,
            trace_id=span.trace_id,
            parent_id=span.span_id,
            start=start,
            attrs=None,
        ).end(at=finish)

    child("plan", enqueued, planned)
    child("execute", planned, executed)
    child("respond", executed, responded)
    if window_closed is not None:
        span.event("window_closed", at=window_closed)
    _annotate_outcome(span, result)
    state.registry.inc("trace.requests_finished")
    if enqueued is not None and responded is not None:
        state.registry.observe("request.latency_ms", (responded - enqueued) * 1000.0)
    span.end(at=responded)


def record_request_tree(
    request: QueryRequest,
    result: Optional[QueryResult],
    *,
    admitted_at: float,
    planned_at: float,
    executed_at: float,
    responded_at: float,
) -> None:
    """One-shot root + plan/execute/respond tree from coarse timestamps.

    The file CLI has no per-request tickets — the whole stream shares one
    decode / dispatch / write timeline — so its spans are cut from the shared
    stamps instead.
    """
    if not _STATE.enabled or request.trace is None:
        return
    state = _STATE
    root = state.tracer.start_span(
        "request",
        trace_id=request.trace,
        span_id=root_span_id(request.trace),
        start=admitted_at,
        attrs={"kind": request.kind, "id": request.id, "tenant": request.tenant},
    )
    state.registry.inc("trace.requests_started")
    for name, start, finish in (
        ("plan", admitted_at, planned_at),
        ("execute", planned_at, executed_at),
        ("respond", executed_at, responded_at),
    ):
        state.tracer.start_span(
            name, trace_id=root.trace_id, parent_id=root.span_id, start=start
        ).end(at=finish)
    _annotate_outcome(root, result)
    state.registry.inc("trace.requests_finished")
    state.registry.observe("request.latency_ms", (responded_at - admitted_at) * 1000.0)
    root.end(at=responded_at)


def evaluate_span(request: QueryRequest) -> Any:
    """A session-evaluate span parented to the request's root (or a no-op)."""
    if not _STATE.enabled or request.trace is None:
        return NULL_SPAN
    return _STATE.tracer.start_span(
        "evaluate",
        trace_id=request.trace,
        parent_id=root_span_id(request.trace),
        attrs={"kind": request.kind, "id": request.id},
    )


def finish_evaluate(span: Any, result: Optional[QueryResult], prof: Optional[profiling.KernelProfile]) -> None:
    if span is NULL_SPAN:
        return
    if prof is not None:
        span.annotate("kernel", prof.as_dict())
    _annotate_outcome(span, result)
    span.end()


# ---------------------------------------------------------------------------
# Work units and escalations
# ---------------------------------------------------------------------------


@contextmanager
def work_unit(
    kind: str,
    *,
    method: str = "",
    gamma: int = 0,
    requests: int = 1,
    query_size: int = 0,
) -> Iterator[Optional[profiling.KernelProfile]]:
    """Profile one planner dispatch quantum and append its cost record.

    The record lands even when the wrapped kernel call raises (the fallback
    path still did the work), so "one record per executed work unit" holds
    under faults too.
    """
    if not _STATE.enabled:
        yield None
        return
    state = _STATE
    start = time.perf_counter()
    with profiling.profile() as prof:
        try:
            yield prof
        finally:
            wall_ms = (time.perf_counter() - start) * 1000.0
            kernel = prof.as_dict()
            state.cost_log.append(
                {
                    "kind": kind,
                    "method": method,
                    "gamma": gamma,
                    "requests": requests,
                    "query_size": query_size,
                    "kernel": kernel,
                    "wall_ms": round(wall_ms, 3),
                }
            )
            state.registry.inc("costlog.records")
            state.registry.observe("work_unit.wall_ms", wall_ms)
            for name, value in kernel.items():
                if value:
                    state.registry.inc(f"kernel.{name}", value)


def request_query_size(request: QueryRequest) -> int:
    """A size proxy for the request's question (AST nodes / FD count / rows)."""
    if request.query is not None:
        return request.query.left.size() + request.query.right.size()
    if request.left is not None and request.right is not None:
        return request.left.size() + request.right.size()
    if request.fds is not None:
        return len(request.fds) + (1 if request.target is not None else 0)
    if request.database is not None:
        return sum(len(relation.rows) for relation in request.database.relations)
    if request.pool is not None:
        return sum(expression.size() for expression in request.pool)
    return 0


def record_escalation(trace: Optional[str], step: str, reason: str, **attrs: Any) -> None:
    """One annotated instantaneous span per escalation step on a request.

    ``step`` is the ladder rung (``retry`` / ``split`` / ``quarantine`` /
    ``timeout``); the span parents to the affected request's root when the
    request carried a trace id.
    """
    if not _STATE.enabled:
        return
    state = _STATE
    span = state.tracer.start_span(
        "escalation",
        trace_id=trace if trace is not None else state.tracer.new_id("t"),
        parent_id=root_span_id(trace) if trace is not None else None,
        attrs={"step": step, "reason": reason, **attrs},
    )
    if step == "timeout":
        span.event("deadline_exceeded")
    span.end()
    state.registry.inc(f"supervisor.escalations.{step}")


def record_unit_dispatch(
    traces: Sequence[Optional[str]],
    *,
    worker: int,
    items: int,
    wall_ms: float,
    attempt: int,
) -> None:
    """One span per supervised work-unit round trip, parented to its first
    traced request's root (the others are listed in the attrs)."""
    if not _STATE.enabled:
        return
    state = _STATE
    traced = [trace for trace in traces if trace]
    parent_trace = traced[0] if traced else None
    span = state.tracer.start_span(
        "work_unit_dispatch",
        trace_id=parent_trace if parent_trace is not None else state.tracer.new_id("t"),
        parent_id=root_span_id(parent_trace) if parent_trace is not None else None,
        start=time.perf_counter() - wall_ms / 1000.0,
        attrs={"worker": worker, "items": items, "attempt": attempt, "traces": traced},
    )
    span.end()
    state.registry.inc("supervisor.units_dispatched")
    state.registry.observe("unit_dispatch.wall_ms", wall_ms)


# ---------------------------------------------------------------------------
# Cross-process transport and export
# ---------------------------------------------------------------------------


def drain_for_reply() -> Dict[str, list]:
    """Worker side: pack buffered spans and cost records into a reply info dict."""
    if not _STATE.enabled:
        return {}
    payload: Dict[str, list] = {}
    spans = _STATE.tracer.drain()
    if spans:
        payload["spans"] = spans
    records = _STATE.cost_log.drain()
    if records:
        payload["cost"] = records
    return payload


def adopt_reply(info: dict) -> None:
    """Parent side: absorb a worker reply's spans/cost into this process.

    Pops the telemetry keys out of ``info`` so downstream consumers see only
    the keys they already expect.
    """
    spans = info.pop("spans", None)
    cost = info.pop("cost", None)
    if not _STATE.enabled:
        return
    state = _STATE
    if spans:
        state.tracer.adopt(spans)
    if cost:
        state.cost_log.extend(cost)
        state.registry.inc("costlog.records", len(cost))
        for record in cost:
            kernel = record.get("kernel") if isinstance(record, dict) else None
            if isinstance(kernel, dict):
                for name, value in kernel.items():
                    if isinstance(value, int) and value:
                        state.registry.inc(f"kernel.{name}", value)
            wall = record.get("wall_ms") if isinstance(record, dict) else None
            if isinstance(wall, (int, float)):
                state.registry.observe("work_unit.wall_ms", float(wall))


def metrics_export() -> dict:
    """The one deterministic metrics document (ready for canonical JSON)."""
    document = _STATE.registry.export()
    document["trace"] = _STATE.tracer.snapshot()
    document["costlog"] = _STATE.cost_log.snapshot()
    return document


def flush(directory: Optional[str] = None) -> Optional[Dict[str, int]]:
    """Append buffered telemetry to the metrics directory's JSONL files.

    Writes ``trace.jsonl`` (one span per line), ``costlog.jsonl`` (one work
    unit per line), and ``metrics.jsonl`` (one registry snapshot per flush).
    Returns per-file appended counts, or ``None`` when no directory is
    configured.
    """
    target = Path(directory) if directory else _STATE.metrics_dir
    if target is None:
        return None
    with _FLUSH_LOCK:
        target.mkdir(parents=True, exist_ok=True)
        spans = _STATE.tracer.drain()
        records = _STATE.cost_log.drain()
        if spans:
            with (target / "trace.jsonl").open("a", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(canonical_dumps(span) + "\n")
        if records:
            with (target / "costlog.jsonl").open("a", encoding="utf-8") as handle:
                for record in records:
                    handle.write(canonical_dumps(record) + "\n")
        with (target / "metrics.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(canonical_dumps(metrics_export()) + "\n")
    return {"spans": len(spans), "cost": len(records)}
