"""Per-request tracing for the serving pipeline.

A :class:`TraceContext` is minted per request at the front end (the
transport's ``infer`` op, or :meth:`RequestBroker.submit_many` — one per
row — for in-process callers) and rides its row's
:class:`~repro.serving.batching.Segment` through every pipeline stage.
Each stage closes one **contiguous span** with :meth:`TraceContext.step`:
the span starts where the previous one ended, so the top-level spans
tile the request's lifetime exactly —
summing their self-times reproduces the end-to-end latency by
construction, which is what makes a trace trustworthy as a latency
breakdown.

The span chain of a served request::

    queue    enqueue -> a free worker takes the request's released batch
    batch    take    -> the batch's work item and shared marks are built
    schedule built   -> the batch is handed out (a sharded one to its
                        pinned workers' inboxes)
    dispatch hand-out -> its worker starts executing (a shard: inbox wait)
    execute  start   -> program run + postprocess + slice complete
      stage:<label>    per-stage child spans from the executor profile
                       (vectorized-vs-fallback route, gate-check time)
    settle   execute -> the batch is accounted; its completions fire next
    transport settle -> the socket front end writes the response
                       (only on traced network requests)

A hot-swap retry (``BatcherClosed`` on submit) records a ``retry`` span
on the *same* trace, so the retried request stays one causal story; a
shed or failed request keeps its partial chain and is marked failed.

Completed traces land in a :class:`RequestTracer` — two bounded rings
with **tail-based sampling**: retention is decided at completion time,
errors and SLO violators are *always* kept (their ring cannot be evicted
by a flood of healthy traces), and healthy traces are down-sampled
1-in-``sample_every``.  Memory stays bounded no matter the request rate.

Export: :func:`chrome_trace` converts trace dicts into the Chrome
trace-event JSON format (load in ``chrome://tracing`` or Perfetto), in
process or over the wire (``ServingClient.traces``).
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "TraceContext",
    "RequestTracer",
    "chrome_trace",
    "SharedMarks",
]

#: Process-unique prefix so trace ids from different serving processes
#: never collide when dumped into one file.
_SESSION_PREFIX = secrets.token_hex(4)
_TRACE_COUNTER = itertools.count(1)


class Span:
    """One named interval inside a trace (monotonic seconds)."""

    __slots__ = ("name", "start", "end", "meta")

    def __init__(self, name: str, start: float, end: float, meta: Optional[dict] = None):
        self.name = name
        self.start = start
        self.end = end
        self.meta = meta or {}

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration * 1e3,
            "meta": dict(self.meta),
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms)"


class TraceContext:
    """The per-request span recorder threaded through the pipeline.

    Spans are recorded with a **cursor**: :meth:`step` closes the span
    from the previous mark to now, so consecutive steps tile the
    request's lifetime with no gaps or overlaps.  Child spans that nest
    inside a step (per-stage execution) are recorded with :meth:`span`
    and do not move the cursor.

    The request moves through the pipeline one stage at a time, so steps
    are naturally serialized; no lock is needed.

    Recording is kept cheap on purpose — tail-based sampling means
    *every* request records its chain even though most are discarded at
    completion, so the record path is on the serving hot path.  Marks
    are appended as raw tuples — or, for the steps a whole executed batch
    crosses together, as one reference to the batch's
    :class:`SharedMarks` — and :class:`Span` objects (cursor walk
    included) are only materialized lazily for the traces that survive
    retention; the trace id is likewise minted on first use.
    """

    __slots__ = ("model", "started_at", "error", "slo_violated", "owner", "_id", "_marks", "_built")

    #: Mark kinds in the raw record stream.
    _STEP, _CHILD = 0, 1

    def __init__(
        self,
        model: str,
        trace_id: Optional[str] = None,
        started_at: Optional[float] = None,
        owner=None,
    ):
        now = time.monotonic() if started_at is None else started_at
        self._id = trace_id
        self.model = model
        self.started_at = now
        self.error: Optional[str] = None
        self.slo_violated = False
        #: The :class:`RequestTracer` responsible for finishing this
        #: trace when its request settles, or ``None`` when the caller
        #: (e.g. the transport front end) owns completion.  Settling a
        #: broker-owned trace in-line at the resolve site is ~1.4us
        #: cheaper per request than a future done-callback.
        self.owner = owner
        #: (kind, name, start-or-None, end, meta) raw marks in record
        #: order; a :class:`SharedMarks` entry stands for the marks inside it.
        self._marks: list = []
        self._built: Optional[List[Span]] = None

    @property
    def trace_id(self) -> str:
        if self._id is None:
            self._id = f"{_SESSION_PREFIX}-{next(_TRACE_COUNTER):08x}"
        return self._id

    # -- recording ----------------------------------------------------------------
    def step(self, name: str, now: Optional[float] = None, **meta) -> None:
        """Close the contiguous span from the previous mark to ``now``."""
        self._marks.append(
            (TraceContext._STEP, name, None, time.monotonic() if now is None else now, meta or None)
        )
        self._built = None

    def span(self, name: str, start: float, end: float, **meta) -> None:
        """Record an explicit (nested) span without moving the cursor."""
        self._marks.append((TraceContext._CHILD, name, start, end, meta or None))
        self._built = None

    def fail(self, reason: str) -> None:
        """Mark the trace failed (first reason wins).

        The chain recorded so far is frozen: a request that dies alone
        (a deadline shed) must not grow the steps its batch mates go on
        to share.
        """
        if self.error is None:
            self.error = str(reason)
            self._marks = list(self._flat_marks())

    def finish_owned(self) -> None:
        """Finish with the owning tracer, if the broker owns this trace.

        Clears :attr:`owner` first so every settle site can call this
        unconditionally without risking a double finish; a no-op for
        caller-owned traces.
        """
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner.finish(self)

    # -- views --------------------------------------------------------------------
    def _flat_marks(self):
        for mark in self._marks:
            if type(mark) is tuple:
                yield mark
            else:
                yield from mark

    @property
    def spans(self) -> List[Span]:
        """The recorded spans, materialized from the raw marks.

        Steps replay the cursor walk (each closes the interval from the
        previous step's end), children keep their explicit bounds; the
        original record order is preserved.
        """
        if self._built is None:
            cursor = self.started_at
            built: List[Span] = []
            for kind, name, start, end, meta in self._flat_marks():
                if kind == TraceContext._STEP:
                    built.append(Span(name, cursor, end, meta))
                    cursor = end
                else:
                    built.append(Span(name, start, end, meta))
            self._built = built
        return self._built

    @property
    def finished_at(self) -> float:
        return max((mark[3] for mark in self._flat_marks()), default=self.started_at)

    @property
    def duration(self) -> float:
        """End-to-end seconds covered by the recorded spans."""
        return max(0.0, self.finished_at - self.started_at)

    def span_names(self) -> List[str]:
        return [span.name for span in self.spans]

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "model": self.model,
            "started_at": self.started_at,
            "duration_ms": self.duration * 1e3,
            "error": self.error,
            "slo_violated": self.slo_violated,
            "spans": [span.to_dict() for span in self.spans],
        }

    def __repr__(self) -> str:
        return (
            f"TraceContext({self.trace_id}, model={self.model!r}, "
            f"spans={self.span_names()}, {self.duration * 1e3:.2f}ms)"
        )


class SharedMarks(list):
    """The marks every traced request of one executed batch shares.

    Every request in a batch crosses each pipeline boundary at the same
    instant, so the batch records ONE list of marks: each request's
    trace references it once (at construction, in place in its own mark
    stream), and every later step is a single append however many
    requests ride the batch.  Marks are immutable tuples; export copies
    the meta.
    """

    def __init__(self, traces):
        super().__init__()
        for trace in traces:
            trace._marks.append(self)

    def step(self, name: str, end: float, meta: Optional[dict] = None) -> None:
        """Close the contiguous span ending at ``end`` on every trace."""
        self.append((TraceContext._STEP, name, None, end, meta))

    def child(self, name: str, start: float, end: float, meta: Optional[dict] = None) -> None:
        """Record one nested child span on every trace."""
        self.append((TraceContext._CHILD, name, start, end, meta))


class RequestTracer:
    """Bounded trace retention with tail-based sampling.

    Two rings of ``capacity`` traces each: completed traces that failed
    or violated their deployment's SLO always land in the *retained*
    ring; healthy traces are sampled 1-in-``sample_every`` into the
    *sampled* ring.  Keeping the rings separate means a flood of healthy
    traffic can never evict the violations an operator is debugging,
    while total memory stays at most ``2 * capacity`` traces.
    """

    def __init__(self, capacity: int = 512, sample_every: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.capacity = int(capacity)
        self.sample_every = int(sample_every)
        self._lock = threading.Lock()
        self._sampled: deque = deque(maxlen=self.capacity)
        self._retained: deque = deque(maxlen=self.capacity)
        self._healthy_seen = 0
        #: Lifetime counters (not windowed): traces started / finished /
        #: kept past sampling.
        self.started = 0
        self.finished = 0
        self.kept = 0

    # -- lifecycle of one trace ---------------------------------------------------
    def begin(self, model: str, trace_id: Optional[str] = None) -> TraceContext:
        """Mint the trace context for one request.

        Lock-free: begin/finish run once per request on the serving hot
        path, so the counters are plain increments — bounded-ring
        appends are atomic under the GIL, and a (rare) racy increment
        only drifts the advisory telemetry counters, never the traces.
        """
        self.started += 1
        return TraceContext(model, trace_id=trace_id)

    def begin_many(self, model: str, count: int) -> List[TraceContext]:
        """Mint the contexts of one caller batch: one start timestamp,
        each owned (finished when its request settles) by this tracer."""
        self.started += count
        now = time.monotonic()
        return [TraceContext(model, None, now, self) for _ in range(count)]

    def finish(self, trace: TraceContext) -> bool:
        """Tail-based retention decision; returns whether the trace was kept."""
        return self.finish_many((trace,)) == 1

    def finish_many(self, traces) -> int:
        """The retention decisions of one settled batch; returns how many
        traces were kept.  Failed or SLO-violating traces are always
        retained; healthy ones are sampled 1-in-``sample_every`` by their
        running count, exactly as if finished one by one."""
        self.finished += len(traces)
        flagged = [t for t in traces if t.error is not None or t.slo_violated]
        if flagged:
            self._retained.extend(flagged)
            traces = [t for t in traces if t.error is None and not t.slo_violated]
        sampled = traces[-self._healthy_seen % self.sample_every :: self.sample_every]
        self._healthy_seen += len(traces)
        self._sampled.extend(sampled)
        self.kept += len(flagged) + len(sampled)
        return len(flagged) + len(sampled)

    # -- export -------------------------------------------------------------------
    def traces(self, limit: Optional[int] = None, clear: bool = False) -> List[dict]:
        """Retained traces as JSON-safe dicts, oldest first.

        ``limit`` keeps the most recent N; ``clear`` empties both rings
        after the read (the scrape-then-clear idiom for trace dumps).
        """
        with self._lock:
            items = list(self._retained) + list(self._sampled)
            if clear:
                self._retained.clear()
                self._sampled.clear()
        items.sort(key=lambda trace: trace.started_at)
        if limit is not None and limit >= 0:
            items = items[-int(limit):]
        return [trace.to_dict() for trace in items]

    def clear(self) -> None:
        with self._lock:
            self._retained.clear()
            self._sampled.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._retained) + len(self._sampled)

    def stats(self) -> dict:
        with self._lock:
            return {
                "started": self.started,
                "finished": self.finished,
                "kept": self.kept,
                "buffered": len(self._retained) + len(self._sampled),
                "capacity": self.capacity,
                "sample_every": self.sample_every,
            }

    def __repr__(self) -> str:
        return f"RequestTracer(buffered={len(self)}, capacity={self.capacity})"


def chrome_trace(traces: List[dict]) -> dict:
    """Convert trace dicts into a Chrome trace-event JSON document.

    Each trace becomes one virtual thread of complete (``ph: "X"``)
    events; load the written file in ``chrome://tracing`` or Perfetto.
    Timestamps are the traces' monotonic clocks converted to µs — the
    absolute origin is arbitrary, relative placement is exact.
    """
    events: List[dict] = []
    for tid, trace in enumerate(traces, start=1):
        label = f"{trace.get('model', '?')} {trace.get('trace_id', '')}".strip()
        if trace.get("error"):
            label += " [error]"
        elif trace.get("slo_violated"):
            label += " [slo]"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": label},
            }
        )
        for span in trace.get("spans", ()):
            args: Dict[str, object] = {"trace_id": trace.get("trace_id")}
            args.update(span.get("meta") or {})
            events.append(
                {
                    "name": span["name"],
                    "cat": "serving",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": span["start"] * 1e6,
                    "dur": max(0.0, span["end"] - span["start"]) * 1e6,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
