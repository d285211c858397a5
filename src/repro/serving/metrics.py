"""Serving metrics: latency histograms, throughput, batch shape and SLOs.

What is emitted is written once, in
:mod:`repro.serving.observability.catalogue` (one ``Metric`` row per key
of a stats document), and this module *decodes* the table:
:class:`ServerStats` is generated from the server rows, a
:class:`_Collector` holds, zeroes and serializes what its scope's rows
say, the percentile / mean keys are read off the histograms in the one
:func:`_view` live and merged state alike serialize through, and
:func:`merge_server_stats` merges replica snapshots row by row under each
row's rule.

Recording stays negligible next to even a single-sample inference: one
lock, a few counters and constant-memory log-linear
:class:`~repro.serving.observability.LatencyHistogram` collectors —
mergeable, exact counts, bounded relative error; not a fixed-size sample
window, which a burst would flush of its steady-state tail.  A fact is
recorded once, at the finest scope that has it: requests, latencies, swaps
and stage counters land in their deployment's collector only, and the
server-wide value is the deployments' merge at snapshot time.

Every mutable collector lives behind a single lock, which
:meth:`ServingMetrics.snapshot` acquires exactly once (see there: no torn
request/latency pairs; atomic snapshot-and-reset for per-interval reporting).
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import defaultdict
from dataclasses import asdict, field, make_dataclass
from functools import reduce
from typing import Callable, Dict, Iterable, Optional

from repro.serving.observability.catalogue import ROWS, Metric, emit
from repro.serving.observability.histogram import LatencyHistogram

__all__ = ["ServerStats", "ServingMetrics", "merge_server_stats", "percentile"]


def percentile(values: Iterable[float], p: float) -> float:
    """The p-th percentile (nearest-rank) of a collection of samples.

    The exact-samples reference the histogram quantiles are tested
    against; still used wherever the full sample set is at hand.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# -- the table, decoded: state <-> view, derive, merge ---------------------------

#: Per scope, the rows a state holds — every row but the ``derived`` ones.
_RECORDED = {
    scope: tuple(row for row in rows if row.merge != "derived") for scope, rows in ROWS.items()
}

_ZERO = {"counter": int, "gauge": float, "histogram": LatencyHistogram, "ledger": dict}


def _zero(row: Metric):
    """A row's value before anything is recorded."""
    return {} if row.merge in ("nested", "replica") else _ZERO.get(row.kind, type(None))()


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


_RATIOS: Dict[str, Callable[[dict], float]] = {
    "mean_batch_size": lambda s: _ratio(s["requests"], s["batches"]),
    "cache_hit_rate": lambda s: _ratio(s["cache_hits"], s["cache_hits"] + s["cache_misses"]),
    "mean_ms": lambda s: _ratio(s["seconds"], s["executions"], 1e3),
}


def _formula(key: str) -> Callable[[dict], float]:
    """How one ``derived`` row reads off the state it restates: a histogram's
    percentile or exact mean (``sum / count``: no bucket error), or a ratio."""
    match = re.fullmatch(r"(\w+)_p(\d+)_ms|mean_(\w+)_ms", key)
    if match is None:
        return _RATIOS[key]
    histogram, p, mean_of = match.groups()
    if mean_of:
        return lambda state: state[mean_of].mean * 1e3
    p = int(p)
    return lambda state: state[histogram].percentile(p) * 1e3


_DERIVED = {
    scope: tuple((row.key, _formula(row.key)) for row in rows if row.merge == "derived")
    for scope, rows in ROWS.items()
}


def _export(row: Metric) -> Optional[Callable]:
    """How one recorded row's value serializes into its view — ``None`` for
    an immutable scalar, which :func:`_view`'s one ``dict(state)`` copies."""
    if row.kind == "histogram":
        return LatencyHistogram.to_dict
    if row.merge == "nested":
        return lambda slots: {name: _view(row.kind, slot) for name, slot in slots.items()}
    if row.kind == "ledger" or row.kind in ROWS:  # a dict its collector goes on mutating
        return lambda value: None if value is None else dict(value)
    return None


#: Per scope, the rows that need serializing (a ``stage_profile`` slot has none).
_EXPORTS = {
    scope: tuple((row, _export(row)) for row in rows if _export(row))
    for scope, rows in _RECORDED.items()
}


def _view(scope: str, state: dict) -> dict:
    """Serialize one scope's state — live or merged, it holds exactly the
    scope's recorded rows — into its view: histograms, nested states and
    mutable ledgers serialized to where their row puts them, then the
    ``derived`` rows computed off the state."""
    view = dict(state)
    for row, export in _EXPORTS[scope]:
        row.write(view, export(view.pop(row.key)))
    for key, formula in _DERIVED[scope]:
        view[key] = formula(state)
    return view


def _parse(scope: str, view: dict) -> dict:
    """The state behind one serialized view (``None`` where it has no value)."""
    state: dict = {}
    for row in _RECORDED[scope]:
        value = row.read(view)
        if row.kind == "histogram":
            value = LatencyHistogram.from_dict(value) if value else None
        elif row.merge == "nested":
            value = {name: _parse(row.kind, nested) for name, nested in (value or {}).items()}
        state[row.key] = value
    return state


def _by_key(collections: list) -> Dict[str, list]:
    """``{key: [each collection's entry, in order]}`` over dicts."""
    entries: Dict[str, list] = {}
    for collection in collections:
        for key, entry in collection.items():
            entries.setdefault(key, []).append(entry)
    return entries


#: ``Metric.merge`` -> ``(row, values) -> merged value``; ``values`` are the
#: states' values that are not ``None``, in order.
_MERGE: Dict[str, Callable[[Metric, list], object]] = {
    "sum": lambda row, values: sum(values) if values else _zero(row),
    "max": lambda row, values: max(values, default=_zero(row)),
    "first": lambda row, values: values[0] if values else None,
    "last": lambda row, values: {key: e[-1] for key, e in _by_key(values).items()},
    # Group quantiles come from the merged histogram — never from averaging
    # per-replica percentiles, which is statistically meaningless.
    "histogram": lambda row, values: reduce(LatencyHistogram.merge, values, LatencyHistogram()),
    "ledger": lambda row, values: {key: sum(e) for key, e in _by_key(values).items()},
    "nested": lambda row, values: {
        name: _merge(_RECORDED[row.kind], states) for name, states in _by_key(values).items()
    },
    "replica": lambda row, values: {},  # kept apart: filled in by merge_server_stats
}


def _merge(rows: Iterable[Metric], states: list) -> dict:
    """Merge states row by row, each row under its rule."""
    return {
        row.key: _MERGE[row.merge](row, [v for s in states if (v := s.get(row.key)) is not None])
        for row in rows
    }


def merge_server_stats(snapshots: Iterable) -> dict:
    """Merge per-replica :class:`ServerStats` snapshots into one group view.

    The input is what a replica group hands out — one snapshot per
    replica, *by position*, as :class:`ServerStats` instances or their
    ``to_dict()`` forms, ``None`` for a dead or unreachable replica
    (skipped, its position still counted).  The output is a
    ``to_dict()``-shaped dict plus ``replicas``, the number of snapshots
    merged, each key under its catalogue row's rule: throughput sums
    (replicas serve concurrently), ``version`` is the max (the
    group-converged one) while ``requests_by_version`` keeps a stale
    replica's old-version traffic visible.  ``tools/scrape_stats.py
    --replica`` emits this and ``tests/test_serving_machine.py`` checks it.
    """
    # Numbered before the dead are skipped: r<i> is the replica's stable index.
    views = {i: s.to_dict() if hasattr(s, "to_dict") else s for i, s in enumerate(snapshots)}
    views = {index: view for index, view in views.items() if view is not None}
    state = _merge(_RECORDED["server"], [_parse("server", view) for view in views.values()])
    for row in _RECORDED["server"]:
        if row.merge == "replica":
            for index, view in views.items():
                value = view.get(row.key) or {}
                if row.kind in ROWS:  # a collection of views: each keeps its own name
                    value = {f"r{index}/{name}": nested for name, nested in value.items()}
                elif value:
                    value = {f"r{index}": value}
                state[row.key].update(value)
    return {**_view("server", state), "replicas": len(views)}


# -- ServerStats, generated from the server rows ---------------------------------


class _StatsView:
    """An immutable snapshot of one server's activity: one field per
    ``server`` row of the catalogue (docs/SERVING.md lists them).

    Latencies are request latencies — enqueue to result, so they include
    the micro-batching wait — in milliseconds.  Requests shed with
    :class:`~repro.serving.batching.DeadlineExceeded` before execution
    count in ``deadline_exceeded`` only, neither in ``requests`` nor in
    ``failures``.
    """

    def to_dict(self) -> dict:
        """A JSON-serializable ``dict`` view (used by the network transport):
        ledger keys (``batch_size_histogram``'s sizes) become strings."""
        data = asdict(self)
        for row in ROWS["server"]:
            if row.merge == "ledger":
                data[row.key] = {str(key): count for key, count in data[row.key].items()}
        return data

    def __repr__(self) -> str:
        return (
            f"ServerStats(requests={self.requests}, batches={self.batches}, "
            f"mean_batch={self.mean_batch_size:.1f}, p50={self.latency_p50_ms:.2f}ms, "
            f"p99={self.latency_p99_ms:.2f}ms, {self.throughput_rps:.0f} req/s, "
            f"shed={self.deadline_exceeded}, slo_violations={self.slo_violations}, "
            f"cache={self.cache_hits}/{self.cache_hits + self.cache_misses})"
        )


_FIELD_TYPES = {"counter": int, "gauge": float}

ServerStats = make_dataclass(
    "ServerStats",
    [
        (row.path[0], kind := _FIELD_TYPES.get(row.kind, dict), field(default_factory=kind))
        for row in ROWS["server"]
    ],
    bases=(_StatsView,),
    frozen=True,
    repr=False,
    namespace={"__doc__": _StatsView.__doc__, "__module__": __name__},
)


# -- collectors -------------------------------------------------------------------

#: The server rows a deployment also keeps: recorded per model only, the
#: server's value is the models' merge (plus what no model could be named for).
_SHARED = [row for row in _RECORDED["server"] if any(row.key == r.key for r in _RECORDED["model"])]

#: The server rows sampled off the compile cache: ``cache_<x>`` is ``CacheStats.<x>``.
_CACHE_ROWS = [row.key for row in _RECORDED["server"] if row.key.startswith("cache_")]


class _Collector(dict):
    """One view's recorded state, ``{row key: value}``, guarded by its
    owner's lock: what it holds and how it zeroes are its scope's rows."""

    def __init__(self, scope: str, **labels):
        super().__init__({row.key: _zero(row) for row in _RECORDED[scope]}, **labels)
        self.scope = scope

    def reset(self) -> None:
        """Zero the interval; rows describing what is installed are kept."""
        self.update({row.key: _zero(row) for row in _RECORDED[self.scope] if not row.keeps})


def _slot(slots: Dict[str, _Collector], key: str, scope: str, **labels) -> _Collector:
    """The slot kept under ``key``: created zeroed, with its labels, on first use."""
    if key not in slots:
        slots[key] = _Collector(scope, **labels)
    return slots[key]


def _emit_fallbacks(model: str, changed: dict) -> None:
    for stage, reason in changed.items():  # once per new reason, not per batch
        emit("gate_fallback", model=model, stage=stage, reason=reason)


class ServingMetrics:
    """Mutable, thread-safe collectors behind :class:`ServerStats`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._server = _Collector("server")
        self._models: Dict[str, _Collector] = defaultdict(lambda: _Collector("model"))
        self._started = time.monotonic()

    def set_slo(self, model: str, slo_ms: Optional[float]) -> None:
        """Set (or clear, with ``None``) one deployment's latency SLO."""
        with self._lock:
            self._models[model]["slo_ms"] = slo_ms

    def record_requests(
        self, model: str, segments: list, execute_seconds: float, version: Optional[int] = None
    ) -> list:
        """Account one executed batch — its requests with their latency
        split — under one lock acquisition.

        ``segments`` holds one ``(latency, queue_wait, rows)`` per segment
        (seconds; a segment's rows share both), recorded as ``rows``
        observations; ``execute_seconds`` is the batch's shared time inside
        the worker; ``version`` is the deployment version that executed it
        (``requests_by_version``: a hot-swap's cutover, in-flight tail included).

        Returns the indices of the segments that violated the deployment's
        SLO (each row one violation), so the broker's resolve path can mark
        their traces for tail-based retention without re-deriving the threshold.
        """
        with self._lock:
            return self._requests(self._models[model], segments, execute_seconds, version)

    def record_execution(
        self,
        model: str,
        notes: dict,
        bucket: int,
        segments: Optional[list] = None,
        execute_seconds: float = 0.0,
        version: Optional[int] = None,
    ) -> list:
        """Account one execution in one metrics round, fed from its
        ``ExecutionReport.notes`` after every run a worker makes: its
        vectorized-vs-fallback stage split (``stage_vectorized``,
        ``stage_fallbacks``, ``stage_fallback_reasons``), so operators can
        see per deployment when a model's batched route silently degrades
        to the per-row loop and why; its executor profile
        (``stage_profile``, one record per stage / parallel-map run: wall
        and gate seconds, route) folded into per-(stage, ``bucket``)
        slots; and, for the run that settles a batch, the batch's
        ``segments`` (as :meth:`record_requests`, whose SLO-violating
        indices it returns).  A ``gate_fallback`` event is emitted once per
        new reason, after the lock is released."""
        with self._lock:
            collector = self._models[model]
            changed = self._stage_counters(
                collector,
                notes.get("stage_vectorized", 0),
                notes.get("stage_fallbacks", 0),
                notes.get("stage_fallback_reasons"),
            )
            self._stage_profile(collector, bucket, notes.get("stage_profile"))
            violated = []
            if segments is not None:
                violated = self._requests(collector, segments, execute_seconds, version)
        _emit_fallbacks(model, changed)
        return violated

    # The bodies of the rounds above, called under ``_lock``.
    def _requests(self, collector: _Collector, segments: list, execute_seconds: float, version) -> list:
        n = 0
        for seconds, waited, rows in segments:
            collector["latency"].record(seconds, rows)
            collector["queue_wait"].record(waited, rows)
            n += rows
        self._server["batches"] += 1
        sizes = self._server["batch_size_histogram"]
        sizes[n] = sizes.get(n, 0) + 1
        collector["requests"] += n
        collector["execute"].record(execute_seconds, count=n)
        if version is not None:
            collector["version"] = max(collector["version"] or version, version)
            by_version = collector["requests_by_version"]
            by_version[str(int(version))] = by_version.get(str(int(version)), 0) + n
        if collector["slo_ms"] is None:
            return []
        slo = collector["slo_ms"] / 1e3
        violated = [index for index, (seconds, _, _) in enumerate(segments) if seconds > slo]
        collector["slo_violations"] += sum(segments[index][2] for index in violated)
        return violated

    @staticmethod
    def _stage_counters(collector: _Collector, vectorized: int, fallbacks: int, reasons) -> dict:
        """The split counted; returns the fallback reasons new to ``collector``."""
        if not vectorized and not fallbacks:
            return {}
        collector["vectorized_stages"] += int(vectorized)
        collector["fallback_stages"] += int(fallbacks)
        known = collector["stage_fallback_reasons"]
        changed = {s: why for s, why in (reasons or {}).items() if known.get(s) != why}
        known.update(changed)
        return changed

    @staticmethod
    def _stage_profile(collector: _Collector, bucket: int, entries) -> None:
        slots, bucket = collector["stage_profile"], int(bucket)
        for entry in entries or ():
            stage = str(entry.get("stage", "?"))
            slot = _slot(slots, f"{stage}@b{bucket}", "stage", stage=stage, bucket=bucket)
            slot["executions"] += 1
            slot["seconds"] += float(entry.get("seconds", 0.0))
            slot["gate_seconds"] += float(entry.get("gate_seconds", 0.0))
            route = entry.get("route")
            if route == "vectorized":
                slot["vectorized"] += 1
            elif route in ("fallback", "per-row"):
                slot["fallbacks"] += 1

    def record_swap(self, model: str, version: int) -> None:
        """Account one hot-swap: ``model`` now serves ``version``.  Recorded
        when the broker installs the replacement queue, so a snapshot that
        shows the new version may still show in-flight requests settling
        against the previous one (``requests_by_version`` keeps both)."""
        with self._lock:
            collector = self._models[model]
            collector["swaps"] += 1
            collector["version"] = max(collector["version"] or version, version)

    def record_residency(self, model: str, residency: Optional[dict]) -> None:
        """Record (or clear, with ``None``) a deployment's packed residency.
        Called by the broker whenever a deployment is installed — first
        registration and every hot-swap, which replaces the whole document
        — so the snapshot always describes the constants now resident."""
        with self._lock:
            self._models[model]["residency"] = dict(residency) if residency is not None else None

    def record_swap_round(self, model: str, kind: str, phases: Dict[str, float]) -> None:
        """Account one swap round (``kind``: update / append) and where its
        time went: ``phases`` maps each phase to its seconds and tiles it."""
        with self._lock:
            collector = self._models[model]
            collector["swap_round"].record(sum(phases.values()))
            slots = collector["swap_profile"]
            for phase, seconds in phases.items():
                slot = _slot(slots, f"{kind}/{phase}", "swap_phase", kind=kind, phase=phase)
                slot["rounds"] += 1
                slot["seconds"] += seconds

    def record_failure(self, count: int = 1, model: Optional[str] = None) -> None:
        """Account failed requests — once, at the finest scope known: the
        deployment's collector when the caller can name it, else the server's."""
        with self._lock:
            (self._server if model is None else self._models[model])["failures"] += count

    def record_expired(self, count: int = 1, model: Optional[str] = None) -> None:
        """Account requests shed with ``DeadlineExceeded`` before execution
        (against ``model`` when the caller can name it)."""
        with self._lock:
            (self._server if model is None else self._models[model])["deadline_exceeded"] += count

    def reset(self) -> None:
        """Zero every row not marked ``keeps`` and restart the uptime /
        throughput clock: ``snapshot(reset=True)`` with the snapshot dropped
        (keep it for scrape-then-reset reporting)."""
        self.snapshot(reset=True)

    def snapshot(
        self, cache=None, workers: Optional[Iterable] = None, scheduler=None, reset: bool = False
    ) -> ServerStats:
        """Produce an immutable snapshot, optionally folding in cache, worker
        and fair-scheduler state (``scheduler``: a scheduler, or its lane
        stats as a dict).

        That state is sampled first (each has its own synchronization); the
        metrics lock is then acquired exactly once, so the request counters,
        histograms and per-model splits are mutually consistent even under
        concurrent writers.  ``reset=True`` zeroes the window under the
        *same* acquisition (atomic scrape-then-reset): requests recorded
        after the snapshot land in the next interval instead of vanishing
        between separate ``snapshot()`` / ``reset()`` calls.
        """
        sampled: dict = {}
        if cache is not None:
            sampled.update((key, getattr(cache.stats, key[len("cache_"):])) for key in _CACHE_ROWS)
        if workers is not None:
            views = sampled["worker_stats"] = {worker.name: worker.stats() for worker in workers}
            sampled["elided_transfers"] = sum(v.get("elided_transfers", 0) for v in views.values())
        if scheduler is not None:
            sampled["scheduler_stats"] = scheduler if isinstance(scheduler, dict) else scheduler.stats()
        with self._lock:
            uptime = time.monotonic() - self._started
            state = {**self._server, **_merge(_SHARED, [self._server, *self._models.values()])}
            state.update(sampled, model_stats=self._models, uptime_seconds=uptime)
            state["throughput_rps"] = _ratio(state["requests"], uptime)
            stats = ServerStats(**_view("server", state))
            if reset:
                for collector in (self._server, *self._models.values()):
                    collector.reset()
                self._started = time.monotonic()
        return stats
