"""Serving metrics: latency histograms, throughput, batch shape and SLOs.

The collectors are deliberately lightweight (one lock, a few counters and
constant-memory log-linear histograms) so that recording stays negligible
next to even a single-sample inference.  :meth:`ServingMetrics.snapshot`
folds in the compiled-program cache statistics and per-worker counters to
produce one immutable :class:`ServerStats` view, which is what
:meth:`repro.serving.server.InferenceServer.stats` returns.

Latency quantiles are derived from
:class:`~repro.serving.observability.LatencyHistogram` — mergeable
log-linear histograms with exact counts and bounded relative error
(default ±5%) — instead of a fixed-size sample window.  A raw window
silently forgets everything older than its last N samples, so a burst
would evict the steady-state tail and bias p99 for as long as the burst
fills the window; histograms keep *every* observation's bucket, so the
reported quantiles cover the whole interval at constant memory.  The
serialized histograms ride along in ``to_dict()`` (``latency_histogram``
and ``model_stats[name]["histograms"]``) for remote aggregation, the
Prometheus exposition and ``tools/scrape_stats.py`` quantile thresholds.

Request latency is split per deployment into its two components:

* **queue wait** — enqueue until a worker thread starts executing the
  request's batch (micro-batching wait + fair-scheduler queueing + worker
  FIFO time), and
* **execute** — the batch's time inside the worker (program execution
  plus postprocess/slice).

Each deployment may carry an optional **SLO threshold**: served requests
whose end-to-end latency exceeds it are counted in
``model_stats[name]["slo_violations"]`` (deadline sheds are accounted
separately in ``deadline_exceeded``).

Long-running servers report per-interval numbers with the reset idiom::

    stats = server.stats()       # publish the interval snapshot
    server.reset_stats()         # start the next interval at zero

Every mutable collector lives behind a single lock and :meth:`snapshot`
acquires it exactly once, so a snapshot taken under concurrent writers is
internally consistent (no torn request/latency pairs).
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Optional

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


@dataclass(frozen=True)
class ServerStats:
    """An immutable snapshot of one server's activity.

    Latencies are request latencies — enqueue to result, so they include
    the micro-batching wait — in milliseconds.  ``deadline_exceeded``
    counts requests shed with :class:`~repro.serving.batching
    .DeadlineExceeded` before execution (not included in ``requests`` or
    ``failures``), ``scheduler_stats`` carries the
    :class:`~repro.serving.scheduler.FairScheduler` per-lane view
    (weight, served batches, pending batches per deployment), and
    ``model_stats`` holds the per-deployment queue-wait/execute split
    plus the SLO threshold and violation count (see
    :class:`ServingMetrics`).
    """

    requests: int = 0
    failures: int = 0
    deadline_exceeded: int = 0
    batches: int = 0
    #: Hot-swaps installed across all deployments this interval (online
    #: re-training or re-registration under a live name); the per-model
    #: split — current version, swap count, per-version request totals —
    #: lives in ``model_stats``.
    swaps: int = 0
    #: Stage/parallel-map executions served by the batched route across
    #: all deployments, and the executions that silently degraded to the
    #: per-row loop — the fleet-level view of the batch-native execution
    #: plane (per-deployment splits live in ``model_stats``).
    vectorized_stages: int = 0
    fallback_stages: int = 0
    mean_batch_size: float = 0.0
    batch_size_histogram: dict = field(default_factory=dict)
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    mean_latency_ms: float = 0.0
    throughput_rps: float = 0.0
    uptime_seconds: float = 0.0
    slo_violations: int = 0
    model_stats: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_warm_hits: int = 0
    cache_hit_rate: float = 0.0
    elided_transfers: int = 0
    worker_stats: dict = field(default_factory=dict)
    scheduler_stats: dict = field(default_factory=dict)
    #: The serialized log-linear latency histogram behind the percentile
    #: fields (see :class:`~repro.serving.observability.LatencyHistogram`
    #: ``.to_dict()``) — mergeable across replicas, and the source the
    #: Prometheus exposition renders its ``_bucket`` series from.
    latency_histogram: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-serializable ``dict`` view (used by the network transport).

        ``batch_size_histogram`` keys become strings — JSON objects cannot
        carry integer keys.
        """
        data = asdict(self)
        data["batch_size_histogram"] = {
            str(size): count for size, count in self.batch_size_histogram.items()
        }
        return data

    def __repr__(self) -> str:
        return (
            f"ServerStats(requests={self.requests}, batches={self.batches}, "
            f"mean_batch={self.mean_batch_size:.1f}, p50={self.latency_p50_ms:.2f}ms, "
            f"p99={self.latency_p99_ms:.2f}ms, {self.throughput_rps:.0f} req/s, "
            f"shed={self.deadline_exceeded}, slo_violations={self.slo_violations}, "
            f"cache={self.cache_hits}/{self.cache_hits + self.cache_misses})"
        )


#: Top-level ServerStats fields merged by summation across replicas.
_SUM_FIELDS = (
    "requests",
    "failures",
    "deadline_exceeded",
    "batches",
    "swaps",
    "vectorized_stages",
    "fallback_stages",
    "slo_violations",
    "cache_hits",
    "cache_misses",
    "cache_warm_hits",
    "elided_transfers",
)

#: Per-model fields merged by summation.
_MODEL_SUM_FIELDS = (
    "requests",
    "slo_violations",
    "vectorized_stages",
    "fallback_stages",
    "swaps",
)

#: Per-(stage, bucket) profile slot fields merged by summation.
_PROFILE_SUM_FIELDS = ("executions", "seconds", "gate_seconds", "vectorized", "fallbacks")


#: The flat percentile keys kept beside each phase's serialized histogram.
_PERCENTILES = {"latency": (50, 95, 99), "queue_wait": (50, 95), "execute": (50, 95)}


def _percentiles_ms(histograms: Dict[str, LatencyHistogram]) -> dict:
    """The flat ``<phase>_p<N>_ms`` keys read off ``{phase: histogram}``."""
    return {
        f"{phase}_p{p}_ms": histogram.percentile(p) * 1e3
        for phase, histogram in histograms.items()
        for p in _PERCENTILES[phase]
    }


def _merge_histograms(dicts: list) -> LatencyHistogram:
    """Fold serialized histogram dicts into one (empty dicts skipped)."""
    merged = None
    for data in dicts:
        if not data:
            continue
        histogram = LatencyHistogram.from_dict(data)
        merged = histogram if merged is None else merged.merge(histogram)
    return merged if merged is not None else LatencyHistogram()


def merge_server_stats(snapshots: Iterable) -> dict:
    """Merge per-replica :class:`ServerStats` snapshots into one group view.

    The input is what a replica group hands out — one snapshot per
    replica, as :class:`ServerStats` instances or their ``to_dict()``
    JSON forms (``None`` entries, from dead or unreachable replicas, are
    skipped).  The output is a ``to_dict()``-shaped dict:

    * **Counters sum.**  Requests, failures, sheds, batches, swaps,
      vectorized/fallback stages, SLO violations, cache counters and
      elided transfers are totals across the group.
    * **Histograms merge, percentiles recompute.**  The log-linear
      latency histograms are mergeable by construction; group p50/p95/p99
      come from the *merged* histogram — never from averaging per-replica
      percentiles, which is statistically meaningless.
    * **Means re-weight.**  ``mean_latency_ms`` is request-weighted,
      ``mean_batch_size`` batch-weighted.
    * **Throughput sums, uptime maxes.**  Replicas serve concurrently,
      so group rps is the sum over the longest-observed window.
    * **Model stats merge per name** (version = max across replicas —
      the group-converged version; ``requests_by_version`` summed per
      version, so a stale replica's old-version traffic stays visible).
    * **Worker and scheduler stats are namespaced**, not merged:
      ``worker_stats["r0/cpu-0"]`` keeps each replica's workers
      distinguishable, because summing busy-time across distinct worker
      threads would fabricate a worker that does not exist.

    This is what ``tools/scrape_stats.py --replica`` emits and what the
    replica-scaling benchmark gates read.
    """
    dicts = [
        snapshot.to_dict() if hasattr(snapshot, "to_dict") else snapshot
        for snapshot in snapshots
        if snapshot is not None
    ]
    merged: dict = {field_name: 0 for field_name in _SUM_FIELDS}
    merged["replicas"] = len(dicts)
    merged["throughput_rps"] = 0.0
    merged["uptime_seconds"] = 0.0
    merged["batch_size_histogram"] = {}
    latency_sum = 0.0  # request-weighted, in ms
    samples_in_batches = 0.0
    models: Dict[str, dict] = {}
    worker_stats: dict = {}
    scheduler_stats: dict = {}
    for index, stats in enumerate(dicts):
        for field_name in _SUM_FIELDS:
            merged[field_name] += stats.get(field_name, 0)
        merged["throughput_rps"] += stats.get("throughput_rps", 0.0)
        merged["uptime_seconds"] = max(merged["uptime_seconds"], stats.get("uptime_seconds", 0.0))
        latency_sum += stats.get("mean_latency_ms", 0.0) * stats.get("requests", 0)
        samples_in_batches += stats.get("mean_batch_size", 0.0) * stats.get("batches", 0)
        for size, count in (stats.get("batch_size_histogram") or {}).items():
            key = str(size)
            merged["batch_size_histogram"][key] = (
                merged["batch_size_histogram"].get(key, 0) + count
            )
        for name, model in (stats.get("model_stats") or {}).items():
            models.setdefault(name, []).append(model)
        for name, worker in (stats.get("worker_stats") or {}).items():
            worker_stats[f"r{index}/{name}"] = worker
        scheduler = stats.get("scheduler_stats")
        if scheduler:
            scheduler_stats[f"r{index}"] = scheduler
    requests = merged["requests"]
    batches = merged["batches"]
    merged["mean_latency_ms"] = latency_sum / requests if requests else 0.0
    merged["mean_batch_size"] = samples_in_batches / batches if batches else 0.0
    cache_lookups = merged["cache_hits"] + merged["cache_misses"]
    merged["cache_hit_rate"] = merged["cache_hits"] / cache_lookups if cache_lookups else 0.0
    latency_hist = _merge_histograms([stats.get("latency_histogram") for stats in dicts])
    merged["latency_histogram"] = latency_hist.to_dict()
    merged.update(_percentiles_ms({"latency": latency_hist}))
    merged["model_stats"] = {
        name: _merge_model_stats(views) for name, views in models.items()
    }
    merged["worker_stats"] = worker_stats
    merged["scheduler_stats"] = scheduler_stats
    return merged


def _merge_model_stats(views: list) -> dict:
    """Merge one model's per-replica ``model_stats`` views."""
    out: dict = {field_name: 0 for field_name in _MODEL_SUM_FIELDS}
    queue_wait_sum = 0.0
    execute_sum = 0.0
    versions = [view.get("version") for view in views if view.get("version") is not None]
    slos = [view.get("slo_ms") for view in views if view.get("slo_ms") is not None]
    out["version"] = max(versions) if versions else None
    out["slo_ms"] = max(slos) if slos else None
    out["requests_by_version"] = {}
    out["stage_fallback_reasons"] = {}
    out["stage_profile"] = {}
    out["residency"] = None
    histograms = {"latency": [], "queue_wait": [], "execute": []}
    for view in views:
        for field_name in _MODEL_SUM_FIELDS:
            out[field_name] += view.get(field_name, 0)
        view_requests = view.get("requests", 0)
        queue_wait_sum += view.get("mean_queue_wait_ms", 0.0) * view_requests
        execute_sum += view.get("mean_execute_ms", 0.0) * view_requests
        for version, count in (view.get("requests_by_version") or {}).items():
            out["requests_by_version"][version] = (
                out["requests_by_version"].get(version, 0) + count
            )
        out["stage_fallback_reasons"].update(view.get("stage_fallback_reasons") or {})
        for key, slot in (view.get("stage_profile") or {}).items():
            merged_slot = out["stage_profile"].get(key)
            if merged_slot is None:
                merged_slot = out["stage_profile"][key] = {
                    "stage": slot.get("stage"),
                    "bucket": slot.get("bucket"),
                    **{field_name: 0 for field_name in _PROFILE_SUM_FIELDS},
                }
            for field_name in _PROFILE_SUM_FIELDS:
                merged_slot[field_name] += slot.get(field_name, 0)
        if out["residency"] is None and view.get("residency") is not None:
            out["residency"] = dict(view["residency"])
        for phase, series in histograms.items():
            series.append((view.get("histograms") or {}).get(phase))
    for slot in out["stage_profile"].values():
        executions = slot.get("executions", 0)
        slot["mean_ms"] = (slot.get("seconds", 0.0) / executions * 1e3) if executions else 0.0
    requests = out["requests"]
    out["mean_queue_wait_ms"] = queue_wait_sum / requests if requests else 0.0
    out["mean_execute_ms"] = execute_sum / requests if requests else 0.0
    merged_histograms = {
        phase: _merge_histograms(series) for phase, series in histograms.items()
    }
    out["histograms"] = {
        phase: histogram.to_dict() for phase, histogram in merged_histograms.items()
    }
    out.update(_percentiles_ms(merged_histograms))
    return out


class _ModelCollector:
    """Per-deployment latency-split collectors (guarded by the owner's lock)."""

    __slots__ = (
        "requests",
        "latencies",
        "queue_waits",
        "executes",
        "queue_wait_sum",
        "execute_sum",
        "slo_seconds",
        "slo_violations",
        "vectorized_stages",
        "fallback_stages",
        "stage_fallback_reasons",
        "stage_profile",
        "version",
        "swaps",
        "requests_by_version",
        "residency",
    )

    def __init__(self):
        self.requests = 0
        # Constant-memory mergeable histograms per latency phase; the
        # exact sums ride alongside so the means carry no bucket error.
        self.latencies = LatencyHistogram()
        self.queue_waits = LatencyHistogram()
        self.executes = LatencyHistogram()
        self.queue_wait_sum = 0.0
        self.execute_sum = 0.0
        self.slo_seconds: Optional[float] = None
        self.slo_violations = 0
        # Versioned hot-swap accounting: the deployment version currently
        # serving, how many swaps landed this interval, and how many
        # requests each version served (keys stringified in view() so the
        # snapshot stays JSON-serializable).
        self.version: Optional[int] = None
        self.swaps = 0
        self.requests_by_version: Counter = Counter()
        # Batch-native execution plane accounting: how many stage /
        # parallel-map executions of this deployment's programs took the
        # vectorized route vs fell back to the per-row loop, plus the
        # last fallback reason per stage label.
        self.vectorized_stages = 0
        self.fallback_stages = 0
        self.stage_fallback_reasons: dict = {}
        # Per-(stage, batch bucket) execute-time breakdown, folded from
        # the executor's profiling hooks after every batch: wall seconds,
        # gate-check seconds and the vectorized/fallback split per stage
        # label and bucket size.
        self.stage_profile: dict = {}
        # Packed class-memory residency: the deployment's resident
        # packed bytes vs the unpacked float source bytes (see
        # ``Deployment.residency()``); ``None`` until a packed-storage
        # deployment is installed.
        self.residency: Optional[dict] = None

    def reset(self) -> None:
        self.requests = 0
        self.latencies.clear()
        self.queue_waits.clear()
        self.executes.clear()
        self.queue_wait_sum = 0.0
        self.execute_sum = 0.0
        self.slo_violations = 0  # the threshold itself survives a reset
        self.vectorized_stages = 0
        self.fallback_stages = 0
        self.stage_fallback_reasons = {}
        self.stage_profile = {}
        self.swaps = 0  # the current version itself survives a reset
        self.requests_by_version.clear()
        # residency describes what is installed, not interval activity —
        # like the SLO threshold and version, it survives a reset.

    def view(self) -> dict:
        requests = self.requests
        profile = {}
        for key, slot in self.stage_profile.items():
            row = dict(slot)
            executions = row.get("executions", 0)
            row["mean_ms"] = (row.get("seconds", 0.0) / executions * 1e3) if executions else 0.0
            profile[key] = row
        histograms = {
            "latency": self.latencies,
            "queue_wait": self.queue_waits,
            "execute": self.executes,
        }
        return {
            "requests": requests,
            **_percentiles_ms(histograms),
            "mean_queue_wait_ms": (self.queue_wait_sum / requests * 1e3) if requests else 0.0,
            "mean_execute_ms": (self.execute_sum / requests * 1e3) if requests else 0.0,
            "slo_ms": self.slo_seconds * 1e3 if self.slo_seconds is not None else None,
            "slo_violations": self.slo_violations,
            "vectorized_stages": self.vectorized_stages,
            "fallback_stages": self.fallback_stages,
            "stage_fallback_reasons": dict(self.stage_fallback_reasons),
            "stage_profile": profile,
            "version": self.version,
            "swaps": self.swaps,
            "residency": dict(self.residency) if self.residency is not None else None,
            "requests_by_version": {
                str(version): count for version, count in sorted(self.requests_by_version.items())
            },
            # Serialized histograms (seconds): mergeable across replicas
            # and resolvable by scrape_stats quantile paths, e.g.
            # ``model_stats.<name>.histograms.latency.p99_ms``.
            "histograms": {phase: hist.to_dict() for phase, hist in histograms.items()},
        }


class ServingMetrics:
    """Mutable, thread-safe collectors behind :class:`ServerStats`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latency_hist = LatencyHistogram()
        self._latency_sum = 0.0
        self._batch_sizes = Counter()
        self._models: Dict[str, _ModelCollector] = {}
        self.requests = 0
        self.failures = 0
        self.deadline_exceeded = 0
        self.batches = 0
        self.samples_in_batches = 0
        self._started = time.monotonic()

    # -- configuration ------------------------------------------------------------
    def set_slo(self, model: str, slo_ms: Optional[float]) -> None:
        """Set (or clear, with ``None``) one deployment's latency SLO."""
        with self._lock:
            collector = self._model(model)
            collector.slo_seconds = None if slo_ms is None else slo_ms / 1e3

    def slo_ms(self, model: str) -> Optional[float]:
        """One deployment's current SLO threshold in ms (``None`` if unset)."""
        with self._lock:
            collector = self._models.get(model)
            if collector is None or collector.slo_seconds is None:
                return None
            return collector.slo_seconds * 1e3

    def _model(self, name: str) -> _ModelCollector:
        """Caller must hold the lock."""
        collector = self._models.get(name)
        if collector is None:
            collector = self._models[name] = _ModelCollector()
        return collector

    # -- recording ----------------------------------------------------------------
    def record_requests(
        self,
        model: str,
        latencies: list,
        queue_waits: list,
        execute_seconds: float,
        version: Optional[int] = None,
    ) -> list:
        """Account one executed batch — its requests with their latency
        split — under one lock acquisition.

        ``latencies`` / ``queue_waits`` hold one entry per request (in
        seconds); ``execute_seconds`` is the batch's shared time inside
        the worker.  ``version`` attributes the requests to the
        deployment version that executed them
        (``model_stats[name]["requests_by_version"]``) — the ledger that
        shows a hot-swap's traffic cutover, including the in-flight tail
        the old version drains after the swap lands.

        Returns the indices of the requests that violated the
        deployment's SLO, so the caller (the broker's resolve path) can
        mark their traces for tail-based retention without re-deriving
        the threshold.
        """
        n = len(latencies)
        with self._lock:
            self.batches += 1
            self.samples_in_batches += n
            self._batch_sizes[n] += 1
            self.requests += n
            self._latency_hist.record_many(latencies)
            self._latency_sum += sum(latencies)
            collector = self._model(model)
            collector.requests += n
            collector.latencies.record_many(latencies)
            if version is not None:
                if collector.version is None or version > collector.version:
                    collector.version = version
                collector.requests_by_version[int(version)] += n
            collector.queue_waits.record_many(queue_waits)
            collector.queue_wait_sum += sum(queue_waits)
            collector.executes.record(execute_seconds, count=n)
            collector.execute_sum += execute_seconds * n
            slo = collector.slo_seconds
            if slo is None:
                return []
            violated = [index for index, latency in enumerate(latencies) if latency > slo]
            collector.slo_violations += len(violated)
        return violated

    def record_stage_counters(
        self,
        model: str,
        vectorized: int,
        fallbacks: int,
        reasons: Optional[dict] = None,
    ) -> None:
        """Account one batch execution's vectorized-vs-fallback stage split.

        Fed from ``ExecutionReport.notes`` after every batch a worker runs,
        so operators can see — per deployment — when a model's batched
        route silently degrades to the per-row loop (and why).
        """
        if not vectorized and not fallbacks:
            return
        with self._lock:
            collector = self._model(model)
            collector.vectorized_stages += int(vectorized)
            collector.fallback_stages += int(fallbacks)
            if reasons:
                collector.stage_fallback_reasons.update(reasons)

    def record_stage_profile(self, model: str, bucket: int, entries: Iterable[dict]) -> None:
        """Fold one batch's executor profile into per-(stage, bucket) slots.

        ``entries`` are the :class:`~repro.backends.executor
        .HostStageExecutor` profiling hook's records (one per stage /
        parallel-map execution: wall seconds, gate-check seconds, route);
        ``bucket`` is the padded batch bucket the batch compiled against.
        The accumulated breakdown surfaces in
        ``model_stats[name]["stage_profile"]`` and as the Prometheus
        ``stage_seconds_total`` family.
        """
        entries = list(entries or ())
        if not entries:
            return
        with self._lock:
            collector = self._model(model)
            for entry in entries:
                stage = str(entry.get("stage", "?"))
                key = f"{stage}@b{int(bucket)}"
                slot = collector.stage_profile.get(key)
                if slot is None:
                    slot = collector.stage_profile[key] = {
                        "stage": stage,
                        "bucket": int(bucket),
                        "executions": 0,
                        "seconds": 0.0,
                        "gate_seconds": 0.0,
                        "vectorized": 0,
                        "fallbacks": 0,
                    }
                slot["executions"] += 1
                slot["seconds"] += float(entry.get("seconds", 0.0))
                slot["gate_seconds"] += float(entry.get("gate_seconds", 0.0))
                route = entry.get("route")
                if route == "vectorized":
                    slot["vectorized"] += 1
                elif route in ("fallback", "per-row"):
                    slot["fallbacks"] += 1

    def record_swap(self, model: str, version: int) -> None:
        """Account one hot-swap: ``model`` now serves ``version``.

        Recorded when the broker installs the replacement queue, so a
        snapshot that shows the new version may still show in-flight
        requests settling against the previous one (``requests_by_version``
        keeps both attributions).
        """
        with self._lock:
            collector = self._model(model)
            collector.swaps += 1
            if collector.version is None or version > collector.version:
                collector.version = version

    def record_residency(self, model: str, residency: Optional[dict]) -> None:
        """Record (or clear, with ``None``) a deployment's packed residency.

        Called by the broker whenever a deployment is installed — initial
        registration and every hot-swap — so the snapshot always describes
        the constants currently resident.  A swap that rebuilds the packed
        class memory from updated float state replaces the whole document.
        """
        with self._lock:
            collector = self._model(model)
            collector.residency = dict(residency) if residency is not None else None

    def record_failure(self, count: int = 1) -> None:
        with self._lock:
            self.failures += count

    def record_expired(self, count: int = 1) -> None:
        """Account requests shed with ``DeadlineExceeded`` before execution."""
        with self._lock:
            self.deadline_exceeded += count

    # -- per-interval reporting ---------------------------------------------------
    def reset(self) -> None:
        """Zero every counter and sample window (SLO thresholds survive).

        Restarts the uptime/throughput clock, so ``snapshot()`` after a
        reset reports rates over the new interval only.  For
        scrape-then-reset reporting prefer ``snapshot(reset=True)``,
        which does both under one lock acquisition — no request can land
        between the snapshot and the reset and vanish from every
        interval.
        """
        with self._lock:
            self._reset_locked()

    def _reset_locked(self) -> None:
        """Caller must hold the lock."""
        self._latency_hist.clear()
        self._latency_sum = 0.0
        self._batch_sizes.clear()
        self.requests = 0
        self.failures = 0
        self.deadline_exceeded = 0
        self.batches = 0
        self.samples_in_batches = 0
        for collector in self._models.values():
            collector.reset()
        self._started = time.monotonic()

    # -- snapshot -----------------------------------------------------------------
    def snapshot(
        self,
        cache=None,
        workers: Optional[Iterable] = None,
        scheduler=None,
        reset: bool = False,
    ) -> ServerStats:
        """Produce an immutable snapshot, optionally folding in cache, worker
        and fair-scheduler state.

        The metrics lock is acquired exactly once, so the request counters,
        latency windows and per-model splits are mutually consistent even
        under concurrent writers; cache/worker/scheduler state is sampled
        after release (each has its own synchronization).

        ``reset=True`` zeroes the window under the *same* lock acquisition
        (atomic scrape-then-reset): requests recorded after the snapshot
        land in the next interval instead of disappearing between two
        separate ``snapshot()`` / ``reset()`` calls.
        """
        with self._lock:
            uptime = time.monotonic() - self._started
            latency_hist = self._latency_hist.copy()
            requests = self.requests
            mean_batch = self.samples_in_batches / self.batches if self.batches else 0.0
            mean_latency = self._latency_sum / requests if requests else 0.0
            model_stats = {name: collector.view() for name, collector in self._models.items()}
            stats = dict(
                requests=requests,
                failures=self.failures,
                deadline_exceeded=self.deadline_exceeded,
                batches=self.batches,
                mean_batch_size=mean_batch,
                batch_size_histogram=dict(self._batch_sizes),
                **_percentiles_ms({"latency": latency_hist}),
                latency_histogram=latency_hist.to_dict(),
                mean_latency_ms=mean_latency * 1e3,
                throughput_rps=requests / uptime if uptime > 0 else 0.0,
                uptime_seconds=uptime,
                slo_violations=sum(c.slo_violations for c in self._models.values()),
                swaps=sum(c.swaps for c in self._models.values()),
                vectorized_stages=sum(c.vectorized_stages for c in self._models.values()),
                fallback_stages=sum(c.fallback_stages for c in self._models.values()),
                model_stats=model_stats,
            )
            if reset:
                self._reset_locked()
        if cache is not None:
            stats.update(
                cache_hits=cache.stats.hits,
                cache_misses=cache.stats.misses,
                cache_warm_hits=cache.stats.warm_hits,
                cache_hit_rate=cache.stats.hit_rate,
            )
        if workers is not None:
            worker_stats = {}
            elided = 0
            for worker in workers:
                worker_stats[worker.name] = worker.stats()
                elided += worker_stats[worker.name].get("elided_transfers", 0)
            stats.update(worker_stats=worker_stats, elided_transfers=elided)
        if scheduler is not None:
            stats.update(scheduler_stats=scheduler.stats())
        return ServerStats(**stats)
