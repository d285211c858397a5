"""The catalogue: everything the serving plane emits, described exactly once.

:data:`METRICS` holds one :class:`Metric` row per value of a stats
document (kind, merge rule across replicas, whether it survives
``reset()``, Prometheus family, help), :data:`SPANS` one row per span name
and :data:`EVENTS` one per event :func:`emit` logs.  Everything else is
*derived* from the rows: :mod:`repro.serving.metrics` generates
``ServerStats`` from the server rows, zeroes / resets / serializes its
collectors from each scope's rows and merges replica snapshots row by row;
:func:`~repro.serving.observability.prometheus.render_prometheus` is one
loop over the rows that name a ``family``, so the order of the exposition
is the order of this table; the docs carry the rows as tables that
``tools/check_doc_snippets.py`` checks both ways, ``tools/export_metrics.py``
lints exposed families against them and ``tests/test_catalogue.py`` holds a
smoke server's output to them key by key.  Adding a metric is one row here
plus the line that feeds it (docs/OBSERVABILITY.md, "Adding a metric").

Imports nothing from the serving package: ``metrics`` and ``prometheus``
both import this module.
"""

from __future__ import annotations

import logging
from logging import DEBUG, INFO
from typing import Dict, NamedTuple, Tuple

__all__ = ["Metric", "METRICS", "ROWS", "FAMILIES", "LABELS", "SPANS", "EVENTS", "emit"]


class Metric(NamedTuple):
    """One emitted value.

    Attributes:
        key: The value's key in its scope's view.
        kind: ``counter`` / ``gauge`` / ``histogram`` (a serialized
            ``LatencyHistogram``) / ``ledger`` (a dict of per-key entries) /
            ``info`` (describes what is installed) / ``label`` (identifies
            its view; a Prometheus label of the scope's families) — or the
            name of the scope whose views the value holds.
        merge: How replicas' values combine — ``sum``, ``max``, ``first``
            (first replica that has one), ``last`` (per entry, the latest
            replica wins), ``histogram`` (bucket-wise), ``ledger`` (summed
            per key), ``nested`` (name-keyed views, merged per name under
            their own rows), ``replica`` (kept apart under ``r<i>``: summing
            distinct worker threads would fabricate a worker that does not
            exist) or ``derived`` (recomputed from the merged rows:
            ``<h>_p<N>_ms`` / ``mean_<h>_ms`` are the N-th percentile /
            exact mean of histogram row ``<h>``).
        help: One line for the exposition's ``# HELP`` and the docs.
        family: The Prometheus family (without namespace) exposing the
            value; empty for values the exposition leaves out.
        keeps: The value describes the installed model, not the interval,
            so ``reset()`` leaves it alone.
        scope: Which view carries the value (filled in from the table's
            grouping): ``server`` is ``ServerStats``, every other scope the
            views held by the server / model row whose ``kind`` names it.
        path: Where the value sits in that view (filled in too): at its key
            — a histogram at ``<key>_histogram`` on the server view, under
            ``histograms`` elsewhere.
    """

    key: str
    kind: str
    merge: str
    help: str
    family: str = ""
    keeps: bool = False
    scope: str = ""
    path: Tuple[str, ...] = ()

    def read(self, view: dict):
        """The row's value in ``view`` (``None`` when the view lacks it)."""
        for key in self.path:
            view = (view or {}).get(key)
        return view

    def write(self, view: dict, value) -> None:
        """Set the row's value in ``view``."""
        *parents, key = self.path
        for parent in parents:
            view = view.setdefault(parent, {})
        view[key] = value


# fmt: off
_TABLE: Dict[str, Tuple[Metric, ...]] = {
    # A row a deployment also keeps (requests, swaps, the latency histogram,
    # ...) is recorded per model only: the server's is the models' merge.
    "server": (
        Metric("requests", "counter", "sum", "Requests served", "requests_total"),
        Metric("failures", "counter", "sum", "Requests that failed", "failures_total"),
        Metric("deadline_exceeded", "counter", "sum", "Requests shed past their deadline",
               "deadline_exceeded_total"),
        Metric("batches", "counter", "sum", "Micro-batches executed", "batches_total"),
        Metric("swaps", "counter", "sum", "Hot-swaps installed", "swaps_total"),
        Metric("slo_violations", "counter", "sum", "Served requests that exceeded their SLO",
               "slo_violations_total"),
        Metric("vectorized_stages", "counter", "sum", "Stage executions on the batched route",
               "vectorized_stages_total"),
        Metric("fallback_stages", "counter", "sum", "Stage executions on the per-row fallback",
               "fallback_stages_total"),
        Metric("cache_hits", "counter", "sum", "Compile-cache hits", "cache_hits_total"),
        Metric("cache_misses", "counter", "sum", "Compile-cache misses", "cache_misses_total"),
        Metric("cache_warm_hits", "counter", "sum", "Compile-cache hits off a loaded cache",
               "cache_warm_hits_total"),
        Metric("cache_evictions", "counter", "sum", "Compile-cache evictions",
               "cache_evictions_total"),
        Metric("cache_skipped", "counter", "sum", "Compile-cache entries a save / load skipped",
               "cache_skipped_total"),
        Metric("cache_compile_seconds", "counter", "sum",
               "Seconds compile-cache misses spent tracing and compiling",
               "cache_compile_seconds_total"),
        Metric("elided_transfers", "counter", "sum", "Device transfers skipped by warm sessions",
               "elided_transfers_total"),
        Metric("uptime_seconds", "gauge", "max", "Seconds since the metrics interval started",
               "uptime_seconds"),
        Metric("throughput_rps", "gauge", "sum", "Requests per second over the interval",
               "throughput_rps"),
        Metric("mean_batch_size", "gauge", "derived", "Mean micro-batch size", "mean_batch_size"),
        Metric("cache_hit_rate", "gauge", "derived", "Compile-cache hit rate", "cache_hit_rate"),
        Metric("latency", "histogram", "histogram",
               "End-to-end request latency (enqueue to result)", "request_latency_seconds"),
        Metric("latency_p50_ms", "gauge", "derived", "Median request latency, ms"),
        Metric("latency_p95_ms", "gauge", "derived", "95th-percentile request latency, ms"),
        Metric("latency_p99_ms", "gauge", "derived", "99th-percentile request latency, ms"),
        Metric("mean_latency_ms", "gauge", "derived", "Mean request latency, ms (exact)"),
        Metric("batch_size_histogram", "ledger", "ledger", "Executed batches per batch size"),
        Metric("model_stats", "model", "nested", "Per-deployment views, by model name"),
        Metric("worker_stats", "worker", "replica", "Per-worker views, by worker name"),
        Metric("scheduler_stats", "ledger", "replica",
               "Fair-scheduler lanes: weight, served and pending batches per deployment"),
    ),
    "model": (
        Metric("requests_by_version", "ledger", "ledger", "Requests served per deployment version",
               "model_requests_total"),
        Metric("requests", "counter", "sum", "Requests the deployment served"),
        # A failure or shed may have no deployment to name: those count in
        # the server rows only, which may therefore exceed the models' sum.
        Metric("failures", "counter", "sum", "Failed requests that named the deployment",
               "model_failures_total"),
        Metric("deadline_exceeded", "counter", "sum", "Sheds that named the deployment",
               "model_deadline_exceeded_total"),
        Metric("slo_violations", "counter", "sum", "SLO violations per deployment",
               "model_slo_violations_total"),
        Metric("vectorized_stages", "counter", "sum", "Batched-route stages per deployment",
               "model_vectorized_stages_total"),
        Metric("fallback_stages", "counter", "sum", "Per-row fallback stages per deployment",
               "model_fallback_stages_total"),
        Metric("swaps", "counter", "sum", "Hot-swaps of the deployment this interval"),
        Metric("latency", "histogram", "histogram", "Per-deployment end-to-end latency",
               "model_request_latency_seconds"),
        Metric("queue_wait", "histogram", "histogram",
               "Per-deployment queue wait (enqueue to worker start)", "model_queue_wait_seconds"),
        Metric("execute", "histogram", "histogram",
               "Per-deployment execute time inside the worker", "model_execute_seconds"),
        Metric("swap_round", "histogram", "histogram", "Per-deployment swap-round duration",
               "model_swap_round_seconds"),
        Metric("latency_p50_ms", "gauge", "derived", "Median latency, ms"),
        Metric("latency_p95_ms", "gauge", "derived", "95th-percentile latency, ms"),
        Metric("latency_p99_ms", "gauge", "derived", "99th-percentile latency, ms"),
        Metric("mean_latency_ms", "gauge", "derived", "Mean latency, ms (exact)"),
        Metric("queue_wait_p50_ms", "gauge", "derived", "Median queue wait, ms"),
        Metric("queue_wait_p95_ms", "gauge", "derived", "95th-percentile queue wait, ms"),
        Metric("mean_queue_wait_ms", "gauge", "derived", "Mean queue wait, ms (exact)"),
        Metric("execute_p50_ms", "gauge", "derived", "Median execute time, ms"),
        Metric("execute_p95_ms", "gauge", "derived", "95th-percentile execute time, ms"),
        Metric("mean_execute_ms", "gauge", "derived", "Mean execute time, ms (exact)"),
        Metric("slo_ms", "info", "max", "Latency SLO threshold, ms (None when unset)", keeps=True),
        Metric("version", "info", "max", "Deployment version currently serving", keeps=True),
        Metric("stage_fallback_reasons", "ledger", "last", "Last fallback reason per stage label"),
        Metric("residency", "residency", "first",
               "Packed class-memory residency document (None when unpacked)", keeps=True),
        Metric("stage_profile", "stage", "nested", "Execute-time slots, by <stage>@b<bucket>"),
        Metric("swap_profile", "swap_phase", "nested", "Swap-round time, by <kind>/<phase>"),
    ),
    "residency": (
        Metric("packed", "info", "first", "Always true: unpacked deployments have no document"),
        Metric("params", "info", "first", "Per packed constant: resident / unpacked bytes, dim"),
        Metric("shards", "info", "first", "Shards the packed words are spread over"),
        Metric("class_memory_bytes", "gauge", "first",
               "Resident packed class-memory bytes per deployment", "model_class_memory_bytes"),
        Metric("class_memory_unpacked_bytes", "gauge", "first",
               "Unpacked (float source) class-memory bytes per deployment",
               "model_class_memory_unpacked_bytes"),
        Metric("shrink_ratio", "gauge", "first",
               "Unpacked-to-packed class-memory size ratio per deployment",
               "model_class_memory_shrink_ratio"),
    ),
    "stage": (
        Metric("stage", "label", "first", "Stage label"),
        Metric("bucket", "label", "first", "Batch bucket (row capacity) of the handle the stage ran in"),
        Metric("executions", "counter", "sum", "Stage executions per (model, stage, batch bucket)",
               "stage_executions_total"),
        Metric("seconds", "counter", "sum", "Stage wall seconds per (model, stage, batch bucket)",
               "stage_seconds_total"),
        Metric("gate_seconds", "counter", "sum",
               "Bit-identity gate-check seconds per (model, stage, batch bucket)",
               "stage_gate_seconds_total"),
        Metric("vectorized", "counter", "sum", "Executions on the batched route"),
        Metric("fallbacks", "counter", "sum", "Executions on the per-row fallback"),
        Metric("mean_ms", "gauge", "derived", "Mean wall time per execution, ms"),
    ),
    "swap_phase": (
        Metric("kind", "label", "first", "Swap-round kind: update or append"),
        Metric("phase", "label", "first", "Swap-round phase (a swap-scenario row of SPANS)"),
        Metric("rounds", "counter", "sum", "Swap rounds that ran the phase"),
        Metric("seconds", "counter", "sum", "Swap-round wall seconds per (model, kind, phase)",
               "swap_phase_seconds_total"),
    ),
    "worker": (
        Metric("target", "info", "first", "Back-end target the worker executes on"),
        Metric("batches", "counter", "sum", "Batches executed per worker", "worker_batches_total"),
        Metric("samples", "counter", "sum", "Samples executed per worker", "worker_samples_total"),
        Metric("busy_seconds", "counter", "sum", "Busy seconds per worker",
               "worker_busy_seconds_total"),
        Metric("ewma_seconds_per_sample", "gauge", "max", "Smoothed execute seconds per sample"),
        Metric("elided_transfers", "counter", "sum", "Device transfers the warm session skipped"),
        Metric("capacity_evictions", "counter", "sum", "Constants the session evicted for capacity",
               "worker_capacity_evictions_total"),
    ),
}
# fmt: on


def _placed(row: Metric, scope: str) -> Metric:
    path = (row.key,)
    if row.kind == "histogram":
        path = (f"{row.key}_histogram",) if scope == "server" else ("histograms", row.key)
    return row._replace(scope=scope, path=path)


#: The table by scope, in table order (the order of the exposition).
ROWS: Dict[str, Tuple[Metric, ...]] = {
    scope: tuple(_placed(row, scope) for row in rows) for scope, rows in _TABLE.items()
}
METRICS: Tuple[Metric, ...] = tuple(row for rows in ROWS.values() for row in rows)

#: Family -> the ``# TYPE`` it declares (a ledger: one counter sample per entry).
FAMILIES: Dict[str, str] = {
    row.family: "counter" if row.kind == "ledger" else row.kind for row in METRICS if row.family
}

#: Scope -> the keys of its ``label`` rows.  The views of a scope without
#: any are labelled ``<scope>="<name they are kept under>"``.
LABELS: Dict[str, Tuple[str, ...]] = {
    scope: tuple(row.key for row in rows if row.kind == "label") for scope, rows in ROWS.items()
}


# fmt: off
#: Span name -> (the scenario that emits it, what it covers).  ``swap`` spans
#: are the phases that tile a swap round, recorded in ``swap_profile`` and
#: the ``swap`` event — never in ``traces()``.
SPANS: Dict[str, Tuple[str, str]] = {
    "queue": ("request", "enqueue -> the micro-batcher releases the request's batch"),
    "batch": ("request", "release -> the batch is offered to the fair scheduler"),
    "schedule": ("request", "offer -> the dispatcher pops the batch from its lane"),
    "dispatch": ("request", "pop -> a worker thread starts executing the batch"),
    "execute": ("request", "start -> program run + postprocess + slice complete"),
    "stage:*": ("request", "one stage's execution inside execute: route, gate-check time"),
    "settle": ("request", "execute -> the batch is accounted; its completions fire next"),
    "transport": ("socket request", "settle -> the socket front end writes the response"),
    "retry": ("hot-swap race", "a submit re-enqueued after a swap closed its batcher"),
    "derive": ("swap", "apply the update / append rule; growth hashes its new signature"),
    "build": ("swap", "the replacement deployment (a sharded one re-partitions and re-signs)"),
    "warm": ("swap", "bind the bucket ladder on every eligible worker; growth compiles it"),
    "swap": ("swap", "registry compare-and-swap, then the queue cutover"),
    "log": ("swap", "append the round to the update log"),
    "evict": ("swap", "drop the replaced signature's compiled programs (growth only)"),
}

#: Event name -> (level, field names, what happened).  State changes only,
#: never per-request facts; all at INFO or below, so an unconfigured
#: process (WARNING threshold) drops each after one level check.
EVENTS: Dict[str, Tuple[int, Tuple[str, ...], str]] = {
    "register": (INFO, ("model", "version", "shards"), "A deployment's queue was installed"),
    "swap": (INFO, ("model", "kind", "version", "duration_ms", "phases_ms"),
             "A swap round landed: how long it took and where the time went"),
    "compile": (DEBUG, ("signature", "target", "bucket", "trace_ms", "compile_ms", "phases_ms"),
                "A compile-cache miss traced and compiled a program"),
    "gate_fallback": (INFO, ("model", "stage", "reason"), "A stage fell back for a new reason"),
    "cache_skip": (INFO, ("op", "key", "error"), "A cache save / load skipped an entry"),
    "replica_killed": (INFO, ("index", "model", "kind", "error"),
                       "A replica failed a group round and was taken out"),
    "replica_resynced": (INFO, ("index", "records", "duration_ms"),
                         "A dead replica was rebuilt from the baseline and the group log"),
}
# fmt: on

_LOGGER = logging.getLogger("repro.serving")
_LOGGER.addHandler(logging.NullHandler())  # an unconfigured process prints nothing


def emit(event: str, **fields) -> None:
    """Log one state change to the ``repro.serving`` logger: ``event`` must
    be a row of :data:`EVENTS` carrying exactly its fields (``KeyError`` /
    ``ValueError`` otherwise), kept as ``record.event`` / ``record.fields``."""
    level, names, _ = EVENTS[event]
    if _LOGGER.isEnabledFor(level):
        if set(fields) != set(names):
            raise ValueError(f"event {event!r} carries {names}, got {sorted(fields)}")
        text = " ".join(f"{name}={fields[name]!r}" for name in names)
        _LOGGER.log(level, "%s %s", event, text, extra={"event": event, "fields": fields})
