"""repro.serving — an inference-serving runtime for compiled HDC programs.

The compile-and-run flow of :mod:`repro.backends` is one-shot: trace,
compile, execute, exit.  This package keeps compiled programs *warm* and
pushes a stream of single-sample requests through them:

* :class:`~repro.serving.servable.Servable` — a trained application
  packaged for serving (program factory per micro-batch size, bound
  constants, cache signature); every app in :mod:`repro.apps` has an
  ``as_servable`` adapter.
* :class:`~repro.serving.registry.ModelRegistry` /
  :class:`~repro.serving.registry.Deployment` — named
  (program, target, approximation-config) deployments handing out reusable
  :class:`~repro.backends.BoundProgram` inference handles.
* :class:`~repro.serving.cache.CompiledProgramCache` — thread-safe LRU over
  compiled artifacts so repeat deployments and re-registrations skip
  tracing, transforms, lowering and verification.
* :class:`~repro.serving.batching.MicroBatcher` — coalesces single-sample
  requests into hypermatrix batches under size/time/deadline watermarks,
  with priority lanes, earliest-deadline-first flushing and typed
  :class:`~repro.serving.batching.DeadlineExceeded` shedding.
* :class:`~repro.serving.scheduler.FairScheduler` — weighted round-robin
  with starvation aging across deployments, so one hot model cannot
  monopolize the workers.
* :class:`~repro.serving.scheduler.WorkerPool` — dispatches each batch to
  the least-loaded of its CPU/GPU/ASIC/ReRAM workers, with per-worker
  warm ``DeviceSession`` reuse on the accelerators and pinned shard
  placement for sharded deployments.
* ``register(..., shards=N)`` — the same :class:`~repro.serving.registry
  .Deployment` splits a class memory across N workers and reduces partial
  similarity scores back into predictions, bit-identically to the
  unsharded program.
* :class:`~repro.serving.metrics.ServingMetrics` /
  :class:`~repro.serving.metrics.ServerStats` — latency percentiles with a
  per-deployment queue-wait/execute split and SLO violation counters,
  throughput, batch-size histogram, cache hit rate, swap-round timings;
  decoded, like the replica merge and the exposition, from the one table of
  what the serving plane emits.
* :mod:`repro.serving.observability` — that table (the emit catalogue:
  metrics, spans, events and their ``emit``), mergeable log-linear
  :class:`~repro.serving.observability.LatencyHistogram` collectors behind
  the percentiles, per-request :class:`~repro.serving.observability
  .TraceContext` span chains with tail-sampled retention
  (:class:`~repro.serving.observability.RequestTracer`, Chrome trace-event
  export) and the Prometheus text exposition
  (:func:`~repro.serving.observability.render_prometheus`, the transport's
  ``metrics`` op, ``tools/export_metrics.py``).
* :class:`~repro.serving.update_log.UpdateLog` — append-only, replayable
  log of the labelled mini-batches behind each served version; a restarted
  server replays it into a fresh baseline and rebuilds the exact versions
  bit-identically (and :mod:`repro.bench` feeds serve-while-retraining
  load cells from it, so online-training scenarios replay from a file).
* :class:`~repro.serving.broker.RequestBroker` — the transport-agnostic
  core owning the whole submit→batch→schedule→dispatch→settle path; front
  ends adapt callers onto its completion contract
  (:class:`~repro.serving.completion.BatchCompletion`: one caller batch,
  ``n`` result slots, one event; ``submit`` is the batch of one).
* :class:`~repro.serving.server.InferenceServer` — the synchronous
  in-process front end (a thin adapter over a broker it owns); see
  :mod:`examples.serving_quickstart`.
* :mod:`repro.serving.transport` — the network front end: an asyncio
  socket server speaking length-prefixed JSON/binary frames plus a
  blocking :class:`~repro.serving.transport.ServingClient`; see
  :mod:`examples.network_serving`.  (Import the subpackage explicitly —
  it is not pulled in here, so broker-only deployments skip asyncio.)
* :mod:`repro.serving.replica` — horizontal scaling: a
  :class:`~repro.serving.replica.ReplicaGroup` of N complete serving
  stacks behind rendezvous routing
  (:class:`~repro.serving.replica.ClientPool`), with group-wide
  versioned hot-swap, ``min_version`` read-your-writes and update-log
  resync of killed replicas.  (Also an explicit import, for the same
  asyncio reason.)
"""

from repro.serving.batching import (
    BatcherClosed,
    DeadlineExceeded,
    MicroBatcher,
    Segment,
    bucket_for,
    bucket_ladder,
    pad_batch,
)
from repro.serving.broker import RequestBroker
from repro.serving.completion import BatchCompletion
from repro.serving.cache import CacheStats, CompiledProgramCache
from repro.serving.metrics import ServerStats, ServingMetrics, merge_server_stats, percentile
from repro.serving.observability import (
    LatencyHistogram,
    RequestTracer,
    TraceContext,
    chrome_trace,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serving.registry import (
    Deployment,
    ModelRegistry,
    NotRowMappedError,
    StaleVersionError,
    reduce_partials,
)
from repro.serving.scheduler import BatchWork, FairScheduler, Worker, WorkerPool
from repro.serving.servable import (
    HOST_TARGETS,
    NotAppendableError,
    NotUpdatableError,
    Servable,
    ShardSpec,
    servable_signature,
)
from repro.serving.server import InferenceServer
from repro.serving.update_log import UpdateLog, UpdateLogError

__all__ = [
    "InferenceServer",
    "RequestBroker",
    "ModelRegistry",
    "Deployment",
    "NotRowMappedError",
    "StaleVersionError",
    "reduce_partials",
    "Servable",
    "ShardSpec",
    "NotUpdatableError",
    "NotAppendableError",
    "servable_signature",
    "HOST_TARGETS",
    "CompiledProgramCache",
    "CacheStats",
    "MicroBatcher",
    "BatchCompletion",
    "Segment",
    "DeadlineExceeded",
    "BatcherClosed",
    "bucket_for",
    "bucket_ladder",
    "pad_batch",
    "Worker",
    "WorkerPool",
    "BatchWork",
    "FairScheduler",
    "ServingMetrics",
    "ServerStats",
    "merge_server_stats",
    "percentile",
    "LatencyHistogram",
    "TraceContext",
    "RequestTracer",
    "chrome_trace",
    "render_prometheus",
    "parse_prometheus_text",
    "UpdateLog",
    "UpdateLogError",
]
