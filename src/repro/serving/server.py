"""The synchronous in-process front end of the serving runtime.

:class:`InferenceServer` turns compiled HDC programs into long-lived,
queryable services::

    from repro.serving import InferenceServer

    server = InferenceServer(workers=("cpu", "cpu"))
    server.register(app.as_servable(rp_matrix, classes))
    with server:
        label = server.infer("hd-classification", features)

Since the transport refactor the server is a **thin adapter**: it owns a
:class:`~repro.serving.registry.ModelRegistry`, a
:class:`~repro.serving.scheduler.WorkerPool` and a
:class:`~repro.serving.broker.RequestBroker`, and maps the blocking
``submit`` / ``infer`` / ``infer_many`` API onto the broker's completion
contract (a future per ``submit``, one batch completion per
``infer_many``).  The entire submit→batch→schedule→dispatch→settle path
lives in the broker (see :mod:`repro.serving.broker` for the request-flow
documentation); the asyncio socket front end in
:mod:`repro.serving.transport` layers network clients onto the very same
broker, so in-process and remote requests coalesce into the same
micro-batches and compete under the same fair scheduler.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.ir.dataflow import Target
from repro.serving.batching import bucket_ladder
from repro.serving.broker import RequestBroker
from repro.serving.metrics import ServerStats
from repro.serving.registry import Deployment, ModelRegistry
from repro.serving.scheduler import Worker, WorkerPool
from repro.serving.servable import Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["InferenceServer"]


class InferenceServer:
    """Serve registered HDC models over a fair, dynamic micro-batching queue.

    Args:
        workers: Worker specs (target names, :class:`Target` values or
            prebuilt :class:`Worker` instances).  Each released batch
            runs on the first eligible worker free to pull it.
        max_batch_size: Micro-batching size watermark.
        max_wait_seconds: Micro-batching time watermark.
        registry: Optionally share a :class:`ModelRegistry` (and hence a
            compiled-program cache) across servers.
        tracing: Enable per-request tracing: every request carries a
            span chain (queue → batch → schedule → dispatch → execute →
            settle) tiling its lifetime; completed traces are retained
            under tail-based sampling and readable via :meth:`traces`.
        trace_capacity: Per-ring trace retention (see
            :class:`~repro.serving.observability.RequestTracer`).
        trace_sample_every: Keep 1-in-N healthy traces (errors and SLO
            violators are always retained).
        update_log: Optional :class:`~repro.serving.update_log.UpdateLog`;
            every successful :meth:`update` appends its mini-batch to it,
            so a restarted server rebuilds the exact served versions by
            replaying the log (see :meth:`UpdateLog.replay`).
    """

    def __init__(
        self,
        workers: Iterable[Union[str, Target, Worker]] = ("cpu",),
        max_batch_size: int = 64,
        max_wait_seconds: float = 0.002,
        registry: Optional[ModelRegistry] = None,
        tracing: bool = False,
        trace_capacity: int = 512,
        trace_sample_every: int = 1,
        update_log=None,
    ):
        self.registry = registry if registry is not None else ModelRegistry()
        self.pool = WorkerPool(workers)
        self.broker = RequestBroker(
            self.registry,
            self.pool,
            max_batch_size=max_batch_size,
            max_wait_seconds=max_wait_seconds,
            tracing=tracing,
            trace_capacity=trace_capacity,
            trace_sample_every=trace_sample_every,
            update_log=update_log,
        )

    @property
    def metrics(self):
        """The broker's :class:`~repro.serving.metrics.ServingMetrics`."""
        return self.broker.metrics

    # -- registration -------------------------------------------------------------
    def register(
        self,
        servable: Servable,
        name: Optional[str] = None,
        config: Optional[ApproximationConfig] = None,
        warm: Union[bool, str] = True,
        weight: float = 1.0,
        shards: Optional[int] = None,
        slo_ms: Optional[float] = None,
        shard_capacity: Optional[int] = None,
    ) -> Deployment:
        """Register a servable and set up its request queue.

        Warming compiles, for every eligible worker, the single-sample and
        full-batch buckets — the two shapes a freshly started service hits
        first.  ``warm="full"`` compiles the whole power-of-two bucket
        ladder instead, so no batch shape ever compiles at request time —
        the mode to use before :meth:`save_cache`, since it makes a warm
        restart deterministically recompile-free regardless of how traffic
        happened to coalesce.  Re-registering under an existing name
        hot-swaps the model: requests already queued still resolve against
        the old deployment, new requests see the new one.

        Args:
            warm: ``True`` (default) warms buckets ``{1, max}``,
                ``"full"`` warms every power-of-two bucket up to
                ``max_batch_size``, ``False`` skips warming.
            weight: Fair-scheduler share.  Under contention a deployment
                receives batches proportionally to its weight, with
                starvation aging protecting low-weight lanes.
            shards: Deploy sharded across this many class-memory slices
                (requires ``servable.shard_spec``); each batch then
                scatter-executes over up to ``shards`` workers.
            slo_ms: Optional end-to-end latency SLO for this deployment;
                served requests exceeding it are counted in
                ``stats().model_stats[name]["slo_violations"]``.
            shard_capacity: Maximum class-memory rows per shard; when an
                :meth:`append` grows the sharded constant past it, the
                swap re-partitions onto more shards live.
        """
        deployment = self.registry.register(
            servable,
            name=name,
            target=self._default_target(servable),
            config=config,
            warm_batch_sizes=(),
            shards=shards,
            shard_capacity=shard_capacity,
        )
        if warm:
            buckets = bucket_ladder(self.broker.max_batch_size, full=warm == "full")
            for worker in self.pool.eligible(servable):
                deployment.warm(buckets, worker=worker)
        self.broker.add_model(deployment, weight=weight, slo_ms=slo_ms)
        return deployment

    def _default_target(self, servable: Servable) -> Target:
        for worker in self.pool.workers:
            if servable.supports_target(worker.target):
                return worker.target
        raise ValueError(
            f"no worker in the pool supports {servable.name!r} "
            f"(pool={[w.target.value for w in self.pool.workers]}, "
            f"servable targets {servable.supported_targets})"
        )

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "InferenceServer":
        """Start (or restart) the worker threads."""
        self.broker.start()
        return self

    def stop(self) -> None:
        """Drain queued requests, then join the worker threads."""
        self.broker.stop()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted request has resolved.

        "Resolved" covers successful results, failures and deadline sheds
        alike.  This is the idiom for reading a consistent
        :class:`ServerStats` snapshot while the server keeps running —
        ``stop()`` also drains, but tears the workers down with it::

            with server:
                futures = [server.submit(name, s) for s in samples]
                server.drain()
                print(server.stats())   # every request accounted for

        Raises:
            TimeoutError: The queue did not empty within ``timeout``
                seconds (e.g. the server was never started).
        """
        self.broker.drain(timeout)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request path -------------------------------------------------------------
    def submit(
        self,
        model: str,
        sample: np.ndarray,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        min_version: Optional[int] = None,
    ):
        """Enqueue one sample; returns a future resolving to its result.

        Args:
            priority: Batching lane; higher-priority requests flush first.
            deadline_ms: Latency budget from now, in milliseconds.  The
                future raises :class:`DeadlineExceeded` if the budget runs
                out before the request executes.
            min_version: Version pin — raise
                :class:`~repro.serving.registry.StaleVersionError` if the
                deployment is older (read-your-writes across replicas).
        """
        return self.broker.submit(
            model, sample, priority=priority, deadline_ms=deadline_ms, min_version=min_version
        )

    def infer(
        self,
        model: str,
        sample: np.ndarray,
        timeout: Optional[float] = None,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        min_version: Optional[int] = None,
    ):
        """Synchronous single-sample inference through the batching queue."""
        return self.submit(
            model, sample, priority=priority, deadline_ms=deadline_ms, min_version=min_version
        ).result(timeout=timeout)

    def infer_many(
        self, model: str, samples: Iterable[np.ndarray], timeout: Optional[float] = None
    ) -> list:
        """Submit the samples as one batch and gather their results in order.

        ``timeout`` bounds the whole call (one wait on the batch's one
        completion), and the first failed row in order is what raises.
        """
        return self.broker.submit_many(model, samples).result(timeout)

    # -- online re-training -------------------------------------------------------
    def update(self, model: str, samples: np.ndarray, labels: np.ndarray) -> int:
        """One online re-training round; returns the new model version.

        Applies the servable's ``update_batch`` rule (the application's
        mini-batched training rule) to the labelled samples, then
        hot-swaps the deployment with zero downtime: new requests cut
        over to the re-trained version immediately, in-flight requests
        settle against the old one, and nothing is dropped either way.
        Serving the updated model is bit-identical to an offline retrain
        on the same data (see :meth:`RequestBroker.update`).

        Raises:
            NotUpdatableError: The model's servable has no update rule.
        """
        return self.broker.update(model, samples, labels)

    def append(self, model: str, rows: np.ndarray) -> int:
        """One shape-changing growth round; returns the new model version.

        Applies the servable's ``append_batch`` rule (the application's
        growth rule — new bucket sequences, spectra, centroids) and
        hot-swaps the grown deployment with zero downtime, re-tracing the
        program family for the new shapes.  Serving the grown model is
        bit-identical to an offline rebuild of the full index (see
        :meth:`RequestBroker.append`).

        Raises:
            NotAppendableError: The model's servable has no append rule.
        """
        return self.broker.append(model, rows)

    def model_versions(self) -> dict:
        """``{name: version}`` for every served deployment (versions bump
        on every re-register or online update under the same name)."""
        return self.broker.model_versions()

    # -- cache persistence --------------------------------------------------------
    def save_cache(self, path) -> int:
        """Persist the compiled-program cache; returns entries saved.

        A restarted server sharing the same registry state can
        :meth:`load_cache` before registering and skip trace/compile
        entirely (``stats().cache_warm_hits`` counts the skips).
        """
        return self.registry.cache.save(path)

    def load_cache(self, path) -> int:
        """Restore a persisted compile cache; returns entries loaded."""
        return self.registry.cache.load(path)

    # -- observability ------------------------------------------------------------
    def stats(self, reset: bool = False) -> ServerStats:
        """A :class:`ServerStats` snapshot (latency splits, throughput,
        cache, workers, deadline sheds, SLOs and fair-scheduler lanes).
        ``reset=True`` atomically starts the next reporting interval."""
        return self.broker.stats(reset=reset)

    def reset_stats(self) -> None:
        """Zero the metrics window for per-interval reporting (SLO
        thresholds survive; see :meth:`ServingMetrics.reset`)."""
        self.broker.reset_stats()

    def traces(self, limit: Optional[int] = None, clear: bool = False) -> list:
        """Retained request traces as JSON-safe dicts (oldest first);
        empty unless the server was constructed with ``tracing=True``.
        ``clear=True`` empties the trace rings after the read."""
        return self.broker.traces(limit=limit, clear=clear)

    def __repr__(self) -> str:
        return (
            f"InferenceServer(models={self.registry.names()}, pool={self.pool!r}, "
            f"max_batch={self.broker.max_batch_size}, "
            f"wait={self.broker.max_wait_seconds * 1e3:.1f}ms)"
        )
