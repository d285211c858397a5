"""Tests for the transport-agnostic request core (repro.serving.broker),
the per-deployment SLO / latency-split metrics, and the versioned
hot-swap / online re-training path (including the submit-vs-swap race
regressions)."""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassificationInference
from repro.apps.common import bipolar_random
from repro.backends import compile as hdc_compile
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import (
    BatchCompletion,
    BatcherClosed,
    DeadlineExceeded,
    InferenceServer,
    ModelRegistry,
    NotUpdatableError,
    RequestBroker,
    Servable,
    ServingMetrics,
)
from repro.serving.scheduler import WorkerPool

DIM = 128
CLASSES = 5


def make_servable(seed: int = 2, name: str = "broker-model", similarity: str = "hamming") -> Servable:
    """A bipolar classifier.  Its Hamming search is proven row by row by the
    primitive table; a cosine one (``cossim``) keeps the boundary-row gate."""
    classes = bipolar_random(CLASSES, DIM, seed=seed)

    def build_program(batch_size: int) -> H.Program:
        prog = H.Program(f"{name}_b{batch_size}")

        @prog.define(H.hv(DIM), H.hm(CLASSES, DIM))
        def infer_one(encoding, class_hvs):
            if similarity == "cosine":
                return H.arg_max(H.cossim(encoding, class_hvs))
            distances = H.hamming_distance(H.sign(encoding), H.sign(class_hvs))
            return H.arg_min(distances)

        @prog.entry(H.hm(batch_size, DIM), H.hm(CLASSES, DIM))
        def main(encodings, class_hvs):
            return H.inference_loop(infer_one, encodings, class_hvs)

        return prog

    return Servable(
        name=name,
        build_program=build_program,
        constants={"class_hvs": classes},
        query_param="encodings",
        sample_shape=(DIM,),
        supported_targets=("cpu", "gpu"),
    )


def queries(n: int, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, (n, DIM)) * 2 - 1).astype(np.float32)


def _bundle_rule(constants: dict, samples: np.ndarray, labels: np.ndarray) -> dict:
    """A same-shape update rule: bundle each sample into its labelled row."""
    class_hvs = np.array(constants["class_hvs"], copy=True)
    np.add.at(class_hvs, labels, samples)
    return {"class_hvs": class_hvs}


class TestRequestBrokerStandalone:
    """The broker is usable without the InferenceServer facade."""

    def test_submit_batch_dispatch_settle(self):
        servable = make_servable()
        registry = ModelRegistry()
        deployment = registry.register(servable, warm_batch_sizes=())
        broker = RequestBroker(
            registry, WorkerPool(("cpu",)), max_batch_size=8, max_wait_seconds=0.002
        )
        broker.add_model(deployment)
        assert not broker.running
        broker.start()
        try:
            assert broker.running
            futures = [broker.submit(servable.name, q) for q in queries(20)]
            broker.drain()
            labels = [int(np.asarray(f.result(timeout=5.0))) for f in futures]
            assert all(0 <= label < CLASSES for label in labels)
            stats = broker.stats()
            assert stats.requests == 20
            assert broker.model_names() == [servable.name]
        finally:
            broker.stop()
        assert not broker.running

    def test_server_is_thin_adapter_over_broker(self):
        """The facade and its broker must observe the same state."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        servable = make_servable(name="adapter-model")
        server.register(servable)
        assert server.metrics is server.broker.metrics
        assert server.broker.registry is server.registry
        assert server.broker.pool is server.pool
        with server:
            server.infer(servable.name, queries(1)[0])
            server.drain()
        assert server.stats().requests == server.broker.stats().requests == 1


class TestLatencySplitAndSLO:
    def test_queue_wait_execute_split_recorded(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        servable = make_servable(name="split-model")
        server.register(servable)
        with server:
            for q in queries(24):
                server.submit(servable.name, q)
            server.drain()
            stats = server.stats()
        model = stats.model_stats[servable.name]
        assert model["requests"] == 24
        assert model["mean_execute_ms"] > 0.0
        assert model["queue_wait_p95_ms"] >= model["queue_wait_p50_ms"] >= 0.0
        assert model["execute_p95_ms"] >= model["execute_p50_ms"] > 0.0
        # The split components cannot exceed the end-to-end latency.
        assert model["mean_queue_wait_ms"] + model["mean_execute_ms"] <= (
            stats.mean_latency_ms * 1.5 + 1.0
        )

    def test_slo_violations_counted_per_model(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        strict = make_servable(seed=4, name="strict-slo")
        relaxed = make_servable(seed=5, name="relaxed-slo")
        server.register(strict, slo_ms=1e-9)       # everything violates
        server.register(relaxed, slo_ms=60_000.0)  # nothing violates
        with server:
            for q in queries(10):
                server.submit(strict.name, q)
                server.submit(relaxed.name, q)
            server.drain()
            stats = server.stats()
        assert stats.model_stats[strict.name]["slo_violations"] == 10
        assert stats.model_stats[strict.name]["slo_ms"] == pytest.approx(1e-9)
        assert stats.model_stats[relaxed.name]["slo_violations"] == 0
        assert stats.slo_violations == 10

    def test_no_slo_means_no_violations(self):
        metrics = ServingMetrics()
        metrics.record_requests("m", [(10.0, 9.0, 1)], 1.0)
        stats = metrics.snapshot()
        assert stats.model_stats["m"]["slo_ms"] is None
        assert stats.model_stats["m"]["slo_violations"] == 0

    def test_stats_to_dict_is_json_serializable(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=4)
        servable = make_servable(name="json-model")
        server.register(servable, slo_ms=5_000.0)
        with server:
            server.infer(servable.name, queries(1)[0])
            server.drain()
            payload = json.dumps(server.stats().to_dict())
        restored = json.loads(payload)
        assert restored["requests"] == 1
        assert all(isinstance(k, str) for k in restored["batch_size_histogram"])


class TestMetricsReset:
    def test_reset_zeroes_interval_but_keeps_slo(self):
        metrics = ServingMetrics()
        metrics.set_slo("m", 0.5)
        metrics.record_requests("m", [(1.0, 0.9, 1)], 0.1)
        metrics.record_failure()
        metrics.record_expired(2)
        assert metrics.snapshot().model_stats["m"]["slo_violations"] == 1

        metrics.reset()
        stats = metrics.snapshot()
        assert stats.requests == 0 and stats.batches == 0
        assert stats.failures == 0 and stats.deadline_exceeded == 0
        assert stats.latency_p99_ms == 0.0 and stats.mean_latency_ms == 0.0
        assert stats.model_stats["m"]["requests"] == 0
        assert stats.model_stats["m"]["slo_violations"] == 0
        assert stats.model_stats["m"]["slo_ms"] == pytest.approx(0.5)

        # The next interval counts from zero.
        metrics.record_requests("m", [(0.1, 0.05, 1)], 0.05)
        assert metrics.snapshot().requests == 1

    def test_per_interval_reporting_on_live_server(self):
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        servable = make_servable(name="interval-model")
        server.register(servable)
        with server:
            for q in queries(12):
                server.submit(servable.name, q)
            server.drain()
            first = server.stats()
            server.reset_stats()
            for q in queries(5, seed=9):
                server.submit(servable.name, q)
            server.drain()
            second = server.stats()
        assert first.requests == 12
        assert second.requests == 5  # only the new interval
        assert second.uptime_seconds < first.uptime_seconds

    def test_snapshot_consistent_under_concurrent_writers(self):
        """Hammer the collectors from several threads while snapshotting;
        every snapshot must be internally consistent (single lock)."""
        metrics = ServingMetrics()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.record_requests("m", [(0.001, 0.0005, 2)], 0.0005)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                stats = metrics.snapshot()
                # requests and the per-model collector advance under one
                # lock, so a torn read could never show model > total.
                assert stats.model_stats.get("m", {}).get("requests", 0) <= stats.requests
        finally:
            stop.set()
            for thread in threads:
                thread.join()


def make_broker(servable, max_batch_size: int = 8, max_wait_seconds: float = 0.001):
    registry = ModelRegistry()
    deployment = registry.register(servable, warm_batch_sizes=())
    broker = RequestBroker(
        registry, WorkerPool(("cpu",)), max_batch_size=max_batch_size,
        max_wait_seconds=max_wait_seconds,
    )
    broker.add_model(deployment)
    return registry, broker


class TestHotSwapRace:
    """The ROADMAP bug: submit used to read the batcher map unlocked, so a
    concurrent add_model/swap could hand it a just-closed batcher."""

    def test_submit_survives_swap_closing_the_fetched_batcher(self):
        """Regression with injected close timing: the batcher submit
        fetched is hot-swapped (closed + replaced) before the enqueue
        lands.  The pre-fix unlocked read propagated the closed-batcher
        error to the caller — a dropped request; the fixed path retries
        against the replacement and the request resolves normally."""
        servable = make_servable(name="race-model")
        registry, broker = make_broker(servable)
        broker.start()
        try:
            victim = broker._batchers[servable.name]
            real_submit = victim.submit_many
            fired = []

            def closing_submit(samples, **kwargs):
                if not fired:
                    fired.append(True)
                    # The concurrent hot-swap, timed to land exactly
                    # between submit's batcher fetch and its enqueue.
                    broker.add_model(registry.register(servable, warm_batch_sizes=()))
                return real_submit(samples, **kwargs)

            victim.submit_many = closing_submit
            future = broker.submit(servable.name, queries(1)[0])
            broker.drain()
            assert fired, "the injected hot-swap never ran"
            assert victim.closed  # the fetched batcher really was closed
            assert 0 <= int(np.asarray(future.result(timeout=5.0))) < CLASSES
            assert broker.stats().failures == 0
        finally:
            broker.stop()

    def test_stopped_swap_closes_old_batcher_before_draining_it(self):
        """Regression (injected timing, stopped broker): the old batcher
        must close BEFORE its queued requests drain into the replacement.
        The reverse order leaves a window — drain, racing enqueue
        succeeds, close — where the racing request is orphaned in a
        batcher nothing will ever feed or adopt again (future never
        resolves, drain counter leaks)."""
        servable = make_servable(name="stopped-swap-model")
        registry, broker = make_broker(servable)
        old = broker._batchers[servable.name]
        real_drain = old.drain_segments
        window = {}

        def racing_drain():
            drained = real_drain()
            # The concurrent submit landing inside the swap window: with
            # close-first ordering it is rejected (and the broker-level
            # submit would retry into the replacement); with drain-first
            # ordering it enqueues into the drained old batcher — orphaned.
            try:
                old.submit(queries(1)[0])
                window["outcome"] = "orphaned"
            except BatcherClosed:
                window["outcome"] = "rejected"
            return drained

        old.drain_segments = racing_drain
        broker.add_model(registry.register(servable, warm_batch_sizes=()))
        assert window["outcome"] == "rejected"
        broker.drain(timeout=0.1)  # and nothing leaked into the counter

    def test_submit_hammered_by_concurrent_hot_swaps(self):
        """Stress: submitters race add_model/swap of the same name; every
        request must resolve (no drops, no errors, no orphans)."""
        servable = make_servable(name="hammer-model")
        registry, broker = make_broker(servable)
        broker.start()
        stop = threading.Event()
        futures, errors = [], []
        futures_lock = threading.Lock()
        samples = queries(16)

        def submitter(seed: int) -> None:
            i = seed
            while not stop.is_set():
                try:
                    future = broker.submit(servable.name, samples[i % len(samples)])
                    with futures_lock:
                        futures.append(future)
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)
                i += 1
                time.sleep(0.0002)

        threads = [threading.Thread(target=submitter, args=(t,)) for t in range(4)]
        try:
            for thread in threads:
                thread.start()
            deployment = registry.get(servable.name)
            for round_index in range(12):
                if round_index % 2 == 0:
                    # re-register under the live name (the original swap idiom)
                    deployment = registry.register(servable, warm_batch_sizes=())
                    broker.add_model(deployment)
                else:
                    replacement = deployment.with_servable(servable)
                    registry.swap(servable.name, replacement)
                    broker.swap(replacement)
                    deployment = replacement
                time.sleep(0.003)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            broker.drain()
            stats = broker.stats()
            broker.stop()
        assert not errors, errors
        assert futures, "stress loop produced no requests"
        labels = [int(np.asarray(f.result(timeout=5.0))) for f in futures]
        assert all(0 <= label < CLASSES for label in labels)
        assert stats.failures == 0
        assert stats.requests == len(futures)  # every request accounted for
        assert registry.version(servable.name) == 13  # 1 + 12 swaps, monotonic


class TestDrainAccounting:
    """The second ROADMAP-adjacent bug: submit used to register with the
    drain counter only after the enqueue, so a concurrent drain() could
    return while a just-submitted request was still in flight."""

    def test_outstanding_registered_before_enqueue(self):
        servable = make_servable(name="drain-order-model")
        _, broker = make_broker(servable)
        batcher = broker._batchers[servable.name]
        real_submit = batcher.submit_many
        observed = []

        def checking_submit(samples, **kwargs):
            with broker._drain_cond:
                observed.append(broker._outstanding)
            return real_submit(samples, **kwargs)

        batcher.submit_many = checking_submit
        broker.submit(servable.name, queries(1)[0])  # stopped broker: queues
        assert observed == [1]  # already registered when the enqueue ran

    def test_rollback_on_validation_error(self):
        servable = make_servable(name="drain-validate-model")
        _, broker = make_broker(servable)
        with pytest.raises(ValueError):
            broker.submit(servable.name, np.zeros(DIM + 1, dtype=np.float32))
        broker.drain(timeout=0.1)  # nothing outstanding leaked

    def test_rollback_on_enqueue_error(self):
        servable = make_servable(name="drain-enqueue-model")
        _, broker = make_broker(servable)
        batcher = broker._batchers[servable.name]

        def failing_submit(samples, **kwargs):
            raise RuntimeError("injected enqueue failure")

        batcher.submit_many = failing_submit
        with pytest.raises(RuntimeError):
            broker.submit(servable.name, queries(1)[0])
        broker.drain(timeout=0.1)  # nothing outstanding leaked

    def test_closed_without_replacement_still_rejects(self):
        """Retry-on-closed must not spin when the batcher closed because
        the broker stopped (closed but never replaced)."""
        servable = make_servable(name="drain-stopped-model")
        _, broker = make_broker(servable)
        broker.start()
        broker.stop()
        with pytest.raises(BatcherClosed):
            broker.submit(servable.name, queries(1)[0])
        broker.drain(timeout=0.1)


def reference_labels(servable, samples) -> list:
    """What a correct server answers: the batch program run directly."""
    handle = hdc_compile(servable.build_program(len(samples)), target="cpu").bind(
        **servable.constants
    )
    return [int(v) for v in np.asarray(handle.run(encodings=np.asarray(samples)).output)]


class TestBatchPath:
    """``submit_many``: the caller's batch is the unit of submission,
    drain accounting, metrics and completion."""

    def test_rows_split_over_two_batches_resolve_once_in_order(self):
        servable = make_servable(name="split-batch-model")
        _, broker = make_broker(servable, max_batch_size=32)
        samples = queries(64)
        fired = []
        completion = broker.submit_many(servable.name, samples)  # stopped: all 64 queue up
        completion.add_done_callback(fired.append)
        assert not completion.done()
        broker.start()
        try:
            results = completion.result(timeout=10.0)
            broker.drain()
            stats = broker.stats()
        finally:
            broker.stop()
        assert [int(np.asarray(r)) for r in results] == reference_labels(servable, samples)
        assert fired == [completion]  # one completion event, however many batches
        assert stats.batch_size_histogram == {32: 2}
        assert stats.requests == 64 and stats.failures == 0

    def test_empty_batch_is_already_done(self):
        servable = make_servable(name="empty-batch-model")
        _, broker = make_broker(servable)
        completion = broker.submit_many(servable.name, [])
        assert completion.done() and completion.result(timeout=0) == []
        broker.drain(timeout=0.1)

    def test_partly_shed_completion_raises_first_failure_and_counts_as_per_row(self):
        """Some slots of one completion shed, the others served: the
        served rows are requests, the shed rows are deadline sheds —
        exactly the per-row accounting — and ``result()`` raises."""
        servable = make_servable(name="part-shed-model")
        _, broker = make_broker(servable)
        samples = queries(8)
        completion = broker.submit_many(servable.name, samples, deadline_ms=1.0)
        doomed = {2, 5, 6}
        lane = broker._batchers[servable.name]._lanes[0]
        [segment] = lane
        # Cut the one queued segment at the doomed runs' edges, as size
        # watermarks would, and give the survivors a real budget.
        lane[:] = [segment.split(rows) for rows in (2, 1, 2, 2)] + [segment]
        for piece in lane:
            if not doomed & set(piece.slots):
                piece.deadline_ms = 60_000.0
        time.sleep(0.02)  # the 1 ms deadlines lapse in the queue
        broker.start()
        try:
            with pytest.raises(DeadlineExceeded):
                completion.result(timeout=10.0)
            broker.drain()
            stats = broker.stats()
        finally:
            broker.stop()
        assert set(completion._errors) == doomed
        served = [i for i in range(8) if i not in doomed]
        assert [int(np.asarray(completion._results[i])) for i in served] == [
            reference_labels(servable, samples)[i] for i in served
        ]
        assert stats.deadline_exceeded == 3 and stats.requests == 5 and stats.failures == 0

    def test_worker_exception_fails_only_its_batchs_slots(self):
        calls = []

        def flaky_postprocess(outputs):
            calls.append(len(outputs))
            if len(calls) == 1:
                raise RuntimeError("injected worker failure")
            return outputs

        servable = make_servable(name="flaky-batch-model")
        servable.postprocess = flaky_postprocess
        _, broker = make_broker(servable, max_batch_size=4)
        completion = broker.submit_many(servable.name, queries(8))  # stopped: two batches of 4
        broker.start()
        try:
            with pytest.raises(RuntimeError, match="injected worker failure"):
                completion.result(timeout=10.0)
            broker.drain()
            stats = broker.stats()
        finally:
            broker.stop()
        assert sorted(completion._errors) == [0, 1, 2, 3]  # the first batch's rows only
        assert all(r is not None for r in completion._results[4:])
        assert stats.failures == 4 and stats.requests == 4

    def test_hot_swap_race_lands_all_rows_in_the_replacement_exactly_once(self):
        servable = make_servable(name="batch-race-model")
        registry = ModelRegistry()
        broker = RequestBroker(
            registry, WorkerPool(("cpu",)), max_batch_size=8, max_wait_seconds=0.001, tracing=True
        )
        broker.add_model(registry.register(servable, warm_batch_sizes=()))
        samples = queries(12)
        broker.start()
        try:
            victim = broker._batchers[servable.name]
            real_submit = victim.submit_many
            attempts = []

            def closing_submit(rows, **kwargs):
                attempts.append(len(rows))
                if len(attempts) == 1:
                    # The hot-swap lands between the batcher fetch and the
                    # enqueue: the fetched batcher is closed and replaced.
                    broker.add_model(registry.register(servable, warm_batch_sizes=()))
                return real_submit(rows, **kwargs)

            victim.submit_many = closing_submit
            completion = broker.submit_many(servable.name, samples)
            results = completion.result(timeout=10.0)
            broker.drain()
            stats = broker.stats()
            traces = broker.traces()
        finally:
            broker.stop()
        assert attempts == [12] and victim.closed and len(victim) == 0  # nothing landed in the old queue
        assert [int(np.asarray(r)) for r in results] == reference_labels(servable, samples)
        assert stats.requests == 12 and stats.failures == 0  # no drop, no duplicate
        assert len(traces) == 12 and broker.tracer.stats()["started"] == 12
        for trace in traces:
            names = [span["name"] for span in trace["spans"]]
            assert names.count("retry") == 1 and "settle" in names, names

    def test_mis_shaped_row_rolls_back_the_whole_batch(self):
        servable = make_servable(name="bad-row-model")
        _, broker = make_broker(servable)
        samples = list(queries(6))
        samples[3] = np.zeros(DIM + 1, dtype=np.float32)
        with pytest.raises(ValueError):
            broker.submit_many(servable.name, samples)
        assert broker._outstanding == 0  # rolled back by n, not by one
        assert len(broker._batchers[servable.name]) == 0  # nothing enqueued
        broker.drain(timeout=0.1)

    def test_drain_waits_for_every_slot_and_sees_settled_state(self):
        """Ordering: the drain count covers a slot until it has resolved,
        and by the time the completion fires the metrics and the trace
        marks of its rows are already recorded."""
        servable = make_servable(name="drain-slots-model")
        registry = ModelRegistry()
        broker = RequestBroker(
            registry, WorkerPool(("cpu",)), max_batch_size=8, max_wait_seconds=0.001, tracing=True
        )
        broker.add_model(registry.register(servable, warm_batch_sizes=()))
        seen = {}

        def on_done(completion):
            seen["outstanding"] = broker._outstanding
            seen["requests"] = broker.stats().requests
            seen["settled_traces"] = sum(
                "settle" in [span["name"] for span in trace["spans"]] for trace in broker.traces()
            )

        completion = broker.submit_many(servable.name, queries(8))
        completion.add_done_callback(on_done)
        with pytest.raises(TimeoutError):
            broker.drain(timeout=0.05)  # stopped broker: every slot still unresolved
        broker.start()
        try:
            broker.drain(timeout=10.0)
            assert completion.done()  # drain returned, so no slot can be pending
        finally:
            broker.stop()
        assert seen == {"outstanding": 8, "requests": 8, "settled_traces": 8}

    def test_infer_many_timeout_bounds_the_whole_call(self):
        """Eight rows that each resolve well inside the timeout but take
        longer than it together: a per-row timeout would succeed."""

        def slow_postprocess(outputs):
            time.sleep(0.03)
            return outputs

        servable = make_servable(name="slow-rows-model")
        servable.postprocess = slow_postprocess
        server = InferenceServer(workers=("cpu",), max_batch_size=1, max_wait_seconds=0.0005)
        server.register(servable)
        with server:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                server.infer_many(servable.name, queries(8), timeout=0.1)
            assert time.monotonic() - start < 0.2
            server.drain()

    def test_batch_stats_equal_per_row_accounting(self):
        """One 64-row batch accounted in one ``record_requests`` round
        reads back field for field like 64 single-row rounds."""
        rng = np.random.default_rng(5)
        latencies = [float(v) for v in rng.uniform(1e-4, 5e-2, 64)]
        queue_waits = [float(v) * 0.5 for v in latencies]
        batch, rows = ServingMetrics(), ServingMetrics()
        for metrics in (batch, rows):
            metrics.set_slo("m", 20.0)
        violated = batch.record_requests(
            "m", [(latency, wait, 1) for latency, wait in zip(latencies, queue_waits)], 2e-3,
            version=3,
        )
        for latency, wait in zip(latencies, queue_waits):
            rows.record_requests("m", [(latency, wait, 1)], 2e-3, version=3)
        assert violated == [i for i, latency in enumerate(latencies) if latency > 0.02]
        a, b = batch.snapshot().to_dict(), rows.snapshot().to_dict()
        assert a["requests"] == b["requests"] == 64
        assert a["slo_violations"] == b["slo_violations"] == len(violated) > 0
        assert a["latency_histogram"] == b["latency_histogram"]
        assert (a["batch_size_histogram"], b["batch_size_histogram"]) == ({"64": 1}, {"1": 64})
        model_a, model_b = a["model_stats"]["m"], b["model_stats"]["m"]
        for key in ("requests", "requests_by_version", "slo_violations", "version"):
            assert model_a[key] == model_b[key], key
        for phase in ("latency", "queue_wait"):
            assert model_a["histograms"][phase] == model_b["histograms"][phase], phase
        # The shared execute time is one record(value, count=n): the same
        # buckets and extrema, its float sum n * value instead of n additions.
        execute_a, execute_b = (dict(m["histograms"]["execute"]) for m in (model_a, model_b))
        assert execute_a.pop("sum") == pytest.approx(execute_b.pop("sum"), rel=1e-12)
        assert execute_a == execute_b

    def test_an_executed_batch_takes_the_metrics_lock_once(self):
        """Its stage split, stage profile and requests are one round."""

        class CountingLock:
            def __init__(self, lock):
                self.lock, self.entered = lock, 0

            def __enter__(self):
                self.entered += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        servable = make_servable(name="one-round-model")
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)
        with server:
            server.infer_many(servable.name, queries(8))  # compiled and bound
            metrics = server.broker.metrics
            before = metrics.snapshot().to_dict()["model_stats"][servable.name]
            metrics._lock = counting = CountingLock(metrics._lock)
            server.infer_many(servable.name, queries(8, seed=4))
            entered = counting.entered
            after = metrics.snapshot().to_dict()["model_stats"][servable.name]
        assert entered == 1
        assert after["requests"] - before["requests"] == 8
        assert after["vectorized_stages"] == before["vectorized_stages"] + 1
        assert sum(slot["executions"] for slot in after["stage_profile"].values()) == 2

    def test_served_batch_counts_like_the_same_rows_submitted_singly(self):
        samples = queries(64)
        snapshots = []
        for as_batch in (True, False):
            servable = make_servable(name="count-model")
            _, broker = make_broker(servable, max_batch_size=64)
            broker.metrics.set_slo(servable.name, 1e-9)  # every request violates
            if as_batch:
                broker.submit_many(servable.name, samples)
            else:
                for sample in samples:
                    broker.submit(servable.name, sample)
            broker.start()  # queued while stopped: both ways execute as one 64-row batch
            try:
                broker.drain(timeout=10.0)
                snapshots.append(broker.stats().to_dict())
            finally:
                broker.stop()
        a, b = snapshots
        for key in ("requests", "batches", "batch_size_histogram", "slo_violations", "failures"):
            assert a[key] == b[key], key
        model_a, model_b = a["model_stats"]["count-model"], b["model_stats"]["count-model"]
        for key in ("requests", "requests_by_version", "slo_violations"):
            assert model_a[key] == model_b[key], key
        for phase in ("latency", "queue_wait", "execute"):
            assert model_a["histograms"][phase]["count"] == model_b["histograms"][phase]["count"] == 64


class TestSegments:
    """A caller's batch is one queued segment: validated once, split only
    at a size watermark, run on the caller's memory when it is the whole
    batch, and settled by slice."""

    def test_a_whole_batch_caller_block_reaches_the_program_without_a_copy(self, monkeypatch):
        from repro.backends import BoundProgram

        seen, real_run = [], BoundProgram.run

        def recording_run(self, **inputs):
            seen.append(inputs["encodings"])
            return real_run(self, **inputs)

        monkeypatch.setattr(BoundProgram, "run", recording_run)
        servable = make_servable(name="zero-copy-model")
        _, broker = make_broker(servable, max_batch_size=64)
        block = queries(64)
        completion = broker.submit_many(servable.name, block)  # stopped: one 64-row segment
        broker.start()
        try:
            results = completion.result(timeout=10.0)
            single = broker.submit(servable.name, block[5]).result(timeout=10.0)
        finally:
            broker.stop()
        assert [np.shares_memory(batch, block) for batch in seen] == [True, True]
        assert seen[1].shape == (1, DIM)  # submit is a one-row view, not a stack
        assert [int(np.asarray(r)) for r in results] == reference_labels(servable, block)
        assert int(np.asarray(single)) == int(np.asarray(results[5]))

    def test_three_48_row_callers_split_64_64_16_and_settle_slot_by_slot(self):
        servable = make_servable(name="split-callers-model")
        samples = queries(144, seed=8)
        _, broker = make_broker(servable, max_batch_size=64)
        _, per_row = make_broker(servable, max_batch_size=64)
        completions = [broker.submit_many(servable.name, samples[i : i + 48]) for i in (0, 48, 96)]
        futures = [per_row.submit(servable.name, row) for row in samples]
        broker.start()
        per_row.start()
        try:
            results = [r for completion in completions for r in completion.result(timeout=10.0)]
            expected = [future.result(timeout=10.0) for future in futures]
            broker.drain()
            stats = broker.stats()
        finally:
            broker.stop()
            per_row.stop()
        assert stats.batch_size_histogram == {64: 2, 16: 1}
        assert stats.requests == 144 and stats.failures == 0
        for result, reference in zip(results, expected, strict=True):  # bit-identical
            result, reference = np.asarray(result), np.asarray(reference)
            assert (result.dtype, result.tobytes()) == (reference.dtype, reference.tobytes())
        assert [int(np.asarray(r)) for r in results] == reference_labels(servable, samples)

    def test_rows_lists_strided_views_and_bad_shapes_behave_as_per_row_submits(self):
        servable = make_servable(name="input-forms-model")
        _, broker = make_broker(servable)
        block = queries(8, seed=4)
        strided = np.repeat(block, 2, axis=1)[:, ::2]
        assert not strided.flags.c_contiguous and np.array_equal(strided, block)
        wrong = f"{servable.name}: sample has shape ({DIM + 1},), expected ({DIM},)"
        for bad in (
            lambda: broker.submit_many(servable.name, np.zeros((4, DIM + 1), dtype=np.float32)),
            lambda: broker.submit_many(servable.name, [*block[:3], np.zeros(DIM + 1)]),
            lambda: broker.submit(servable.name, np.zeros(DIM + 1, dtype=np.float32)),
        ):
            with pytest.raises(ValueError) as raised:
                bad()
            assert str(raised.value) == wrong
        with pytest.raises(ValueError) as raised:
            broker.submit_many(servable.name, block[0])  # one row is not a batch of rows
        assert str(raised.value) == f"{servable.name}: sample has shape (), expected ({DIM},)"
        assert broker._outstanding == 0 and len(broker._batchers[servable.name]) == 0
        expected = reference_labels(servable, block)
        broker.start()
        try:
            for form in (block, list(block), strided, np.asfortranarray(block)):
                results = broker.submit_many(servable.name, form).result(timeout=10.0)
                assert [int(np.asarray(r)) for r in results] == expected
        finally:
            broker.stop()


class TestPullingWorkers:
    """Workers pull their own batches: no thread sits between a model's
    batcher and the worker that runs its batch."""

    def test_a_started_broker_runs_one_thread_per_worker_and_a_swap_adds_none(self):
        before = set(threading.enumerate())

        def new_threads() -> list:
            return sorted(thread.name for thread in set(threading.enumerate()) - before)

        registry = ModelRegistry()
        broker = RequestBroker(
            registry, WorkerPool(("cpu", "gpu")), max_batch_size=8, max_wait_seconds=0.001
        )
        models = [make_servable(seed=2, name="threads-a"), make_servable(seed=4, name="threads-b")]
        for servable in models:
            broker.add_model(registry.register(servable, warm_batch_sizes=()))
        broker.start()
        try:
            assert new_threads() == ["hdc-worker-cpu-0", "hdc-worker-gpu-0"]
            for servable in models:
                broker.submit_many(servable.name, queries(12)).result(timeout=10.0)
            broker.add_model(registry.register(models[0], warm_batch_sizes=()))  # hot-swap
            broker.submit_many(models[0].name, queries(12)).result(timeout=10.0)
            assert new_threads() == ["hdc-worker-cpu-0", "hdc-worker-gpu-0"]
        finally:
            broker.stop()
        assert new_threads() == []

    def test_a_blocked_worker_does_not_delay_a_model_an_idle_worker_serves(self):
        """In a heterogeneous pool, a model whose only worker is stuck
        inside execute (with a backlog queued behind it) never holds back
        a model the idle worker serves."""
        registry = ModelRegistry()
        broker = RequestBroker(
            registry, WorkerPool(("cpu", "gpu")), max_batch_size=4, max_wait_seconds=0.001
        )
        slow = dataclasses.replace(make_servable(seed=2, name="gpu-bound"), supported_targets=("gpu",))
        fast = dataclasses.replace(make_servable(seed=4, name="cpu-bound"), supported_targets=("cpu",))
        broker.add_model(registry.register(slow, target="gpu", warm_batch_sizes=()))
        broker.add_model(registry.register(fast, warm_batch_sizes=()))
        entered, release = threading.Event(), threading.Event()
        execute = broker._execute

        def blocking_execute(worker, work):
            if work.deployment.name == slow.name:
                entered.set()
                release.wait(timeout=30.0)
            execute(worker, work)

        broker._execute = blocking_execute
        broker.start()
        try:
            held = broker.submit_many(slow.name, queries(4))
            assert entered.wait(timeout=10.0)
            backlog = broker.submit_many(slow.name, queries(8, seed=5))
            samples = queries(6, seed=6)
            served = broker.submit_many(fast.name, samples).result(timeout=5.0)
            assert [int(np.asarray(r)) for r in served] == reference_labels(fast, samples)
            assert not held.done() and not backlog.done()
            release.set()
            held.result(timeout=10.0)
            backlog.result(timeout=10.0)
            workers = broker.stats().to_dict()["worker_stats"]
        finally:
            release.set()
            broker.stop()
        assert workers["gpu-0"]["samples"] == 12 and workers["cpu-0"]["samples"] == 6


    def test_stress_more_workers_than_cores_under_swaps_loses_no_row(self):
        """Four workers, four callers on two models, a hot-swapper and a
        short switch interval: every row resolves to its reference label
        exactly once, and the request and worker counters agree."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        registry = ModelRegistry()
        broker = RequestBroker(
            registry, WorkerPool(("cpu",) * 4), max_batch_size=8, max_wait_seconds=0.0005
        )
        models = [make_servable(seed=2, name="stress-a"), make_servable(seed=4, name="stress-b")]
        for servable in models:
            broker.add_model(registry.register(servable, warm_batch_sizes=()))
        samples = queries(24)
        expected = {servable.name: reference_labels(servable, samples) for servable in models}
        sent, wrong = [], []

        def caller(servable, first):
            for n in range(first, 24, 2):
                labels = broker.submit_many(servable.name, samples[:n]).result(timeout=10.0)
                sent.append(n)
                if [int(np.asarray(r)) for r in labels] != expected[servable.name][:n]:
                    wrong.append((servable.name, n))

        def swapper():
            for _ in range(20):
                broker.add_model(registry.register(models[0], warm_batch_sizes=()))
                time.sleep(0.002)

        threads = [threading.Thread(target=caller, args=(m, k)) for m in models for k in (1, 2)]
        threads.append(threading.Thread(target=swapper))
        broker.start()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            broker.drain(timeout=10.0)
            stats = broker.stats()
        finally:
            broker.stop()
            sys.setswitchinterval(interval)
        assert wrong == [] and len(sent) == 46
        assert stats.requests == sum(sent) and stats.failures == 0
        assert sum(worker["samples"] for worker in stats.to_dict()["worker_stats"].values()) == sum(sent)


class TestBatchCompletion:
    def test_first_failure_in_slot_order_wins(self):
        completion = BatchCompletion(4)
        late, early = RuntimeError("slot 3"), ValueError("slot 1")
        completion.settle(range(3, 4), error=late)
        completion.settle(range(0, 1), ["a"])
        completion.settle(range(2, 3), ["c"])
        assert not completion.done()
        with pytest.raises(TimeoutError):
            completion.result(timeout=0.01)
        completion.settle(range(1, 2), error=early)
        assert completion.done()
        with pytest.raises(ValueError, match="slot 1"):
            completion.result(timeout=0)

    def test_done_callback_fires_once_now_or_later(self):
        completion, fired = BatchCompletion(2), []
        completion.add_done_callback(fired.append)
        completion.settle(range(0, 1), ["a"])
        assert fired == []
        completion.settle(range(1, 2), ["b"])
        completion.add_done_callback(fired.append)  # already done: fires immediately
        assert fired == [completion, completion]
        assert completion.result(timeout=0) == ["a", "b"]

    def test_concurrent_settles_lose_no_slot(self):
        """Time-bounded stress: more settling threads than cores, a short
        switch interval, every thread resolving its own interleaved slot
        ranges one small range at a time."""
        import sys

        n, threads_n = 6000, 6
        released, fired = [], []
        completion = BatchCompletion(n, on_settled=released.append)
        completion.add_done_callback(fired.append)

        def settler(offset: int) -> None:
            for start in range(offset * 7, n, threads_n * 7):
                group = range(start, min(start + 7, n))
                completion.settle(group, [slot * 2 for slot in group])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=settler, args=(i,)) for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert completion.result(timeout=0) == [slot * 2 for slot in range(n)]
        assert fired == [completion] and sum(released) == n


class TestVersionedHotSwap:
    def test_registry_versions_bump_on_register_and_swap(self):
        servable = make_servable(name="versioned-model")
        registry = ModelRegistry()
        deployment = registry.register(servable, warm_batch_sizes=())
        assert deployment.version == 1
        assert registry.version(servable.name) == 1
        replacement = deployment.with_servable(servable)
        assert registry.swap(servable.name, replacement) == 2
        assert registry.get(servable.name) is replacement
        assert registry.versions() == {servable.name: 2}
        from repro.serving import Deployment

        unregistered = Deployment("never-registered", servable, registry.cache)
        with pytest.raises(KeyError):
            registry.swap("never-registered", unregistered)
        with pytest.raises(ValueError):  # name mismatch guard
            registry.swap("some-other-name", replacement)
        # Compare-and-swap guard: a replacement derived from a deployment
        # the registry no longer holds must be refused, not installed.
        stale_base = deployment  # already replaced above
        with pytest.raises(RuntimeError):
            registry.swap(
                servable.name, stale_base.with_servable(servable), expected=stale_base
            )
        current = registry.get(servable.name)
        assert registry.swap(
            servable.name, current.with_servable(servable), expected=current
        ) == 3
        # unregister keeps the version memory: re-register continues it
        registry.unregister(servable.name)
        assert registry.register(servable, warm_batch_sizes=()).version == 4

    def test_swap_versions_monotonic_under_concurrent_swappers(self):
        servable = make_servable(name="mono-model")
        registry = ModelRegistry()
        deployment = registry.register(servable, warm_batch_sizes=())
        per_thread = [[] for _ in range(4)]

        def swapper(index: int) -> None:
            for _ in range(25):
                per_thread[index].append(
                    registry.swap(servable.name, deployment.with_servable(servable))
                )

        threads = [threading.Thread(target=swapper, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for versions in per_thread:
            assert versions == sorted(versions)  # each swapper sees increasing
        combined = sorted(v for versions in per_thread for v in versions)
        assert combined == list(range(2, 102))  # unique, gapless, monotonic
        assert registry.version(servable.name) == 101

    def test_update_rounds_rebind_without_compiling_or_evicting(self):
        """An update keeps its parent's signature (same rule, same shapes:
        the same program family), so a round re-binds the cached bucket
        ladder to the new constants — no compile, no eviction, a cache of
        constant size however many rounds run.  Growth, which changes the
        shapes, still evicts (tests/test_growth.py)."""
        from repro.apps.classification import classification_servable

        rng = np.random.default_rng(17)
        servable = classification_servable(
            "rebind-model",
            dimension=64,
            similarity="hamming",
            rp_matrix=bipolar_random(64, 8, seed=2),
            classes=rng.standard_normal((3, 64)).astype(np.float32),
        )
        server = InferenceServer(workers=("cpu",), max_batch_size=4, max_wait_seconds=0.001)
        server.register(servable, warm="full")
        cache = server.registry.cache
        registered = (cache.stats.misses, len(cache))
        samples = rng.standard_normal((6, 8)).astype(np.float32)
        with server:
            for _ in range(3):
                before = server.registry.get("rebind-model")
                server.update("rebind-model", samples, rng.integers(0, 3, 6))
                after = server.registry.get("rebind-model")
                assert (cache.stats.misses, len(cache)) == registered
                assert after.servable.signature == servable.signature
                assert after.handle_for(4).compiled is before.handle_for(4).compiled
            phases = server.stats().to_dict()["model_stats"]["rebind-model"]["swap_profile"]
        assert cache.stats.evictions == 0
        assert phases["update/evict"]["rounds"] == 3

    def test_swapped_handles_reprobe_the_gate_per_bucket(self):
        """Handles of a swapped-in version share the compiled programs but
        not the gate verdicts: each bucket's first batch on the new
        constants runs the boundary-row gate again (a cosine search: the
        table proves no ``cossim`` block, so its stage is gated)."""
        servable = dataclasses.replace(
            make_servable(name="reprobe-model", similarity="cosine"), update_batch=_bundle_rule
        )
        server = InferenceServer(workers=("cpu",), max_batch_size=4, max_wait_seconds=0.001)
        server.register(servable, warm="full")
        worker = server.pool.workers[0]
        ladder = (1, 2, 4)
        with server:
            old = server.registry.get(servable.name)
            for bucket in ladder:  # earn v1's verdicts
                old.handle_for(bucket, worker=worker).run(encodings=queries(bucket))
            server.update(servable.name, queries(4, seed=9), np.array([0, 1, 2, 3]))
            new = server.registry.get(servable.name)
        for bucket in ladder:
            stale, fresh = old.handle_for(bucket, worker=worker), new.handle_for(bucket, worker=worker)
            assert fresh.compiled is stale.compiled and fresh is not stale
            assert stale._verdicts and fresh._verdicts == {}
            [profile] = fresh.run(encodings=queries(bucket)).report.notes["stage_profile"]
            assert profile["route"] == "vectorized" and profile["gate_seconds"] > 0.0
            assert fresh._verdicts

    def test_rejection_pinned_on_v1_does_not_carry_to_v2(self):
        """The declared batched route below is wrong exactly while the
        bound codebook is negative.  v1's handle rejects and pins the
        per-row loop; v2 (the codebook negated by the update rule) re-binds
        the same compiled program, re-probes and takes the batched route."""

        def encode_row(row, codebook):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return arr * np.asarray(codebook)[0]

        def encode_batch(rows, codebook):
            scale = np.asarray(codebook)[0]
            out = np.asarray(rows) * scale
            if scale[0] < 0:
                out[1:] += 1.0  # wrong on every row but the first
            return out

        def build_program(batch_size: int) -> H.Program:
            prog = H.Program(f"gated_b{batch_size}")

            @prog.entry(H.hm(batch_size, 8), H.hm(1, 8))
            def main(rows, codebook):
                return H.parallel_map(
                    encode_row, rows, extra=codebook, output_dim=8, batch_impl=encode_batch
                )

            return prog

        servable = Servable(
            name="gated-model",
            build_program=build_program,
            constants={"codebook": -np.ones((1, 8), dtype=np.float32)},
            query_param="rows",
            sample_shape=(8,),
            supported_targets=("cpu",),
            update_batch=lambda constants, samples, labels: {"codebook": -constants["codebook"]},
        )
        registry = ModelRegistry()
        v1 = registry.register(servable, warm_batch_sizes=(4,))
        rows = np.arange(32, dtype=np.float32).reshape(4, 8)
        for _ in range(2):  # rejected, then pinned
            result = v1.run(rows)
            assert np.array_equal(np.asarray(result.output), -rows)
            assert result.report.notes["stage_fallbacks"] == 1
        v2 = v1.with_servable(servable.updated(rows, np.zeros(4, dtype=np.int64)))
        registry.swap(servable.name, v2, expected=v1)
        assert v2.handle_for(4).compiled is v1.handle_for(4).compiled
        result = v2.run(rows)
        assert np.array_equal(np.asarray(result.output), rows)
        assert result.report.notes["stage_vectorized"] == 1
        assert result.report.notes["stage_fallbacks"] == 0
        assert v1.run(rows).report.notes["stage_fallbacks"] == 1  # v1's pin stays its own

    def test_updated_refuses_a_rule_that_changes_a_constant_shape(self):
        servable = make_servable(name="shape-guard")
        grow = dataclasses.replace(
            servable,
            update_batch=lambda c, s, l: {"class_hvs": np.vstack([c["class_hvs"], s[:1]])},
        )
        with pytest.raises(ValueError, match="'class_hvs'"):
            grow.updated(queries(2), np.zeros(2, dtype=np.int64))
        recast = dataclasses.replace(
            servable, update_batch=lambda c, s, l: {"class_hvs": c["class_hvs"].astype(np.float64)}
        )
        with pytest.raises(ValueError, match="dtype"):
            recast.updated(queries(2), np.zeros(2, dtype=np.int64))
        extra = dataclasses.replace(
            servable, update_batch=lambda c, s, l: {**c, "bias": np.zeros(CLASSES)}
        )
        with pytest.raises(ValueError, match="'bias'"):
            extra.updated(queries(2), np.zeros(2, dtype=np.int64))

    def test_update_rejects_malformed_labels(self):
        """Negative / non-integer / out-of-range labels must be refused
        before they can silently corrupt the swapped-in class memories
        (numpy negative indexing would bundle into the *last* class)."""
        from repro.apps.classification import classification_servable

        rng = np.random.default_rng(13)
        servable = classification_servable(
            "label-guard",
            dimension=64,
            similarity="hamming",
            rp_matrix=bipolar_random(64, 8, seed=1),
            classes=rng.standard_normal((3, 64)).astype(np.float32),
        )
        samples = rng.standard_normal((4, 8)).astype(np.float32)
        good = servable.updated(samples, np.array([0, 1, 2, 0]))
        assert good.constants["class_hvs"].shape == (3, 64)
        with pytest.raises(ValueError):  # negative label
            servable.updated(samples, np.array([0, 1, -1, 0]))
        with pytest.raises(ValueError):  # non-integer labels
            servable.updated(samples, np.array([0.0, 1.0, 2.0, 0.0]))
        with pytest.raises(ValueError):  # out of range for 3 classes
            servable.updated(samples, np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError):  # label/sample count mismatch
            servable.updated(samples, np.array([0, 1]))
        with pytest.raises(ValueError):  # wrong sample shape
            servable.updated(rng.standard_normal((4, 9)).astype(np.float32), np.zeros(4, np.int64))

    def test_update_rule_cannot_mutate_bound_constants(self):
        """update_batch receives read-only views: an in-place rule fails
        loudly instead of corrupting the live deployment's state."""
        servable = make_servable(name="inplace-model")
        original = np.array(servable.constants["class_hvs"], copy=True)

        def in_place_rule(constants, samples, labels):
            constants["class_hvs"] += 1.0  # mutates the bound state
            return constants

        evil = Servable(
            name="inplace-model",
            build_program=servable.build_program,
            constants=servable.constants,
            sample_shape=(DIM,),
            update_batch=in_place_rule,
        )
        with pytest.raises(ValueError):
            evil.updated(queries(2), np.zeros(2, dtype=np.int64))
        assert np.array_equal(servable.constants["class_hvs"], original)

    def test_update_on_non_updatable_servable_raises_typed_error(self):
        servable = make_servable(name="frozen-model")  # no update_batch rule
        assert not servable.updatable
        _, broker = make_broker(servable)
        with pytest.raises(NotUpdatableError):
            broker.update(servable.name, queries(4), np.zeros(4, dtype=np.int64))
        with pytest.raises(NotUpdatableError):
            servable.updated(queries(4), np.zeros(4, dtype=np.int64))


class TestServeWhileRetraining:
    """The tentpole end to end: sustained load across >= 3 online
    re-training hot-swaps — zero dropped/errored requests, and post-swap
    predictions bit-identical to an offline retrain of the same data."""

    N_ROUNDS = 3

    def test_zero_drops_and_bit_identity_across_swaps(self):
        dataset = make_isolet_like(
            IsoletConfig(n_features=32, n_classes=6, n_train=120, n_test=24, seed=7)
        )
        app = HDClassificationInference(dimension=128, similarity="hamming")
        servable = app.as_servable(dataset=dataset)
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)
        rounds = [
            (dataset.train_features[i :: self.N_ROUNDS], dataset.train_labels[i :: self.N_ROUNDS])
            for i in range(self.N_ROUNDS)
        ]
        stop = threading.Event()
        futures, errors = [], []
        futures_lock = threading.Lock()

        def loader(seed: int) -> None:
            i = seed
            while not stop.is_set():
                try:
                    future = server.submit(
                        servable.name, dataset.test_features[i % dataset.test_features.shape[0]]
                    )
                    with futures_lock:
                        futures.append(future)
                except Exception as exc:  # pragma: no cover - would be the bug
                    errors.append(exc)
                i += 1
                time.sleep(0.0005)

        threads = [threading.Thread(target=loader, args=(t,)) for t in range(2)]
        with server:
            for thread in threads:
                thread.start()
            versions = []
            for samples, labels in rounds:
                versions.append(server.update(servable.name, samples, labels))
                time.sleep(0.01)  # keep serving between swaps
            stop.set()
            for thread in threads:
                thread.join()
            server.drain()
            post_swap = server.infer_many(servable.name, list(dataset.test_features))
            server.drain()
            stats = server.stats()

        # Zero dropped/errored requests under sustained load across swaps.
        assert not errors, errors
        assert futures, "load threads produced no requests"
        for future in futures:
            assert 0 <= int(np.asarray(future.result(timeout=5.0))) < dataset.n_classes
        assert stats.failures == 0 and stats.deadline_exceeded == 0

        # Swap accounting: monotonic versions, per-version request ledger.
        assert versions == [2, 3, 4]  # register stamped 1; three updates
        assert stats.swaps == self.N_ROUNDS
        assert server.model_versions() == {servable.name: 4}
        model = stats.model_stats[servable.name]
        assert model["version"] == 4
        assert model["swaps"] == self.N_ROUNDS
        assert sum(model["requests_by_version"].values()) == model["requests"]
        assert model["requests_by_version"]["4"] >= len(dataset.test_features)

        # Bit identity: the served post-swap state and predictions equal an
        # offline retrain applying the same rule to the same mini-batches.
        offline = servable
        for samples, labels in rounds:
            offline = offline.updated(samples, labels)
        live = server.registry.get(servable.name).servable
        assert offline.signature == live.signature
        assert np.array_equal(offline.constants["class_hvs"], live.constants["class_hvs"])
        handle = hdc_compile(
            offline.build_program(dataset.test_features.shape[0]), target="cpu"
        ).bind(**offline.constants)
        expected = [
            int(v) for v in np.asarray(handle.run(queries=dataset.test_features).output)
        ]
        assert [int(np.asarray(r)) for r in post_swap] == expected


class TestFutureLifecycle:
    def test_submitted_futures_are_not_cancellable(self):
        """Broker futures are marked RUNNING at submit: a front end that
        gets torn down (e.g. asyncio.wrap_future during transport stop)
        must not be able to cancel them out from under the worker, which
        would make set_result raise and kill the worker thread."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        servable = make_servable(name="nocancel-model")
        server.register(servable)
        future = server.submit(servable.name, queries(1)[0])  # server stopped: stays queued
        assert future.cancel() is False
        with server:
            server.drain()
        assert int(np.asarray(future.result(timeout=5.0))) >= 0
