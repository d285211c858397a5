"""Tests for the inference-serving runtime (repro.serving)."""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassification, HDClassificationInference
from repro.apps.common import bipolar_random
from repro.backends import CPUBackend, compile as hdc_compile
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import (
    BatcherClosed,
    CompiledProgramCache,
    DeadlineExceeded,
    Deployment,
    FairScheduler,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    RequestBroker,
    Servable,
    bucket_for,
    pad_batch,
    reduce_partials,
)
from repro.serving.batching import Segment
from repro.serving.scheduler import BatchWork, WorkerPool
from repro.transforms import ApproximationConfig

DIM = 256
FEATURES = 64
CLASSES = 8


@pytest.fixture(scope="module")
def dataset():
    return make_isolet_like(
        IsoletConfig(n_features=FEATURES, n_classes=CLASSES, n_train=200, n_test=60, seed=7)
    )


@pytest.fixture(scope="module")
def app():
    return HDClassificationInference(dimension=DIM, similarity="hamming")


@pytest.fixture(scope="module")
def servable(app, dataset):
    return app.as_servable(dataset=dataset)


@pytest.fixture(scope="module")
def per_request_labels(servable, dataset):
    """Ground truth: every test sample through the one-shot CPU flow."""
    compiled = hdc_compile(servable.build_program(1), target="cpu")
    handle = compiled.bind(**servable.constants)
    return np.array(
        [
            int(np.asarray(handle.run(queries=dataset.test_features[i : i + 1]).output)[0])
            for i in range(dataset.test_features.shape[0])
        ],
        dtype=np.int64,
    )


def bipolar_servable(seed: int = 5, name: str = "bipolar-classifier") -> Servable:
    """A servable over pre-encoded bipolar queries: exact in every path.

    With ±1 inputs both the per-row reference kernels and the batched GEMM
    kernels compute integer-valued distances exactly, so batched serving
    must be *bit-identical* to per-request execution.
    """
    classes = bipolar_random(CLASSES, DIM, seed=seed)

    def build_program(batch_size: int) -> H.Program:
        prog = H.Program(f"{name}_b{batch_size}")

        @prog.define(H.hv(DIM), H.hm(CLASSES, DIM))
        def infer_one(encoding, class_hvs):
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


class TestBatchedEquivalence:
    def test_batched_serving_bit_identical_on_bipolar_queries(self):
        servable = bipolar_servable()
        rng = np.random.default_rng(9)
        queries = (rng.integers(0, 2, (40, DIM)) * 2 - 1).astype(np.float32)

        compiled = hdc_compile(servable.build_program(1), target="cpu")
        handle = compiled.bind(**servable.constants)
        expected = [int(np.asarray(handle.run(encodings=queries[i : i + 1]).output)[0]) for i in range(40)]

        server = InferenceServer(workers=("cpu",), max_batch_size=16, max_wait_seconds=0.005)
        server.register(servable)
        with server:
            results = server.infer_many(servable.name, list(queries))
        assert [int(np.asarray(r)) for r in results] == expected

    def test_classification_app_matches_per_request(self, servable, dataset, per_request_labels):
        server = InferenceServer(workers=("cpu",), max_batch_size=16, max_wait_seconds=0.005)
        server.register(servable)
        with server:
            results = server.infer_many(servable.name, list(dataset.test_features))
        served = np.array([int(np.asarray(r)) for r in results], dtype=np.int64)
        assert np.array_equal(served, per_request_labels)

    def test_deployment_run_matches_per_request(self, servable, dataset, per_request_labels):
        registry = ModelRegistry()
        deployment = registry.register(servable)
        out = np.asarray(deployment.run(dataset.test_features).output, dtype=np.int64)
        assert np.array_equal(out, per_request_labels)


class TestCompiledProgramCache:
    def test_register_and_warm_accounting(self, servable):
        registry = ModelRegistry()
        registry.register(servable, warm_batch_sizes=(1, 8))
        assert registry.cache.stats.misses == 2
        assert registry.cache.stats.hits == 0

        deployment = registry.get(servable.name)
        deployment.warm([1, 8])
        assert registry.cache.stats.misses == 2  # warm again: pure hits
        # Deployment memoizes bound handles, so the second warm may not even
        # reach the cache; re-registration must, and must hit.
        registry.register(servable, warm_batch_sizes=(1, 8))
        assert registry.cache.stats.hits >= 2
        assert registry.cache.stats.misses == 2

    def test_distinct_configs_are_distinct_entries(self, servable):
        registry = ModelRegistry()
        registry.register(servable, warm_batch_sizes=(1,))
        registry.register(
            servable,
            name="approx",
            config=ApproximationConfig(binarize=True),
            warm_batch_sizes=(1,),
        )
        assert registry.cache.stats.misses == 2

    def test_retrained_state_changes_signature(self, app, dataset):
        first = app.as_servable(dataset=dataset)
        rp, classes = app.train_offline(dataset)
        retrained = app.as_servable(trained=(rp, classes + 1.0))
        assert first.signature != retrained.signature

    def test_signatures_separate_configuration_the_constants_do_not_capture(self):
        """Equal state and configuration hash equal; the hashtable's base
        hypervectors, HyperOMS's levels and seed and the classification
        similarity and convention are not bound constants, yet each must
        keep two deployments apart in the compile cache."""
        from repro.apps import HDHashtable, HyperOMS

        state = (bipolar_random(DIM, FEATURES, seed=1), bipolar_random(CLASSES, DIM, seed=2))
        table, library = bipolar_random(4, 64, seed=3), bipolar_random(4, 64, seed=4)
        variants = [
            lambda: HDClassification(dimension=DIM).as_servable(*state, name="m"),
            lambda: HDClassification(dimension=DIM, similarity="cosine").as_servable(*state, name="m"),
            lambda: HDClassificationInference(dimension=DIM, similarity="hamming").as_servable(state, name="m"),
            lambda: HDHashtable(dimension=64, seed=1).as_servable(table, 20, 4, name="m"),
            lambda: HDHashtable(dimension=64, seed=2).as_servable(table, 20, 4, name="m"),
            lambda: HDHashtable(dimension=64, seed=1).as_servable(table, 20, 5, name="m"),
            lambda: HyperOMS(dimension=64, n_levels=4).as_servable(library, 16, name="m"),
            lambda: HyperOMS(dimension=64, n_levels=8).as_servable(library, 16, name="m"),
            lambda: HyperOMS(dimension=64, n_levels=4, seed=5).as_servable(library, 16, name="m"),
        ]
        signatures = [build().signature for build in variants]
        assert signatures == [build().signature for build in variants]
        assert len(set(signatures)) == len(variants)

    def test_lru_eviction(self):
        cache = CompiledProgramCache(capacity=1)
        backend = CPUBackend()

        def build(batch):
            prog = H.Program(f"evict_b{batch}")

            @prog.entry(H.hm(batch, DIM))
            def main(queries):
                return H.sign(queries)

            return prog

        for batch in (1, 2, 1):
            key = cache.make_key(f"sig", "cpu", None, batch_size=batch)
            cache.get_or_compile(key, backend, lambda b=batch: build(b))
        assert cache.stats.evictions == 2
        assert cache.stats.misses == 3  # batch 1 was evicted by batch 2


def n_rows(batch) -> int:
    """Rows in a popped batch (a list of segments)."""
    return sum(len(segment.block) for segment in batch)


def values(batch) -> list:
    """Every row's first feature, in batch order."""
    return [int(value) for segment in batch for value in segment.block[:, 0]]


class TestMicroBatcher:
    def test_size_watermark_releases_immediately(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=10.0)
        for i in range(4):
            batcher.submit(np.array([i]))
        start = time.monotonic()
        batch = batcher.next_batch(timeout=1.0)
        assert n_rows(batch) == 4
        assert time.monotonic() - start < 1.0  # did not wait for the time watermark

    def test_time_watermark_flushes_partial_batch(self):
        batcher = MicroBatcher(max_batch_size=64, max_wait_seconds=0.05)
        for i in range(3):
            batcher.submit(np.array([i]))
        start = time.monotonic()
        batch = batcher.next_batch(timeout=5.0)
        waited = time.monotonic() - start
        assert n_rows(batch) == 3
        assert waited >= 0.03  # held back until the oldest request aged out

    def test_oversized_burst_splits_into_batches(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=0.01)
        for i in range(10):
            batcher.submit(np.array([i]))
        sizes = [n_rows(batcher.next_batch(timeout=1.0)) for _ in range(3)]
        assert sizes == [4, 4, 2]
        batcher.submit_many(np.arange(10)[:, None])  # one caller batch splits the same way
        assert [n_rows(batcher.next_batch(timeout=1.0)) for _ in range(3)] == [4, 4, 2]

    def test_close_drains_then_signals_exhaustion(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=10.0)
        batcher.submit(np.array([1]))
        batcher.close()
        assert n_rows(batcher.next_batch(timeout=1.0)) == 1
        assert batcher.next_batch(timeout=0.01) is None
        with pytest.raises(RuntimeError):
            batcher.submit(np.array([2]))

    def test_submit_many_enqueues_atomically_into_one_completion(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=10.0)
        completion = batcher.submit_many([np.array([i]) for i in range(6)], priority=2)
        assert len(batcher) == 6 and not completion.done()
        first, second = batcher.next_batch(timeout=1.0), None
        # One segment, cut where the size watermark falls.
        assert [(s.slots, s.priority, s.completion is completion) for s in first] == [
            (range(0, 4), 2, True)
        ]
        batcher.close()
        second = batcher.next_batch(timeout=1.0)
        assert [s.slots for s in second] == [range(4, 6)]
        assert second[0].enqueued_at == first[0].enqueued_at  # one timestamp per caller batch
        with pytest.raises(BatcherClosed):
            batcher.submit_many([np.array([9])])
        for batch in (first, second):
            for segment in batch:
                completion.settle(segment.slots, [int(v) * 10 for v in segment.block[:, 0]])
        assert completion.result(timeout=0) == [0, 10, 20, 30, 40, 50]

    def test_queue_counters_track_every_path(self):
        """The queued / deadlined counts the wake-up path trusts stay equal
        to what the lanes hold through submits, pops, sheds, hand-overs."""
        import random

        rng = random.Random(11)
        batcher = MicroBatcher(max_batch_size=5, max_wait_seconds=0.0)

        def check():
            queued = [s for lane in batcher._lanes.values() for s in lane]
            assert batcher._queued == n_rows(queued) == len(batcher)
            assert batcher._deadlined == n_rows(s for s in queued if s.deadline_ms is not None)
            assert all(len(s.block) for s in queued)  # no empty segment is ever queued

        for _ in range(300):
            op = rng.random()
            deadline = rng.choice([None, None, 0.05, 5000.0])
            if op < 0.35:
                batcher.submit(np.zeros(1), priority=rng.randint(-1, 1), deadline_ms=deadline)
            elif op < 0.6:
                rows = [np.zeros(1)] * rng.randint(1, 7)
                batcher.submit_many(rows, priority=rng.randint(-1, 1), deadline_ms=deadline)
            elif op < 0.9:
                batch = batcher.next_batch(timeout=0.0005)
                assert batch is None or 1 <= n_rows(batch) <= 5
            else:
                successor = MicroBatcher(max_batch_size=5, max_wait_seconds=0.0)
                successor.adopt(batcher.drain_segments())
                check()  # the drained batcher reads empty
                batcher = successor
            check()

    def test_bucket_and_padding_helpers(self):
        assert [bucket_for(n, 64) for n in (1, 2, 3, 5, 33, 64)] == [1, 2, 4, 8, 64, 64]
        assert bucket_for(100, 64) == 64
        batch = np.arange(6, dtype=np.float32).reshape(3, 2)
        padded = pad_batch(batch, 8)
        assert padded.shape == (8, 2)
        assert np.array_equal(padded[:3], batch)
        assert np.array_equal(padded[3:], np.repeat(batch[-1:], 5, axis=0))
        with pytest.raises(ValueError):
            pad_batch(batch, 2)


class TestPrioritiesAndDeadlines:
    def test_priority_lanes_flush_high_first(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=10.0)
        batcher.submit(np.array([0]), priority=0)
        batcher.submit(np.array([1]), priority=0)
        batcher.submit(np.array([2]), priority=5)
        batcher.submit(np.array([3]), priority=-1)
        batch = batcher.next_batch(timeout=1.0)
        assert values(batch) == [2, 0, 1, 3]

    def test_earliest_deadline_first_within_lane(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=10.0)
        batcher.submit(np.array([0]))  # no deadline: flushes last, FIFO
        batcher.submit(np.array([1]), deadline_ms=5000)
        batcher.submit(np.array([2]), deadline_ms=1000)
        batcher.submit(np.array([3]), deadline_ms=3000)
        batch = batcher.next_batch(timeout=1.0)
        assert values(batch) == [2, 3, 1, 0]

    def test_partial_pops_stay_edf_and_report_the_oldest(self):
        """A partial pop re-sorts the lane by deadline, so the remainder
        is no longer in arrival order: the time watermark must still find
        the oldest request (it is not the lane head)."""
        batcher = MicroBatcher(max_batch_size=3, max_wait_seconds=0.2)
        batcher.submit(np.array([0]))  # oldest, no deadline: flushes last
        time.sleep(0.15)
        for i, deadline in ((1, 9000.0), (2, 1000.0), (3, 5000.0), (4, 3000.0)):
            batcher.submit(np.array([i]), deadline_ms=deadline)
        assert values(batcher.next_batch(timeout=1.0)) == [2, 4, 3]
        start = time.monotonic()
        rest = batcher.next_batch(timeout=1.0)  # head is request 1; request 0 is older
        assert values(rest) == [1, 0]
        assert time.monotonic() - start < 0.15  # aged from request 0, not from request 1

    def test_a_split_segment_keeps_its_place_deadline_and_timestamp(self):
        """A caller batch cut by the size watermark: the head rides the
        EDF-ordered batch, the tail is still the earliest deadline left."""
        batcher = MicroBatcher(max_batch_size=3, max_wait_seconds=10.0)
        batcher.submit(np.array([0]))  # no deadline: flushes last
        batcher.submit_many(np.array([[10], [11], [12], [13]]), deadline_ms=5000.0)
        batcher.submit(np.array([1]), deadline_ms=1000.0)
        first = batcher.next_batch(timeout=1.0)
        assert values(first) == [1, 10, 11]
        second = batcher.next_batch(timeout=1.0)
        assert values(second) == [12, 13, 0]
        head, tail = first[1], second[0]
        assert (head.slots, tail.slots) == (range(0, 2), range(2, 4))
        assert (tail.deadline_ms, tail.enqueued_at) == (5000.0, head.enqueued_at)
        assert tail.completion is head.completion and len(batcher) == 0

    def test_expired_requests_shed_with_typed_error(self):
        shed_counts = []
        batcher = MicroBatcher(
            max_batch_size=64, max_wait_seconds=0.01, on_expire=shed_counts.append
        )
        doomed = [batcher.submit(np.array([i]), deadline_ms=1.0) for i in range(3)]
        doomed_batch = batcher.submit_many(np.arange(4)[:, None], deadline_ms=1.0)
        survivor = batcher.submit(np.array([9]))
        time.sleep(0.02)
        batch = batcher.next_batch(timeout=1.0)
        assert values(batch) == [9]
        assert batcher.expired == 7 and shed_counts == [7]  # sheds count rows
        for future in doomed:
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=0)
        with pytest.raises(DeadlineExceeded):
            doomed_batch.result(timeout=0)
        assert not survivor.done()

    def test_tight_deadline_flushes_before_time_watermark(self):
        batcher = MicroBatcher(max_batch_size=64, max_wait_seconds=0.5)
        batcher.submit(np.array([0]), deadline_ms=20.0)
        start = time.monotonic()
        batch = batcher.next_batch(timeout=2.0)
        waited = time.monotonic() - start
        assert n_rows(batch) == 1
        assert waited < 0.2  # did not sit out the 500ms time watermark

    def test_segment_deadline_accessors(self):
        segment = Segment(np.zeros((2, 1)), deadline_ms=50.0)
        assert segment.deadline_at == pytest.approx(segment.enqueued_at + 0.05)
        assert not segment.expired(segment.enqueued_at + 0.01)
        assert segment.expired(segment.enqueued_at + 0.06)
        assert Segment(np.zeros((1, 1))).deadline_at is None
        assert segment.slots == range(0, 2)

    def test_server_accounts_deadline_sheds(self, servable, dataset):
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        server.register(servable)
        # Enqueue against the stopped server so the deadlines lapse in queue.
        doomed = [
            server.submit(servable.name, dataset.test_features[i], deadline_ms=1.0)
            for i in range(5)
        ]
        time.sleep(0.03)
        with server:
            label = int(np.asarray(server.infer(servable.name, dataset.test_features[0])))
            server.drain()
            stats = server.stats()
        for future in doomed:
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=0)
        assert stats.deadline_exceeded == 5
        assert stats.requests == 1  # sheds are not served requests
        assert 0 <= label < CLASSES


class TestFairScheduler:
    @staticmethod
    def _work(enqueued_at=None):
        segment = Segment(np.zeros((1, 1)))
        if enqueued_at is not None:
            segment.enqueued_at = enqueued_at
        return BatchWork(None, [segment])

    def test_equal_weights_alternate(self):
        scheduler = FairScheduler()
        now = time.monotonic()
        for name in ("a", "b"):
            scheduler.ensure_lane(name)
        works = {name: [self._work(now) for _ in range(3)] for name in ("a", "b")}
        for name, items in works.items():
            for item in items:
                scheduler.offer(name, item)
        served = [scheduler.next_ready(timeout=0.1) for _ in range(6)]
        lanes = ["a" if w in works["a"] else "b" for w in served]
        assert lanes[:2] in (["a", "b"], ["b", "a"])
        assert lanes.count("a") == lanes.count("b") == 3
        # Never two consecutive turns for the same lane while both have work.
        assert all(lanes[i] != lanes[i + 1] for i in range(4))

    def test_weighted_shares(self):
        scheduler = FairScheduler()
        now = time.monotonic()
        scheduler.ensure_lane("heavy", weight=3.0)
        scheduler.ensure_lane("light", weight=1.0)
        heavy = [self._work(now) for _ in range(9)]
        light = [self._work(now) for _ in range(9)]
        for item in heavy:
            scheduler.offer("heavy", item)
        for item in light:
            scheduler.offer("light", item)
        first_eight = [scheduler.next_ready(timeout=0.1) for _ in range(8)]
        n_heavy = sum(1 for w in first_eight if w in heavy)
        assert n_heavy == 6  # 3:1 share over any window

    def test_starvation_aging_boosts_old_head(self):
        scheduler = FairScheduler(aging_seconds=0.05)
        now = time.monotonic()
        scheduler.ensure_lane("hot", weight=10.0)
        scheduler.ensure_lane("cold", weight=0.1)
        stale = self._work(now - 10.0)  # head has waited far past aging_seconds
        fresh = [self._work(now) for _ in range(5)]
        for item in fresh:
            scheduler.offer("hot", item)
        scheduler.offer("cold", stale)
        assert scheduler.next_ready(timeout=0.1) is stale

    def test_idle_lane_reenters_at_current_vtime(self):
        scheduler = FairScheduler(aging_seconds=1000.0)  # effectively no aging
        now = time.monotonic()
        scheduler.ensure_lane("busy")
        scheduler.ensure_lane("idle")
        busy = [self._work(now) for _ in range(4)]
        for item in busy:
            scheduler.offer("busy", item)
        for _ in range(4):
            scheduler.next_ready(timeout=0.1)
        # The idle lane must not replay the 4 turns it sat out.
        late = [self._work(now) for _ in range(2)]
        for item in late:
            scheduler.offer("idle", item)
        scheduler.offer("busy", self._work(now))
        served = [scheduler.next_ready(timeout=0.1) for _ in range(3)]
        assert sum(1 for w in served if w in late) == 2

    def test_pick_holds_idle_lanes_at_the_virtual_time(self):
        """The pull form of re-entry: a lane passed as ``idle`` while others
        are served does not replay the turns it sat out."""
        scheduler = FairScheduler(aging_seconds=1000.0)  # effectively no aging
        for name in ("busy", "idle"):
            scheduler.ensure_lane(name)
        now = time.monotonic()
        for _ in range(4):
            assert scheduler.pick({"busy": now}, now, idle=["idle"]) == "busy"
        turns = [scheduler.pick({"busy": now, "idle": now}, now) for _ in range(4)]
        assert turns.count("idle") == 2

    def test_close_drains_then_signals(self):
        scheduler = FairScheduler()
        scheduler.offer("lane", self._work())
        scheduler.close()
        assert scheduler.next_ready(timeout=0.1) is not None
        assert scheduler.next_ready(timeout=0.1) is None
        assert scheduler.pending() == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FairScheduler(aging_seconds=0.0)
        scheduler = FairScheduler()
        with pytest.raises(ValueError):
            scheduler.ensure_lane("lane", weight=0.0)


class TestMultiModelFairness:
    def test_cold_model_p95_wait_bounded_under_skew(self):
        """Acceptance: skewed two-model load keeps the cold model's p95
        wait within 3x of the hot model's (FIFO would be unbounded)."""
        hot = bipolar_servable(seed=3, name="hot-model")
        cold = bipolar_servable(seed=4, name="cold-model")
        server = InferenceServer(
            workers=("cpu",),
            max_batch_size=8,
            max_wait_seconds=0.001,
        )
        server.register(hot)
        server.register(cold)
        rng = np.random.default_rng(2)
        hot_queries = (rng.integers(0, 2, (600, DIM)) * 2 - 1).astype(np.float32)
        cold_queries = (rng.integers(0, 2, (12, DIM)) * 2 - 1).astype(np.float32)
        latencies = {"hot": [], "cold": []}
        lock = threading.Lock()

        def tracked_submit(model, key, sample):
            start = time.monotonic()

            def record(_future):
                with lock:
                    latencies[key].append(time.monotonic() - start)

            server.submit(model, sample).add_done_callback(record)

        with server:
            for sample in hot_queries:  # burst: saturates the worker
                tracked_submit(hot.name, "hot", sample)
            for sample in cold_queries:  # steady trickle during the backlog
                tracked_submit(cold.name, "cold", sample)
                time.sleep(0.002)
            server.drain()
            stats = server.stats()

        from repro.serving import percentile

        hot_p95 = percentile(latencies["hot"], 95)
        cold_p95 = percentile(latencies["cold"], 95)
        assert len(latencies["hot"]) == 600 and len(latencies["cold"]) == 12
        assert cold_p95 <= 3.0 * hot_p95, (
            f"cold p95 {cold_p95 * 1e3:.1f}ms vs hot p95 {hot_p95 * 1e3:.1f}ms"
        )
        assert stats.scheduler_stats["hot-model"]["served_batches"] >= 1
        assert stats.scheduler_stats["cold-model"]["served_batches"] >= 1

    def test_drain_idiom_yields_consistent_stats(self, servable, dataset):
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        server.register(servable)
        with server:
            futures = [
                server.submit(servable.name, dataset.test_features[i]) for i in range(20)
            ]
            server.drain()
            stats = server.stats()
            assert stats.requests == 20  # every submitted request accounted for
            assert all(future.done() for future in futures)

    def test_reregister_while_stopped_preserves_queued_requests(
        self, servable, dataset, per_request_labels
    ):
        """Regression: replacing a stopped server's batcher must adopt its
        queued requests instead of orphaning their futures."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        server.register(servable)
        future = server.submit(servable.name, dataset.test_features[0])
        server.register(servable)  # re-register before ever starting
        with server:
            server.drain()
        assert int(np.asarray(future.result(timeout=1.0))) == per_request_labels[0]

    def test_submit_after_stop_rejected_until_restart(
        self, servable, dataset, per_request_labels
    ):
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        server.register(servable)
        with server:
            server.infer(servable.name, dataset.test_features[0])
        with pytest.raises(RuntimeError):  # stopped queues reject, never orphan
            server.submit(servable.name, dataset.test_features[1])
        with server:  # restart reopens the queue
            label = int(np.asarray(server.infer(servable.name, dataset.test_features[1])))
        assert label == per_request_labels[1]

    def test_drain_times_out_when_not_running(self, servable, dataset):
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        server.register(servable)
        server.submit(servable.name, dataset.test_features[0])
        with pytest.raises(TimeoutError):
            server.drain(timeout=0.05)
        with server:
            server.drain()  # resolves once the server runs


class TestShardedDeployments:
    def test_reduce_partials_matches_numpy(self):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 100, (10, 12)).astype(np.float32)
        partials = [scores[:, :5], scores[:, 5:8], scores[:, 8:]]
        assert np.array_equal(reduce_partials(partials, "argmin"), scores.argmin(axis=1))
        assert np.array_equal(reduce_partials(partials, "argmax"), scores.argmax(axis=1))
        top3 = reduce_partials(partials, "argmin", top_k=3)
        assert np.array_equal(top3, np.argsort(scores, axis=1, kind="stable")[:, :3])
        with pytest.raises(ValueError):
            reduce_partials(partials, "median")
        with pytest.raises(ValueError):
            reduce_partials(partials, "argmin", top_k=13)

    def test_sharded_registry_bit_identical(self, servable, dataset, per_request_labels):
        registry = ModelRegistry()
        for n_shards in (2, 4):
            deployment = registry.register(servable, name=f"sharded-{n_shards}", shards=n_shards)
            assert deployment.n_shards == n_shards
            out = np.asarray(deployment.run(dataset.test_features).output, dtype=np.int64)
            assert np.array_equal(out, per_request_labels)

    def test_sharded_server_bit_identical(self, servable, dataset, per_request_labels):
        server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=16, max_wait_seconds=0.005)
        server.register(servable, name="sharded", shards=2)
        with server:
            results = server.infer_many("sharded", list(dataset.test_features))
        served = np.array([int(np.asarray(r)) for r in results], dtype=np.int64)
        assert np.array_equal(served, per_request_labels)

    def test_sharded_top_k_contains_argmin(self, servable, dataset, per_request_labels):
        registry = ModelRegistry()
        deployment = registry.register(servable, name="sharded-topk", shards=2)
        top2 = np.asarray(deployment.run(dataset.test_features, top_k=2).output)
        assert top2.shape == (dataset.test_features.shape[0], 2)
        assert np.array_equal(top2[:, 0], per_request_labels)

    def test_top_k_on_an_unsharded_deployment_is_refused(self, servable, dataset):
        """Its program arg-reduces inside itself: there are no scores to
        rank, and silently answering top-1 would be a wrong shape."""
        deployment = ModelRegistry().register(servable)
        with pytest.raises(ValueError, match="top_k"):
            deployment.run(dataset.test_features[:4], top_k=2)
        assert np.asarray(deployment.run(dataset.test_features[:4], top_k=1).output).shape == (4,)

    @pytest.mark.parametrize("failing", [{1}, {0, 1, 2}], ids=["one-shard", "every-shard"])
    def test_failing_shards_settle_the_batch_exactly_once(
        self, servable, dataset, per_request_labels, failing
    ):
        """Whichever shards raise, and however they race on three workers,
        the caller's batch resolves once with the error — one settle, one
        failure count per row, nothing left for ``drain`` — and the next
        batch is served."""
        server = InferenceServer(
            workers=("cpu",) * 3, max_batch_size=8, max_wait_seconds=0.005, tracing=True
        )
        deployment = server.register(servable, name="flaky", shards=3)
        down, healthy_handle_for = set(failing), deployment.handle_for

        def handle_for(batch_size, worker=None, shard=0):
            if shard in down:
                raise RuntimeError(f"shard {shard} is down")
            return healthy_handle_for(batch_size, worker=worker, shard=shard)

        deployment.handle_for = handle_for
        rows = list(dataset.test_features[:8])
        completion = server.broker.submit_many("flaky", rows)  # queued: not started yet
        settles, release = [], completion.on_settled
        completion.on_settled = lambda n: (settles.append(n), release(n))
        with server:
            with pytest.raises(RuntimeError, match="is down") as raised:
                completion.result(timeout=10.0)
            server.drain(timeout=10.0)
            assert settles == [8]
            assert completion._errors == dict.fromkeys(range(8), raised.value)
            assert server.stats().failures == 8
            failed = server.traces(clear=True)  # frozen by the one settling worker
            assert len(failed) == 8 and all("is down" in trace["error"] for trace in failed)
            assert all(trace["spans"][-1]["name"] == "dispatch" for trace in failed)
            down.clear()
            served = server.infer_many("flaky", rows, timeout=10.0)
            server.drain(timeout=10.0)
            stats = server.stats()
        assert [int(np.asarray(r)) for r in served] == list(per_request_labels[:8])
        assert (stats.requests, stats.failures) == (8, 8)

    @pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "sharded"])
    def test_batch_without_an_eligible_worker_fails_typed_and_drains(
        self, servable, dataset, shards
    ):
        gpu_only = dataclasses.replace(servable, name="gpu-only", supported_targets=("gpu",))
        registry = ModelRegistry()
        deployment = registry.register(gpu_only, target="gpu", warm_batch_sizes=(), shards=shards)
        broker = RequestBroker(
            registry, WorkerPool(("cpu",)), max_batch_size=4, max_wait_seconds=0.002
        )
        broker.add_model(deployment)
        broker.start()
        try:
            completion = broker.submit_many("gpu-only", list(dataset.test_features[:4]))
            with pytest.raises(RuntimeError, match="no worker in the pool supports"):
                completion.result(timeout=10.0)
            broker.drain(timeout=10.0)
            assert broker.stats().failures == 4
        finally:
            broker.stop()

    def test_shard_report_merges_partial_costs(self, servable, dataset):
        registry = ModelRegistry()
        deployment = registry.register(servable, name="sharded-report", shards=2)
        result = deployment.run(dataset.test_features[:8])
        assert result.report.kernel_launches > 0

    def test_shard_report_merges_notes_by_the_same_rule_as_costs(self, dataset):
        """Every shard's stage run is counted and profiled, not just the
        last one's: the notes used to be ``update``d (last shard wins)
        beside summed ``kernel_launches``."""
        rp = bipolar_random(DIM, FEATURES, seed=1)
        classes = bipolar_random(CLASSES, DIM, seed=2)
        servable = HDClassification(dimension=DIM).as_servable(rp, classes)  # shards encode in a stage
        registry = ModelRegistry()
        batch = dataset.test_features[:4]
        single = registry.register(servable, name="unsharded").run(batch).report
        assert single.notes["stage_vectorized"] == 1 and len(single.notes["stage_profile"]) == 1
        for n_shards in (2, 4):
            report = registry.register(servable, name=f"merge-{n_shards}", shards=n_shards).run(batch).report
            assert report.notes["stage_vectorized"] == n_shards
            assert report.notes["stage_fallbacks"] == 0
            assert len(report.notes["stage_profile"]) == n_shards
            assert report.notes["kernel_set"] == "library"  # a string: last-wins
            assert report.kernel_launches > single.kernel_launches

    def test_scatter_path_counts_each_shard_once(self, dataset):
        """The broker records per shard as it executes them; the merge rule
        must not make it count twice."""
        servable = HDClassification(dimension=DIM).as_servable(
            bipolar_random(DIM, FEATURES, seed=1), bipolar_random(CLASSES, DIM, seed=2)
        )
        server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=8, max_wait_seconds=0.005)
        server.register(servable, name="scatter", shards=2)
        with server:
            server.infer_many("scatter", list(dataset.test_features[:8]))
            server.drain()
            stats = server.stats()
        served = stats.model_stats["scatter"]
        assert served["vectorized_stages"] == 2 * stats.batches and served["fallback_stages"] == 0

    def test_every_app_shard_spec_bit_identical(self, stock_cell):
        """Shards answer like the unsharded model: every adapter, on every
        target it is offered on."""
        case, target = stock_cell
        if case.similarity == "cosine" and target.startswith("hdc_"):
            pytest.skip(
                "cosine on an accelerator: the unsharded stage is the device's binarized "
                "Hamming search (the paper's stage semantics), shards score host cosine"
            )
        registry = ModelRegistry()
        base = registry.register(case.servable, target=target).run(case.queries)
        split = registry.register(case.servable, name="sharded", target=target, shards=3)
        assert np.array_equal(np.asarray(base.output), np.asarray(split.run(case.queries).output))

    def test_sharding_requires_spec_and_sane_counts(self, servable):
        registry = ModelRegistry()
        unshardable = Servable(
            name="no-spec",
            build_program=servable.build_program,
            constants=servable.constants,
            sample_shape=servable.sample_shape,
        )
        with pytest.raises(ValueError):
            registry.register(unshardable, shards=2)
        with pytest.raises(ValueError):
            registry.register(servable, name="one", shards=1)
        with pytest.raises(ValueError):
            registry.register(servable, name="many", shards=CLASSES + 1)


class TestUnpaddedServing:
    """A bucket is a capacity, not a shape: each batch executes its own
    rows through the handle of the smallest bucket that holds them."""

    SIZES = (1, 3, 5, 7, 11, 13, 16)

    @pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "2-shard"])
    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    def test_every_batch_executes_exactly_its_rows(self, stock_case, target, shards, per_row):
        executed = []

        def record(outputs):
            executed.append(len(outputs))
            return outputs

        servable = dataclasses.replace(stock_case.servable, postprocess=record)
        expected = per_row(stock_case.servable, stock_case.queries)
        server = InferenceServer(workers=(target, target), max_batch_size=16, max_wait_seconds=0.001)
        server.register(servable, shards=shards, warm="full")
        with server:
            for size in self.SIZES:
                served = server.infer_many(servable.name, stock_case.queries[:size], timeout=60)
                assert np.array_equal(np.asarray(served).reshape(-1), expected[:size]), size
            stats = server.stats()
        assert executed == list(self.SIZES)  # padded, 3 rows ran as 4
        assert stats.failures == 0

    @staticmethod
    def _batch_mixing(batch_size: int) -> H.Program:
        """Each query scored against a bundle of the whole batch."""
        prog = H.Program(f"mixing_b{batch_size}")

        @prog.entry(H.hm(batch_size, DIM), H.hm(CLASSES, DIM))
        def main(encodings, class_hvs):
            batch_bundle = H.l2norm(H.matrix_transpose(encodings))
            return H.cossim(encodings, batch_bundle)

        return prog

    def test_a_batch_mixing_program_is_refused_at_register_and_swap(self, servable):
        from repro.ir.ops import row_mapped_params
        from repro.serving import NotRowMappedError

        mixing = Servable(
            name="mixing",
            build_program=self._batch_mixing,
            constants={"class_hvs": bipolar_random(CLASSES, DIM, seed=2)},
            query_param="encodings",
            sample_shape=(DIM,),
        )
        # Per parameter: the unused class memory could bring fewer rows.
        assert row_mapped_params(mixing.build_program(4).entry_function) == {"class_hvs"}
        server = InferenceServer(workers=("cpu",), max_batch_size=4)
        with pytest.raises(NotRowMappedError, match="encodings"):
            server.register(mixing)
        assert "mixing" not in server.registry and server.broker.model_names() == []

        registry = ModelRegistry()
        served = registry.register(servable)
        with pytest.raises(NotRowMappedError):
            registry.swap(servable.name, Deployment(servable.name, mixing, registry.cache))
        assert registry.get(servable.name) is served

    def test_only_a_row_mapped_input_may_bring_fewer_rows(self, servable, dataset):
        compiled = CPUBackend(batched=True).compile(servable.build_program(8))
        assert compiled.row_mapped == {servable.query_param}
        handle = compiled.bind(**servable.constants)
        rows = dataset.test_features[:8].astype(np.float32)
        full = np.asarray(handle.run(**{servable.query_param: rows}).output)
        for n in (1, 5):
            part = handle.run(**{servable.query_param: rows[:n]}).output
            assert np.array_equal(np.asarray(part), full[:n])
        with pytest.raises(ValueError, match="shape"):
            handle.run(**{servable.query_param: np.concatenate([rows, rows[:1]])})
        constants = dict(servable.constants)
        name = next(iter(constants))
        constants[name] = np.asarray(constants[name])[:-1]
        with pytest.raises(ValueError, match="shape"):
            compiled.bind(**constants)

    def test_the_gpu_model_moves_only_the_rows_it_runs(self, servable, dataset):
        handle = hdc_compile(servable.build_program(8), target="gpu").bind(**servable.constants)
        rows = dataset.test_features[:8].astype(np.float32)
        full, half = (handle.run(**{servable.query_param: rows[:n]}).report for n in (8, 4))
        assert full.bytes_to_device - half.bytes_to_device == rows[4:].nbytes
        assert full.bytes_from_device == half.bytes_from_device  # one label vector


class TestSchedulingAndWorkers:
    def test_dispatch_picks_the_worker_with_fewer_rows_in_flight(self, servable):
        """The one worker rule: fewest in-flight rows wins, a tie goes to
        the first worker listed (unstarted, so submitted rows stay queued)."""
        pool = WorkerPool(["cpu", "cpu"])
        first, second = pool.workers

        def dispatch(rows: int):
            return pool.dispatch(servable, BatchWork(None, [Segment(np.zeros((rows, 1)))]))

        assert dispatch(5) is first
        assert dispatch(3) is second
        assert dispatch(1) is second
        assert (first.pending_samples(), second.pending_samples()) == (5, 4)
        assert dispatch(1) is second
        assert dispatch(2) is first
        assert (first.pending_samples(), second.pending_samples()) == (7, 5)

    def test_threaded_many_clients_smoke(self, servable, dataset, per_request_labels):
        server = InferenceServer(
            workers=("cpu", "cpu"), max_batch_size=16, max_wait_seconds=0.002
        )
        server.register(servable)
        n_clients, per_client = 8, 10
        rng = np.random.default_rng(11)
        picks = rng.integers(0, dataset.test_features.shape[0], size=(n_clients, per_client))
        results = [[None] * per_client for _ in range(n_clients)]

        def client(c: int) -> None:
            for j, index in enumerate(picks[c]):
                results[c][j] = int(
                    np.asarray(server.infer(servable.name, dataset.test_features[index]))
                )

        with server:
            threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        for c in range(n_clients):
            for j, index in enumerate(picks[c]):
                assert results[c][j] == per_request_labels[index]

        stats = server.stats()
        assert stats.requests == n_clients * per_client
        assert stats.failures == 0
        assert stats.batches >= 1
        assert stats.mean_batch_size >= 1.0
        assert sum(size * count for size, count in stats.batch_size_histogram.items()) == (
            n_clients * per_client
        )
        assert stats.latency_p99_ms >= stats.latency_p50_ms > 0.0

    def test_accelerator_worker_reuses_device_session(self, servable, dataset):
        server = InferenceServer(workers=("hdc_asic",), max_batch_size=8, max_wait_seconds=0.002)
        server.register(servable)
        with server:
            results = server.infer_many(servable.name, list(dataset.test_features[:20]))
        assert all(0 <= int(np.asarray(r)) < CLASSES for r in results)
        stats = server.stats()
        # The warm DeviceSession keeps base/class memories resident, so
        # every batch after the first elides its re-programming transfers.
        assert stats.batches >= 2
        assert stats.elided_transfers >= 1

    def test_shard_placement_fits_a_capacity_limited_device_bank(self):
        """2R classes on R-row ASIC banks: one worker re-streams its bank on
        every batch, two pinned shard workers never evict and keep their
        sessions resident — with the same labels, across a hot-swap issued
        while a full pass is in flight.  The mechanism, in counters."""
        from repro.accelerators.digital_asic import DigitalASICParameters, DigitalHDCASIC
        from repro.apps.classification import classification_servable
        from repro.backends import DigitalASICBackend
        from repro.serving.scheduler import Worker

        bank_rows, dim, n_features = 32, 1024, 16
        servable = classification_servable(
            "capacity", dim, "hamming",
            bipolar_random(dim, n_features, seed=7), bipolar_random(2 * bank_rows, dim, seed=11),
        )
        rng = np.random.default_rng(3)
        queries = list(rng.standard_normal((32, n_features)).astype(np.float32))
        update = np.stack(queries[:8]), rng.integers(0, 2 * bank_rows, 8)

        def asic_server(n_workers):
            params = DigitalASICParameters(class_mem_rows=bank_rows)
            workers = [
                Worker(
                    f"asic-{i}", "hdc_asic",
                    backend=DigitalASICBackend(device=DigitalHDCASIC(params), reuse_session=True),
                )
                for i in range(n_workers)
            ]
            return InferenceServer(workers=workers, max_batch_size=4, max_wait_seconds=0.002)

        def labels(server):
            return [int(np.asarray(r)) for r in server.infer_many("capacity", queries)]

        def worker_total(stats, key):
            return sum(worker[key] for worker in stats.to_dict()["worker_stats"].values())

        unsharded = asic_server(1)
        unsharded.register(servable)
        with unsharded:
            expected_v1 = labels(unsharded)
            unsharded.update("capacity", *update)
            expected_v2 = labels(unsharded)
        stats = unsharded.stats()
        assert worker_total(stats, "capacity_evictions") == stats.batches > 0

        sharded = asic_server(2)
        sharded.register(servable, shards=2)
        in_flight = []
        with sharded:
            assert labels(sharded) == expected_v1
            reader = threading.Thread(
                target=lambda: in_flight.extend(sharded.infer_many("capacity", queries))
            )
            reader.start()
            assert sharded.update("capacity", *update) == 2
            reader.join(timeout=30.0)
            assert labels(sharded) == expected_v2
        stats = sharded.stats()
        assert len(in_flight) == len(queries) and stats.failures == 0
        assert worker_total(stats, "capacity_evictions") == 0
        assert worker_total(stats, "elided_transfers") > 0

    def test_a_taken_shard_runs_on_its_pinned_worker_across_a_swap(
        self, servable, dataset, per_request_labels
    ):
        """Any eligible worker may take a sharded batch, but it hands shard
        *i* to the worker ``plan_scatter`` pins it to — before and after a
        hot-swap."""
        server = InferenceServer(
            workers=("cpu", "cpu", "cpu"), max_batch_size=4, max_wait_seconds=0.002
        )
        server.register(servable, name="pinned", shards=2)
        executed = []
        execute = server.broker._execute

        def recording_execute(worker, work):
            executed.append((work.deployment.version, work.shard, worker.name))
            execute(worker, work)

        server.broker._execute = recording_execute
        rows = list(dataset.test_features[:16])
        with server:
            first = server.infer_many("pinned", rows)
            server.register(servable, name="pinned", shards=2)  # hot-swap
            second = server.infer_many("pinned", rows)
        plan = [worker.name for worker in server.pool.plan_scatter(servable, 2)]
        assert plan == ["cpu-0", "cpu-1"]
        assert {version for version, _, _ in executed} == {1, 2}
        assert all(name == plan[shard] for _, shard, name in executed)
        expected = list(per_request_labels[:16])
        assert [int(np.asarray(r)) for r in first] == [int(np.asarray(r)) for r in second] == expected

    def test_unsupported_model_rejected_at_registration(self, servable, dataset):
        cpu_only = bipolar_servable(name="cpu-only")
        server = InferenceServer(workers=("hdc_reram",))
        with pytest.raises(ValueError):
            server.register(cpu_only)

    def test_sample_shape_validated_on_submit(self, servable):
        server = InferenceServer(workers=("cpu",))
        server.register(servable)
        with pytest.raises(ValueError):
            server.submit(servable.name, np.zeros(FEATURES + 1))

    def test_unknown_model_rejected(self):
        server = InferenceServer(workers=("cpu",))
        with pytest.raises(KeyError):
            server.submit("nope", np.zeros(3))


class TestLifecycleAndParity:
    """Regression tests for review findings on the first serving cut."""

    def test_percentile_nearest_rank(self):
        from repro.serving import percentile

        assert percentile([], 50) == 0.0
        assert percentile([5.0], 99) == 5.0
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile(list(range(1, 21)), 95) == 19
        assert percentile(list(range(1, 21)), 99) == 20

    def test_served_equals_the_one_shot_program_on_every_target(self, stock_cell):
        """Retargetability, extended to serving: a deployment answers what
        the app's own one-shot program answers when compiled for the same
        target, and the host targets get there without a stage fallback."""
        case, target = stock_cell
        served = ModelRegistry().register(case.servable, target=target).run(case.queries)
        assert np.array_equal(np.asarray(served.output), case.one_shot(target))
        if not target.startswith("hdc_"):
            assert served.report.notes["stage_fallbacks"] == 0
            assert served.report.notes["stage_vectorized"] >= 1

    def test_update_corrects_the_class_the_deployment_serves(self, stock_case):
        """The rule bundles the signed encoding into the labelled class and
        subtracts it from the class *this deployment* predicted."""
        servable, x, y = stock_case.servable, stock_case.queries, stock_case.labels
        if y is None:
            assert not servable.updatable
            return
        param = servable.shard_spec.param
        rp = servable.constants.get("rp")
        signed = np.asarray(H.sign(x if rp is None else H.matmul(x, rp)), dtype=np.float32)
        served = np.asarray(ModelRegistry().register(servable).run(x).output)
        expected, wrong = np.array(servable.constants[param]), served != y
        np.add.at(expected, y, signed)
        np.add.at(expected, served[wrong], -signed[wrong])
        updated = servable.updated(x, y)
        assert np.array_equal(updated.constants[param], expected)
        assert not np.array_equal(expected, servable.constants[param])
        assert updated.constants.get("rp") is rp  # passed through, not copied

    def test_cosine_servable_matches_one_shot_run(self, dataset):
        app = HDClassificationInference(dimension=128)  # default cosine
        trained = app.train_offline(dataset)
        expected = app.run(dataset, target="cpu", trained=trained).outputs["predictions"]
        server = InferenceServer(workers=("cpu",), max_batch_size=16)
        server.register(app.as_servable(trained=trained))
        with server:
            results = server.infer_many("hd-classification-inference", list(dataset.test_features))
        served = np.array([int(np.asarray(r)) for r in results], dtype=np.int64)
        assert np.array_equal(served, expected)

    def test_hot_reregister_while_running_and_stop(self, servable, dataset, per_request_labels):
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        server.register(servable)
        server.start()
        try:
            first = int(np.asarray(server.infer(servable.name, dataset.test_features[0])))
            server.register(servable)  # hot swap: must not orphan the dispatcher
            second = int(np.asarray(server.infer(servable.name, dataset.test_features[0])))
        finally:
            server.stop()  # regression: used to hang forever after re-register
        assert first == second == per_request_labels[0]

    def test_server_restarts_after_stop(self, servable, dataset, per_request_labels):
        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        server.register(servable)
        with server:
            server.infer(servable.name, dataset.test_features[0])
        with server:  # regression: batchers used to stay closed
            label = int(np.asarray(server.infer(servable.name, dataset.test_features[1])))
        assert label == per_request_labels[1]
