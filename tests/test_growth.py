"""Tier-1 tests for shape-changing hot-swap (append-style online growth).

The contract mirrors PR 5's online-retraining bar, shifted from weights
to *shapes*: a served deployment appends rows to its growable
class-memory constants under load with zero drops, and every result —
before, during and after growth — is bit-identical to an offline rebuild
of the grown index.  The layers under test:

* :meth:`Servable.appended` — the validated growth step (append-only
  prefix, untouched non-growable constants, typed refusal without a
  rule);
* :meth:`RequestBroker.append` / :meth:`InferenceServer.append` — grow,
  re-trace for the new shapes, warm, version-bump, queue cutover;
* a sharded :class:`Deployment` with ``shard_capacity`` — growth past a
  shard boundary re-partitions live, scatter/gather still bit-identical
  (top-k included);
* the transport ``append`` op — streaming growth over the socket while
  concurrent query threads see zero errors;
* :class:`UpdateLog` growth records — replay rebuilds byte-identical
  grown constants, packed and unpacked, at the exact recorded versions;
* eager residency refresh — the packed class-memory gauges describe the
  installed bytes at swap time, not at the next ``stats()``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.apps import HDClassificationInference
from repro.apps.hashtable import HDHashtable
from repro.apps.hyperoms import HyperOMS
from repro.datasets import GenomicsConfig, IsoletConfig, make_genomics_dataset, make_isolet_like
from repro.datasets.genomics import base_indices
from repro.serving import InferenceServer, NotAppendableError, UpdateLog
from repro.serving.transport import ServingClient, TransportServer
from repro.transforms.pipeline import ApproximationConfig

DIM = 256
KMER = 8


@pytest.fixture(scope="module")
def genomics():
    return make_genomics_dataset(
        GenomicsConfig(
            genome_length=2000,
            bucket_size=200,
            read_length=60,
            n_reads=24,
            kmer_length=KMER,
            seed=7,
        )
    )


@pytest.fixture(scope="module")
def hashtable_app():
    return HDHashtable(dimension=DIM, seed=23)


def hashtable_servable(app, dataset, base_hvs, name="hd-hashtable"):
    table = app.encode_reference_buckets(dataset, base_hvs)
    return app.as_servable(
        table,
        dataset.config.read_length,
        KMER,
        base_hvs=base_hvs,
        name=name,
        append_length=dataset.config.bucket_size,
    )


def new_bucket_rows(dataset, count, seed):
    """Fresh reference sequences (as base-index rows) to grow the table."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, (count, dataset.config.bucket_size), dtype=np.int64)


def offline_grown_servable(app, dataset, base_hvs, all_rows, name="hd-hashtable"):
    """The ground truth: rebuild the full hash table from scratch with the
    per-read reference encoder, exactly as encode_reference_buckets does."""
    table = app.encode_reference_buckets(dataset, base_hvs)
    encode_read = app._make_read_encoder(app._rotated_bases(base_hvs, KMER))
    extra = np.stack([np.sign(encode_read(row)) for row in all_rows]).astype(np.float32)
    return app.as_servable(
        np.vstack([table, extra]),
        dataset.config.read_length,
        KMER,
        base_hvs=base_hvs,
        name=name,
        append_length=dataset.config.bucket_size,
    )


def read_queries(dataset):
    return np.stack([base_indices(read) for read in dataset.reads])


class TestAppendedContract:
    def test_servable_without_rule_is_typed_refusal(self):
        dataset = make_isolet_like(
            IsoletConfig(n_features=32, n_classes=4, n_train=40, n_test=8, seed=3)
        )
        servable = HDClassificationInference(dimension=128).as_servable(dataset=dataset)
        assert not servable.appendable
        with pytest.raises(NotAppendableError, match="not appendable"):
            servable.appended(np.zeros((2, 32), dtype=np.float32))

    def test_row_shape_and_empty_batch_validated(self, hashtable_app, genomics):
        servable = hashtable_servable(
            hashtable_app, genomics, hashtable_app.make_base_hypervectors()
        )
        assert servable.appendable
        with pytest.raises(ValueError, match="non-empty"):
            servable.appended(np.zeros((0, genomics.config.bucket_size), dtype=np.int64))
        with pytest.raises(ValueError, match="shape"):
            servable.appended(np.zeros((2, 17), dtype=np.int64))
        # Rows are base indices: anything else would truncate (0.7), wrap to
        # base 3 (-1) or IndexError inside the swap round (7).
        good = new_bucket_rows(genomics, 2, seed=3)
        for bad in (good + 0.7, good - 1, good + 4, np.where(good == 0, np.nan, good)):
            with pytest.raises(ValueError, match=r"base indices in 0\.\.3"):
                servable.appended(bad)
        assert np.array_equal(
            servable.appended(good.astype(np.float64)).constants["table"],
            servable.appended(good).constants["table"],
        )

    def test_malformed_append_leaves_server_and_log_untouched(
        self, hashtable_app, genomics, tmp_path
    ):
        servable = hashtable_servable(
            hashtable_app, genomics, hashtable_app.make_base_hypervectors()
        )
        good = new_bucket_rows(genomics, 2, seed=4)
        log = UpdateLog(tmp_path / "growth.log")
        server = InferenceServer(workers=("cpu",), max_batch_size=8, update_log=log)
        server.register(servable)
        with server:
            versions = server.model_versions()
            with pytest.raises(ValueError, match="base indices"):
                server.append("hd-hashtable", good - 1)
            assert server.model_versions() == versions and len(log) == 0
            assert server.append("hd-hashtable", good) > versions["hd-hashtable"]
            assert len(log) == 1

    def test_growth_is_append_only_and_rederives_signature(self, hashtable_app, genomics):
        base_hvs = hashtable_app.make_base_hypervectors()
        servable = hashtable_servable(hashtable_app, genomics, base_hvs)
        rows = new_bucket_rows(genomics, 3, seed=11)
        grown = servable.appended(rows)
        assert grown.name == servable.name
        assert grown.signature != servable.signature
        old = np.asarray(servable.constants["table"])
        new = np.asarray(grown.constants["table"])
        assert new.shape[0] == old.shape[0] + 3
        assert np.array_equal(new[: old.shape[0]], old)  # bit-identical prefix
        # The original servable is untouched — the old deployment keeps
        # serving it mid-swap.
        assert np.asarray(servable.constants["table"]).shape[0] == old.shape[0]


class TestLiveGrowth:
    def test_append_under_load_matches_offline_rebuild(self, hashtable_app, genomics):
        base_hvs = hashtable_app.make_base_hypervectors()
        servable = hashtable_servable(hashtable_app, genomics, base_hvs)
        queries = read_queries(genomics)
        rounds = [new_bucket_rows(genomics, 2, seed=s) for s in (1, 2)]

        server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=8)
        server.register(servable)
        with server:
            v0 = server.model_versions()["hd-hashtable"]
            for rows in rounds:
                futures = [server.submit("hd-hashtable", q) for q in queries]
                version = server.append("hd-hashtable", rows)
                assert version > v0
                v0 = version
                for future in futures:
                    future.result(timeout=30)  # nothing dropped across the swap
            after = [np.asarray(server.infer("hd-hashtable", q)) for q in queries]
            server.drain()
            stats = server.stats()
        assert stats.failures == 0 and stats.deadline_exceeded == 0
        # Growth re-traces a new family every round, so the replaced one is
        # evicted (an update, which keeps its signature, evicts nothing).
        cache = server.registry.cache
        assert cache.stats.evictions > 0
        assert cache.evict_signature(servable.signature) == 0  # nothing of v1 left

        offline = offline_grown_servable(
            hashtable_app, genomics, base_hvs, np.vstack(rounds)
        )
        # Same program family: the grown signature equals the offline
        # rebuild's (content-hashed over identical constants).
        grown = server.registry.get("hd-hashtable").servable
        assert grown.signature == offline.signature
        rebuilt = InferenceServer(workers=("cpu",), max_batch_size=8)
        rebuilt.register(offline)
        with rebuilt:
            expected = [np.asarray(rebuilt.infer("hd-hashtable", q)) for q in queries]
        for got, want in zip(after, expected):
            assert np.array_equal(got, want)


class TestShardedRebalance:
    def test_growth_across_shard_boundary_rebalances_live(self):
        app = HyperOMS(dimension=128, n_levels=8)
        rng = np.random.default_rng(2)
        library = rng.random((8, 16), dtype=np.float32)
        queries = rng.random((10, 16), dtype=np.float32)
        servable = app.as_servable(app.encode_library(library), 16)

        server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=8)
        server.register(servable, shards=2, shard_capacity=5)
        with server:
            assert server.registry.get("hyperoms").n_shards == 2
            rows = rng.random((4, 16), dtype=np.float32)  # 8 -> 12 rows: over 2*5
            futures = [server.submit("hyperoms", q) for q in queries]
            server.append("hyperoms", rows)
            for future in futures:
                future.result(timeout=30)
            grown = server.registry.get("hyperoms")
            assert grown.n_shards == 3  # re-partitioned live
            after = [np.asarray(server.infer("hyperoms", q)) for q in queries]
            topk = np.asarray(grown.run(queries, top_k=3).output)
            server.drain()
            assert server.stats().failures == 0

        # Offline rebuild of the grown library, deployed sharded: top-1
        # and top-k both bit-identical to the live-rebalanced deployment.
        offline = app.as_servable(app.encode_library(np.vstack([library, rows])), 16)
        assert grown.servable.signature == offline.signature
        rebuilt = InferenceServer(workers=("cpu",), max_batch_size=8)
        offline_dep = rebuilt.register(offline, shards=3)
        with rebuilt:
            expected = [np.asarray(rebuilt.infer("hyperoms", q)) for q in queries]
            expected_topk = np.asarray(offline_dep.run(queries, top_k=3).output)
        for got, want in zip(after, expected):
            assert np.array_equal(got, want)
        assert np.array_equal(topk, expected_topk)


class TestStreamingGrowthOverSocket:
    def test_concurrent_queries_and_appends_zero_drop(self, hashtable_app, genomics):
        base_hvs = hashtable_app.make_base_hypervectors()
        servable = hashtable_servable(hashtable_app, genomics, base_hvs)
        queries = read_queries(genomics)
        rounds = [new_bucket_rows(genomics, 2, seed=s) for s in (21, 22)]

        server = InferenceServer(
            workers=("cpu", "cpu"), max_batch_size=8, max_wait_seconds=0.002
        )
        server.register(servable)
        server.start()
        transport = TransportServer(server)
        host, port = transport.start()
        try:
            errors: list = []
            served = []
            stop = threading.Event()

            def hammer():
                try:
                    with ServingClient(host, port) as client:
                        while not stop.is_set():
                            index = len(served) % queries.shape[0]
                            served.append(
                                int(np.asarray(client.infer("hd-hashtable", queries[index])))
                            )
                except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            with ServingClient(host, port) as writer:
                versions = [writer.append("hd-hashtable", rows) for rows in rounds]
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert versions == sorted(versions) and len(set(versions)) == len(versions)
            grown_rows = server.registry.get("hd-hashtable").servable.constants["table"].shape[0]
            assert served and all(0 <= label < grown_rows for label in served)

            with ServingClient(host, port) as client:
                after = [
                    np.asarray(client.infer("hd-hashtable", q)) for q in queries
                ]
            stats = server.stats()
            assert stats.failures == 0 and stats.deadline_exceeded == 0
        finally:
            transport.stop()
            server.stop()

        offline = offline_grown_servable(
            hashtable_app, genomics, base_hvs, np.vstack(rounds)
        )
        rebuilt = InferenceServer(workers=("cpu",), max_batch_size=8)
        rebuilt.register(offline)
        with rebuilt:
            expected = [np.asarray(rebuilt.infer("hd-hashtable", q)) for q in queries]
        for got, want in zip(after, expected):
            assert np.array_equal(got, want)


class TestGrowthLogReplay:
    def test_replay_rebuilds_packed_and_unpacked_bytes(self, tmp_path):
        app = HyperOMS(dimension=128, n_levels=8)
        rng = np.random.default_rng(5)
        library = rng.random((6, 16), dtype=np.float32)
        rounds = [rng.random((3, 16), dtype=np.float32) for _ in range(2)]
        config = ApproximationConfig(binarize=True)

        log = UpdateLog(tmp_path / "growth.log")
        live = InferenceServer(workers=("cpu",), max_batch_size=8, update_log=log)
        live.register(app.as_servable(app.encode_library(library), 16), config=config)
        with live:
            live_versions = [live.append("hyperoms", rows) for rows in rounds]
        live_dep = live.registry.get("hyperoms")
        live_unpacked = np.asarray(live_dep.servable.constants["library"])
        live_packed = live_dep._packed_constants[0, "library"]
        assert [r.version for r in log.read_all()] == live_versions

        restarted = InferenceServer(workers=("cpu",), max_batch_size=8, update_log=log)
        restarted.register(app.as_servable(app.encode_library(library), 16), config=config)
        with restarted:
            replayed_versions = log.replay(restarted)
        assert replayed_versions == live_versions
        assert len(log) == len(rounds)  # replay did not re-append
        dep = restarted.registry.get("hyperoms")
        unpacked = np.asarray(dep.servable.constants["library"])
        packed = dep._packed_constants[0, "library"]
        # Byte-identical at the exact recorded versions: unpacked floats
        # and the repacked uint64 words both.
        assert unpacked.tobytes() == live_unpacked.tobytes()
        assert np.asarray(packed, dtype=np.uint64).tobytes() == np.asarray(
            live_packed, dtype=np.uint64
        ).tobytes()


class TestEagerResidencyRefresh:
    def _recorded_residency(self, server, name):
        """The residency document the metrics hold *right now* — read from
        the collector directly, so a lazy stats()-time refresh cannot mask
        staleness."""
        metrics = server.broker.metrics
        with metrics._lock:
            return metrics._models[name]["residency"]

    def test_gauges_fresh_at_register_and_append_time(self):
        app = HyperOMS(dimension=128, n_levels=8)
        rng = np.random.default_rng(9)
        library = rng.random((6, 16), dtype=np.float32)
        servable = app.as_servable(app.encode_library(library), 16)
        config = ApproximationConfig(binarize=True)

        server = InferenceServer(workers=("cpu",), max_batch_size=8)
        # warm=False: without the eager ensure_packed at install time the
        # residency document would stay None until the first compile.
        server.register(servable, config=config, warm=False)
        doc = self._recorded_residency(server, "hyperoms")
        assert doc is not None and doc["packed"]
        before_bytes = doc["class_memory_unpacked_bytes"]
        assert before_bytes == np.asarray(servable.constants["library"]).nbytes

        with server:
            server.append("hyperoms", rng.random((3, 16), dtype=np.float32))
        doc = self._recorded_residency(server, "hyperoms")
        grown = server.registry.get("hyperoms").servable.constants["library"]
        # Refreshed at swap time (no stats() call in between): the gauges
        # describe the grown constants' bytes already.
        assert doc["class_memory_unpacked_bytes"] == np.asarray(grown).nbytes
        assert doc["class_memory_unpacked_bytes"] > before_bytes
