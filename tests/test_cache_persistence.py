"""Tests for compiled-program cache persistence (save/load + warm hits).

The headline scenario is the warm restart: a server saves its cache,
"another process" (a fresh registry + cache, loaded from disk) registers
the same model, and serving proceeds with **zero** trace/lower calls and
bit-identical predictions.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backends.base as backends_base
from repro import hdcpp as H
from repro.apps import HDClassificationInference
from repro.backends import CPUBackend
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import CompiledProgramCache, InferenceServer, ModelRegistry, Servable

DIM = 256
FEATURES = 64
CLASSES = 8


@pytest.fixture(scope="module")
def dataset():
    return make_isolet_like(
        IsoletConfig(n_features=FEATURES, n_classes=CLASSES, n_train=200, n_test=60, seed=7)
    )


@pytest.fixture(scope="module")
def servable(dataset):
    app = HDClassificationInference(dimension=DIM, similarity="hamming")
    return app.as_servable(dataset=dataset)


def simple_program(batch: int, name: str = "persist_probe") -> H.Program:
    prog = H.Program(f"{name}_b{batch}")

    @prog.entry(H.hm(batch, DIM))
    def main(queries):
        return H.sign(queries)

    return prog


class TestSaveLoadRoundTrip:
    def test_round_trip_restores_entries_and_counts_warm_hits(self, tmp_path):
        cache = CompiledProgramCache()
        backend = CPUBackend()
        key = cache.make_key("sig-a", "cpu", None, batch_size=4)
        cache.get_or_compile(key, backend, lambda: simple_program(4))
        assert cache.save(tmp_path / "cache.pkl") == 1

        restored = CompiledProgramCache()
        assert restored.load(tmp_path / "cache.pkl") == 1
        assert len(restored) == 1 and key in restored

        def must_not_compile():
            raise AssertionError("warm entry recompiled")

        compiled = restored.get_or_compile(key, backend, must_not_compile)
        out = compiled.run(queries=np.zeros((4, DIM), dtype=np.float32) - 2.0)
        assert np.array_equal(np.asarray(out.output), -np.ones((4, DIM), dtype=np.float32))
        assert restored.stats.misses == 0
        assert restored.stats.hits == 1
        assert restored.stats.warm_hits == 1  # the hit came off disk

    def test_cold_hits_do_not_count_as_warm(self):
        cache = CompiledProgramCache()
        backend = CPUBackend()
        key = cache.make_key("sig-b", "cpu", None, batch_size=2)
        cache.get_or_compile(key, backend, lambda: simple_program(2))
        cache.get_or_compile(key, backend, lambda: simple_program(2))
        assert cache.stats.hits == 1 and cache.stats.warm_hits == 0

    def test_unserializable_entries_skipped_not_fatal(self, tmp_path):
        """Programs closing over Python callables cannot pickle; save skips
        them and persists the rest."""
        cache = CompiledProgramCache()
        backend = CPUBackend()

        def closure_program(batch: int) -> H.Program:
            prog = H.Program(f"closure_b{batch}")

            @prog.entry(H.hm(batch, DIM))
            def main(queries):
                return H.parallel_map(lambda row: H.sign_flip(row), queries)

            return prog

        cache.get_or_compile(
            cache.make_key("sig-closure", "cpu", None, batch_size=2), backend,
            lambda: closure_program(2),
        )
        cache.get_or_compile(
            cache.make_key("sig-plain", "cpu", None, batch_size=2), backend,
            lambda: simple_program(2, name="plain"),
        )
        assert cache.save(tmp_path / "cache.pkl") == 1  # closure entry skipped
        restored = CompiledProgramCache()
        assert restored.load(tmp_path / "cache.pkl") == 1

    def test_load_keeps_live_entries(self, tmp_path):
        """A live compile beats a stale disk entry under the same key."""
        cache = CompiledProgramCache()
        backend = CPUBackend()
        key = cache.make_key("sig-live", "cpu", None, batch_size=2)
        cache.get_or_compile(key, backend, lambda: simple_program(2))
        cache.save(tmp_path / "cache.pkl")
        live = cache._entries[key]
        assert cache.load(tmp_path / "cache.pkl") == 0  # key already present
        assert cache._entries[key] is live

    def test_load_rejects_non_cache_files(self, tmp_path):
        bogus = tmp_path / "bogus.pkl"
        import pickle

        bogus.write_bytes(pickle.dumps({"format": 999}))
        with pytest.raises(ValueError):
            CompiledProgramCache().load(bogus)
        # A format-1 save predates the plan attributes its programs' back
        # ends read (repro.transforms.plan), a format-2 one the stages'
        # proofs, so both are refused, not restored.
        cache = CompiledProgramCache()
        cache.get_or_compile(cache.make_key("sig-old", "cpu", None, batch_size=2), CPUBackend(),
                             lambda: simple_program(2))
        cache.save(tmp_path / "cache.pkl")
        saved = pickle.loads((tmp_path / "cache.pkl").read_bytes())
        assert saved["format"] == 3 and len(saved["entries"]) == 1
        for old in (1, 2):
            (tmp_path / "old.pkl").write_bytes(pickle.dumps({**saved, "format": old}))
            with pytest.raises(ValueError, match=f"format {old}"):
                CompiledProgramCache().load(tmp_path / "old.pkl")

    def test_capacity_respected_on_load(self, tmp_path):
        cache = CompiledProgramCache()
        backend = CPUBackend()
        for batch in (1, 2, 4):
            cache.get_or_compile(
                cache.make_key("sig-cap", "cpu", None, batch_size=batch),
                backend,
                lambda b=batch: simple_program(b),
            )
        cache.save(tmp_path / "cache.pkl")
        bounded = CompiledProgramCache(capacity=2)
        bounded.load(tmp_path / "cache.pkl")
        assert len(bounded) == 2
        assert bounded.stats.evictions == 1


class TestWarmRestart:
    def test_restart_with_warm_cache_skips_compilation(
        self, tmp_path, dataset, servable, monkeypatch
    ):
        """register → save → fresh registry → load → register again:
        zero trace calls, zero lower/verify calls, identical predictions."""
        first = ModelRegistry()
        first.register(servable, warm_batch_sizes=(1, 8))
        expected = np.asarray(
            first.get(servable.name).run(dataset.test_features[:8]).output, dtype=np.int64
        )
        saved = first.save_cache(tmp_path / "serving-cache.pkl")
        assert saved == 2  # one artifact per warmed bucket

        # --- "new process": fresh registry, fresh cache, loaded from disk ---
        restarted = ModelRegistry()
        assert restarted.load_cache(tmp_path / "serving-cache.pkl") == 2

        calls = {"trace": 0, "lower": 0}
        real_lower = backends_base.lower_program

        def counting_lower(program):
            calls["lower"] += 1
            return real_lower(program)

        monkeypatch.setattr(backends_base, "lower_program", counting_lower)

        counted = Servable(
            name=servable.name,
            build_program=lambda batch: (
                calls.__setitem__("trace", calls["trace"] + 1) or servable.build_program(batch)
            ),
            constants=servable.constants,
            query_param=servable.query_param,
            sample_shape=servable.sample_shape,
            signature=servable.signature,  # same model identity => same keys
            supported_targets=servable.supported_targets,
        )
        deployment = restarted.register(counted, warm_batch_sizes=(1, 8))
        predictions = np.asarray(deployment.run(dataset.test_features[:8]).output, dtype=np.int64)

        assert calls == {"trace": 0, "lower": 0}  # nothing recompiled
        assert restarted.cache.stats.misses == 0
        assert restarted.cache.stats.warm_hits >= 2  # both buckets served warm
        assert np.array_equal(predictions, expected)

    def test_restarted_server_serves_warm(self, tmp_path, dataset, servable):
        """End to end through the InferenceServer facade: a restarted
        server loads the cache and serves with zero recompiles."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        server.register(servable, warm="full")  # every bucket lands in the cache
        with server:
            expected = [
                int(np.asarray(r)) for r in server.infer_many(
                    servable.name, list(dataset.test_features[:12])
                )
            ]
        assert server.save_cache(tmp_path / "server-cache.pkl") >= 2

        restarted = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.002)
        restarted.load_cache(tmp_path / "server-cache.pkl")
        restarted.register(servable, warm="full")
        with restarted:
            served = [
                int(np.asarray(r)) for r in restarted.infer_many(
                    servable.name, list(dataset.test_features[:12])
                )
            ]
            restarted.drain()
            stats = restarted.stats()
        assert served == expected
        assert stats.cache_misses == 0  # the acceptance criterion: no recompiles
        assert stats.cache_warm_hits >= 2
