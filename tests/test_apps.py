"""Integration tests for the five HDC++ applications on their supported targets.

Which targets an application is evaluated on is read from its row of
``repro.evaluation.applications.APPLICATIONS`` (the paper's Table 2);
``tests/test_evaluation.py::TestApplicationTable`` walks the whole table.
"""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import clustering, common
from repro.apps import (
    HDClassification,
    HDClassificationInference,
    HDClustering,
    HDHashtable,
    HyperOMS,
    RelHD,
)
from repro.apps.classification import classification_search
from repro.apps.common import bipolar_random
from repro.backends import CPUBackend, compile as hdc_compile
from repro.datasets import IsoletConfig, make_isolet_like
from repro.evaluation.applications import APPLICATIONS
from repro.transforms import ApproximationConfig, PerforationSpec

ROWS = {row.name: row for row in APPLICATIONS}

#: The applications' projection / item-memory shapes, odd element counts,
#: one element and no rows.
DRAW_SHAPES = [(512, 617), (512, 433), (128, 512), (4, 512), (1, 1), (0, 5),
               (0, 617), (3, 5), (7, 1), (1, 7), (13, 11)]  # fmt: skip
DRAW_SEEDS = [0, 1, 7, 123, 20251001, 2**32 - 1]


def integers_draw(shape, seed) -> np.ndarray:
    """What ``bipolar_random`` must equal byte for byte."""
    return (np.random.default_rng(seed).integers(0, 2, shape) * 2 - 1).astype(np.float32)


@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("shape", DRAW_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_bipolar_random_is_the_integers_draw(shape, seed):
    """The sign-bit draw is ``integers(0, 2)`` byte for byte; if NumPy's
    stream ever changes, this fails instead of every quality number
    moving."""
    expected = integers_draw(shape, seed)
    common._draws.pop((*shape, seed), None)  # a miss beside the other cases' draws
    drawn = bipolar_random(*shape, seed=seed)
    assert (*shape, seed) in common._draws
    cached = bipolar_random(*shape, seed=seed)
    for got in (drawn, cached):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == expected.tobytes()


def test_bipolar_random_hands_out_private_arrays():
    """A caller writing into its projection moves no other caller's."""
    expected = bipolar_random(64, 33, seed=5).tobytes()
    first = bipolar_random(64, 33, seed=5)
    first *= -1
    first[0, 0] = 7.0
    second = bipolar_random(64, 33, seed=5)
    assert not np.shares_memory(first, second)
    assert second.tobytes() == expected


def test_bipolar_random_table_stays_within_its_budget(monkeypatch):
    """Past the byte budget the least recently used draws go; a draw larger
    than the whole budget is exact and not kept."""
    monkeypatch.setattr(common, "_DRAW_CACHE_BYTES", 100)
    common._draws.clear()
    for seed in (1, 2, 3):  # 40 bytes of bits each
        bipolar_random(20, 16, seed=seed)
    assert list(common._draws) == [(20, 16, 2), (20, 16, 3)]
    bipolar_random(20, 16, seed=2)  # a hit refreshes its entry
    bipolar_random(20, 16, seed=4)
    assert list(common._draws) == [(20, 16, 2), (20, 16, 4)]
    large = bipolar_random(30, 31, seed=9)  # 117 bytes of bits
    assert large.tobytes() == integers_draw((30, 31), 9).tobytes()
    assert list(common._draws) == [(20, 16, 2), (20, 16, 4)]


def test_bipolar_random_is_exact_under_concurrent_misses(monkeypatch):
    """Threads missing the table together, and evicting from it under a
    small budget, all return exact bytes and leave it within budget."""
    monkeypatch.setattr(common, "_DRAW_CACHE_BYTES", 600)  # room for 2 of the 8 keys
    common._draws.clear()
    keys = [(16, 150 + seed, seed) for seed in range(8)]
    expected = {key: integers_draw(key[:2], key[2]).tobytes() for key in keys}
    barrier = threading.Barrier(8)

    def draw(worker):
        barrier.wait(timeout=10)
        order = (keys[worker:] + keys[:worker]) * 20
        return [(key, bipolar_random(*key[:2], seed=key[2]).tobytes()) for key in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            drawn = [pair for pairs in pool.map(draw, range(8), timeout=60) for pair in pairs]
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == 8 * 8 * 20
    assert all(got == expected[key] for key, got in drawn)
    assert sum(bits.nbytes for bits in common._draws.values()) <= 600


class TestHDClassification:
    @pytest.fixture(scope="class")
    def app(self):
        return HDClassification(dimension=512, epochs=2)

    @pytest.mark.parametrize("target", ROWS["HD-Classification"].targets)
    def test_runs_on_all_targets(self, app, tiny_isolet, target):
        result = app.run(tiny_isolet, target=target)
        assert result.quality > 1.0 / 26 * 3  # clearly above chance
        assert result.outputs["predictions"].shape == (80,)
        assert result.outputs["class_hypervectors"].shape == (26, 512)
        assert result.wall_seconds > 0

    def test_cpu_and_gpu_agree(self, app, tiny_isolet):
        cpu = app.run(tiny_isolet, target="cpu")
        gpu = app.run(tiny_isolet, target="gpu")
        # Training orders differ (per-sample vs mini-batch), so predictions
        # may differ slightly, but quality must be comparable.
        assert abs(cpu.quality - gpu.quality) < 0.15

    @pytest.mark.parametrize("target", ROWS["HD-Classification"].accelerators)
    def test_accelerator_reports_device_time(self, app, tiny_isolet, target):
        result = app.run(tiny_isolet, target=target)
        assert result.report.device_seconds > 0
        assert result.report.notes["train_iterations"] == 200 * 2


    @staticmethod
    def encode_per_epoch_program(app, n_features, n_classes, n_train, n_test):
        """HD-Classification stated with the encode inside an eager training
        rule (``training_loop(..., encoder=)``): every training row is
        encoded once per epoch, and the rule runs per row."""
        dim, search = app.dimension, classification_search(app.similarity)
        prog = H.Program("hd_classification")
        infer = search.define(prog, H.hv(n_features), H.hm(n_classes, dim), H.hm(dim, n_features))

        def encode_then_rule(row, label, classes, rp):
            return search.rule(search.encode(row, rp), label, classes)

        @prog.entry(
            H.hm(n_train, n_features),
            H.IndexVectorType(n_train),
            H.hm(n_test, n_features),
            H.hm(dim, n_features),
            H.hm(n_classes, dim),
        )
        def main(train_queries, train_labels, test_queries, rp_matrix, classes):
            trained = H.training_loop(
                encode_then_rule, train_queries, train_labels, classes, epochs=app.epochs, encoder=rp_matrix
            )
            return H.inference_loop(infer, test_queries, trained, encoder=rp_matrix), trained

        return prog

    @pytest.mark.parametrize(
        "config",
        [
            ApproximationConfig(),
            ApproximationConfig(binarize=True),
            ApproximationConfig(perforations=(PerforationSpec("matmul", stride=2),)),
            ApproximationConfig(perforations=(PerforationSpec("hamming_distance", stride=2),)),
        ],
        ids=["exact", "binarize", "matmul-stride2", "hamming-stride2"],
    )
    @pytest.mark.parametrize("seed", [1, 1947])
    def test_encode_then_train_matches_the_encode_per_epoch_rule(self, seed, config):
        """At retarget_sweep's shapes the encode-then-train program gives
        the bits of the rule that encoded every row in every epoch: the
        eager training encode is the certified ``sign ∘ matmul`` the rule
        ran, no approximation pass reaches either, and the traced rule run
        once per epoch over the block is the per-row rule.  Its launches
        are the other program's plus that one ``retrain`` per epoch."""
        app = HDClassification(dimension=512, epochs=2)
        data = make_isolet_like(IsoletConfig(n_train=150, n_test=150, seed=seed))
        got = app.run(data, target="cpu", config=config)
        with mock.patch.object(
            HDClassification, "build_program", self.encode_per_epoch_program
        ):
            expected = app.run(data, target="cpu", config=config)
        assert got.quality == expected.quality
        assert got.report.kernel_launches == expected.report.kernel_launches + app.epochs
        for key, value in expected.outputs.items():
            assert np.asarray(got.outputs[key]).tobytes() == np.asarray(value).tobytes(), key


class TestHDClassificationInference:
    def test_offline_training_and_inference(self, tiny_isolet):
        app = HDClassificationInference(dimension=1024, similarity="cosine")
        result = app.run(tiny_isolet, target="gpu")
        assert result.quality > 0.3

    def test_hamming_variant_and_binarization(self, tiny_isolet):
        app = HDClassificationInference(dimension=1024, similarity="hamming")
        trained = app.train_offline(tiny_isolet)
        exact = app.run(tiny_isolet, target="gpu", trained=trained)
        binarized = app.run(
            tiny_isolet, target="gpu", config=ApproximationConfig(binarize=True), trained=trained
        )
        assert abs(exact.quality - binarized.quality) < 0.1

    def test_train_offline_is_section_5_3s_single_pass(self, tiny_isolet):
        """Not the corrective rule, on purpose: ``np.sign`` encoding (an
        exact-zero projection adds nothing), one bundling pass, one cosine
        prediction against the normalized bundles, then a correction only
        where that prediction missed — written out by hand here."""
        features = tiny_isolet.train_features.copy()
        features[:3] = 0.0  # exact-zero projections
        data = dataclasses.replace(tiny_isolet, train_features=features)
        rp, classes = HDClassificationInference(dimension=256).train_offline(data)
        encoded = np.sign(features @ rp.T)
        assert not encoded[:3].any()
        expected = np.zeros((data.n_classes, 256), dtype=np.float32)
        for row, label in zip(encoded, data.train_labels):
            expected[label] += row
        norms = np.linalg.norm(expected, axis=1, keepdims=True)
        guesses = np.argmax(encoded @ (expected / np.where(norms == 0.0, 1.0, norms)).T, axis=1)
        for row, label, guess in zip(encoded, data.train_labels, guesses):
            if guess != label:
                expected[label] += row
                expected[guess] -= row
        assert classes.dtype == np.float32
        assert np.array_equal(classes, expected)

    def test_trained_state_is_reusable(self, tiny_isolet):
        app = HDClassificationInference(dimension=1024)
        trained = app.train_offline(tiny_isolet)
        a = app.run(tiny_isolet, target="cpu", trained=trained)
        b = app.run(tiny_isolet, target="gpu", trained=trained)
        assert np.array_equal(a.outputs["predictions"], b.outputs["predictions"])


class TestHDClustering:
    @pytest.fixture(scope="class")
    def app(self):
        return HDClustering(dimension=512, n_clusters=26, iterations=3)

    @pytest.mark.parametrize("target", ROWS["HD-Clustering"].targets)
    def test_runs_on_all_targets(self, app, tiny_isolet, target):
        result = app.run(tiny_isolet, target=target)
        assert 0.0 < result.quality <= 1.0
        assert result.quality > 1.0 / 26
        assert result.outputs["assignments"].shape == (200,)
        assert 1 <= result.outputs["iterations_run"] <= 3

    def test_quality_metric_is_purity(self, app, tiny_isolet):
        assert app.run(tiny_isolet, target="gpu").quality_metric == "purity"

    @pytest.mark.parametrize("seed", range(8))
    def test_host_array_ops_equal_their_loops(self, seed):
        """The cluster update (one segment sum) and purity (one bincount)
        give the bytes of the per-cluster loops they replaced, empty
        clusters and all."""
        rng = np.random.default_rng(seed)
        n, k, dim = int(rng.integers(1, 200)), int(rng.integers(1, 30)), 64
        encoded = bipolar_random(n, dim, seed=seed)
        assignments = rng.integers(0, k, n) % max(1, k - int(rng.integers(0, 3)))
        labels = rng.integers(0, int(rng.integers(1, 12)), n)
        clusters = bipolar_random(k, dim, seed=seed + 100)
        expected, total = clusters.copy(), 0
        for cluster in range(k):
            members = encoded[assignments == cluster]
            if members.shape[0] > 0:
                expected[cluster] = np.sign(members.sum(axis=0))
            if members.shape[0]:
                total += np.bincount(labels[assignments == cluster]).max()
        clustering._bundle_clusters(encoded, assignments, clusters)
        assert clusters.dtype == expected.dtype and clusters.tobytes() == expected.tobytes()
        assert clustering.clustering_purity(assignments, labels, k) == float(total) / float(n)

    def test_result_says_where_the_time_went(self, app, tiny_isolet):
        """Trace and compile seconds are summed over both programs the run
        compiled; ``wall_seconds`` stays the execution side."""
        compiled = []

        def recording(program, **kwargs):
            compiled.append(hdc_compile(program, **kwargs))
            return compiled[-1]

        with mock.patch.object(clustering, "hdc_compile", recording):
            result = app.run(tiny_isolet, target="cpu")
        assert len(compiled) == 2
        assert result.trace_seconds == sum(c.trace_seconds for c in compiled) > 0
        phases = [c.compile_seconds for c in compiled]
        assert all(set(p) == {"clone", "passes", "plan", "verify", "prepare"} for p in phases)
        assert result.compile_seconds == sum(sum(p.values()) for p in phases) > 0
        assert result.wall_seconds > 0


class TestHyperOMS:
    @pytest.fixture(scope="class")
    def app(self):
        return HyperOMS(dimension=1024)

    @pytest.mark.parametrize("target", ROWS["HyperOMS"].targets)
    def test_recall_above_chance(self, app, tiny_spectra, target):
        result = app.run(tiny_spectra, target=target)
        assert result.quality > 0.5
        assert result.outputs["matches"].shape == (25,)

    def test_cpu_gpu_agree(self, app, tiny_spectra):
        cpu = app.run(tiny_spectra, target="cpu")
        gpu = app.run(tiny_spectra, target="gpu")
        assert np.array_equal(cpu.outputs["matches"], gpu.outputs["matches"])


class TestRelHD:
    @pytest.fixture(scope="class")
    def app(self):
        return RelHD(dimension=1024, epochs=2)

    @pytest.mark.parametrize("target", ROWS["RelHD"].targets)
    def test_node_classification_accuracy(self, app, tiny_cora, target):
        result = app.run(tiny_cora, target=target)
        assert result.quality > 0.5
        assert result.outputs["predictions"].shape == (tiny_cora.test_nodes.size,)

    def test_per_row_training_signs_zero_class_coordinates_as_plus_one(self):
        """The per-row ``training_loop`` on ``cpu`` is the corrective rule at
        n = 1, row after row: a zero class coordinate is ``H.sign``'s +1,
        as on the GPU's mini-batches and in serving — not ``np.sign``'s 0,
        which would count as a mismatch against every node."""
        rng = np.random.default_rng(3)
        dim, n, rows = 64, 32, 5
        classes = rng.integers(-1, 2, size=(rows, dim)).astype(np.float32)  # a third exact zeros
        nodes = np.where(rng.random((n, dim)) < 0.5, -1.0, 1.0).astype(np.float32)
        labels = rng.integers(0, rows, size=n)
        app = RelHD(dimension=dim, epochs=1)
        program = app.build_classify_program(n, 1, rows)
        result = CPUBackend(batched=False).compile(program).run(
            train_encodings=nodes, train_labels=labels, test_encodings=nodes[:1], classes=classes
        )
        trained = np.asarray(result.outputs[program.entry_function.results[1].name])
        expected, rule_steps = classes.copy(), classes
        for node, label in zip(nodes, labels):
            guess = np.argmin((np.where(expected >= 0, 1.0, -1.0) != node).sum(axis=1))
            expected[label] += node
            if guess != label:
                expected[guess] -= node
            rule_steps = app.search().rule(node, int(label), rule_steps)
        assert np.array_equal(trained, expected)
        assert np.array_equal(rule_steps, expected)

    def test_neighbour_aggregation_shape(self, app, tiny_cora):
        encoded = np.sign(np.random.default_rng(0).normal(size=(tiny_cora.n_nodes, 1024))).astype(
            np.float32
        )
        aggregated = app.aggregate_neighbours(encoded, tiny_cora)
        assert aggregated.shape == encoded.shape
        assert set(np.unique(aggregated)) <= {-1.0, 1.0}


class TestHDHashtable:
    @pytest.fixture(scope="class")
    def app(self):
        return HDHashtable(dimension=1024)

    @pytest.mark.parametrize("target", ROWS["HD-Hashtable"].targets)
    def test_bucket_search_accuracy(self, app, tiny_genomics, target):
        result = app.run(tiny_genomics, target=target)
        assert result.quality > 0.6
        assert result.outputs["matches"].shape == (25,)

    def test_wall_seconds_time_the_reference_table(self, app, tiny_genomics):
        """Figure 5 holds ``wall_seconds`` to the Python baseline's clock,
        which runs over the bucket table, the reads and the search: the
        table's encode has to fall inside the timed region."""
        clock = [0.0]
        encode = HDHashtable.encode_reference_buckets

        def slow_encode(*args, **kwargs):
            clock[0] += 100.0
            return encode(*args, **kwargs)

        with mock.patch("repro.apps.hashtable.time", SimpleNamespace(perf_counter=lambda: clock[0])), \
                mock.patch.object(HDHashtable, "encode_reference_buckets", slow_encode):
            result = app.run(tiny_genomics, target="cpu")
        assert result.wall_seconds == 100.0
        assert result.quality > 0.6

    def test_reference_table_shape(self, app, tiny_genomics):
        base = app.make_base_hypervectors()
        table = app.encode_reference_buckets(tiny_genomics, base)
        assert table.shape == (tiny_genomics.n_buckets, 1024)
        assert set(np.unique(table)) <= {-1.0, 0.0, 1.0}
