"""Integration tests for the five HDC++ applications on their supported targets.

Which targets an application is evaluated on is read from its row of
``repro.evaluation.applications.APPLICATIONS`` (the paper's Table 2);
``tests/test_evaluation.py::TestApplicationTable`` walks the whole table.
"""

from unittest import mock

import numpy as np
import pytest

from repro.apps import clustering
from repro.apps import (
    HDClassification,
    HDClassificationInference,
    HDClustering,
    HDHashtable,
    HyperOMS,
    RelHD,
)
from repro.backends import compile as hdc_compile
from repro.evaluation.applications import APPLICATIONS
from repro.transforms import ApproximationConfig

ROWS = {row.name: row for row in APPLICATIONS}


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
        assert all(set(p) == {"clone", "passes", "lower", "verify", "prepare"} for p in phases)
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

    def test_reference_table_shape(self, app, tiny_genomics):
        base = app.make_base_hypervectors()
        table = app.encode_reference_buckets(tiny_genomics, base)
        assert table.shape == (tiny_genomics.n_buckets, 1024)
        assert set(np.unique(table)) <= {-1.0, 0.0, 1.0}
