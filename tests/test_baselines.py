"""Tests for the hand-written baseline implementations."""

import numpy as np
import pytest

from repro.baselines import (
    classification_cuda,
    classification_python,
    clustering_cuda,
    clustering_python,
    hashtable_python,
    hyperoms_cuda,
    relhd_cuda,
    relhd_python,
)


class TestClassificationBaselines:
    def test_python_baseline_learns(self, tiny_isolet):
        result = classification_python.run(tiny_isolet, dimension=256, epochs=1)
        assert result.style == "python"
        assert result.quality > 0.2
        assert result.wall_seconds > 0

    def test_cuda_baseline_learns(self, tiny_isolet):
        result = classification_cuda.run(tiny_isolet, dimension=512, epochs=2)
        assert result.style == "cuda"
        assert result.quality > 0.3

    def test_both_styles_agree_in_quality(self, tiny_isolet):
        python = classification_python.run(tiny_isolet, dimension=512, epochs=2)
        cuda = classification_cuda.run(tiny_isolet, dimension=512, epochs=2)
        assert abs(python.quality - cuda.quality) < 0.2


class TestClusteringBaselines:
    def test_python_baseline(self, tiny_isolet):
        result = clustering_python.run(tiny_isolet, dimension=256, n_clusters=26, iterations=2)
        assert 0 < result.quality <= 1.0

    def test_cuda_baseline(self, tiny_isolet):
        result = clustering_cuda.run(tiny_isolet, dimension=512, n_clusters=26, iterations=3)
        assert 0 < result.quality <= 1.0
        assert result.outputs["assignments"].shape == (200,)


class TestHyperOMSBaseline:
    def test_gpu_baseline_recall(self, tiny_spectra):
        result = hyperoms_cuda.run(tiny_spectra, dimension=1024)
        assert result.quality > 0.5
        assert result.quality_metric == "recall@1"


class TestRelHDBaselines:
    def test_python_baseline(self, tiny_cora):
        result = relhd_python.run(tiny_cora, dimension=512, epochs=1)
        assert result.quality > 0.4

    def test_cuda_baseline(self, tiny_cora):
        result = relhd_cuda.run(tiny_cora, dimension=1024, epochs=2)
        assert result.quality > 0.5


class TestHashtableBaseline:
    def test_loop_and_batched_search_agree(self, tiny_genomics):
        loop = hashtable_python.run(tiny_genomics, dimension=1024)
        batched = hashtable_python.run(tiny_genomics, dimension=1024, use_batched_search=True)
        assert np.array_equal(loop.outputs["matches"], batched.outputs["matches"])
        assert loop.quality == batched.quality
        assert loop.quality > 0.6
