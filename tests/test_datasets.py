"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    CoraConfig,
    GenomicsConfig,
    IsoletConfig,
    SpectraConfig,
    make_cora_like,
    make_genomics_dataset,
    make_isolet_like,
    make_spectral_library,
)
from repro.datasets.genomics import base_indices, kmer_tokens


class TestIsolet:
    def test_shapes_and_ranges(self, tiny_isolet):
        assert tiny_isolet.train_features.shape == (200, 617)
        assert tiny_isolet.test_features.shape == (80, 617)
        assert tiny_isolet.n_classes == 26
        assert tiny_isolet.train_labels.min() >= 0
        assert tiny_isolet.train_labels.max() < 26
        assert np.all(np.abs(tiny_isolet.train_features) <= 1.0)

    def test_deterministic_given_seed(self):
        a = make_isolet_like(IsoletConfig(n_train=50, n_test=10, seed=1))
        b = make_isolet_like(IsoletConfig(n_train=50, n_test=10, seed=1))
        assert np.array_equal(a.train_features, b.train_features)
        c = make_isolet_like(IsoletConfig(n_train=50, n_test=10, seed=2))
        assert not np.array_equal(a.train_features, c.train_features)

    def test_classes_are_separable_but_not_trivially(self):
        data = make_isolet_like(IsoletConfig(n_train=600, n_test=200, seed=3))
        centroids = np.stack(
            [data.train_features[data.train_labels == c].mean(axis=0) for c in range(26)]
        )
        sims = data.test_features @ centroids.T
        accuracy = (sims.argmax(axis=1) == data.test_labels).mean()
        assert 0.5 < accuracy <= 1.0


class TestSpectra:
    def test_structure(self, tiny_spectra):
        assert len(tiny_spectra.library) == 50
        assert len(tiny_spectra.queries) == 25
        assert tiny_spectra.library_matrix.shape == (50, tiny_spectra.config.n_bins)
        assert tiny_spectra.query_matrix.shape == (25, tiny_spectra.config.n_bins)

    def test_query_truth_indices_valid(self, tiny_spectra):
        truth = tiny_spectra.query_truth
        assert truth.min() >= 0 and truth.max() < 50

    def test_some_queries_carry_modifications(self):
        data = make_spectral_library(SpectraConfig(n_library=100, n_queries=100, seed=1))
        modified = sum(1 for q in data.queries if q.modification_bins != 0)
        assert 0 < modified < 100

    def test_queries_resemble_their_source(self, tiny_spectra):
        overlaps, mismatches = [], []
        for query in tiny_spectra.queries:
            source = tiny_spectra.library[query.library_match]
            other = tiny_spectra.library[(query.library_match + 1) % len(tiny_spectra.library)]
            overlaps.append(np.minimum(query.binned > 0, source.binned > 0).sum())
            mismatches.append(np.minimum(query.binned > 0, other.binned > 0).sum())
        assert np.mean(overlaps) > np.mean(mismatches)


class TestCora:
    def test_structure(self, tiny_cora):
        assert tiny_cora.n_nodes == 150
        assert tiny_cora.features.shape[1] == tiny_cora.config.n_features
        assert set(np.unique(tiny_cora.labels)) <= set(range(7))
        assert tiny_cora.train_nodes.size + tiny_cora.test_nodes.size == 150
        assert len(tiny_cora.adjacency_lists()) == 150

    def test_features_are_sparse_binary(self, tiny_cora):
        assert set(np.unique(tiny_cora.features)) <= {0.0, 1.0}
        density = tiny_cora.features.mean()
        assert density < 0.2

    def test_graph_is_homophilous(self):
        graph = make_cora_like(CoraConfig(n_nodes=400, seed=2))
        same, diff = 0, 0
        for u, v in graph.graph.edges():
            if graph.labels[u] == graph.labels[v]:
                same += 1
            else:
                diff += 1
        assert same > diff


class TestGenomics:
    def test_structure(self, tiny_genomics):
        assert len(tiny_genomics.genome) == 4000
        assert len(tiny_genomics.reads) == 25
        assert tiny_genomics.read_buckets.max() < tiny_genomics.n_buckets
        assert all(len(r) == tiny_genomics.config.read_length for r in tiny_genomics.reads)
        assert set(tiny_genomics.genome) <= set("ACGT")

    def test_bucket_sequences_tile_the_genome(self, tiny_genomics):
        total = sum(len(tiny_genomics.bucket_sequence(b)) for b in range(tiny_genomics.n_buckets))
        assert total == len(tiny_genomics.genome)

    def test_kmer_tokens(self):
        assert kmer_tokens("ACGTA", 3) == ["ACG", "CGT", "GTA"]
        assert kmer_tokens("AC", 3) == []
        with pytest.raises(ValueError):
            kmer_tokens("ACGT", 0)

    def test_base_indices(self):
        assert np.array_equal(base_indices("ACGT"), [0, 1, 2, 3])
        indices = base_indices("TTGCA")
        assert indices.dtype == np.int64 and np.array_equal(indices, [3, 3, 2, 1, 0])
        assert base_indices("").shape == (0,) and base_indices("").dtype == np.int64

    @pytest.mark.parametrize("sequence", ["ACGN", "acgt", "AC-G", "ACGé", "\x00"])
    def test_base_indices_refuse_other_characters(self, sequence):
        with pytest.raises(KeyError):
            base_indices(sequence)

    def test_base_indices_of_the_dataset_match_a_per_character_lookup(self, tiny_genomics):
        lookup = {base: i for i, base in enumerate("ACGT")}
        for sequence in (tiny_genomics.genome, *tiny_genomics.reads):
            assert np.array_equal(base_indices(sequence), [lookup[b] for b in sequence])

    def test_reads_match_reference_mostly(self, tiny_genomics):
        config = tiny_genomics.config
        read = tiny_genomics.reads[0]
        bucket = int(tiny_genomics.read_buckets[0])
        # The read's k-mers should overlap the k-mers of its origin bucket or
        # the neighbouring bucket far more than a random region's.
        region = tiny_genomics.bucket_sequence(bucket)
        read_kmers = set(kmer_tokens(read, config.kmer_length))
        region_kmers = set(kmer_tokens(region, config.kmer_length))
        assert len(read_kmers & region_kmers) > 0
