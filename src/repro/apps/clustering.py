"""HD-Clustering written in HDC++ (Table 2 of the paper).

HD-Clustering is k-means in hyperdimensional space (HDCluster): samples are
random-projection encoded once, cluster hypervectors are initialized from
encoded samples, and every iteration (1) assigns each sample to its most
similar cluster hypervector and (2) rebuilds every cluster hypervector by
bundling the encodings assigned to it.

The computationally intensive part — encoding and the per-iteration
assignment (which is exactly HDC inference) — is expressed with the
``encoding_loop`` / ``inference_loop`` stage primitives, both taken from the
one search statement (:meth:`HDClustering.search`) the served program is
derived from, and therefore maps onto the HDC accelerators, while the
ancillary cluster update and the random projection stay on the host: the
paper's own example of stage primitives composing with host code (3.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import hdcpp as H
from repro.apps.common import AppResult, Search, bipolar_random, cold_path, merge_reports
from repro.apps.common import search_servable
from repro.backends import compile as hdc_compile
from repro.datasets.isolet import IsoletLike
from repro.serving.servable import ALL_TARGETS, Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["HDClustering"]


@dataclass
class HDClustering:
    """HDC k-means clustering."""

    targets = ALL_TARGETS  #: where Table 2 maps it, and where it may be served
    dimension: int = 2048
    n_clusters: int = 26
    iterations: int = 8
    seed: int = 3

    # ------------------------------------------------------------------ programs --
    def search(self) -> Search:
        """HD-Clustering's search, stated once: a sample, random-projected
        through ``rp`` and signed, against the ``cluster_hvs`` under
        Hamming distance."""

        def encode(features, rp):
            return H.sign(H.matmul(features, rp))

        return Search(("samples",), "cluster_hvs", encode, "rp", bipolar=True)

    def build_encode_program(self, n_samples: int, n_features: int) -> H.Program:
        """Program that random-projection encodes the whole dataset."""
        dim = self.dimension
        prog = H.Program("hd_clustering_encode")
        encode = prog.define(H.hv(n_features), H.hm(dim, n_features))(self.search().encode)

        @prog.entry(H.hm(n_samples, n_features), H.hm(dim, n_features))
        def main(samples, rp_matrix):
            return H.encoding_loop(encode, samples, rp_matrix)

        return prog

    def build_assign_program(self, n_samples: int) -> H.Program:
        """Program that assigns every encoded sample to its closest cluster.

        Samples are encoded once by the encoding program; each k-means
        iteration therefore only exercises the similarity search (HDC
        inference) of :meth:`search` over the pre-encoded hypervectors, on
        the GPU as one batched similarity call and on the accelerators
        through their Hamming units.
        """
        dim, n_clusters = self.dimension, self.n_clusters
        prog = H.Program("hd_clustering_assign")
        assign = self.search().define(prog, H.hv(dim), H.hm(n_clusters, dim))

        @prog.entry(H.hm(n_samples, dim), H.hm(n_clusters, dim))
        def main(encoded_samples, clusters):
            return H.inference_loop(assign, encoded_samples, clusters)

        return prog

    # ------------------------------------------------------------------ driver --
    def run(
        self,
        dataset: IsoletLike,
        target: str = "cpu",
        config: Optional[ApproximationConfig] = None,
        samples: Optional[np.ndarray] = None,
        true_labels: Optional[np.ndarray] = None,
    ) -> AppResult:
        """Cluster the dataset on one hardware target.

        Quality is reported as *purity* against the ground-truth class
        labels (the standard external metric for HDCluster-style
        evaluations).
        """
        features = dataset.train_features if samples is None else samples
        labels = dataset.train_labels if true_labels is None else true_labels
        n_samples, n_features = features.shape

        encode_prog = self.build_encode_program(n_samples, n_features)
        assign_prog = self.build_assign_program(n_samples)
        encode_compiled = hdc_compile(encode_prog, target=target, config=config)
        assign_compiled = hdc_compile(assign_prog, target=target, config=config)

        rp_matrix = bipolar_random(self.dimension, n_features, seed=self.seed)
        rng = np.random.default_rng(self.seed)

        reports = []
        start = time.perf_counter()

        encode_result = encode_compiled.run(samples=features, rp_matrix=rp_matrix)
        reports.append(encode_result.report)
        encoded = np.asarray(encode_result.output, dtype=np.float32)

        # Initialize cluster hypervectors from encoded samples with a
        # k-means++-style farthest-first sweep (host-side ancillary work).
        clusters = _farthest_first_init(encoded, self.n_clusters, rng)

        assignments = np.zeros(n_samples, dtype=np.int64)
        iterations_run = 0
        for _ in range(self.iterations):
            iterations_run += 1
            assign_result = assign_compiled.run(encoded_samples=encoded, clusters=clusters)
            reports.append(assign_result.report)
            new_assignments = np.asarray(assign_result.output, dtype=np.int64)

            # Ancillary cluster update on the host.
            _bundle_clusters(encoded, new_assignments, clusters)
            if np.array_equal(new_assignments, assignments):
                assignments = new_assignments
                break
            assignments = new_assignments

        wall = time.perf_counter() - start
        purity = clustering_purity(assignments, labels, self.n_clusters)
        return AppResult(
            app="hd-clustering",
            target=target,
            quality=purity,
            quality_metric="purity",
            wall_seconds=wall,
            report=merge_reports(target, reports),
            outputs={
                "assignments": assignments,
                "clusters": clusters,
                "iterations_run": iterations_run,
            },
            **cold_path(encode_compiled, assign_compiled),
        )

    # ------------------------------------------------------------------ serving --
    def as_servable(
        self, rp_matrix: np.ndarray, clusters: np.ndarray, name: str = "hd-clustering"
    ) -> Servable:
        """Serve converged clusters (e.g. ``run(...)``'s ``clusters`` output).

        A request is one raw feature vector, answered with its nearest
        cluster hypervector — the streaming "which cluster does this new
        sample belong to" query, with the k-means iterations left to
        offline fitting.  An appended row is a new cluster hypervector
        ``(dimension,)``, e.g. a centroid promoted from an offline fit of
        fresh data: appending it is exactly how the offline path would
        extend the cluster bank.
        """
        return search_servable(
            name,
            self.search(),
            clusters,
            rp_matrix,
            targets=self.targets,
            grow=((self.dimension,), np.asarray),
            signature_extra=f"dim={self.dimension}",
        )


def _farthest_first_init(
    encoded: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Pick initial cluster hypervectors that are mutually far apart."""
    n_samples = encoded.shape[0]
    chosen = [int(rng.integers(0, n_samples))]
    # Hamming distance between bipolar vectors is proportional to -dot.
    min_similarity = encoded @ encoded[chosen[0]]
    for _ in range(1, n_clusters):
        candidate = int(np.argmin(min_similarity))
        chosen.append(candidate)
        min_similarity = np.maximum(min_similarity, encoded @ encoded[candidate])
    return encoded[chosen].copy()


def _bundle_clusters(encoded: np.ndarray, assignments: np.ndarray, clusters: np.ndarray) -> None:
    """Set each cluster with members to the sign of the sum of its members'
    encodings, in place; an empty cluster keeps its vector.  One segment
    sum, as a one-hot product: sums of ±1 rows are exact in float32 in any
    order."""
    members = assignments == np.arange(clusters.shape[0])[:, None]
    filled = members.any(axis=1)
    clusters[filled] = np.sign(members[filled].astype(np.float32) @ encoded)


def clustering_purity(assignments: np.ndarray, labels: np.ndarray, n_clusters: int) -> float:
    """Cluster purity: fraction of samples in their cluster's majority class,
    from one ``bincount`` of the (cluster, class) pairs."""
    n_classes = int(labels.max()) + 1
    pairs = np.bincount(assignments * n_classes + labels, minlength=n_clusters * n_classes)
    return float(pairs.reshape(n_clusters, n_classes).max(axis=1).sum()) / float(labels.size)
