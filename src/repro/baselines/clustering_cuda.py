"""HD-Clustering — optimized "CUDA-style" GPU baseline.

Fully batched implementation of HDCluster: encoding is one GEMM, every
assignment step is one GEMM + row-wise arg-reduction, and the cluster
update is a segmented sum — the structure of the hand-written CUDA baseline
the paper compares against on the GPU.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.common import BaselineResult

__all__ = ["run"]


def _purity(assignments, labels, n_clusters):
    total = 0
    for cluster in range(n_clusters):
        members = labels[assignments == cluster]
        if members.size:
            total += np.bincount(members).max()
    return float(total) / float(labels.size)


def run(dataset, dimension: int = 2048, n_clusters: int = 26, iterations: int = 8, seed: int = 3) -> BaselineResult:
    """Cluster the training partition of the dataset (batched)."""
    rng = np.random.default_rng(seed)
    features = dataset.train_features
    labels = dataset.train_labels
    rp_matrix = (rng.integers(0, 2, size=(dimension, features.shape[1])) * 2 - 1).astype(np.float32)

    start = time.perf_counter()

    encoded = np.sign(features @ rp_matrix.T).astype(np.float32)
    initial = rng.choice(features.shape[0], size=n_clusters, replace=False)
    clusters = encoded[initial].copy()
    assignments = np.zeros(features.shape[0], dtype=np.int64)

    for _ in range(iterations):
        # hamming = (D - dot) / 2 for bipolar vectors: one GEMM per iteration.
        dots = encoded @ clusters.T
        new_assignments = dots.argmax(axis=1)
        # The segmented sum as one one-hot product (exact: integer rows).
        members = new_assignments == np.arange(n_clusters)[:, None]
        filled = members.any(axis=1)
        clusters[filled] = np.sign(members[filled].astype(np.float32) @ encoded)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments

    wall = time.perf_counter() - start
    return BaselineResult(
        app="hd-clustering",
        style="cuda",
        quality=_purity(assignments, labels, n_clusters),
        quality_metric="purity",
        wall_seconds=wall,
        outputs={"assignments": assignments},
    )
