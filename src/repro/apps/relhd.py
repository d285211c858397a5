"""RelHD written in HDC++ (Table 2 of the paper).

RelHD performs GNN-style learning with HDC: every node of a citation graph
is represented by the combination of its own encoded features and the
bundled encodings of its graph neighbourhood ("graph neighbour encoding"),
and node labels are learned with the usual HDC class-hypervector training.

The pipeline is split exactly as the paper describes for applications that
only partially map to HDC primitives:

* feature encoding of all nodes uses the ``encoding_loop`` stage primitive
  (random projection + sign);
* the sparse, graph-dependent neighbour aggregation is ancillary host code;
* class training and test-node inference use the ``training_loop`` /
  ``inference_loop`` stage primitives over the aggregated node
  hypervectors, with the search and the corrective rule of the one
  statement (:meth:`RelHD.search`) that the served program also derives
  from.

RelHD runs on the CPU and GPU only, matching the paper: it trains on host-
aggregated encodings, and the accelerators refuse encoder-less training.
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
from repro.datasets.cora import CitationGraph
from repro.kernels.reference import sign
from repro.serving.servable import HOST_TARGETS, Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["RelHD"]


@dataclass
class RelHD:
    """Graph node classification with HDC (RelHD)."""

    targets = HOST_TARGETS  #: where Table 2 maps it, and where it may be served
    dimension: int = 4096
    epochs: int = 3
    #: Weight of a node's own encoding relative to one neighbour's.
    self_weight: float = 2.0
    seed: int = 17

    # ------------------------------------------------------------------ programs --
    def build_encode_program(self, n_nodes: int, n_features: int) -> H.Program:
        dim = self.dimension
        prog = H.Program("relhd_encode")

        @prog.define(H.hv(n_features), H.hm(dim, n_features))
        def encode(features, rp_matrix):
            return H.sign(H.matmul(features, rp_matrix))

        @prog.entry(H.hm(n_nodes, n_features), H.hm(dim, n_features))
        def main(node_features, rp_matrix):
            return H.encoding_loop(encode, node_features, rp_matrix)

        return prog

    def search(self) -> Search:
        """RelHD's search and training, stated once: an aggregated node
        hypervector against the ``class_hvs`` under Hamming distance."""
        return Search(("node_encodings", (self.dimension,)), "class_hvs")

    def build_classify_program(self, n_train: int, n_test: int, n_classes: int) -> H.Program:
        dim, epochs, search = self.dimension, self.epochs, self.search()
        prog = H.Program("relhd_classify")
        rule = prog.define(H.hv(dim), H.IndexType(), H.hm(n_classes, dim))(search.rule)
        infer = search.define(prog, H.hv(dim), H.hm(n_classes, dim))

        @prog.entry(
            H.hm(n_train, dim),
            H.IndexVectorType(n_train),
            H.hm(n_test, dim),
            H.hm(n_classes, dim),
        )
        def main(train_encodings, train_labels, test_encodings, classes):
            trained = H.training_loop(rule, train_encodings, train_labels, classes, epochs=epochs)
            predictions = H.inference_loop(infer, test_encodings, trained)
            return predictions, trained

        return prog

    # ----------------------------------------------------------- host aggregation --
    def aggregate_neighbours(self, encoded: np.ndarray, graph: CitationGraph) -> np.ndarray:
        """Graph-neighbour encoding: bundle a node with its neighbourhood."""
        aggregated = self.self_weight * encoded.astype(np.float32)
        for node, neighbours in enumerate(graph.adjacency_lists()):
            if neighbours:
                aggregated[node] += encoded[neighbours].sum(axis=0)
        return sign(aggregated).astype(np.float32)

    # ------------------------------------------------------------------ driver --
    def run(
        self,
        graph: CitationGraph,
        target: str = "cpu",
        config: Optional[ApproximationConfig] = None,
    ) -> AppResult:
        """Train on the labelled nodes and classify the held-out nodes."""
        encode_prog = self.build_encode_program(graph.n_nodes, graph.n_features)
        classify_prog = self.build_classify_program(
            graph.train_nodes.size, graph.test_nodes.size, graph.n_classes
        )
        encode_compiled = hdc_compile(encode_prog, target=target, config=config)
        classify_compiled = hdc_compile(classify_prog, target=target, config=config)

        rp_matrix = bipolar_random(self.dimension, graph.n_features, seed=self.seed)
        initial_classes = np.zeros((graph.n_classes, self.dimension), dtype=np.float32)

        reports = []
        start = time.perf_counter()

        encode_result = encode_compiled.run(node_features=graph.features, rp_matrix=rp_matrix)
        reports.append(encode_result.report)
        encoded = np.asarray(encode_result.output, dtype=np.float32)

        aggregated = self.aggregate_neighbours(encoded, graph)

        classify_result = classify_compiled.run(
            train_encodings=aggregated[graph.train_nodes],
            train_labels=graph.labels[graph.train_nodes],
            test_encodings=aggregated[graph.test_nodes],
            classes=initial_classes,
        )
        reports.append(classify_result.report)
        wall = time.perf_counter() - start

        entry = classify_prog.entry_function
        predictions = np.asarray(classify_result.outputs[entry.results[0].name], dtype=np.int64)
        accuracy = float((predictions == graph.labels[graph.test_nodes]).mean())
        return AppResult(
            app="relhd",
            target=target,
            quality=accuracy,
            quality_metric="accuracy",
            wall_seconds=wall,
            report=merge_reports(target, reports),
            outputs={"predictions": predictions},
            **cold_path(encode_compiled, classify_compiled),
        )

    # ------------------------------------------------------------------ serving --
    def as_servable(self, classes: np.ndarray, name: str = "relhd") -> Servable:
        """Serve trained node classification over aggregated encodings.

        A request is one graph-neighbour-aggregated node hypervector (the
        output of :meth:`aggregate_neighbours`, the sparse host-side step);
        the served search compares it against the trained class memories.
        CPU/GPU only, matching the paper.  **Online-updatable**:
        ``InferenceServer.update`` hot-swaps in continued training on
        newly labelled nodes with zero downtime.
        """
        return search_servable(
            name,
            self.search(),
            classes,
            targets=self.targets,
            trainable=True,
            signature_extra=f"dim={self.dimension}",
        )
