"""HD-Classification written in HDC++ (Table 2 of the paper).

The application implements the canonical HDC classification pipeline:

* **Random-projection encoding** — input feature vectors are projected to a
  D-dimensional hypervector by a bipolar random matrix and binarized with
  ``sign``.
* **Training** — class hypervectors are accumulated per label; iterative
  retraining adds a misclassified sample's encoding to its true class and
  subtracts it from the predicted class.
* **Inference** — the encoded query is compared against every class
  hypervector (Hamming distance or cosine similarity) and the closest class
  wins.

The search and the training rule are stated once, by
:func:`classification_search`; the one-shot programs, the served program
and both training routes (in row order, per mini-batch) are derived from
that statement.  The whole pipeline is expressed with the HDC++ stage
primitives so that the very same program compiles to the CPU, the GPU, the
digital HDC ASIC and the ReRAM accelerator.  :class:`HDClassificationInference`
is the inference-only variant used by the approximation study of Figure 7 /
Table 3, with class hypervectors trained offline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import hdcpp as H
from repro.apps.common import AppResult, Search, bipolar_random, cold_path, search_servable
from repro.backends import compile as hdc_compile
from repro.datasets.isolet import IsoletLike
from repro.serving.servable import ALL_TARGETS, Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = [
    "HDClassification", "HDClassificationInference", "classification_search", "classification_servable"
]


def classification_search(similarity: str, binarize_encoding: bool = True) -> Search:
    """HD-Classification's search and training, stated once: random-project
    a feature vector through ``rp``, score it against ``class_hvs``.

    ``binarize_encoding``: :class:`HDClassification` signs the encoding
    before any similarity; :class:`HDClassificationInference` keeps the raw
    projection for cosine and signs only for Hamming, where it is the same
    function of the query, so raw Hamming is stated signed.
    """
    bipolar = binarize_encoding or similarity == "hamming"

    def encode(features, rp):
        projected = H.matmul(features, rp)
        return H.sign(projected) if bipolar else projected

    return Search(("queries",), "class_hvs", encode, "rp", similarity, bipolar)


def classification_servable(
    name: str,
    dimension: int,
    similarity: str,
    rp_matrix: np.ndarray,
    classes: np.ndarray,
    binarize_encoding: bool = True,
) -> Servable:
    """Package trained classification state as a serving adapter.

    A request is one raw feature vector, searched as the one-shot
    ``run(...)`` of the app with the same ``binarize_encoding`` searches
    it (:func:`classification_search`); the online-update rule is the
    corrective step :class:`HDClassification` trains with.  Training from
    scratch stays offline.
    """
    return search_servable(
        name, classification_search(similarity, binarize_encoding), classes, rp_matrix,
        targets=HDClassification.targets, trainable=True,
        signature_extra=f"dim={dimension},sim={similarity},bin={binarize_encoding}",
    )


@dataclass
class HDClassification:
    """End-to-end HDC classification (encoding + training + inference)."""

    targets = ALL_TARGETS  #: where Table 2 maps it, and where it may be served
    dimension: int = 2048
    epochs: int = 5
    similarity: str = "hamming"
    seed: int = 1

    # ------------------------------------------------------------------ program --
    def build_program(self, n_features: int, n_classes: int, n_train: int, n_test: int) -> H.Program:
        """Trace the HDC++ program for the given dataset shape: encode the
        training rows once, train on the encodings with the search's traced
        corrective rule (once per epoch over the block on the CPU, per
        mini-batch on a batched back end), then classify with its traced
        search.

        The training encode is the search's *eager* ``encode``, not a
        traced copy: every CPU / GPU route runs the certified ``sign ∘
        matmul`` (per row, or one GEMM behind the boundary-row gate), and no
        approximation pass reaches it.  The accelerators fuse the encoding
        stage back into on-chip retraining
        (:mod:`repro.backends.accelerator`)."""
        dim, epochs, search = self.dimension, self.epochs, classification_search(self.similarity)
        prog = H.Program("hd_classification")
        rule = prog.define(H.hv(dim), H.IndexType(), H.hm(n_classes, dim))(search.rule)
        infer = search.define(prog, H.hv(n_features), H.hm(n_classes, dim), H.hm(dim, n_features))

        @prog.entry(
            H.hm(n_train, n_features),
            H.IndexVectorType(n_train),
            H.hm(n_test, n_features),
            H.hm(dim, n_features),
            H.hm(n_classes, dim),
        )
        def main(train_queries, train_labels, test_queries, rp_matrix, classes):
            encoded = H.encoding_loop(search.encode, train_queries, rp_matrix)
            trained = H.training_loop(rule, encoded, train_labels, classes, epochs=epochs)
            predictions = H.inference_loop(infer, test_queries, trained, encoder=rp_matrix)
            return predictions, trained

        return prog

    # ------------------------------------------------------------------ driver --
    def run(
        self,
        dataset: IsoletLike,
        target: str = "cpu",
        config: Optional[ApproximationConfig] = None,
    ) -> AppResult:
        """Train and evaluate the classifier on one hardware target."""
        n_train = dataset.train_features.shape[0]
        n_test = dataset.test_features.shape[0]
        program = self.build_program(dataset.n_features, dataset.n_classes, n_train, n_test)
        compiled = hdc_compile(program, target=target, config=config)

        rp_matrix = bipolar_random(self.dimension, dataset.n_features, seed=self.seed)
        initial_classes = np.zeros((dataset.n_classes, self.dimension), dtype=np.float32)

        start = time.perf_counter()
        result = compiled.run(
            train_queries=dataset.train_features,
            train_labels=dataset.train_labels,
            test_queries=dataset.test_features,
            rp_matrix=rp_matrix,
            classes=initial_classes,
        )
        wall = time.perf_counter() - start

        entry = program.entry_function
        predictions = np.asarray(result.outputs[entry.results[0].name])
        trained = np.asarray(result.outputs[entry.results[1].name])
        accuracy = float((predictions == dataset.test_labels).mean())
        return AppResult(
            app="hd-classification",
            target=target,
            quality=accuracy,
            quality_metric="accuracy",
            wall_seconds=wall,
            report=result.report,
            outputs={"predictions": predictions, "class_hypervectors": trained},
            **cold_path(compiled),
        )

    # ------------------------------------------------------------------ serving --
    def as_servable(
        self, rp_matrix: np.ndarray, classes: np.ndarray, name: str = "hd-classification"
    ) -> Servable:
        """Serve trained state (e.g. ``run(...)``'s class hypervectors)."""
        return classification_servable(
            name, self.dimension, self.similarity, rp_matrix, classes, binarize_encoding=True
        )


@dataclass
class HDClassificationInference:
    """Inference-only HD-Classification used by the Figure 7 / Table 3 study.

    The class hypervectors are derived offline with cosine similarity in a
    single pass over the training set (exactly the setup of Section 5.3);
    the traced program then performs only encoding + similarity search, so
    the approximation transforms directly target the operations the study
    perforates and binarizes.
    """

    dimension: int = 10240
    similarity: str = "cosine"
    seed: int = 1

    # --------------------------------------------------------------- offline part --
    def train_offline(self, dataset: IsoletLike) -> tuple[np.ndarray, np.ndarray]:
        """Single-pass training producing float32 class hypervectors.

        Deliberately not the corrective rule (:meth:`Search.rule`): this is
        the offline setup of Section 5.3, which Figure 7 / Table 3
        reproduce.  It encodes with ``np.sign`` (an exact-zero projection
        coordinate stays 0), bundles every encoding into its class, then
        predicts the training set *once*, by cosine against the normalized
        bundles, and corrects only the mistakes.
        """
        rp_matrix = bipolar_random(self.dimension, dataset.n_features, seed=self.seed)
        encoded = np.sign(dataset.train_features @ rp_matrix.T).astype(np.float32)
        classes = np.zeros((dataset.n_classes, self.dimension), dtype=np.float32)
        for row, label in zip(encoded, dataset.train_labels):
            classes[label] += row
        # One corrective pass using cosine similarity (single-pass training).
        norms = np.linalg.norm(classes, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        scores = encoded @ (classes / norms).T
        predicted = scores.argmax(axis=1)
        for row, label, guess in zip(encoded, dataset.train_labels, predicted):
            if guess != label:
                classes[label] += row
                classes[guess] -= row
        return rp_matrix, classes

    # ------------------------------------------------------------------ program --
    def build_program(self, n_features: int, n_classes: int, n_test: int) -> H.Program:
        dim, search = self.dimension, classification_search(self.similarity, binarize_encoding=False)
        prog = H.Program("hd_classification_inference")
        infer = search.define(prog, H.hv(n_features), H.hm(n_classes, dim), H.hm(dim, n_features))

        @prog.entry(H.hm(n_test, n_features), H.hm(n_classes, dim), H.hm(dim, n_features))
        def main(test_queries, classes, rp_matrix):
            return H.inference_loop(infer, test_queries, classes, encoder=rp_matrix)

        return prog

    # ------------------------------------------------------------------ driver --
    def run(
        self,
        dataset: IsoletLike,
        target: str = "gpu",
        config: Optional[ApproximationConfig] = None,
        trained: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> AppResult:
        """Run approximated inference on one hardware target."""
        rp_matrix, classes = trained if trained is not None else self.train_offline(dataset)
        n_test = dataset.test_features.shape[0]
        program = self.build_program(dataset.n_features, dataset.n_classes, n_test)
        compiled = hdc_compile(program, target=target, config=config)

        start = time.perf_counter()
        result = compiled.run(
            test_queries=dataset.test_features, classes=classes, rp_matrix=rp_matrix
        )
        wall = time.perf_counter() - start

        predictions = np.asarray(result.output)
        accuracy = float((predictions == dataset.test_labels).mean())
        return AppResult(
            app="hd-classification-inference",
            target=target,
            quality=accuracy,
            quality_metric="accuracy",
            wall_seconds=wall,
            report=result.report,
            outputs={"predictions": predictions},
            **cold_path(compiled),
        )

    # ------------------------------------------------------------------ serving --
    def as_servable(
        self,
        trained: Optional[tuple[np.ndarray, np.ndarray]] = None,
        dataset: Optional[IsoletLike] = None,
        name: str = "hd-classification-inference",
    ) -> Servable:
        """Serve the offline-trained classifier (training if needed)."""
        if trained is None:
            if dataset is None:
                raise ValueError("as_servable needs either trained state or a dataset")
            trained = self.train_offline(dataset)
        rp_matrix, classes = trained
        return classification_servable(
            name, self.dimension, self.similarity, rp_matrix, classes, binarize_encoding=False
        )
