"""Quickstart: write one HDC++ program, compile it for every target.

This example traces a minimal HD-Classification application — random
projection encoding, iterative training and Hamming-distance inference,
expressed with the ``encoding_loop`` / ``training_loop`` / ``inference_loop``
stage primitives — and compiles the very same program with HPVM-HDC for the
CPU, the GPU, the digital HDC ASIC and the ReRAM accelerator.  Training is
stated encode-then-train: each training row is encoded once, and every
epoch trains on the encodings.  Each target trains its own class
hypervectors (the accelerators fuse the encoding stage into on-chip
retraining with their on-device encoders), and the script prints accuracy
plus the per-target execution reports.  It also dumps the HPVM-HDC IR of the program so you can
see the dataflow graph the back ends consume.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import hdcpp as H
from repro.backends import compile as hdc_compile
from repro.ir import lower_program, print_graph

FEATURES, DIMENSION, CLASSES = 64, 2048, 8
N_TRAIN, N_TEST, EPOCHS = 160, 60, 2


def build_program() -> H.Program:
    """The HDC++ application: dataset-level encoding, training and inference loops."""
    prog = H.Program("quickstart_classification")

    @prog.define(H.hv(FEATURES), H.hm(DIMENSION, FEATURES))
    def encode_one(features, rp_matrix):
        return H.sign(H.matmul(features, rp_matrix))

    @prog.define(H.hv(FEATURES), H.hm(CLASSES, DIMENSION), H.hm(DIMENSION, FEATURES))
    def infer_one(features, class_hvs, rp_matrix):
        encoded = H.sign(H.matmul(features, rp_matrix))
        distances = H.hamming_distance(encoded, H.sign(class_hvs))
        return H.arg_min(distances)

    def train_one(encoded, label, class_hvs):
        updated = np.array(class_hvs, copy=True)
        updated[label] += np.asarray(encoded)
        return updated

    @prog.entry(
        H.hm(N_TRAIN, FEATURES),
        H.IndexVectorType(N_TRAIN),
        H.hm(N_TEST, FEATURES),
        H.hm(CLASSES, DIMENSION),
        H.hm(DIMENSION, FEATURES),
    )
    def main(train_queries, train_labels, test_queries, class_hvs, rp_matrix):
        encoded = H.encoding_loop(encode_one, train_queries, rp_matrix)
        trained = H.training_loop(train_one, encoded, train_labels, class_hvs, epochs=EPOCHS)
        predictions = H.inference_loop(infer_one, test_queries, trained, encoder=rp_matrix)
        return predictions, trained

    return prog


def make_data(seed: int = 0):
    """A toy classification task: noisy copies of per-class prototypes."""
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(CLASSES, FEATURES))

    def sample(count):
        labels = rng.integers(0, CLASSES, size=count)
        data = prototypes[labels] + 0.4 * rng.normal(size=(count, FEATURES))
        return data.astype(np.float32), labels

    train_queries, train_labels = sample(N_TRAIN)
    test_queries, test_labels = sample(N_TEST)
    rp_matrix = (rng.integers(0, 2, size=(DIMENSION, FEATURES)) * 2 - 1).astype(np.float32)
    return train_queries, train_labels, test_queries, test_labels, rp_matrix


def main() -> None:
    program = build_program()
    train_queries, train_labels, test_queries, test_labels, rp_matrix = make_data()

    print("=== HPVM-HDC IR (dataflow graph) ===")
    print(print_graph(lower_program(program)))

    print("=== Execution on every hardware target ===")
    for target in ("cpu", "gpu", "hdc_asic", "hdc_reram"):
        compiled = hdc_compile(program, target=target)
        result = compiled.run(
            train_queries=train_queries,
            train_labels=train_labels,
            test_queries=test_queries,
            class_hvs=np.zeros((CLASSES, DIMENSION), dtype=np.float32),
            rp_matrix=rp_matrix,
        )
        predictions = np.asarray(result.outputs[program.entry_function.results[0].name])
        accuracy = float((predictions == test_labels).mean())
        report = result.report
        print(
            f"{target:10s}  accuracy={accuracy:.2f}  wall={report.wall_seconds * 1e3:7.2f} ms  "
            f"device-only={report.device_seconds * 1e3:7.3f} ms  "
            f"kernel launches={report.kernel_launches}"
        )


if __name__ == "__main__":
    main()
