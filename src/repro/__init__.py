"""repro — a Python reproduction of HPVM-HDC (ISCA 2025).

HPVM-HDC is a heterogeneous programming system for Hyperdimensional
Computing.  This package reproduces it end to end:

* :mod:`repro.hdcpp` — the HDC++ embedded DSL (types, the 24 HDC
  primitives, stage primitives, Hetero-style parallel constructs, tracing).
* :mod:`repro.ir` — the HPVM-HDC intermediate representation: a
  hierarchical dataflow graph with HDC intrinsics, plus verifier/printer.
* :mod:`repro.transforms` — the approximation transforms: automatic
  binarization and reduction perforation.
* :mod:`repro.backends` — CPU, GPU, digital HDC ASIC and ReRAM back ends.
* :mod:`repro.accelerators` — the device simulators and the edge-GPU model.
* :mod:`repro.apps` / :mod:`repro.baselines` — the five evaluated HDC
  applications in HDC++ and their hand-written per-target baselines.
* :mod:`repro.datasets` — synthetic surrogates of the paper's datasets.
* :mod:`repro.evaluation` — experiment drivers regenerating every table
  and figure of the paper's evaluation.
* :mod:`repro.serving` — the inference-serving runtime: a model registry
  with compiled-program caching, dynamic micro-batching of single-sample
  requests, and a multi-backend worker pool with warm device sessions.

Quickstart::

    import numpy as np
    from repro import hdcpp as H
    from repro.backends import compile

    prog = H.Program("inference")

    @prog.entry(H.hv(617), H.hm(2048, 617), H.hm(26, 2048))
    def infer(features, rp_matrix, classes):
        encoded = H.sign(H.matmul(features, rp_matrix))
        distances = H.hamming_distance(encoded, H.sign(classes))
        return H.arg_min(distances)

    compiled = compile(prog, target="cpu")
    result = compiled.run(features=np.random.rand(617),
                          rp_matrix=np.random.choice([-1.0, 1.0], (2048, 617)),
                          classes=np.random.rand(26, 2048))
    print(result.output)

Serving quickstart (see ``examples/serving_quickstart.py``)::

    from repro.apps import HDClassificationInference
    from repro.serving import InferenceServer

    app = HDClassificationInference(dimension=2048)
    servable = app.as_servable(dataset=dataset)     # trains offline

    server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=64)
    server.register(servable)
    with server:
        label = server.infer(servable.name, dataset.test_features[0])
    print(server.stats())   # p50/p95/p99 latency, batch sizes, cache hits
"""

from repro import hdcpp, serving
from repro.backends import compile
from repro.ir.dataflow import Target
from repro.transforms import ApproximationConfig, PerforationSpec

__version__ = "1.0.0"

__all__ = [
    "hdcpp",
    "serving",
    "compile",
    "Target",
    "ApproximationConfig",
    "PerforationSpec",
    "__version__",
]
