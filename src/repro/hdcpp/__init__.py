"""HDC++ — the HDC-specific embedded DSL (Section 3 of the paper).

The public surface of the language:

* element and shaped types (:mod:`repro.hdcpp.types`),
* concrete hypervector / hypermatrix values for eager use
  (:mod:`repro.hdcpp.arrays`),
* the HDC algorithmic primitives (:mod:`repro.hdcpp.primitives`),
* the high-level algorithmic stage primitives (:mod:`repro.hdcpp.stages`),
* Hetero-C++ style generic parallel constructs (:mod:`repro.hdcpp.hetero`),
* the tracing :class:`Program` used to capture whole applications
  (:mod:`repro.hdcpp.program`).
"""

from repro.hdcpp.arrays import HyperMatrix, HyperVector, as_numpy, wrap_like
from repro.hdcpp.hetero import parallel_map
from repro.hdcpp import primitives
from repro.hdcpp.primitives import *  # noqa: F401,F403 - the names are primitives.__all__
from repro.hdcpp.program import (
    Operation,
    Program,
    TracedFunction,
    TracingError,
    Value,
    current_builder,
)
from repro.hdcpp.stages import encoding_loop, inference_loop, training_loop
from repro.hdcpp.types import (
    ElementType,
    HDType,
    HyperMatrixType,
    HyperVectorType,
    IndexType,
    IndexVectorType,
    ScalarType,
    binary,
    float32,
    float64,
    hm,
    hv,
    int8,
    int16,
    int32,
    int64,
    scalar,
)

__all__ = [
    # types
    "ElementType",
    "HDType",
    "ScalarType",
    "IndexType",
    "HyperVectorType",
    "HyperMatrixType",
    "IndexVectorType",
    "int8",
    "int16",
    "int32",
    "int64",
    "float32",
    "float64",
    "binary",
    "hv",
    "hm",
    "scalar",
    # eager values
    "HyperVector",
    "HyperMatrix",
    "as_numpy",
    "wrap_like",
    # program / tracing
    "Program",
    "TracedFunction",
    "Operation",
    "Value",
    "TracingError",
    "current_builder",
    # primitives: named once, in primitives.__all__
    *primitives.__all__,
    # stages and hetero constructs
    "encoding_loop",
    "training_loop",
    "inference_loop",
    "parallel_map",
]
