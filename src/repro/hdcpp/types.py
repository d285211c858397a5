"""Type system for the HDC++ embedded DSL.

The paper's HDC++ language (Section 3) parameterizes every primitive by an
element type and by the dimensionality of the involved hypervectors and
hypermatrices.  This module defines:

* :class:`ElementType` — the scalar element types supported by HDC++
  (``int8`` through ``int64``, ``float``, ``double``) plus the 1-bit
  *bipolar* type produced by the automatic-binarization transform
  (Section 4.2 of the paper).
* :class:`HyperVectorType`, :class:`HyperMatrixType`, :class:`ScalarType`,
  :class:`IndexVectorType` — the shaped types that flow along dataflow
  edges in HPVM-HDC IR.

These types are deliberately simple, hashable value objects: the frontend,
the IR, the transforms, and every back end all share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ElementType",
    "int8",
    "int16",
    "int32",
    "int64",
    "float32",
    "float64",
    "binary",
    "HDType",
    "ScalarType",
    "IndexType",
    "HyperVectorType",
    "HyperMatrixType",
    "IndexVectorType",
    "hv",
    "hm",
    "scalar",
]


@dataclass(frozen=True)
class ElementType:
    """A scalar element type usable inside hypervectors and hypermatrices.

    Attributes:
        name: Canonical HDC++ name (``"float"``, ``"int8_t"``, ``"bit"`` ...).
        bits: Storage width in bits of a single element.  The bipolar
            ``binary`` type reports 1 bit even though the unpacked NumPy
            representation uses ``int8`` — back ends that support bit
            packing exploit this (see ``repro.kernels.binary``).
        is_float: Whether the element is a floating point type.
        is_binary: Whether the element is the 1-bit bipolar type produced by
            automatic binarization; values are restricted to ``{+1, -1}``.
    """

    name: str
    bits: int
    is_float: bool = False
    is_binary: bool = False

    @cached_property
    def numpy_dtype(self) -> np.dtype:
        """The NumPy dtype used to *store* elements of this type.

        The bipolar 1-bit type is stored unpacked as ``int8`` holding +1/-1;
        packed representations are an internal detail of binary kernels.
        Computed once per element type: the executor reads it on every
        proven stage run.
        """
        if self.is_binary:
            return np.dtype(np.int8)
        if self.is_float:
            return np.dtype(np.float32) if self.bits == 32 else np.dtype(np.float64)
        return np.dtype(f"int{self.bits}")

    @property
    def bytes_per_element(self) -> float:
        """Logical storage cost per element in bytes (1/8 for binary)."""
        return self.bits / 8.0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ElementType({self.name})"


int8 = ElementType("int8_t", 8)
int16 = ElementType("int16_t", 16)
int32 = ElementType("int32_t", 32)
int64 = ElementType("int64_t", 64)
float32 = ElementType("float", 32, is_float=True)
float64 = ElementType("double", 64, is_float=True)
#: 1-bit bipolar type introduced by automatic binarization (Section 4.2).
binary = ElementType("bit", 1, is_float=False, is_binary=True)

class HDType:
    """Base class for all shaped HDC++ / HPVM-HDC IR types."""

    element: ElementType

    @property
    def shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def num_bytes(self) -> float:
        """Logical size in bytes (used for data-movement accounting)."""
        return self.num_elements * self.element.bytes_per_element

    def with_element(self, element: ElementType) -> "HDType":
        """Return a copy of this type with a different element type."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarType(HDType):
    """A single scalar value of a given element type."""

    element: ElementType

    @property
    def shape(self) -> tuple[int, ...]:
        return ()

    def with_element(self, element: ElementType) -> "ScalarType":
        return ScalarType(element)

    def __repr__(self) -> str:
        return f"scalar<{self.element.name}>"


@dataclass(frozen=True)
class IndexType(HDType):
    """An integer index (result of ``arg_min`` / ``arg_max`` on a vector)."""

    element: ElementType = int64

    @property
    def shape(self) -> tuple[int, ...]:
        return ()

    def with_element(self, element: ElementType) -> "IndexType":
        return IndexType(element)

    def __repr__(self) -> str:
        return "index"


@dataclass(frozen=True)
class HyperVectorType(HDType):
    """``hypervector<DIM, ELEM>`` — a 1-D high dimensional vector."""

    dim: int
    element: ElementType = float32

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dim,)

    def with_element(self, element: ElementType) -> "HyperVectorType":
        return HyperVectorType(self.dim, element)

    def __repr__(self) -> str:
        return f"hypervector<{self.dim}, {self.element.name}>"


@dataclass(frozen=True)
class HyperMatrixType(HDType):
    """``hypermatrix<ROWS, COLS, ELEM>`` — a 2-D stack of hypervectors."""

    rows: int
    cols: int
    element: ElementType = float32

    def __post_init__(self) -> None:
        # Zero rows is legal: a parallel loop over an empty batch runs no
        # instance and yields the empty hypermatrix.
        if self.rows < 0:
            raise ValueError(f"hypermatrix<{self.rows}, {self.cols}> has a negative row count")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.rows, self.cols)

    def with_element(self, element: ElementType) -> "HyperMatrixType":
        return HyperMatrixType(self.rows, self.cols, element)

    @property
    def row_type(self) -> HyperVectorType:
        """The hypervector type of a single row of this hypermatrix."""
        return HyperVectorType(self.cols, self.element)

    def __repr__(self) -> str:
        return f"hypermatrix<{self.rows}, {self.cols}, {self.element.name}>"


@dataclass(frozen=True)
class IndexVectorType(HDType):
    """A vector of integer indices (result of per-row ``arg_min``/``arg_max``)."""

    dim: int
    element: ElementType = int64

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dim,)

    def with_element(self, element: ElementType) -> "IndexVectorType":
        return IndexVectorType(self.dim, element)

    def __repr__(self) -> str:
        return f"indexvector<{self.dim}>"


def hv(dim: int, element: ElementType = float32) -> HyperVectorType:
    """Shorthand constructor mirroring HDC++'s ``hypervector<DIM>``."""
    return HyperVectorType(int(dim), element)


def hm(rows: int, cols: int, element: ElementType = float32) -> HyperMatrixType:
    """Shorthand constructor mirroring HDC++'s ``hypermatrix<ROWS, COLS>``."""
    return HyperMatrixType(int(rows), int(cols), element)


def scalar(element: ElementType = float32) -> ScalarType:
    """Shorthand constructor for a scalar type."""
    return ScalarType(element)
