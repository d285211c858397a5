"""Eager (concrete) hypervector and hypermatrix values.

HDC++ programs can be *traced* into HPVM-HDC IR and compiled by a back end,
or the very same primitives can be executed *eagerly* on concrete data for
prototyping and testing (much like a small torchhd-style library).  This
module provides the concrete value classes used in eager mode and at the
boundary between host NumPy data and compiled programs.

A :class:`HyperVector` / :class:`HyperMatrix` is a thin wrapper around a
NumPy array plus the HDC++ element type, so that type-dependent behaviour
(e.g. 1-bit bipolar storage after ``sign``) is tracked explicitly.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.hdcpp.types import ElementType, HyperMatrixType, HyperVectorType, float32
from repro.kernels import reference as ref

__all__ = ["HyperVector", "HyperMatrix", "as_numpy", "wrap_like"]

ArrayLike = Union[np.ndarray, "HyperVector", "HyperMatrix", list, tuple, float, int]


def as_numpy(value: ArrayLike) -> np.ndarray:
    """Extract the underlying NumPy array from eager values / array-likes."""
    if isinstance(value, (HyperVector, HyperMatrix)):
        return value.data
    return np.asarray(value)


def wrap_like(data: np.ndarray, element: ElementType):
    """Wrap a NumPy array as a :class:`HyperVector` or :class:`HyperMatrix`."""
    arr = np.asarray(data)
    if arr.ndim == 1:
        return HyperVector(arr, element)
    if arr.ndim == 2:
        return HyperMatrix(arr, element)
    raise ValueError(f"cannot wrap array of rank {arr.ndim} as an HDC value")


class _HDArray:
    """Shared behaviour of eager hypervectors and hypermatrices."""

    def __init__(self, data: np.ndarray, element: ElementType = float32):
        arr = np.asarray(data)
        if element.is_binary:
            arr = ref.sign(arr)
        else:
            arr = arr.astype(element.numpy_dtype, copy=False)
        self.data = arr
        self.element = element

    # -- NumPy interoperability ------------------------------------------------
    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.data if dtype is None else self.data.astype(dtype)
        if copy:
            out = np.array(out, copy=True)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def copy(self):
        return type(self)(np.array(self.data, copy=True), self.element)

    # -- equality helpers (used heavily by tests) -------------------------------
    def allclose(self, other: ArrayLike, rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        return bool(np.allclose(self.data, as_numpy(other), rtol=rtol, atol=atol))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, element={self.element.name})"


class HyperVector(_HDArray):
    """A concrete 1-D hypervector."""

    def __init__(self, data: np.ndarray, element: ElementType = float32):
        super().__init__(data, element)
        if self.data.ndim != 1:
            raise ValueError(f"HyperVector requires rank-1 data, got {self.data.ndim}")

    @property
    def type(self) -> HyperVectorType:
        return HyperVectorType(self.data.shape[0], self.element)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, idx: int):
        return self.data[idx]

    def __len__(self) -> int:
        return self.dim


class HyperMatrix(_HDArray):
    """A concrete 2-D hypermatrix (a stack of hypervectors)."""

    def __init__(self, data: np.ndarray, element: ElementType = float32):
        super().__init__(data, element)
        if self.data.ndim != 2:
            raise ValueError(f"HyperMatrix requires rank-2 data, got {self.data.ndim}")

    @property
    def type(self) -> HyperMatrixType:
        return HyperMatrixType(self.data.shape[0], self.data.shape[1], self.element)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_rows(cls, rows_data, element: ElementType = float32) -> "HyperMatrix":
        """Stack a sequence of hypervectors / arrays into a hypermatrix."""
        return cls(np.stack([as_numpy(r) for r in rows_data]), element)

    def row(self, idx: int) -> HyperVector:
        """Extract one row as a hypervector (``get_matrix_row``)."""
        return HyperVector(ref.get_matrix_row(self.data, idx), self.element)

    def __getitem__(self, idx):
        out = self.data[idx]
        if np.isscalar(out) or out.ndim == 0:
            return out
        if out.ndim == 1:
            return HyperVector(out, self.element)
        return HyperMatrix(out, self.element)

    def __len__(self) -> int:
        return self.rows
