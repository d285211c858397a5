"""Unit tests for the HDC++ type system."""

import numpy as np
import pytest

from repro.hdcpp import types as T


class TestElementTypes:
    def test_bit_widths(self):
        assert T.int8.bits == 8
        assert T.int64.bits == 64
        assert T.float32.bits == 32
        assert T.binary.bits == 1

    def test_numpy_dtypes(self):
        assert T.int16.numpy_dtype == np.dtype(np.int16)
        assert T.float64.numpy_dtype == np.dtype(np.float64)
        # Binary is stored unpacked as int8.
        assert T.binary.numpy_dtype == np.dtype(np.int8)

    def test_bytes_per_element(self):
        assert T.float32.bytes_per_element == 4.0
        assert T.binary.bytes_per_element == pytest.approx(1 / 8)

    def test_flags(self):
        assert T.float32.is_float and not T.float32.is_binary
        assert T.binary.is_binary and not T.binary.is_float
        assert not T.int32.is_float


class TestShapedTypes:
    def test_hypervector_type(self):
        hv = T.hv(2048)
        assert hv.dim == 2048
        assert hv.shape == (2048,)
        assert hv.num_elements == 2048
        assert hv.element is T.float32

    def test_hypermatrix_type(self):
        hm = T.hm(26, 2048, T.int8)
        assert hm.shape == (26, 2048)
        assert hm.num_elements == 26 * 2048
        assert hm.row_type == T.hv(2048, T.int8)

    def test_num_bytes_accounts_for_element_width(self):
        assert T.hv(1024, T.float32).num_bytes == 4096
        assert T.hv(1024, T.binary).num_bytes == 128
        assert T.hm(4, 8, T.int16).num_bytes == 64

    def test_with_element(self):
        hv = T.hv(64).with_element(T.binary)
        assert hv.element is T.binary
        assert hv.dim == 64
        hm = T.hm(2, 3).with_element(T.int8)
        assert hm.element is T.int8
        assert hm.shape == (2, 3)

    def test_scalar_and_index_types(self):
        assert T.scalar().shape == ()
        assert T.ScalarType(T.int32).num_elements == 1
        assert T.IndexType().shape == ()
        iv = T.IndexVectorType(10)
        assert iv.shape == (10,)
        assert iv.with_element(T.int32).element is T.int32

    def test_types_are_hashable_value_objects(self):
        assert T.hv(16) == T.hv(16)
        assert T.hv(16) != T.hv(17)
        assert len({T.hv(16), T.hv(16), T.hm(2, 16)}) == 2

    def test_repr_contains_dimensions(self):
        assert "2048" in repr(T.hv(2048))
        assert "26" in repr(T.hm(26, 2048))
