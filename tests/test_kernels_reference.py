"""Unit tests for the reference kernels, including perforation semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import binary as binkern
from repro.kernels import reference as ref


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestReductionSlice:
    def test_full_range(self):
        assert ref.reduction_slice(10) == slice(0, 10, 1)

    def test_segment_and_stride(self):
        assert ref.reduction_slice(10, 2, 8, 3) == slice(2, 8, 3)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            ref.reduction_slice(10, 5, 20)
        with pytest.raises(ValueError):
            ref.reduction_slice(10, 8, 4)
        with pytest.raises(ValueError):
            ref.reduction_slice(10, 0, 10, 0)

    def test_scale(self):
        assert ref.perforation_scale(10) == 1.0
        assert ref.perforation_scale(10, 0, 10, 2) == 2.0
        assert ref.perforation_scale(16, 0, 8, 1) == 2.0
        with pytest.raises(ValueError):
            ref.perforation_scale(10, 5, 5, 1)


class TestInitKernels:
    def test_empty(self):
        out = ref.empty((4, 8), np.dtype(np.float32))
        assert out.shape == (4, 8)
        assert np.all(out == 0)

    def test_create_vector_and_matrix(self):
        vec = ref.create((5,), np.dtype(np.float32), lambda i: i * 2.0)
        assert np.allclose(vec, [0, 2, 4, 6, 8])
        mat = ref.create((2, 3), np.dtype(np.int32), lambda i, j: i * 10 + j)
        assert mat[1, 2] == 12

    def test_random_float_range(self, rng):
        out = ref.random_values((1000,), np.dtype(np.float32), rng)
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_random_integer_is_bipolar(self, rng):
        out = ref.random_values((1000,), np.dtype(np.int8), rng)
        assert set(np.unique(out)) <= {-1, 1}

    def test_gaussian_statistics(self, rng):
        out = ref.gaussian_values((20000,), np.dtype(np.float32), rng)
        assert abs(out.mean()) < 0.05
        assert abs(out.std() - 1.0) < 0.05


class TestElementwiseKernels:
    def test_wrap_shift_roundtrip(self, rng):
        x = rng.normal(size=32)
        assert np.allclose(ref.wrap_shift(ref.wrap_shift(x, 5), -5), x)

    def test_wrap_shift_matrix_rolls_rows(self):
        mat = np.arange(6).reshape(2, 3)
        out = ref.wrap_shift(mat, 1)
        assert np.array_equal(out[0], [2, 0, 1])

    def test_sign_maps_zero_to_plus_one(self):
        assert np.array_equal(ref.sign(np.array([0.0, -0.5, 2.0])), [1, -1, 1])
        assert ref.sign(np.array([1.0])).dtype == np.int8

    def test_sign_flip(self):
        assert np.array_equal(ref.sign_flip(np.array([1.0, -2.0])), [-1.0, 2.0])

    def test_elementwise_ops(self):
        a, b = np.array([2.0, 4.0]), np.array([1.0, 2.0])
        assert np.allclose(ref.elementwise("add", a, b), [3, 6])
        assert np.allclose(ref.elementwise("sub", a, b), [1, 2])
        assert np.allclose(ref.elementwise("mul", a, b), [2, 8])
        assert np.allclose(ref.elementwise("div", a, b), [2, 2])
        with pytest.raises(KeyError):
            ref.elementwise("pow", a, b)

    def test_division_promotes_integers(self):
        out = ref.elementwise("div", np.array([1, 2], dtype=np.int32), np.array([2, 4], dtype=np.int32))
        assert np.allclose(out, [0.5, 0.5])

    def test_absolute_value_and_cosine(self):
        assert np.allclose(ref.absolute_value(np.array([-3.0, 2.0])), [3, 2])
        assert np.allclose(ref.cosine(np.array([0.0, np.pi])), [1.0, -1.0], atol=1e-6)


def _sign_oracle(x):
    """``sign`` as first written: the scalar-branch ``np.where`` that defines it."""
    return np.where(np.asarray(x) >= 0, np.int8(1), np.int8(-1))


class TestSign:
    """``sign`` is a compare plus in-place integer arithmetic on its own
    result; it must stay indistinguishable from the ``np.where`` oracle."""

    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.float32, np.float64, np.int8, np.int32, np.bool_]),
            # 0-d and empty arrays included; float elements draw NaN, +-inf, -0.0.
            shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_where_oracle(self, x):
        views = [x, x.T]
        if x.ndim:
            views += [x[..., ::2], x[::-1]]  # non-contiguous
        for view in views:
            view = view.view()
            view.setflags(write=False)
            before = view.tobytes()
            out = ref.sign(view)
            assert isinstance(out, np.ndarray) and out.dtype == np.int8
            assert out.shape == view.shape
            assert np.array_equal(out, _sign_oracle(view))
            assert out.flags.writeable and not np.shares_memory(out, view)
            assert view.tobytes() == before  # input not mutated

    def test_special_values(self):
        x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1e-45, 1e-45], dtype=np.float32)
        assert np.array_equal(ref.sign(x), [1, 1, -1, 1, -1, -1, 1])
        assert np.array_equal(ref.sign(x.astype(np.float64)), [1, 1, -1, 1, -1, -1, 1])

    def test_scalars_give_zero_d_int8(self):
        for value, expected in ((3.5, 1), (0, 1), (-2, -1), (np.float32(-0.0), 1)):
            out = ref.sign(value)
            assert isinstance(out, np.ndarray) and out.shape == () and out.dtype == np.int8
            assert out == expected

    def test_packed_bits_pass_through_untouched(self):
        packed = binkern.pack_bipolar(np.array([[1, -1, 1, -1] * 20], dtype=np.int8))
        assert ref.sign(packed) is packed


class TestAccessKernels:
    def test_get_element(self):
        vec = np.array([1.0, 2.0, 3.0])
        mat = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert ref.get_element(vec, 1) == 2.0
        assert ref.get_element(mat, 1, 2) == 5.0
        with pytest.raises(ValueError):
            ref.get_element(vec, 0, 1)
        with pytest.raises(ValueError):
            ref.get_element(mat, 0)

    def test_arg_min_max(self):
        vec = np.array([3.0, 1.0, 2.0])
        assert ref.arg_min(vec) == 1
        assert ref.arg_max(vec) == 0
        mat = np.array([[3.0, 1.0], [0.0, 5.0]])
        assert np.array_equal(ref.arg_min(mat), [1, 0])
        assert np.array_equal(ref.arg_max(mat), [0, 1])

    def test_set_get_matrix_row_is_functional(self):
        mat = np.zeros((3, 4), dtype=np.float32)
        row = np.ones(4, dtype=np.float32)
        out = ref.set_matrix_row(mat, row, 1)
        assert np.all(mat == 0), "input must not be mutated"
        assert np.array_equal(ref.get_matrix_row(out, 1), row)

    def test_transpose(self):
        mat = np.arange(6).reshape(2, 3)
        assert ref.matrix_transpose(mat).shape == (3, 2)
        assert np.array_equal(ref.matrix_transpose(mat)[2], [2, 5])


def count_nonzero_form(lhs, rhs, begin=0, end=None, stride=1):
    """Hamming distances as one ``count_nonzero`` of ``!=`` a row: the
    oracle the reference kernel's routes are held to."""
    if lhs.ndim == 1 and rhs.ndim == 1:
        return count_nonzero_form(lhs[None, :], rhs[None, :], begin, end, stride)[0, 0]
    if lhs.ndim == 1:
        return count_nonzero_form(lhs[None, :], rhs, begin, end, stride)[0]
    if rhs.ndim == 1:
        return count_nonzero_form(lhs, rhs[None, :], begin, end, stride)[:, 0]
    sl = ref.reduction_slice(lhs.shape[-1], begin, end, stride)
    a, b = lhs[:, sl], rhs[:, sl]
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float32)
    for i in range(a.shape[0]):
        out[i, :] = np.count_nonzero(a[i][None, :] != b, axis=1)
    return out


class TestReduceKernels:
    def test_l2norm_vector_and_matrix(self):
        assert ref.l2norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
        out = ref.l2norm(np.array([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(out, [5.0, 2.0])

    def test_l2norm_perforation_rescales(self):
        x = np.ones(100, dtype=np.float32)
        exact = ref.l2norm(x)
        strided = ref.l2norm(x, 0, None, 2)
        assert strided == pytest.approx(exact, rel=1e-5)

    def test_cossim_identical_vectors(self, rng):
        x = rng.normal(size=64)
        assert ref.cossim(x, x) == pytest.approx(1.0, abs=1e-6)
        assert ref.cossim(x, -x) == pytest.approx(-1.0, abs=1e-6)

    def test_cossim_shapes(self, rng):
        q = rng.normal(size=(3, 16))
        c = rng.normal(size=(5, 16))
        assert ref.cossim(q[0], c).shape == (5,)
        assert ref.cossim(q, c).shape == (3, 5)
        assert ref.cossim(q, c[0]).shape == (3,)

    def test_cossim_bounds(self, rng):
        q = rng.normal(size=(4, 32))
        c = rng.normal(size=(6, 32))
        sims = ref.cossim(q, c)
        assert np.all(sims <= 1.0 + 1e-6) and np.all(sims >= -1.0 - 1e-6)

    def test_hamming_known_value(self):
        a = np.array([1, 1, -1, -1])
        b = np.array([1, -1, -1, 1])
        assert ref.hamming_distance(a, b) == 2

    def test_hamming_shapes(self, rng):
        a = ref.sign(rng.normal(size=(3, 32)))
        b = ref.sign(rng.normal(size=(5, 32)))
        assert ref.hamming_distance(a[0], b).shape == (5,)
        assert ref.hamming_distance(a, b).shape == (3, 5)

    def test_hamming_perforation_not_rescaled(self):
        a = np.array([1, -1] * 8)
        b = -a
        # All elements differ: full distance 16, strided distance 8 (no rescale).
        assert ref.hamming_distance(a, b) == 16
        assert ref.hamming_distance(a, b, 0, None, 2) == 8

    @pytest.mark.parametrize("window", [(0, None, 1), (0, None, 2), (3, 45, 2), (5, 64, 3), (10, 20, 1)])
    @pytest.mark.parametrize("kind", ["bipolar", "integer", "float"])
    def test_hamming_matches_the_count_nonzero_form(self, rng, kind, window):
        """One compare a row counted by ``sum``, and a ±1 block's GEMM, give
        ``count_nonzero``'s counts, as the same float32 values, types and
        shapes, for every operand rank pair."""
        draw = {
            "bipolar": lambda shape: ref.sign(rng.normal(size=shape)).astype(np.float32),
            "integer": lambda shape: rng.integers(-2, 3, size=shape),
            "float": lambda shape: rng.choice([-0.5, 0.0, 0.25, 1.0], size=shape).astype(np.float32),
        }[kind]
        lhs, rhs = draw((4, 64)), draw((26, 64))
        for a, b in ((lhs[0], rhs), (lhs, rhs), (lhs, rhs[0]), (lhs[0], rhs[0]), (lhs[0], rhs[:0])):
            got, expected = ref.hamming_distance(a, b, *window), count_nonzero_form(a, b, *window)
            assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
            assert np.asarray(got).dtype == np.float32
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_hamming_bipolar_uses_exact_counts(self, rng):
        a = ref.sign(rng.normal(size=(5, 65)))
        b = ref.sign(rng.normal(size=(3, 65)))
        assert ref.hamming_distance(a, b).tobytes() == count_nonzero_form(a, b).tobytes()

    def test_hamming_general_values(self):
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[1.0, 0.0, 3.0], [9.0, 9.0, 9.0]])
        assert np.array_equal(ref.hamming_distance(a, b), [[1.0, 3.0]])

    def test_hamming_perforation(self, rng):
        a = ref.sign(rng.normal(size=(4, 80)))
        b = ref.sign(rng.normal(size=(4, 80)))
        assert np.array_equal(ref.hamming_distance(a, b, 0, 40, 2), count_nonzero_form(a, b, 0, 40, 2))

    def test_hamming_past_the_float32_bound_takes_the_count(self):
        """From ``EXACT_F32_TERMS`` visited elements on, a float32 GEMM can
        lose ones (single-threaded OpenBLAS on x86-64 answers 2 here); the
        count stays exact."""
        visited = ref.EXACT_F32_TERMS + 3
        a = np.ones((1, visited), np.int8)
        b = a.copy()
        b[0, -1] = -1
        assert ref.hamming_distance(a, b).tobytes() == np.float32([[1.0]]).tobytes()

    def test_matmul_matches_numpy(self, rng):
        features = rng.normal(size=17).astype(np.float32)
        rp = rng.normal(size=(29, 17)).astype(np.float32)
        assert np.allclose(ref.matmul(features, rp), rp @ features, atol=1e-4)
        batch = rng.normal(size=(5, 17)).astype(np.float32)
        assert np.allclose(ref.matmul(batch, rp), batch @ rp.T, atol=1e-4)

    def test_matmul_perforation_rescales(self):
        features = np.ones(64, dtype=np.float32)
        rp = np.ones((8, 64), dtype=np.float32)
        exact = ref.matmul(features, rp)
        strided = ref.matmul(features, rp, 0, None, 2)
        assert np.allclose(strided, exact)

    def test_matmul_segment_rescales(self):
        features = np.ones(64, dtype=np.float32)
        rp = np.ones((8, 64), dtype=np.float32)
        segmented = ref.matmul(features, rp, 0, 16, 1)
        assert np.allclose(segmented, ref.matmul(features, rp))
