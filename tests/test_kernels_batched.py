"""Tests that the batched "library routine" kernels match the reference kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import batched, reference as ref


def float_matrices(max_rows=6, max_dim=64):
    return st.tuples(
        st.integers(1, max_rows), st.integers(1, max_rows), st.integers(2, max_dim), st.integers(0, 2**32 - 1)
    ).map(_make)


def _make(args):
    rows_a, rows_b, dim, seed = args
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows_a, dim)).astype(np.float32)
    b = rng.normal(size=(rows_b, dim)).astype(np.float32)
    return a, b


class TestGemm:
    def test_matches_reference_matmul(self):
        rng = np.random.default_rng(0)
        lhs = rng.normal(size=(5, 33)).astype(np.float32)
        rhs = rng.normal(size=(9, 33)).astype(np.float32)
        assert np.allclose(batched.gemm(lhs, rhs), ref.matmul(lhs, rhs), atol=1e-3)
        assert np.allclose(batched.gemm(lhs[0], rhs), ref.matmul(lhs[0], rhs), atol=1e-3)

    def test_perforated_gemm_matches_reference(self):
        rng = np.random.default_rng(1)
        lhs = rng.normal(size=(4, 40)).astype(np.float32)
        rhs = rng.normal(size=(6, 40)).astype(np.float32)
        assert np.allclose(
            batched.gemm(lhs, rhs, 4, 36, 2), ref.matmul(lhs, rhs, 4, 36, 2), atol=1e-3
        )

    @given(float_matrices())
    @settings(max_examples=20, deadline=None)
    def test_gemm_property(self, pair):
        a, b = pair
        assert np.allclose(batched.gemm(a, b), ref.matmul(a, b), atol=1e-2)

    @pytest.mark.parametrize(
        "rows, cols",
        [(512, 617), (2048, 617), (1024, 433), (4096, 433), (26, 2048)],
        ids=["isolet-smoke", "isolet", "cora-smoke", "cora", "isolet-classes"],
    )
    def test_projection_major_gemm_is_bit_identical(self, rows, cols):
        """``gemm`` runs a block of fewer rows than the projection as
        ``(r @ x.T).T``; the served bits (and every figure's) rest on that
        being bitwise ``x @ r.T``.  The projection shapes of the apps that
        encode with a GEMM — ISOLET's 617 and Cora's 433 features at the
        smoke and default dimensions — and a 26-row class memory, so the
        batch sizes fall on both sides of the orientation choice."""
        rng = np.random.default_rng(rows + cols)
        r = (rng.integers(0, 2, size=(rows, cols)) * 2 - 1).astype(np.float32)
        x = (rng.standard_normal((150, cols)) * 4).astype(np.float32)
        for m in [*range(1, 65), 150]:
            assert np.array_equal(batched.gemm(x[:m], r), x[:m] @ r.T), m


class TestSimilarity:
    def test_pairwise_cossim_matches_reference(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 50)).astype(np.float32)
        b = rng.normal(size=(7, 50)).astype(np.float32)
        assert np.allclose(batched.pairwise_cossim(a, b), ref.cossim(a, b), atol=1e-5)

    def test_pairwise_cossim_vector_shapes(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=50).astype(np.float32)
        b = rng.normal(size=(7, 50)).astype(np.float32)
        assert batched.pairwise_cossim(a, b).shape == (7,)
        assert batched.pairwise_cossim(a, a) == pytest.approx(1.0)

    @given(float_matrices())
    @settings(max_examples=20, deadline=None)
    def test_cossim_property(self, pair):
        a, b = pair
        assert np.allclose(batched.pairwise_cossim(a, b), ref.cossim(a, b), atol=1e-4)


def gather_cases():
    """(memory, index): a ±1 int8 item memory and a padded index whose
    padding (-1) may sit in any slot, not only to the right."""
    return st.tuples(
        st.integers(1, 12),  # items
        st.sampled_from([1, 7, 64, 100]),  # D, mostly not a multiple of 64
        st.integers(0, 6),  # queries
        st.integers(0, 9),  # slots
        st.integers(0, 2**32 - 1),
    ).map(_make_gather)


def _make_gather(args):
    items, dim, queries, slots, seed = args
    rng = np.random.default_rng(seed)
    memory = (rng.integers(0, 2, (items, dim)) * 2 - 1).astype(np.int8)
    index = rng.integers(-1, items, (queries, slots))
    return memory, index


class TestGatherBundle:
    @given(gather_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_and_dense_sum(self, case):
        memory, index = case
        out = batched.gather_bundle(memory, index)
        assert out.dtype == np.float32 and out.shape == (index.shape[0], memory.shape[1])
        # The dense definition: a 0/1-count select matrix against the memory.
        select = np.zeros((index.shape[0], memory.shape[0]), dtype=np.float32)
        for row, col in zip(*np.nonzero(index >= 0)):
            select[row, index[row, col]] += 1.0
        assert np.array_equal(out, select @ memory.astype(np.float32))
        for row in range(index.shape[0]):
            one = ref.gather_bundle(memory, index[row])
            assert one.dtype == np.float32
            assert np.array_equal(one, out[row])

    @given(gather_cases(), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_padding_slots_contribute_nothing(self, case, extra):
        memory, index = case
        padded = np.concatenate([index, np.full((index.shape[0], extra), -1)], axis=1)
        assert np.array_equal(batched.gather_bundle(memory, padded), batched.gather_bundle(memory, index))
        only_padding = np.full((3, extra), -1)
        assert np.array_equal(
            batched.gather_bundle(memory, only_padding), np.zeros((3, memory.shape[1]), np.float32)
        )
        assert np.array_equal(ref.gather_bundle(memory, only_padding[0]), np.zeros(memory.shape[1], np.float32))

    def test_empty_shapes(self):
        memory = np.ones((4, 5), dtype=np.int8)
        assert np.array_equal(batched.gather_bundle(memory, np.zeros((3, 0), int)), np.zeros((3, 5)))
        assert batched.gather_bundle(memory, np.zeros((0, 2), int)).shape == (0, 5)
        assert np.array_equal(ref.gather_bundle(memory, np.zeros(0, int)), np.zeros(5))

    def test_accumulator_is_the_narrowest_slots_prove_safe(self):
        memory = np.ones((1, 3), dtype=np.int8)
        assert ref.bundle_accumulator(memory, 0) == np.int16
        assert ref.bundle_accumulator(memory, 255) == np.int16  # 255 * 128 <= 32767
        assert ref.bundle_accumulator(memory, 256) == np.int32
        assert ref.bundle_accumulator(memory, 2**15) == np.int32
        assert ref.bundle_accumulator(memory.astype(np.int32), 2) == np.int64

    def test_wide_bundle_does_not_wrap(self):
        """2**15 slots of +1 sum past int16: the wider accumulator must be
        picked from ``slots`` alone."""
        memory = np.ones((1, 3), dtype=np.int8)
        index = np.zeros((2, 2**15), dtype=np.intp)
        index[1, 1:] = -1
        expected = np.array([[2.0**15] * 3, [1.0] * 3], dtype=np.float32)
        assert np.array_equal(batched.gather_bundle(memory, index), expected)
        assert np.array_equal(ref.gather_bundle(memory, index[0]), expected[0])
        # The extreme int8 value the dtype bound is derived from.
        low = np.full((1, 2), -128, dtype=np.int8)
        assert np.array_equal(
            batched.gather_bundle(low, np.zeros((1, 255), dtype=np.intp)), [[-128.0 * 255] * 2]
        )

    def test_rejects_what_it_cannot_sum_exactly(self):
        with pytest.raises(TypeError):
            batched.gather_bundle(np.ones((2, 3), dtype=np.float32), np.zeros((1, 1), int))
        with pytest.raises(TypeError):
            ref.gather_bundle(np.ones((2, 3), dtype=np.float32), np.zeros(1, int))
        with pytest.raises(ValueError):
            batched.gather_bundle(np.ones((2, 3), dtype=np.int8), np.zeros(4, int))
        with pytest.raises(ValueError):
            ref.gather_bundle(np.ones((2, 3), dtype=np.int8), np.zeros((1, 4), int))
