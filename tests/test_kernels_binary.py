"""Unit and property-based tests for the packed-bit (binary) kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import binary as binkern
from repro.kernels import reference as ref


def bipolar_arrays(max_rows=6, max_dim=96):
    """Hypothesis strategy: a pair of bipolar matrices with a shared dim."""
    return st.tuples(
        st.integers(1, max_rows), st.integers(1, max_rows), st.integers(1, max_dim), st.integers(0, 2**32 - 1)
    ).map(_make_pair)


def _bipolar(rng, rows, dim):
    return (rng.integers(0, 2, size=(rows, dim)) * 2 - 1).astype(np.int8)


def _make_pair(args):
    rows_a, rows_b, dim, seed = args
    rng = np.random.default_rng(seed)
    return _bipolar(rng, rows_a, dim), _bipolar(rng, rows_b, dim)


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        x = (rng.integers(0, 2, size=(5, 70)) * 2 - 1).astype(np.int8)
        packed = binkern.pack_bipolar(x)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, 2)  # ceil(70 / 64) words per row
        assert packed.dim == 70
        assert np.array_equal(binkern.unpack_bipolar(packed, 70), x)

    def test_packed_num_words(self):
        assert binkern.packed_num_words(1) == 1
        assert binkern.packed_num_words(64) == 1
        assert binkern.packed_num_words(65) == 2
        assert binkern.packed_num_words(2048) == 32

    def test_word_bytes_are_the_packbits_bytes(self):
        # The one layout: each row's uint64 words, viewed as bytes, are
        # np.packbits' big-endian bytes zero-padded to a whole word.
        rng = np.random.default_rng(7)
        x = _bipolar(rng, 5, 70)
        raw = np.asarray(binkern.pack_bipolar(x)).view(np.uint8)
        bytes_ = np.packbits((x > 0).astype(np.uint8), axis=-1)
        assert raw.shape == (5, 16)
        assert np.array_equal(raw[:, :9], bytes_)
        assert np.all(raw[:, 9:] == 0)

    def test_tail_bits_are_zero(self):
        # Padding bits beyond dim must be zero: Hamming popcounts whole
        # words, so a stray tail bit would corrupt every distance.
        x = np.ones((3, 67), dtype=np.int8)
        packed = binkern.pack_bipolar(x)
        words = np.asarray(packed)
        # Byte view: 67 bits -> 9 payload bytes; the 9th carries 3 set
        # bits in its high (big-endian) positions, bytes 10..16 are pad.
        raw = np.ascontiguousarray(words).view(np.uint8).reshape(3, -1)
        assert np.all(raw[:, 8] == 0b11100000)
        assert np.all(raw[:, 9:] == 0)
        # All-ones row: exactly dim bits set across the row's words.
        counts = np.bitwise_count(words).sum(axis=-1)
        assert np.all(counts == 67)

    def test_pack_is_idempotent_on_packed(self):
        rng = np.random.default_rng(8)
        x = (rng.integers(0, 2, size=(2, 100)) * 2 - 1).astype(np.int8)
        packed = binkern.pack_bipolar(x)
        assert binkern.pack_bipolar(packed) is packed

    def test_unpack_refuses_legacy_uint8_rows(self):
        # One packed layout: the uint64 words.  The bytes np.packbits makes
        # (the old uint8 layout) are refused, not read as packed rows.
        rng = np.random.default_rng(9)
        x = (rng.integers(0, 2, size=(4, 70)) * 2 - 1).astype(np.int8)
        legacy = np.packbits((x > 0).astype(np.uint8), axis=-1)
        with pytest.raises(TypeError, match="uint8"):
            binkern.unpack_bipolar(legacy, 70)
        with pytest.raises(TypeError, match="uint8"):
            binkern.unpack_bipolar(legacy)

    def test_pack_cache_reuses_stable_operands(self):
        rng = np.random.default_rng(10)
        x = (rng.integers(0, 2, size=(4, 128)) * 2 - 1).astype(np.int8)
        p1 = binkern.pack_bipolar_cached(x)
        p2 = binkern.pack_bipolar_cached(x)
        assert p1 is p2
        assert np.array_equal(binkern.unpack_bipolar(p1, 128), x)

    @given(bipolar_arrays())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, pair):
        a, _ = pair
        assert np.array_equal(binkern.unpack_bipolar(binkern.pack_bipolar(a), a.shape[1]), a)


class TestPackedHamming:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        a = (rng.integers(0, 2, size=(4, 130)) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, size=(7, 130)) * 2 - 1).astype(np.int8)
        expected = ref.hamming_distance(a, b)
        out = binkern.hamming_distance_bipolar(a, b)
        assert np.array_equal(out, expected)

    def test_vector_shapes(self):
        rng = np.random.default_rng(2)
        a = (rng.integers(0, 2, size=64) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, size=(3, 64)) * 2 - 1).astype(np.int8)
        assert binkern.hamming_distance_bipolar(a, a) == 0
        assert binkern.hamming_distance_bipolar(a, b).shape == (3,)
        assert binkern.hamming_distance_bipolar(b, a).shape == (3,)

    def test_perforation_matches_reference(self):
        rng = np.random.default_rng(3)
        a = (rng.integers(0, 2, size=(3, 100)) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, size=(4, 100)) * 2 - 1).astype(np.int8)
        expected = ref.hamming_distance(a, b, 10, 80, 3)
        out = binkern.hamming_distance_bipolar(a, b, 10, 80, 3)
        assert np.array_equal(out, expected)

    @given(bipolar_arrays())
    @settings(max_examples=25, deadline=None)
    def test_packed_equals_reference_property(self, pair):
        a, b = pair
        assert np.array_equal(
            binkern.hamming_distance_bipolar(a, b), ref.hamming_distance(a, b)
        )

    @given(bipolar_arrays())
    @settings(max_examples=25, deadline=None)
    def test_symmetry_property(self, pair):
        a, b = pair
        assert np.array_equal(
            binkern.hamming_distance_bipolar(a, b), binkern.hamming_distance_bipolar(b, a).T
        )

    def test_accepts_prepacked_operands(self):
        # Pre-packed lhs/rhs (any combination) produce the same distances
        # as the bipolar inputs — the serving plane binds constants packed.
        rng = np.random.default_rng(11)
        a = (rng.integers(0, 2, size=(4, 130)) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, size=(7, 130)) * 2 - 1).astype(np.int8)
        pa, pb = binkern.pack_bipolar(a), binkern.pack_bipolar(b)
        expected = ref.hamming_distance(a, b)
        for lhs, rhs in [(pa, b), (a, pb), (pa, pb)]:
            assert np.array_equal(binkern.hamming_distance_bipolar(lhs, rhs), expected)

    def test_prepacked_perforation_matches_reference(self):
        rng = np.random.default_rng(12)
        a = (rng.integers(0, 2, size=(3, 100)) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, size=(4, 100)) * 2 - 1).astype(np.int8)
        pa, pb = binkern.pack_bipolar(a), binkern.pack_bipolar(b)
        expected = ref.hamming_distance(a, b, 10, 80, 3)
        assert np.array_equal(binkern.hamming_distance_bipolar(pa, pb, 10, 80, 3), expected)

    def test_counts_equal_a_byte_table_popcount(self):
        # An oracle that shares nothing with the kernel but the words:
        # XOR, view as bytes, count each byte's bits through a table.
        rng = np.random.default_rng(13)
        pa, pb = binkern.pack_bipolar(_bipolar(rng, 4, 200)), binkern.pack_bipolar(_bipolar(rng, 6, 200))
        table = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
        xored = np.asarray(pa)[:, None, :] ^ np.asarray(pb)[None, :, :]
        expected = table[xored.view(np.uint8)].sum(axis=-1)
        assert np.array_equal(binkern.hamming_distance_packed(pa, pb), expected)


@pytest.fixture(params=["float32", "int64"])
def word_sum(request, monkeypatch):
    """Run a test with the float32 GEMV word sum and again with the int64
    axis-sum that rows past float32's integer range take."""
    if request.param == "int64":
        monkeypatch.setattr(binkern, "_F32_EXACT_BITS", 0)
    return request.param


class TestPackedHammingKernel:
    """``hamming_distance_packed``: a replicated query tile XORed against
    flat spans of the row-major candidates, one block at a time."""

    def check(self, a, b, lhs=None, rhs=None):
        lhs = binkern.pack_bipolar(a) if lhs is None else lhs
        rhs = binkern.pack_bipolar(b) if rhs is None else rhs
        out = binkern.hamming_distance_packed(lhs, rhs)
        assert out.dtype == np.float32 and out.shape == (a.shape[0], b.shape[0])
        assert np.array_equal(out, ref.hamming_distance(a, b))

    # At the serving shape (64 queries, D = 2048) a block is 16 candidates.
    @pytest.mark.parametrize("n_candidates", [1, 15, 16, 17, 40])
    def test_candidate_count_around_the_block(self, word_sum, n_candidates):
        assert binkern._BLOCK_BYTES // (64 * 32 * 8) == 16
        rng = np.random.default_rng(n_candidates)
        self.check(_bipolar(rng, 64, 2048), _bipolar(rng, n_candidates, 2048))

    @pytest.mark.parametrize("n_queries", [1, 5])
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 130, 200])
    @pytest.mark.parametrize("n_candidates", [3, 4, 5, 10])
    def test_ragged_dimension_and_tail_block(self, word_sum, monkeypatch, n_queries, dim, n_candidates):
        # A budget of four candidate rows: below / equal / one past / not
        # a multiple of the block, with padding bits in the last word.
        row_bytes = n_queries * binkern.packed_num_words(dim) * 8
        monkeypatch.setattr(binkern, "_BLOCK_BYTES", 4 * row_bytes)
        rng = np.random.default_rng(dim * 100 + n_candidates)
        self.check(_bipolar(rng, n_queries, dim), _bipolar(rng, n_candidates, dim))

    def test_queries_wider_than_the_budget_run_one_candidate_a_block(self, word_sum, monkeypatch):
        monkeypatch.setattr(binkern, "_BLOCK_BYTES", 8)
        rng = np.random.default_rng(20)
        self.check(_bipolar(rng, 3, 130), _bipolar(rng, 4, 130))

    def test_single_rows(self, word_sum):
        rng = np.random.default_rng(21)
        a, b = _bipolar(rng, 1, 130), _bipolar(rng, 6, 130)
        self.check(a, b, lhs=binkern.pack_bipolar(a[0]))  # (W,) lhs
        self.check(b, a, rhs=binkern.pack_bipolar(a[0]))  # (W,) rhs

    def test_strided_candidates(self, word_sum):
        rng = np.random.default_rng(22)
        a, b = _bipolar(rng, 4, 200), _bipolar(rng, 11, 200)
        packed = binkern.pack_bipolar(b)
        self.check(a, b[::2], rhs=packed[::2])  # still a PackedBits
        self.check(a, b[::2], rhs=np.asarray(packed)[::2])  # bare uint64 words
        self.check(a, b[::-1], rhs=packed[::-1])
        self.check(a[::3], b, lhs=binkern.pack_bipolar(a)[::3])

    def test_legacy_uint8_operands_are_refused(self):
        # The old byte layout (17 bytes a row at D = 130) is not a packed
        # operand: either side raises, naming the dtype.
        rng = np.random.default_rng(23)
        a, b = _bipolar(rng, 4, 130), _bipolar(rng, 9, 130)
        legacy = np.packbits((b > 0).astype(np.uint8), axis=-1)
        with pytest.raises(TypeError, match="uint8"):
            binkern.hamming_distance_packed(binkern.pack_bipolar(a), legacy)
        with pytest.raises(TypeError, match="uint8"):
            binkern.hamming_distance_packed(legacy, binkern.pack_bipolar(a))

    def test_empty_operands(self):
        words = np.zeros((3, 2), dtype=np.uint64)
        assert binkern.hamming_distance_packed(words[:0], words).shape == (0, 3)
        assert binkern.hamming_distance_packed(words, words[:0]).shape == (3, 0)
        assert np.array_equal(
            binkern.hamming_distance_packed(words[:, :0], words[:2, :0]), np.zeros((3, 2))
        )

    def test_word_count_mismatch_is_refused(self):
        # Flat spans would pair misaligned words and return garbage.
        rng = np.random.default_rng(24)
        lhs = binkern.pack_bipolar(_bipolar(rng, 2, 128))
        rhs = binkern.pack_bipolar(_bipolar(rng, 4, 192))
        with pytest.raises(ValueError, match=r"lhs has 2 words per row, rhs has 3"):
            binkern.hamming_distance_packed(lhs, rhs)
        with pytest.raises(ValueError, match=r"lhs has 3 words per row, rhs has 2"):
            binkern.hamming_distance_packed(rhs, lhs)

    def test_operands_beyond_two_dimensions_are_refused(self):
        words = np.zeros((2, 3, 4), dtype=np.uint64)
        with pytest.raises(ValueError, match=r"shape \(2, 3, 4\)"):
            binkern.hamming_distance_packed(words, words[0])
        with pytest.raises(ValueError, match=r"shape \(2, 3, 4\)"):
            binkern.hamming_distance_packed(words[0], words)

    def test_non_word_dtype_is_refused(self):
        with pytest.raises(TypeError, match="float32"):
            binkern.hamming_distance_packed(np.zeros((2, 4), np.float32), np.zeros((2, 4), np.uint64))

    def test_temporaries_do_not_grow_with_the_library(self):
        # O(block), never O(B * K * W): the peak beyond the (B, K) result is
        # the same for a library four times the size.
        rng = np.random.default_rng(25)
        lhs = rng.integers(0, 2**63, size=(64, 32), dtype=np.uint64)

        def peak_temporary_bytes(n_candidates):
            rhs = rng.integers(0, 2**63, size=(n_candidates, 32), dtype=np.uint64)
            binkern.hamming_distance_packed(lhs, rhs)
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = binkern.hamming_distance_packed(lhs, rhs)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if not was_tracing:
                    tracemalloc.stop()
            return peak - out.nbytes

        small, large = peak_temporary_bytes(2048), peak_temporary_bytes(8192)
        assert abs(large - small) <= 4096  # bookkeeping objects, not arrays
        assert large <= 4 * binkern._BLOCK_BYTES  # vs 16 MiB for the full XOR tensor


class TestBipolarDotAndCosine:
    def test_dot_identity(self):
        rng = np.random.default_rng(4)
        a = (rng.integers(0, 2, size=(3, 90)) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, size=(5, 90)) * 2 - 1).astype(np.int8)
        expected = a.astype(np.float64) @ b.astype(np.float64).T
        assert np.allclose(binkern.dot_bipolar(a, b), expected)

    def test_cossim_of_identical_vectors_is_one(self):
        rng = np.random.default_rng(5)
        a = (rng.integers(0, 2, size=(1, 256)) * 2 - 1).astype(np.int8)
        assert binkern.cossim_bipolar(a, a)[0, 0] == pytest.approx(1.0)

    def test_cossim_matches_reference_cossim(self):
        rng = np.random.default_rng(6)
        a = (rng.integers(0, 2, size=(3, 128)) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, size=(4, 128)) * 2 - 1).astype(np.int8)
        assert np.allclose(binkern.cossim_bipolar(a, b), ref.cossim(a, b), atol=1e-5)

    @given(bipolar_arrays())
    @settings(max_examples=25, deadline=None)
    def test_dot_hamming_identity_property(self, pair):
        a, b = pair
        dim = a.shape[1]
        dots = binkern.dot_bipolar(a, b)
        hams = binkern.hamming_distance_bipolar(a, b)
        assert np.allclose(dots, dim - 2 * hams)


class TestPackedBundle:
    # Window counts around the 255-window uint8 blocks: none, one, a full
    # block, one past it, two blocks and a ragged third.
    @pytest.mark.parametrize("windows", [0, 1, 254, 255, 256, 510, 600])
    @pytest.mark.parametrize("dim", [1, 40, 64, 100])
    def test_equals_the_unpacked_bundle(self, windows, dim):
        rng = np.random.default_rng(windows * 1000 + dim)
        stack = _bipolar(rng, 3 * windows, dim).reshape(3, windows, dim)
        stack[0] = 1  # every window alike: the sum reaches its bound
        words = np.asarray(binkern.pack_bipolar(stack))
        bundled = binkern.bundle_windows_packed(words, dim)
        expected = stack.sum(axis=1, dtype=np.int64).astype(np.float32)
        assert bundled.dtype == np.float32 and bundled.tobytes() == expected.tobytes()

    def test_padding_bits_are_ignored(self):
        """An inverted word stack sets its padding bits; only ``dim`` count."""
        stack = _bipolar(np.random.default_rng(3), 5, 70)
        words = np.invert(np.asarray(binkern.pack_bipolar(stack)))
        assert np.array_equal(binkern.bundle_windows_packed(words, 70), -stack.sum(axis=0))

    def test_non_word_dtype_is_refused(self):
        with pytest.raises(TypeError, match="uint64"):
            binkern.bundle_windows_packed(np.zeros((2, 8), dtype=np.uint8), 64)
