"""The batch-native execution plane: bit-identity and the fallback gate.

Covers the tentpole contract end to end:

* for **all five application adapters**, the batched route (declared
  ``batch_impl`` or auto-vectorized traced implementation) produces
  outputs **bit-identical** to the per-row reference path, across dtypes
  and edge shapes (empty batch, single row, reads shorter than one
  k-mer);
* a deliberately **non-bit-identical** ``batch_impl`` is rejected by the
  boundary-row gate, the per-row result is returned instead, and the
  fallback is recorded in ``ExecutionReport.notes``;
* the per-deployment vectorized-vs-fallback counters flow through the
  serving metrics into ``ServerStats.to_dict()``.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import hdcpp as H
from repro.apps.classification import HDClassificationInference, classification_search
from repro.apps.clustering import HDClustering
from repro.apps.common import bipolar_random
from repro.apps.hashtable import KMER_GROUP, HDHashtable
from repro.apps.hyperoms import HyperOMS, _item_memory
from repro.apps.relhd import RelHD
from repro.backends import compile as hdc_compile
from repro.backends.cpu import CPUBackend
from repro.backends.executor import HostStageExecutor
from repro.datasets import make_isolet_like
from repro.datasets.genomics import GenomicsConfig, base_indices, make_genomics_dataset
from repro.evaluation import EvaluationScale
from repro.kernels import batched, binary, reference as refkern
from repro.serving import InferenceServer, ModelRegistry


def run_both(program, **inputs):
    """Execute one program on the per-row and the batched CPU back end.

    Returns ``(reference_result, batched_result)``; the batched back end
    uses the same reference kernels semantics gated on bit identity, so
    outputs must agree exactly whenever the gate passed (and also when it
    fell back — the per-row loop *is* the reference).
    """
    reference = CPUBackend(batched=False).compile(program).run(**inputs)
    batched = CPUBackend(batched=True).compile(program).run(**inputs)
    return reference, batched


def assert_vectorized(result, minimum: int = 1):
    notes = result.report.notes
    assert notes.get("stage_fallbacks", 0) == 0, notes.get("stage_fallback_reasons")
    assert notes.get("stage_vectorized", 0) >= minimum


# ---------------------------------------------------------------------------
# All five apps: batched route bit-identical to the per-row reference
# ---------------------------------------------------------------------------


class TestFiveAppsBitIdentical:
    @pytest.fixture(scope="class")
    def isolet(self):
        return make_isolet_like(EvaluationScale.smoke().isolet())

    def test_classification_inference(self, isolet):
        app = HDClassificationInference(dimension=256, similarity="hamming")
        rp, classes = app.train_offline(isolet)
        program = app.build_program(isolet.n_features, isolet.n_classes, 16)
        queries = isolet.test_features[:16]
        reference, batched = run_both(
            program, test_queries=queries, classes=classes, rp_matrix=rp
        )
        assert np.array_equal(np.asarray(reference.output), np.asarray(batched.output))
        assert_vectorized(batched)

    def test_clustering_encode_and_assign(self, isolet):
        app = HDClustering(dimension=128, n_clusters=4)
        rng = np.random.default_rng(3)
        samples = isolet.train_features[:12]
        encode_prog = app.build_encode_program(samples.shape[0], samples.shape[1])
        rp = bipolar_random(app.dimension, samples.shape[1], seed=app.seed)
        ref_enc, bat_enc = run_both(encode_prog, samples=samples, rp_matrix=rp)
        assert np.array_equal(np.asarray(ref_enc.output), np.asarray(bat_enc.output))
        assert_vectorized(bat_enc)

        clusters = np.sign(rng.standard_normal((4, app.dimension))).astype(np.float32)
        assign_prog = app.build_assign_program(samples.shape[0])
        ref_assign, bat_assign = run_both(
            assign_prog, encoded_samples=np.asarray(ref_enc.output), clusters=clusters
        )
        assert np.array_equal(np.asarray(ref_assign.output), np.asarray(bat_assign.output))
        assert_vectorized(bat_assign)

    def test_relhd_servable_search(self):
        rng = np.random.default_rng(7)
        app = RelHD(dimension=128)
        classes = np.sign(rng.standard_normal((5, 128))).astype(np.float32)
        servable = app.as_servable(classes)
        program = servable.build_program(8)
        encodings = np.sign(rng.standard_normal((8, 128))).astype(np.float32)
        reference, batched = run_both(program, node_encodings=encodings, class_hvs=classes)
        assert np.array_equal(np.asarray(reference.output), np.asarray(batched.output))
        assert_vectorized(batched)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hyperoms_program(self, dtype):
        rng = np.random.default_rng(11)
        app = HyperOMS(dimension=128, n_levels=8)
        queries = (rng.random((6, 24)) * (rng.random((6, 24)) > 0.4)).astype(dtype)
        library = (rng.random((9, 24)) * (rng.random((9, 24)) > 0.4)).astype(dtype)
        program = app.build_program(queries.shape[0], library.shape[0], queries.shape[1])
        reference, batched = run_both(
            program, query_spectra=queries, library_spectra=library
        )
        assert np.array_equal(np.asarray(reference.output), np.asarray(batched.output))
        assert_vectorized(batched, minimum=2)  # both parallel_maps + the search

    def test_hashtable_program(self):
        config = GenomicsConfig(
            genome_length=2000, bucket_size=400, read_length=40, n_reads=6, n_decoys=0,
            kmer_length=6,
        )
        dataset = make_genomics_dataset(config)
        app = HDHashtable(dimension=128)
        base_hvs = app.make_base_hypervectors()
        table = app.encode_reference_buckets(dataset, base_hvs)
        reads = np.stack([base_indices(read) for read in dataset.reads])
        search = app.search(reads.shape[1], config.kmer_length, base_hvs)
        program = app.build_program(reads.shape[0], dataset.n_buckets, search)
        reference, batched = run_both(program, reads=reads, bucket_table=table)
        assert np.array_equal(np.asarray(reference.output), np.asarray(batched.output))
        assert_vectorized(batched, minimum=2)  # k-mer encoding + the search


# ---------------------------------------------------------------------------
# Encoder equivalence across shapes and dtypes (property-style)
# ---------------------------------------------------------------------------


def float_kmer_encoding(base_hvs: np.ndarray, kmer: int, read: np.ndarray) -> np.ndarray:
    """The k-mer encoding in plain float64 (bind = product of rotated base
    hypervectors, bundle = sum): the arithmetic the int8 reference and the
    packed batch route must equal."""
    positions = read.shape[0] - kmer + 1
    kmers = np.ones((max(positions, 0), base_hvs.shape[1]))
    for offset in range(kmer if positions > 0 else 0):
        kmers *= np.roll(base_hvs, offset, axis=-1)[read[offset : offset + positions]]
    return kmers.sum(axis=0).astype(np.float32)


class TestEncoderEquivalence:
    @given(
        n_reads=st.integers(min_value=1, max_value=12),
        read_length=st.integers(min_value=1, max_value=40),
        # k < g, k = 1, and k not a multiple of g = 3: an odd or even
        # number of sub-tables, so with and without the XNOR complement.
        kmer=st.integers(min_value=1, max_value=13),
        seed=st.integers(min_value=0, max_value=2**16),
        dimension=st.sampled_from([1, 40, 64, 100, 512]),  # mostly not a multiple of 64
    )
    # The retarget sweep's shape: 289 k-mers a read at D = 512 overflow the
    # 2 MB budget at 14 reads, so 16 are encoded in chunks of 13 and 3.
    @example(n_reads=16, read_length=300, kmer=12, seed=0, dimension=512)
    # One bucket-length sequence: 989 k-mers, counted in uint16.
    @example(n_reads=1, read_length=1000, kmer=12, seed=1, dimension=512)
    @settings(max_examples=40, deadline=None)
    def test_hashtable_batched_encoder_matches_reference(
        self, n_reads, read_length, kmer, seed, dimension
    ):
        """Bit identity holds for every shape — including *ragged* k-mer
        counts: reads shorter than one k-mer encode to the zero vector on
        both routes — and both equal the float64 encoding.  Every chunk of
        the batched route is one packed bundle."""
        app = HDHashtable(dimension=dimension, seed=9)
        base_hvs = app.make_base_hypervectors()
        encode_read, encode_reads = app.search(read_length, kmer, base_hvs).encode
        reads = np.random.default_rng(seed).integers(0, 4, (n_reads, read_length)).astype(np.int64)
        reads[0] = 0  # a homopolymer: every k-mer alike, so the bundle reaches its bound
        reference = np.stack([encode_read(read) for read in reads])
        assert np.array_equal(reference, [float_kmer_encoding(base_hvs, kmer, r) for r in reads])
        bundle_packed = binary.bundle_windows_packed
        with mock.patch.object(binary, "bundle_windows_packed", wraps=bundle_packed) as bundle:
            encoded = encode_reads(reads)
        assert encoded.tobytes() == reference.tobytes()  # no -0.0 from the complement
        positions = read_length - kmer + 1
        if positions > 0:
            chunk = max(1, app.batched_encoder_bytes // (positions * dimension))
            assert bundle.call_count == -(-n_reads // chunk)
            (words, _), _ = bundle.call_args
            assert words.dtype == np.uint64 and words.shape[-2:] == (positions, -(-dimension // 64))
        else:
            assert bundle.call_count == 0

    @pytest.mark.parametrize("kmer", [1, 2, 3, 4, 7, 12])
    @pytest.mark.parametrize("dimension", [1, 40, 64, 100])
    def test_kmer_sub_tables_hold_the_products_of_their_rotated_bases(self, kmer, dimension):
        """Every row of a packed sub-table is the product of its group's
        rotated base hypervectors for the row's base digits, the group's
        first offset the most significant; the last group holds the
        ``kmer % g`` leftover offsets."""
        app = HDHashtable(dimension=dimension, seed=9)
        rotated = app._rotated_bases(app.make_base_hypervectors(), kmer)
        tables = app._kmer_tables(rotated)
        assert len(tables) == -(-kmer // KMER_GROUP)
        for begin, table in zip(range(0, kmer, KMER_GROUP), tables):
            offsets = range(begin, min(begin + KMER_GROUP, kmer))
            assert table.dtype == np.uint64 and table.shape == (4 ** len(offsets), -(-dimension // 64))
            for row, digits in enumerate(itertools.product(range(4), repeat=len(offsets))):
                product = np.prod([rotated[o][d] for o, d in zip(offsets, digits)], axis=0)
                assert np.array_equal(binary.unpack_bipolar(table[row], dimension), product)

    @given(
        n_spectra=st.integers(min_value=0, max_value=12),
        n_bins=st.integers(min_value=1, max_value=48),
        n_levels=st.integers(min_value=2, max_value=16),
        dimension=st.sampled_from([1, 40, 64, 100]),  # mostly not a multiple of 64
        density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),  # all-zero batch ... every bin active
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_hyperoms_batched_encoder_matches_reference(
        self, n_spectra, n_bins, n_levels, dimension, density, seed
    ):
        """The gather-and-bundle route equals the per-spectrum reference on
        every shape and at every density, with intensities sitting exactly
        on the quantizer's edges: 1.0, and the ``.5`` rounding ties between
        two levels."""
        app = HyperOMS(dimension=dimension, n_levels=n_levels)
        encode_spectrum, encode_spectra = app._encoders(n_bins)
        rng = np.random.default_rng(seed)
        ties = (np.arange(n_levels - 1) + 0.5) / (n_levels - 1)
        edges = np.concatenate([[1.0], ties]).astype(np.float32)
        spectra = rng.random((n_spectra, n_bins), dtype=np.float32)
        on_edge = rng.random(spectra.shape) < 0.3
        spectra[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
        spectra *= rng.random(spectra.shape) < density
        if n_spectra > 1:
            spectra[rng.integers(n_spectra)] = 0.0  # an empty spectrum among full ones
        with mock.patch.object(batched, "gather_bundle", wraps=batched.gather_bundle) as kernel:
            encoded = encode_spectra(spectra)
        assert encoded.dtype == np.float32 and encoded.shape == (n_spectra, dimension)
        reference = [encode_spectrum(row) for row in spectra]
        assert np.array_equal(encoded, np.stack(reference) if reference else encoded[:0])
        # One kernel call per batch, through the module attribute (so the
        # e2e kernel shim sees it); its one-row twin agrees row by row.
        (memory, index), _ = kernel.call_args
        assert kernel.call_count == 1 and memory.dtype == np.int8 and not memory.flags.writeable
        assert index.shape == (n_spectra, int((spectra > 0).sum(axis=1).max(initial=0)))
        for row, want in zip(index, reference):
            assert np.array_equal(refkern.gather_bundle(memory, row), want)
        if n_spectra:
            assert np.array_equal(encode_spectra(spectra[0]), reference[0])  # 1-D in, 1-D out

    def test_hyperoms_library_encoding_matches_reference_on_spectra(self, tiny_spectra):
        app = HyperOMS(dimension=256, n_levels=16)
        library = tiny_spectra.library_matrix
        encode_spectrum, _ = app._encoders(library.shape[1])
        encoded = app.encode_library(library)
        assert encoded.dtype == np.float32
        assert np.array_equal(encoded, np.stack([encode_spectrum(row) for row in library]))

    def test_item_memory_is_built_once_per_configuration(self):
        """Program, library encoding, servable and rebuild all close over
        one read-only item memory; the cache holding it is bounded."""
        app = HyperOMS(dimension=64, n_levels=4)
        first = _item_memory(app.seed, 16, 64, 4)
        assert all(first[i] is _item_memory(app.seed, 16, 64, 4)[i] for i in range(3))
        assert not any(array.flags.writeable for array in first)
        assert first[2].shape == (16 * 4, 64) and first[2].dtype == np.int8
        assert np.array_equal(first[2][5 * 4 + 3], first[0][5] * first[1][3])
        misses = _item_memory.cache_info().misses
        library = app.encode_library(np.random.default_rng(0).random((5, 16), dtype=np.float32))
        app.build_program(2, 5, 16)
        app.as_servable(library, 16).rebuild({"library": library})
        assert _item_memory.cache_info().misses == misses
        assert _item_memory.cache_info().maxsize <= 8

    def test_sub_kmer_reads_encode_to_zero_on_both_routes(self):
        app = HDHashtable(dimension=32, seed=9)
        base_hvs = app.make_base_hypervectors()
        encode_read, encode_reads = app.search(5, 8, base_hvs).encode
        short_reads = np.zeros((3, 5), dtype=np.int64)  # 5 < k = 8: zero k-mers
        assert np.array_equal(encode_reads(short_reads), np.zeros((3, 32), dtype=np.float32))
        assert np.array_equal(encode_read(short_reads[0]), np.zeros(32, dtype=np.float32))

    def test_non_bipolar_base_hypervectors_are_refused(self):
        """The int8 k-mer accumulator and the packed sub-tables are exact
        for ±1 operands only."""
        app = HDHashtable(dimension=16)
        halves = np.full((4, 16), 0.5, dtype=np.float32)
        with pytest.raises(ValueError, match="bipolar"):
            app.search(20, 4, halves)
        with pytest.raises(ValueError, match="bipolar"):
            app.as_servable(np.ones((3, 16), dtype=np.float32), 20, 4, base_hvs=halves)


# ---------------------------------------------------------------------------
# Edge shapes through the execution plane
# ---------------------------------------------------------------------------


class TestEdgeShapes:
    def _parallel_map_program(self, n_rows: int, batch_impl=None):
        prog = H.Program(f"edge_{n_rows}")

        def double_row(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return arr * 2.0

        @prog.entry(H.hm(n_rows, 8))
        def main(data):
            return H.parallel_map(double_row, data, output_dim=8, batch_impl=batch_impl)

        return prog

    @pytest.mark.parametrize("batched", [False, True])
    def test_empty_batch(self, batched):
        program = self._parallel_map_program(0, batch_impl=lambda m: np.asarray(m) * 2.0)
        result = CPUBackend(batched=batched).compile(program).run(
            data=np.zeros((0, 8), dtype=np.float32)
        )
        out = np.asarray(result.output)
        assert out.shape == (0, 8)

    @pytest.mark.parametrize("batched", [False, True])
    def test_single_row(self, batched):
        program = self._parallel_map_program(1, batch_impl=lambda m: np.asarray(m) * 2.0)
        data = np.arange(8, dtype=np.float32).reshape(1, 8)
        result = CPUBackend(batched=batched).compile(program).run(data=data)
        assert np.array_equal(np.asarray(result.output), data * 2.0)

    def test_eager_empty_batch(self):
        out = H.parallel_map(
            lambda row: np.asarray(row) * 2.0,
            H.HyperMatrix(np.zeros((0, 4), dtype=np.float32)),
        )
        assert np.asarray(out).shape == (0, 4)

    def test_eager_batch_impl_preferred_and_bit_identical(self):
        data = H.HyperMatrix(np.arange(12, dtype=np.float32).reshape(3, 4))

        def row_only(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return arr + 1.0

        out = H.parallel_map(row_only, data, batch_impl=lambda m: np.asarray(m) + 1.0)
        assert np.array_equal(np.asarray(out), np.asarray(data) + 1.0)


# ---------------------------------------------------------------------------
# The gate rejects non-bit-identical batched routes
# ---------------------------------------------------------------------------


class TestBitIdentityGate:
    def _program_with_lying_batch_impl(self):
        prog = H.Program("lying_batch_impl")

        def per_row(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return arr * 2.0

        def lying_batch(matrix):
            # Correct on row 0, off by one everywhere after — the classic
            # "looks vectorized, is not row-equivalent" bug the gate
            # exists to catch.
            out = np.asarray(matrix) * 2.0
            out[1:] += 1.0
            return out

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(per_row, data, output_dim=8, batch_impl=lying_batch)

        return prog

    def test_rejected_and_recorded_as_fallback(self):
        program = self._program_with_lying_batch_impl()
        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        result = CPUBackend(batched=True).compile(program).run(data=data)
        # The per-row reference wins: the lying batched output is discarded.
        assert np.array_equal(np.asarray(result.output), data * 2.0)
        notes = result.report.notes
        assert notes["stage_fallbacks"] == 1
        assert notes["stage_vectorized"] == 0
        assert "bit-identical" in notes["batched_fallback"]
        reasons = notes["stage_fallback_reasons"]
        assert any("bit-identical" in reason for reason in reasons.values())

    @pytest.mark.parametrize("honest", [True, False], ids=["accepted", "refused"])
    def test_only_a_refused_gates_rows_count_as_launches(self, honest):
        """An accepted gate's reference rows are verification, not program
        work: no launch counts.  A refused gate's rows are the per-row
        loop's first and last rows, so each of the 4 rows launches once."""
        prog = H.Program("gate_launches")

        @prog.define(H.hv(8))
        def double(row):
            return H.add(row, row)

        def batch(matrix):
            out = np.asarray(matrix) * 2.0
            if not honest:
                out[1:] += 1.0
            return out

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(double, data, output_dim=8, batch_impl=batch)

        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        result = CPUBackend().compile(prog).run(data=data)
        assert np.array_equal(np.asarray(result.output), data * 2.0)
        assert result.report.kernel_launches == (0 if honest else 4)
        assert result.report.notes["stage_fallbacks"] == (0 if honest else 1)
        assert result.report.notes["stage_profile"][0]["gate_seconds"] > 0

    def test_rejection_is_pinned_across_executions(self):
        """A rejected batched route is not retried on later executions of
        the same compiled program — a permanently falling-back model must
        cost what the per-row path costs, not per-row plus a discarded
        whole-batch attempt per batch — while still being counted as a
        fallback in every report."""
        calls = []

        def per_row(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return arr * 2.0

        def lying_batch(matrix):
            calls.append(1)
            out = np.asarray(matrix) * 2.0
            out[1:] += 1.0
            return out

        prog = H.Program("pinned_rejection")

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(per_row, data, output_dim=8, batch_impl=lying_batch)

        compiled = CPUBackend(batched=True).compile(prog)
        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        first = compiled.run(data=data)
        second = compiled.run(data=data)
        assert len(calls) == 1  # the doomed whole-batch attempt ran once
        for result in (first, second):
            assert np.array_equal(np.asarray(result.output), data * 2.0)
            assert result.report.notes["stage_fallbacks"] == 1  # still visible

    def test_wrong_dtype_batch_impl_falls_back(self):
        """Bit identity includes the byte representation: a value-equal
        batched result in a different dtype must be rejected, or the
        program's output dtype would depend on which back end ran it."""
        prog = H.Program("wrong_dtype")

        def per_row(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return (arr * 2.0).astype(np.float32)

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(
                per_row,
                data,
                output_dim=8,
                batch_impl=lambda m: np.asarray(m, dtype=np.float64) * 2.0,
            )

        data = np.ones((4, 8), dtype=np.float32)
        result = CPUBackend(batched=True).compile(prog).run(data=data)
        out = np.asarray(result.output)
        assert out.dtype == np.float32  # the per-row reference won
        assert np.array_equal(out, data * 2.0)
        assert result.report.notes["stage_fallbacks"] == 1
        assert any(
            "dtype" in reason
            for reason in result.report.notes["stage_fallback_reasons"].values()
        )

    def test_wrong_shape_batch_impl_falls_back(self):
        prog = H.Program("wrong_shape")

        def per_row(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return arr * 3.0

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(
                per_row, data, output_dim=8, batch_impl=lambda m: np.asarray(m)[:2] * 3.0
            )

        data = np.ones((4, 8), dtype=np.float32)
        result = CPUBackend(batched=True).compile(prog).run(data=data)
        assert np.array_equal(np.asarray(result.output), data * 3.0)
        assert result.report.notes["stage_fallbacks"] == 1

    def test_fallback_counters_reach_server_stats(self):
        """A deployment whose batch_impl lies must show up in the
        per-deployment fallback counters of ServerStats.to_dict()."""
        rng = np.random.default_rng(5)

        def per_row(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return float(arr.sum() * 0 + int(arr[0] > 0))

        def build_program(batch_size: int) -> H.Program:
            prog = H.Program(f"lying_serve_b{batch_size}")

            def lying_batch(matrix):
                out = (np.asarray(matrix)[:, 0] > 0).astype(np.float32)
                out[1:] = 1.0 - out[1:]  # wrong everywhere after row 0
                return out

            @prog.entry(H.hm(batch_size, 4))
            def main(queries):
                return H.parallel_map(per_row, queries, output_dim=1, batch_impl=lying_batch)

            return prog

        # parallel_map returns one row per input; per_row yields a scalar,
        # so declare output_dim=1 and post-slice.  Shape mismatch between
        # the scalar reference and the 1-d lying batch output triggers the
        # gate's shape check — still a recorded fallback.
        from repro.serving.servable import Servable

        servable = Servable(
            name="lying-model",
            build_program=build_program,
            constants={},
            query_param="queries",
            sample_shape=(4,),
            supported_targets=("cpu",),
        )
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)
        samples = rng.standard_normal((8, 4)).astype(np.float32)
        with server:
            server.infer_many("lying-model", list(samples))
            server.drain()
            stats = server.stats().to_dict()
        model = stats["model_stats"]["lying-model"]
        assert model["fallback_stages"] >= 1
        assert stats["fallback_stages"] >= 1
        assert model["stage_fallback_reasons"]

    @staticmethod
    def _plant_near_zero_projection(batch: np.ndarray, rp: np.ndarray, row: int) -> None:
        """Rewrite ``batch[row, 0]`` until one projection coordinate of that
        row sits within float32 rounding of zero, on the side where the
        served float32 GEMM and the float64-accumulating reference disagree
        on its sign (left at the last candidate if no such value exists)."""
        query = batch[row].astype(np.float64)
        for j in range(16):
            rest = float(rp[j, 1:].astype(np.float64) @ query[1:])
            centre = np.float32(-rest / rp[j, 0])
            for step in range(-32, 33):
                batch[row, 0] = centre + np.float32(step) * np.spacing(centre)
                exact = float(rp[j].astype(np.float64) @ batch[row].astype(np.float64))
                if (exact >= 0) != (batched.gemm(batch, rp)[row, j] >= 0):
                    return

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "Known gap, pinned rather than fixed: the gate compares only the first and "
            "last rows, and the served float32 GEMM (kernels.batched.gemm) and the "
            "float64-accumulating reference (kernels.reference.matmul) may disagree on "
            "the sign of a projection coordinate within float32 rounding of zero. "
            "wire_rw seed 1947 hits it: version 80, frame 3, row 20 projects one "
            "coordinate to -4.27e-6 in float64 and +4.29e-6 in float32, which turns "
            "Hamming 878 / 880 into a 879 / 879 tie that resolves to class 0. The "
            "certified sign of kernels.batched.sign_gemm (float32 GEMM, float64 "
            "recompute inside its error bound) gets it right and already runs the "
            "online-update rule and the per-row CPU route, but on a served 48-row read "
            "it costs +0.42-0.45 ms on a 2.41 ms gemm + sign even with max|r| scanned "
            "beforehand (see docs/SERVING.md); serving it must flip this mark."
        ),
    )
    def test_interior_row_near_a_zero_projection_matches_the_reference(self):
        """An interior row (never a boundary row the gate recomputes) whose
        projection has one coordinate on the wrong side of zero in float32:
        the class memory holds exactly the served and the reference
        encodings of that row, so the served label is the odd one out."""
        features, dimension, row = 617, 256, 1
        rp = bipolar_random(dimension, features, seed=3)
        batch = (np.random.default_rng(1947).standard_normal((4, features)) * 4).astype(np.float32)
        self._plant_near_zero_projection(batch, rp, row)
        served_code = refkern.sign(batched.gemm(batch, rp)[row])
        reference_code = refkern.sign(refkern.matmul(batch[row], rp))
        classes = np.stack([served_code, reference_code]).astype(np.float32)
        app = HDClassificationInference(dimension=dimension, similarity="hamming")
        servable = app.as_servable((rp, classes), name="near-zero")
        served = ModelRegistry().register(servable, warm_batch_sizes=()).run(batch)
        reference = hdc_compile(servable.build_program(4), target="cpu").bind(
            **servable.constants
        ).run(queries=batch)
        assert np.array_equal(np.asarray(served.output), np.asarray(reference.output))


class TestProvenBlocks:
    """A stage the plan proves (``proven``, from the primitive table's
    ``exact`` column) runs its block with no boundary row; what the table
    cannot prove keeps the gate."""

    ROWS, DIM, FEATURES, CLASSES = 6, 64, 20, 5

    def _search(self, fused: bool) -> H.Program:
        prog = H.Program(f"proven_{fused}")
        rows_t, rp_t = H.hm(self.CLASSES, self.DIM), H.hm(self.DIM, self.FEATURES)
        if fused:

            @prog.define(H.hv(self.FEATURES), rows_t, rp_t)
            def search(query, rows, rp):
                encoded = H.sign(H.matmul(query, rp))
                return H.arg_min(H.hamming_distance(encoded, H.sign(rows)))

            @prog.entry(H.hm(self.ROWS, self.FEATURES), rows_t, rp_t)
            def main(batch, rows, rp):
                return H.inference_loop(search, batch, rows, encoder=rp)

        else:

            @prog.define(H.hv(self.DIM), rows_t)
            def search(query, rows):
                return H.arg_min(H.hamming_distance(H.sign(query), H.sign(rows)))

            @prog.entry(H.hm(self.ROWS, self.DIM), rows_t)
            def main(batch, rows):
                return H.inference_loop(search, batch, rows)

        return prog

    def _inputs(self, fused: bool) -> dict:
        rng = np.random.default_rng(4)
        inputs = dict(
            batch=rng.standard_normal((self.ROWS, self.FEATURES if fused else self.DIM)).astype(np.float32),
            rows=rng.standard_normal((self.CLASSES, self.DIM)).astype(np.float32),
        )
        if fused:
            inputs["rp"] = bipolar_random(self.DIM, self.FEATURES, seed=2)
        return inputs

    @pytest.mark.parametrize("fused", [False, True], ids=["search", "fused-encode"])
    @pytest.mark.parametrize("target, options", [("cpu", {}), ("cpu", {"batched": True}), ("gpu", {})])
    def test_a_proven_stage_runs_no_gate_row(self, target, options, fused):
        """Proven on both columns without the encoder; with it, on the
        reference column only: the ``library`` product is a ``gemm``."""
        compiled = hdc_compile(self._search(fused), target=target, **options)
        [stage] = compiled.entry.ops
        assert stage.attrs["proven"] == (("kernel",) if fused else ("kernel", "library"))
        column = compiled.backend.kernel_set.column
        result = compiled.run(**self._inputs(fused))
        [entry] = result.report.notes["stage_profile"]
        assert entry["route"] == "vectorized" and result.report.notes["stage_fallbacks"] == 0
        if column in stage.attrs["proven"]:
            assert entry["gate_seconds"] == 0.0 and not compiled._verdicts
            assert entry["reason"] == f"proven on the {column} column: every op is exact row by row"
        else:
            assert entry["gate_seconds"] > 0.0 and compiled._verdicts and entry["reason"] is None
        never = lambda self, *args: None  # noqa: E731
        with mock.patch.object(HostStageExecutor, "_try_block", never):
            per_row = compiled.run(**self._inputs(fused))
        assert np.asarray(result.output).tobytes() == np.asarray(per_row.output).tobytes()

    def test_a_proven_block_that_misfits_its_result_type_is_held_to_the_gate(self):
        """A ``parallel_map`` typed ``(rows, DIM)`` whose proven body yields
        one label a row: the O(1) type check fails, so the full gate runs
        (and passes: the labels are the per-row loop's)."""
        prog = H.Program("misfit")

        @prog.define(H.hv(self.DIM), H.hm(self.CLASSES, self.DIM))
        def label(query, rows):
            return H.arg_min(H.hamming_distance(H.sign(query), H.sign(rows)))

        @prog.entry(H.hm(self.ROWS, self.DIM), H.hm(self.CLASSES, self.DIM))
        def main(batch, rows):
            return H.parallel_map(label, batch, rows)

        compiled = CPUBackend(batched=False).compile(prog)
        assert compiled.entry.ops[0].attrs["proven"] == ("kernel", "library")
        result = compiled.run(**self._inputs(False))
        [entry] = result.report.notes["stage_profile"]
        assert entry["route"] == "vectorized" and entry["reason"] is None
        assert entry["gate_seconds"] > 0.0 and compiled._verdicts

    def test_rows_read_in_another_operand_are_not_proven(self):
        """Scoring the memory against the query (the row in operand 1) turns
        the block's scores sideways: every op is ``exact``, yet the block is
        not the rows, so nothing is proven and the gate refuses it, even at
        a row count where its shape fits."""
        prog = H.Program("sideways")

        @prog.define(H.hv(self.DIM), H.hm(self.ROWS, self.DIM))
        def label(query, rows):
            return H.arg_min(H.hamming_distance(H.sign(rows), H.sign(query)))

        @prog.entry(H.hm(self.ROWS, self.DIM), H.hm(self.ROWS, self.DIM))
        def main(batch, rows):
            return H.inference_loop(label, batch, rows)

        compiled = CPUBackend(batched=False).compile(prog)
        assert "proven" not in compiled.entry.ops[0].attrs
        rng = np.random.default_rng(6)
        batch, rows = (rng.standard_normal((self.ROWS, self.DIM)).astype(np.float32) for _ in range(2))
        result = compiled.run(batch=batch, rows=rows)
        assert result.report.notes["stage_fallbacks"] == 1
        expected = [refkern.arg_min(refkern.hamming_distance(refkern.sign(rows), refkern.sign(q))) for q in batch]
        assert np.array_equal(np.asarray(result.output), expected)

    def test_a_declared_batch_impl_is_never_proven(self):
        prog = H.Program("declared")

        @prog.define(H.hv(self.DIM))
        def row_sign(row):
            return H.sign(row)

        @prog.entry(H.hm(self.ROWS, self.DIM))
        def main(batch):
            return H.parallel_map(row_sign, batch, batch_impl=lambda block: refkern.sign(np.asarray(block)))

        compiled = CPUBackend(batched=False).compile(prog)
        assert "proven" not in compiled.entry.ops[0].attrs
        result = compiled.run(batch=self._inputs(False)["batch"])
        assert result.report.notes["stage_profile"][0]["gate_seconds"] > 0.0


# ---------------------------------------------------------------------------
# The gather-and-bundle encoder under the serving plane
# ---------------------------------------------------------------------------


class TestOrderedTrainingBlock:
    """A ``training_loop``'s traced rule: once per epoch over its whole
    block on the reference CPU where the plan proves that the per-row loop
    (one ordered ``retrain`` of every row), once per mini-batch on the
    library column, per row otherwise — and an eager rule per row."""

    N, DIM, CLASSES = 12, 32, 3

    def run(self, rule, traced=True, encoder=None, features=None, library=False, mini_batch=None):
        """The stage's notes and its ``reference.retrain`` calls, after
        checking its memory against ``rule`` run eagerly row after row (or
        against one mini-batch ``retrain``, by default on ``library``)."""
        n, dim, classes = self.N, self.DIM, self.CLASSES
        mini_batch = library if mini_batch is None else mini_batch
        rng = np.random.default_rng(5)
        rows = features if features is not None else rng.choice([-1.0, 1.0], (n, dim)).astype(np.float32)
        labels, memory = rng.integers(0, classes, n), np.zeros((classes, dim), np.float32)
        extra = [] if encoder is None else [encoder]
        prog = H.Program("train")
        shared = [H.hm(classes, dim)] + [H.hm(*encoder.shape) for _ in extra]
        impl = prog.define(H.hv(rows.shape[1]), H.IndexType(), *shared, name="rule")(rule) if traced else rule
        types = [H.hm(*rows.shape), H.IndexVectorType(n), *shared]
        if extra:
            prog.entry(*types, name="main")(
                lambda rows, labels, memory, rp: H.training_loop(impl, rows, labels, memory, 2, rp)
            )
        else:
            prog.entry(*types, name="main")(
                lambda rows, labels, memory: H.training_loop(impl, rows, labels, memory, 2)
            )

        compiled = CPUBackend(batched=library).compile(prog)
        with mock.patch.object(refkern, "retrain", wraps=refkern.retrain) as kernel:
            result = compiled.run(**dict(zip(compiled.input_names, [rows, labels, memory, *extra])))
        expected = memory
        for _ in range(2):
            if mini_batch:  # one: the rows are fewer than 256
                expected = batched.retrain(expected, rows, labels)
                continue
            for row, label in zip(rows, labels.tolist()):
                expected = np.asarray(rule(row, label, expected, *extra))
        assert np.asarray(result.output).tobytes() == np.asarray(expected).tobytes()
        return result.report.notes, kernel.call_count

    def test_the_rule_runs_its_block_once_per_epoch(self):
        search = RelHD(dimension=self.DIM).search()
        notes, calls = self.run(search.rule)
        assert calls == 2
        [entry] = notes["stage_profile"]
        assert entry["route"] == "vectorized" and entry["rows"] == self.N
        assert entry["reason"] == "proven on the kernel column: one ordered retrain of every row"
        assert notes["stage_vectorized"] == 1 and notes["stage_fallbacks"] == 0

    def test_the_library_column_runs_it_per_mini_batch(self):
        notes, calls = self.run(RelHD(dimension=self.DIM).search().rule, library=True)
        assert calls == 0
        [entry] = notes["stage_profile"]
        assert entry["route"] == "vectorized" and entry["reason"] is None
        assert notes["stage_vectorized"] == 1 and notes["stage_fallbacks"] == 0

    def test_an_eager_rule_runs_per_row(self):
        notes, calls = self.run(RelHD(dimension=self.DIM).search().rule, traced=False)
        assert calls == 2 * self.N
        assert notes["stage_fallbacks"] == 0 and notes["stage_vectorized"] == 0
        [entry] = notes["stage_profile"]
        assert entry["route"] == "per-row"

    def test_a_raw_cosine_encode_keeps_the_stage_per_row(self):
        """The rule's unsigned projection reassociates with the row count,
        so the plan proves nothing: the stage runs per row, as configured."""
        search = classification_search("cosine", binarize_encoding=False)
        rp = bipolar_random(self.DIM, 10, seed=3)
        features = np.random.default_rng(6).standard_normal((self.N, 10)).astype(np.float32)

        def rule(rows, labels, memory, rp):
            return search.rule(search.encode(rows, rp), labels, memory)

        notes, calls = self.run(rule, encoder=rp, features=features)
        assert calls == 2 * self.N
        assert notes["stage_fallbacks"] == 0 and notes["stage_vectorized"] == 0
        [entry] = notes["stage_profile"]
        assert entry["route"] == "per-row"
        assert entry["reason"] == "hdc.matmul reassociates with the row count"

    @pytest.mark.parametrize("library", [False, True], ids=["kernel", "library"])
    def test_a_rule_that_is_not_one_retrain_runs_per_row_on_every_column(self, library):
        """A rule whose result is not its ``retrain``'s has no mini-batch
        form: a block of rows would change what it computes."""

        def rule(rows, labels, memory):
            return H.sub(H.retrain(memory, rows, labels), memory)

        notes, calls = self.run(rule, library=library, mini_batch=False)
        assert calls == (0 if library else 2 * self.N)
        assert notes["stage_fallbacks"] == 0 and notes["stage_vectorized"] == 0
        [entry] = notes["stage_profile"]
        assert entry["route"] == "per-row"
        assert entry["reason"] == "unproven: the rule is not one ordered retrain of row ops"


class TestHyperOMSServed:
    def test_binarized_served_search_and_growth_stay_bit_identical(self):
        """A binarized HyperOMS deployment answers ``infer_many`` without a
        single per-row fallback and exactly as the unbatched reference
        route does; after ``append`` the rebuilt library is bit-identical
        to an offline ``encode_library`` of the grown spectra."""
        from repro.transforms.pipeline import ApproximationConfig

        app = HyperOMS(dimension=200, n_levels=8)  # D not a multiple of 64
        rng = np.random.default_rng(3)
        spectra = rng.random((3, 40, 24), dtype=np.float32)
        library, grown_rows, queries = spectra * (rng.random(spectra.shape) < 0.2)
        queries[5] = 0.0  # an empty spectrum inside the served batch
        config = ApproximationConfig(binarize=True)

        def oracle(servable):
            compiled = CPUBackend(batched=False).compile(
                servable.build_program(queries.shape[0]), config=config
            )
            return np.asarray(compiled.run(query_spectra=queries, **servable.constants).output)

        servable = app.as_servable(app.encode_library(library), 24)
        server = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.001)
        server.register(servable, config=config)
        with server:
            before = np.asarray(server.infer_many("hyperoms", queries, timeout=60))
            server.append("hyperoms", grown_rows)
            after = np.asarray(server.infer_many("hyperoms", queries, timeout=60))
            server.drain()
            stats = server.stats()
            grown = server.registry.get("hyperoms").servable
        model = stats.model_stats["hyperoms"]
        assert model["fallback_stages"] == 0 and model["vectorized_stages"] > 0
        assert stats.failures == 0

        offline = app.encode_library(np.vstack([library, grown_rows]))
        assert offline.dtype == np.float32
        assert np.array_equal(grown.constants["library"], offline)
        assert grown.signature == app.as_servable(offline, 24).signature
        assert np.array_equal(before.reshape(-1), oracle(servable).reshape(-1))
        assert np.array_equal(after.reshape(-1), oracle(grown).reshape(-1))
