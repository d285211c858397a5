"""Tests for the HDC++ primitives executed eagerly (torchhd-style usage)."""

from unittest import mock

import numpy as np
import pytest

from repro import hdcpp as H
from repro.hdcpp import stages
from repro.backends.cpu import CPUBackend
from repro.backends.gpu import GPUBackend


class TestEagerValues:
    def test_hypervector_wrapper(self):
        hv = H.HyperVector(np.arange(8, dtype=np.float32))
        assert hv.dim == 8
        assert hv.type == H.hv(8)
        assert len(hv) == 8
        assert hv[3] == 3.0

    def test_hypermatrix_wrapper(self):
        hm = H.HyperMatrix(np.zeros((3, 4), dtype=np.float32))
        assert hm.rows == 3 and hm.cols == 4
        assert hm.row(1).dim == 4
        assert hm[0].dim == 4

    def test_binary_element_forces_bipolar_storage(self):
        hv = H.HyperVector(np.array([0.5, -2.0, 0.0]), H.binary)
        assert set(np.unique(hv.data)) <= {-1, 1}

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            H.HyperVector(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            H.HyperMatrix(np.zeros(4))

    def test_from_rows(self):
        hm = H.HyperMatrix.from_rows([np.ones(4), np.zeros(4)])
        assert hm.rows == 2

    def test_wrap_like(self):
        assert isinstance(H.wrap_like(np.zeros(3), H.float32), H.HyperVector)
        assert isinstance(H.wrap_like(np.zeros((2, 3)), H.float32), H.HyperMatrix)
        with pytest.raises(ValueError):
            H.wrap_like(np.zeros((2, 2, 2)), H.float32)


class TestInitPrimitives:
    def test_hypervector_and_hypermatrix_empty(self):
        assert np.all(np.asarray(H.hypervector(16)) == 0)
        assert H.hypermatrix(3, 5).type == H.hm(3, 5)

    def test_create(self):
        hv = H.create_hypervector(5, lambda i: i + 1.0)
        assert np.allclose(np.asarray(hv), [1, 2, 3, 4, 5])
        hm = H.create_hypermatrix(2, 2, lambda i, j: i - j)
        assert np.asarray(hm)[1, 0] == 1

    def test_random_reproducible_with_seed(self):
        a = H.random_hypervector(64, seed=9)
        b = H.random_hypervector(64, seed=9)
        assert a.allclose(b)

    def test_random_bipolar_for_integer_elements(self):
        hv = H.random_hypervector(128, element=H.int8, seed=1)
        assert set(np.unique(np.asarray(hv))) <= {-1, 1}

    def test_gaussian(self):
        hm = H.gaussian_hypermatrix(50, 50, seed=2)
        assert abs(float(np.asarray(hm).mean())) < 0.1


class TestElementwisePrimitives:
    def test_sign_and_sign_flip(self):
        hv = H.HyperVector(np.array([0.5, -1.5, 0.0]))
        assert np.array_equal(np.asarray(H.sign(hv)), [1, -1, 1])
        assert np.array_equal(np.asarray(H.sign_flip(hv)), [-0.5, 1.5, 0.0])

    def test_sign_keeps_storage_element(self):
        hv = H.HyperVector(np.array([1.0, -2.0]))
        assert H.sign(hv).element is H.float32

    def test_binding_and_bundling(self):
        a = H.HyperVector(np.array([1.0, -1.0, 1.0]))
        b = H.HyperVector(np.array([1.0, 1.0, -1.0]))
        assert np.array_equal(np.asarray(H.mul(a, b)), [1, -1, -1])
        assert np.array_equal(np.asarray(H.add(a, b)), [2, 0, 0])
        assert np.array_equal(np.asarray(H.sub(a, b)), [0, -2, 2])
        assert np.allclose(np.asarray(H.div(a, b)), [1, -1, -1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(TypeError):
            H.add(H.hypervector(4), H.hypervector(5))

    def test_wrap_shift(self):
        hv = H.HyperVector(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(np.asarray(H.wrap_shift(hv, 1)), [3, 1, 2])

    def test_absolute_value_cosine_typecast(self):
        hv = H.HyperVector(np.array([-2.0, 2.0]))
        assert np.array_equal(np.asarray(H.absolute_value(hv)), [2, 2])
        assert np.allclose(np.asarray(H.cosine(H.HyperVector(np.array([0.0])))), [1.0])
        cast = H.type_cast(hv, H.int8)
        assert cast.element is H.int8


class TestAccessPrimitives:
    def test_get_element(self):
        hm = H.HyperMatrix(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert H.get_element(hm, 1, 2) == 5.0
        hv = H.HyperVector(np.array([7.0, 8.0]))
        assert H.get_element(hv, 1) == 8.0

    def test_arg_min_max(self):
        hv = H.HyperVector(np.array([3.0, 1.0, 2.0]))
        assert H.arg_min(hv) == 1
        assert H.arg_max(hv) == 0
        hm = H.HyperMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(H.arg_max(hm), [0, 1])

    def test_matrix_row_ops(self):
        hm = H.HyperMatrix(np.zeros((2, 3), dtype=np.float32))
        row = H.HyperVector(np.ones(3, dtype=np.float32))
        updated = H.set_matrix_row(hm, row, 0)
        assert np.array_equal(np.asarray(H.get_matrix_row(updated, 0)), [1, 1, 1])
        assert np.all(np.asarray(hm) == 0)

    def test_matrix_transpose(self):
        hm = H.HyperMatrix(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert H.matrix_transpose(hm).type == H.hm(3, 2)


class TestReductionPrimitives:
    def test_l2norm(self):
        assert H.l2norm(H.HyperVector(np.array([3.0, 4.0]))) == pytest.approx(5.0)

    def test_cossim_and_hamming(self):
        rng = np.random.default_rng(0)
        q = H.sign(H.HyperVector(rng.normal(size=64)))
        classes = H.sign(H.HyperMatrix(rng.normal(size=(4, 64))))
        sims = H.cossim(q, classes)
        dists = H.hamming_distance(q, classes)
        assert np.asarray(sims).shape == (4,)
        assert np.asarray(dists).shape == (4,)
        # cossim and hamming must agree on the closest class for bipolar data
        assert int(H.arg_max(sims)) == int(H.arg_min(dists))

    def test_matmul_encoding_shape(self):
        rng = np.random.default_rng(1)
        features = H.HyperVector(rng.normal(size=20))
        rp = H.HyperMatrix(rng.normal(size=(50, 20)))
        encoded = H.matmul(features, rp)
        assert encoded.type.dim == 50

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(TypeError):
            H.matmul(H.hypervector(10), H.hypermatrix(5, 11))

    def test_red_perf_is_noop_in_eager_mode(self):
        hv = H.HyperVector(np.array([1.0, 2.0]))
        assert H.red_perf(hv, 0, 2, 1) is hv


class TestEagerStagesAndHetero:
    def test_eager_inference_loop_with_callable(self):
        rng = np.random.default_rng(2)
        classes = H.sign(H.HyperMatrix(rng.normal(size=(3, 32))))

        def impl(query, class_hvs):
            return H.arg_min(H.hamming_distance(H.sign(query), class_hvs))

        queries = H.HyperMatrix(np.asarray(classes)[np.array([2, 0, 1])].astype(np.float32))
        out = H.inference_loop(impl, queries, classes)
        assert np.array_equal(out, [2, 0, 1])

    def test_eager_training_loop_with_callable(self):
        classes = H.HyperMatrix(np.zeros((2, 4), dtype=np.float32))
        queries = H.HyperMatrix(np.array([[1.0, 1, 1, 1], [-1.0, -1, -1, -1]], dtype=np.float32))

        def impl(query, label, class_hvs):
            updated = np.array(class_hvs, copy=True)
            updated[label] += np.asarray(query)
            return H.HyperMatrix(updated)

        out = H.training_loop(impl, queries, np.array([0, 1]), classes, epochs=2)
        assert np.allclose(np.asarray(out)[0], [2, 2, 2, 2])

    def test_eager_parallel_map(self):
        data = H.HyperMatrix(np.arange(12, dtype=np.float32).reshape(3, 4))
        out = H.parallel_map(lambda row: H.sign_flip(row), data)
        assert np.allclose(np.asarray(out), -np.asarray(data))

    @pytest.mark.parametrize("surface", ["encoding_loop", "inference_loop", "training_loop", "parallel_map"])
    def test_eager_stage_requires_callable(self, surface):
        prog = H.Program("p")

        @prog.define(H.hv(4), H.hm(2, 4))
        def impl(q, c):
            return H.arg_min(H.hamming_distance(q, c))

        rows, classes = H.HyperMatrix(np.zeros((2, 4))), H.HyperMatrix(np.zeros((2, 4)))
        calls = {
            "encoding_loop": lambda: H.encoding_loop(impl, rows, classes),
            "inference_loop": lambda: H.inference_loop(impl, rows, classes),
            "training_loop": lambda: H.training_loop(impl, rows, np.array([0, 1]), classes),
            "parallel_map": lambda: H.parallel_map(impl, rows),
        }
        with pytest.raises(H.TracingError):
            calls[surface]()


class TestEagerStageMemo:
    """An eager stage call compiles its one-stage program once per (opcode,
    operand types, attrs); every call binds its own handle, so it runs its
    own boundary-row gate on its own operands."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(stages, "_STAGES", {})

    def test_a_repeated_call_compiles_once_and_returns_the_same_bytes(self):
        data = H.HyperMatrix(np.random.default_rng(0).normal(size=(8, 64)).astype(np.float32))
        with mock.patch.object(CPUBackend, "compile", autospec=True, side_effect=CPUBackend.compile) as compile:
            first, again = H.parallel_map(H.sign, data), H.parallel_map(H.sign, data)
        assert compile.call_count == 1
        assert first.data.tobytes() == again.data.tobytes() == H.sign(data).data.tobytes()

    def test_no_gate_verdict_carries_to_another_call(self):
        """A ``batch_impl`` right on one call's boundary rows and wrong on
        the next call's: the second call's gate rejects it on its own data."""

        def doubled_unless_large(block):
            out = np.asarray(block) * 2.0
            out[np.asarray(block) > 100] = 0.0
            return out

        small = H.HyperMatrix(np.arange(12, dtype=np.float32).reshape(3, 4))
        large = H.HyperMatrix(np.arange(12, dtype=np.float32).reshape(3, 4) * 100)
        def doubled(row):
            return np.asarray(row) * 2.0

        for data in (small, large, small):
            out = H.parallel_map(doubled, data, batch_impl=doubled_unless_large)
            assert np.array_equal(np.asarray(out), np.asarray(data) * 2.0)

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(stages, "_STAGES_MAX", 2)
        data = H.HyperMatrix(np.ones((2, 4), dtype=np.float32))
        for impl in (H.sign, H.sign_flip, H.absolute_value):
            H.parallel_map(impl, data)
        assert len(stages._STAGES) == 1


class TestVectorizedEagerParallelMap:
    """The eager parallel_map fast path (one batched NumPy call) must stay
    bit-identical to the reference per-row Python loop."""

    @staticmethod
    def _per_row_reference(impl, data, extra=None):
        rows = []
        for i in range(data.rows):
            row = data.row(i)
            out = impl(row) if extra is None else impl(row, extra)
            rows.append(np.asarray(out))
        return np.stack(rows)

    def test_vectorizable_impl_bit_identical_to_row_loop(self):
        rng = np.random.default_rng(3)
        data = H.HyperMatrix(rng.standard_normal((17, 33)).astype(np.float32))
        for impl in (
            lambda row: H.sign(row),
            lambda row: H.sign_flip(row),
            lambda row: H.wrap_shift(row, 2),
        ):
            out = np.asarray(H.parallel_map(impl, data))
            assert np.array_equal(out, self._per_row_reference(impl, data)), impl

    def test_extra_operand_bit_identical(self):
        rng = np.random.default_rng(4)
        data = H.HyperMatrix(rng.standard_normal((9, 16)).astype(np.float32))
        codebook = H.HyperMatrix(
            np.sign(rng.standard_normal((9, 16))).astype(np.float32)
        )

        def impl(row, extra):
            return H.HyperVector(np.asarray(row) * np.asarray(extra)[0])

        out = np.asarray(H.parallel_map(impl, data, extra=codebook))
        assert np.array_equal(out, self._per_row_reference(impl, data, codebook))

    def test_row_only_impl_falls_back_bit_identical(self):
        """An impl that chokes on matrices must run the per-row path."""
        rng = np.random.default_rng(5)
        data = H.HyperMatrix(rng.standard_normal((7, 12)).astype(np.float32))

        def row_only(row):
            arr = np.asarray(row)
            if arr.ndim != 1:
                raise ValueError("rows only")
            return H.HyperVector(arr * 2.0 + 1.0)

        out = np.asarray(H.parallel_map(row_only, data))
        assert np.array_equal(out, self._per_row_reference(row_only, data))

    def test_non_rowwise_matrix_semantics_rejected(self):
        """A batched result that differs from per-row application (here a
        scan across the row axis) must be rejected via the boundary-row
        check and recomputed row by row."""
        data = H.HyperMatrix(np.ones((5, 4), dtype=np.float32))

        def sneaky(value):
            arr = np.asarray(value)
            if arr.ndim == 2:
                # Row 0 matches per-row application, rows 1+ do not.
                return H.HyperMatrix(np.cumsum(arr, axis=0))
            return H.HyperVector(arr)

        out = np.asarray(H.parallel_map(sneaky, data))
        assert np.array_equal(out, self._per_row_reference(sneaky, data))

    def test_single_row_matrix(self):
        data = H.HyperMatrix(np.arange(4, dtype=np.float32).reshape(1, 4))
        out = np.asarray(H.parallel_map(lambda row: H.sign_flip(row), data))
        assert np.array_equal(out, -np.asarray(data))

    def test_hashtable_read_encoder_bit_identical(self):
        """The ROADMAP-flagged hot encoder: batched vs per-row paths agree."""
        from repro.apps.hashtable import HDHashtable

        app = HDHashtable(dimension=64, seed=9)
        base_hvs = app.make_base_hypervectors()
        encode_read = app._make_read_encoder(app._rotated_bases(base_hvs, 4))
        rng = np.random.default_rng(6)
        reads = H.HyperMatrix(rng.integers(0, 4, (8, 20)).astype(np.int64), H.int64)
        out = np.asarray(H.parallel_map(encode_read, reads, output_dim=64))
        assert np.array_equal(out, self._per_row_reference(encode_read, reads))

    @pytest.mark.parametrize("stage", ["parallel_map", "encoding_loop"])
    @pytest.mark.parametrize("route", ["eager", "cpu", "gpu"])
    def test_hypervector_only_attributes_fall_back(self, route, stage):
        """An impl touching HyperVector-only surface (``.dim``) raises
        AttributeError on the whole-block attempt; it must fall back to the
        per-row loop, not crash — eagerly and compiled for the CPU and GPU."""
        rng = np.random.default_rng(8)
        data = H.HyperMatrix(rng.standard_normal((6, 10)).astype(np.float32))
        encoder = H.HyperMatrix(rng.standard_normal((10, 10)).astype(np.float32))

        def row_attrs(row, *encoder):
            return H.HyperVector(np.asarray(row) * float(row.dim))

        if stage == "parallel_map":
            def call(rows):
                return H.parallel_map(row_attrs, rows)

            inputs, extra = {"rows": data}, None
        else:
            def call(rows, encoder):
                return H.encoding_loop(row_attrs, rows, encoder)

            inputs, extra = {"rows": data, "encoder": encoder}, encoder
        if route == "eager":
            out = call(**inputs)
        else:
            prog = H.Program("row_attrs")
            prog.entry(*(value.type for value in inputs.values()))(call)
            backend = CPUBackend() if route == "cpu" else GPUBackend()
            result = backend.compile(prog).run(**inputs)
            out = result.output
            assert result.report.notes["stage_fallbacks"] == 1
            [reason] = result.report.notes["stage_fallback_reasons"].values()
            assert "AttributeError" in reason
        expected = self._per_row_reference(row_attrs, data, extra)
        assert np.asarray(out).tobytes() == expected.tobytes()
