"""Eager primitives inside a library-set execution.

Inside a GPU / batched-CPU execution and an online update
(``Servable.updated``) eager HDC++ calls follow the library kernel set
where its routine is exact, and ``sign(matmul(...))`` runs the certified
float32 form (``kernels.batched.sign_gemm``).  What is pinned here: the
certified form equals the reference sign, the dispatch takes exactly the
routes the primitive table declares, and no application answer, class
memory or device counter moves against the reference column.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_batched_execution
from repro import hdcpp as H
from repro.apps import HDClassification, HDClustering
from repro.apps.common import bipolar_random
from repro.datasets.isolet import IsoletConfig, make_isolet_like
from repro.hdcpp import primitives
from repro.kernels import batched, memo, reference as ref

plant_near_zero = test_batched_execution.TestBitIdentityGate._plant_near_zero_projection

WINDOWS = [(0, None, 1), (1, None, 2), (3, -2, 1), (2, None, 3)]


def reference_column():
    """Every eager call on the ``kernel`` column, as outside any execution."""
    return mock.patch.object(memo, "column", lambda: "kernel")


def reference_sign(lhs, rhs, window):
    return ref.sign(ref.matmul(lhs, rhs, *window))


class TestCertifiedSignGemm:
    @given(
        st.integers(8, 96),
        st.integers(16, 96),
        st.one_of(st.integers(1, 64), st.integers(0, 8).map(lambda extra: -1 - extra)),
        st.sampled_from(["bipolar", "float"]),
        st.sampled_from(WINDOWS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_reference_sign(self, features, dimension, rows, projection, window, seed):
        """±1 and float projections, 1..64 rows and ``N >= R`` (both GEMM
        orientations), a 1-D lhs and perforation windows, with one row
        planted within float32 rounding of zero on the window."""
        rng = np.random.default_rng(seed)
        if rows < 0:  # at least as many rows as the projection: row-major GEMM
            rows = dimension + (-1 - rows)
        if projection == "bipolar":
            rp = bipolar_random(dimension, features, seed=seed % 1000)
        else:
            rp = (rng.standard_normal((dimension, features)) * 3).astype(np.float32)
        x = (rng.standard_normal((rows, features)) * 4).astype(np.float32)
        begin, end, stride = window
        end = features + end if end is not None and end < 0 else end
        window = (begin, end, stride)
        visited = slice(begin, end, stride)
        planted, row = np.ascontiguousarray(x[:, visited]), int(rng.integers(rows))
        plant_near_zero(planted, np.ascontiguousarray(rp[:, visited]), row)
        x[:, visited] = planted
        assert np.array_equal(batched.sign_gemm(x, rp, *window), reference_sign(x, rp, window))
        assert np.array_equal(
            batched.sign_gemm(x[row], rp, *window), reference_sign(x[row], rp, window)
        )

    def test_recomputes_the_coordinate_float32_gets_wrong(self):
        """The seed-1947 row of the strict xfail in test_batched_execution:
        float32 signs one coordinate wrongly, the certified form does not."""
        rp = bipolar_random(256, 617, seed=3)
        batch = (np.random.default_rng(1947).standard_normal((4, 617)) * 4).astype(np.float32)
        plant_near_zero(batch, rp, 1)
        exact = reference_sign(batch, rp, (0, None, 1))
        assert not np.array_equal(ref.sign(batched.gemm(batch, rp)), exact)
        assert np.array_equal(batched.sign_gemm(batch, rp), exact)
        assert np.array_equal(batched.sign_gemm(batch[1], rp), exact[1])

    def test_non_finite_rows_are_recomputed_whole(self):
        rp = bipolar_random(32, 16, seed=2)
        x = np.random.default_rng(0).standard_normal((3, 16)).astype(np.float32)
        x[0, 3], x[1, 5], x[2, :] = np.nan, np.inf, 3e38
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(batched.sign_gemm(x, rp), ref.sign(ref.matmul(x, rp)))


class TestEagerDispatch:
    @pytest.fixture
    def operands(self):
        rng = np.random.default_rng(11)
        rp = bipolar_random(64, 20, seed=4)
        x = (rng.standard_normal((5, 20)) * 4).astype(np.float32)
        plant_near_zero(x, rp, 2)
        rows = rng.standard_normal((6, 64)).astype(np.float32)
        return H.HyperMatrix(x), H.HyperMatrix(rp), H.HyperMatrix(rows)

    def test_outside_an_execution_every_row_runs_its_kernel(self, operands):
        x, rp, rows = operands
        with mock.patch.object(batched, "pairwise_hamming") as library:
            H.hamming_distance(H.sign(x), H.sign(rp))
        library.assert_not_called()
        assert type(H.matmul(x, rp)) is H.HyperMatrix

    def test_exact_rows_run_the_library_routine(self, operands):
        x, rp, rows = operands
        codes, memory = H.sign(rows), H.sign(H.matrix_transpose(rp))
        calls = [
            (H.hamming_distance, (codes, codes), "pairwise_hamming"),
            (H.arg_min, (rows,), "rowwise_argmin"),
            (H.arg_max, (rows,), "rowwise_argmax"),
            (H.matrix_transpose, (memory,), "transpose"),
        ]
        for primitive, args, routine in calls:
            expected = primitive(*args)
            with memo.Execution("library"), mock.patch.object(
                batched, routine, wraps=getattr(batched, routine)
            ) as spy:
                got = primitive(*args)
            spy.assert_called_once()
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_inexact_rows_keep_the_kernel(self, operands):
        x, rp, rows = operands
        for primitive, args, routine in (
            (H.cossim, (rows, rows), "pairwise_cossim"),
            (H.l2norm, (rows,), "rowwise_l2norm"),
        ):
            with memo.Execution("library"), mock.patch.object(batched, routine) as library:
                primitive(*args)
            library.assert_not_called()

    def test_sign_of_a_deferred_product_is_certified(self, operands):
        x, rp, _ = operands
        expected_product, expected_sign = H.matmul(x, rp), H.sign(H.matmul(x, rp))
        with memo.Execution("library"):
            product = H.matmul(x, rp)
            with mock.patch.object(batched, "sign_gemm", wraps=batched.sign_gemm) as certified:
                signed = H.sign(product)
            certified.assert_called_once()
            read = H.matmul(x, rp)
            assert isinstance(read, H.HyperMatrix) and read.type == expected_product.type
            assert np.asarray(read).tobytes() == expected_product.data.tobytes()
            with mock.patch.object(batched, "sign_gemm") as certified:
                resigned = H.sign(read)  # read already: the kernel's product is signed
            certified.assert_not_called()
        assert signed.data.tobytes() == expected_sign.data.tobytes()
        assert resigned.data.tobytes() == expected_sign.data.tobytes()

    def test_a_deferred_product_copies_and_pickles_as_its_reference_value(self, operands):
        x, rp, _ = operands
        expected = H.matmul(x[0], rp)
        with memo.Execution("library"):
            product, again = H.matmul(x[0], rp), H.matmul(x[0], rp)
        assert isinstance(product, H.HyperVector) and product.shape == expected.shape
        restored = pickle.loads(pickle.dumps(product))
        assert type(restored) is H.HyperVector
        assert restored.data.tobytes() == expected.data.tobytes()
        assert again.copy().data.tobytes() == expected.data.tobytes()

    def test_result_types_are_memoised_on_success_only(self, monkeypatch):
        monkeypatch.setattr(primitives, "_RESULT_TYPES", {})
        a, b = H.HyperVector(np.ones(8, np.float32)), H.HyperVector(np.ones(9, np.float32))
        H.add(a, a)
        H.add(a, a)
        assert len(primitives._RESULT_TYPES) == 1
        for _ in range(2):
            with pytest.raises(TypeError, match="hdc.add: shape mismatch"):
                H.add(a, b)
        assert len(primitives._RESULT_TYPES) == 1

    def test_the_result_type_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(primitives, "_RESULT_TYPES", {})
        vector = H.HyperVector(np.arange(8, dtype=np.float32))
        for shift in range(primitives._RESULT_TYPES_MAX + 3):  # one key per shift
            assert H.wrap_shift(vector, shift)[shift % 8] == 0
        assert len(primitives._RESULT_TYPES) == 3


class TestAnswersDoNotMove:
    def test_updated_constants_match_the_reference_column(self, stock_case):
        """Every trainable stock servable: ``Servable.updated`` on the
        library column equals the same update on the reference column,
        byte for byte."""
        servable = stock_case.servable
        if stock_case.labels is None:
            assert not servable.updatable
            return
        samples, labels = stock_case.queries, np.asarray(stock_case.labels, dtype=np.int64)
        library = servable.updated(samples, labels).constants
        with reference_column():
            reference = servable.updated(samples, labels).constants
        assert library.keys() == reference.keys()
        for key, value in library.items():
            value, expected = np.asarray(value), np.asarray(reference[key])
            assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), key

    @pytest.mark.parametrize("seed", [1, 1947])
    @pytest.mark.parametrize(
        "app",
        [HDClassification(dimension=512, epochs=2), HDClustering(dimension=512, iterations=2)],
        ids=["hd-classification", "hd-clustering"],
    )
    def test_gpu_runs_match_the_reference_column(self, app, seed):
        """The GPU run at retarget_sweep's shapes: the same outputs, and the
        same modelled launches and transfers — eager calls are not kernel
        launches on either column."""
        data = make_isolet_like(IsoletConfig(n_train=150, n_test=150, seed=seed))
        with mock.patch.object(batched, "sign_gemm", wraps=batched.sign_gemm) as certified:
            library = app.run(data, target="gpu")
        # Classification trains with the rule per mini-batch; clustering's
        # GPU route has no eager encode.
        assert certified.called == isinstance(app, HDClassification)
        with reference_column():
            reference = app.run(data, target="gpu")
        assert library.outputs.keys() == reference.outputs.keys()
        for key, value in library.outputs.items():
            assert np.asarray(value).tobytes() == np.asarray(reference.outputs[key]).tobytes(), key
        counters = ("kernel_launches", "bytes_to_device", "bytes_from_device", "device_seconds")
        for name in counters:
            assert getattr(library.report, name) == getattr(reference.report, name), name
