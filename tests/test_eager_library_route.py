"""The certified ``sign ∘ matmul`` on every route, and eager primitives
inside a library-set execution.

Inside any execution ``sign(matmul(...))`` runs the certified float32
form (``kernels.batched.sign_gemm``): eagerly, and on the reference
kernel set's route (per row, or over a stage's block) for a traced product
whose only use is the ``sign`` after it.  Inside a GPU / batched-CPU execution and an online
update (``Servable.updated``) an eager ``retrain`` also follows the
library kernel set, its declared mini-batch rule.  What is pinned here: the
certified form equals the reference sign, the dispatch takes exactly the
routes the primitive table declares, and no application answer, class
memory or kernel / device counter moves when every Hamming block is
counted row by row instead of by its exact ±1 GEMM.
"""

from __future__ import annotations

import contextlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_batched_execution
from repro import hdcpp as H
from repro.apps import HDClassification, HDClustering, RelHD
from repro.apps.common import bipolar_random
from repro.backends.base import Backend
from repro.backends.cpu import CPUBackend
from repro.backends.executor import HostStageExecutor
from repro.datasets.cora import CoraConfig, make_cora_like
from repro.datasets.isolet import IsoletConfig, make_isolet_like
from repro.hdcpp import primitives
from repro.ir.ops import PRIMITIVES, Opcode, stage_proof
from repro.kernels import batched, memo, reference as ref
from repro.transforms.pipeline import ApproximationConfig

plant_near_zero = test_batched_execution.TestBitIdentityGate._plant_near_zero_projection

WINDOWS = [(0, None, 1), (1, None, 2), (3, -2, 1), (2, None, 3)]


def counted_hamming():
    """Every Hamming block counted row by row: the float32 exactness bound
    set to 0, so the ±1 GEMM route is never taken (``reference.retrain``,
    which shares the bound, then predicts in float64 — exact as well)."""
    return mock.patch.object(ref, "EXACT_F32_TERMS", 0)


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


class TestKernelRoute:
    """The 1-row certified path a per-row CPU stage runs, inside an
    execution on the ``kernel`` column (its projection scanned once)."""

    @given(
        st.integers(8, 96),
        st.integers(16, 96),
        st.sampled_from(["planted", "binary", "non-finite"]),
        st.sampled_from(["bipolar", "float"]),
        st.sampled_from(WINDOWS),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_row_equals_the_reference_sign(
        self, features, dimension, row, projection, window, dtype, seed
    ):
        """A float32 or float64 row planted within float32 rounding of zero
        on the window, a row of 0/1 features (exact zeros against a ±1
        projection), a row holding a NaN, an infinity, a value whose
        products overflow or (float64) one beyond float32's range."""
        rng = np.random.default_rng(seed)
        if projection == "bipolar":
            rp = bipolar_random(dimension, features, seed=seed % 1000)
        else:
            rp = (rng.standard_normal((dimension, features)) * 3).astype(np.float32)
        begin, end, stride = window
        end = features + end if end is not None and end < 0 else end
        window, visited = (begin, end, stride), slice(begin, end, stride)
        x = (rng.standard_normal(features) * 4).astype(dtype)
        if row == "planted":
            planted = np.ascontiguousarray(x[None, visited])
            plant_near_zero(planted, np.ascontiguousarray(rp[:, visited]), 0)
            x[visited] = planted[0]
        elif row == "binary":
            x = (rng.random(features) < 0.1).astype(dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            if row == "non-finite":
                x[rng.integers(features)] = rng.choice([np.nan, np.inf, -np.inf, 3e38, 3.5e38])
            expected = reference_sign(x, rp, window)
            with memo.Execution("kernel"):
                first = batched.sign_gemm(x, rp, *window)
                again = batched.sign_gemm(x, rp, *window)  # the scan from the memo
        assert np.array_equal(first, expected) and np.array_equal(again, expected)

    @pytest.mark.parametrize(
        "x, rp",
        [
            # the row's cast overflows: a float32 -inf where the exact value is +11.65
            ([3.5e38, 30.0], [[-1e-39, 0.4], [0.1, -0.1]]),
            # and meets a zero: a float32 NaN where the exact value is +0.4
            ([3.5e38, 1.0], [[0.0, 0.4], [0.1, -0.1]]),
            # the window's cast overflows: +inf where the exact value is -0.05
            ([1e-39, -0.4], [[3.5e38, 1.0], [1.0, 1.0]]),
            # the window's casts underflow (1.5 ulp rounds to 2) against a large row
            ([1e30, 1.9e30], [[1.5 * 2.0**-149, -(2.0**-149)], [2.0**-149, 2.0**-149]]),
        ],
        ids=["row-overflow", "overflow-times-zero", "window-overflow", "window-underflow"],
    )
    def test_float64_operands_outside_float32_are_recomputed(self, x, rp):
        """Finite float64 operands whose float32 casts are not within ``u``
        of them, while ``‖x‖₁ · max|r|`` passes the overflow check."""
        x, rp = np.array(x), np.array(rp)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_sign(x, rp, (0, None, 1))
            with memo.Execution("kernel"):
                row = batched.sign_gemm(x, rp)
            block = batched.sign_gemm(np.stack([x, x]), rp)
        assert np.array_equal(row, expected)
        assert np.array_equal(block, np.stack([expected, expected]))

    def test_integer_features_recompute_nothing(self):
        """0/1 Cora features against a ±1 projection: many coordinates are
        exactly zero, and their float32 signs are exact as they stand."""
        features = make_cora_like(CoraConfig(n_nodes=64, seed=3)).features.astype(np.float32)
        rp = bipolar_random(512, features.shape[1], seed=17)
        zeros = np.count_nonzero(ref.matmul(features, rp) == 0)
        assert zeros > 0.05 * features.shape[0] * 512
        expected = reference_sign(features, rp, (0, None, 1))
        with mock.patch.object(batched, "_recompute", wraps=batched._recompute) as recompute:
            with memo.Execution("kernel"):
                rows = [batched.sign_gemm(x, rp) for x in features]
            block = batched.sign_gemm(features, rp)
        recompute.assert_not_called()
        assert np.array_equal(np.stack(rows), expected) and np.array_equal(block, expected)
        half = features * 0.5  # not integers: the exact zeros are recomputed
        with mock.patch.object(batched, "_recompute", wraps=batched._recompute) as recompute:
            assert np.array_equal(batched.sign_gemm(half, rp), reference_sign(half, rp, (0, None, 1)))
        recompute.assert_called()


def project_and_sign(rows: int = 5, features: int = 20, dimension: int = 64):
    """``encoding_loop(sign(matmul(row, rp)))``: the encode, which the CPU
    runs over its block."""
    prog = H.Program("encode")

    @prog.define(H.hv(features), H.hm(dimension, features))
    def encode(row, rp):
        return H.sign(H.matmul(row, rp))

    @prog.entry(H.hm(rows, features), H.hm(dimension, features))
    def main(batch, rp):
        return H.encoding_loop(encode, batch, rp)

    return prog


def project_sign_and_score(rows: int = 5, features: int = 20, dimension: int = 64, classes: int = 6):
    """``inference_loop(arg_max(cossim(sign(matmul(row, rp)), classes)))``:
    HD-Classification's cosine search, which the CPU runs per row."""
    prog = H.Program("search")

    @prog.define(H.hv(features), H.hm(classes, dimension), H.hm(dimension, features))
    def search(row, classes, rp):
        return H.arg_max(H.cossim(H.sign(H.matmul(row, rp)), classes))

    @prog.entry(H.hm(rows, features), H.hm(classes, dimension), H.hm(dimension, features))
    def main(batch, classes, rp):
        return H.inference_loop(search, batch, classes, encoder=rp)

    return prog


def without_signs(compiled):
    """``compiled`` on the unfused route, in place: no op is ``signed_by``,
    so every traced op runs its row's ``kernel``.  A product read
    unsigned reassociates with the row count, so no stage whose
    implementation then reads one is ``proven``: on the reference column
    it runs per row."""
    program = compiled.program
    ops = [op for fn in program.functions.values() for op in fn.ops]
    for op in ops:
        op.attrs.pop("signed_by", None)
    for op in ops:
        if "proven" in op.attrs and not stage_proof(op, program.function(op.attrs["impl"])):
            del op.attrs["proven"]
    return compiled


def unfused():
    """:func:`without_signs` on every program compiled inside, eager
    products too: ``sign_gemm`` is ``reference.sign(reference.matmul(...))``."""
    compile = Backend.compile
    stack = contextlib.ExitStack()
    stack.enter_context(
        mock.patch.object(Backend, "compile", lambda self, *a, **k: without_signs(compile(self, *a, **k)))
    )
    stack.enter_context(mock.patch.object(batched, "sign_gemm", lambda *a, **k: ref.sign(ref.matmul(*a, **k))))
    return stack


def per_row_loop():
    """Every stage through its per-row loop: no block attempt, and no
    training rule run over its block by its proof."""
    never = lambda self, *args: None  # noqa: E731
    training = HostStageExecutor._training

    def unproven(self, run, stage, inputs):
        return training(self, run, stage._replace(proven=False), inputs)

    return mock.patch.multiple(HostStageExecutor, _try_block=never, _training=unproven)


def signed(fn) -> dict:
    """Each op of ``fn`` planned ``signed_by``, mapped to that value."""
    return {op: op.attrs["signed_by"] for op in fn.ops if "signed_by" in op.attrs}


class TestSignedProducts:
    """Which traced products the reference kernel set signs through the
    certified column, and that nothing observable moves when it does."""

    @pytest.fixture
    def operands(self):
        rng = np.random.default_rng(8)
        rp = bipolar_random(64, 20, seed=6)
        batch = (rng.standard_normal((5, 20)) * 4).astype(np.float32)
        plant_near_zero(batch, rp, 3)
        return batch, rp

    def test_a_product_only_signed_runs_the_certified_column(self, operands):
        """A cosine search, per row (``cossim`` reassociates with the row
        count): the product only signed runs ``signed`` once a row, never
        the ``kernel``, with the unfused route's bits and launches."""
        batch, rp = operands
        classes = np.random.default_rng(9).standard_normal((6, 64)).astype(np.float32)
        prog, backend = project_sign_and_score(), CPUBackend(batched=False)
        compiled = backend.compile(prog)
        expected = without_signs(backend.compile(prog)).run(batch=batch, classes=classes, rp=rp)
        with mock.patch.object(batched, "sign_gemm", wraps=batched.sign_gemm) as certified, \
                mock.patch.object(ref, "matmul", wraps=ref.matmul) as matmul:
            got = compiled.run(batch=batch, classes=classes, rp=rp)
        assert certified.call_count == batch.shape[0]
        matmul.assert_not_called()
        assert np.asarray(got.output).tobytes() == np.asarray(expected.output).tobytes()
        assert got.report.kernel_launches == expected.report.kernel_launches
        assert got.report.notes["stage_profile"][0]["route"] == "per-row"
        product, sign = compiled.program.functions["search"].ops[:2]
        assert signed(compiled.program.functions["search"]) == {product: sign.result}
        [stage] = compiled.entry.ops
        assert "proven" not in stage.attrs  # cossim still reassociates

    def test_a_product_only_signed_runs_the_certified_column_over_the_block(self, operands):
        """The encode alone runs once over its block, proven on the
        reference column: one ``signed`` call for the block and no gate
        row, never the ``kernel``, with the bits of the unfused route
        (which runs per row: its product is read unsigned)."""
        batch, rp = operands
        prog, backend = project_and_sign(), CPUBackend(batched=False)
        compiled = backend.compile(prog)
        assert compiled.entry.ops[0].attrs["proven"] == ("kernel",)
        expected = without_signs(backend.compile(prog)).run(batch=batch, rp=rp)
        with mock.patch.object(batched, "sign_gemm", wraps=batched.sign_gemm) as certified, \
                mock.patch.object(ref, "matmul", wraps=ref.matmul) as matmul:
            got = compiled.run(batch=batch, rp=rp)
        assert certified.call_count == 1
        matmul.assert_not_called()
        assert np.asarray(got.output).tobytes() == np.asarray(expected.output).tobytes()
        assert expected.report.kernel_launches == 2 * batch.shape[0]
        assert got.report.kernel_launches == 2
        assert got.report.notes["stage_vectorized"] == 1 and got.report.notes["stage_fallbacks"] == 0

    def test_a_product_read_again_or_returned_runs_the_kernel(self, operands):
        batch, rp = operands
        read_twice, returned = H.Program("read_twice"), H.Program("returned")

        @read_twice.define(H.hv(20), H.hm(64, 20))
        def encode(row, rp):
            product = H.matmul(row, rp)
            return H.add(H.sign(product), product)

        @read_twice.entry(H.hm(5, 20), H.hm(64, 20))
        def main(batch, rp):
            return H.encoding_loop(encode, batch, rp)

        @returned.entry(H.hm(5, 20), H.hm(64, 20))
        def both(batch, rp):
            product = H.matmul(batch, rp)
            return H.sign(product), product

        for prog in (read_twice, returned):
            backend = CPUBackend(batched=False)
            compiled = backend.compile(prog)
            expected = without_signs(backend.compile(prog)).run(batch=batch, rp=rp).outputs
            with mock.patch.object(batched, "sign_gemm") as certified:
                got = compiled.run(batch=batch, rp=rp)
            certified.assert_not_called()
            assert all(signed(fn) == {} for fn in compiled.program.functions.values())
            for key, value in expected.items():
                assert np.asarray(got.outputs[key]).tobytes() == np.asarray(value).tobytes()

    def test_a_binarized_product_is_signed_by_the_certified_column(self, operands):
        """Binarization types the product 1-bit, so the kernel set signs it
        whatever reads it: read twice, it still runs ``signed``.  Here in a
        cosine search under configuration IV (``binarize_reduce``), whose
        int32 class rows keep ``cossim`` on the reference kernel, so the
        stage runs per row with the unfused route's launches."""
        batch, rp = operands
        classes = np.random.default_rng(9).standard_normal((6, 64)).astype(np.float32)
        prog = H.Program("binarized_search")

        @prog.define(H.hv(20), H.hm(6, 64), H.hm(64, 20))
        def search(row, classes, rp):
            product = H.matmul(row, rp)
            return H.arg_max(H.cossim(H.mul(H.sign(product), product), classes))

        @prog.entry(H.hm(5, 20), H.hm(6, 64), H.hm(64, 20))
        def main(batch, classes, rp):
            return H.inference_loop(search, batch, classes, encoder=rp)

        config = ApproximationConfig(binarize=True, binarize_reduce=True)
        backend = CPUBackend(batched=False)
        compiled = backend.compile(prog, config=config)
        (op,) = [op for op in compiled.program.functions["search"].ops if op.opcode.value == "hdc.matmul"]
        expected = without_signs(backend.compile(prog, config=config)).run(batch=batch, classes=classes, rp=rp)
        with mock.patch.object(ref, "matmul", wraps=ref.matmul) as matmul:
            got = compiled.run(batch=batch, classes=classes, rp=rp)
        matmul.assert_not_called()
        assert signed(compiled.program.functions["search"]) == {op: op.result}
        assert np.asarray(got.output).tobytes() == np.asarray(expected.output).tobytes()
        assert got.report.kernel_launches == expected.report.kernel_launches
        assert got.report.notes["stage_profile"][0]["route"] == "per-row"

    def test_a_binarized_product_is_signed_by_the_certified_column_over_the_block(self, operands):
        """The binarized encode alone runs once over its block: ``signed``
        for the block and the gate's two rows, never the ``kernel``, with
        the bits of the unfused route, which runs per row.  The accepted
        gate's rows are verification: only the block's 3 ops launch."""
        batch, rp = operands
        prog = H.Program("binarized")

        @prog.define(H.hv(20), H.hm(64, 20))
        def encode(row, rp):
            product = H.matmul(row, rp)
            return H.mul(H.sign(product), product)

        @prog.entry(H.hm(5, 20), H.hm(64, 20))
        def main(batch, rp):
            return H.encoding_loop(encode, batch, rp)

        backend, config = CPUBackend(batched=False), ApproximationConfig(binarize=True)
        compiled = backend.compile(prog, config=config)
        (op,) = [op for op in compiled.program.functions["encode"].ops if op.opcode.value == "hdc.matmul"]
        expected = without_signs(backend.compile(prog, config=config)).run(batch=batch, rp=rp)
        with mock.patch.object(ref, "matmul", wraps=ref.matmul) as matmul, \
                mock.patch.object(batched, "sign_gemm", wraps=batched.sign_gemm) as certified:
            got = compiled.run(batch=batch, rp=rp)
        matmul.assert_not_called()
        assert certified.call_count == 1 + 2
        assert signed(compiled.program.functions["encode"]) == {op: op.result}
        assert np.asarray(got.output).tobytes() == np.asarray(expected.output).tobytes()
        assert expected.report.kernel_launches == 3 * batch.shape[0]
        assert got.report.kernel_launches == 3

    @pytest.mark.parametrize(
        "app, data",
        [
            (HDClassification(dimension=256, epochs=2), "isolet"),
            (HDClustering(dimension=256, iterations=2), "isolet"),
            (RelHD(dimension=256, epochs=2), "cora"),
        ],
        ids=["hd-classification", "hd-clustering", "relhd"],
    )
    def test_cpu_runs_match_the_unfused_route(self, app, data):
        """Outputs and quality of a CPU run (its row-map stages over their
        blocks) equal those of the route that runs ``reference.matmul``
        then ``sign`` (per row: its products are read unsigned), and those
        of the per-row loop; with every stage per row, ``kernel_launches``
        equal the unfused route's too."""
        if data == "isolet":
            data = make_isolet_like(IsoletConfig(n_train=60, n_test=40, seed=5))
        else:
            data = make_cora_like(CoraConfig(n_nodes=80, seed=5))
        runs = {}
        for loop in ("block", "per-row"):
            with per_row_loop() if loop == "per-row" else contextlib.nullcontext():
                runs[loop, "fused"] = app.run(data, target="cpu")
                with unfused():
                    runs[loop, "unfused"] = app.run(data, target="cpu")
        got = runs["block", "fused"]
        assert got.report.notes["stage_fallbacks"] == 0
        for expected in runs.values():
            assert got.quality == expected.quality
            for key, value in expected.outputs.items():
                assert np.asarray(got.outputs[key]).tobytes() == np.asarray(value).tobytes(), key
        assert runs["per-row", "fused"].report.kernel_launches == runs["per-row", "unfused"].report.kernel_launches
        assert got.report.kernel_launches < runs["per-row", "fused"].report.kernel_launches


class TestEagerBlockAttempt:
    """An eager stage implementation on the CPU runs once over its block
    unless it reads a row-count-dependent kernel: then the read raises
    inside the attempt and the stage runs per row, not as a fallback."""

    @pytest.mark.parametrize(
        "impl, route, reason",
        [
            (lambda row, rp: H.sign(H.matmul(row, rp)), "vectorized", None),
            (lambda row, rp: H.matmul(row, rp), "per-row", "hdc.matmul reassociates with the row count"),
            (lambda row, rp: H.cossim(row, rp), "per-row", "hdc.cossim reassociates with the row count"),
        ],
        ids=["signed-product", "unsigned-product", "cossim"],
    )
    def test_the_route_follows_the_kernels_read(self, impl, route, reason):
        rng = np.random.default_rng(12)
        batch = (rng.standard_normal((6, 20)) * 4).astype(np.float32)
        rp = bipolar_random(64, 20, seed=3)
        prog = H.Program("eager_stage")

        @prog.entry(H.hm(6, 20), H.hm(64, 20))
        def main(batch, rp):
            return H.encoding_loop(impl, batch, rp)

        compiled = CPUBackend(batched=False).compile(prog)
        got = compiled.run(batch=batch, rp=rp)
        with per_row_loop():
            expected = compiled.run(batch=batch, rp=rp)
        assert np.asarray(got.output).tobytes() == np.asarray(expected.output).tobytes()
        [entry] = got.report.notes["stage_profile"]
        assert (entry["route"], entry["reason"]) == (route, reason)
        assert got.report.notes["stage_fallbacks"] == 0
        memo.refuse_in_block(Opcode.COSSIM)  # the attempt's scope closed with it


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
        with mock.patch.object(batched, "pairwise_cossim") as library:
            H.cossim(rows, rows)
        library.assert_not_called()
        assert type(H.matmul(x, rp)) is H.HyperMatrix

    def test_inexact_rows_keep_the_kernel(self, operands):
        x, rp, rows = operands
        for primitive, args, routine in (
            (H.cossim, (rows, rows), "pairwise_cossim"),
        ):
            with memo.Execution("library"), mock.patch.object(batched, routine) as library:
                primitive(*args)
            library.assert_not_called()

    def test_rows_without_a_library_routine_run_the_kernel(self, operands):
        """A blank ``library`` cell means ``kernel`` on both columns: the
        library execution runs the reference kernel, with its bits."""
        x, rp, rows = operands
        assert PRIMITIVES[Opcode.HAMMING_DISTANCE].library is None
        codes = H.sign(rows)
        for primitive, args, kernel in (
            (H.hamming_distance, (codes, codes), "hamming_distance"),
            (H.arg_min, (rows,), "arg_min"),
            (H.arg_max, (rows,), "arg_max"),
            (H.matrix_transpose, (rp,), "matrix_transpose"),
            (H.l2norm, (rows,), "l2norm"),
        ):
            expected = primitive(*args)
            with memo.Execution("library"), mock.patch.object(ref, kernel, wraps=getattr(ref, kernel)) as spy:
                got = primitive(*args)
            spy.assert_called_once()
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("column", ["library", "kernel"])
    def test_sign_of_a_deferred_product_is_certified(self, operands, column):
        """Inside an execution on either column an eager ``matmul`` is
        deferred: ``sign`` of it is certified, any other read is the
        reference product."""
        x, rp, _ = operands
        expected_product, expected_sign = H.matmul(x, rp), H.sign(H.matmul(x, rp))
        with memo.Execution(column):
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
    def test_updated_constants_match_the_counted_hamming(self, stock_case):
        """Every trainable stock servable: ``Servable.updated`` equals the
        same update with every Hamming block counted row by row, byte for
        byte."""
        servable = stock_case.servable
        if stock_case.labels is None:
            assert not servable.updatable
            return
        samples, labels = stock_case.queries, np.asarray(stock_case.labels, dtype=np.int64)
        got = servable.updated(samples, labels).constants
        with counted_hamming():
            counted = servable.updated(samples, labels).constants
        assert got.keys() == counted.keys()
        for key, value in got.items():
            value, expected = np.asarray(value), np.asarray(counted[key])
            assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), key

    @pytest.mark.parametrize("seed", [1, 1947])
    @pytest.mark.parametrize(
        "app",
        [HDClassification(dimension=512, epochs=2), HDClustering(dimension=512, iterations=2)],
        ids=["hd-classification", "hd-clustering"],
    )
    def test_gpu_runs_match_the_counted_hamming(self, app, seed):
        """The GPU run at retarget_sweep's shapes: the same outputs with every
        Hamming block counted row by row, and the same modelled launches and
        transfers — eager calls are not kernel launches either way."""
        data = make_isolet_like(IsoletConfig(n_train=150, n_test=150, seed=seed))
        with mock.patch.object(batched, "sign_gemm", wraps=batched.sign_gemm) as certified:
            got = app.run(data, target="gpu")
        # Classification trains with the rule per mini-batch; clustering's
        # GPU route has no eager encode.
        assert certified.called == isinstance(app, HDClassification)
        with counted_hamming():
            counted = app.run(data, target="gpu")
        assert got.outputs.keys() == counted.outputs.keys()
        for key, value in got.outputs.items():
            assert np.asarray(value).tobytes() == np.asarray(counted.outputs[key]).tobytes(), key
        counters = ("kernel_launches", "bytes_to_device", "bytes_from_device", "device_seconds")
        for name in counters:
            assert getattr(got.report, name) == getattr(counted.report, name), name
