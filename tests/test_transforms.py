"""Tests for the approximation transforms (binarization and perforation)."""

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassification
from repro.backends import compile as hdc_compile
from repro.datasets import IsoletConfig, make_isolet_like
from repro.ir import verify_program
from repro.ir.builder import clone_program
from repro.ir.ops import Opcode
from repro.ir.verifier import IRVerificationError
from repro.transforms import (
    ApproximationConfig,
    AutomaticBinarization,
    PassPipeline,
    PerforationSpec,
    ReductionPerforation,
)


def build_inference_program():
    """matmul -> sign -> hamming(sign(classes)) -> argmin, plus a red_perf."""
    prog = H.Program("transform_test")

    @prog.entry(H.hv(16), H.hm(6, 64), H.hm(64, 16))
    def main(query, classes, rp):
        encoded = H.sign(H.matmul(query, rp))
        distances = H.hamming_distance(encoded, H.sign(classes))
        H.red_perf(distances, 0, 32, 2)
        return H.arg_min(distances)

    return prog


class TestAutomaticBinarization:
    def test_taints_sign_connected_values(self):
        prog = clone_program(build_inference_program())
        report = AutomaticBinarization().run(prog)
        assert report.tainted_ops >= 3
        assert report.binarized_values >= 2
        ops = {op.opcode: op for op in prog.function("main").ops}
        # The encoded hypervector (matmul result) and the sign outputs are 1-bit.
        assert ops[Opcode.MATMUL].result.type.element.is_binary
        assert ops[Opcode.SIGN].result.type.element.is_binary
        # The similarity output stays a full-precision score vector.
        assert not ops[Opcode.HAMMING_DISTANCE].result.type.element.is_binary

    def test_binarizes_program_inputs_reached_by_sign(self):
        prog = clone_program(build_inference_program())
        report = AutomaticBinarization().run(prog)
        classes_param = prog.function("main").params[1]
        assert classes_param.type.element.is_binary
        assert any("classes" in name for name in report.binarized_params)

    def test_data_movement_reduction_reported(self):
        prog = clone_program(build_inference_program())
        report = AutomaticBinarization().run(prog)
        assert report.data_movement_reduction == pytest.approx(32.0)

    def test_binarize_reduce_taints_reduce_inputs(self):
        prog = clone_program(build_inference_program())
        AutomaticBinarization(binarize_reduce=True).run(prog)
        matmul = next(op for op in prog.function("main").ops if op.opcode == Opcode.MATMUL)
        # The feature input of the encoding matmul now carries a reduced
        # integer precision (configuration IV of Table 3).
        assert matmul.operands[0].type.element is H.int32

    def test_no_sign_means_no_change(self):
        prog = H.Program("nosign")

        @prog.entry(H.hv(8), H.hm(4, 8))
        def main(q, c):
            return H.arg_max(H.cossim(q, c))

        report = AutomaticBinarization().run(prog)
        assert report.tainted_ops == 0
        assert report.binarized_values == 0

    def test_allocation_attrs_updated(self):
        prog = H.Program("alloc")

        @prog.entry(H.hv(32))
        def main(x):
            r = H.random_hypervector(32, seed=1)
            return H.mul(H.sign(x), H.sign(r))

        AutomaticBinarization().run(prog)
        random_op = next(op for op in prog.function("main").ops if op.opcode == Opcode.RANDOM_HYPERVECTOR)
        assert random_op.attrs["element"].is_binary

    def test_a_training_result_keeps_its_type(self):
        """``retrain``'s result is float32 counts (not binarizable).  The
        traced rule links it to the ``training_loop``'s result, which the
        binarized search reads as its class rows: both keep ``float``, so
        the GPU moves the trained memory at the size it has."""
        app = HDClassification(dimension=64, epochs=1)
        data = make_isolet_like(IsoletConfig(n_train=20, n_test=10, seed=2))
        program = clone_program(app.build_program(data.n_features, data.n_classes, 20, 10))
        AutomaticBinarization().run(program)
        main, rule, search = (program.function(name) for name in ("main", "rule", "search_one"))
        trained = main.ops[1]
        assert trained.opcode is Opcode.TRAINING_LOOP
        assert trained.result.type.element is H.float32 and rule.results[0].type.element is H.float32
        assert search.params[1].type.element.is_binary
        exact, binarized = (
            app.run(data, target="gpu", config=config)
            for config in (None, ApproximationConfig(binarize=True))
        )
        assert exact.report.bytes_from_device == binarized.report.bytes_from_device
        for key, value in exact.outputs.items():
            assert np.asarray(binarized.outputs[key]).tobytes() == np.asarray(value).tobytes(), key

    def test_the_verifier_admits_only_a_float_operand_read_by_its_signs(self):
        """The binarized search reads the float trained memory into its
        1-bit ``%class_hvs``, whose first use is its ``sign``: the one
        element-type disagreement a stage link may carry.  A training
        result typed 1-bit against its rule's float ``retrain`` is refused."""
        program = clone_program(HDClassification(dimension=64, epochs=1).build_program(10, 3, 20, 10))
        AutomaticBinarization().run(program)
        main, search = program.function("main"), program.function("search_one")
        infer = next(op for op in main.ops if op.opcode is Opcode.INFERENCE_LOOP)
        assert infer.operands[1].type.element is H.float32 and search.params[1].type.element.is_binary
        assert search.ops[2].opcode is Opcode.SIGN and search.ops[2].operands[0] is search.params[1]
        verify_program(program)
        trained = next(op for op in main.ops if op.opcode is Opcode.TRAINING_LOOP)
        trained.result.type = trained.result.type.with_element(H.binary)
        with pytest.raises(IRVerificationError, match=f"binds %{trained.result.name} \\(bit\\) to @rule's result"):
            verify_program(program)

    def test_idempotent(self):
        prog = clone_program(build_inference_program())
        AutomaticBinarization().run(prog)
        second = AutomaticBinarization().run(prog)
        assert second.binarized_values == 0 or second.bytes_before == second.bytes_after


class TestReductionPerforation:
    def test_folds_red_perf_directive(self):
        prog = clone_program(build_inference_program())
        report = ReductionPerforation().run(prog)
        assert report.folded_directives == 1
        ops = prog.function("main").ops
        assert all(op.opcode != Opcode.RED_PERF for op in ops)
        hamming = next(op for op in ops if op.opcode == Opcode.HAMMING_DISTANCE)
        assert hamming.attrs["perf_begin"] == 0
        assert hamming.attrs["perf_end"] == 32
        assert hamming.attrs["perf_stride"] == 2

    def test_external_spec_applies_to_matching_ops(self):
        prog = clone_program(build_inference_program())
        spec = PerforationSpec("matmul", begin=0, end=None, stride=4)
        report = ReductionPerforation([spec]).run(prog)
        assert report.applied_specs == 1
        matmul = next(op for op in prog.function("main").ops if op.opcode == Opcode.MATMUL)
        assert matmul.attrs["perf_stride"] == 4

    def test_spec_function_filter(self):
        prog = clone_program(build_inference_program())
        spec = PerforationSpec("matmul", stride=2, function="not_this_function")
        report = ReductionPerforation([spec]).run(prog)
        assert report.applied_specs == 0

    def test_red_perf_on_non_reduce_rejected(self):
        prog = H.Program("bad")

        @prog.entry(H.hv(8))
        def main(x):
            y = H.sign(x)
            H.red_perf(y, 0, 8, 2)
            return y

        with pytest.raises(ValueError):
            ReductionPerforation().run(prog)

    def test_spec_opcode_resolution(self):
        assert PerforationSpec("hamming_distance").resolved_opcode() == Opcode.HAMMING_DISTANCE
        assert PerforationSpec(Opcode.COSSIM).resolved_opcode() == Opcode.COSSIM
        # An unknown name is a ValueError naming the choices (it was a bare
        # KeyError), and so is a primitive that does not reduce.
        with pytest.raises(ValueError, match="l2norm, cossim, hamming_distance, matmul"):
            PerforationSpec("not_a_reduce").resolved_opcode()
        with pytest.raises(ValueError, match="perforatable primitives"):
            PerforationSpec(Opcode.SIGN).resolved_opcode()


class TestPerforationWindowIsCheckedAtCompileTime:
    """A window that visits nothing, or a misspelt primitive, is refused when
    it is folded — it used to compile and either answer class 0 to every
    query (``begin == end``: distance 0 to every class) or raise on the
    first request, which a batched serving stage took for a row-only
    implementation and pinned a per-row fallback on."""

    DIM = 8

    def program(self, directive=None):
        prog = H.Program("window")

        @prog.define(H.hv(self.DIM), H.hm(3, self.DIM))
        def nearest(query, classes):
            distances = H.hamming_distance(query, classes)
            if directive is not None:
                H.red_perf(distances, *directive)
            return H.arg_min(distances)

        @prog.entry(H.hm(2, self.DIM), H.hm(3, self.DIM))
        def main(queries, classes):
            return H.inference_loop(nearest, queries, classes)

        return prog

    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    @pytest.mark.parametrize(
        "window",
        [(8, 8, 1), (0, 8, 0), (0, 99, 1), (-1, 8, 1), (5, 3, 1)],
        ids=["empty", "stride-0", "end-past-length", "negative-begin", "reversed"],
    )
    def test_bad_window_is_a_compile_error(self, target, window):
        begin, end, stride = window
        spec = PerforationSpec("hamming_distance", begin=begin, end=end, stride=stride)
        config = ApproximationConfig.none().with_perforation(spec)
        with pytest.raises(ValueError, match="0 <= begin < end <= 8 and stride >= 1"):
            hdc_compile(self.program(), target, config)
        with pytest.raises(ValueError, match="nearest: invalid perforation window"):
            hdc_compile(self.program(directive=window), target)

    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    def test_unknown_primitive_name_lists_the_choices(self, target):
        config = ApproximationConfig.none().with_perforation(PerforationSpec("hamming"))
        with pytest.raises(ValueError, match="'hamming'.*l2norm, cossim, hamming_distance, matmul"):
            hdc_compile(self.program(), target, config)

    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    def test_boundary_windows_still_compile_and_run(self, target):
        queries = np.sign(np.arange(16, dtype=np.float32).reshape(2, 8) - 7.5)
        classes = np.sign(np.arange(24, dtype=np.float32).reshape(3, 8) % 5 - 2.0)
        for window in [(0, 8, 1), (7, 8, 1), (0, None, 8)]:
            spec = PerforationSpec("hamming_distance", *window)
            compiled = hdc_compile(self.program(), target, ApproximationConfig.none().with_perforation(spec))
            sl = slice(window[0], window[1], window[2])
            want = (queries[:, None, sl] != classes[None, :, sl]).sum(axis=-1).argmin(axis=1)
            assert np.array_equal(compiled.run(queries=queries, classes=classes).output, want)


class TestPipelineAndConfig:
    def test_identity_config(self):
        config = ApproximationConfig.none()
        assert config.is_identity
        passes = config.build_passes()
        assert len(passes) == 1  # perforation fold always runs (for red_perf)

    def test_config_builds_binarization_pass(self):
        config = ApproximationConfig(binarize=True)
        assert not config.is_identity
        names = [p.name for p in config.build_passes()]
        assert "automatic-binarization" in names

    def test_with_perforation_appends(self):
        config = ApproximationConfig(binarize=True).with_perforation(PerforationSpec("matmul", stride=2))
        assert len(config.perforations) == 1
        assert config.binarize

    def test_pipeline_runs_and_verifies(self):
        prog = clone_program(build_inference_program())
        pipeline = PassPipeline.from_config(
            ApproximationConfig(binarize=True, perforations=(PerforationSpec("matmul", stride=2),))
        )
        report = pipeline.run(prog)
        assert "automatic-binarization" in report
        assert "reduction-perforation" in report
        assert report["reduction-perforation"].folded_directives == 1

    def test_pipeline_reports_are_accessible_by_name(self):
        prog = clone_program(build_inference_program())
        report = PassPipeline.from_config(ApproximationConfig(binarize=True)).run(prog)
        assert report["automatic-binarization"].binarized_values > 0
        assert "nonexistent-pass" not in report
