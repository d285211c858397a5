"""Tests for the CPU and GPU back ends (compilation and execution)."""

import numpy as np
import pytest

from repro import hdcpp as H
from repro.backends import CPUBackend, GPUBackend, backend_for_target, compile as hdc_compile
from repro.transforms import ApproximationConfig, PerforationSpec


def search_program(rows: int, similarity: str):
    """The ``inference_program`` fixture's search over ``rows`` queries,
    scored by Hamming distance or by cosine similarity."""
    features, dim, classes = 32, 256, 6
    prog = H.Program(f"search_{similarity}_{rows}")

    @prog.define(H.hv(features), H.hm(classes, dim), H.hm(dim, features))
    def infer_one(query, class_hvs, rp_matrix):
        encoded = H.sign(H.matmul(query, rp_matrix))
        if similarity == "cosine":
            return H.arg_max(H.cossim(encoded, H.sign(class_hvs)))
        return H.arg_min(H.hamming_distance(encoded, H.sign(class_hvs)))

    @prog.entry(H.hm(rows, features), H.hm(classes, dim), H.hm(dim, features))
    def main(queries, class_hvs, rp_matrix):
        return H.inference_loop(infer_one, queries, class_hvs, encoder=rp_matrix)

    return prog


class TestCompileAPI:
    def test_backend_for_target(self):
        assert isinstance(backend_for_target("cpu"), CPUBackend)
        assert isinstance(backend_for_target("gpu"), GPUBackend)
        with pytest.raises(Exception):
            backend_for_target("tpu")

    def test_compiled_program_reports_inputs(self, inference_program):
        compiled = hdc_compile(inference_program, target="cpu")
        assert compiled.input_names == ["queries", "class_hvs", "rp_matrix"]
        assert "cpu" in repr(compiled)

    def test_missing_and_unknown_inputs_rejected(self, inference_program, inference_inputs):
        compiled = hdc_compile(inference_program, target="cpu")
        with pytest.raises(TypeError):
            compiled.run(queries=inference_inputs["queries"])
        with pytest.raises(TypeError):
            compiled.run(
                queries=inference_inputs["queries"],
                class_hvs=inference_inputs["class_hvs"],
                rp_matrix=inference_inputs["rp_matrix"],
                bogus=np.zeros(3),
            )

    def test_wrong_input_shape_rejected(self, inference_program, inference_inputs):
        compiled = hdc_compile(inference_program, target="cpu")
        with pytest.raises(ValueError):
            compiled.run(
                queries=inference_inputs["queries"][:, :5],
                class_hvs=inference_inputs["class_hvs"],
                rp_matrix=inference_inputs["rp_matrix"],
            )


class TestCpuGpuExecution:
    def test_cpu_and_gpu_agree_on_predictions(self, inference_program, inference_inputs):
        cpu = hdc_compile(inference_program, target="cpu")
        gpu = hdc_compile(inference_program, target="gpu")
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        cpu_out = np.asarray(cpu.run(**kwargs).output)
        gpu_out = np.asarray(gpu.run(**kwargs).output)
        assert np.array_equal(cpu_out, gpu_out)

    def test_predictions_match_labels_on_easy_data(self, inference_program, inference_inputs):
        compiled = hdc_compile(inference_program, target="gpu")
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        predictions = np.asarray(compiled.run(**kwargs).output)
        accuracy = (predictions == inference_inputs["labels"]).mean()
        assert accuracy > 0.9

    def test_execution_report_contents(self, inference_program, inference_inputs):
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        cpu_report = hdc_compile(inference_program, target="cpu").run(**kwargs).report
        gpu_report = hdc_compile(inference_program, target="gpu").run(**kwargs).report
        assert cpu_report.wall_seconds > 0
        assert cpu_report.kernel_launches > 0
        assert cpu_report.bytes_to_device == 0
        assert gpu_report.bytes_to_device > 0
        assert gpu_report.bytes_from_device > 0
        assert gpu_report.kernel_launches > 0
        assert gpu_report.device_seconds > 0
        assert gpu_report.target == "gpu"
        # The kernel set is reported as the table column it read.
        assert cpu_report.notes["kernel_set"] == "reference"
        assert gpu_report.notes["kernel_set"] == "library"
        batched = CPUBackend(batched=True).compile(inference_program).run(**kwargs).report
        assert batched.notes["kernel_set"] == "library"

    def test_report_merge_has_one_rule_for_costs_and_notes(self, inference_program, inference_inputs):
        """Numbers sum, lists extend, dicts update, anything else is
        last-wins — for ``ExecutionReport.merge`` and for the apps'
        ``merge_reports``, which is a fold over it."""
        from repro.apps.common import merge_reports
        from repro.backends.base import ExecutionReport

        a = ExecutionReport(kernel_launches=3, notes={
            "stage_vectorized": 1, "stage_profile": [{"stage": "a"}], "kernel_set": "reference",
            "stage_fallback_reasons": {"x": "row-only"}, "device": "asic",
        })  # fmt: skip
        b = ExecutionReport(kernel_launches=4, wall_seconds=0.5, notes={
            "stage_vectorized": 2, "stage_profile": [{"stage": "b"}], "kernel_set": "library",
            "stage_fallback_reasons": {"y": "dtype"}, "encodes": 7,
        })  # fmt: skip
        merged = merge_reports("cpu", [a, b])
        assert merged.target == "cpu" and merged.kernel_launches == 7 and merged.wall_seconds == 0.5
        assert merged.notes == {
            "stage_vectorized": 3,
            "stage_profile": [{"stage": "a"}, {"stage": "b"}],
            "kernel_set": "library",
            "stage_fallback_reasons": {"x": "row-only", "y": "dtype"},
            "device": "asic",
            "encodes": 7,
        }
        # The fold copies: the inputs keep their own lists and dicts.
        assert a.notes["stage_profile"] == [{"stage": "a"}] and b.notes["stage_fallback_reasons"] == {"y": "dtype"}
        # A real pair of runs: every stage execution is counted and profiled.
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        compiled = CPUBackend(batched=True).compile(inference_program)
        twice = merge_reports("cpu", [compiled.run(**kwargs).report, compiled.run(**kwargs).report])
        assert twice.notes["stage_vectorized"] == 2 and len(twice.notes["stage_profile"]) == 2

    def test_gpu_uses_fewer_kernel_launches_than_cpu(self, inference_inputs):
        """The GPU lowers the stage to batched routines; the CPU loops per
        sample over a stage whose ``cossim`` reassociates with the row count."""
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        program = search_program(40, "cosine")
        cpu_report = hdc_compile(program, target="cpu").run(**kwargs).report
        gpu_report = hdc_compile(program, target="gpu").run(**kwargs).report
        assert cpu_report.notes["stage_profile"][0]["route"] == "per-row"
        assert gpu_report.kernel_launches < cpu_report.kernel_launches

    def test_cpu_block_launches_do_not_grow_with_the_row_count(self, inference_inputs):
        """A Hamming search runs once over its block on the CPU, proven
        equal to its per-row loop by the primitive table, so no gate row:
        5 launches at any row count.  The cosine search's stage runs per
        row, so its launches grow."""
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        launches = {}
        for similarity in ("hamming", "cosine"):
            for rows in (40, 20):
                queries = kwargs["queries"][:rows]
                compiled = hdc_compile(search_program(rows, similarity), target="cpu")
                report = compiled.run(**{**kwargs, "queries": queries}).report
                launches[similarity, rows] = report.kernel_launches
                assert report.notes["stage_fallbacks"] == 0
        assert launches["hamming", 40] == launches["hamming", 20] == 5
        assert launches["cosine", 40] == 2 * launches["cosine", 20] == 40 * 5

    def test_single_output_accessor(self, inference_program, inference_inputs):
        compiled = hdc_compile(inference_program, target="cpu")
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        result = compiled.run(**kwargs)
        assert result.output is result.outputs[next(iter(result.outputs))]


class TestGranularPrograms:
    def test_granular_program_runs_on_both_targets(self):
        prog = H.Program("granular")

        @prog.entry(H.hv(16), H.hm(8, 32), H.hm(32, 16))
        def main(query, classes, rp):
            encoded = H.sign(H.matmul(query, rp))
            sims = H.cossim(encoded, H.sign(classes))
            return H.arg_max(sims)

        rng = np.random.default_rng(3)
        rp = (rng.integers(0, 2, size=(32, 16)) * 2 - 1).astype(np.float32)
        classes = rng.normal(size=(8, 32)).astype(np.float32)
        query = rng.normal(size=16).astype(np.float32)
        for target in ("cpu", "gpu"):
            out = hdc_compile(prog, target=target).run(query=query, classes=classes, rp=rp)
            assert 0 <= int(np.asarray(out.output)) < 8

    def test_random_init_ops_execute(self):
        prog = H.Program("randoms")

        @prog.entry(H.hv(32))
        def main(x):
            r = H.random_hypervector(32, seed=7)
            g = H.gaussian_hypervector(32, seed=8)
            return H.add(H.mul(x, r), g)

        out = hdc_compile(prog, target="cpu").run(x=np.ones(32, dtype=np.float32))
        assert np.asarray(out.output).shape == (32,)

    def test_unseeded_init_ops_draw_the_pinned_stream(self):
        """Unseeded initialisers share one stream per execution, seeded
        with the back end's seed however late it is first drawn from; a
        seeded one draws its own and leaves that stream alone."""
        prog = H.Program("unseeded")

        @prog.entry(H.hm(2, 3))
        def main(x):
            first = H.random_hypermatrix(2, 3)
            seeded = H.random_hypermatrix(2, 3, seed=5)
            second = H.random_hypermatrix(2, 8, element=H.int32)
            return H.add(x, first), seeded, second

        first = [[0.2739233672618866, -0.46042656898498535, -0.9180529713630676],
                 [-0.9669447541236877, 0.62654048204422, 0.8255111575126648]]
        seeded = [[0.6100058555603027, 0.6158815622329712, 0.030651122331619263],
                  [-0.4283972382545471, -0.8921386003494263, -0.23326224088668823]]
        second = [[1, 1, 1, 1, 1, 1, 1, 1], [-1, 1, 1, -1, -1, 1, 1, -1]]
        for target in ("cpu", "gpu"):
            compiled = hdc_compile(prog, target=target)
            for _ in range(2):  # every execution restarts the stream
                out = compiled.run(x=np.zeros((2, 3), dtype=np.float32)).outputs.values()
                assert [np.asarray(v).tolist() for v in out] == [first, seeded, second]

    def test_parallel_map_with_callable_runs_on_both(self):
        prog = H.Program("pmap_exec")

        def scale(row):
            return np.asarray(row) * 2.0

        @prog.entry(H.hm(6, 8))
        def main(rows):
            return H.parallel_map(scale, rows)

        data = np.arange(48, dtype=np.float32).reshape(6, 8)
        for target in ("cpu", "gpu"):
            out = np.asarray(hdc_compile(prog, target=target).run(rows=data).output)
            assert np.allclose(out, data * 2.0)


class TestApproximationsOnBackends:
    @pytest.fixture()
    def program_and_inputs(self, inference_program, inference_inputs):
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        return inference_program, kwargs, inference_inputs["labels"]

    def test_binarization_preserves_accuracy(self, program_and_inputs):
        prog, kwargs, labels = program_and_inputs
        exact = hdc_compile(prog, target="gpu").run(**kwargs)
        approx = hdc_compile(prog, target="gpu", config=ApproximationConfig(binarize=True)).run(**kwargs)
        exact_acc = (np.asarray(exact.output) == labels).mean()
        approx_acc = (np.asarray(approx.output) == labels).mean()
        assert approx_acc >= exact_acc - 0.1

    def test_binarization_reduces_transferred_bytes(self, program_and_inputs):
        prog, kwargs, _ = program_and_inputs
        exact = hdc_compile(prog, target="gpu").run(**kwargs)
        approx = hdc_compile(prog, target="gpu", config=ApproximationConfig(binarize=True)).run(**kwargs)
        assert approx.report.bytes_to_device < exact.report.bytes_to_device

    def test_perforation_preserves_accuracy_on_similarity(self, program_and_inputs):
        prog, kwargs, labels = program_and_inputs
        config = ApproximationConfig(perforations=(PerforationSpec("hamming_distance", stride=2),))
        approx = hdc_compile(prog, target="cpu", config=config).run(**kwargs)
        accuracy = (np.asarray(approx.output) == labels).mean()
        assert accuracy > 0.8

    def test_same_traced_program_compiles_under_many_configs(self, program_and_inputs):
        prog, kwargs, _ = program_and_inputs
        configs = [
            ApproximationConfig.none(),
            ApproximationConfig(binarize=True),
            ApproximationConfig(perforations=(PerforationSpec("matmul", stride=2),)),
            ApproximationConfig(binarize=True, binarize_reduce=True),
        ]
        outputs = []
        for config in configs:
            compiled = hdc_compile(prog, target="cpu", config=config)
            outputs.append(np.asarray(compiled.run(**kwargs).output))
        # Recompiling with the identity config afterwards still gives the
        # exact result (the traced program was never mutated in place).
        exact_again = np.asarray(hdc_compile(prog, target="cpu").run(**kwargs).output)
        assert np.array_equal(outputs[0], exact_again)


class TestBatchedFallback:
    """The batched stage path falls back per-row only on shape/type errors."""

    def _program_with_row_only_impl(self):
        prog = H.Program("row_only")

        def double_row(row):
            data = np.asarray(row)
            if data.ndim != 1:
                raise ValueError("row-only implementation")
            return data * 2.0

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(double_row, data, output_dim=8)

        return prog

    def test_row_only_impl_falls_back_and_records_reason(self):
        compiled = hdc_compile(self._program_with_row_only_impl(), target="gpu")
        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        result = compiled.run(data=data)
        assert np.array_equal(np.asarray(result.output), data * 2.0)
        assert "parallel_map" in result.report.notes["batched_fallback"]
        assert "row-only implementation" in result.report.notes["batched_fallback"]

    def test_batchable_impl_records_no_fallback(self):
        prog = H.Program("batchable")

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(lambda rows: np.asarray(rows) * 2.0, data, output_dim=8)

        result = hdc_compile(prog, target="gpu").run(data=np.ones((4, 8), dtype=np.float32))
        assert "batched_fallback" not in result.report.notes

    def test_genuine_bugs_propagate_instead_of_falling_back(self):
        prog = H.Program("buggy")

        def buggy(rows):
            raise RuntimeError("kernel bug")

        @prog.entry(H.hm(4, 8))
        def main(data):
            return H.parallel_map(buggy, data, output_dim=8)

        compiled = hdc_compile(prog, target="gpu")
        with pytest.raises(RuntimeError, match="kernel bug"):
            compiled.run(data=np.ones((4, 8), dtype=np.float32))

    def test_batched_cpu_backend_matches_reference(self, inference_program, inference_inputs):
        reference = hdc_compile(inference_program, target="cpu")
        batched = CPUBackend(batched=True).compile(inference_program)
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        assert np.array_equal(
            np.asarray(reference.run(**kwargs).output), np.asarray(batched.run(**kwargs).output)
        )


class TestBoundProgram:
    def test_bound_handle_matches_full_run(self, inference_program, inference_inputs):
        compiled = hdc_compile(inference_program, target="cpu")
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        full = np.asarray(compiled.run(**kwargs).output)
        handle = compiled.bind(
            class_hvs=kwargs["class_hvs"], rp_matrix=kwargs["rp_matrix"]
        )
        assert handle.free_names == ["queries"]
        bound = np.asarray(handle.run(queries=kwargs["queries"]).output)
        assert np.array_equal(full, bound)

    def test_bound_handle_rejects_bad_inputs(self, inference_program, inference_inputs):
        compiled = hdc_compile(inference_program, target="cpu")
        with pytest.raises(TypeError):
            compiled.bind(bogus=np.zeros(3))
        handle = compiled.bind(
            class_hvs=inference_inputs["class_hvs"], rp_matrix=inference_inputs["rp_matrix"]
        )
        with pytest.raises(TypeError):
            handle.run()
        with pytest.raises(TypeError):
            handle.run(queries=inference_inputs["queries"], class_hvs=inference_inputs["class_hvs"])

    def test_bound_handle_executes_through_other_backend_instance(
        self, inference_program, inference_inputs
    ):
        compiled = hdc_compile(inference_program, target="cpu")
        kwargs = {k: v for k, v in inference_inputs.items() if k != "labels"}
        batched_backend = CPUBackend(batched=True)
        handle = compiled.bind(
            backend=batched_backend,
            class_hvs=kwargs["class_hvs"],
            rp_matrix=kwargs["rp_matrix"],
        )
        result = handle.run(queries=kwargs["queries"])
        assert np.array_equal(np.asarray(result.output), np.asarray(compiled.run(**kwargs).output))
        with pytest.raises(ValueError):
            compiled.bind(backend=GPUBackend(), class_hvs=kwargs["class_hvs"])
