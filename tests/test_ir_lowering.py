"""Tests for the HPVM-HDC IR: the traced op list, its verifier and plan."""

import pytest

from repro import hdcpp as H
from repro.apps import HDClassification
from repro.backends import CPUBackend
from repro.hdcpp.program import Value
from repro.ir import print_program, verify_program
from repro.ir.builder import clone_program
from repro.ir.ops import Opcode, consumers, infer_result_type, use_counts
from repro.ir.verifier import IRVerificationError, verify_plan


def build_inference_program():
    prog = H.Program("lowering_test")

    @prog.define(H.hv(16), H.hm(5, 64), H.hm(64, 16))
    def infer_one(query, classes, rp):
        encoded = H.sign(H.matmul(query, rp))
        return H.arg_min(H.hamming_distance(encoded, classes))

    @prog.entry(H.hm(20, 16), H.hm(5, 64), H.hm(64, 16))
    def main(queries, classes, rp):
        return H.inference_loop(infer_one, queries, classes, encoder=rp)

    return prog


class TestOpList:
    """The traced op list is the IR: each primitive is one op of its
    function, and a stage or parallel map names its body by ``impl``."""

    def test_granular_ops_are_the_entry_op_list(self):
        prog = H.Program("granular")

        @prog.entry(H.hv(16), H.hm(5, 64), H.hm(64, 16))
        def main(query, classes, rp):
            encoded = H.sign(H.matmul(query, rp))
            distances = H.hamming_distance(encoded, classes)
            return H.arg_min(distances)

        assert [op.opcode for op in prog.entry_function.ops] == [
            Opcode.MATMUL, Opcode.SIGN, Opcode.HAMMING_DISTANCE, Opcode.ARG_MIN,
        ]
        verify_program(prog)

    def test_ops_read_the_values_before_them(self):
        prog = H.Program("edges")

        @prog.entry(H.hv(16), H.hm(64, 16))
        def main(query, rp):
            return H.sign(H.matmul(query, rp))

        # The parameters feed the matmul, which feeds sign, which is the
        # function's result.
        fn = prog.entry_function
        matmul, sign = fn.ops
        assert matmul.operands == fn.params
        assert sign.operands == [matmul.result]
        assert fn.results == [sign.result]

    def test_a_stage_names_its_impl(self):
        prog = build_inference_program()
        (stage,) = prog.entry_function.ops
        assert stage.opcode is Opcode.INFERENCE_LOOP
        # The stage is one op: its implementation stays a program
        # function, named by the op.
        assert stage.attrs["impl"] == "infer_one"
        assert len(prog.function("infer_one").ops) == 4
        verify_program(prog)

    def test_a_parallel_map_names_its_body_and_maps_its_rows(self):
        prog = H.Program("pmap")

        @prog.define(H.hv(8), H.hm(32, 8))
        def encode(row, rp):
            return H.sign(H.matmul(row, rp))

        @prog.entry(H.hm(12, 8), H.hm(32, 8))
        def main(rows, rp):
            return H.parallel_map(encode, rows, rp, output_dim=32)

        (pmap,) = prog.entry_function.ops
        assert pmap.opcode is Opcode.PARALLEL_MAP and pmap.attrs["impl"] == "encode"
        assert pmap.result.type.rows == pmap.operands[0].type.rows == 12  # one instance per row
        assert [op.opcode for op in prog.function("encode").ops] == [Opcode.MATMUL, Opcode.SIGN]
        verify_program(prog)

    def test_printer_renders_hierarchy(self):
        text = print_program(build_inference_program())
        assert "hdc.inference_loop" in text
        assert "impl=infer_one" in text
        assert "func @infer_one(" in text


class TestCloneProgram:
    def test_clone_is_deep(self):
        prog = build_inference_program()
        clone = clone_program(prog)
        assert set(clone.functions) == set(prog.functions)
        original_op = prog.function("infer_one").ops[0]
        cloned_op = clone.function("infer_one").ops[0]
        assert original_op is not cloned_op
        assert original_op.result is not cloned_op.result
        # Mutating the clone's types must not affect the original.
        cloned_op.result.type = cloned_op.result.type.with_element(H.binary)
        assert original_op.result.type.element is H.float32

    def test_clone_verifies(self):
        clone = clone_program(build_inference_program())
        verify_program(clone)


def _read_before_defined(prog):
    prog.function("infer_one").ops[:2] = prog.function("infer_one").ops[1::-1]


def _stray_result(prog):
    prog.entry_function.results[0] = Value(H.IndexVectorType(20), name="stray")


def _no_impl(prog):
    del prog.entry_function.ops[0].attrs["impl"]


def _dangling_impl(prog):
    prog.entry_function.ops[0].attrs["impl"] = "nope"


class TestVerifier:
    def test_valid_program_passes(self):
        verify_program(build_inference_program())

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_read_before_defined, "used before definition"),
            (_stray_result, "result %stray is not produced"),
            (_no_impl, "has no implementation function"),
            (_dangling_impl, "names @nope as its implementation"),
        ],
        ids=["read-before-defined", "stray-result", "no-impl", "dangling-impl"],
    )
    def test_a_broken_program_is_refused_by_the_verifier_and_the_compile(self, corrupt, message):
        """Each check the op list stands on alone: ``verify_program`` names
        the fault, and so does ``Backend.compile`` (its pass pipeline
        verifies before any pass)."""
        prog = build_inference_program()
        corrupt(prog)
        with pytest.raises(IRVerificationError, match=message):
            verify_program(prog)
        with pytest.raises(IRVerificationError, match=message):
            CPUBackend().compile(prog)

    def test_a_dangling_impl_is_refused_by_the_plan_check(self):
        """``verify_plan`` reads a proven stage's ``impl`` too, and names a
        missing function the same way."""
        compiled = CPUBackend().compile(build_inference_program())
        _dangling_impl(compiled.program)
        assert "proven" in compiled.entry.ops[0].attrs
        with pytest.raises(IRVerificationError, match="names @nope as its implementation"):
            verify_plan(compiled.program)

    def test_red_perf_on_non_reduce_rejected(self):
        prog = H.Program("bad_red_perf")

        @prog.entry(H.hv(8))
        def main(x):
            y = H.sign(x)
            H.red_perf(y, 0, 8, 2)
            return y

        with pytest.raises(IRVerificationError):
            verify_program(prog)

    def test_type_inference_shape_mismatch_detected(self):
        prog = H.Program("bad_types")

        @prog.entry(H.hv(8), H.hm(4, 8))
        def main(q, c):
            return H.hamming_distance(q, c)

        # Corrupt the recorded result type to a wrong shape.
        op = prog.function("main").ops[0]
        op.result.type = H.hv(99)
        with pytest.raises(IRVerificationError):
            verify_program(prog)

    def test_an_op_reading_a_produced_value_twice_verifies(self):
        """``mul(%p, %p)`` reads ``%p`` in two operand slots: one value
        defined before its reader, so the op list verifies."""
        prog = H.Program("square")

        @prog.entry(H.hv(16), H.hm(64, 16))
        def main(query, rp):
            product = H.matmul(query, rp)
            return H.mul(product, product)

        verify_program(prog)
        assert [op.opcode for op in prog.entry_function.ops] == [Opcode.MATMUL, Opcode.MUL]


class TestPlan:
    """The plan pass's attributes (``repro.transforms.plan``) as the IR
    shows and checks them, on HD-Classification compiled for the CPU."""

    @pytest.fixture
    def compiled(self):
        program = HDClassification(dimension=64, epochs=1).build_program(10, 3, 20, 8)
        return CPUBackend().compile(program)

    def test_the_printed_program_shows_the_plan(self, compiled):
        text = print_program(compiled.program)
        search, main = (compiled.program.function(n) for n in ("search_one", "main"))
        product, sign = search.ops[:2]
        assert product.opcode is Opcode.MATMUL and sign.opcode is Opcode.SIGN
        assert f"= hdc.matmul(%{product.operands[0].name}, %rp) signed_by=%{sign.result.name}\n" in text
        encoded, trained, inferred = main.ops
        assert trained.opcode is Opcode.TRAINING_LOOP and f"fused_with=%{encoded.result.name}," in text
        # The traced search is proven on the reference column (its product is
        # signed there), and so is the traced rule (one ordered retrain); the
        # eager training encode is never proven.
        assert inferred.attrs["proven"] == trained.attrs["proven"] == ("kernel",)
        assert "proven" not in encoded.attrs
        assert "impl=rule, proven=('kernel',)" in text and "impl=search_one, proven=('kernel',)" in text
        verify_program(compiled.program)
        verify_plan(compiled.program)

    def test_a_clone_carries_its_own_plan(self, compiled):
        clone = clone_program(compiled.program)
        verify_program(clone)
        product, sign = clone.function("search_one").ops[:2]
        assert product.attrs["signed_by"] is sign.result
        recompiled = CPUBackend().compile(compiled.program)
        assert print_program(recompiled.program) == print_program(compiled.program)

    def test_a_dangling_signed_by_is_rejected(self, compiled):
        product = compiled.program.function("search_one").ops[0]
        product.attrs["signed_by"] = Value(product.result.type, name="elsewhere")
        with pytest.raises(IRVerificationError, match="signed_by %elsewhere"):
            verify_program(compiled.program)

    @pytest.mark.parametrize(
        "stage, columns", [(2, ("kernel", "library")), (1, ("kernel", "library")), (0, ("kernel",))]
    )
    def test_a_proof_the_table_does_not_give_is_rejected(self, compiled, stage, columns):
        """The search is not proven on ``library`` (its product is a
        ``gemm`` there), nor the rule (``retrain``'s mini-batch form is a
        declared rule there), and an eager encode is proven nowhere."""
        op = compiled.program.function("main").ops[stage]
        op.attrs["proven"] = columns
        with pytest.raises(IRVerificationError, match="is proven"):
            verify_plan(compiled.program)

    @pytest.mark.parametrize(
        "rule",
        [
            lambda rows, labels, memory: H.retrain(H.sign(rows), rows, labels),
            lambda rows, labels, memory: H.retrain(memory, H.sign(memory), labels),
            lambda rows, labels, memory: H.sign_flip(H.retrain(memory, rows, labels)),
            lambda rows, labels, memory: H.retrain(H.retrain(memory, rows, labels), rows, labels),
            lambda rows, labels, memory: memory,
        ],
        ids=["rows-reach-the-memory", "memory-read-as-rows", "result-not-retrains", "two-ordered-ops", "no-op"],
    )
    def test_a_training_rule_the_table_does_not_prove_is_refused(self, rule):
        """A rule is proven only as one ordered ``retrain`` of the row ops'
        rows into the memory as it stands, its result the function's: the
        plan writes no ``proven`` elsewhere, and the verifier refuses one."""
        prog = H.Program("rules")
        types = (H.hm(3, 16), H.IndexVectorType(3), H.hm(3, 16))
        traced = prog.define(*types, name="rule")(rule)
        prog.entry(*types)(lambda rows, labels, memory: H.training_loop(traced, rows, labels, memory))
        compiled = CPUBackend().compile(prog)
        op = compiled.entry.ops[0]
        assert "proven" not in op.attrs
        op.attrs["proven"] = ("kernel",)
        with pytest.raises(IRVerificationError, match="is proven"):
            verify_plan(compiled.program)

    def test_an_op_reading_a_value_twice_is_two_uses(self):
        """Use counts are per operand slot: ``mul(%p, %p)`` reads ``%p``
        twice, and ``consumers`` lists it once per slot."""
        prog = H.Program("twice")

        @prog.entry(H.hv(16), H.hm(64, 16))
        def main(query, rp):
            product = H.matmul(query, rp)
            return H.sign(H.mul(product, product))

        fn = prog.function("main")
        product, square = fn.ops[:2]
        assert consumers(fn.ops)[product.result.id] == [square, square]
        assert use_counts(fn)[product.result.id] == 2
        assert use_counts(fn)[fn.results[0].id] == 1

    def test_the_plan_refuses_signed_by_when_one_op_reads_the_product_twice(self):
        """A product the ``sign`` right after it reads once and one more op
        reads twice has three uses: it is read unsigned, so never
        ``signed_by``, and the stage reading it is proven nowhere."""
        prog = H.Program("read_twice")

        @prog.define(H.hv(16), H.hm(64, 16))
        def encode(query, rp):
            product = H.matmul(query, rp)
            return H.add(H.sign(product), H.mul(product, product))

        @prog.entry(H.hm(4, 16), H.hm(64, 16))
        def main(batch, rp):
            return H.encoding_loop(encode, batch, rp)

        compiled = CPUBackend().compile(prog)
        product = compiled.program.function("encode").ops[0]
        assert use_counts(compiled.program.function("encode"))[product.result.id] == 3
        assert "signed_by" not in product.attrs
        assert "proven" not in compiled.entry.ops[0].attrs

    def test_a_fused_encoding_with_a_second_use_is_rejected(self, compiled):
        main = compiled.program.function("main")
        encoded = main.ops[0].result
        main.results.append(encoded)
        with pytest.raises(IRVerificationError, match=f"fused_with %{encoded.name}"):
            verify_program(compiled.program)


class TestTypeInference:
    def test_sign_preserves_element(self):
        assert infer_result_type(Opcode.SIGN, [H.hv(8, H.int16)]) == H.hv(8, H.int16)

    def test_similarity_result_shapes(self):
        assert infer_result_type(Opcode.COSSIM, [H.hv(8), H.hm(3, 8)]) == H.hv(3)
        assert infer_result_type(Opcode.HAMMING_DISTANCE, [H.hm(4, 8), H.hm(3, 8)]) == H.hm(4, 3)
        assert infer_result_type(Opcode.COSSIM, [H.hv(8), H.hv(8)]) == H.ScalarType(H.float32)

    def test_matmul_requires_matching_contraction(self):
        with pytest.raises(TypeError):
            infer_result_type(Opcode.MATMUL, [H.hv(8), H.hm(4, 9)])

    def test_argmin_matrix_returns_index_vector(self):
        assert infer_result_type(Opcode.ARG_MIN, [H.hm(7, 3)]) == H.IndexVectorType(7)

    def test_a_negative_row_count_is_refused(self):
        """A parallel loop over ``rows`` runs one instance per row: zero
        rows is an empty batch, fewer is no type at all."""
        assert H.hm(0, 8).shape == (0, 8)
        with pytest.raises(ValueError, match="negative row count"):
            H.hm(-1, 8)

    def test_unknown_opcode_rejected(self):
        with pytest.raises(KeyError):
            infer_result_type("not-an-op", [])
