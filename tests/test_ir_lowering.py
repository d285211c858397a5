"""Tests for lowering traced programs to the HPVM-HDC dataflow graph."""

import pytest

from repro import hdcpp as H
from repro.apps import HDClassification
from repro.backends import CPUBackend
from repro.hdcpp.program import Value
from repro.ir import lower_program, print_graph, print_program, verify_graph, verify_program
from repro.ir.builder import clone_program
from repro.ir.dataflow import DataflowGraph, InternalNode, LeafNode, Target
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


class TestLowering:
    def test_granular_ops_become_leaf_nodes(self):
        prog = H.Program("granular")

        @prog.entry(H.hv(16), H.hm(5, 64), H.hm(64, 16))
        def main(query, classes, rp):
            encoded = H.sign(H.matmul(query, rp))
            distances = H.hamming_distance(encoded, classes)
            return H.arg_min(distances)

        graph = lower_program(prog)
        assert len(graph.leaf_nodes()) == 4
        assert all(isinstance(node, LeafNode) for node in graph.nodes.values())
        verify_graph(graph)

    def test_edges_follow_dataflow(self):
        prog = H.Program("edges")

        @prog.entry(H.hv(16), H.hm(64, 16))
        def main(query, rp):
            return H.sign(H.matmul(query, rp))

        graph = lower_program(prog)
        # Two boundary inputs feed the matmul node, which feeds sign, which
        # feeds the boundary output.
        boundary_in = [e for e in graph.edges if e.src == DataflowGraph.BOUNDARY]
        boundary_out = [e for e in graph.edges if e.dst == DataflowGraph.BOUNDARY]
        assert len(boundary_in) == 2
        assert len(boundary_out) == 1

    def test_reduce_nodes_get_dynamic_instances(self):
        prog = H.Program("instances")

        @prog.entry(H.hv(64), H.hm(5, 64))
        def main(query, classes):
            return H.hamming_distance(query, classes)

        graph = lower_program(prog)
        hamming_node = next(n for n in graph.leaf_nodes() if n.ops[0].opcode == Opcode.HAMMING_DISTANCE)
        assert hamming_node.dynamic_instances == 5

    def test_stage_node_names_its_impl_and_targets(self):
        prog = build_inference_program()
        graph = lower_program(prog)
        stage_nodes = [n for n in graph.leaf_nodes() if n.ops[0].opcode == Opcode.INFERENCE_LOOP]
        assert len(stage_nodes) == 1
        stage = stage_nodes[0]
        assert set(stage.targets) == {Target.CPU, Target.GPU, Target.HDC_ASIC, Target.HDC_RERAM}
        # The stage is one node: its implementation stays a program
        # function, named by the op, and is not lowered into the graph.
        assert stage.ops[0].attrs["impl"] == "infer_one"
        assert [node.name for node in graph.walk_nodes()] == [stage.name]
        assert len(prog.function("infer_one").ops) == 4
        verify_graph(graph)

    def test_parallel_map_becomes_internal_node(self):
        prog = H.Program("pmap")

        @prog.define(H.hv(8), H.hm(32, 8))
        def encode(row, rp):
            return H.sign(H.matmul(row, rp))

        @prog.entry(H.hm(12, 8), H.hm(32, 8))
        def main(rows, rp):
            return H.parallel_map(encode, rows, rp, output_dim=32)

        graph = lower_program(prog)
        internal = graph.internal_nodes()
        assert len(internal) == 1
        assert internal[0].dynamic_instances == 12
        assert internal[0].subgraph is not None
        assert internal[0].op is not None
        verify_graph(graph)

    def test_topological_order_and_walks(self):
        prog = H.Program("walks")

        @prog.define(H.hv(16), H.hm(64, 16))
        def encode(row, rp):
            return H.sign(H.matmul(row, rp))

        @prog.entry(H.hm(20, 16), H.hm(64, 16))
        def main(rows, rp):
            return H.parallel_map(encode, rows, extra=rp, output_dim=64)

        graph = lower_program(prog)
        order = graph.topological_order()
        assert len(order) == len(graph.nodes)
        all_ops = list(graph.walk_ops())  # recursive: into the map's body
        assert any(op.opcode == Opcode.MATMUL for _, op in all_ops)
        assert len(list(graph.walk_values())) > 0

    def test_annotate_targets(self):
        graph = lower_program(build_inference_program())
        graph.annotate_targets([Target.CPU])
        assert all(node.targets == {Target.CPU} for node in graph.walk_nodes())

    def test_printer_renders_hierarchy(self):
        graph = lower_program(build_inference_program())
        text = print_graph(graph)
        assert "hdc.inference_loop" in text
        assert "impl=infer_one" in text
        assert "edge" in text


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
        verify_graph(lower_program(clone))


class TestVerifier:
    def test_valid_program_passes(self):
        verify_program(build_inference_program())

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

    def test_an_op_reading_a_produced_value_twice_is_no_cycle(self):
        """``mul(%p, %p)`` gives two edges from ``%p``'s node to its own:
        still one dependency, so the graph is ordered, not a cycle."""
        prog = H.Program("square")

        @prog.entry(H.hv(16), H.hm(64, 16))
        def main(query, rp):
            product = H.matmul(query, rp)
            return H.mul(product, product)

        graph = lower_program(prog)
        verify_graph(graph)
        assert [node.ops[0].opcode for node in graph.topological_order()] == [Opcode.MATMUL, Opcode.MUL]

    def test_missing_target_annotation_detected(self):
        graph = lower_program(build_inference_program())
        next(iter(graph.nodes.values())).targets = set()
        with pytest.raises(IRVerificationError):
            verify_graph(graph)


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

    def test_unknown_opcode_rejected(self):
        with pytest.raises(KeyError):
            infer_result_type("not-an-op", [])
