"""A compiled program resolved once per kernel column, and the plan's
``bipolar`` proof its Hamming steps read.

* The steps call the kernels through their ``repro.kernels`` module
  attributes, so a kernel patched after compile and bind is the one a
  served handle runs, once per counted launch.
* ``bipolar`` is written only where the primitive table proves both
  Hamming operands ±1, the verifier refuses a forged one, and a re-plan
  clears it; with it or without, a Hamming result is the per-row ``!=``
  count on every column.
* Concurrent first runs of one cold handle build its steps once.
"""

from __future__ import annotations

import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import hdcpp as H
from repro.apps import RelHD
from repro.backends import base
from repro.backends.cpu import CPUBackend
from repro.backends.gpu import GPUBackend
from repro.backends.kernelsets import LibraryKernelSet
from repro.ir.builder import clone_program
from repro.ir.ops import Opcode
from repro.ir.verifier import IRVerificationError, verify_plan
from repro.kernels import reference as ref
from repro.serving import InferenceServer
from repro.serving.registry import ModelRegistry
from repro.transforms import ApproximationConfig
from repro.transforms.plan import plan_program

DIM, CLASSES, ROWS = 128, 5, 8


def relhd_frame(seed: int = 7):
    rng = np.random.default_rng(seed)
    classes = np.sign(rng.standard_normal((CLASSES, DIM))).astype(np.float32)
    queries = np.sign(rng.standard_normal((ROWS, DIM))).astype(np.float32)
    return RelHD(dimension=DIM).as_servable(classes, name="relhd"), queries


def counting(calls: list, name: str, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


def patched_kernels(calls: list):
    """``reference.sign`` / ``hamming_distance`` / ``arg_min`` replaced by
    counting wrappers: every kernel the served RelHD search runs."""
    names = ("sign", "hamming_distance", "arg_min")
    return mock.patch.multiple(ref, **{name: counting(calls, name, getattr(ref, name)) for name in names})


class TestLateBinding:
    def test_a_served_handle_calls_a_kernel_patched_after_compile_and_bind(self):
        servable, queries = relhd_frame()
        deployment = ModelRegistry().register(servable)
        handle = deployment.handle_for(ROWS)
        expected = handle.run(**{servable.query_param: queries})  # compiled, bound, resolved
        calls: list = []
        with patched_kernels(calls):
            got = handle.run(**{servable.query_param: queries})
        assert sorted(calls) == ["arg_min", "hamming_distance", "sign", "sign"]
        assert len(calls) == got.report.kernel_launches == expected.report.kernel_launches
        assert np.asarray(got.output).tobytes() == np.asarray(expected.output).tobytes()

    def test_a_running_server_calls_the_patched_kernels(self):
        servable, queries = relhd_frame()
        server = InferenceServer(workers=("cpu",), max_batch_size=ROWS, max_wait_seconds=0.001)
        server.register(servable)
        with server:
            expected = server.infer_many(servable.name, list(queries))
            calls: list = []
            with patched_kernels(calls):
                got = server.infer_many(servable.name, list(queries))
        assert {"sign", "hamming_distance", "arg_min"} <= set(calls)
        assert [int(np.asarray(r)) for r in got] == [int(np.asarray(r)) for r in expected]


def hamming_program(kinds: tuple, rows: int, cols: int) -> H.Program:
    """``hamming_distance(lhs, rhs)`` over two parameters, each read as its
    kind: ``sign`` of it, the raw parameter, or the parameter typed 1-bit."""
    prog = H.Program("hamming_kinds")
    types = [H.hm(n, cols, H.binary if kind == "1-bit" else H.float32) for kind, n in zip(kinds, (rows, 3))]

    @prog.entry(*types)
    def main(lhs, rhs):
        lhs, rhs = (H.sign(v) if kind == "sign" else v for kind, v in zip(kinds, (lhs, rhs)))
        return H.hamming_distance(lhs, rhs)

    return prog


def hamming_op(program):
    [op] = [op for op in program.entry_function.ops if op.opcode is Opcode.HAMMING_DISTANCE]
    return op


KINDS = ("sign", "raw", "1-bit")


class TestBipolarProof:
    @given(
        st.sampled_from(KINDS),
        st.sampled_from(KINDS),
        st.integers(1, 6),
        st.integers(1, 70),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_result_is_the_per_row_count_on_every_column(self, lhs_kind, rhs_kind, rows, cols, seed):
        rng = np.random.default_rng(seed)
        lhs = rng.integers(-2, 3, (rows, cols)).astype(np.float32)
        rhs = rng.integers(-2, 3, (3, cols)).astype(np.float32)
        program = hamming_program((lhs_kind, rhs_kind), rows, cols)
        # The values the Hamming op reads: a 1-bit parameter is signed on the way in.
        a, b = (x if kind == "raw" else ref.sign(x) for kind, x in ((lhs_kind, lhs), (rhs_kind, rhs)))
        expected = np.array([[np.count_nonzero(row != other) for other in b] for row in a], dtype=np.float32)
        for backend in (CPUBackend(), CPUBackend(batched=True), GPUBackend()):
            compiled = backend.compile(program)
            assert hamming_op(compiled.program).attrs.get("bipolar", False) == (lhs_kind == rhs_kind == "sign")
            out = np.asarray(compiled.run(lhs=lhs, rhs=rhs).output)
            assert out.dtype == np.float32 and np.array_equal(out, expected), backend.kernel_set.column

    @pytest.mark.parametrize("kinds, scans", [(("sign", "sign"), 0), (("sign", "raw"), 2)])
    def test_only_a_proven_pair_skips_the_scan(self, kinds, scans):
        rng = np.random.default_rng(3)
        lhs, rhs = rng.standard_normal((4, 32)).astype(np.float32), np.ones((3, 32), np.float32)
        compiled = CPUBackend().compile(hamming_program(kinds, 4, 32))
        calls: list = []
        with mock.patch.object(ref, "_bipolar", counting(calls, "_bipolar", ref._bipolar)):
            compiled.run(lhs=lhs, rhs=rhs)
        assert len(calls) == scans

    def test_a_forged_bipolar_is_refused_and_a_replan_clears_it(self):
        compiled = CPUBackend().compile(hamming_program(("sign", "raw"), 4, 32))
        program = compiled.program
        verify_plan(program)
        hamming_op(program).attrs["bipolar"] = True
        with pytest.raises(IRVerificationError, match="bipolar"):
            verify_plan(program)
        clone = clone_program(program)
        assert hamming_op(clone).attrs.get("bipolar")
        plan_program(clone)
        assert "bipolar" not in hamming_op(clone).attrs
        verify_plan(clone)

    def test_a_signed_by_product_is_bipolar(self):
        """A binarized product planned ``signed_by`` its own result: the
        kernels sign it on every column, so a Hamming read of it is proven."""
        prog = H.Program("signed_product")

        @prog.entry(H.hm(4, 16), H.hm(32, 16), H.hm(3, 32))
        def main(x, rp, classes):
            return H.hamming_distance(H.matmul(x, rp), H.sign(classes))

        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        rp = np.sign(rng.standard_normal((32, 16))).astype(np.float32)
        classes = rng.standard_normal((3, 32)).astype(np.float32)
        signs = ref.sign(ref.matmul(x, rp))
        expected = np.array([[np.count_nonzero(r != c) for c in ref.sign(classes)] for r in signs], np.float32)
        for backend in (CPUBackend(), CPUBackend(batched=True)):
            compiled = backend.compile(prog, ApproximationConfig(binarize=True))
            [product] = [op for op in compiled.entry.ops if op.opcode is Opcode.MATMUL]
            assert product.attrs["signed_by"] is product.result
            assert hamming_op(compiled.program).attrs["bipolar"]
            assert np.array_equal(compiled.run(x=x, rp=rp, classes=classes).output, expected)


class TestResolvedOnce:
    def test_two_threads_on_one_cold_handle_build_its_steps_once(self):
        servable, queries = relhd_frame(seed=11)
        backend = CPUBackend(batched=True)
        compiled = backend.compile(servable.build_program(ROWS))
        handle = compiled.bind(backend=backend, **servable.constants)
        builds, resolve = [], base.resolve

        def slow_resolve(program, kernels):
            builds.append(kernels)
            time.sleep(0.02)  # widen the window in which the other thread arrives
            return resolve(program, kernels)

        start, results = threading.Barrier(2), [None, None]

        def run(slot: int) -> None:
            start.wait()
            results[slot] = handle.run(**{servable.query_param: queries})

        with mock.patch.object(base, "resolve", slow_resolve):
            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert builds == [LibraryKernelSet]
        first, second = results
        assert np.asarray(first.output).tobytes() == np.asarray(second.output).tobytes()
        assert first.report.kernel_launches == second.report.kernel_launches == 4
        assert first.report.notes["stage_vectorized"] == second.report.notes["stage_vectorized"] == 1

    def test_steps_are_per_column_and_not_saved_with_the_artifact(self):
        servable, queries = relhd_frame()
        backend = CPUBackend()
        compiled = backend.compile(servable.build_program(ROWS))
        compiled.bind(**servable.constants).run(**{servable.query_param: queries})
        entry = compiled.resolved(backend.kernel_set)
        assert compiled.resolved(backend.kernel_set) is entry
        assert compiled.resolved(LibraryKernelSet) is not entry
        restored = backend.deserialize_compiled(backend.serialize_compiled(compiled))
        assert restored._resolved == {}
