"""The per-execution float64 cast memo of the reference reductions.

``reference.matmul`` / ``reference.cossim`` read their right-hand operand's
float64 copy through ``repro.kernels.memo.float64_columns``.  Inside one
compiled-program execution the copy is made once per (operand, window);
outside one it is made per call.  Either way the answer is bit-identical.
"""

from __future__ import annotations

import contextlib
import threading
from unittest import mock

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassification
from repro.backends.cpu import CPUBackend
from repro.kernels import memo, reference as ref

WINDOWS = [(0, None, 1), (3, 45, 2), (0, 64, 5)]


@contextlib.contextmanager
def one_execution():
    """The memo scope ``CompiledProgram._execute_env`` opens."""
    token = memo.EXECUTION.set({})
    try:
        yield memo.EXECUTION.get()
    finally:
        memo.EXECUTION.reset(token)


@contextlib.contextmanager
def spy_casts():
    """Record ``(source, float64 copy)`` for every call of the helper."""
    calls, real = [], memo.float64_columns

    def spy(source, window):
        cast = real(source, window)
        calls.append((source, cast))
        return cast

    with mock.patch.object(memo, "float64_columns", spy):
        yield calls


@pytest.fixture
def operands():
    rng = np.random.default_rng(5)
    return rng.standard_normal((6, 64)).astype(np.float32), rng.standard_normal((9, 64)).astype(np.float32)


class TestCastOncePerExecution:
    def test_per_row_classification_copies_rp_once_per_execution(self, tiny_isolet):
        """HD-Classification on the per-row CPU route: every training and
        test row projects through ``matmul`` (eager in the search's rule at
        n = 1, interpreted in ``search_one``), and all of them share one float64
        copy of ``rp_matrix`` per execution."""
        app = HDClassification(dimension=64, epochs=1)
        data = tiny_isolet
        n_train, n_test = data.train_features.shape[0], data.test_features.shape[0]
        program = app.build_program(data.n_features, data.n_classes, n_train, n_test)
        compiled = CPUBackend(batched=False).compile(program)
        rp = np.sign(np.random.default_rng(1).standard_normal((64, data.n_features))).astype(np.float32)
        inputs = dict(
            train_queries=data.train_features, train_labels=data.train_labels,
            test_queries=data.test_features, rp_matrix=rp,
            classes=np.zeros((data.n_classes, 64), dtype=np.float32),
        )
        answers = []
        for _ in range(2):
            with spy_casts() as calls:
                answers.append(compiled.run(**inputs).outputs)
            copies = [cast for source, cast in calls if source is rp]
            assert len(copies) == n_train + n_test
            assert len({id(cast) for cast in copies}) == 1
            assert not copies[0].flags.writeable
        assert all(np.array_equal(answers[0][k], answers[1][k]) for k in answers[0])
        assert memo.EXECUTION.get() is None

    @pytest.mark.parametrize("begin, end, stride", WINDOWS)
    def test_memo_is_bit_identical_to_the_per_call_cast(self, operands, begin, end, stride):
        lhs, rhs = operands
        for kernel in (ref.matmul, ref.cossim):
            for query in (lhs, lhs[0]):
                direct = kernel(query, rhs, begin, end, stride)
                with one_execution():
                    first = kernel(query, rhs, begin, end, stride)
                    again = kernel(query, rhs, begin, end, stride)
                assert np.array_equal(direct, first) and np.array_equal(direct, again)

    def test_two_windows_over_one_source_are_two_entries(self, operands):
        lhs, rhs = operands
        full, perforated = (0, None, 1), (3, 45, 2)
        direct = [ref.matmul(lhs, rhs, *full), ref.cossim(lhs, rhs, *perforated)]
        with one_execution() as casts:
            for _ in range(3):
                memoized = [ref.matmul(lhs, rhs, *full), ref.cossim(lhs, rhs, *perforated)]
                assert all(np.array_equal(a, b) for a, b in zip(direct, memoized))
            assert len(casts) == 2
            assert sorted(cast.shape for _, cast in casts.values()) == [(9, 21), (9, 64)]

    def test_memo_is_bounded_least_recently_used_out(self, operands):
        lhs, rhs = operands
        others = [rhs.copy() for _ in range(memo.MAX_ENTRIES + 2)]
        with one_execution() as casts:
            ref.matmul(lhs, rhs)
            for other in others:
                ref.matmul(lhs, other)
                ref.matmul(lhs, rhs)  # kept hot
                assert len(casts) <= memo.MAX_ENTRIES
            held = [source for source, _ in casts.values()]
            assert any(source is rhs for source in held)
            assert not any(source is others[0] for source in held)

    def test_an_in_place_edit_between_runs_is_read_fresh(self):
        """The memo ends with its execution: a constant edited in place
        between two runs of one compiled program is cast again."""
        prog = H.Program("project")

        @prog.define(H.hv(16), H.hm(32, 16))
        def project(row, rp):
            return H.matmul(row, rp)

        @prog.entry(H.hm(5, 16), H.hm(32, 16))
        def main(rows, rp):
            return H.encoding_loop(project, rows, rp)

        rng = np.random.default_rng(3)
        rows = rng.standard_normal((5, 16)).astype(np.float32)
        rp = rng.standard_normal((32, 16)).astype(np.float32)
        compiled = CPUBackend(batched=False).compile(prog)
        before = np.asarray(compiled.run(rows=rows, rp=rp).output)
        rp[:, :4] *= -3.0
        after = np.asarray(compiled.run(rows=rows, rp=rp).output)
        fresh = CPUBackend(batched=False).compile(prog).run(rows=rows, rp=rp.copy())
        assert np.array_equal(after, np.asarray(fresh.output))
        assert not np.array_equal(before, after)

    def test_outside_an_execution_and_on_other_threads_casts_per_call(self, operands):
        lhs, rhs = operands
        assert memo.EXECUTION.get() is None
        assert memo.float64_columns(rhs, slice(0, 64, 1)) is not memo.float64_columns(rhs, slice(0, 64, 1))
        seen = []
        with one_execution():
            worker = threading.Thread(target=lambda: seen.append(memo.EXECUTION.get()))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive() and seen == [None]
