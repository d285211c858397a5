"""The per-execution memo of the reference reductions.

``reference.matmul`` / ``reference.cossim`` read their right-hand operand's
float64 copy through ``repro.kernels.memo.float64_columns``, and the
certified ``sign ∘ matmul`` reads its projection's scan through
``memo.projection``.  Inside one compiled-program execution each is made
once per (operand, window); outside one, per call.  Either way the answer
is bit-identical.
"""

from __future__ import annotations

import contextlib
import threading
from unittest import mock

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassification
from repro.apps.classification import classification_search
from repro.backends.cpu import CPUBackend
from repro.kernels import batched, memo, reference as ref

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


@contextlib.contextmanager
def spy_scans():
    """Record ``(source, scan)`` for every call of ``memo.projection``."""
    calls, real = [], memo.projection

    def spy(source, window):
        scan = real(source, window)
        calls.append((source, scan))
        return scan

    with mock.patch.object(memo, "projection", spy):
        yield calls


@pytest.fixture
def operands():
    rng = np.random.default_rng(5)
    return rng.standard_normal((6, 64)).astype(np.float32), rng.standard_normal((9, 64)).astype(np.float32)


class TestCastOncePerExecution:
    def test_per_row_classification_casts_no_rp_and_scans_it_once_per_execution(self, tiny_isolet):
        """HD-Classification's cosine search on the CPU: every test row
        projects through ``sign ∘ matmul`` in ``search_one``, which runs per
        row (``cossim`` reassociates with the row count), beside an
        ``encoding_loop`` of the training rows that projects its block once
        plus the gate's first and last row.  Each runs the certified
        float32 form: no float64 copy of ``rp_matrix`` is made, every
        projection shares one ``max|r|`` scan per execution, and the
        answers equal those of ``sign(reference.matmul)``.  The second
        execution reuses the gate's verdict, so its block is projected
        once.  (No training between the stages: the cosine rule's eager
        ``cossim`` casts a fresh class memory every step, which would evict
        the scan from the bounded memo.)"""
        data, search = tiny_isolet, classification_search("cosine")
        n_train, n_test = data.train_features.shape[0], data.test_features.shape[0]
        program = H.Program("cosine_search")
        infer = search.define(program, H.hv(data.n_features), H.hm(data.n_classes, 64), H.hm(64, data.n_features))

        @program.entry(
            H.hm(n_train, data.n_features), H.hm(n_test, data.n_features),
            H.hm(64, data.n_features), H.hm(data.n_classes, 64),
        )
        def main(train_queries, test_queries, rp_matrix, classes):
            encoded = H.encoding_loop(search.encode, train_queries, rp_matrix)
            return encoded, H.inference_loop(infer, test_queries, classes, encoder=rp_matrix)

        rng = np.random.default_rng(1)
        rp = np.sign(rng.standard_normal((64, data.n_features))).astype(np.float32)
        inputs = dict(
            train_queries=data.train_features, test_queries=data.test_features, rp_matrix=rp,
            classes=rng.standard_normal((data.n_classes, 64)).astype(np.float32),
        )
        compiled = CPUBackend(batched=False).compile(program)
        self._check_scans(compiled, inputs, calls=((1 + 2) + n_test, 1 + n_test))
        profile = compiled.run(**inputs).report.notes["stage_profile"]
        assert [entry["route"] for entry in profile] == ["vectorized", "per-row"]

    def test_block_classification_scans_rp_once_per_execution(self, tiny_isolet):
        """HD-Classification (Hamming search) runs both row-map stages over
        their blocks: one projection a block plus, for the eager training
        encode until the gate's verdict is kept, its first and last row
        (the traced search is proven: no gate rows), whatever the row
        counts.  Each training row is projected once per execution, not
        once per epoch; still one scan per execution and no float64 copy
        of ``rp_matrix``."""
        data = tiny_isolet
        app = HDClassification(dimension=64, epochs=2)
        n_train, n_test = data.train_features.shape[0], data.test_features.shape[0]
        program = app.build_program(data.n_features, data.n_classes, n_train, n_test)
        rp = np.sign(np.random.default_rng(1).standard_normal((64, data.n_features))).astype(np.float32)
        inputs = dict(
            train_queries=data.train_features, train_labels=data.train_labels,
            test_queries=data.test_features, rp_matrix=rp,
            classes=np.zeros((data.n_classes, 64), dtype=np.float32),
        )
        self._check_scans(CPUBackend(batched=False).compile(program), inputs, calls=((1 + 2) + 1, 2))

    @staticmethod
    def _check_scans(compiled, inputs: dict, calls: tuple) -> None:
        """``calls``: projections of ``rp_matrix`` in the first and second
        execution; one scan serves each execution's projections."""
        rp = inputs["rp_matrix"]
        answers, scans = [], []
        for expected in calls:
            with spy_casts() as casts, spy_scans() as projections:
                result = compiled.run(**inputs)
            answers.append(result.outputs)
            assert result.report.notes["stage_fallbacks"] == 0
            assert not [cast for source, cast in casts if source is rp]
            found = [scan for source, scan in projections if source is rp]
            assert len(found) == expected
            assert len({id(scan) for scan in found}) == 1
            assert not found[0].columns.flags.writeable
            scans.append(found[0])
        assert scans[0] is not scans[1]  # the scan ends with its execution
        assert all(np.array_equal(answers[0][k], answers[1][k]) for k in answers[0])
        with mock.patch.object(batched, "sign_gemm", lambda *a, **k: ref.sign(ref.matmul(*a, **k))):
            reference = compiled.run(**inputs).outputs
        assert answers[0].keys() == reference.keys()
        for key, value in reference.items():
            assert np.asarray(answers[0][key]).tobytes() == np.asarray(value).tobytes(), key
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

    def test_an_in_place_edit_between_runs_is_rescanned(self):
        """The certified sign's projection scan ends with its execution too:
        ``max|r|`` and integrality follow an in-place edit of the constant."""
        prog = H.Program("project_and_sign")

        @prog.define(H.hv(16), H.hm(32, 16))
        def encode(row, rp):
            return H.sign(H.matmul(row, rp))

        @prog.entry(H.hm(5, 16), H.hm(32, 16))
        def main(rows, rp):
            return H.encoding_loop(encode, rows, rp)

        rng = np.random.default_rng(3)
        rows = rng.standard_normal((5, 16)).astype(np.float32)
        rp = np.sign(rng.standard_normal((32, 16))).astype(np.float32)
        compiled = CPUBackend(batched=False).compile(prog)
        scans = []
        for edit in (None, 2.5):
            if edit is not None:
                rp[:, :4] *= -edit
            with spy_scans() as calls:
                out = np.asarray(compiled.run(rows=rows, rp=rp).output)
            scans.append({(scan.r_max, scan.integral) for source, scan in calls if source is rp})
            fresh = CPUBackend(batched=False).compile(prog).run(rows=rows, rp=rp.copy())
            assert np.array_equal(out, np.asarray(fresh.output))
        assert scans == [{(1.0, True)}, {(2.5, False)}]

    def test_scans_and_casts_share_the_bound(self, operands):
        lhs, rhs = operands
        sources = [rhs * (k + 1) for k in range(memo.MAX_ENTRIES + 2)]
        with one_execution() as entries:
            for source in sources:
                batched.sign_gemm(lhs, source)
                ref.cossim(lhs, source)
                assert len(entries) <= memo.MAX_ENTRIES
            held = [source for source, _ in entries.values()]
        assert held[-1] is sources[-1] and not any(source is sources[0] for source in held)

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
