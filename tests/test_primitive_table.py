"""The primitive table is complete and its columns agree.

Every case below is generated from the rows of
:data:`repro.ir.ops.PRIMITIVES`: which operand shapes a primitive takes is
asked of its type rule, how many operands it has is read off its public
binding, and the attribute values come from one sample per attribute name.
A new row is therefore covered the moment it is written — eager mode, the
reference CPU lowering, the batched CPU lowering and the GPU lowering must
agree on it, with and without a perforation window where it reduces.

The second half pins the contract the end-to-end benchmark's kernel ring
relies on: kernels are reached through the ``repro.kernels`` module
attributes on every call, on every route.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import hdcpp as H
from repro.backends import compile as hdc_compile
from repro.hdcpp import primitives
from repro.ir.ops import (
    IMPL_OPS,
    INIT_OPS,
    PACKED_OPS,
    PERFORATABLE,
    PRIMITIVES,
    REDUCE_OPS,
    ROW_MAP_OPS,
    SCORE_OPS,
    Opcode,
    infer_result_type,
)
from repro.kernels import binary, memo, reference
from repro.transforms import ApproximationConfig, PerforationSpec

DIM, ROWS = 10, 3
HV, HM = H.hv(DIM), H.hm(ROWS, DIM)
LABEL, LABELS = H.IndexType(), H.IndexVectorType(ROWS)
#: Candidate operand shapes; the type rule picks the ones a row admits.
CANDIDATES = {
    1: [(HV,), (HM,)],
    2: [(HV, HV), (HM, HM), (HV, HM), (HM, HV)],
    3: [(HM, HM, LABELS), (HM, HV, LABEL)],
}
#: One sample value per attribute name (``col_idx`` depends on the operand).
SAMPLE_ATTRS = {"shift_amount": 3, "element": H.int8, "row_idx": 1, "similarity": "hamming"}
#: The lowerings: reference CPU, batched CPU (serving workers), GPU.
LOWERINGS = {"cpu": ("cpu", {}), "cpu-batched": ("cpu", {"batched": True}), "gpu": ("gpu", {})}
#: Float reductions whose arithmetic reassociates with the row count — read
#: from the table's ``reassociates`` column: their ``library`` routine
#: (float32 GEMM against the reference's float64 accumulation) is equal to a
#: tolerance.  Everything else — sign, Hamming counts, ``l2norm`` (no
#: library routine), arg-reduces, access — is exact.
REASSOCIATED = {op for op, row in PRIMITIVES.items() if row.reassociates}
WINDOWS = [(2, 8, 1), (0, None, 3), (1, 9, 2)]


def binding(op: Opcode):
    return getattr(H, op.hdcpp_name)


def arity(op: Opcode) -> int:
    """Operand count: the binding's parameters that are not row attributes."""
    parameters = inspect.signature(binding(op)).parameters
    return len([name for name in parameters if name not in PRIMITIVES[op].attrs])


def sample_attrs(op: Opcode, types) -> dict:
    attrs = {name: SAMPLE_ATTRS[name] for name in PRIMITIVES[op].attrs if name in SAMPLE_ATTRS}
    if "col_idx" in PRIMITIVES[op].attrs:
        attrs["col_idx"] = 2 if types[0] == HM else None
    return attrs


def admitted(op: Opcode) -> list:
    shapes = []
    for types in CANDIDATES[arity(op)]:
        try:
            infer_result_type(op, types, sample_attrs(op, types))
        except TypeError:
            continue
        shapes.append(types)
    return shapes


def operands(types, seed: int = 0) -> list[np.ndarray]:
    """Small seeded operands without zeros (division, sign ties); an
    index holds row indices of a hypermatrix's ``ROWS``."""
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, ROWS, size=t.shape) if t in (LABEL, LABELS)
        else rng.choice([-2.0, -1.0, 1.0, 2.0], size=t.shape).astype(np.float32)
        for t in types
    ]


def run_compiled(body, types, arrays, lowering: str, config=None):
    """Trace ``body`` over ``types`` and run it on one lowering."""
    prog = H.Program("table_case")
    entry = {
        0: lambda: body(), 1: lambda a: body(a), 2: lambda a, b: body(a, b), 3: lambda a, b, c: body(a, b, c)
    }[len(types)]
    prog.entry(*types, name="main")(entry)
    target, kwargs = LOWERINGS[lowering]
    compiled = hdc_compile(prog, target, config, **kwargs)
    return np.asarray(compiled.run(**dict(zip(compiled.input_names, arrays))).output)


def assert_agree(op: Opcode, lowering: str, got, want, library=None) -> None:
    """``got`` on ``lowering`` is ``want`` — or, on a lowering that reads
    the ``library`` column of an ``ordered`` row, that column's result."""
    if PRIMITIVES[op].ordered and lowering != "cpu":
        want = library
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if op in REASSOCIATED and lowering != "cpu":
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    else:
        assert np.array_equal(got, want), f"{op} on {lowering}"


def names(ops) -> set:
    return {op.hdcpp_name for op in ops}


def case_id(op: Opcode, types) -> str:
    short = {HV: "hv", HM: "hm", LABEL: "ix", LABELS: "ixv"}
    return f"{op.hdcpp_name}-{'x'.join(short[t] for t in types)}"


#: The rows that compute from operands: element-wise, access, reduce, training.
OPERAND_OPS = [
    op
    for op, row in PRIMITIVES.items()
    if row.category in ("elementwise", "access", "reduce", "training")
]
OPERAND_CASES = [
    pytest.param(op, types, id=case_id(op, types)) for op in OPERAND_OPS for types in admitted(op)
]
REDUCE_CASES = [case for case in OPERAND_CASES if case.values[0] in REDUCE_OPS]


class TestTableIsComplete:
    def test_every_opcode_has_exactly_one_row(self):
        assert set(PRIMITIVES) == set(Opcode)

    def test_granular_rows_and_public_bindings_name_each_other(self):
        granular = names(op for op, row in PRIMITIVES.items() if row.kernel is not None)
        assert granular == set(primitives.__all__)
        for name in primitives.__all__:
            assert name in H.__all__ and getattr(H, name) is getattr(primitives, name)
        # The rows without a kernel are the stage constructs, public too.
        for op in IMPL_OPS:
            assert PRIMITIVES[op].kernel is None and callable(getattr(H, op.hdcpp_name))
            assert op.hdcpp_name in H.__all__

    @pytest.mark.parametrize("op", OPERAND_OPS, ids=lambda op: op.hdcpp_name)
    def test_binding_keywords_are_the_row_attrs(self, op):
        parameters = list(inspect.signature(binding(op)).parameters)
        assert parameters[arity(op) :] == list(PRIMITIVES[op].attrs)
        assert admitted(op), f"{op}: the type rule admits none of the candidate shapes"

    def test_derived_sets_read_the_rows(self):
        assert names(REDUCE_OPS) == {"l2norm", "cossim", "hamming_distance", "matmul"}
        assert names(SCORE_OPS) == {"l2norm", "cossim", "hamming_distance"}
        assert names(PACKED_OPS) == {"cossim", "hamming_distance"}
        assert names(IMPL_OPS) == {"encoding_loop", "training_loop", "inference_loop", "parallel_map"}
        assert names(ROW_MAP_OPS) == names(IMPL_OPS) - {"training_loop"}
        assert len(INIT_OPS) == 8 and all("hyper" in name for name in names(INIT_OPS))
        assert PERFORATABLE == {op.hdcpp_name: op for op in REDUCE_OPS}
        # The accumulator-sign rule of a binarized result is matmul's alone.
        assert [op for op, row in PRIMITIVES.items() if row.sign_when_binarized] == [Opcode.MATMUL]
        # Eager calls under the library set take only matmul's certified
        # sign and retrain's declared mini-batch rule; the other library
        # routines differ from their kernels in the low bits.
        ordered = [op for op, row in PRIMITIVES.items() if row.ordered]
        assert ordered == [Opcode.RETRAIN] and not PRIMITIVES[Opcode.RETRAIN].reassociates
        libraries = {op for op, row in PRIMITIVES.items() if row.library}
        assert libraries - set(ordered) == REASSOCIATED == {Opcode.COSSIM, Opcode.MATMUL}
        assert [op for op, row in PRIMITIVES.items() if row.signed is not None] == [Opcode.MATMUL]
        # The Hamming kernel counts a ±1 block as the GEMM a library would.
        assert PRIMITIVES[Opcode.HAMMING_DISTANCE].library is None

    @pytest.mark.parametrize("column", ["kernel", "library"])
    def test_rescaling_fact_agrees_with_the_kernels(self, column):
        """``scale_on_perforation`` rows keep their magnitude under a window;
        Hamming distance (not rescaled) counts the visited elements only."""
        ones, flipped = np.ones((2, 12), np.float32), -np.ones((2, 12), np.float32)
        for op in REDUCE_OPS - {Opcode.COSSIM}:  # a cosine is scale-free either way
            row = PRIMITIVES[op]
            kernel = getattr(row, column) or row.kernel
            args = [ones] if arity(op) == 1 else [ones, flipped]
            full, strided = kernel(*args), kernel(*args, begin=0, end=None, stride=3)
            if row.scale_on_perforation:
                np.testing.assert_allclose(strided, full, rtol=1e-6)
            else:
                assert np.array_equal(strided, np.full_like(full, 4)) and np.all(full == 12)


class TestColumnsAgree:
    @pytest.mark.parametrize("op, types", OPERAND_CASES)
    def test_eager_and_every_lowering(self, op, types):
        row, attrs, arrays = PRIMITIVES[op], sample_attrs(op, types), operands(types)
        eager = binding(op)(*arrays, **attrs)
        # The inferred type's shape is the kernel output's shape.
        raw = row.kernel(*arrays, **attrs)
        assert np.shape(raw) == infer_result_type(op, types, attrs).shape
        assert np.array_equal(np.asarray(eager), raw)
        library = row.library(*arrays, **attrs) if row.ordered else eager
        with memo.Execution("library"):  # eager calls follow the set where exact, or ordered
            assert np.asarray(binding(op)(*arrays, **attrs)).tobytes() == np.asarray(library).tobytes()
        for lowering in LOWERINGS:
            got = run_compiled(lambda *xs: binding(op)(*xs, **attrs), types, arrays, lowering)
            assert_agree(op, lowering, got, eager, library)

    @pytest.mark.parametrize("window", WINDOWS, ids=lambda w: "{}:{}:{}".format(*w))
    @pytest.mark.parametrize("op, types", REDUCE_CASES)
    def test_perforated_reductions(self, op, types, window):
        """External spec and ``red_perf`` directive both fold to the window
        the reference kernel takes directly."""
        begin, end, stride = window
        arrays = operands(types, seed=1)
        want = PRIMITIVES[op].kernel(*arrays, begin=begin, end=end, stride=stride)
        spec = ApproximationConfig.none().with_perforation(PerforationSpec(op, begin, end, stride))

        def annotated(*xs):
            result = binding(op)(*xs)
            return H.red_perf(result, begin, DIM if end is None else end, stride)

        for lowering in LOWERINGS:
            assert_agree(op, lowering, run_compiled(binding(op), types, arrays, lowering, spec), want)
            assert_agree(op, lowering, run_compiled(annotated, types, arrays, lowering), want)

    @pytest.mark.parametrize("name", sorted(op.hdcpp_name for op in INIT_OPS))
    def test_initialisers(self, name):
        shape = {"dim": 7} if name.endswith("vector") else {"rows": 3, "cols": 7}
        if name.startswith("create"):
            shape["init"] = (lambda i: i * 2.0) if "dim" in shape else (lambda i, j: i - 2.0 * j)
        elif not name.startswith("hyper"):
            shape["seed"] = 11
        for element in (H.float32, H.int8):

            def allocate():
                return getattr(H, name)(element=element, **shape)

            eager = allocate()
            assert eager.element is element and eager.shape == tuple(
                v for k, v in shape.items() if k in ("dim", "rows", "cols")
            )
            for lowering in LOWERINGS:
                got = run_compiled(allocate, (), [], lowering)
                assert got.dtype == eager.data.dtype and np.array_equal(got, eager.data)

    def test_binary_cast_is_a_sign_in_every_mode(self):
        """Eager used to truncate to int8 first, sending -0.5 to +1."""
        x = np.array([0.5, -0.5, -3.0, 0.0], dtype=np.float32)
        eager = H.type_cast(x, H.binary)
        assert eager.element is H.binary and np.array_equal(eager.data, [1, -1, -1, 1])
        for lowering in LOWERINGS:
            got = run_compiled(lambda a: H.type_cast(a, H.binary), (H.hv(4),), [x], lowering)
            assert np.array_equal(got, eager.data)

    @pytest.mark.parametrize("dim", [64, 70, 130])
    @pytest.mark.parametrize("op", sorted(PACKED_OPS), ids=lambda op: op.hdcpp_name)
    def test_packed_column_equals_kernel_on_bipolar_operands(self, op, dim):
        row = PRIMITIVES[op]
        rng = np.random.default_rng(dim)
        vector, matrix = H.hv(dim), H.hm(ROWS, dim)
        for types in [(vector, vector), (vector, matrix), (matrix, matrix), (matrix, vector)]:
            a, b = (rng.choice([-1.0, 1.0], size=t.shape).astype(np.float32) for t in types)
            for window in [{}, {"begin": 3, "end": dim - 3, "stride": 2}]:
                packed, kernel = row.packed(a, b, **window), row.kernel(a, b, **window)
                assert np.shape(packed) == np.shape(kernel)
                if op == Opcode.HAMMING_DISTANCE:  # exact integer bit counts
                    assert np.array_equal(packed, kernel)
                else:
                    np.testing.assert_allclose(packed, kernel, rtol=0, atol=1e-6)
            # ... and through a binarized compile, which routes to it.
            config = ApproximationConfig(binarize=True)
            want = binding(op)(H.sign(a), H.sign(b))
            for lowering in LOWERINGS:
                got = run_compiled(
                    lambda x, y: binding(op)(H.sign(x), H.sign(y)), types, [a, b], lowering, config
                )
                np.testing.assert_allclose(got, np.asarray(want), rtol=0, atol=1e-6)


def row_flags(types) -> list:
    """Which operands may be row-mapped beside operand 0 (a hypermatrix):
    none, and for two hypermatrices of one shape, both."""
    flags = [(True,) + (False,) * (len(types) - 1)]
    if len(types) == 2 and types[1] == types[0]:
        flags.append((True, True))
    return flags


MATRIX_CASES = [case for case in OPERAND_CASES if case.values[1][0] == HM]


class TestRowMapping:
    """``Primitive.carries_rows`` — what lets serving run a batch unpadded —
    read from the rows, and sound on both kernel columns."""

    def test_the_rows_that_carry(self):
        carrying = {
            (op.hdcpp_name, flags)
            for case in MATRIX_CASES
            for op, types in [case.values]
            for flags in row_flags(types)
            if PRIMITIVES[op].carries_rows(types, flags)
        }
        one = {"wrap_shift", "sign", "sign_flip", "absolute_value", "cosine", "type_cast",
               "l2norm", "arg_min", "arg_max"}  # fmt: skip
        assert carrying == (
            {(name, (True,)) for name in one}
            | {(name, (True, False)) for name in names(REDUCE_OPS) - {"l2norm"}}
            | {(name, (True, True)) for name in ("add", "sub", "mul", "div")}
        )
        stages = {op for op, row in PRIMITIVES.items() if row.carries_rows((HM, HM), (True, False))}
        assert stages - set(OPERAND_OPS) == ROW_MAP_OPS  # training_loop maps no rows

    @pytest.mark.parametrize("op, types", MATRIX_CASES)
    def test_carried_rows_are_the_first_rows_of_the_full_result(self, op, types):
        row, attrs, arrays = PRIMITIVES[op], sample_attrs(op, types), operands(types, seed=2)
        for flags in row_flags(types):
            if not row.carries_rows(types, flags):
                continue
            block = [a[:2] if mapped else a for a, mapped in zip(arrays, flags)]
            for kernel in {row.kernel, row.library or row.kernel}:
                assert np.array_equal(kernel(*block, **attrs), np.asarray(kernel(*arrays, **attrs))[:2])


class TestKernelsAreLateBound:
    """A row names its kernel; the function is looked up on every call.

    ``benchmarks/e2e/probes.py`` times kernels by patching the attributes
    of ``repro.kernels.{reference,batched,binary}``; if any route captured
    a function object, the ring would silently read zeros.
    """

    DIM = 70  # not a multiple of 64: the packed route pads its last word

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}

        def count(module, name):
            fn = getattr(module, name)

            def counting(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(reference, "sign")
        count(reference, "hamming_distance")
        count(binary, "hamming_distance_bipolar")
        return counts

    @staticmethod
    def similarity(queries, classes):
        return H.arg_min(H.hamming_distance(H.sign(queries), H.sign(classes)))

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(4)
        return [rng.standard_normal((4, self.DIM)).astype(np.float32),
                rng.standard_normal((3, self.DIM)).astype(np.float32)]  # fmt: skip

    def test_eager(self, calls, data):
        self.similarity(*data)
        assert calls == {"sign": 2, "hamming_distance": 1}

    @pytest.mark.parametrize(
        "lowering, binarize, entered",
        [
            ("cpu", False, {"sign", "hamming_distance"}),
            ("cpu", True, {"sign", "hamming_distance_bipolar"}),
            ("cpu-batched", False, {"sign", "hamming_distance"}),
            ("cpu-batched", True, {"sign", "hamming_distance_bipolar"}),
            ("gpu", False, {"sign", "hamming_distance"}),
            ("gpu", True, {"sign", "hamming_distance_bipolar"}),
        ],
    )
    def test_compiled_routes(self, calls, data, lowering, binarize, entered):
        """The Hamming row has no library routine: every float lowering
        enters the reference kernel, every binarized one the packed one."""
        assert PRIMITIVES[Opcode.HAMMING_DISTANCE].library is None
        types = (H.hm(4, self.DIM), H.hm(3, self.DIM))
        config = ApproximationConfig(binarize=True) if binarize else None
        want = np.asarray(self.similarity(*data))
        calls.clear()
        got = run_compiled(self.similarity, types, data, lowering, config)
        assert np.array_equal(got, want)
        assert set(calls) == entered, f"{lowering} binarize={binarize}: entered {calls}"
