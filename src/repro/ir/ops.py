"""The primitive table: every HPVM-HDC IR opcode described exactly once.

HPVM-HDC's design move is that an HDC primitive is defined once in the IR
and every target's code and every approximation pass is derived from that
definition.  :data:`PRIMITIVES` is that definition here: one frozen
:class:`Primitive` row per :class:`Opcode` carrying its type rule, the
kernels each lowering runs (``kernel`` — the CPU lowering and the
eager-mode semantics; ``library`` — the whole-hypermatrix GPU / batched-CPU
routine; ``packed`` — the word-parallel routine for 1-bit operands) and the
facts the passes read.  The frontend (:mod:`repro.hdcpp.primitives`), the
kernel sets (:mod:`repro.backends.kernelsets`), the verifier, the builder,
both transforms, the plan pass (:mod:`repro.transforms.plan`), the
binding layer's row-mapping analysis (:func:`row_mapped_params`) and the
block-route proofs (:func:`stage_proof`) read the rows or the opcode sets
derived from them below; nothing else spells an opcode collection.

Adding a primitive is an :class:`Opcode` member, one row here and one
binding in :mod:`repro.hdcpp.primitives` (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.hdcpp.types import (
    ElementType,
    HDType,
    HyperMatrixType,
    HyperVectorType,
    IndexType,
    IndexVectorType,
    ScalarType,
    binary,
    float32,
)
from repro.kernels import batched, binary, reference as ref

__all__ = [
    "Opcode",
    "Primitive",
    "PRIMITIVES",
    "infer_result_type",
    "INIT_OPS",
    "REDUCE_OPS",
    "SCORE_OPS",
    "PACKED_OPS",
    "STAGE_OPS",
    "IMPL_OPS",
    "ROW_MAP_OPS",
    "PERFORATABLE",
    "row_mapped_params",
    "proven_columns",
    "proven_rule",
    "stage_proof",
    "bipolar_operands",
    "is_binary",
    "consumers",
    "use_counts",
]


class Opcode(str, enum.Enum):
    """Opcodes of HPVM-HDC IR (HDC intrinsics + generic parallel constructs)."""

    # Initialization primitives
    EMPTY_HYPERVECTOR = "hdc.hypervector"
    EMPTY_HYPERMATRIX = "hdc.hypermatrix"
    CREATE_HYPERVECTOR = "hdc.create_hypervector"
    CREATE_HYPERMATRIX = "hdc.create_hypermatrix"
    RANDOM_HYPERVECTOR = "hdc.random_hypervector"
    RANDOM_HYPERMATRIX = "hdc.random_hypermatrix"
    GAUSSIAN_HYPERVECTOR = "hdc.gaussian_hypervector"
    GAUSSIAN_HYPERMATRIX = "hdc.gaussian_hypermatrix"
    # Element-wise primitives
    WRAP_SHIFT = "hdc.wrap_shift"
    SIGN = "hdc.sign"
    SIGN_FLIP = "hdc.sign_flip"
    ADD = "hdc.add"
    SUB = "hdc.sub"
    MUL = "hdc.mul"
    DIV = "hdc.div"
    ABSOLUTE_VALUE = "hdc.absolute_value"
    COSINE = "hdc.cosine"
    TYPE_CAST = "hdc.type_cast"
    # Access / shape primitives
    GET_ELEMENT = "hdc.get_element"
    ARG_MIN = "hdc.arg_min"
    ARG_MAX = "hdc.arg_max"
    SET_MATRIX_ROW = "hdc.set_matrix_row"
    GET_MATRIX_ROW = "hdc.get_matrix_row"
    MATRIX_TRANSPOSE = "hdc.matrix_transpose"
    # Reduction / similarity primitives
    L2NORM = "hdc.l2norm"
    COSSIM = "hdc.cossim"
    HAMMING_DISTANCE = "hdc.hamming_distance"
    MATMUL = "hdc.matmul"
    # Training primitive
    RETRAIN = "hdc.retrain"
    # Approximation directive
    RED_PERF = "hdc.red_perf"
    # High-level algorithmic stage primitives
    ENCODING_LOOP = "hdc.encoding_loop"
    TRAINING_LOOP = "hdc.training_loop"
    INFERENCE_LOOP = "hdc.inference_loop"
    # Hetero-C++ generic parallel constructs
    PARALLEL_MAP = "hetero.parallel_map"

    @property
    def hdcpp_name(self) -> str:
        """The HDC++ spelling — the name of the public ``repro.hdcpp`` binding."""
        return self.value.partition(".")[2]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# ---------------------------------------------------------------------------
# Type rules: (operand types, attrs) -> result type
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str, *args) -> None:
    """Raise ``TypeError(message.format(*args))`` unless ``cond`` (formatted on failure only)."""
    if not cond:
        raise TypeError(message.format(*args))


def _require_matrix(operand: HDType, what: str) -> None:
    _require(isinstance(operand, HyperMatrixType), "{} must be a hypermatrix", what)


def _dim(operand: HDType) -> int:
    """Hypervector length of a hypervector or of a hypermatrix's rows."""
    return operand.cols if isinstance(operand, HyperMatrixType) else operand.dim


def _allocation(types: Sequence[HDType], attrs: dict) -> HDType:
    element = attrs.get("element", float32)
    if "dim" in attrs:
        return HyperVectorType(attrs["dim"], element)
    return HyperMatrixType(attrs["rows"], attrs["cols"], element)


def _same_as_operand(types: Sequence[HDType], attrs: dict) -> HDType:
    return types[0]


def _elementwise(types: Sequence[HDType], attrs: dict, divides: bool = False) -> HDType:
    lhs, rhs = types[0], types[1]
    _require(lhs.shape == rhs.shape, "shape mismatch {} vs {}", lhs, rhs)
    return lhs.with_element(_combine_elements(lhs.element, rhs.element, divides))


def _combine_elements(lhs: ElementType, rhs: ElementType, divides: bool) -> ElementType:
    """Element type of a binary element-wise op result."""
    if divides:
        return float32 if lhs.bits <= 32 and rhs.bits <= 32 else lhs
    if lhs.is_binary and rhs.is_binary:
        return binary
    if lhs.is_float and rhs.is_float:
        return lhs if lhs.bits >= rhs.bits else rhs
    if lhs.is_float:
        return lhs
    if rhs.is_float:
        return rhs
    if lhs.is_binary:
        return rhs
    if rhs.is_binary:
        return lhs
    return lhs if lhs.bits >= rhs.bits else rhs


def _arg_reduce(types: Sequence[HDType], attrs: dict) -> HDType:
    operand = types[0]
    return IndexVectorType(operand.rows) if isinstance(operand, HyperMatrixType) else IndexType()


def _set_matrix_row(types: Sequence[HDType], attrs: dict) -> HDType:
    mat, row = types[0], types[1]
    _require_matrix(mat, "first operand")
    _require(
        isinstance(row, HyperVectorType) and row.dim == mat.cols,
        "row length {} does not match {}", row, mat,
    )
    return mat


def _get_matrix_row(types: Sequence[HDType], attrs: dict) -> HDType:
    _require_matrix(types[0], "operand")
    return types[0].row_type


def _matrix_transpose(types: Sequence[HDType], attrs: dict) -> HDType:
    mat = types[0]
    _require_matrix(mat, "operand")
    return HyperMatrixType(mat.cols, mat.rows, mat.element)


def _l2norm(types: Sequence[HDType], attrs: dict) -> HDType:
    operand = types[0]
    if isinstance(operand, HyperMatrixType):
        return HyperVectorType(operand.rows, float32)
    return ScalarType(float32)


def _pairwise_similarity(types: Sequence[HDType], attrs: dict) -> HDType:
    lhs, rhs = types[0], types[1]
    _require(_dim(lhs) == _dim(rhs), "hypervector length mismatch {} vs {}", lhs, rhs)
    if isinstance(lhs, HyperMatrixType) and isinstance(rhs, HyperMatrixType):
        return HyperMatrixType(lhs.rows, rhs.rows, float32)
    if isinstance(lhs, HyperVectorType) and isinstance(rhs, HyperMatrixType):
        return HyperVectorType(rhs.rows, float32)
    if isinstance(lhs, HyperMatrixType) and isinstance(rhs, HyperVectorType):
        return HyperVectorType(lhs.rows, float32)
    return ScalarType(float32)


def _matmul(types: Sequence[HDType], attrs: dict) -> HDType:
    lhs, rhs = types[0], types[1]
    _require_matrix(rhs, "rhs")
    _require(_dim(lhs) == rhs.cols, "contraction mismatch {} vs {}", lhs, rhs)
    if isinstance(lhs, HyperMatrixType):
        return HyperMatrixType(lhs.rows, rhs.rows, float32)
    return HyperVectorType(rhs.rows, float32)


def _retrain(types: Sequence[HDType], attrs: dict) -> HDType:
    memory, rows, labels = types
    _require_matrix(memory, "memory")
    _require(
        isinstance(rows, (HyperVectorType, HyperMatrixType)) and _dim(rows) == memory.cols,
        "rows {} do not match {}", rows, memory,
    )
    count = rows.shape[:1] if isinstance(rows, HyperMatrixType) else ()
    _require(labels.shape == count, "labels {} do not match rows {}", labels, rows)
    similarity = attrs.get("similarity")
    _require(similarity in ("hamming", "cosine"), "unknown similarity {!r}", similarity)
    return memory.with_element(float32)


def _encoding_loop(types: Sequence[HDType], attrs: dict) -> HDType:
    queries, encoder = types[0], types[1]
    _require_matrix(queries, "queries")
    dim = attrs.get("encoded_dim")
    if dim is None:
        dim = encoder.rows if isinstance(encoder, HyperMatrixType) else queries.cols
    return HyperMatrixType(queries.rows, dim, attrs.get("element", float32))


def _inference_loop(types: Sequence[HDType], attrs: dict) -> HDType:
    _require_matrix(types[0], "queries")
    return IndexVectorType(types[0].rows)


def _training_loop(types: Sequence[HDType], attrs: dict) -> HDType:
    _require_matrix(types[2], "classes")
    return types[2]


def _parallel_map(types: Sequence[HDType], attrs: dict) -> HDType:
    inputs = types[0]
    _require_matrix(inputs, "input")
    return HyperMatrixType(
        inputs.rows, attrs.get("output_dim", inputs.cols), attrs.get("element", inputs.element)
    )


# ---------------------------------------------------------------------------
# Kernel columns
# ---------------------------------------------------------------------------


def _late(module, name: str, *leading) -> Callable:
    """``module.name`` as a kernel-column entry, looked up on every call.

    A row *names* its kernel instead of holding the function object: the
    end-to-end benchmark's kernel ring (``benchmarks/e2e/probes.py``) times
    kernels by patching the attributes of the ``repro.kernels`` modules,
    and tests monkeypatch them the same way — a function captured here at
    import would keep running unobserved and the ring would read zeros.
    ``leading`` are fixed first arguments (the operator name of
    ``reference.elementwise``).
    """
    getattr(module, name)  # a misspelt kernel fails at import, not on first use

    if leading:
        def call(*args, **kwargs):
            return getattr(module, name)(*leading, *args, **kwargs)
    else:
        def call(*args, **kwargs):
            return getattr(module, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = f"{module.__name__.rpartition('.')[2]}.{name}"
    return call


# Allocation kernels share one ``(shape, element, rng, init_fn)`` convention
# so the eight initialisers run through one call site per caller.  The
# ``ref.`` attribute is read inside each body, i.e. on every call.
def _empty(shape, element, rng, init_fn):
    return ref.empty(shape, element.numpy_dtype)


def _create(shape, element, rng, init_fn):
    return ref.create(shape, element.numpy_dtype, init_fn)


def _random(shape, element, rng, init_fn):
    return ref.random_values(shape, element.numpy_dtype, rng, bipolar=element.is_binary)


def _gaussian(shape, element, rng, init_fn):
    return ref.gaussian_values(shape, element.numpy_dtype, rng)


def _type_cast(x, element):
    # A cast to the 1-bit element is a binarization, not a numeric
    # conversion: truncating to the storage dtype first would send every
    # |x| < 1 to +1.
    return ref.sign(x) if element.is_binary else ref.type_cast(x, element.numpy_dtype)


def _get_element(x, row_idx, col_idx):
    # Scalar results enter a compiled program's environment as 0-d arrays.
    return np.asarray(ref.get_element(x, row_idx, col_idx))


def _red_perf(result, begin, end, stride):
    # Left in the stream only if the perforation pass did not run; it is a
    # pure annotation, so executing it is a no-op.
    return None


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Primitive:
    """One row of the primitive table.

    Attributes:
        category: One of ``init``, ``elementwise``, ``access``, ``reduce``,
            ``training``, ``directive``, ``stage``, ``hetero``.
        type_rule: ``(operand types, attrs) -> result type``; raises
            ``TypeError`` on ill-typed operands.  Rows that type alike share
            one rule.
        attrs: Names of the operation attributes the kernels take as
            keyword arguments (reductions additionally take the perforation
            window ``begin`` / ``end`` / ``stride``).
        kernel: The reference kernel — the CPU lowering *and* the eager-mode
            semantics.  ``None`` for the stage / parallel-map rows, which
            the stage executors run.  ``init`` rows follow the allocation
            convention ``(shape, element, rng, init_fn)``.
        library: The whole-hypermatrix routine of the GPU / batched-CPU
            lowering; ``None`` means the same as ``kernel``, so a cell names
            only a routine that differs from it.
        signed: A certified ``sign ∘ kernel``, bit-identical to ``sign``
            of the ``kernel`` result — ``matmul`` only.  Inside an
            execution an eager ``sign`` of an eager result runs it, and so
            does the reference kernel set for a traced product the plan
            pass marks ``signed_by`` (:mod:`repro.transforms.plan`: only
            signed, or typed 1-bit).
        packed: The word-parallel routine taken (by either lowering) when
            the operands are 1-bit bipolar or already bit-packed.
        reassociates: ``kernel``'s float arithmetic depends on the row
            count: a one-row call and a block call round differently
            (a float64 GEMV against a GEMM).  The CPU's block route runs a
            stage that reads such a ``kernel`` per row
            (:class:`~repro.backends.executor.HostStageExecutor`), unless
            the read is a certified ``signed`` one; ``library`` differs
            from ``kernel`` in the low bits on these rows alone.
        scale_on_perforation: Whether the kernels rescale a perforated
            result by the visited fraction (``matmul`` / ``l2norm``) or not
            (``hamming_distance`` / ``cossim``); see Section 4.2.
        score_output: The result is a similarity score, not a hypervector,
            so automatic binarization never retypes it.
        binarizable: Whether automatic binarization may propagate its taint
            through this op.
        sign_when_binarized: When binarization marks the *result* 1-bit the
            kernels emit the sign of the accumulated value (the bit-vector
            lowering of Algorithm 1) — ``matmul`` only.
        maps_rows: A stage that applies its implementation to each row of
            its first operand and passes the remaining operands whole.
        ordered: ``kernel`` walks its rows in order, each step reading the
            state the steps before it left, so ``n`` rows are ``n``
            one-row calls; ``library`` is the declared mini-batch form of
            the same rule (every read, then every write), not an
            approximation of it.  Each lowering runs the column of its
            kernel set, and so does an eager call inside an execution —
            ``retrain`` only.
        exact: Row ``i`` of the kernel called on a block of rows is, bit
            for bit and in dtype, the kernel called on row ``i`` alone, on
            every column the row has (``library``, ``packed``): ``sign``,
            ``hamming_distance`` (integer counts, exact below
            ``reference.EXACT_F32_TERMS`` visited elements on any route)
            and the arg-reduces.  ``cosine``, ``l2norm`` and ``cossim``
            are not marked; a ``matmul`` is exact only through its
            ``signed`` column (:func:`proven_columns`).  The plan pass
            proves a stage's block route from this column, and the CPU
            and GPU then run no boundary-row gate on it
            (:mod:`repro.transforms.plan`).
        bipolar: The result holds only +1 and -1, whatever the operands
            (``sign``; zero and NaN included).  The plan pass marks a
            ``hamming_distance`` whose two operands are such results
            ``bipolar`` (:func:`bipolar_operands`), and its kernel then
            skips its scan for ±1 operands.
    """

    category: str
    type_rule: Callable[[Sequence[HDType], dict], HDType]
    attrs: tuple[str, ...] = ()
    kernel: Optional[Callable] = None
    library: Optional[Callable] = None
    signed: Optional[Callable] = None
    packed: Optional[Callable] = None
    reassociates: bool = False
    scale_on_perforation: bool = False
    score_output: bool = False
    binarizable: bool = True
    sign_when_binarized: bool = False
    maps_rows: bool = False
    ordered: bool = False
    exact: bool = False
    bipolar: bool = False

    @property
    def is_reduce(self) -> bool:
        """Reduces along the hypervector dimension (perforatable)."""
        return self.category == "reduce"

    def carries_rows(self, operands: Sequence[HDType], mapped: Sequence[bool]) -> bool:
        """Whether the result's rows are operand 0's rows, one for one, given
        which operands are row-mapped (``mapped``, per operand).

        Operand 0 must be row-mapped.  Then a ``maps_rows`` stage, a
        reduction or arg-reduction over a hypermatrix, and an element-wise
        op of one operand carry its rows, provided no other operand is
        row-mapped; a two-operand element-wise op carries them when both
        are.  Executing such an op on a block of fewer rows yields the
        first rows of the full result.
        """
        if not mapped[0]:
            return False
        if self.category == "elementwise":
            return len(mapped) == 1 or all(mapped)
        if any(mapped[1:]):
            return False
        if self.maps_rows:
            return True
        matrix = isinstance(operands[0], HyperMatrixType)
        return matrix and (self.is_reduce or self.type_rule is _arg_reduce)


def _binary_elementwise(operator: str, divides: bool = False) -> Primitive:
    """Row of a binary element-wise primitive (division cannot be 1-bit)."""
    return Primitive(
        "elementwise",
        lambda types, attrs: _elementwise(types, attrs, divides),
        kernel=_late(ref, "elementwise", operator),
        binarizable=not divides,
    )


PRIMITIVES: dict[Opcode, Primitive] = {
    Opcode.EMPTY_HYPERVECTOR: Primitive("init", _allocation, kernel=_empty),
    Opcode.EMPTY_HYPERMATRIX: Primitive("init", _allocation, kernel=_empty),
    Opcode.CREATE_HYPERVECTOR: Primitive("init", _allocation, kernel=_create),
    Opcode.CREATE_HYPERMATRIX: Primitive("init", _allocation, kernel=_create),
    Opcode.RANDOM_HYPERVECTOR: Primitive("init", _allocation, kernel=_random),
    Opcode.RANDOM_HYPERMATRIX: Primitive("init", _allocation, kernel=_random),
    Opcode.GAUSSIAN_HYPERVECTOR: Primitive("init", _allocation, kernel=_gaussian),
    Opcode.GAUSSIAN_HYPERMATRIX: Primitive("init", _allocation, kernel=_gaussian),
    Opcode.WRAP_SHIFT: Primitive(
        "elementwise", _same_as_operand, ("shift_amount",), _late(ref, "wrap_shift")
    ),
    # ``sign`` produces bipolar {+1, -1} values but keeps the storage element
    # type; shrinking the storage to 1 bit is the job of the
    # automatic-binarization transform (Section 4.2).
    Opcode.SIGN: Primitive(
        "elementwise", _same_as_operand, kernel=_late(ref, "sign"), exact=True, bipolar=True
    ),
    Opcode.SIGN_FLIP: Primitive("elementwise", _same_as_operand, kernel=_late(ref, "sign_flip")),
    Opcode.ADD: _binary_elementwise("add"),
    Opcode.SUB: _binary_elementwise("sub"),
    Opcode.MUL: _binary_elementwise("mul"),
    Opcode.DIV: _binary_elementwise("div", divides=True),
    Opcode.ABSOLUTE_VALUE: Primitive(
        "elementwise", _same_as_operand, kernel=_late(ref, "absolute_value")
    ),
    Opcode.COSINE: Primitive(
        "elementwise",
        lambda types, attrs: types[0].with_element(float32),
        kernel=_late(ref, "cosine"),
        binarizable=False,
    ),
    Opcode.TYPE_CAST: Primitive(
        "elementwise",
        lambda types, attrs: types[0].with_element(attrs["element"]),
        ("element",),
        _type_cast,
    ),
    Opcode.GET_ELEMENT: Primitive(
        "access",
        lambda types, attrs: ScalarType(types[0].element),
        ("row_idx", "col_idx"),
        _get_element,
        binarizable=False,
    ),
    Opcode.ARG_MIN: Primitive(
        "access",
        _arg_reduce,
        kernel=_late(ref, "arg_min"),
        binarizable=False,
        exact=True,
    ),
    Opcode.ARG_MAX: Primitive(
        "access",
        _arg_reduce,
        kernel=_late(ref, "arg_max"),
        binarizable=False,
        exact=True,
    ),
    Opcode.SET_MATRIX_ROW: Primitive(
        "access", _set_matrix_row, ("row_idx",), _late(ref, "set_matrix_row")
    ),
    Opcode.GET_MATRIX_ROW: Primitive(
        "access", _get_matrix_row, ("row_idx",), _late(ref, "get_matrix_row")
    ),
    Opcode.MATRIX_TRANSPOSE: Primitive(
        "access",
        _matrix_transpose,
        kernel=_late(ref, "matrix_transpose"),
    ),
    Opcode.L2NORM: Primitive(
        "reduce",
        _l2norm,
        kernel=_late(ref, "l2norm"),
        scale_on_perforation=True,
        score_output=True,
        binarizable=False,
    ),
    Opcode.COSSIM: Primitive(
        "reduce",
        _pairwise_similarity,
        kernel=_late(ref, "cossim"),
        library=_late(batched, "pairwise_cossim"),
        packed=_late(binary, "cossim_bipolar"),
        reassociates=True,
        score_output=True,
    ),
    # The kernel counts a ±1 block as one exact float32 GEMM, the library
    # routine a GPU would run, so both lowerings run it.  Binarized operands
    # take the word-parallel packed kernels: exact integer bit counts too,
    # so every route gives the same bits, on a block as on each row.
    Opcode.HAMMING_DISTANCE: Primitive(
        "reduce",
        _pairwise_similarity,
        kernel=_late(ref, "hamming_distance"),
        packed=_late(binary, "hamming_distance_bipolar"),
        score_output=True,
        exact=True,
    ),
    Opcode.MATMUL: Primitive(
        "reduce",
        _matmul,
        kernel=_late(ref, "matmul"),
        library=_late(batched, "gemm"),
        signed=_late(batched, "sign_gemm"),
        reassociates=True,
        scale_on_perforation=True,
        sign_when_binarized=True,
    ),
    # The corrective training rule (``reference.retrain`` states why its
    # ordered Hamming form is exact); the GPU and the batched CPU train with
    # its mini-batch form, as the CUDA baselines do.
    Opcode.RETRAIN: Primitive(
        "training",
        _retrain,
        ("similarity",),
        kernel=_late(ref, "retrain"),
        library=_late(batched, "retrain"),
        binarizable=False,
        ordered=True,
    ),
    Opcode.RED_PERF: Primitive(
        "directive", _same_as_operand, ("begin", "end", "stride"), _red_perf, binarizable=False
    ),
    Opcode.ENCODING_LOOP: Primitive("stage", _encoding_loop, binarizable=False, maps_rows=True),
    Opcode.TRAINING_LOOP: Primitive("stage", _training_loop, binarizable=False),
    Opcode.INFERENCE_LOOP: Primitive("stage", _inference_loop, binarizable=False, maps_rows=True),
    Opcode.PARALLEL_MAP: Primitive("hetero", _parallel_map, binarizable=False, maps_rows=True),
}


def infer_result_type(
    opcode: Opcode,
    operand_types: Sequence[HDType],
    attrs: Optional[dict] = None,
) -> HDType:
    """Infer the result type of an operation from its operand types.

    This is the single source of truth for operation typing: the tracing
    frontend uses it when building ops and the binarization transform uses
    it to recompute types after rewriting element types.
    """
    try:
        return PRIMITIVES[opcode].type_rule(operand_types, attrs or {})
    except TypeError as exc:
        raise TypeError(f"{opcode}: {exc}") from None


# ---------------------------------------------------------------------------
# Opcode collections, derived from the rows
# ---------------------------------------------------------------------------


def _ops_where(predicate: Callable[[Primitive], bool]) -> frozenset:
    return frozenset(op for op, row in PRIMITIVES.items() if predicate(row))


#: Initialisers, whose ``element`` attribute tracks a binarized result.
INIT_OPS = _ops_where(lambda row: row.category == "init")
#: Opcodes that reduce along the hypervector dimension (perforation targets).
REDUCE_OPS = _ops_where(lambda row: row.is_reduce)
#: Reductions whose outputs are similarity scores, never binarized.
SCORE_OPS = _ops_where(lambda row: row.score_output)
#: Similarity reductions with a word-parallel packed kernel.
PACKED_OPS = _ops_where(lambda row: row.packed is not None)
#: The coarse-grain stage primitives the HDC accelerators execute.
STAGE_OPS = _ops_where(lambda row: row.category == "stage")
#: Opcodes that carry an implementation function (``impl`` / ``impl_callable``).
IMPL_OPS = _ops_where(lambda row: row.category in ("stage", "hetero"))
#: Stages whose operands at index >= 1 reach the implementation whole (not
#: row-sliced), at the same parameter index.  ``TRAINING_LOOP`` is absent.
ROW_MAP_OPS = _ops_where(lambda row: row.maps_rows)
#: HDC++ name -> opcode of the perforatable reductions (``PerforationSpec``).
PERFORATABLE = {op.hdcpp_name: op for op, row in PRIMITIVES.items() if row.is_reduce}


def row_mapped_params(fn) -> frozenset:
    """Names of the hypermatrix parameters of a traced function that are
    *row-mapped*: every value derived from one reaches the results only
    through operations that carry operand 0's rows
    (:meth:`Primitive.carries_rows`), in operand 0.

    Row ``i`` of every result then depends on row ``i`` of the parameter
    alone, so a block of its first ``n`` rows runs unpadded and answers
    the first ``n`` rows of the full-size run.  Values that never reach a
    result are ignored.
    """
    live = {value.id for value in fn.results}
    for op in reversed(fn.ops):
        if op.result is not None and op.result.id in live:
            live.update(value.id for value in op.operands)
    names = []
    for param in fn.params:
        if not isinstance(param.type, HyperMatrixType):
            continue
        mapped = {param.id}
        for op in fn.ops:
            flags = [value.id in mapped for value in op.operands]
            if not any(flags) or op.result is None or op.result.id not in live:
                continue
            if not PRIMITIVES[op.opcode].carries_rows(op.operand_types(), flags):
                break
            mapped.add(op.result.id)
        else:
            names.append(param.name)
    return frozenset(names)


def proven_columns(fn) -> tuple:
    """The kernel columns on which ``fn``, a row-map implementation run
    once over a block of rows, equals ``fn`` run on each row alone, bit for
    bit, by this table alone.

    Every op must be ``exact``, or be a product planned ``signed_by``: the
    certified ``signed`` call is exact on the column whose product it
    certifies, ``kernel`` (the reference kernel set, which signs such
    products; the ``library`` set multiplies with ``gemm``).  And the rows
    must flow through operand 0 only, into every result, so that each op
    sees the block where it saw the row.  Caveat: ``signed`` recomputes
    the coordinates it cannot certify, and in a float64-rounding band
    around zero a one-row and a block recompute may disagree
    (:func:`repro.kernels.batched.sign_gemm`); there the boundary-row gate
    only ever looked at two rows.
    """
    if not fn.params:
        return ()
    rows = {fn.params[0].id}
    columns = _row_ops(fn.ops, rows)
    return columns if all(value.id in rows for value in fn.results) else ()


def _row_ops(ops, rows: set) -> tuple:
    """The columns on which every op of ``ops`` is exact (``signed_by``: on
    ``kernel`` only), reading the values of ``rows`` in operand 0 only;
    ``rows`` gains the results that carry them."""
    columns = ("kernel", "library")
    for op in ops:
        if not PRIMITIVES[op.opcode].exact:
            if "signed_by" not in op.attrs:
                return ()
            columns = ("kernel",)
        reads = [value.id in rows for value in op.operands]
        if any(reads[1:]):
            return ()
        if reads and reads[0] and op.result is not None:
            rows.add(op.result.id)
    return columns


def proven_rule(fn) -> tuple:
    """The columns on which ``fn``, a ``training_loop``'s rule ``(rows,
    labels, memory[, encoder])``, run once over a block equals it run row
    by row, by this table alone: ``("kernel",)`` when its last op, its
    result, is the ``ordered`` one reading the memory parameter, rows
    carried by row ops that read neither labels nor memory
    (:func:`proven_columns`' rule) and the labels parameter.  The ordered
    kernel takes the rows in turn; ``library``'s mini-batch is a rule, not
    a proof."""
    if len(fn.params) < 3 or not fn.ops:
        return ()
    (*before, rule), (rows, labels, memory) = fn.ops, fn.params[:3]
    if not (
        PRIMITIVES[rule.opcode].ordered and fn.results == [rule.result]
        and rule.operands[0] is memory and rule.operands[2] is labels
        and not any(value is labels or value is memory for op in before for value in op.operands)
    ):
        return ()
    carried = {rows.id}
    return ("kernel",) if _row_ops(before, carried) and rule.operands[1].id in carried else ()


def bipolar_operands(op, ops) -> bool:
    """Whether ``op`` is a ``hamming_distance`` whose two operands the
    table proves ±1: each the result of one of ``ops`` (the same
    function's) whose row is ``bipolar`` (``sign``), or the value such an
    op's product is planned ``signed_by`` (its sign, on every column)."""

    def signed(value) -> bool:
        producer = value.producer
        return producer is not None and producer in ops and (
            PRIMITIVES[producer.opcode].bipolar or producer.attrs.get("signed_by") is value
        )

    return op.opcode is Opcode.HAMMING_DISTANCE and all(map(signed, op.operands))


def stage_proof(op, impl) -> tuple:
    """What the plan writes as ``op``'s ``proven``: the columns on which
    the table proves the stage's block route equal to its per-row loop,
    given its traced implementation ``impl`` (``None``: eager)."""
    if impl is None or op.attrs.get("batch_impl") is not None:
        return ()
    if op.opcode is Opcode.TRAINING_LOOP:
        return proven_rule(impl)
    return proven_columns(impl) if op.opcode in ROW_MAP_OPS else ()


def is_binary(value) -> bool:
    """Whether ``value`` is typed with a 1-bit bipolar element."""
    element = getattr(value.type, "element", None)
    return element is not None and element.is_binary


def consumers(ops) -> dict:
    """Value id -> the operations among ``ops`` that read it, once per
    operand slot, in order: the one use-def walk of the IR."""
    uses: dict = {}
    for op in ops:
        for value in op.operands:
            uses.setdefault(value.id, []).append(op)
    return uses


def use_counts(fn) -> dict:
    """Value id -> how many times a traced function reads it: as an
    operand of its ops (:func:`consumers`), and as one of its results.  A
    value read nowhere has no entry."""
    uses = {value: len(ops) for value, ops in consumers(fn.ops).items()}
    for value in fn.results:
        uses[value.id] = uses.get(value.id, 0) + 1
    return uses
