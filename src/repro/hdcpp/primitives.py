"""The HDC algorithmic primitives of HDC++ (Table 1 of the paper).

30 public functions: 8 initialisers, 10 element-wise, 6 access / shape and
4 reduction primitives, the ``retrain`` training primitive and the
``red_perf`` directive.  Each is a one-line
*binding* of an opcode — what the primitive means (its type rule, its
kernels) is written once, in its row of the primitive table
:data:`repro.ir.ops.PRIMITIVES`.

Every primitive is *dual mode*:

* **Traced mode** — when its hypervector / hypermatrix operands are symbolic
  :class:`~repro.hdcpp.program.Value`\\ s (i.e. the call happens inside a
  function being traced via :meth:`Program.define`), the primitive records an
  HPVM-HDC IR operation and returns a new symbolic value.
* **Eager mode** — when called with concrete
  :class:`~repro.hdcpp.arrays.HyperVector` / :class:`HyperMatrix` values (or
  plain NumPy arrays), the primitive returns a concrete value with its
  row's reference (``kernel``) bits.  This gives the library a
  torchhd-style interactive surface and is how every kernel is unit
  tested.  Outside an execution every row runs its ``kernel`` at once.
  Inside one (any compiled-program run, an eager stage call included,
  and :meth:`~repro.serving.servable.Servable.updated`; see
  :mod:`repro.kernels.memo`) ``matmul`` defers its product: an eager
  :func:`sign` of it runs the row's certified ``signed`` column, so an
  eager CPU encode runs a float32 GEMV (a GEMM over a block), and any
  other read runs the ``kernel``.  Inside a CPU block attempt a read of a
  ``reassociates`` row's ``kernel`` raises instead
  (:func:`repro.kernels.memo.refuse_in_block`), so the stage runs per
  row.  On the library kernel set (a GPU / batched-CPU run, an
  update rule; :func:`repro.kernels.memo.column`) an ``ordered`` row
  (``retrain``) also runs its ``library`` routine, the rule's declared
  mini-batch form.

The primitive names follow the paper's ``__hetero_hdc_*`` intrinsics with
the prefix dropped.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.hdcpp.arrays import HyperMatrix, HyperVector, as_numpy, wrap_like
from repro.hdcpp.program import TracingError, Value, current_builder
from repro.hdcpp.types import (
    ElementType,
    HDType,
    HyperMatrixType,
    HyperVectorType,
    IndexType,
    IndexVectorType,
    ScalarType,
    float32,
)
from repro.ir.ops import PRIMITIVES, Opcode, Primitive, infer_result_type
from repro.kernels import memo

__all__ = [
    "hypervector",
    "hypermatrix",
    "create_hypervector",
    "create_hypermatrix",
    "random_hypervector",
    "random_hypermatrix",
    "gaussian_hypervector",
    "gaussian_hypermatrix",
    "wrap_shift",
    "sign",
    "sign_flip",
    "add",
    "sub",
    "mul",
    "div",
    "absolute_value",
    "cosine",
    "l2norm",
    "get_element",
    "type_cast",
    "arg_min",
    "arg_max",
    "set_matrix_row",
    "get_matrix_row",
    "matrix_transpose",
    "cossim",
    "hamming_distance",
    "matmul",
    "retrain",
    "red_perf",
]

EagerValue = Union[HyperVector, HyperMatrix, np.ndarray]
AnyValue = Union[Value, EagerValue]


# ---------------------------------------------------------------------------
# Mode dispatch
# ---------------------------------------------------------------------------


def _is_traced(*operands: AnyValue) -> bool:
    traced = [v for v in operands if isinstance(v, Value)]
    if not traced:
        return False
    if current_builder() is None:
        raise TracingError("symbolic values used outside of an active trace")
    if len(traced) != len(operands):
        raise TracingError(
            "cannot mix symbolic and concrete operands; pass concrete data as program inputs"
        )
    return True


_HDValue = (HyperVector, HyperMatrix)


def _eager_type(value: EagerValue) -> HDType:
    if isinstance(value, _HDValue):
        return value.type
    arr = np.asarray(value)
    element = float32
    if arr.ndim == 0:
        return ScalarType(element)
    if arr.ndim == 1:
        return HyperVectorType(arr.shape[0], element)
    if arr.ndim == 2:
        return HyperMatrixType(arr.shape[0], arr.shape[1], element)
    raise ValueError(f"unsupported eager value of rank {arr.ndim}")


def _emit(opcode: Opcode, operands: list[Value], attrs: dict) -> Value:
    """Record ``opcode`` in the active trace (shared with stages / hetero)."""
    builder = current_builder()
    if builder is None:
        raise TracingError(f"{opcode} used in traced mode outside of an active trace")
    result_type = infer_result_type(opcode, [v.type for v in operands], attrs)
    return builder.emit(opcode, operands, attrs, result_type)


def _wrap_result(data: np.ndarray, result_type: HDType):
    if isinstance(result_type, (HyperVectorType, HyperMatrixType)):
        return wrap_like(data, result_type.element)
    if isinstance(result_type, (IndexType, IndexVectorType)):
        return np.asarray(data, dtype=np.int64)
    # Scalar results are returned as plain Python / NumPy scalars.
    arr = np.asarray(data)
    return arr.item() if arr.ndim == 0 else arr


def _bounded_memo(cache: dict, limit: int, key, compute: Callable):
    """``cache[key]``, computed by ``compute()`` on a miss and stored only
    when it returns (so a failing call fails again); the cache is emptied
    when full.  The eager-mode memos share this one policy."""
    value = cache.get(key)
    if value is None:
        value = compute()
        if len(cache) >= limit:
            cache.clear()
        cache[key] = value
    return value


#: Eager result types by (opcode, operand shapes and elements, attrs).
#: Emptied when full: index attrs (``row_idx``) make a key per row.
_RESULT_TYPES: dict = {}
_RESULT_TYPES_MAX = 4096


def _eager_result_type(opcode: Opcode, operands: tuple, attrs: dict) -> HDType:
    key = (
        opcode,
        tuple((v.shape, v.element) if isinstance(v, _HDValue) else np.shape(v) for v in operands),
        tuple(attrs.items()),
    )
    return _bounded_memo(
        _RESULT_TYPES,
        _RESULT_TYPES_MAX,
        key,
        lambda: infer_result_type(opcode, [_eager_type(v) for v in operands], attrs),
    )


class _Product:
    """An eager result taken inside an execution whose kernel has not run:
    :func:`sign` of it runs the row's certified ``signed`` column; any
    other read (``data``, NumPy conversion, another primitive) runs the
    row's ``kernel`` once, so it sees the reference product — refused
    inside a block attempt (:func:`repro.kernels.memo.refuse_in_block`).
    The operands are read when it is first consumed."""

    def __init__(self, opcode: Opcode, result_type: HDType, row: Primitive, arrays: list, attrs: dict):
        self.element, self._type, self._opcode = result_type.element, result_type, opcode
        self._call, self._data = (row, arrays, attrs), None

    @property
    def type(self) -> HDType:
        return self._type

    @property
    def shape(self) -> tuple:
        return self._type.shape

    @property
    def data(self) -> np.ndarray:
        if self._call is not None:
            row, arrays, attrs = self._call
            memo.refuse_in_block(self._opcode)
            data = np.asarray(row.kernel(*arrays, **attrs))
            self._data, self._call = data.astype(self.element.numpy_dtype, copy=False), None
        return self._data

    def signed(self) -> Optional[np.ndarray]:
        """The certified sign of the product, or ``None`` once it is read."""
        if self._call is None:
            return None
        row, arrays, attrs = self._call
        return row.signed(*arrays, **attrs)

    def copy(self):
        return wrap_like(np.array(self.data, copy=True), self.element)

    def __reduce__(self):
        return wrap_like, (self.data, self.element)


class _ProductVector(_Product, HyperVector):
    pass


class _ProductMatrix(_Product, HyperMatrix):
    pass


def _apply(opcode: Opcode, *operands: AnyValue, **attrs):
    """One primitive application: emit when symbolic, else run the kernel
    the active kernel column selects (see the module docstring)."""
    if _is_traced(*operands):
        return _emit(opcode, list(operands), attrs)
    result_type = _eager_result_type(opcode, operands, attrs)
    if opcode is Opcode.SIGN and isinstance(operands[0], _Product):
        signs = operands[0].signed()
        if signs is not None:
            return _wrap_result(signs, result_type)
    row = PRIMITIVES[opcode]
    arrays = [as_numpy(v) for v in operands]
    kernel = row.kernel
    if row.signed is not None and memo.EXECUTION.get() is not None:
        product = _ProductMatrix if isinstance(result_type, HyperMatrixType) else _ProductVector
        return product(opcode, result_type, row, arrays, attrs)
    if row.reassociates:
        memo.refuse_in_block(opcode)
    if row.ordered and memo.column() == "library":
        kernel = row.library
    return _wrap_result(kernel(*arrays, **attrs), result_type)


def _allocate(opcode: Opcode, rng: Optional[np.random.Generator] = None, **attrs):
    """One operand-less initialiser: emit inside a trace, else allocate now."""
    if current_builder() is not None:
        return _emit(opcode, [], attrs)
    result_type = infer_result_type(opcode, [], attrs)
    if rng is None and "seed" in attrs:
        rng = np.random.default_rng(attrs["seed"])
    shape, element = result_type.shape, result_type.element
    return wrap_like(PRIMITIVES[opcode].kernel(shape, element, rng, attrs.get("init_fn")), element)


# ---------------------------------------------------------------------------
# Initialization primitives
# ---------------------------------------------------------------------------


def hypervector(dim: int, element: ElementType = float32):
    """``hypervector()`` — an empty (zero-initialized) hypervector."""
    return _allocate(Opcode.EMPTY_HYPERVECTOR, dim=int(dim), element=element)


def hypermatrix(rows: int, cols: int, element: ElementType = float32):
    """``hypermatrix()`` — an empty (zero-initialized) hypermatrix."""
    return _allocate(Opcode.EMPTY_HYPERMATRIX, rows=int(rows), cols=int(cols), element=element)


def create_hypervector(dim: int, init: Callable[[int], float], element: ElementType = float32):
    """``create_hypervector(f)`` — initialize each element with ``f(i)``."""
    return _allocate(Opcode.CREATE_HYPERVECTOR, dim=int(dim), element=element, init_fn=init)


def create_hypermatrix(rows: int, cols: int, init: Callable[[int, int], float], element: ElementType = float32):
    """``create_hypermatrix(f)`` — initialize each element with ``f(i, j)``."""
    return _allocate(
        Opcode.CREATE_HYPERMATRIX, rows=int(rows), cols=int(cols), element=element, init_fn=init
    )


def random_hypervector(
    dim: int,
    element: ElementType = float32,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
):
    """``random_hypervector()`` — uniform random values (bipolar for ints)."""
    return _allocate(Opcode.RANDOM_HYPERVECTOR, rng, dim=int(dim), element=element, seed=seed)


def random_hypermatrix(
    rows: int,
    cols: int,
    element: ElementType = float32,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
):
    """``random_hypermatrix()`` — uniform random values (bipolar for ints)."""
    return _allocate(
        Opcode.RANDOM_HYPERMATRIX, rng, rows=int(rows), cols=int(cols), element=element, seed=seed
    )


def gaussian_hypervector(
    dim: int,
    element: ElementType = float32,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
):
    """``gaussian_hypervector()`` — i.i.d. standard normal values."""
    return _allocate(Opcode.GAUSSIAN_HYPERVECTOR, rng, dim=int(dim), element=element, seed=seed)


def gaussian_hypermatrix(
    rows: int,
    cols: int,
    element: ElementType = float32,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
):
    """``gaussian_hypermatrix()`` — i.i.d. standard normal values."""
    return _allocate(
        Opcode.GAUSSIAN_HYPERMATRIX, rng, rows=int(rows), cols=int(cols), element=element, seed=seed
    )


# ---------------------------------------------------------------------------
# Element-wise primitives
# ---------------------------------------------------------------------------


def wrap_shift(x: AnyValue, shift_amount: int):
    """Rotate the elements of a hypervector with wrap-around."""
    return _apply(Opcode.WRAP_SHIFT, x, shift_amount=int(shift_amount))


def sign(x: AnyValue):
    """Map each element to +1 / -1 by its sign.

    The result holds bipolar values in the operand's *storage* element
    type; shrinking the storage to 1 bit is the automatic-binarization
    transform's job.
    """
    return _apply(Opcode.SIGN, x)


def sign_flip(x: AnyValue):
    """Flip the sign of every element."""
    return _apply(Opcode.SIGN_FLIP, x)


def add(lhs: AnyValue, rhs: AnyValue):
    """Element-wise addition of hypervectors / hypermatrices."""
    return _apply(Opcode.ADD, lhs, rhs)


def sub(lhs: AnyValue, rhs: AnyValue):
    """Element-wise subtraction of hypervectors / hypermatrices."""
    return _apply(Opcode.SUB, lhs, rhs)


def mul(lhs: AnyValue, rhs: AnyValue):
    """Element-wise multiplication (binding) of hypervectors / hypermatrices."""
    return _apply(Opcode.MUL, lhs, rhs)


def div(lhs: AnyValue, rhs: AnyValue):
    """Element-wise division of hypervectors / hypermatrices."""
    return _apply(Opcode.DIV, lhs, rhs)


def absolute_value(x: AnyValue):
    """Element-wise absolute value."""
    return _apply(Opcode.ABSOLUTE_VALUE, x)


def cosine(x: AnyValue):
    """Element-wise cosine."""
    return _apply(Opcode.COSINE, x)


def type_cast(x: AnyValue, element: ElementType):
    """Cast hypervector / hypermatrix elements to ``element``."""
    return _apply(Opcode.TYPE_CAST, x, element=element)


# ---------------------------------------------------------------------------
# Access / shape primitives
# ---------------------------------------------------------------------------


def get_element(x: AnyValue, row_idx: int, col_idx: Optional[int] = None):
    """Index into a hypervector (one index) or hypermatrix (two indices)."""
    return _apply(
        Opcode.GET_ELEMENT, x, row_idx=int(row_idx), col_idx=None if col_idx is None else int(col_idx)
    )


def arg_min(x: AnyValue):
    """Arg-min of a hypervector, or per-row arg-min of a hypermatrix."""
    return _apply(Opcode.ARG_MIN, x)


def arg_max(x: AnyValue):
    """Arg-max of a hypervector, or per-row arg-max of a hypermatrix."""
    return _apply(Opcode.ARG_MAX, x)


def set_matrix_row(mat: AnyValue, new_row: AnyValue, row_idx: int):
    """Replace row ``row_idx`` of a hypermatrix with ``new_row``.

    The primitive is functional: it produces a new hypermatrix value (in
    traced mode back ends may update in place when the old value is dead).
    """
    return _apply(Opcode.SET_MATRIX_ROW, mat, new_row, row_idx=int(row_idx))


def get_matrix_row(mat: AnyValue, row_idx: int):
    """Extract row ``row_idx`` of a hypermatrix as a hypervector."""
    return _apply(Opcode.GET_MATRIX_ROW, mat, row_idx=int(row_idx))


def matrix_transpose(mat: AnyValue):
    """Transpose a hypermatrix."""
    return _apply(Opcode.MATRIX_TRANSPOSE, mat)


# ---------------------------------------------------------------------------
# Reduction / similarity primitives
# ---------------------------------------------------------------------------


def l2norm(x: AnyValue):
    """L2 norm of a hypervector, or per-row norms of a hypermatrix."""
    return _apply(Opcode.L2NORM, x)


def cossim(lhs: AnyValue, rhs: AnyValue):
    """Cosine similarity between hypervectors / hypermatrices."""
    return _apply(Opcode.COSSIM, lhs, rhs)


def hamming_distance(lhs: AnyValue, rhs: AnyValue):
    """Hamming distance between hypervectors / hypermatrices."""
    return _apply(Opcode.HAMMING_DISTANCE, lhs, rhs)


def matmul(lhs: AnyValue, rhs: AnyValue):
    """Matrix multiplication: ``matmul(features, rp_matrix)`` encodes features.

    With ``lhs: hypervector<C>`` and ``rhs: hypermatrix<R, C>`` the result is
    ``hypervector<R>`` (= ``rhs @ lhs``); with ``lhs: hypermatrix<N, C>`` the
    result is ``hypermatrix<N, R>``.
    """
    return _apply(Opcode.MATMUL, lhs, rhs)


# ---------------------------------------------------------------------------
# Training primitive
# ---------------------------------------------------------------------------


def retrain(memory: AnyValue, rows: AnyValue, labels, similarity: str = "hamming"):
    """The corrective training rule: each of ``rows`` is predicted against
    ``memory`` (Hamming distance of the signs, or ``"cosine"`` similarity),
    its sign bundled into its label's row and subtracted from a wrongly
    predicted row.  Returns the updated float32 memory.

    Row after row (each prediction sees the steps before it) on the
    reference route; as one mini-batch (every prediction, then every
    update) on the GPU / batched-CPU route.  One row with an ``int``
    label is the same step on both.
    """
    return _apply(Opcode.RETRAIN, memory, rows, labels, similarity=similarity)


# ---------------------------------------------------------------------------
# Approximation directive
# ---------------------------------------------------------------------------


def red_perf(result: AnyValue, begin: int, end: int, stride: int):
    """Annotate the reduction producing ``result`` with perforation bounds.

    ``red_perf`` is a compiler directive (Section 4.2): it does not compute
    anything itself.  The reduction-perforation transform folds the
    ``(begin, end, stride)`` parameters into the producing ``matmul`` /
    ``cossim`` / ``hamming_distance`` / ``l2norm`` operation.  In eager mode
    the directive is a no-op — approximation is a compile-time concern.
    """
    if isinstance(result, Value):
        builder = current_builder()
        if builder is None:
            raise TracingError("red_perf used on a traced value outside of an active trace")
        attrs = {"begin": int(begin), "end": int(end), "stride": int(stride)}
        builder.emit(Opcode.RED_PERF, [result], attrs, None)
    return result
