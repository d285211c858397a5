"""Reference NumPy kernels defining the semantics of every HDC primitive.

Each kernel mirrors one of the HDC algorithmic primitives of Table 1 of the
paper.  The reduce kernels (``matmul``, ``cossim``, ``hamming_distance``,
``l2norm``) accept optional *perforation* parameters ``(begin, end, stride)``
implementing the reduction-perforation transform of Section 4.2:

* For ``hamming_distance`` and ``cossim`` the perforated result is **not**
  rescaled — only relative magnitudes matter for similarity search.
* For ``matmul`` and ``l2norm`` the accumulated value **is** rescaled by the
  inverse of the visited fraction, because their absolute magnitudes matter.

All kernels are pure functions over NumPy arrays; element-type bookkeeping
(e.g. whether a vector is bipolar 1-bit) is handled by the callers.  The
float64 copy of ``matmul``'s / ``cossim``'s right-hand operand is cast once
per execution (:func:`repro.kernels.memo.float64_columns`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.kernels import memo

__all__ = [
    "empty",
    "create",
    "random_values",
    "gaussian_values",
    "wrap_shift",
    "sign",
    "sign_flip",
    "elementwise",
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
    "checked_labels",
    "gather_bundle",
    "bundle_accumulator",
    "reduction_slice",
    "perforation_scale",
    "EXACT_F32_TERMS",
]

#: A float32 sum of fewer than this many ±1 terms is exact in any summation
#: order: every partial sum is an integer of magnitude below ``2**24``, and
#: float32 holds all of those.
EXACT_F32_TERMS = 2**24


def reduction_slice(
    length: int,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> slice:
    """Build the index slice used by a (possibly perforated) reduction.

    ``begin``/``end``/``stride`` are the three arguments of the
    ``red_perf`` HDC++ directive.  A full reduction corresponds to
    ``(0, length, 1)``.
    """
    if end is None:
        end = length
    if begin < 0 or end > length or begin > end:
        raise ValueError(
            f"invalid perforation range [{begin}, {end}) for length {length}"
        )
    if stride < 1:
        raise ValueError(f"perforation stride must be >= 1, got {stride}")
    return slice(begin, end, stride)


def perforation_scale(
    length: int,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> float:
    """Return ``total_elements / visited_elements`` for a perforated reduce."""
    if end is None:
        end = length
    visited = len(range(begin, end, stride))
    if visited == 0:
        raise ValueError("perforation visits zero elements")
    return length / visited


# ---------------------------------------------------------------------------
# Initialization primitives
# ---------------------------------------------------------------------------


def empty(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``hypervector()`` / ``hypermatrix()`` — zero-initialized storage."""
    return np.zeros(shape, dtype=dtype)


def create(
    shape: tuple[int, ...],
    dtype: np.dtype,
    init: Callable[..., float],
) -> np.ndarray:
    """``create_hypervector(f)`` / ``create_hypermatrix(f)``.

    ``init`` is called with the element indices (one index for vectors, two
    for matrices) and must return the element value.
    """
    out = np.empty(shape, dtype=dtype)
    if len(shape) == 1:
        for i in range(shape[0]):
            out[i] = init(i)
    elif len(shape) == 2:
        for i in range(shape[0]):
            for j in range(shape[1]):
                out[i, j] = init(i, j)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unsupported shape {shape}")
    return out


def random_values(
    shape: tuple[int, ...],
    dtype: np.dtype,
    rng: np.random.Generator,
    bipolar: bool = False,
) -> np.ndarray:
    """``random_hypervector()`` / ``random_hypermatrix()``.

    Floating point types draw from ``U(-1, 1)``; integer types draw uniform
    bipolar ``{+1, -1}`` values, which is the convention used by the HDC
    applications in the paper for random projection matrices.

    The bipolar draw stays ``rng.integers``, not the sign-bit read of
    :func:`repro.apps.common.bipolar_random` (nor its table, which is keyed
    by seed): that read equals ``integers`` only on a fresh generator.
    ``integers`` takes 32-bit halves through the bit generator's own
    one-half buffer, so after an odd count the caller's generator would be
    left in another state, and every later draw from it would move.
    """
    if bipolar or np.issubdtype(dtype, np.integer):
        values = rng.integers(0, 2, size=shape) * 2 - 1
        return values.astype(dtype)
    return rng.uniform(-1.0, 1.0, size=shape).astype(dtype)


def gaussian_values(
    shape: tuple[int, ...],
    dtype: np.dtype,
    rng: np.random.Generator,
) -> np.ndarray:
    """``gaussian_hypervector()`` / ``gaussian_hypermatrix()`` — N(0, 1)."""
    values = rng.standard_normal(size=shape)
    if np.issubdtype(dtype, np.integer):
        values = np.rint(values)
    return values.astype(dtype)


# ---------------------------------------------------------------------------
# Element-wise primitives
# ---------------------------------------------------------------------------


def wrap_shift(x: np.ndarray, shift_amount: int) -> np.ndarray:
    """Rotate elements with wrap-around (``wrap_shift``)."""
    return np.roll(x, shift_amount, axis=-1)


def sign(x: np.ndarray) -> np.ndarray:
    """Map each element to +1 / -1 by its sign, as ``int8``.

    Zero (and ``-0.0``) maps to +1, NaN to -1.  One vectorized compare,
    then integer arithmetic in place on its own result: ``np.where`` with
    scalar branches runs NumPy's element-at-a-time path, ~25x slower on a
    serving batch.
    """
    if getattr(x, "__packed_bits__", False):
        # sign is the identity on packed bipolar words (bit = 1 is +1);
        # a compare would reinterpret the words as data.
        return x
    out = np.asarray(np.asarray(x) >= 0).view(np.int8)  # {0, 1}; asarray keeps 0-d an array
    out += out  # doubling: NumPy's int8 add is SIMD, its int8 shift (3x slower here) is not
    out -= 1
    return out


def sign_flip(x: np.ndarray) -> np.ndarray:
    """Flip the sign of every element (``sign_flip``)."""
    return -x


_BINOPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}


def elementwise(op: str, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Element-wise ``add`` / ``sub`` / ``mul`` / ``div``."""
    if op not in _BINOPS:
        raise KeyError(f"unknown element-wise op {op!r}")
    if op == "div":
        lhs = np.asarray(lhs, dtype=np.result_type(lhs, np.float32))
    return _BINOPS[op](lhs, rhs)


def absolute_value(x: np.ndarray) -> np.ndarray:
    """Element-wise absolute value."""
    return np.abs(x)


def cosine(x: np.ndarray) -> np.ndarray:
    """Element-wise cosine."""
    return np.cos(x.astype(np.float64)).astype(np.float32)


# ---------------------------------------------------------------------------
# Reductions and similarity primitives
# ---------------------------------------------------------------------------


def l2norm(
    x: np.ndarray,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> np.ndarray:
    """L2 norm of a hypervector, or per-row norms of a hypermatrix.

    Perforated norms are rescaled by ``sqrt(total / visited)`` so that their
    absolute magnitude remains comparable to the exact norm.
    """
    length = x.shape[-1]
    sl = reduction_slice(length, begin, end, stride)
    scale = perforation_scale(length, begin, end, stride)
    sub = x[..., sl].astype(np.float64)
    return np.sqrt(np.sum(sub * sub, axis=-1) * scale).astype(np.float32)


def get_element(x: np.ndarray, row_idx: int, col_idx: Optional[int] = None):
    """Index into a hypervector (one index) or hypermatrix (two indices)."""
    if x.ndim == 1:
        if col_idx is not None:
            raise ValueError("hypervector indexing takes a single index")
        return x[row_idx]
    if col_idx is None:
        raise ValueError("hypermatrix indexing requires two indices")
    return x[row_idx, col_idx]


def type_cast(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Cast the elements of a hypervector / hypermatrix to a new type."""
    return x.astype(dtype)


def arg_min(x: np.ndarray) -> np.ndarray:
    """Arg-min of a hypervector, or per-row arg-min of a hypermatrix."""
    return np.argmin(x, axis=-1)


def arg_max(x: np.ndarray) -> np.ndarray:
    """Arg-max of a hypervector, or per-row arg-max of a hypermatrix."""
    return np.argmax(x, axis=-1)


def set_matrix_row(mat: np.ndarray, new_row: np.ndarray, row_idx: int) -> np.ndarray:
    """Return a copy of ``mat`` with row ``row_idx`` replaced by ``new_row``."""
    out = np.array(mat, copy=True)
    out[row_idx, :] = new_row
    return out


def get_matrix_row(mat: np.ndarray, row_idx: int) -> np.ndarray:
    """Extract a row of a hypermatrix as a hypervector."""
    return np.array(mat[row_idx, :], copy=True)


def matrix_transpose(mat: np.ndarray) -> np.ndarray:
    """Transpose a hypermatrix."""
    return np.ascontiguousarray(mat.T)


def cossim(
    lhs: np.ndarray,
    rhs: np.ndarray,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> np.ndarray:
    """Cosine similarity between hypervectors / hypermatrices.

    Shapes follow Table 1:

    * ``(D,), (D,)``      -> scalar
    * ``(D,), (K, D)``    -> ``(K,)`` similarity against every row of ``rhs``
    * ``(N, D), (K, D)``  -> ``(N, K)`` pairwise similarities

    The perforation range applies along the hypervector dimension ``D`` and
    the result is *not* rescaled (Section 4.2).
    """
    if lhs.ndim == 1 and rhs.ndim == 1:
        return cossim(lhs[None, :], rhs[None, :], begin, end, stride)[0, 0]
    if lhs.ndim == 1 and rhs.ndim == 2:
        return cossim(lhs[None, :], rhs, begin, end, stride)[0]
    if lhs.ndim == 2 and rhs.ndim == 1:
        return cossim(lhs, rhs[None, :], begin, end, stride)[:, 0]
    sl = reduction_slice(lhs.shape[-1], begin, end, stride)
    a = lhs[:, sl].astype(np.float64)
    b = memo.float64_columns(rhs, sl)
    dots = a @ b.T
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    denom = np.outer(norm_a, norm_b)
    denom[denom == 0.0] = 1.0
    return (dots / denom).astype(np.float32)


def hamming_distance(
    lhs: np.ndarray,
    rhs: np.ndarray,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
    bipolar: bool = False,
) -> np.ndarray:
    """Hamming distance (count of unequal elements) between hypervectors.

    Shape behaviour matches :func:`cossim`.  Perforated distances are not
    rescaled (Section 4.2).

    A hypermatrix ``lhs`` whose operands hold only +1 and -1 (any real
    dtype) is counted as the paper's CUDA baselines count it, ``(visited -
    a @ b.T) / 2`` from one float32 GEMM.  Below :data:`EXACT_F32_TERMS`
    visited elements that is the exact count, in any summation order and at
    any thread count.  The subtraction comes before the halving, so
    identical rows give ``+0.0`` as the count does.  Other values, and a
    longer window, are counted one row at a time with ``!=``.

    ``bipolar=True`` states that both operands hold only ±1 (the plan
    proves it of ``sign`` results, :func:`repro.ir.ops.bipolar_operands`),
    so they are not scanned for it.
    """
    if lhs.ndim == 2 and rhs.ndim == 1:
        return hamming_distance(lhs, rhs[None, :], begin, end, stride, bipolar)[:, 0]
    sl = reduction_slice(lhs.shape[-1], begin, end, stride)
    b = rhs[..., sl]
    # One compare a row counted by ``sum`` (the exact count
    # ``count_nonzero`` gives, at a lower fixed cost per call).
    if lhs.ndim == 1:
        counts = (lhs[sl] != b).sum(axis=-1)
        return np.float32(counts) if b.ndim == 1 else counts.astype(np.float32)
    a = lhs[:, sl]
    if a.shape[1] < EXACT_F32_TERMS and (bipolar or _bipolar(a) and _bipolar(b)):
        out = a.shape[1] - a.astype(np.float32) @ b.astype(np.float32).T
        out /= np.float32(2)
        return out
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float32)
    for i in range(a.shape[0]):
        out[i, :] = (a[i] != b).sum(axis=1)
    return out


def _bipolar(x: np.ndarray) -> bool:
    """Whether every element of the real array ``x`` is +1 or -1."""
    return x.dtype.kind in "iuf" and bool(np.all(np.abs(x) == 1))


def matmul(
    lhs: np.ndarray,
    rhs: np.ndarray,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> np.ndarray:
    """Matrix multiplication between hypervectors and hypermatrices.

    Following Listing 1 of the paper, ``matmul(features, rp_matrix)`` with
    ``features: (C,)`` and ``rp_matrix: (R, C)`` produces the encoded
    hypervector ``(R,)`` (i.e. ``rp_matrix @ features``).  With a matrix
    left-hand side ``(N, C)`` the result is ``(N, R)``.

    Perforated products are rescaled by ``total / visited`` so downstream
    uses that depend on absolute magnitudes stay calibrated (Section 4.2).
    """
    contraction = rhs.shape[-1]
    sl = reduction_slice(contraction, begin, end, stride)
    scale = perforation_scale(contraction, begin, end, stride)
    r = memo.float64_columns(rhs, sl)
    if lhs.ndim == 1:
        a = lhs[sl].astype(np.float64)
        out = r @ a
    else:
        a = lhs[:, sl].astype(np.float64)
        out = a @ r.T
    if scale != 1.0:
        out = out * scale
    return out.astype(np.float32)


def checked_labels(labels, n_rows: int, n_classes: int) -> list:
    """``labels`` as a list of one ``int`` per row, each a row of an
    ``n_classes``-row memory; raises ``ValueError`` otherwise."""
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != n_rows:
        raise ValueError(f"{n_rows} rows but {labels.shape[0]} labels")
    wrong = labels[(labels < 0) | (labels >= n_classes)]
    if wrong.size:
        raise ValueError(f"label {wrong[0]} out of range for {n_classes} rows")
    return labels.tolist()


def retrain(
    memory: np.ndarray, rows: np.ndarray, labels, similarity: str = "hamming"
) -> np.ndarray:
    """The corrective training rule, row after row: each of ``rows`` is
    predicted against the memory the rows before it left, its sign is
    bundled into its labelled row and subtracted from a wrongly predicted
    one.  Returns a float32 copy of ``memory``; ``n`` rows are ``n``
    one-row calls by construction.

    A ``"hamming"`` prediction compares the rows' signs with the memory's
    signs; a ``"cosine"`` one scores each row as it stands against the
    memory's values (:func:`cossim`, one row a step).  The memory's signs
    are kept as bits ``[memory >= 0]`` (``sign = 2 * bits - 1``), and only
    the (at most two) rows a step changed are recomputed.  The Hamming
    arg-min is taken as the arg-max of ``bits @ row``, which is exact:
    ``hamming = (D + sum(row)) / 2 - bits @ row`` for a ±1 ``row``, a sum
    of at most ``D < 2^24`` terms of ±1 is an integer in float32, the
    first of equals wins in both forms, and 0 is +1 in both
    (``sign(0) = +1``, ``0 >= 0``).
    """
    updated = np.array(memory, dtype=np.float32)
    scored = np.atleast_2d(rows)
    exact = np.float32 if updated.shape[1] < EXACT_F32_TERMS else np.float64
    signs = sign(scored).astype(exact)
    labels = checked_labels(labels, len(signs), len(updated))
    against = np.asarray(memory)
    bits, cosine = (against >= 0).astype(exact), similarity == "cosine"
    for row, query, label in zip(signs, scored, labels):
        guess = int((cossim(query, against) if cosine else bits @ row).argmax())
        updated[label] += row
        bits[label] = updated[label] >= 0
        if guess != label:
            updated[guess] -= row
            bits[guess] = updated[guess] >= 0
        if cosine:  # a new array each step: the float64 cast memo keys on identity
            against = updated.copy()
    return updated


def bundle_accumulator(memory: np.ndarray, slots: int) -> np.dtype:
    """Narrowest signed integer type that holds any sum of ``slots`` rows
    of the integer item memory ``memory`` — proven from the memory's dtype
    alone (``slots * 128`` for ``int8``), never by scanning its values."""
    if memory.dtype.kind not in "iu":
        raise TypeError(f"gather_bundle needs an integer item memory, got {memory.dtype}")
    info = np.iinfo(memory.dtype)
    bound = slots * max(-int(info.min), int(info.max))
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise OverflowError(f"{slots} rows of {memory.dtype} do not fit a 64-bit accumulator")


def gather_bundle(memory: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Bundle the rows of an integer item memory one query selects.

    ``memory`` is ``(items, D)``, ``index`` the query's ``(slots,)`` item
    indices; negative entries are padding and contribute nothing.  The
    sum is taken in integers (:func:`bundle_accumulator`) and cast to
    float32 once, so it is exact.  One-row twin of
    :func:`repro.kernels.batched.gather_bundle`.
    """
    index = np.asarray(index)
    if index.ndim != 1:
        raise ValueError(f"gather_bundle expects one (slots,) index row, got shape {index.shape}")
    rows = memory[index[index >= 0]]
    return rows.sum(axis=0, dtype=bundle_accumulator(memory, index.shape[0])).astype(np.float32)
