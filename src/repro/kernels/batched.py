"""Batched "library routine" kernels standing in for cuBLAS / Thrust / CUDA.

The paper's GPU back end (Section 4.3) does not lower HDC primitives to
generic HPVM IR loops; it lowers them directly to optimized library routines
— cuBLAS for matrix multiplication, Thrust for reductions, and hand-written
CUDA kernels for the rest.  Offline we have no GPU, so these kernels play
that role: they operate on whole hypermatrices at once with fully vectorized
NumPy, which preserves the *structural* property the paper evaluates (coarse
library calls on resident device data instead of per-row loops) and yields
the same relative-performance shape.

Only the routines that differ from the reference kernel live here.  Where
the reference kernel is already one whole-array NumPy call (``arg_min``,
``arg_max``, ``matrix_transpose``, ``l2norm``), the primitive table's
``library`` column is blank and both lowerings run it; the packed
similarity routines are :mod:`repro.kernels.binary`'s.

Every kernel here accepts the same perforation parameters as the reference
kernels and produces numerically identical results (up to floating point
reassociation).

:func:`gather_bundle` is the one *sparse* routine: item-memory encoders
(HyperOMS level-ID encoding) bundle a handful of pre-bound rows per query,
so its work is proportional to the active items, not to the size of the
item memory a dense select-matrix GEMM would stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels import memo, reference as ref
from repro.kernels.reference import bundle_accumulator, perforation_scale, reduction_slice

__all__ = [
    "gemm",
    "sign_gemm",
    "pairwise_cossim",
    "retrain",
    "bind",
    "bundle_windows",
    "gather_bundle",
    "permute",
]


def gemm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> np.ndarray:
    """Batched ``matmul`` (cuBLAS GEMM analogue).

    ``lhs`` is ``(N, C)`` or ``(C,)``, ``rhs`` is ``(R, C)``; the result is
    ``(N, R)`` / ``(R,)``.  Perforated products are rescaled exactly like
    the reference kernel.

    A block of fewer rows than ``rhs`` runs *projection-major*, ``(rhs @
    lhs.T).T`` — the per-row contraction ``rhs @ a`` applied to a block,
    ~0.76x the sgemm time of ``lhs @ rhs.T`` at 48-64 x 617 x 2048 (one
    OpenBLAS 0.3.31 thread, x86-64) and bit-identical to it
    (``tests/test_kernels_batched.py`` pins that BLAS property).  From
    ``N >= R`` on it loses, so the orientation follows the row counts.  The
    result is then F-ordered; the element-wise and similarity kernels
    after it run as fast on either order.
    """
    contraction = rhs.shape[-1]
    sl = reduction_slice(contraction, begin, end, stride)
    scale = perforation_scale(contraction, begin, end, stride)
    out = _sgemm(lhs[..., sl], np.asarray(rhs[:, sl], dtype=np.float32))
    if scale != 1.0:
        out = out * scale
    return np.asarray(out, dtype=np.float32)


def _sgemm(lhs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``lhs @ r.T`` in float32, oriented as :func:`gemm` says."""
    if lhs.ndim == 1:
        return r @ np.asarray(lhs, dtype=np.float32)
    if lhs.shape[0] < r.shape[0]:
        return (r @ np.asarray(lhs, dtype=np.float32).T).T
    return np.asarray(lhs, dtype=np.float32) @ r.T


_F32 = np.finfo(np.float32)
_HALF_F32_MAX = float(_F32.max) / 2


def sign_gemm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> np.ndarray:
    """Certified ``sign ∘ matmul``: ``reference.sign(reference.matmul(...))``
    at about the cost of the float32 :func:`gemm`.

    An n-term float32 dot product is within ``γ_n · Σ|r_j x_j|`` of the
    exact one, ``γ_n = n·u / (1 - n·u)``, ``u = 2^-24`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., §3.1; any summation
    order, with or without FMA), and ``Σ|r_j x_j| <= ‖x‖₁ · max|r|``.  A
    coordinate whose float32 value lies outside its row's bound therefore
    has the exact product's sign, which the float64 reference shares (the
    perforation rescale, ``>= 1``, keeps it).  The coordinates inside it
    (about one a row of ISOLET's 617 features against a ±1 projection) are
    recomputed as the reference computes them: float64 products, the
    rescale, the cast to float32.  The bound is taken at ``γ_{n+5}`` (the
    operands' casts to float32, the bound's own rounding) plus absolute
    terms for underflow, an operand's cast included; a row whose float32
    partial sums could overflow (or that holds a NaN or an infinity) is
    recomputed whole, as is any NaN or infinite coordinate — with the
    partial sums in range, the trace of an operand whose cast overflowed.  A row of integers against an integer projection with
    ``‖x‖₁ · max|r| < 2^24`` has exact partial sums, so its float32 sign
    is certified as it stands — exact zeros included (RelHD's 0/1 Cora
    features against a ±1 projection give ~8 % of them at D = 512).

    ``max|r|`` and the projection's integrality come from
    :func:`repro.kernels.memo.projection`, scanned once per execution (the
    integrality only once an integer row asks).  A 1-D ``lhs`` (one row, as
    a per-row stage calls it) takes a lean path with scalar bounds.

    One band is left: a coordinate whose exact value is within float64
    rounding of zero (about ``n · 2^-53 · ‖x‖₁ · max|r|``, ~1e-13 of the
    row's 1-norm here) has no summation-order-free float64 sign, so there
    the recompute and the reference's own BLAS call may differ — and so
    may this function called on one row and on a block holding it (a
    float64 GEMV recompute against a per-coordinate one).  It is the one
    place the CPU's block route and its per-row loop can still disagree.
    """
    contraction = rhs.shape[-1]
    sl = reduction_slice(contraction, begin, end, stride)
    scale = perforation_scale(contraction, begin, end, stride)
    projection = memo.projection(rhs, sl)
    r_max, window, rows = projection.r_max, rhs[:, sl], lhs[..., sl]
    product = _sgemm(rows, projection.columns)  # unscaled: a rescale by >= 1 keeps every sign
    signs = ref.sign(product)
    n = window.shape[1]
    gamma = (n + 5) * 2.0**-24 / (1 - (n + 5) * 2.0**-24)
    tiny = float(_F32.tiny)
    floor = 2 * n * max(1.0, r_max) * tiny
    if lhs.ndim == 1:
        # Python floats: an infinite or NaN norm raises no warning.
        l1 = float(np.abs(rows).sum(dtype=np.float64))
        if not l1 * r_max < _HALF_F32_MAX:  # a partial sum may overflow, or a NaN / inf
            i, j = None, slice(None)
        else:
            j = np.flatnonzero(_uncertified(product, np.float32((gamma * r_max + 2 * tiny) * l1 + floor)))
            if not j.size or (_integer_rows(rows, l1, r_max) and projection.integral):
                return signs
            i = None
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            l1 = np.abs(rows).sum(axis=1, dtype=np.float64)
            bound = (gamma * r_max + 2 * tiny) * l1 + floor
            bound[~(l1 * r_max < _HALF_F32_MAX)] = np.inf  # a partial sum may overflow
        bound = bound.astype(np.float32)
        # ``np.flatnonzero`` over the C-ordered view of the product: the
        # projection-major product is F-ordered, so its transpose.
        if product.flags.f_contiguous:
            j, i = np.divmod(np.flatnonzero(_uncertified(product.T, bound)), product.shape[0])
        else:
            i, j = np.divmod(np.flatnonzero(_uncertified(product, bound[:, None])), product.shape[1])
        if i.size:
            exact = _integer_rows(rows, l1, r_max)
            if exact.any() and projection.integral:
                keep = ~exact[i]
                i, j = i[keep], j[keep]
        if not i.size:
            return signs
    signs[j if i is None else (i, j)] = _recompute(rows, window, i, j, scale)
    return signs


def _uncertified(product: np.ndarray, bound) -> np.ndarray:
    """Where ``product``'s float32 sign is not certified: within ``bound``,
    NaN, or infinite.  Under the overflow check an infinity comes from an
    operand whose cast to float32 overflowed, not from a partial sum."""
    magnitude = np.abs(product)
    return ~((magnitude > bound) & (magnitude < np.inf))


def _recompute(rows: np.ndarray, window: np.ndarray, i, j, scale: float) -> np.ndarray:
    """The signs of coordinates ``(i, j)`` (``i`` ``None``: of the one row
    ``rows``) as the reference computes them: float64 products, the
    rescale, the cast to float32."""
    if i is None:
        exact = window[j].astype(np.float64) @ rows.astype(np.float64)
    else:
        exact = np.einsum("kc,kc->k", rows[i].astype(np.float64), window[j].astype(np.float64))
    if scale != 1.0:
        exact = exact * scale
    return ref.sign(exact.astype(np.float32))


def _integer_rows(rows: np.ndarray, l1, r_max: float):
    """Which of ``rows`` (or whether the one row) has exact float32 partial
    sums against an integer projection: only integers, and ``‖row‖₁ ·
    max|r| < 2^24``.  An integer row's float64 1-norm is itself an
    integer, so most other rows are ruled out before the scan."""
    maybe = (l1 * max(r_max, 1.0) < 2.0**24) & (l1 == np.trunc(l1))
    if rows.ndim == 1:
        return bool(maybe) and np.array_equal(rows, np.trunc(rows))
    if maybe.any():
        maybe[maybe] = np.all(rows[maybe] == np.trunc(rows[maybe]), axis=1)
    return maybe


def pairwise_cossim(
    lhs: np.ndarray,
    rhs: np.ndarray,
    begin: int = 0,
    end: Optional[int] = None,
    stride: int = 1,
) -> np.ndarray:
    """All-pairs cosine similarity (GEMM + row-norm normalization)."""
    squeeze_lhs = lhs.ndim == 1
    squeeze_rhs = rhs.ndim == 1
    a = np.atleast_2d(lhs)
    b = np.atleast_2d(rhs)
    sl = reduction_slice(a.shape[-1], begin, end, stride)
    a = a[:, sl].astype(np.float32)
    b = b[:, sl].astype(np.float32)
    dots = a @ b.T
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    denom = np.outer(norm_a, norm_b)
    denom[denom == 0.0] = 1.0
    out = (dots / denom).astype(np.float32)
    if squeeze_lhs and squeeze_rhs:
        return out[0, 0]
    if squeeze_lhs:
        return out[0]
    if squeeze_rhs:
        return out[:, 0]
    return out


def retrain(
    memory: np.ndarray, rows: np.ndarray, labels, similarity: str = "hamming"
) -> np.ndarray:
    """The corrective training rule as one mini-batch: every row predicted
    against ``memory`` as it stands (the reference
    :func:`~repro.kernels.reference.hamming_distance` of the signs, one
    exact GEMM, or the reference :func:`~repro.kernels.reference.cossim`
    of the rows as they stand), then every row's sign bundled into its
    labelled row, then every wrong prediction corrected.  A float32 copy of ``memory``;
    the structure of the CUDA baselines' scatter-add training kernels, and
    *not* the ordered :func:`repro.kernels.reference.retrain` once two rows
    of a batch interact."""
    scored = np.atleast_2d(rows)
    signs = ref.sign(scored).astype(np.float32)
    labels = ref.checked_labels(labels, len(signs), len(memory))
    if similarity == "cosine":
        predicted = ref.arg_max(ref.cossim(scored, memory))
    else:
        predicted = ref.arg_min(ref.hamming_distance(signs, ref.sign(memory)))
    updated = np.array(memory, dtype=np.float32)
    # All bundles, then all corrections: ``np.add.at``'s order (so its
    # bits on any values) at a fraction of its per-call cost.
    for label, row in zip(labels, signs):
        updated[label] += row
    for guess, label, row in zip(predicted.tolist(), labels, signs):
        if guess != label:
            updated[guess] -= row
    return updated


def bind(lhs: np.ndarray, rhs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched HDC *bind* (element-wise multiply with broadcasting).

    The CUDA baselines implement binding as one fused element-wise kernel
    over whole hypermatrices; this is that routine.  Works on any pair of
    broadcast-compatible stacks of hypervectors — e.g. a ``(reads,
    positions, D)`` k-mer accumulator against a ``(reads, positions, D)``
    gather of rotated base hypervectors.  ``out`` is NumPy's: pass the
    accumulator to bind into it in place (±1 operands stay exact in
    ``int8``).
    """
    return np.multiply(lhs, rhs, out=out)


def permute(x: np.ndarray, shift: int) -> np.ndarray:
    """Batched HDC *permute* — rotate every hypervector along its last axis.

    The batched analogue of the per-row ``wrap_shift`` reference kernel:
    one strided copy rotates a whole stack of hypervectors at once
    (offset-encoded positional binding does this once per k-mer offset
    instead of once per row).
    """
    return np.roll(np.asarray(x), shift, axis=-1)


def bundle_windows(x: np.ndarray) -> np.ndarray:
    """Bundle (sum) the second-to-last axis of a hypervector stack.

    Reduces a ``(..., windows, D)`` stack to ``(..., D)`` float32 — e.g.
    the per-position k-mer hypervectors of every read at once.  An integer
    stack is summed in the integer type its window count proves cannot
    overflow (:func:`bundle_accumulator`) and cast to float32 once; a float
    one is summed in float32, exact for bipolar operands (integer-valued
    partial sums).  Either way the bundle is bit-identical to any per-row
    order.
    """
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        return x.sum(axis=-2, dtype=bundle_accumulator(x, x.shape[-2])).astype(np.float32)
    return np.asarray(x, dtype=np.float32).sum(axis=-2)


def gather_bundle(memory: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Gather rows of an integer item memory and bundle them per query.

    ``memory`` is ``(items, D)`` (a pre-bound ±1 ``int8`` item memory),
    ``index`` a padded ``(B, slots)`` integer matrix: row ``b`` of the
    ``(B, D)`` float32 result is the sum of ``memory[index[b, k]]`` over
    its non-negative entries.  Negative entries are padding and contribute
    nothing, so a row of padding bundles to the zero vector.

    One gather and one add per slot: the work is ``B * slots * D`` small
    integers — proportional to the active items — where the select-matrix
    GEMM it replaces streams ``items * D`` floats per level whatever the
    input holds.  The sums are taken in the narrowest integer type that
    ``slots`` proves cannot overflow (:func:`bundle_accumulator`) and
    cast to float32 once, so the result is exact and bit-identical to the
    per-row reference kernel in any summation order.
    """
    index = np.asarray(index)
    if index.ndim != 2:
        raise ValueError(f"gather_bundle expects a (B, slots) index, got shape {index.shape}")
    out = np.zeros((index.shape[0], memory.shape[1]), dtype=bundle_accumulator(memory, index.shape[1]))
    for column in index.T:
        live = column >= 0
        if live.all():
            out += memory[column]
        else:
            out[live] += memory[column[live]]
    return out.astype(np.float32)
