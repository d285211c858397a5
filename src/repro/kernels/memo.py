"""Per-execution state the kernels read: the float64 cast memo, the
certified sign's projection scan, the kernel column eager primitives
follow, and whether a reference-column block attempt is running.

The reference ``matmul`` and ``cossim`` accumulate in float64, so every
call casts both operands.  In a stage run per row (a cosine search on the
CPU, a training step) one operand — the random projection of ``matmul``,
the rows ``cossim`` scores against — is the same array on every row, and
casting it once per row was most of the per-sample floor.
:func:`float64_columns` casts such an operand once per *execution*
instead.  Since ``sign ∘ matmul`` runs the certified float32 form on
every route inside an execution
(:func:`repro.kernels.batched.sign_gemm`), what is still cast is
``cossim``'s rows and a ``matmul`` product read other than by ``sign``.
The certified form reads its projection through :func:`projection`
instead: the float32 window, ``max|r|`` and (when an integer row asks)
whether every entry is an integer, scanned once per execution rather than
on every call.

Both memos share one scope and its rules:

* it lives exactly as long as one compiled-program execution
  (:meth:`repro.backends.base.CompiledProgram._execute_env` opens it
  around ``Backend.execute``, :meth:`repro.serving.servable.Servable.updated`
  around its update rule), so an operand edited in place between two runs
  is read afresh, and eager calls outside either compute per call;
* it is a :class:`contextvars.ContextVar`, so each thread (each serving
  worker) sees only its own execution's memo, and eager primitives an
  implementation function calls inside the execution share it;
* entries are keyed by the source array's identity plus the perforation
  window and hold the source alive, so an ``id`` cannot be reused by
  another array while its entry exists;
* it keeps at most :data:`MAX_ENTRIES` entries, least recently used out
  first, whatever the row count.

A hit returns what the computation would have produced, and the
arithmetic after it is unchanged, so results are bit-identical.  The
cached arrays are read-only: every caller shares them.

The same scope carries the execution's kernel column (:func:`column`):
``"library"`` under the GPU / batched-CPU kernel set and in an update
rule, ``"kernel"`` on the reference CPU and accelerator routes and outside
any execution.  Eager HDC++ primitives read it (:mod:`repro.hdcpp.primitives`).

Inside the CPU back end's block attempts (:func:`block_attempt`: a stage's
implementation run once over its whole block on the reference ``kernel``
column) an eager read of a kernel whose float arithmetic depends on the
row count (``Primitive.reassociates``) raises :class:`RowCountDependent`,
so the stage keeps its per-row loop instead of answering with other bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "EXECUTION",
    "Execution",
    "RowCountDependent",
    "block_attempt",
    "column",
    "float64_columns",
    "projection",
    "refuse_in_block",
]

#: Bound on one execution's memo.  A program has a handful of loop-invariant
#: reduction operands (one projection, one class memory); operands that
#: change every step (a training loop's class memory) pass through and are
#: evicted.
MAX_ENTRIES = 4


#: The current execution's memo (and kernel column), or ``None`` outside one.
EXECUTION: ContextVar[Optional[dict]] = ContextVar("float64_casts", default=None)


class Execution(dict):
    """One execution's scope, opened by ``with``: its memo entries, and the
    kernel column its eager primitives follow."""

    __slots__ = ("column", "_token")

    def __init__(self, column: str):
        self.column = column

    def __enter__(self) -> "Execution":
        self._token = EXECUTION.set(self)
        return self

    def __exit__(self, *exc) -> None:
        EXECUTION.reset(self._token)


def column() -> str:
    """The kernel column of the active execution; ``"kernel"`` outside one."""
    return getattr(EXECUTION.get(), "column", "kernel")


#: Whether a reference-column block attempt (:func:`block_attempt`) is running.
_BLOCK: ContextVar[bool] = ContextVar("block_attempt", default=False)


class RowCountDependent(ValueError):
    """A reference-column block attempt read a kernel whose float arithmetic
    depends on the row count (the opcodes named); the stage runs per row
    instead.  A ``ValueError``, so an executor that does not ask for block
    attempts would treat it as any row-only implementation."""

    def __init__(self, *opcodes):
        names = list(dict.fromkeys(opcode.value for opcode in opcodes))
        verb = "reassociates" if len(names) == 1 else "reassociate"
        super().__init__(f"{', '.join(names)} {verb} with the row count")


@contextmanager
def block_attempt() -> Iterator[None]:
    """The scope of one reference-column block attempt (nests)."""
    token = _BLOCK.set(True)
    try:
        yield
    finally:
        _BLOCK.reset(token)


def refuse_in_block(opcode) -> None:
    """Raise :class:`RowCountDependent` for ``opcode``'s reassociating
    kernel read inside a block attempt; a no-op anywhere else."""
    if _BLOCK.get():
        raise RowCountDependent(opcode)


def _memoised(key: tuple, source: np.ndarray, compute):
    """``compute()``, once per execution for ``key``; per call outside one."""
    memo = EXECUTION.get()
    if memo is None:
        return compute()
    entry = memo.pop(key, None)
    if entry is None:
        entry = (source, compute())
        if len(memo) >= MAX_ENTRIES:
            del memo[next(iter(memo))]
    memo[key] = entry  # re-inserted: the dict's order is least recently used first
    return entry[1]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def float64_columns(source: np.ndarray, window: slice) -> np.ndarray:
    """``source[:, window].astype(np.float64)``, cast once per execution."""
    key = (id(source), window.start, window.stop, window.step)
    return _memoised(key, source, lambda: _read_only(source[:, window].astype(np.float64)))


class Projection:
    """A projection window as the certified sign reads it (:func:`projection`):
    ``columns``, the window as C-ordered float32; ``r_max``, ``max|r|``
    (NaN if any entry is); ``integral``, whether every entry is an integer
    below 2^24, so exact in float32 — scanned on first read, since only
    integer rows ask."""

    __slots__ = ("columns", "r_max", "_window", "_integral")

    def __init__(self, window: np.ndarray):
        self._window, self._integral = window, None
        self.r_max = max(float(window.max(initial=0)), -float(window.min(initial=0)))
        self.columns = _read_only(np.ascontiguousarray(window, dtype=np.float32))

    @property
    def integral(self) -> bool:
        if self._integral is None:
            w = self._window
            self._integral = self.r_max < 2.0**24 and bool(np.all(w == np.trunc(w)))
        return self._integral


def projection(source: np.ndarray, window: slice) -> Projection:
    """``source[:, window]`` as a :class:`Projection`, scanned once per execution."""
    key = ("projection", id(source), window.start, window.stop, window.step)
    return _memoised(key, source, lambda: Projection(source[:, window]))
