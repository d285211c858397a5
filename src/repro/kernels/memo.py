"""Per-execution memo of the float64 copies the reference reductions read.

The reference ``matmul`` and ``cossim`` accumulate in float64, so every
call casts both operands.  On the per-row CPU route one operand — the
random projection of ``matmul``, the rows ``cossim`` scores against — is
the same array on every row of a stage, and casting it once per row was
most of the per-sample floor.  :func:`float64_columns` casts such an
operand once per *execution* instead:

* the memo lives exactly as long as one compiled-program execution
  (:meth:`repro.backends.base.CompiledProgram._execute_env` opens it
  around ``Backend.execute``), so an operand edited in place between two
  runs is cast afresh, and eager calls outside an execution cast per call
  as before;
* it is a :class:`contextvars.ContextVar`, so each thread (each serving
  worker) sees only its own execution's memo, and eager primitives an
  implementation function calls inside the execution share it;
* entries are keyed by the source array's identity plus the perforation
  window and hold the source alive, so an ``id`` cannot be reused by
  another array while its entry exists;
* it keeps at most :data:`MAX_ENTRIES` entries, least recently used out
  first, whatever the row count.

A hit returns an array equal to what the cast would have produced, and the
arithmetic after it is unchanged, so results are bit-identical.  The
cached copies are read-only: every caller shares them.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional

import numpy as np

__all__ = ["MAX_ENTRIES", "EXECUTION", "float64_columns"]

#: Bound on one execution's memo.  A program has a handful of loop-invariant
#: reduction operands (one projection, one class memory); operands that
#: change every step (a training loop's class memory) pass through and are
#: evicted.
MAX_ENTRIES = 4

#: The current execution's memo, or ``None`` outside an execution.
EXECUTION: ContextVar[Optional[dict]] = ContextVar("float64_casts", default=None)


def float64_columns(source: np.ndarray, window: slice) -> np.ndarray:
    """``source[:, window].astype(np.float64)``, cast once per execution."""
    memo = EXECUTION.get()
    if memo is None:
        return source[:, window].astype(np.float64)
    key = (id(source), window.start, window.stop, window.step)
    entry = memo.pop(key, None)
    if entry is None:
        cast = source[:, window].astype(np.float64)
        cast.flags.writeable = False
        entry = (source, cast)
        if len(memo) >= MAX_ENTRIES:
            del memo[next(iter(memo))]
    memo[key] = entry  # re-inserted: the dict's order is least recently used first
    return entry[1]
