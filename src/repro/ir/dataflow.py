"""Hardware targets of HPVM-HDC IR (Section 4.1).

The paper draws the IR as a hierarchical dataflow graph.  Here the traced
op list is the IR's only form, and the hierarchy is the ``impl`` links
between its functions: a stage primitive or ``hetero.parallel_map`` names
the function that is its body, and the back end of each :class:`Target`
runs the entry function's ops (see :mod:`repro.backends`).
"""

from __future__ import annotations

import enum

__all__ = ["Target"]


class Target(str, enum.Enum):
    """Hardware targets supported by the HPVM-HDC back ends."""

    CPU = "cpu"
    GPU = "gpu"
    HDC_ASIC = "hdc_asic"
    HDC_RERAM = "hdc_reram"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
