"""HDC approximation optimizations of HPVM-HDC (Section 4.2 of the paper).

Two domain-specific, approximation-based transforms are provided:

* :mod:`repro.transforms.binarize` — **automatic binarization**: a
  work-list taint analysis seeded at ``sign`` operations that rewrites
  tainted hypervectors, hypermatrices and operations to a reduced
  bit-width (1-bit bipolar by default), as described by Algorithm 1.
* :mod:`repro.transforms.perforation` — **reduction perforation**: folds
  ``red_perf`` directives (and externally supplied perforation
  specifications) into the reduction primitives they annotate, producing
  segmented / strided reductions.

Both transforms operate on the HPVM-HDC operation stream of a (cloned)
program before it is lowered to the dataflow graph; the
:class:`~repro.transforms.pipeline.PassPipeline` orchestrates them and
re-verifies the IR after every pass.  After them, every compile runs
:mod:`repro.transforms.plan`, which writes the back ends' route decisions
(``signed_by``, ``proven``, ``fused_with``) as op attributes.
"""

from repro.transforms.binarize import AutomaticBinarization
from repro.transforms.perforation import PerforationSpec, ReductionPerforation
from repro.transforms.pipeline import ApproximationConfig, PassPipeline, PassReport

__all__ = [
    "AutomaticBinarization",
    "ReductionPerforation",
    "PerforationSpec",
    "ApproximationConfig",
    "PassPipeline",
    "PassReport",
]
