"""Pass management and approximation configuration.

The HPVM-HDC compilation workflow (Figure 4 of the paper) optionally runs
the HDC approximation transforms between frontend tracing and back-end
code generation.  :class:`ApproximationConfig` captures the user-facing
knobs — the automatic-binarization compiler flag and any reduction
perforation requests — and :class:`PassPipeline` executes the corresponding
passes in order, verifying the IR after each one.

Approximation configurations are deliberately tiny value objects: the
Figure 7 sweep builds ten of them (Table 3) and compiles the *same* traced
application under each, which is exactly the "seconds instead of hours"
programmability argument of Section 5.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.hdcpp.program import Program
from repro.hdcpp.types import ElementType, binary, int32
from repro.ir.verifier import verify_program
from repro.transforms.binarize import AutomaticBinarization
from repro.transforms.perforation import PerforationSpec, ReductionPerforation

__all__ = ["ApproximationConfig", "PassPipeline", "PassReport"]


@dataclass(frozen=True)
class ApproximationConfig:
    """User-facing approximation knobs for one compilation.

    Attributes:
        binarize: Enable automatic binarization (the ``-hdc-binarize``
            compiler flag of the paper).
        binarize_reduce: More aggressive variant that also reduces the
            precision of reduce-op inputs (configuration IV of Table 3).
        binarized_type: Element type used for binarized values.
        reduce_input_type: Element type used for reduce-op inputs under
            ``binarize_reduce``.
        perforations: External reduction-perforation requests applied on
            top of any ``red_perf`` directives present in the source.
    """

    binarize: bool = False
    binarize_reduce: bool = False
    binarized_type: ElementType = binary
    reduce_input_type: ElementType = int32
    perforations: tuple[PerforationSpec, ...] = ()

    @staticmethod
    def none() -> "ApproximationConfig":
        """The identity configuration (no approximation)."""
        return ApproximationConfig()

    def with_perforation(self, *specs: PerforationSpec) -> "ApproximationConfig":
        """Return a copy with additional perforation specs appended."""
        return ApproximationConfig(
            binarize=self.binarize,
            binarize_reduce=self.binarize_reduce,
            binarized_type=self.binarized_type,
            reduce_input_type=self.reduce_input_type,
            perforations=tuple(self.perforations) + tuple(specs),
        )

    @property
    def is_identity(self) -> bool:
        return not self.binarize and not self.perforations

    def build_passes(self) -> list:
        """Instantiate the transform passes implied by this configuration."""
        passes: list = []
        # Perforation directives present in the source must be folded even
        # when the configuration itself requests nothing.
        passes.append(ReductionPerforation(list(self.perforations)))
        if self.binarize:
            passes.append(
                AutomaticBinarization(
                    binarized_type=self.binarized_type,
                    binarize_reduce=self.binarize_reduce,
                    reduce_input_type=self.reduce_input_type,
                )
            )
        return passes


@dataclass
class PassReport:
    """Reports produced by each executed pass, keyed by pass name."""

    reports: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, name: str):
        return self.reports[name]

    def __contains__(self, name: str) -> bool:
        return name in self.reports


class PassPipeline:
    """Run a sequence of IR transforms over a program, verifying it before
    the first and after each: the only structural check a compile makes."""

    def __init__(self, passes: Optional[Sequence] = None):
        self.passes = list(passes or [])

    @classmethod
    def from_config(cls, config: ApproximationConfig) -> "PassPipeline":
        return cls(config.build_passes())

    def run(self, program: Program) -> PassReport:
        """Run every pass in order, mutating ``program`` in place."""
        report = PassReport()
        verify_program(program)
        for pass_ in self.passes:
            report.reports[pass_.name] = pass_.run(program)
            verify_program(program)
        return report
