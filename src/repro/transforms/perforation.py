"""Reduction perforation (Section 4.2 of the paper).

Reduction operators — ``matmul`` (random projection encoding),
``hamming_distance`` / ``cossim`` (similarity search) and ``l2norm`` — are
the dominant cost of HDC applications.  Because HDC is error resilient it is
often sufficient to compute them approximately by skipping elements along
the reduction axis, either as a *segmented* reduction (a contiguous
sub-range) or a *strided* reduction (every ``stride``-th element), or both.

Programmers request perforation with the ``red_perf(result, begin, end,
stride)`` directive; this pass folds the directive's parameters into the
producing reduction operation (as ``perf_begin`` / ``perf_end`` /
``perf_stride`` attributes consumed by the back ends) and removes the
directive.  Perforation can also be requested *externally* through
:class:`PerforationSpec` entries in the approximation configuration — this
is how the Table 3 / Figure 7 sweeps explore configurations with "1–2 lines
of code" changes without touching the application source at all.

Scaling semantics follow the paper: ``hamming_distance`` and ``cossim``
results are left unscaled (only relative magnitudes matter), while
``matmul`` and ``l2norm`` results are rescaled by the inverse of the
visited fraction (their absolute magnitudes matter).  The scaling itself is
implemented inside the kernels; this pass only records the perforation
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hdcpp.program import Operation, Program
from repro.ir.ops import PERFORATABLE, REDUCE_OPS, Opcode

__all__ = ["PerforationSpec", "ReductionPerforation"]


@dataclass(frozen=True)
class PerforationSpec:
    """An externally supplied perforation request.

    Attributes:
        opcode: Which reduction primitive to perforate (``"matmul"``,
            ``"cossim"``, ``"hamming_distance"`` or ``"l2norm"``, or the
            corresponding :class:`Opcode`).
        begin: First element of the reduction range (inclusive).
        end: Last element of the reduction range (exclusive); ``None``
            means the full hypervector length.
        stride: Step between sampled elements.
        function: Restrict the spec to operations inside this traced
            function (``None`` applies everywhere).
    """

    opcode: object
    begin: int = 0
    end: Optional[int] = None
    stride: int = 1
    function: Optional[str] = None

    def resolved_opcode(self) -> Opcode:
        opcode = self.opcode
        if not isinstance(opcode, Opcode):
            opcode = PERFORATABLE.get(str(opcode))
        if opcode not in REDUCE_OPS:
            raise ValueError(
                f"cannot perforate {self.opcode!r}: the perforatable primitives are "
                f"{', '.join(PERFORATABLE)}"
            )
        return opcode


@dataclass
class PerforationReport:
    """Summary of one reduction-perforation run."""

    folded_directives: int = 0
    applied_specs: int = 0
    perforated_ops: list[str] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"PerforationReport(directives={self.folded_directives}, "
            f"specs={self.applied_specs}, ops={self.perforated_ops})"
        )


class ReductionPerforation:
    """Fold ``red_perf`` directives and external specs into reduce ops."""

    name = "reduction-perforation"

    def __init__(self, specs: Optional[list[PerforationSpec]] = None):
        self.specs = list(specs or [])

    def run(self, program: Program) -> PerforationReport:
        report = PerforationReport()
        for fn_name, fn in program.functions.items():
            kept_ops: list[Operation] = []
            for op in fn.ops:
                if op.opcode != Opcode.RED_PERF:
                    kept_ops.append(op)
                    continue
                target = op.operands[0]
                producer = target.producer
                if producer is None or producer.opcode not in REDUCE_OPS:
                    raise ValueError(
                        f"{fn_name}: red_perf annotates %{target.name}, which is not produced "
                        "by a perforatable reduction primitive"
                    )
                window = (op.attrs["begin"], op.attrs["end"], op.attrs["stride"])
                self._apply(fn_name, producer, *window)
                report.folded_directives += 1
                report.perforated_ops.append(f"{fn_name}:{producer.opcode.value}")
            fn.ops = kept_ops

        for spec in self.specs:
            opcode = spec.resolved_opcode()
            for fn_name, fn in program.functions.items():
                if spec.function is not None and fn_name != spec.function:
                    continue
                for op in fn.ops:
                    if op.opcode != opcode:
                        continue
                    self._apply(fn_name, op, spec.begin, spec.end, spec.stride)
                    report.applied_specs += 1
                    report.perforated_ops.append(f"{fn_name}:{op.opcode.value}")
        return report

    @staticmethod
    def _apply(fn_name: str, op: Operation, begin: int, end: Optional[int], stride: int) -> None:
        """Record the window on ``op``, refusing one that visits no element.

        The reduction length is known from the operand types, so a window
        outside ``0 <= begin < end <= length`` or a ``stride < 1`` is a
        compile error here — not a ``ValueError`` on the first request
        (which a batched stage would take for a row-only implementation
        and pin a per-row fallback on), and not a silent all-zero distance.
        """
        length = op.operands[0].type.shape[-1]
        begin, stride = int(begin), int(stride)
        end = None if end is None else int(end)
        if not (0 <= begin < (length if end is None else end) <= length and stride >= 1):
            raise ValueError(
                f"{fn_name}: invalid perforation window (begin={begin}, end={end}, "
                f"stride={stride}) on {op.opcode}: a length-{length} reduction needs "
                f"0 <= begin < end <= {length} and stride >= 1"
            )
        op.attrs["perf_begin"] = begin
        op.attrs["perf_end"] = end
        op.attrs["perf_stride"] = stride
