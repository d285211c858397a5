"""Lines-of-code accounting for the programmability study (Table 4).

Table 4 of the paper compares the lines of code of each application's
per-target baseline implementations against the single HDC++ source.  The
reproduction applies the same counting rules to its own sources:
non-blank, non-comment physical lines (module docstrings are treated as
documentation, not code, and are excluded as well — baseline research
scripts typically carry no such documentation, so counting ours would bias
the comparison against the DSL).
"""

from __future__ import annotations

import inspect
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.evaluation.applications import APPLICATIONS

__all__ = ["count_lines_of_code", "LocRow", "table4_rows"]


def count_lines_of_code(source: str) -> int:
    """Count non-blank, non-comment, non-docstring lines of Python source."""
    doc_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenError:
        tokens = []
    previous_significant = None
    for token in tokens:
        if token.type == tokenize.STRING:
            # A string expression that does not follow an operator/name is a
            # docstring (module, class or function level).
            if previous_significant in (None, ":", "NEWLINE", "INDENT", "DEDENT"):
                for line in range(token.start[0], token.end[0] + 1):
                    doc_lines.add(line)
        if token.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            previous_significant = tokenize.tok_name[token.type]
        elif token.type not in (tokenize.COMMENT, tokenize.NL):
            previous_significant = token.string if token.type == tokenize.OP else "TOKEN"

    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if number in doc_lines:
            continue
        count += 1
    return count


def _module_loc(module) -> int:
    source = Path(inspect.getsourcefile(module)).read_text()
    return count_lines_of_code(source)


def _objects_loc(objects) -> int:
    """Count the HDC++ application code proper.

    For the HDC++ side of Table 4 we count the program-definition functions
    (the code a standalone HDC++ source file would contain: encoders, stage
    implementations, program construction and the host-side algorithmic
    steps), excluding the evaluation scaffolding (result dataclasses,
    dataset plumbing, report merging) that has no counterpart in the
    baseline scripts.
    """
    import textwrap

    total = 0
    for obj in objects:
        source = textwrap.dedent(inspect.getsource(obj))
        total += count_lines_of_code(source)
    return total


@dataclass
class LocRow:
    """One application row of Table 4."""

    app: str
    cpu_baseline_loc: Optional[int]
    gpu_baseline_loc: Optional[int]
    hdcpp_loc: int

    @property
    def total_baseline_loc(self) -> int:
        return (self.cpu_baseline_loc or 0) + (self.gpu_baseline_loc or 0)

    @property
    def reduction(self) -> float:
        """Total baseline LoC divided by HDC++ LoC (higher favours HDC++)."""
        return self.total_baseline_loc / self.hdcpp_loc


def table4_rows() -> list[LocRow]:
    """Count LoC for every application and its baselines.

    Baselines are whole scripts (they contain nothing but the application);
    the HDC++ entries count the application code proper (program
    construction, stage implementations, encoders, and the host-side
    algorithmic steps such as the k-means update or the neighbour
    aggregation) — each row's ``sources``.
    """
    return [
        LocRow(
            row.name,
            *(_module_loc(row.baselines[s]) if s in row.baselines else None for s in ("cpu", "gpu")),
            _objects_loc(row.sources),
        )
        for row in APPLICATIONS
    ]
