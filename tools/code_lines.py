"""Count physical and code lines of Python files.

A *code* line carries at least one token that is not a comment, and is not
part of the docstring of a module, class or function — the "not blank,
comment or docstring" measure the CHANGES.md line bars quote, made
reproducible.  (Table 4's ``repro.evaluation.loc.count_lines_of_code`` is a
different rule — it also drops every other bare string statement — and is
pinned by the paper-figure benches, so it is not reused here.)

Run with:  python tools/code_lines.py PATH...   (files or directories)
           python tools/code_lines.py -h | --help   (this text)
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize
from typing import Iterable, List, Tuple

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(source: str) -> Tuple[int, int]:
    """``(physical, code)`` line counts of one Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def python_files(paths: Iterable[str]) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for path in map(pathlib.Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    missing = [path for path in argv if not pathlib.Path(path).exists()]
    if missing:
        print(f"code_lines: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    rows = [(str(path), *count(path.read_text())) for path in python_files(argv)]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'file':<{width}}  physical    code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
