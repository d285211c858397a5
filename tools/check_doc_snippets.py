"""Execute the fenced Python snippets of README.md and docs/*.md.

Documentation that cannot run is documentation that rots.  This runner
extracts every ```python fenced block from the given markdown files and
executes each file's snippets in order inside one shared namespace (so a
later snippet can build on an earlier one's variables, mirroring how a
reader follows the page top to bottom).

A block is skipped when the line immediately above its opening fence is
the marker comment::

    <!-- doc-snippet: skip -->

Use the marker for illustrative fragments (pseudo-code, shell-flavoured
transcripts) that are not meant to execute.

Exit status is non-zero on the first failing snippet, printing the file,
the snippet index and the traceback — which is what the CI docs job
asserts on.

The default run also checks every table the docs copy from a table in the
code (``check_tables``): docs/SERVING.md's wire-op table against
``repro.serving.transport.ops.OPS``, its stock-servable table
against the ``repro.apps`` classes with an ``as_servable`` adapter,
docs/ARCHITECTURE.md's primitive table against ``repro.ir.ops.PRIMITIVES``
and its application table against
``repro.evaluation.applications.APPLICATIONS``, and the metric,
Prometheus-family, span and event tables of SERVING.md /
docs/OBSERVABILITY.md against the emit catalogue
(``repro.serving.observability.catalogue``) — in both directions, so a new
op, adapter, primitive, application, metric, span or event cannot ship
undocumented and a documented one cannot quietly disappear — and that every
repo-relative path named in README.md, docs/*.md and the CI workflow exists
(``check_paths``), so deleting or renaming a file fails here until its last
mention follows.

Run with:  PYTHONPATH=src python tools/check_doc_snippets.py [files...]
(defaults to README.md plus every markdown file under docs/).
"""

from __future__ import annotations

import pathlib
import re
import sys
import traceback
from typing import List, Tuple

SKIP_MARKER = "<!-- doc-snippet: skip -->"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def extract_snippets(text: str) -> List[Tuple[int, str]]:
    """All runnable ```python blocks as ``(start_line, source)`` pairs."""
    snippets: List[Tuple[int, str]] = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        if line in ("```python", "```py"):
            skip = index > 0 and lines[index - 1].strip() == SKIP_MARKER
            start = index + 1
            body: List[str] = []
            index += 1
            while index < len(lines) and lines[index].strip() != "```":
                body.append(lines[index])
                index += 1
            if not skip:
                snippets.append((start + 1, "\n".join(body)))
        index += 1
    return snippets


def default_files(root: pathlib.Path = REPO_ROOT) -> List[pathlib.Path]:
    files = []
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return files


def run_file(path: pathlib.Path) -> int:
    """Execute one file's snippets in a shared namespace; returns count."""
    snippets = extract_snippets(path.read_text())
    namespace: dict = {"__name__": "__doc_snippet__"}
    try:
        label = path.relative_to(REPO_ROOT)
    except ValueError:
        label = path
    for number, (line, source) in enumerate(snippets, start=1):
        try:
            code = compile(source, f"{path.name}:snippet-{number}", "exec")
            exec(code, namespace)
        except Exception:
            print(f"FAILED {path} snippet {number} (line {line}):", file=sys.stderr)
            traceback.print_exc()
            raise SystemExit(1)
        print(f"ok {label} snippet {number} (line {line})")
    return len(snippets)


def _first_column(text: str, header: str) -> List[str]:
    """First-column cells (backticks stripped) of the markdown table
    whose header row starts with ``header``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    cells = []
    for line in lines[start + 2 :]:  # skip the header row and its |---| rule
        if not line.startswith("|"):
            break
        cells.append(line.split("|")[1].strip().strip("`"))
    return cells


def check_table(path: pathlib.Path, header: str, names, what: str) -> None:
    """The first column of ``path``'s table under ``header`` and ``names``
    — what the code serves from — must be the same set, one row each."""
    documented = _first_column(path.read_text(), header)
    names = list(names)
    if sorted(documented) != sorted(names):
        raise SystemExit(
            f"FAILED {path}: the {what} table drifted from the code — "
            f"undocumented {sorted(set(names) - set(documented))}, "
            f"documented but gone {sorted(set(documented) - set(names))}, "
            f"documented {len(documented)} rows for {len(names)}"
        )
    print(f"ok {path.name} {what} table matches the code")


def check_tables(docs: pathlib.Path = REPO_ROOT / "docs") -> None:
    """Every table the docs copy from a table in the code, both ways."""
    import repro.apps
    from repro.evaluation.applications import APPLICATIONS
    from repro.ir.ops import PRIMITIVES
    from repro.serving.observability.catalogue import EVENTS, FAMILIES, ROWS, SPANS
    from repro.serving.transport.ops import OPS

    serving, observability = docs / "SERVING.md", docs / "OBSERVABILITY.md"
    check_table(serving, "| Op | Request header fields", set(OPS) | {"hello"}, "wire-op")
    adapters = [n for n in repro.apps.__all__ if hasattr(getattr(repro.apps, n), "as_servable")]
    check_table(serving, "| Adapter | Query param", adapters, "stock-servable")
    primitives = [opcode.hdcpp_name for opcode in PRIMITIVES]
    check_table(docs / "ARCHITECTURE.md", "| HDC++ name | Category", primitives, "primitive")
    applications = [row.name for row in APPLICATIONS]
    check_table(docs / "ARCHITECTURE.md", "| Application | Workload", applications, "application")
    for scope, rows in ROWS.items():  # the server and model tables live with the API they describe
        path = serving if scope in ("server", "model") else observability
        keys = [".".join(row.path) for row in rows]
        check_table(path, f"| `{scope}` key |", keys, f"{scope} metric")
    check_table(observability, "| Family | TYPE", FAMILIES, "Prometheus family")
    check_table(observability, "| Span | Scenario", SPANS, "span")
    check_table(observability, "| Event | Level", EVENTS, "event")


#: A repo-relative path: under one of the source directories, or an
#: ALL-CAPS top-level document.  Globs, ``<placeholders>`` and the tails of
#: longer paths do not match; neither do run outputs (``BENCH_matrix.json``).
_PATH = re.compile(
    r"(?<![\w./<>*-])"
    r"((?:benchmarks|tools|tests|src|docs|examples)/[\w./-]*\w/?|[A-Z][A-Z_]*\.(?:md|json))"
    r"(?![\w/*<{-])"
)


def check_paths(root: pathlib.Path = REPO_ROOT) -> None:
    """Every repo-relative path named in README.md, docs/*.md and the CI
    workflow exists (a bare ``NAME.md`` may sit beside the citing file)."""
    files = default_files(root) + [root / ".github" / "workflows" / "ci.yml"]
    dangling = [
        f"{path.relative_to(root)}:{number}: {name}"
        for path in files
        if path.exists()
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for name in _PATH.findall(line)
        if not ((root / name).exists() or (path.parent / name).exists())
    ]
    if dangling:
        raise SystemExit("FAILED: paths that do not exist —\n  " + "\n  ".join(dangling))
    print("ok every path named in the docs and the CI workflow exists")


def main(argv: List[str]) -> int:
    files = [pathlib.Path(arg).resolve() for arg in argv] if argv else default_files()
    if not files:
        print("no markdown files to check", file=sys.stderr)
        return 1
    total = 0
    for path in files:
        total += run_file(path)
    print(f"{total} snippet(s) across {len(files)} file(s) executed cleanly")
    if not argv:
        check_tables()
        check_paths()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
