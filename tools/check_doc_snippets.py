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

The default run also checks docs/SERVING.md's wire-op and gateway-route
tables against the op table the code serves from
(``repro.serving.transport.ops.OPS``), its stock-servable table against
the ``repro.apps`` classes with an ``as_servable`` adapter, and
docs/ARCHITECTURE.md's primitive table against
``repro.ir.ops.PRIMITIVES``, in both directions, so a new op, adapter or
primitive cannot ship undocumented and a documented one cannot quietly
disappear.

Run with:  PYTHONPATH=src python tools/check_doc_snippets.py [files...]
(defaults to README.md plus every markdown file under docs/).
"""

from __future__ import annotations

import pathlib
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


def default_files() -> List[pathlib.Path]:
    files = []
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        files.append(readme)
    docs = REPO_ROOT / "docs"
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


def check_op_tables(path: pathlib.Path = REPO_ROOT / "docs" / "SERVING.md") -> None:
    """SERVING.md's op tables and ``OPS`` must name the same ops."""
    from repro.serving.transport.ops import OPS

    text = path.read_text()
    prefix = "POST /v1/models/<name>:"
    routes = _first_column(text, "| Route | Body")
    pairs = {
        "wire ops": (_first_column(text, "| Op | Request header fields"), set(OPS) | {"hello"}),
        "gateway POST actions": (
            [route[len(prefix) :] for route in routes if route.startswith(prefix)],
            {name for name, op in OPS.items() if op.model},
        ),
    }
    for what, (documented, served) in pairs.items():
        if sorted(documented) != sorted(served):
            raise SystemExit(
                f"FAILED {path}: {what} drifted from the op table — "
                f"undocumented {sorted(served - set(documented))}, "
                f"documented but not served {sorted(set(documented) - served)}, "
                f"documented {len(documented)} rows for {len(served)} ops"
            )
    print(f"ok {path.name} op tables match repro.serving.transport.ops.OPS")


def check_primitive_table(path: pathlib.Path = REPO_ROOT / "docs" / "ARCHITECTURE.md") -> None:
    """ARCHITECTURE.md's primitive table and ``PRIMITIVES`` must name the
    same primitives, one row each."""
    from repro.ir.ops import PRIMITIVES

    documented = _first_column(path.read_text(), "| HDC++ name | Category")
    table = [opcode.hdcpp_name for opcode in PRIMITIVES]
    if sorted(documented) != sorted(table):
        raise SystemExit(
            f"FAILED {path}: the primitive table drifted from repro.ir.ops.PRIMITIVES — "
            f"undocumented {sorted(set(table) - set(documented))}, "
            f"documented but not in the table {sorted(set(documented) - set(table))}, "
            f"documented {len(documented)} rows for {len(table)} primitives"
        )
    print(f"ok {path.name} primitive table matches repro.ir.ops.PRIMITIVES")


def check_servable_table(path: pathlib.Path = REPO_ROOT / "docs" / "SERVING.md") -> None:
    """SERVING.md's stock-servable table and the ``repro.apps`` classes
    with an ``as_servable`` adapter must be the same set, one row each."""
    import repro.apps

    documented = _first_column(path.read_text(), "| Adapter | Query param")
    adapters = [
        name for name in repro.apps.__all__ if hasattr(getattr(repro.apps, name), "as_servable")
    ]
    if sorted(documented) != sorted(adapters):
        raise SystemExit(
            f"FAILED {path}: the stock-servable table drifted from repro.apps — "
            f"undocumented {sorted(set(adapters) - set(documented))}, "
            f"documented but without an as_servable {sorted(set(documented) - set(adapters))}, "
            f"documented {len(documented)} rows for {len(adapters)} adapters"
        )
    print(f"ok {path.name} stock-servable table matches repro.apps")


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
        check_op_tables()
        check_primitive_table()
        check_servable_table()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
