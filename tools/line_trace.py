"""Which source lines does a command actually run?

A stdlib line tracer restricted to one source root, for checking "nothing
runs this" before deleting it.  Worker threads count (``threading.settrace``);
child processes do not.

    python tools/line_trace.py --append FILE -m pytest -q
    python tools/line_trace.py --append FILE path/to/script.py [args...]
    python tools/line_trace.py --report FILE

``--append`` runs the module or script under the tracer and merges the lines
hit into ``FILE`` (JSON, ``{path relative to the root's parent: [lines]}``),
so several commands accumulate into one picture.  ``--report`` prints, per
file under the root, executable lines (``co_lines`` of every code object)
against lines no traced command hit, worst first.  ``--root DIR`` (default
``src/repro``) names the tree to watch.  Not part of CI: tracing slows
tier-1 ~1.6x, and the one test that bounds allocations with ``tracemalloc``
fails under a tracer (so no ``-x``).  Lines that run only under
pytest-benchmark's ``benchmark.pedantic`` are invisible (it uninstalls the
tracer); the report says so.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import runpy
import sys
import threading
from typing import Dict, List, Optional, Set


def trace_command(root: pathlib.Path, argv: List[str], hits: Dict[str, Set[int]]) -> None:
    """Run ``argv`` (``-m module args...`` or ``script args...``) as
    ``__main__``, adding ``{name relative to root's parent: lines hit}`` for
    files under ``root`` to ``hits`` (filled in place, so a ``SystemExit``
    loses nothing)."""
    prefix = str(root) + os.sep
    watched: Dict[str, Optional[str]] = {}  # co_filename -> relative name, None outside root

    def global_trace(frame, event, arg):
        raw = frame.f_code.co_filename
        if raw not in watched:
            path = os.path.abspath(raw)
            watched[raw] = os.path.relpath(path, root.parent) if path.startswith(prefix) else None
        name = watched[raw]
        if name is None:
            return None
        seen = hits.setdefault(name, set())
        seen.add(frame.f_lineno)  # the call event: a def line runs when called

        def local_trace(frame, event, arg):
            seen.add(frame.f_lineno)
            return local_trace

        return local_trace

    as_module = argv[0] == "-m"
    sys.argv = argv[1:] if as_module else argv
    # What ``python -m`` / ``python script.py`` would have put first.
    sys.path[0] = os.getcwd() if as_module else os.path.dirname(os.path.abspath(argv[0]))
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        if as_module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.settrace(None)
        threading.settrace(None)


def executable_lines(source: str, name: str) -> Set[int]:
    """Every line some code object of ``source`` attributes bytecode to."""
    lines, stack = set(), [compile(source, name, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def report(root: pathlib.Path, hits: Dict[str, List[int]]) -> List[tuple]:
    """``(relative name, executable count, sorted never-run lines)`` per file
    under ``root``, most never-run lines first; a file no command imported
    counts every line."""
    rows = []
    for path in sorted(root.rglob("*.py")):
        name = str(path.relative_to(root.parent))
        lines = executable_lines(path.read_text(), name)
        rows.append((name, len(lines), sorted(lines - set(hits.get(name, ())))))
    return sorted(rows, key=lambda row: (-len(row[2]), row[0]))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src/repro", type=pathlib.Path)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--report", metavar="FILE", type=pathlib.Path)
    mode.add_argument("--append", metavar="FILE", type=pathlib.Path)
    split = 0  # our options come first, each with one value; the rest is the command
    while split < len(argv) and argv[split] in ("--root", "--report", "--append"):
        split += 2
    args, command = parser.parse_args(argv[:split] or argv), argv[split:]
    root = args.root.resolve()
    store = (args.report or args.append).resolve()
    hits = json.loads(store.read_text()) if store.exists() else {}
    if args.report:
        rows = report(root, hits)
        width = max(len(row[0]) for row in rows)
        print(f"{'file':<{width}}  executable  never run")
        for name, executable, missed in rows:
            print(f"{name:<{width}}  {executable:>10}  {len(missed):>9}  {missed or ''}")
        executable, missed = sum(row[1] for row in rows), sum(len(row[2]) for row in rows)
        print(f"{'total':<{width}}  {executable:>10}  {missed:>9}")
        print("note: pytest-benchmark uninstalls the tracer inside benchmark.pedantic — "
              "lines that run only under it are invisible here and read as never run")
        return 0
    if not command:
        parser.error("--append needs a command: -m MODULE [args...] or SCRIPT [args...]")
    traced: Dict[str, Set[int]] = {}
    try:
        trace_command(root, command, traced)
    finally:  # pytest and scripts leave by SystemExit; their hits still count
        for name, lines in traced.items():
            hits[name] = sorted(lines.union(hits.get(name, ())))
        store.write_text(json.dumps(hits))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
