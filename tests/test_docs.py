"""The documentation suite must exist and its code snippets must run.

README.md and docs/*.md embed runnable ```python blocks; this test drives
the same extractor/executor as the CI docs job
(``tools/check_doc_snippets.py``) so a doc edit that breaks a snippet
fails tier-1 locally, not just in CI.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool(name: str):
    path = REPO_ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_tool("check_doc_snippets")


def test_documentation_files_exist():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO_ROOT / "docs" / "SERVING.md").is_file()


def test_extractor_respects_skip_marker():
    text = "\n".join(
        [
            "intro",
            "```python",
            "x = 1",
            "```",
            checker.SKIP_MARKER,
            "```python",
            "raise RuntimeError('never runs')",
            "```",
            "```text",
            "not python",
            "```",
        ]
    )
    snippets = checker.extract_snippets(text)
    assert len(snippets) == 1
    assert snippets[0][1] == "x = 1"


@pytest.mark.parametrize(
    "path", [pytest.param(p, id=str(p.relative_to(REPO_ROOT))) for p in checker.default_files()]
)
def test_doc_snippets_execute(path):
    count = checker.run_file(path)
    assert count >= 1, f"{path} has no runnable snippets — docs must stay executable"



def _assert_drift_is_named(tmp_path, name, documented, drifted):
    """Rename one documented row in a copy of the docs: the check names it."""
    docs = tmp_path / "docs"
    shutil.copytree(REPO_ROOT / "docs", docs)
    text = (docs / name).read_text()
    assert f"| `{documented}` |" in text
    (docs / name).write_text(text.replace(f"| `{documented}` |", f"| `{drifted}` |"))
    with pytest.raises(SystemExit, match=f"{documented}.*{drifted}|{drifted}.*{documented}"):
        checker.check_tables(docs)


def test_serving_doc_op_tables_match_the_op_table():
    """Both directions, for every table the docs copy from a table in the
    code — wire ops (``OPS``), stock servables, primitives, and the emit
    catalogue's metrics per scope, Prometheus families, spans and events:
    every row documented, nothing documented that the code does not have."""
    checker.check_tables()


def test_op_table_check_names_the_drift(tmp_path):
    _assert_drift_is_named(tmp_path, "SERVING.md", "reset_stats", "reset_statz")


def test_architecture_doc_primitive_table_matches_the_primitive_table(tmp_path):
    """One documented row per ``PRIMITIVES`` row; a renamed row is named."""
    _assert_drift_is_named(tmp_path, "ARCHITECTURE.md", "wrap_shift", "wrap_shifted")


def test_architecture_doc_application_table_matches_the_application_table(tmp_path):
    """One documented row per ``APPLICATIONS`` row; a renamed row is named."""
    _assert_drift_is_named(tmp_path, "ARCHITECTURE.md", "HyperOMS", "HyperOMZ")


def test_serving_doc_servable_table_matches_the_adapters(tmp_path):
    """One documented row per ``repro.apps`` class with an ``as_servable``."""
    _assert_drift_is_named(tmp_path, "SERVING.md", "HyperOMS", "HyperOMZ")


@pytest.mark.parametrize(
    "name, documented, drifted",
    [
        ("SERVING.md", "cache_evictions", "cache_evictionz"),  # a server metric
        ("SERVING.md", "histograms.swap_round", "histograms.swap_rounds"),  # a model metric
        ("OBSERVABILITY.md", "gate_seconds", "gate_secondz"),  # a nested-scope metric
        ("OBSERVABILITY.md", "swap_phase_seconds_total", "swap_phase_second_total"),  # a family
        ("OBSERVABILITY.md", "retry", "retri"),  # a span
        ("OBSERVABILITY.md", "replica_killed", "replica_kiled"),  # an event
    ],
)
def test_emit_catalogue_table_check_names_the_drift(tmp_path, name, documented, drifted):
    """The catalogue's tables are held like the op table: a renamed or
    dropped metric, family, span or event row is named."""
    _assert_drift_is_named(tmp_path, name, documented, drifted)


def test_every_path_the_docs_and_ci_name_exists(tmp_path):
    """README.md, docs/*.md and the CI workflow name no file that is gone;
    a dangling path is reported with the line that cites it, while globs,
    run outputs and a sibling document cited by bare name are left alone."""
    checker.check_paths()
    (tmp_path / "docs").mkdir()
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "kept.py").write_text("")
    (tmp_path / "docs" / "GUIDE.md").write_text("see OTHER.md and `tools/kept.py::main`\n")
    (tmp_path / "docs" / "OTHER.md").write_text("writes `BENCH_primitives.json` under benchmarks/e2e/out/*.json\n")
    checker.check_paths(tmp_path)
    (tmp_path / "README.md").write_text("intro\nrun `tools/gone.py`, numbers in EXPERIMENTS.md.\n")
    with pytest.raises(SystemExit, match=r"README.md:2: tools/gone.py\n.*README.md:2: EXPERIMENTS.md"):
        checker.check_paths(tmp_path)


def test_every_tool_has_a_caller_ci_runs():
    """Each ``tools/*.py`` is named in the CI workflow or loaded by a test,
    so a tool cannot silently lose its last caller."""
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    tests = "\n".join(path.read_text() for path in (REPO_ROOT / "tests").rglob("*.py"))
    orphans = [
        tool.name
        for tool in sorted((REPO_ROOT / "tools").glob("*.py"))
        if f"tools/{tool.name}" not in ci and not re.search(rf"[\"']{tool.stem}(\.py)?[\"']", tests)
    ]
    assert orphans == [], f"tools that neither CI nor a test runs: {orphans}"


#: The packages whose ``__all__`` names need a caller.
EXPORTING_PACKAGES = (
    "kernels", "hdcpp", "ir", "backends", "transforms",
    "evaluation", "datasets", "accelerators", "apps", "baselines", "serving",
)
#: Exported names whose only caller is a test, each with why it stays public.
TEST_ONLY_EXPORTS = {
    "print_program": "the text form of a traced program (print_graph prints the lowered graph)",
    "IRVerificationError": "the error verify_program raises; callers catch it by type",
    "DeviceError": "the error a device raises on a misordered call; callers catch it by type",
    "JetsonParameters": "the parameter type of JetsonOrinModel, the way to model another GPU",
    "kmer_tokens": "the string k-mer split that checks a generated read against its origin bucket",
    "count_lines_of_code": "Table 4's counting rule, pinned on its own",
    "reduce_partials": "the fold of a sharded deployment's partial scores, pinned on its own",
    "DEFAULT_RELATIVE_ERROR": "the latency histogram's quantile error bound, what its accuracy is held to",
    "GroupUpdateError": "the error a replica group's update round raises; callers catch it by type",
    "UpdateRecord": "a logged update as UpdateLog.records() yields it; readers dispatch on its type",
    "AppendRecord": "a logged append as UpdateLog.records() yields it; readers dispatch on its type",
}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _names_used(path: pathlib.Path, tree: ast.Module) -> set:
    """Every identifier ``tree`` reads: names, attributes, imported names
    and string constants (kernel-column entries name their kernel).  A
    package ``__init__``'s imports and ``__all__`` re-export, not use."""
    skip = set()
    if path.name == "__init__.py":
        skip = {id(n) for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom)) or _is_all(n)}
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return used


def dead_exports(root: pathlib.Path) -> list:
    """``module::name`` for each ``__all__`` name of ``EXPORTING_PACKAGES``
    that nothing outside its defining module references: no code in
    ``src/``, ``examples/``, ``benchmarks/`` or ``tools/``, and no code span
    of README.md or ``docs/*.md``.  Tests are not callers."""
    src = root / "src"
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", "examples", "benchmarks", "tools")
        for path in sorted((root / folder).rglob("*.py"))
    }
    used = {path: _names_used(path, tree) for path, tree in trees.items()}
    docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    text = "\n".join(path.read_text() for path in docs if path.is_file())
    documented = set(re.findall(r"\w+", "\n".join(re.findall(r"```.*?```|`[^`\n]+`", text, re.S))))

    def module_path(dotted: str) -> pathlib.Path:
        base = src.joinpath(*dotted.split("."))
        return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")

    dead = []
    for package in EXPORTING_PACKAGES:
        for path in sorted((src / "repro" / package).rglob("*.py")):
            tree = trees[path]
            # A re-exported name is defined in the module it is imported from.
            origin = {
                alias.asname or alias.name: module_path(node.module)
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names
            }
            for node in filter(_is_all, tree.body):
                for element in node.value.elts:
                    if not isinstance(element, ast.Constant):
                        continue  # ``*other.__all__``: checked in ``other``
                    name, home = element.value, origin.get(element.value, path)
                    if name in documented or any(name in u for p, u in used.items() if p != home):
                        continue
                    dead.append(f"{path.relative_to(src)}::{name}")
    return dead


def test_every_export_has_a_caller():
    """A name in an ``__all__`` of ``EXPORTING_PACKAGES`` is used outside its
    module, or is one of the named test-only exports — and every one of
    those is still test-only."""
    dead = dead_exports(REPO_ROOT)
    names = {entry.rpartition("::")[2] for entry in dead}
    orphans = [entry for entry in dead if entry.rpartition("::")[2] not in TEST_ONLY_EXPORTS]
    assert orphans == [], f"exported names nothing outside their module uses: {orphans}"
    assert sorted(set(TEST_ONLY_EXPORTS) - names) == [], "test-only exports that gained a caller"


def test_the_export_guard_names_a_planted_orphan(tmp_path):
    """A re-export is not a caller, a code span in the docs is, and so is a
    kernel-column string."""
    package = tmp_path / "src" / "repro" / "kernels"
    package.mkdir(parents=True)
    (package / "extra.py").write_text(
        '__all__ = ["used", "named", "documented", "orphan"]\n'
        "def used(): pass\ndef named(): pass\ndef documented(): pass\ndef orphan(): pass\n"
    )
    (package / "__init__.py").write_text('from repro.kernels.extra import orphan\n__all__ = ["orphan"]\n')
    apps = tmp_path / "src" / "repro" / "apps"
    apps.mkdir()
    (apps / "user.py").write_text(
        'from repro.kernels import extra\nROW = (extra.used(), "named")\n'
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("the orphan is prose; `extra.documented()` is code\n")
    assert dead_exports(tmp_path) == [
        "repro/kernels/__init__.py::orphan",
        "repro/kernels/extra.py::orphan",
    ]


def test_code_lines_skips_blanks_comments_and_docstrings():
    source = "\n".join(
        [
            '"""Module docstring."""',
            "",
            "# a comment",
            "def f(x):",
            '    """Function docstring."""',
            "    return x  # a trailing comment does not hide the code",
            "y = f(1)",
        ]
    )
    assert _load_tool("code_lines").count(source) == (7, 3)


def test_line_trace_reports_exactly_the_body_of_the_function_nothing_calls(tmp_path):
    """Three functions — one called, one called on a worker thread, one
    never: its body lines, and only those, come back as never run."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "fixture.py").write_text(
        "def called(x):\n"
        "    y = x + 1\n"
        "    return y\n"
        "def never(x):\n"
        "    z = x * 2\n"
        "    return z\n"
        "def on_a_thread(out):\n"
        "    out.append(1)\n"
    )
    (tmp_path / "drive.py").write_text(
        "import threading\n"
        "from pkg import fixture\n"
        "fixture.called(1)\n"
        "thread = threading.Thread(target=fixture.on_a_thread, args=([],))\n"
        "thread.start()\n"
        "thread.join()\n"
    )
    tool = REPO_ROOT / "tools" / "line_trace.py"
    subprocess.run(
        [sys.executable, str(tool), "--root", "pkg", "--append", "hits.json", "drive.py"],
        cwd=tmp_path,
        check=True,
        timeout=60,
    )
    hits = json.loads((tmp_path / "hits.json").read_text())
    assert _load_tool("line_trace").report(package, hits) == [("pkg/fixture.py", 8, [5, 6])]
