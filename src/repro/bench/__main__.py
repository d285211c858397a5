"""The scenario-matrix CLI: ``python -m repro.bench --config ...``.

One command runs a config's full matrix (or a ``--cell``-selected
subset), writes ``BENCH_matrix.json``, and gates the result::

    PYTHONPATH=src python -m repro.bench \\
        --config benchmarks/configs/matrix.json \\
        --out BENCH_matrix.json \\
        --fail-on "cell.isolet.steady.failures>0"

Gates come from the config's ``gates`` list plus any ``--fail-on``
arguments; both use the shared threshold grammar of
:mod:`repro.bench.gates` (also behind ``tools/scrape_stats.py``).  The
expressions evaluated are written into the document (``"gates"``), so
the emitted file can be re-checked offline against its own list — or
against any other::

    PYTHONPATH=src python tools/scrape_stats.py --check BENCH_matrix.json
    PYTHONPATH=src python tools/scrape_stats.py --check BENCH_matrix.json \\
        --fail-on "cell.isolet.steady.p99_ms>40"

Exit codes: **0** clean, **1** at least one gate violated, **2** usage
error (unreadable/invalid config, malformed gate, unknown ``--cell``
selector).

Reproducibility: the run seed is ``REPRO_BENCH_SEED``, else the config's
``seed``, else the fixed default — and every cell records its
request-stream fingerprint (``stream_sha1``), so two same-seed runs are
checkably identical.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.bench.config import MatrixConfigError, load_config
from repro.bench.gates import GateError, Threshold, evaluate, match_cells
from repro.bench.loadgen import DEFAULT_SEED, bench_seed
from repro.bench.runner import run_matrix


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--config", type=pathlib.Path, required=True, help="matrix config (JSON)"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="summary path (default BENCH_matrix.json, honouring REPRO_BENCH_DIR)",
    )
    parser.add_argument(
        "--cell",
        action="append",
        default=[],
        metavar="SELECTOR",
        help="run only cells matching these coordinate tokens, e.g. "
        "'isolet.steady' (repeatable; tokens match app/backend/config/shape)",
    )
    parser.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="EXPR",
        help="extra gate expression (repeatable), e.g. 'cell.isolet.steady.p99_ms>40'",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the resolved cell IDs and exit"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser.parse_args(argv)


def _default_out() -> pathlib.Path:
    root = os.environ.get("REPRO_BENCH_DIR")
    base = pathlib.Path(root) if root else pathlib.Path.cwd()
    return base / "BENCH_matrix.json"


def _select_cells(config, selectors):
    """Filter the config's cells by ``--cell`` coordinate selectors."""
    if not selectors:
        return config.cells
    by_id = {cell.cell_id: cell for cell in config.cells}
    cell_docs = {cell_id: cell.coords() for cell_id, cell in by_id.items()}
    chosen = {}
    for selector in selectors:
        tokens = [token for token in selector.split(".") if token]
        matched, leftover = match_cells(cell_docs, tokens)
        if leftover or not matched:
            raise MatrixConfigError(
                f"--cell {selector!r} matches no cell "
                f"(cells: {', '.join(sorted(by_id))})"
            )
        chosen.update({cell_id: by_id[cell_id] for cell_id in matched})
    return [cell for cell in config.cells if cell.cell_id in chosen]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        config = load_config(args.config)
        cells = _select_cells(config, args.cell)
        thresholds = [Threshold(expr) for expr in [*config.gates, *args.fail_on]]
    except (MatrixConfigError, GateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list:
        for cell in cells:
            print(cell.cell_id)
        return 0

    try:
        seed = bench_seed(DEFAULT_SEED if config.seed is None else config.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    try:
        document = run_matrix(config, seed, cells=cells, progress=progress)
    except MatrixConfigError as exc:
        # Cross-field problems only a built workload can reveal (e.g. an
        # update pool too small for the shape's rounds) surface here.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # The one gate list travels with the document: a replay
    # (``scrape_stats --check FILE``) needs no second copy of it.
    document["gates"] = [threshold.expression for threshold in thresholds]
    out = args.out if args.out is not None else _default_out()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(document['cells'])} cells, seed {seed})", file=sys.stderr)

    violations = evaluate(document, thresholds)
    for message in violations:
        print(f"FAIL {message}", file=sys.stderr)
    if violations:
        print(f"{len(violations)} gate violation(s)", file=sys.stderr)
        return 1
    if thresholds:
        print(f"all {len(thresholds)} gate(s) clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
