"""Prometheus exposition bridge for the serving transport.

The transport server answers the ``metrics`` op with the Prometheus text
format (version 0.0.4) rendered from a live :class:`ServingMetrics`
snapshot.  This tool snapshots that frame-protocol op, and lints an
exposition file offline:

**Snapshot mode** (``--once``) scrapes one exposition and writes it to
stdout or ``--out`` — for cron-driven pushes, CI artifacts, or eyeballing
what a scrape would see::

    PYTHONPATH=src python tools/export_metrics.py \
        --host 127.0.0.1 --port 8757 --once --out metrics.prom

**Lint mode** (``--lint-file``) parses an existing exposition file with
the in-tree :func:`parse_prometheus_text` validator (TYPE declarations,
cumulative ``le`` buckets, ``+Inf`` == ``_count``), checks every family
against the emit catalogue (a known row, declared with the row's TYPE)
and exits non-zero on any violation — a malformed metric name, a family
no row declares or a non-cumulative histogram is caught before a real
scraper ever sees it (``tests/test_catalogue.py`` runs the same lint over
a live exposition, and over a written copy through this flag).

Every scraped exposition is linted before it is written; a server that
emits unparseable text is reported as an error, not passed through.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.serving.observability import parse_prometheus_text  # noqa: E402
from repro.serving.observability.catalogue import FAMILIES  # noqa: E402
from repro.serving.transport import ServingClient  # noqa: E402


def lint_text(text: str, label: str) -> int:
    """Validate one exposition document; returns the sample count.

    Raises ``ValueError`` (from the parser) with the offending line when
    the document violates the text-format contract, or when a family is
    not a catalogue row declared with that row's TYPE.  The namespace is
    whatever prefixes the first family, which is the table's first.
    """
    samples = parse_prometheus_text(text)
    if not samples:
        raise ValueError(f"{label}: exposition contains no samples")
    declared = [line.split()[2:4] for line in text.splitlines() if line.startswith("# TYPE ")]
    prefix = len(declared[0][0]) - len(next(iter(FAMILIES)))
    for name, mtype in declared:
        if FAMILIES.get(name[prefix:]) != mtype:
            raise ValueError(
                f"{label}: family {name!r} ({mtype}) is not a catalogue row of that TYPE "
                f"(expected {FAMILIES.get(name[prefix:])!r})"
            )
    return len(samples)


def scrape(client: ServingClient, namespace: "str | None") -> str:
    """One linted exposition from the transport server."""
    text = client.metrics_text(namespace=namespace)
    lint_text(text, "scrape")
    return text


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1", help="transport server host")
    parser.add_argument("--port", type=int, default=None, help="transport server port")
    parser.add_argument("--namespace", default=None, help="metric name prefix override")
    parser.add_argument("--timeout", type=float, default=30.0, help="frame-protocol timeout")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--once", action="store_true", help="scrape one exposition and exit")
    mode.add_argument(
        "--lint-file",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="offline: validate an existing exposition file and exit",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="write the scrape here instead of stdout"
    )
    args = parser.parse_args(argv)
    if args.lint_file is None and args.port is None:
        parser.error("--port is required unless --lint-file is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)

    if args.lint_file is not None:
        text = args.lint_file.read_text(encoding="utf-8")
        try:
            count = lint_text(text, args.lint_file.name)
        except ValueError as exc:
            print(f"[export_metrics] LINT FAIL {exc}", file=sys.stderr)
            return 1
        print(f"[export_metrics] {args.lint_file}: {count} samples, lint clean", file=sys.stderr)
        return 0

    started = time.monotonic()
    with ServingClient(args.host, args.port, timeout=args.timeout) as client:
        text = scrape(client, args.namespace)
    elapsed_ms = (time.monotonic() - started) * 1e3
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(
            f"[export_metrics] wrote {len(text)} bytes to {args.out} ({elapsed_ms:.1f} ms)",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
