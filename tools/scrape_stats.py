"""Per-interval serving-metrics scraper over the frame protocol.

Connects to a running :class:`~repro.serving.transport.TransportServer`,
and on every tick scrapes one interval snapshot with the reset idiom —
``stats`` (publish the interval), then ``reset_stats`` (start the next
interval at zero) — appending one JSON line per interval to a metrics
file.  The output is ready for ``jq``, a spreadsheet import, or a
log-shipping agent::

    {"scraped_at": 1700000000.0, "interval_seconds": 5.0, "stats": {...}}

The client reconnects with capped exponential backoff (``--retries``),
so a serving-process restart shows up as a gap in the series instead of
killing the scraper.

Run with::

    PYTHONPATH=src python tools/scrape_stats.py \
        --host 127.0.0.1 --port 8757 \
        --interval 5 --count 12 --out serving_metrics.jsonl

``--count 0`` scrapes forever (stop with Ctrl-C); ``--no-reset`` turns
the scrape into a cumulative poll (no ``reset_stats``), for servers whose
stats another consumer also resets.

**Replica-group mode** scrapes a whole group per tick: repeat
``--replica HOST:PORT`` once per replica transport and each interval
record carries ONE merged snapshot
(:func:`repro.serving.metrics.merge_server_stats`) — counters summed,
the log-linear latency histograms merged and the group percentiles
recomputed from the merged histogram (never averaged), per-replica
worker stats namespaced ``r<i>/<worker>``.  Threshold expressions
evaluate against the merged view, so ``--fail-on "deadline_exceeded>0"``
gates the *group*; replicas that are down are skipped and counted in
``unreachable_replicas`` (gate with ``--fail-on "unreachable_replicas>0"``
to alert on partial outages)::

    PYTHONPATH=src python tools/scrape_stats.py \
        --replica 127.0.0.1:8757 --replica 127.0.0.1:8758 \
        --interval 5 --count 12 --out group_metrics.jsonl

**Threshold mode** turns the scraper into an alerting gate: every
``--fail-on "metric>limit"`` expression (repeatable; dotted paths reach
nested fields, e.g. ``model_stats.my-model.fallback_stages>0``) is
evaluated against each scraped interval, violations are reported on
stderr, and the process exits non-zero if any interval violated — so a
supervisor, cron job or CI step fails instead of scrolling past a
regression.

``--check FILE`` evaluates the same expressions **offline** against an
existing metrics file — either a JSONL series this tool scraped (each
record's ``stats``) or a single JSON document such as the
``BENCH_primitives.json`` the benchmark suite writes::

    PYTHONPATH=src python tools/scrape_stats.py --check BENCH_primitives.json \
        --fail-on "cases.hamming_packed_bits.mean_seconds>1"

A threshold is a dotted metric path, a comparison operator and a numeric
limit, stating the *failure* condition.  A path that lands on a serialized
latency histogram may end with one stat token derived from its buckets
(``count``, ``mean_ms``, ``p50``, ``p99_9_ms``, ...)::

    PYTHONPATH=src python tools/scrape_stats.py --check serving_metrics.jsonl \
        --fail-on "model_stats.isolet.histograms.latency.p99_ms>25"

A metric that is missing, not a number or not finite (NaN, ±inf) is a
violation under every operator: an alerting expression that silently
never matches is worse than a false alarm.  A malformed expression exits
with code 2 (usage error), distinct from exit code 1 (violations found).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import pathlib
import re
import sys
import time
from typing import Optional

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.serving.metrics import merge_server_stats  # noqa: E402
from repro.serving.observability.histogram import LatencyHistogram  # noqa: E402
from repro.serving.transport import ServingClient  # noqa: E402


class GateError(ValueError):
    """A malformed threshold expression (unparsable path/operator/limit);
    :func:`main` maps it to the usage exit code 2."""


_EXPR_RE = re.compile(
    r"^\s*(?P<path>[A-Za-z0-9_.\- ]+?)\s*(?P<op>>=|<=|==|!=|>|<)\s*(?P<limit>-?\d+(?:\.\d+)?)\s*$"
)

_OPERATORS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Quantile tokens a dotted path may end with when it walks into a
#: serialized histogram: ``p99``, ``p99_9`` (99.9) — with an optional
#: ``_ms`` suffix converting the histogram's seconds to milliseconds.
_HIST_QUANTILE_RE = re.compile(r"^p(?P<whole>\d+)(?:_(?P<frac>\d+))?(?P<ms>_ms)?$")


def histogram_stat(data: dict, token: str):
    """Resolve a stat token against a serialized log-linear histogram.

    ``data`` is a :meth:`LatencyHistogram.to_dict` document (recognized
    by its ``"buckets"`` key); tokens are exact fields (``count``,
    ``sum``, ``min``, ``max``), ``mean`` / ``mean_ms``, or quantiles
    like ``p50`` / ``p99_9`` / ``p99_ms``.  Returns ``None`` for an
    unknown token, which the threshold reports as a missing metric.
    """
    if token in ("count", "sum", "min", "max", "zero_count"):
        return data.get(token)
    if token in ("mean", "mean_ms"):
        count = data.get("count") or 0
        mean = (float(data.get("sum", 0.0)) / count) if count else 0.0
        return mean * 1e3 if token == "mean_ms" else mean
    match = _HIST_QUANTILE_RE.match(token)
    if match is None:
        return None
    p = float(
        f"{match.group('whole')}.{match.group('frac')}" if match.group("frac") else match.group("whole")
    )
    if not 0.0 <= p <= 100.0:
        return None
    value = LatencyHistogram.from_dict(data).percentile(p)
    return value * 1e3 if match.group("ms") else value


def resolve(record: dict, path: str):
    """Walk a dotted path through nested dicts (None when absent).

    A path whose walk lands on a serialized latency histogram may end
    with one extra stat token resolved *from* the histogram — e.g.
    ``model_stats.isolet.histograms.latency.p99_ms`` derives the p99 (in
    milliseconds) from the bucket data, so thresholds can gate on any
    quantile, not just the pre-derived ``latency_p99_ms`` fields.
    """
    node = record
    parts = path.split(".")
    for index, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            if isinstance(node, dict) and "buckets" in node and index == len(parts) - 1:
                return histogram_stat(node, part)
            return None
        node = node[part]
    return node


class Threshold:
    """One ``--fail-on`` expression: a dotted metric path, a comparison
    operator and a numeric limit.  The expression states the *failure*
    condition — ``fallback_stages>0`` means "fail when positive".

    Raises:
        GateError: The expression does not parse.
    """

    def __init__(self, expression: str):
        match = _EXPR_RE.match(expression)
        if match is None:
            raise GateError(
                f"cannot parse threshold {expression!r} "
                f"(expected e.g. 'fallback_stages>0' or 'model_stats.m.slo_violations>=5')"
            )
        self.expression = expression.strip()
        self.path = match.group("path").strip()
        self.op = match.group("op")
        self.limit = float(match.group("limit"))

    def violation(self, record: dict) -> Optional[str]:
        """The violation message for one record, or ``None`` when clean."""
        value = resolve(record, self.path)
        where = f"at {self.path!r}"
        if value is None:
            return f"{self.expression}: metric missing {where}"
        try:
            numeric = float(value)
        except (TypeError, ValueError):
            return f"{self.expression}: non-numeric metric {where} ({value!r})"
        if not math.isfinite(numeric):  # every ordering comparison with NaN is false
            return f"{self.expression}: non-finite metric {where} ({numeric})"
        if _OPERATORS[self.op](numeric, self.limit):
            return f"{self.expression}: violated {where} with value {numeric:g}"
        return None

    def __repr__(self) -> str:
        return f"Threshold({self.expression!r})"


def check_thresholds(record: dict, thresholds, label: str) -> int:
    """Report every violated threshold for one record; returns the count.

    Scraped intervals carry their metrics under ``"stats"``; standalone
    documents (``--check`` on a benchmark summary) are matched directly.
    """
    target = record.get("stats", record) if isinstance(record, dict) else record
    violations = 0
    for threshold in thresholds:
        message = threshold.violation(target)
        if message is not None:
            violations += 1
            print(f"[{label}] FAIL {message}", file=sys.stderr)
    return violations


def _address(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1", help="transport server host")
    parser.add_argument(
        "--port", type=int, default=None, help="transport server port (required unless --check)"
    )
    parser.add_argument(
        "--replica",
        action="append",
        type=_address,
        default=[],
        metavar="HOST:PORT",
        help="replica-group mode: scrape each replica's transport "
        "(repeatable) and emit one merged group snapshot per interval — "
        "counters summed, latency histograms merged and group percentiles "
        "recomputed, worker stats namespaced per replica; thresholds "
        "evaluate against the merged view",
    )
    parser.add_argument(
        "--interval", type=float, default=5.0, help="seconds between scrapes (default 5)"
    )
    parser.add_argument(
        "--count", type=int, default=0, help="number of intervals to scrape (0 = forever)"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("serving_metrics.jsonl"),
        help="metrics file to append JSON lines to",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=8,
        help="per-request reconnect retries with capped exponential backoff",
    )
    parser.add_argument(
        "--no-reset",
        action="store_true",
        help="scrape cumulative stats without calling reset_stats",
    )
    parser.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="EXPR",
        help="threshold expression (repeatable), e.g. 'fallback_stages>0'; "
        "any scraped interval (or checked record) matching the expression "
        "makes the process exit non-zero",
    )
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="offline mode: evaluate the --fail-on thresholds against an "
        "existing metrics JSONL or a single JSON document (e.g. "
        "BENCH_primitives.json) instead of scraping a live server",
    )
    args = parser.parse_args(argv)
    if args.check is None and args.port is None and not args.replica:
        parser.error("--port (or --replica) is required unless --check FILE is given")
    if args.port is not None and args.replica:
        parser.error("--port and --replica are mutually exclusive")
    if args.check is not None and not args.fail_on:
        parser.error("--check needs at least one --fail-on expression")
    return args


def scrape_once(client: ServingClient, interval: float, reset: bool) -> dict:
    """One interval record: an atomic snapshot-and-reset of the window.

    ``stats(reset=True)`` zeroes the metrics under the same server-side
    lock acquisition that took the snapshot, so requests landing between
    scrapes are never lost to a gap between two separate frames.  The
    client never *resends* the reset on a transport failure (the server
    may have applied it before the reply was lost); the caller records
    such a failure as an explicit gap in the series instead.
    """
    return {
        "scraped_at": time.time(),
        "interval_seconds": interval,
        "stats": client.stats(reset=reset),
    }


def scrape_group(clients, interval: float, reset: bool) -> dict:
    """One merged interval record across a replica group.

    Each replica is scraped with the same atomic snapshot-and-reset;
    unreachable replicas contribute nothing to the merge (they are
    counted in ``unreachable_replicas`` so a gate like
    ``unreachable_replicas>0`` can alert on partial outages).  Only when
    *every* replica is unreachable does the interval count as lost.
    """
    snapshots = []
    unreachable = 0
    for client in clients:
        try:
            snapshots.append(client.stats(reset=reset))
        except (ConnectionError, EOFError, OSError):
            snapshots.append(None)
            unreachable += 1
    if unreachable == len(clients):
        raise ConnectionError(f"all {len(clients)} replicas unreachable")
    record = {
        "scraped_at": time.time(),
        "interval_seconds": interval,
        "replicas": len(clients),
        "unreachable_replicas": unreachable,
        "stats": merge_server_stats(snapshots),
    }
    return record


def check_file(path: pathlib.Path, thresholds) -> int:
    """Offline threshold evaluation; returns the total violation count.

    Accepts either a JSONL series (one record per line, as this tool
    scrapes) or one JSON document (e.g. a ``BENCH_*.json`` summary).
    """
    text = path.read_text(encoding="utf-8")
    try:
        records = [json.loads(text)]
    except json.JSONDecodeError:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    violations = 0
    for index, record in enumerate(records):
        label = path.name if len(records) == 1 else f"{path.name}:{index + 1}"
        if isinstance(record, dict) and "error" in record and "stats" not in record:
            # A lost-interval marker from the live scraper (connection
            # blip) — skipped, matching live mode, not a metric failure.
            print(f"[{label}] skipping lost interval: {record['error']}", file=sys.stderr)
            continue
        violations += check_thresholds(record, thresholds, label)
    return violations


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        thresholds = [Threshold(expression) for expression in args.fail_on]
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.check is not None:
        violations = check_file(args.check, thresholds)
        if violations:
            print(f"{violations} threshold violation(s) in {args.check}", file=sys.stderr)
            return 1
        print(f"{args.check}: all {len(thresholds)} threshold(s) clean", file=sys.stderr)
        return 0

    # max_retries covers the initial connection too, so launching the
    # scraper before (or while) the serving process restarts just waits
    # out the gap with capped exponential backoff.
    addresses = args.replica if args.replica else [(args.host, args.port)]
    clients = [
        ServingClient(host, port, timeout=30.0, max_retries=args.retries)
        for host, port in addresses
    ]
    scraped = 0
    violations = 0
    try:
        with args.out.open("a", encoding="utf-8") as out:
            while args.count == 0 or scraped < args.count:
                if scraped:
                    time.sleep(args.interval)
                try:
                    if args.replica:
                        record = scrape_group(clients, args.interval, reset=not args.no_reset)
                    else:
                        record = scrape_once(clients[0], args.interval, reset=not args.no_reset)
                except (ConnectionError, EOFError, OSError) as exc:
                    # The scrape (and possibly its reset) was lost in
                    # flight.  Mark the gap explicitly — the next tick
                    # reconnects via the client's retry budget — rather
                    # than resending a non-idempotent reset.
                    record = {
                        "scraped_at": time.time(),
                        "interval_seconds": args.interval,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
                out.flush()
                scraped += 1
                if "error" in record:
                    print(f"[scrape {scraped}] lost interval: {record['error']}", file=sys.stderr)
                else:
                    violations += check_thresholds(record, thresholds, f"scrape {scraped}")
                    requests = record["stats"].get("requests", 0)
                    print(
                        f"[scrape {scraped}] {requests} requests -> {args.out}", file=sys.stderr
                    )
    except KeyboardInterrupt:
        pass
    finally:
        for client in clients:
            client.close()
    if violations:
        print(f"{violations} threshold violation(s) across {scraped} scrape(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
