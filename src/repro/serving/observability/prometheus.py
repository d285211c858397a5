"""Prometheus text exposition (and an in-tree lint) for serving stats.

:func:`render_prometheus` turns a :meth:`ServerStats.to_dict` document
into the Prometheus text format (version 0.0.4).  Which families exist,
their TYPE, HELP, labels and order are the rows of
:mod:`repro.serving.observability.catalogue` that name a ``family``; this
module is the loop over them: counters and gauges as one sample per view
that carries the row, the latency histograms as ``_bucket`` / ``_sum`` /
``_count`` series with cumulative ``le`` labels — exact counts straight
from the log-linear histograms' bin edges — and the per-version request
ledger as one sample per version.  The ``metrics`` transport op returns
this text, and ``tools/export_metrics.py`` snapshots it.

:func:`parse_prometheus_text` is a dependency-free lint of that format
(CI runs it against the bench server's scrape): every sample line must
parse, every family must declare a ``# TYPE``, and histogram bucket
series must be cumulative and consistent with their ``_count``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.serving.observability.catalogue import FAMILIES, LABELS, METRICS, ROWS, Metric
from repro.serving.observability.histogram import LatencyHistogram

__all__ = ["render_prometheus", "parse_prometheus_text"]

DEFAULT_NAMESPACE = "hdc_serving"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


def _escape(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: Optional[dict]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in labels.items())
    return "{" + inner + "}"


def _value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".10g")


def _scalar(name: str, row: Metric, labels: dict, view: dict) -> Iterator[str]:
    value = view.get(row.key)
    if value is not None or row.scope == "server":
        yield f"{name}{_labels(labels)} {_value(value or 0)}"


def _histogram(name: str, row: Metric, labels: dict, view: dict) -> Iterator[str]:
    """The ``_bucket`` / ``_sum`` / ``_count`` series of one serialized
    histogram: cumulative ``le`` buckets, exact counts at exact bin edges."""
    data = row.read(view)
    if not data or data.get("buckets") is None:
        return
    hist = LatencyHistogram.from_dict(data)
    for bound, cumulative in hist.cumulative_buckets():
        yield f"{name}_bucket{_labels({**labels, 'le': _value(bound)})} {_value(cumulative)}"
    yield f"{name}_bucket{_labels({**labels, 'le': '+Inf'})} {_value(hist.count)}"
    yield f"{name}_sum{_labels(labels)} {_value(hist.sum)}"
    yield f"{name}_count{_labels(labels)} {_value(hist.count)}"


def _ledger(name: str, row: Metric, labels: dict, view: dict) -> Iterator[str]:
    """One sample per ledger entry — the one special case: the ledger is
    ``requests_by_version``, labelled by version, and a deployment that never
    recorded one exposes its request total under the version it serves."""
    ledger = view.get(row.key) or {view.get("version"): view.get("requests", 0)}
    for version in sorted(ledger, key=lambda v: int(v or 0)):
        own = {"version": "" if version is None else str(version)}
        yield f"{name}{_labels({**labels, **own})} {_value(ledger[version])}"


_SAMPLES = {"histogram": _histogram, "ledger": _ledger}


def _views(scope: str, labels: dict, view: dict, found: Dict[str, list]) -> Dict[str, list]:
    """``{scope: [(labels, view)]}`` for every view of a stats document.  A
    name-keyed collection is walked in name order, each view labelled
    ``<scope>="<name>"`` — unless its scope has ``label`` rows: their values
    label it then, in recorded order."""
    found.setdefault(scope, []).append((labels, view))
    for row in ROWS[scope]:
        nested = view.get(row.key) if row.kind in ROWS else None
        if not nested:
            continue
        if row.merge == "first":  # one document, not a collection of them
            _views(row.kind, labels, nested, found)
            continue
        keys = LABELS[row.kind]
        for name, child in nested.items() if keys else sorted(nested.items()):
            own = {key: str(child.get(key, "?")) for key in keys} if keys else {row.kind: name}
            _views(row.kind, {**labels, **own}, child, found)
    return found


def render_prometheus(stats: dict, namespace: str = DEFAULT_NAMESPACE) -> str:
    """Render one ``ServerStats.to_dict()`` document as Prometheus text:
    one family per catalogue row that names one, in table order, left out
    when no view of the document carries the row (server families always
    have a sample)."""
    views = _views("server", {}, stats, {})
    lines: List[str] = []
    for row in METRICS:
        if not row.family:
            continue
        name = f"{namespace}_{row.family}"
        samples = [
            line
            for labels, view in views.get(row.scope, ())
            for line in _SAMPLES.get(row.kind, _scalar)(name, row, labels, view)
        ]
        if samples:
            lines += [f"# HELP {name} {row.help}", f"# TYPE {name} {FAMILIES[row.family]}"]
            lines += samples
    return "\n".join(lines) + "\n"


class PrometheusSample:
    """One parsed sample line: ``name{labels} value``."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:
        return f"PrometheusSample({self.name}{self.labels!r} {self.value:g})"


def _parse_float(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def _family_of(name: str, types: Dict[str, str]) -> Optional[str]:
    """The declared family a sample belongs to (histogram suffixes strip)."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def parse_prometheus_text(text: str) -> List[PrometheusSample]:
    """Parse (and lint) a Prometheus text-format document.

    Raises ``ValueError`` on the first structural problem: an unparsable
    line, a sample without a declared ``# TYPE`` family, a non-cumulative
    histogram bucket series, a bucket series without ``+Inf``, or an
    ``+Inf`` bucket disagreeing with its ``_count``.  Returns the parsed
    samples so callers can assert on specific series.
    """
    types: Dict[str, str] = {}
    samples: List[PrometheusSample] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed TYPE comment: {raw!r}")
            if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {parts[3]!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparsable sample line: {raw!r}")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for label in _LABEL_RE.finditer(label_text):
                labels[label.group("key")] = label.group("value")
                consumed = label.end()
            if consumed < len(label_text.rstrip()):
                raise ValueError(f"line {lineno}: malformed labels: {label_text!r}")
        try:
            value = _parse_float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value {match.group('value')!r}"
            ) from None
        name = match.group("name")
        if _family_of(name, types) is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no # TYPE declaration")
        samples.append(PrometheusSample(name, labels, value))

    # Histogram consistency: per label set, buckets cumulative, +Inf == _count.
    for family, ftype in types.items():
        if ftype != "histogram":
            continue
        series: Dict[tuple, List[Tuple[float, float]]] = {}
        counts: Dict[tuple, float] = {}
        for sample in samples:
            if sample.name == f"{family}_bucket":
                key = tuple(sorted((k, v) for k, v in sample.labels.items() if k != "le"))
                series.setdefault(key, []).append(
                    (_parse_float(sample.labels.get("le", "+Inf")), sample.value)
                )
            elif sample.name == f"{family}_count":
                counts[tuple(sorted(sample.labels.items()))] = sample.value
        for key, buckets in series.items():
            buckets.sort(key=lambda pair: pair[0])
            if not buckets or not math.isinf(buckets[-1][0]):
                raise ValueError(f"{family}: bucket series {dict(key)} is missing le=\"+Inf\"")
            last = -math.inf
            for bound, cumulative in buckets:
                if cumulative < last:
                    raise ValueError(
                        f"{family}: bucket series {dict(key)} is not cumulative at le={bound:g}"
                    )
                last = cumulative
            expected = counts.get(key)
            if expected is not None and buckets[-1][1] != expected:
                raise ValueError(
                    f"{family}: +Inf bucket {buckets[-1][1]:g} != _count {expected:g} "
                    f"for {dict(key)}"
                )
    return samples
