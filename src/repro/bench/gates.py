"""Threshold gates over benchmark and serving-metrics documents.

This module is the single implementation behind every ``--fail-on``
expression in the repo — ``tools/scrape_stats.py`` (live scraping and
``--check`` offline mode) and ``python -m repro.bench`` (per-cell matrix
gating) both parse and evaluate thresholds here, so a gate written for
one tool means exactly the same thing in the other.

An expression is a dotted metric path, a comparison operator and a
numeric limit, stating the *failure* condition::

    fallback_stages>0
    model_stats.isolet.histograms.latency.p99_ms>25
    cell.isolet.steady.p99_ms>40

Paths walk nested dicts; a path that lands on a serialized
:class:`~repro.serving.observability.LatencyHistogram` may end with one
stat token (``count``, ``mean_ms``, ``p50``, ``p99_9_ms``, ...) derived
from the bucket data.

**Cell paths** extend the syntax for matrix documents (the
``BENCH_matrix.json`` a :mod:`repro.bench` run writes, whose ``cells``
mapping keys cell IDs like ``isolet.cpu.exact.steady`` to metric dicts).
A path starting with ``cell.`` (or ``cells.``) consumes *selector*
tokens — each must match one of the cell's coordinate values (app,
backend, config or shape) — and evaluates the remaining metric path
against **every** matching cell::

    cell.isolet.steady.p99_ms>40      # one app, one shape, any backend/config
    cell.burst.failures>0             # every burst cell, all apps
    cell.isolet.cpu.exact.steady.served_rps<50   # exactly one cell

Each violating cell yields its own violation message, and a selector
matching *no* cell is itself a violation — an alerting expression that
silently never matches is worse than a false alarm.  For the same reason
a metric that is missing, not a number, or not finite (NaN, ±inf) is a
violation whatever the operator.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Dict, List, Optional, Tuple

from repro.serving.observability.histogram import LatencyHistogram

__all__ = [
    "GateError",
    "Threshold",
    "resolve",
    "histogram_stat",
    "match_cells",
    "COORD_KEYS",
]


class GateError(ValueError):
    """A malformed threshold expression (unparsable path/operator/limit).

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    callers keep working; tools map it to a distinct usage exit code.
    """


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

#: The coordinate fields of a matrix cell, in cell-ID order.  Cell
#: selectors match against these values.
COORD_KEYS = ("app", "backend", "config", "shape")

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
            if (
                isinstance(node, dict)
                and "buckets" in node
                and index == len(parts) - 1
            ):
                return histogram_stat(node, part)
            return None
        node = node[part]
    return node


def _cell_coords(cell: dict) -> set:
    return {str(cell[key]) for key in COORD_KEYS if key in cell}


def match_cells(cells: Dict[str, dict], tokens: List[str]) -> Tuple[Dict[str, dict], str]:
    """Split a cell path's tokens into (matched cells, metric path).

    Selector tokens are consumed greedily from the front: a token is a
    selector while it equals a coordinate value (app/backend/config/
    shape) of at least one still-matching cell; the first token that
    isn't starts the metric path.  Matching cells are those whose
    coordinates contain *every* consumed selector.
    """
    matched = {
        cell_id: cell for cell_id, cell in cells.items() if isinstance(cell, dict)
    }
    index = 0
    while index < len(tokens):
        token = tokens[index]
        narrowed = {
            cell_id: cell
            for cell_id, cell in matched.items()
            if token in _cell_coords(cell)
        }
        if not narrowed:
            break
        matched = narrowed
        index += 1
    return matched, ".".join(tokens[index:])


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
                f"(expected e.g. 'fallback_stages>0', 'model_stats.m.slo_violations>=5' "
                f"or 'cell.isolet.steady.p99_ms>40')"
            )
        self.expression = expression.strip()
        self.path = match.group("path").strip()
        self.op = match.group("op")
        self.limit = float(match.group("limit"))

    # -- evaluation ---------------------------------------------------------------
    def _check_value(self, value, where: str) -> Optional[str]:
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

    def violations(self, record: dict) -> List[str]:
        """Every violation message for one record (empty when clean).

        A plain path yields at most one message; a ``cell.`` path yields
        one per violating matched cell, and a selector matching no cell
        is itself a violation.
        """
        tokens = self.path.split(".")
        if tokens[0] in ("cell", "cells"):
            return self._cell_violations(record, tokens[1:])
        message = self._check_value(
            resolve(record, self.path), f"at {self.path!r}"
        )
        return [] if message is None else [message]

    def _cell_violations(self, record: dict, tokens: List[str]) -> List[str]:
        cells = record.get("cells") if isinstance(record, dict) else None
        if not isinstance(cells, dict) or not cells:
            return [f"{self.expression}: record has no 'cells' mapping"]
        if not tokens:
            return [f"{self.expression}: cell path needs selector and metric tokens"]
        matched, metric = match_cells(cells, tokens)
        if not metric:
            return [f"{self.expression}: no metric path after the cell selector"]
        messages = []
        for cell_id in sorted(matched):
            message = self._check_value(
                resolve(matched[cell_id], metric),
                f"in cell {cell_id} at {metric!r}",
            )
            if message is not None:
                messages.append(message)
        return messages

    def violation(self, record: dict) -> Optional[str]:
        """The first violation message for one record, or ``None`` when
        clean (compatibility shim over :meth:`violations`)."""
        messages = self.violations(record)
        return messages[0] if messages else None

    def __repr__(self) -> str:
        return f"Threshold({self.expression!r})"


def evaluate(record: dict, thresholds) -> List[str]:
    """All violation messages from evaluating thresholds against a record."""
    messages: List[str] = []
    for threshold in thresholds:
        messages.extend(threshold.violations(record))
    return messages
