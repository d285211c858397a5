"""repro.serving.observability — the serving stack's sensory system.

One table and three instruments.  The table is
:mod:`~repro.serving.observability.catalogue`: every stats key, span name
and event is one row there, whatever holds, merges, exposes or documents
them derives from the rows, and its ``emit`` logs the control plane's state
changes to the stdlib logger ``repro.serving``.  The instruments:

* :class:`~repro.serving.observability.histogram.LatencyHistogram` —
  mergeable log-linear histograms with exact counts and bounded-relative-
  error quantiles; constant memory per (model, phase) — what
  :class:`~repro.serving.metrics.ServingMetrics` keeps for every
  ``histogram`` row.
* :class:`~repro.serving.observability.trace.TraceContext` /
  :class:`~repro.serving.observability.trace.RequestTracer` — per-request
  span chains threaded from the transport through batching, scheduling,
  dispatch and per-stage execution, retained in bounded rings with
  tail-based sampling (errors and SLO violators always kept), exported
  as Chrome trace-event JSON (:func:`chrome_trace`).
* :func:`~repro.serving.observability.prometheus.render_prometheus` /
  :func:`~repro.serving.observability.prometheus.parse_prometheus_text`
  — the Prometheus text exposition behind the transport's ``metrics`` op
  and ``tools/export_metrics.py`` (one loop over the catalogue's family
  rows), with a dependency-free lint.
"""

from repro.serving.observability.histogram import DEFAULT_RELATIVE_ERROR, LatencyHistogram
from repro.serving.observability.prometheus import parse_prometheus_text, render_prometheus
from repro.serving.observability.trace import RequestTracer, TraceContext, chrome_trace

__all__ = [
    "LatencyHistogram",
    "DEFAULT_RELATIVE_ERROR",
    "TraceContext",
    "RequestTracer",
    "chrome_trace",
    "render_prometheus",
    "parse_prometheus_text",
]
