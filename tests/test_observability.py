"""Tests for the observability plane (repro.serving.observability).

Covers the log-linear latency histogram (accuracy against exact
quantiles, mergeability, bounded memory, and the bursty-traffic
regression the old fixed-size sample window got wrong), per-request
tracing (contiguous span tiling, tail-based retention, hot-swap retry
hygiene), the Prometheus text exposition (render + in-tree lint), and
the histogram-aware dotted paths of ``tools/scrape_stats.py``.
"""

from __future__ import annotations

import collections
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassification
from repro.apps.common import bipolar_random
from repro.serving import (
    InferenceServer,
    LatencyHistogram,
    ModelRegistry,
    RequestBroker,
    Servable,
    TraceContext,
    WorkerPool,
    chrome_trace,
    parse_prometheus_text,
    percentile as exact_percentile,
    render_prometheus,
)
from repro.serving.observability import DEFAULT_RELATIVE_ERROR, RequestTracer
from repro.serving.transport import ServingClient, TransportServer

DIM = 128
CLASSES = 6


def make_servable(seed: int = 7, name: str = "obs-model") -> Servable:
    classes = bipolar_random(CLASSES, DIM, seed=seed)

    def build_program(batch_size: int) -> H.Program:
        prog = H.Program(f"{name}_b{batch_size}")

        @prog.define(H.hv(DIM), H.hm(CLASSES, DIM))
        def infer_one(encoding, class_hvs):
            distances = H.hamming_distance(H.sign(encoding), H.sign(class_hvs))
            return H.arg_min(distances)

        @prog.entry(H.hm(batch_size, DIM), H.hm(CLASSES, DIM))
        def main(encodings, class_hvs):
            return H.inference_loop(infer_one, encodings, class_hvs)

        return prog

    return Servable(
        name=name,
        build_program=build_program,
        constants={"class_hvs": classes},
        query_param="encodings",
        sample_shape=(DIM,),
        supported_targets=("cpu", "gpu"),
    )


def queries(n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, (n, DIM)) * 2 - 1).astype(np.float32)


def _load_tool(name: str):
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Log-linear latency histogram
# ---------------------------------------------------------------------------


def _record(hist: LatencyHistogram, samples) -> None:
    for sample in samples:
        hist.record(sample)


class TestLatencyHistogram:
    def test_quantiles_within_relative_error_on_10k_fixture(self):
        """The headline accuracy contract: on a 10k-sample heavy-tailed
        fixture every quantile estimate is within the documented
        relative-error bound of the exact nearest-rank quantile."""
        rng = np.random.default_rng(42)
        samples = rng.lognormal(mean=-5.0, sigma=1.2, size=10_000)
        hist = LatencyHistogram()
        _record(hist, samples)
        assert hist.count == 10_000
        assert hist.sum == pytest.approx(float(samples.sum()))
        for p in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = exact_percentile(sorted(samples), p)
            estimate = hist.percentile(p)
            assert estimate == pytest.approx(exact, rel=DEFAULT_RELATIVE_ERROR), (
                f"p{p}: estimate {estimate} vs exact {exact}"
            )

    def test_min_max_are_exact(self):
        hist = LatencyHistogram()
        _record(hist, [0.004, 0.002, 0.9, 0.0301])
        assert hist.min == 0.002
        assert hist.max == 0.9
        # Quantile estimates clamp to the exact extremes.
        assert hist.percentile(0) == 0.002
        assert hist.percentile(100) == 0.9

    def test_merge_matches_combined_recording(self):
        rng = np.random.default_rng(3)
        a_samples = rng.exponential(0.01, 4000)
        b_samples = rng.exponential(0.08, 3000)
        a, b, combined = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        _record(a, a_samples)
        _record(b, b_samples)
        _record(combined, a_samples)
        _record(combined, b_samples)
        merged = a.copy().merge(b)  # merge folds in place; keep `a` intact
        assert merged.count == combined.count == 7000
        assert merged.sum == pytest.approx(combined.sum)
        assert merged.min == combined.min
        assert merged.max == combined.max
        for p in (50, 95, 99):
            assert merged.percentile(p) == combined.percentile(p)
        assert a.count == 4000 and b.count == 3000

    def test_merge_rejects_incompatible_resolution(self):
        coarse = LatencyHistogram(relative_error=0.1)
        fine = LatencyHistogram(relative_error=0.01)
        assert not coarse.compatible(fine)
        with pytest.raises(ValueError):
            coarse.merge(fine)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(9)
        hist = LatencyHistogram()
        _record(hist, rng.lognormal(-4, 1.0, 2500))
        restored = LatencyHistogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert restored.count == hist.count
        assert restored.sum == pytest.approx(hist.sum)
        assert restored.min == hist.min and restored.max == hist.max
        for p in (50, 90, 99):
            assert restored.percentile(p) == hist.percentile(p)
        assert restored.cumulative_buckets() == hist.cumulative_buckets()

    def test_memory_stays_bounded_by_dynamic_range_not_count(self):
        """A stream spanning five orders of magnitude occupies a few
        hundred buckets — constant in the number of samples (the old
        deque window held every sample up to its 8192 cap)."""
        rng = np.random.default_rng(17)
        hist = LatencyHistogram()
        _record(hist, 10.0 ** rng.uniform(-5, 1, 50_000))
        assert hist.count == 50_000
        assert hist.bucket_count < 400

    def test_bursty_sequence_regression_vs_sample_window(self):
        """The regression the histogram fixes: a burst of fast requests
        used to evict an earlier slow phase out of the 8192-sample deque
        window, so the reported p99 silently forgot the slow phase.  The
        histogram keeps exact counts for the whole interval."""
        rng = np.random.default_rng(23)
        slow_phase = rng.normal(0.100, 0.005, 3000).clip(min=1e-4)  # 100ms era
        fast_burst = rng.normal(0.001, 0.0001, 12_000).clip(min=1e-4)  # then 1ms burst
        stream = np.concatenate([slow_phase, fast_burst])

        window = collections.deque(maxlen=8192)  # the old collector
        hist = LatencyHistogram()
        for value in stream:
            window.append(value)
            hist.record(value)

        true_p99 = exact_percentile(sorted(stream), 99)
        window_p99 = exact_percentile(sorted(window), 99)
        hist_p99 = hist.percentile(99)

        # 3000 of 15000 samples are ~100ms, so the true p99 is ~100ms...
        assert true_p99 > 0.09
        # ...which the evicted window has completely forgotten...
        assert window_p99 < 0.01
        # ...while the histogram reports it within its error bound.
        assert hist_p99 == pytest.approx(true_p99, rel=DEFAULT_RELATIVE_ERROR)


# ---------------------------------------------------------------------------
# Tracing primitives
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_steps_tile_the_request_lifetime_exactly(self):
        trace = TraceContext("m", started_at=100.0)
        trace.step("queue", now=100.010)
        trace.step("batch", now=100.012)
        trace.span("stage:child", 100.012, 100.018)  # nested; no cursor move
        trace.step("execute", now=100.020)
        trace.step("settle", now=100.021)
        top_level = [s for s in trace.spans if not s.name.startswith("stage:")]
        assert sum(s.duration for s in top_level) == pytest.approx(trace.duration)
        assert trace.duration == pytest.approx(0.021)

    def test_shared_batch_marks_read_like_per_trace_steps(self):
        """Requests of one executed batch share one mark list; each trace
        still reads as its own contiguous chain, private steps before and
        after included, and a request that dies alone stops sharing."""
        from repro.serving.observability.trace import SharedMarks

        alive, shed = TraceContext("m", started_at=100.0), TraceContext("m", started_at=100.0)
        alive.step("retry", now=100.001)
        marks = SharedMarks([alive, shed])
        marks.step("queue", 100.010, {"batch_size": 2})
        marks.step("batch", 100.011)
        shed.fail("DeadlineExceeded: shed at dispatch")  # its chain freezes here
        marks.step("schedule", 100.012)
        marks.child("stage:encode", 100.013, 100.018, {"route": "vectorized"})
        marks.step("execute", 100.020)
        marks.step("settle", 100.021)
        alive.step("transport", now=100.025)
        assert alive.span_names() == [
            "retry", "queue", "batch", "schedule", "stage:encode", "execute", "settle", "transport"
        ]
        top_level = [s for s in alive.spans if not s.name.startswith("stage:")]
        assert sum(s.duration for s in top_level) == pytest.approx(alive.duration)
        assert alive.duration == pytest.approx(0.025)
        assert shed.span_names() == ["queue", "batch"]
        assert shed.duration == pytest.approx(0.011) and shed.error.startswith("DeadlineExceeded")
        assert alive.to_dict()["spans"][1]["meta"] == {"batch_size": 2}

    def test_first_failure_wins(self):
        trace = TraceContext("m")
        trace.fail("first")
        trace.fail("second")
        assert trace.error == "first"


class TestRequestTracerRetention:
    def test_slo_violators_always_retained_while_rings_stay_bounded(self):
        """A flood of healthy traffic must never evict violators, and
        total buffered traces stay <= 2 * capacity regardless of load."""
        tracer = RequestTracer(capacity=16, sample_every=1000)
        violator_ids = []
        for i in range(2000):
            trace = tracer.begin("m")
            trace.step("settle")
            if i % 100 == 0:  # 20 violators among 2000 requests
                trace.slo_violated = True
                violator_ids.append(trace.trace_id)
            assert tracer.finish(trace) in (True, False)
        assert len(tracer) <= 2 * tracer.capacity
        kept = tracer.traces()
        kept_violators = [t["trace_id"] for t in kept if t["slo_violated"]]
        # The *newest* `capacity` violators survive; healthy floods can't
        # push them out because the rings are separate.
        assert kept_violators == violator_ids[-16:]

    def test_error_traces_always_retained(self):
        tracer = RequestTracer(capacity=8, sample_every=10_000)
        trace = tracer.begin("m")
        trace.fail("boom")
        assert tracer.finish(trace) is True
        assert tracer.traces()[0]["error"] == "boom"

    def test_healthy_traffic_sampled_one_in_n(self):
        tracer = RequestTracer(capacity=1000, sample_every=10)
        kept = sum(tracer.finish(tracer.begin("m")) for _ in range(100))
        assert kept == 10
        assert tracer.stats()["finished"] == 100

    def test_traces_limit_and_clear(self):
        tracer = RequestTracer(capacity=32, sample_every=1)
        for _ in range(5):
            tracer.finish(tracer.begin("m"))
        assert len(tracer.traces(limit=2)) == 2
        assert len(tracer.traces(clear=True)) == 5
        assert len(tracer) == 0


# ---------------------------------------------------------------------------
# End-to-end tracing through the broker
# ---------------------------------------------------------------------------


class TestBrokerTracing:
    def _server(self, **kwargs) -> InferenceServer:
        server = InferenceServer(
            max_batch_size=8, max_wait_seconds=0.001, tracing=True, **kwargs
        )
        server.register(make_servable(), warm=False)
        return server

    def test_traced_request_records_full_span_chain(self):
        """One traced infer yields >= 6 named spans whose top-level
        self-times tile the measured end-to-end latency exactly (the
        contiguous-cursor contract, checked to float precision)."""
        with self._server() as server:
            for q in queries(6):
                server.infer("obs-model", q)
            server.drain()
            traces = server.traces()
        assert traces, "tracing enabled but nothing retained"
        for trace in traces:
            names = [span["name"] for span in trace["spans"]]
            top_level = [s for s in trace["spans"] if not s["name"].startswith("stage:")]
            assert len(top_level) >= 6, names
            for required in ("queue", "batch", "schedule", "dispatch", "execute", "settle"):
                assert required in names, names
            assert any(name.startswith("stage:") for name in names), names
            tiled_ms = sum(s["duration_ms"] for s in top_level)
            assert tiled_ms == pytest.approx(trace["duration_ms"], rel=1e-6)
            assert trace["error"] is None

    def test_sharded_traced_request_tiles_and_carries_stage_children(self):
        """The same oracle through a scatter over three workers: only the
        settling shard touches the marks, so the spans still tile the
        request and the ``stage:`` children are that shard's."""
        features = 24
        servable = HDClassification(dimension=DIM).as_servable(
            bipolar_random(DIM, features, seed=1), bipolar_random(CLASSES, DIM, seed=2)
        )
        server = InferenceServer(
            workers=("cpu",) * 3, max_batch_size=8, max_wait_seconds=0.001, tracing=True
        )
        server.register(servable, name="obs-sharded", shards=3, warm=False)
        rows = np.random.default_rng(3).standard_normal((6, features)).astype(np.float32)
        with server:
            for row in rows:
                server.infer("obs-sharded", row)
            server.drain()
            traces = server.traces()
        assert len(traces) == 6
        for trace in traces:
            names = [span["name"] for span in trace["spans"]]
            top_level = [s for s in trace["spans"] if not s["name"].startswith("stage:")]
            assert [s["name"] for s in top_level] == [
                "queue", "batch", "schedule", "dispatch", "execute", "settle"
            ], names
            assert any(name.startswith("stage:") for name in names), names
            tiled_ms = sum(s["duration_ms"] for s in top_level)
            assert tiled_ms == pytest.approx(trace["duration_ms"], rel=1e-6)
            assert trace["error"] is None

    def test_slo_violation_flags_the_trace_and_counts_per_model(self):
        server = InferenceServer(max_batch_size=8, max_wait_seconds=0.001, tracing=True)
        server.register(make_servable(), warm=False, slo_ms=1e-6)  # nothing is that fast
        with server:
            for q in queries(4):
                server.infer("obs-model", q)
            server.drain()
            traces = server.traces()
            stats = server.stats().to_dict()
        assert len(traces) == 4 and all(trace["slo_violated"] for trace in traces)
        assert stats["model_stats"]["obs-model"]["slo_violations"] == 4

    def test_stage_profile_surfaces_in_model_stats(self):
        with self._server() as server:
            for q in queries(8):
                server.infer("obs-model", q)
            server.drain()
            stats = server.stats().to_dict()
        profile = stats["model_stats"]["obs-model"]["stage_profile"]
        assert profile, "executor stage profile missing from model stats"
        for slot in profile.values():
            assert slot["executions"] >= 1
            assert slot["seconds"] > 0.0
            assert slot["vectorized"] + slot["fallbacks"] == slot["executions"]
            assert slot["bucket"] >= 1

    def test_accelerator_stages_trace_and_profile_like_host_stages(self):
        """A served hdc_asic deployment's device stages run under the same
        profiling hook as the host's: each trace has its ``stage:`` child,
        route ``device``, and the model stats have its ``stage_profile``
        slot, counted in neither ``vectorized`` nor ``fallbacks``."""
        features = 24
        servable = HDClassification(dimension=DIM).as_servable(
            bipolar_random(DIM, features, seed=1), bipolar_random(CLASSES, DIM, seed=2)
        )
        server = InferenceServer(
            workers=("hdc_asic",), max_batch_size=8, max_wait_seconds=0.001, tracing=True
        )
        server.register(servable, name="obs-asic", warm=False)
        rows = np.random.default_rng(3).standard_normal((4, features)).astype(np.float32)
        with server:
            for row in rows:
                server.infer("obs-asic", row)
            server.drain()
            traces = server.traces()
            stats = server.stats().to_dict()
        assert len(traces) == 4
        for trace in traces:
            children = [s for s in trace["spans"] if s["name"].startswith("stage:")]
            assert [s["meta"]["route"] for s in children] == ["device"], trace["spans"]
        profile = stats["model_stats"]["obs-asic"]["stage_profile"]
        assert profile and all(slot["stage"].startswith("hdc.inference_loop") for slot in profile.values())
        for slot in profile.values():
            assert slot["executions"] >= 1 and slot["seconds"] > 0.0
            assert slot["vectorized"] == slot["fallbacks"] == 0

    def test_model_stats_carry_histograms_and_derived_quantiles(self):
        with self._server() as server:
            for q in queries(10):
                server.infer("obs-model", q)
            server.drain()
            stats = server.stats().to_dict()
        model = stats["model_stats"]["obs-model"]
        for key in ("latency", "queue_wait", "execute"):
            hist = LatencyHistogram.from_dict(model["histograms"][key])
            assert hist.count == 10
        assert model["latency_p99_ms"] == pytest.approx(
            LatencyHistogram.from_dict(model["histograms"]["latency"]).percentile(99) * 1e3
        )
        assert stats["latency_histogram"]["count"] == 10

    def test_hot_swap_retry_reuses_the_same_trace(self):
        """Trace-context hygiene across the broker's retry-on-
        BatcherClosed path: the retried request keeps its original trace
        id and records an explicit ``retry`` span — a second trace for
        the same request would double-count it."""
        servable = make_servable(name="retry-model")
        registry = ModelRegistry()
        deployment = registry.register(servable, warm_batch_sizes=())
        broker = RequestBroker(
            registry,
            WorkerPool(("cpu",)),
            max_batch_size=8,
            max_wait_seconds=0.001,
            tracing=True,
        )
        broker.add_model(deployment)
        broker.start()
        try:
            victim = broker._batchers[servable.name]
            real_submit = victim.submit_many
            fired = []

            def closing_submit(samples, **kwargs):
                if not fired:
                    fired.append(True)
                    # Hot-swap lands between submit's batcher fetch and
                    # its enqueue, closing the fetched batcher.
                    broker.add_model(registry.register(servable, warm_batch_sizes=()))
                return real_submit(samples, **kwargs)

            victim.submit_many = closing_submit
            future = broker.submit(servable.name, queries(1)[0])
            broker.drain()
            assert fired and victim.closed
            assert 0 <= int(np.asarray(future.result(timeout=5.0))) < CLASSES

            retried = [t for t in broker.traces() if "retry" in [s["name"] for s in t["spans"]]]
            assert len(retried) == 1, "the retried request must surface exactly one trace"
            trace = retried[0]
            names = [span["name"] for span in trace["spans"]]
            # Same trace carries the whole post-retry lifecycle: the id
            # was minted once, before the retry.
            for required in ("retry", "queue", "execute", "settle"):
                assert required in names, names
            assert broker.tracer.stats()["started"] == 1
        finally:
            broker.stop()


# ---------------------------------------------------------------------------
# Socket transport: traces and the metrics exposition over the wire
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_stack():
    server = InferenceServer(max_batch_size=8, max_wait_seconds=0.001, tracing=True)
    server.register(make_servable(name="wire-model"), warm=False, slo_ms=10_000.0)
    server.start()
    transport = TransportServer(server, host="127.0.0.1", port=0)
    host, port = transport.start()
    with ServingClient(host, port) as client:
        for q in queries(8):
            client.infer("wire-model", q)
        yield server, client
    transport.stop()
    server.stop()


class TestTransportObservability:
    def test_traced_socket_request_spans_cover_e2e_latency(self, traced_stack):
        _, client = traced_stack
        traces = client.traces()
        assert traces
        trace = traces[-1]
        names = [span["name"] for span in trace["spans"]]
        top_level = [s for s in trace["spans"] if not s["name"].startswith("stage:")]
        assert len(top_level) >= 6, names
        assert "transport" in names, names
        tiled_ms = sum(s["duration_ms"] for s in top_level)
        # The acceptance bound: summed self-times within 10% of the
        # measured end-to-end latency (here exact by construction).
        assert tiled_ms == pytest.approx(trace["duration_ms"], rel=0.10)

    def test_chrome_trace_export_is_loadable_json(self, traced_stack):
        _, client = traced_stack
        document = json.loads(json.dumps(chrome_trace(client.traces())))
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert complete and metadata
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["name"] and "pid" in event and "tid" in event

    def test_metrics_op_renders_lintable_prometheus_text(self, traced_stack):
        _, client = traced_stack
        text = client.metrics_text()
        samples = parse_prometheus_text(text)
        by_name = {sample.name for sample in samples}
        assert "hdc_serving_requests_total" in by_name
        assert "hdc_serving_model_request_latency_seconds_bucket" in by_name
        assert "hdc_serving_stage_seconds_total" in by_name
        model_count = [
            s
            for s in samples
            if s.name == "hdc_serving_model_request_latency_seconds_count"
            and s.labels.get("model") == "wire-model"
        ]
        assert model_count and model_count[0].value >= 8

    def test_metrics_namespace_override(self, traced_stack):
        _, client = traced_stack
        text = client.metrics_text(namespace="custom_ns")
        assert "custom_ns_requests_total" in text
        assert "hdc_serving_requests_total" not in text


# ---------------------------------------------------------------------------
# Prometheus lint
# ---------------------------------------------------------------------------


class TestPrometheusLint:
    def test_render_then_parse_round_trip_on_live_stats(self):
        with InferenceServer(max_batch_size=4, max_wait_seconds=0.001) as server:
            server.register(make_servable(name="lint-model"), warm=False)
            for q in queries(4):
                server.infer("lint-model", q)
            server.drain()
            stats = server.stats().to_dict()
        samples = parse_prometheus_text(render_prometheus(stats))
        assert samples

    def test_sample_without_type_declaration_rejected(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_prometheus_text("orphan_metric 1\n")

    def test_non_cumulative_histogram_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="0.2"} 3\n'  # decreasing — not cumulative
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 0.4\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_prometheus_text(text)

    def test_inf_bucket_count_mismatch_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 0.4\n"
            "h_count 7\n"  # != +Inf bucket
        )
        with pytest.raises(ValueError, match="Inf"):
            parse_prometheus_text(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not { prometheus\n")


# ---------------------------------------------------------------------------
# scrape_stats: histogram-aware dotted threshold paths
# ---------------------------------------------------------------------------


HIST = "model_stats.isolet.histograms.latency"
OPERATORS = (">", ">=", "<", "<=", "==", "!=")


class TestScrapeStatsHistogramPaths:
    @pytest.fixture(scope="class")
    def record(self):
        rng = np.random.default_rng(31)
        hist = LatencyHistogram()
        _record(hist, rng.lognormal(-4.0, 0.7, 4000))
        return hist, {
            "model_stats": {
                "isolet": {
                    "latency_p99_ms": hist.percentile(99) * 1e3,
                    "histograms": {"latency": hist.to_dict()},
                }
            },
            # Every ordering comparison with NaN is false, so a gate that
            # compared these would pass a metric that is not a number.
            "odd": {"nan": float("nan"), "inf": float("inf"), "ninf": -float("inf")},
        }

    @pytest.mark.parametrize(
        "token, expected",
        [
            ("p99", lambda hist: hist.percentile(99)),
            ("p99_ms", lambda hist: hist.percentile(99) * 1e3),
            ("p99_9", lambda hist: hist.percentile(99.9)),
            ("p99_9_ms", lambda hist: hist.percentile(99.9) * 1e3),
            ("p50", lambda hist: hist.percentile(50)),
            ("count", lambda hist: 4000),
            ("mean_ms", lambda hist: hist.mean * 1e3),
            ("mean", lambda hist: hist.mean),
            ("sum", lambda hist: hist.sum),
            ("min", lambda hist: hist.min),
            ("max", lambda hist: hist.max),
            ("zero_count", lambda hist: 0),
            ("p0", lambda hist: hist.percentile(0)),
            ("p100", lambda hist: hist.percentile(100)),
        ],
    )
    def test_quantile_tokens_resolve_from_bucket_data(self, record, token, expected):
        hist, doc = record
        resolve = _load_tool("scrape_stats").resolve
        assert resolve(doc, f"{HIST}.{token}") == pytest.approx(expected(hist))
        # Plain (pre-derived) keys keep resolving directly.
        assert resolve(doc, "model_stats.isolet.latency_p99_ms") == pytest.approx(
            hist.percentile(99) * 1e3
        )

    def test_unknown_tokens_and_deep_paths_stay_missing(self, record):
        _, doc = record
        resolve = _load_tool("scrape_stats").resolve
        assert resolve(doc, f"{HIST}.nope") is None
        assert resolve(doc, f"{HIST}.p99.deeper") is None
        assert resolve(doc, f"{HIST}.p999") is None

    @pytest.mark.parametrize(
        "expression, code",
        [
            (f"{HIST}.p99_ms>{{half}}", 1),
            (f"{HIST}.p99_ms>{{double}}", 0),
            # Missing, NaN and +-inf metrics violate under every operator.
            *[
                (f"odd.{key}{op}25", 1)
                for key in ("nan", "inf", "ninf", "missing")
                for op in OPERATORS
            ],
            (f"{HIST}.p99_ms>>fast", 2),
        ],
    )
    def test_fail_on_expression_gates_on_histogram_quantile(
        self, record, tmp_path, expression, code
    ):
        hist, doc = record
        scrape_stats = _load_tool("scrape_stats")
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # as --check reads it: NaN round-trips
        p99_ms = hist.percentile(99) * 1e3
        expression = expression.format(half=f"{p99_ms / 2:.6f}", double=f"{p99_ms * 2:.6f}")
        assert scrape_stats.main(["--check", str(path), "--fail-on", expression]) == code


class TestScrapeStatsGrammar:
    """``--fail-on``'s grammar: a dotted path, one of six operators and a
    decimal limit, with nothing else on the line."""

    @pytest.mark.parametrize(
        "expression, path, op, limit",
        [
            ("fallback_stages>0", "fallback_stages", ">", 0.0),
            (" model_stats.m-1.slo_violations >= 5 ", "model_stats.m-1.slo_violations", ">=", 5.0),
            ("latency_p99_ms<2.5", "latency_p99_ms", "<", 2.5),
            ("a.b_c<=-1", "a.b_c", "<=", -1.0),
            ("requests==96", "requests", "==", 96.0),
            ("replicas!=2", "replicas", "!=", 2.0),
        ],
    )
    def test_threshold_reads_path_operator_and_limit(self, expression, path, op, limit):
        threshold = _load_tool("scrape_stats").Threshold(expression)
        assert (threshold.expression, threshold.path, threshold.op, threshold.limit) == (
            expression.strip(), path, op, limit,
        )

    @pytest.mark.parametrize(
        "expression",
        ["", "fallback_stages", ">0", "fallback_stages>", "fallback_stages>ten",
         "fallback_stages=0", "fallback_stages=>0", "fallback_stages>1e3", "a>1>2"],
    )
    def test_malformed_threshold_is_a_usage_error(self, tmp_path, expression):
        scrape_stats = _load_tool("scrape_stats")
        with pytest.raises(scrape_stats.GateError):
            scrape_stats.Threshold(expression)
        path = tmp_path / "stats.json"
        path.write_text("{}", encoding="utf-8")
        assert scrape_stats.main(["--check", str(path), "--fail-on", expression]) == 2
