"""The emit catalogue, held to what the system emits — in both directions.

``repro.serving.observability.catalogue`` is the one place a stats key, a
Prometheus family, a span name or an event is written.  These tests derive
their expectations *from the table*, so a row added without a feed (or a
value emitted without a row) fails here:

* a smoke server (one packed deployment, one sharded, one ``update``,
  traced requests in-process and over the socket, one hot-swap race) must
  emit exactly the keys, families and span names the table lists;
* every ``EVENTS`` row must be emitted, with exactly its fields, by the
  state change it names — and nothing else may be;
* a fixed synthetic history renders to pinned exposition text;
* ``reset()`` zeroes exactly the rows without ``keeps``, the atomic
  ``snapshot(reset=True)`` loses no request under concurrent writers, and
  the replica merge keeps each replica under its own stable index.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import logging
import pathlib
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps import HDClassificationInference
from repro.backends import CPUBackend
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import (
    CompiledProgramCache,
    InferenceServer,
    ServerStats,
    ServingMetrics,
    merge_server_stats,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serving.observability.catalogue import (
    EVENTS,
    FAMILIES,
    LABELS,
    METRICS,
    ROWS,
    SPANS,
    emit,
)
from repro.serving.replica import ReplicaGroup
from repro.serving.transport import ServingClient, TransportServer
from repro.serving.update_log import UpdateLog
from repro.transforms import ApproximationConfig

NAMESPACE = "hdc_serving"


def view_keys(scope: str) -> list:
    """The keys of one scope's view, in table order."""
    return list(dict.fromkeys(row.path[0] for row in ROWS[scope]))


def views_by_scope(stats: dict) -> dict:
    """``{scope: [view, ...]}`` over a stats document, walked by the table."""
    found: dict = {}

    def walk(scope: str, view: dict) -> None:
        found.setdefault(scope, []).append(view)
        for row in ROWS[scope]:
            nested = view.get(row.key) if row.kind in ROWS else None
            if nested:
                for child in [nested] if row.merge == "first" else nested.values():
                    walk(row.kind, child)

    walk("server", stats)
    return found


@pytest.fixture(scope="module")
def dataset():
    return make_isolet_like(
        IsoletConfig(n_features=32, n_classes=6, n_train=120, n_test=24, seed=5)
    )


@pytest.fixture(scope="module")
def servable(dataset):
    return HDClassificationInference(dimension=128, similarity="hamming").as_servable(
        dataset=dataset
    )


@pytest.fixture(scope="module")
def smoke(dataset, servable):
    """One smoke run through every scenario the span table names."""
    rows = dataset.test_features
    server = InferenceServer(
        workers=("cpu", "cpu"), max_batch_size=8, max_wait_seconds=0.001, tracing=True
    )
    server.register(servable, name="packed", config=ApproximationConfig(binarize=True), slo_ms=1e4)
    server.register(servable, name="sharded", shards=2)
    server.start()
    transport = TransportServer(server, host="127.0.0.1", port=0)
    try:
        server.infer_many("packed", rows[:8])
        server.infer_many("sharded", rows[:8])
        server.update("packed", dataset.train_features[:16], dataset.train_labels[:16])
        with ServingClient(*transport.start()) as client:  # a socket request
            client.infer("packed", rows[0])
        # A hot-swap race: the fetched batcher closes between submit's fetch
        # and its enqueue, so the request is re-enqueued.
        victim = server.broker._batchers["sharded"]
        real_submit, fired = victim.submit_many, []

        def closing_submit(samples, **kwargs):
            if not fired:
                fired.append(True)
                server.register(servable, name="sharded", shards=2)
            return real_submit(samples, **kwargs)

        victim.submit_many = closing_submit
        server.infer("sharded", rows[1])
        server.drain()
        stats = server.stats().to_dict()
        traces = server.traces()
    finally:
        transport.stop()
        server.stop()
    return SimpleNamespace(stats=stats, traces=traces, text=render_prometheus(stats))


# ---------------------------------------------------------------------------
# Metrics: keys and families, both ways
# ---------------------------------------------------------------------------


class TestMetricRows:
    def test_server_stats_fields_are_the_server_rows(self):
        fields = [field.name for field in dataclasses.fields(ServerStats)]
        assert fields == view_keys("server") == list(ServerStats().to_dict())
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServerStats().requests = 1

    def test_rows_are_well_formed(self):
        kinds = {"counter", "gauge", "histogram", "ledger", "info", "label", *ROWS}
        merges = {"sum", "max", "first", "last", "histogram", "ledger", "nested", "replica"}
        for row in METRICS:
            assert row.kind in kinds and row.merge in merges | {"derived"}, row
            assert row.help and row.scope in ROWS, row
            assert (row.kind == "histogram") == (row.merge == "histogram"), row
        families = [row.family for row in METRICS if row.family]
        assert len(families) == len(set(families)) == len(FAMILIES)
        for scope, rows in ROWS.items():
            keys = [row.key for row in rows]
            assert len(keys) == len(set(keys)), scope

    def test_every_view_carries_exactly_its_scope_rows(self, smoke):
        found = views_by_scope(smoke.stats)
        assert set(found) == set(ROWS), "the smoke run must reach every scope"
        for scope, views in found.items():
            for view in views:
                assert sorted(view) == sorted(view_keys(scope)), scope
                histograms = [row.key for row in ROWS[scope] if row.kind == "histogram"]
                if scope != "server" and histograms:
                    assert sorted(view["histograms"]) == sorted(histograms)

    def test_exposition_families_are_the_rows(self, smoke):
        parse_prometheus_text(smoke.text)  # structurally valid
        declared = dict(
            line.split()[2:4] for line in smoke.text.splitlines() if line.startswith("# TYPE ")
        )
        exposed = {name[len(NAMESPACE) + 1 :]: mtype for name, mtype in declared.items()}
        assert exposed == FAMILIES  # every family a row of its TYPE, every row exposed
        order = [row.family for row in METRICS if row.family]
        assert list(exposed) == order, "the exposition prints families in table order"

    def test_labels_come_from_the_table(self, smoke):
        samples = parse_prometheus_text(smoke.text)
        by_family = {}
        for sample in samples:
            by_family.setdefault(sample.name, sample.labels)
        stage = by_family[f"{NAMESPACE}_stage_seconds_total"]
        assert set(stage) == {"model", *LABELS["stage"]}
        phase = by_family[f"{NAMESPACE}_swap_phase_seconds_total"]
        assert set(phase) == {"model", *LABELS["swap_phase"]}
        assert set(by_family[f"{NAMESPACE}_worker_batches_total"]) == {"worker"}
        assert by_family[f"{NAMESPACE}_requests_total"] == {}

    def test_lint_checks_families_against_the_catalogue(self, smoke, tmp_path):
        path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "export_metrics.py"
        spec = importlib.util.spec_from_file_location("export_metrics", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.lint_text(smoke.text, "smoke") > 0
        scraped = tmp_path / "metrics.prom"  # the offline face of the same lint
        scraped.write_text(smoke.text, encoding="utf-8")
        assert tool.main(["--lint-file", str(scraped)]) == 0
        assert tool.lint_text(render_prometheus(smoke.stats, namespace="ns"), "renamed") > 0
        made_up = "# TYPE hdc_serving_made_up_total counter\nhdc_serving_made_up_total 1\n"
        unknown = smoke.text + made_up
        with pytest.raises(ValueError, match="made_up_total"):
            tool.lint_text(unknown, "unknown family")
        scraped.write_text(unknown, encoding="utf-8")
        assert tool.main(["--lint-file", str(scraped)]) == 1
        retyped = smoke.text.replace(
            "# TYPE hdc_serving_batches_total counter", "# TYPE hdc_serving_batches_total gauge"
        )
        with pytest.raises(ValueError, match="batches_total"):
            tool.lint_text(retyped, "wrong type")

    def test_the_swap_round_is_timed_and_its_phases_tile_it(self, smoke):
        model = smoke.stats["model_stats"]["packed"]
        round_ = model["histograms"]["swap_round"]
        assert round_["count"] == model["swaps"] == 1
        phases = model["swap_profile"]
        assert sum(slot["seconds"] for slot in phases.values()) == pytest.approx(round_["sum"])
        assert {slot["kind"] for slot in phases.values()} == {"update"}
        assert all(slot["rounds"] == 1 for slot in phases.values())

    def test_failures_and_sheds_are_kept_per_deployment(self):
        metrics = ServingMetrics()
        metrics.record_failure(2, "m")
        metrics.record_failure()  # no deployment to name: the server row only
        metrics.record_expired(3, model="m")
        stats = metrics.snapshot()
        assert (stats.failures, stats.deadline_exceeded) == (3, 3)
        assert stats.model_stats["m"]["failures"] == 2
        assert stats.model_stats["m"]["deadline_exceeded"] == 3


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpanRows:
    def test_request_spans_are_the_rows(self, smoke):
        emitted = {
            "stage:*" if span["name"].startswith("stage:") else span["name"]
            for trace in smoke.traces
            for span in trace["spans"]
        }
        rows = {name for name, (scenario, _) in SPANS.items() if scenario != "swap"}
        assert emitted == rows

    def test_swap_phases_are_the_rows_and_never_enter_the_trace_rings(self, smoke):
        phases = [name for name, (scenario, _) in SPANS.items() if scenario == "swap"]
        profile = smoke.stats["model_stats"]["packed"]["swap_profile"]
        assert [slot["phase"] for slot in profile.values()] == phases  # in round order
        traced = {span["name"] for trace in smoke.traces for span in trace["spans"]}
        assert not traced & (set(phases) - {"swap"}) and "derive" not in traced

    def test_scenarios_are_the_ones_the_smoke_drives(self):
        assert {scenario for scenario, _ in SPANS.values()} == {
            "request", "socket request", "hot-swap race", "swap",
        }


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


def _closure_program(batch: int) -> H.Program:
    prog = H.Program(f"closure_b{batch}")

    @prog.entry(H.hm(batch, 16))
    def main(queries):
        return H.parallel_map(lambda row: H.sign_flip(row), queries)

    return prog


class TestEventRows:
    def test_every_event_row_is_emitted_with_its_fields(self, caplog, tmp_path, dataset, servable):
        caplog.set_level(logging.DEBUG, logger="repro.serving")
        samples, labels = dataset.train_features[:12], dataset.train_labels[:12]
        log = UpdateLog(str(tmp_path / "group.updatelog"))
        options = dict(max_batch_size=4, max_wait_seconds=0.001, workers=("cpu",))
        with ReplicaGroup(replicas=2, update_log=log, **options) as group:
            group.register(servable)  # register, compile

            def explode(*args, **kwargs):
                raise RuntimeError("injected update failure")

            group.replicas[1].server.update = explode
            assert group.update(servable.name, samples, labels) == 2  # swap, replica_killed
            group.resync(1)  # replica_resynced
        cache = CompiledProgramCache()
        key = cache.make_key("sig-closure", "cpu", None, batch_size=2)
        cache.get_or_compile(key, CPUBackend(), lambda: _closure_program(2))
        assert cache.save(tmp_path / "cache.pkl") == 0 and cache.stats.skipped == 1  # cache_skip
        metrics = ServingMetrics()
        for reason in ["gate mismatch"] * 3 + ["shape"]:  # gate_fallback: once per new reason
            notes = {"stage_fallbacks": 1, "stage_fallback_reasons": {"encode": reason}}
            metrics.record_execution("m", notes, bucket=1)

        records = [r for r in caplog.records if r.name == "repro.serving"]
        seen = {}
        for record in records:
            level, fields, _ = EVENTS[record.event]  # an emitted event is a row...
            assert record.levelno == level <= logging.INFO
            assert set(record.fields) == set(fields), record.event  # ...with its fields
            seen.setdefault(record.event, []).append(record.fields)
        assert set(seen) == set(EVENTS)  # ...and every row is emitted
        assert [f["reason"] for f in seen["gate_fallback"]] == ["gate mismatch", "shape"]
        killed = seen["replica_killed"][0]
        assert killed["index"] == 1 and "injected update failure" in killed["error"]
        assert seen["replica_resynced"][0]["records"] == 1
        assert set(seen["swap"][0]["phases_ms"]) == {
            name for name, (scenario, _) in SPANS.items() if scenario == "swap"
        }
        assert seen["cache_skip"][0]["op"] == "save"

    def test_emit_refuses_what_is_not_a_row(self, caplog):
        with pytest.raises(KeyError):
            emit("not_an_event", model="m")
        caplog.set_level(logging.DEBUG, logger="repro.serving")
        with pytest.raises(ValueError, match="register"):
            emit("register", model="m")  # a row, but not its fields

    def test_an_unconfigured_process_prints_nothing(self, capsys):
        logger = logging.getLogger("repro.serving")
        assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)
        emit("register", model="m", version=1, shards=1)
        captured = capsys.readouterr()
        assert captured.out == captured.err == ""


# ---------------------------------------------------------------------------
# One fixed history: pinned exposition, reset, merge
# ---------------------------------------------------------------------------

RESIDENCY = {
    "packed": True,
    "params": {"class_hvs": {"resident_bytes": 64, "unpacked_bytes": 2048, "dim": 128}},
    "class_memory_bytes": 64,
    "class_memory_unpacked_bytes": 2048,
    "shrink_ratio": 32.0,
    "shards": 1,
}


class _Worker:
    name = "cpu-0"

    def stats(self):
        return {
            "target": "cpu", "batches": 3, "samples": 20, "busy_seconds": 0.125,
            "ewma_seconds_per_sample": 0.001, "elided_transfers": 2, "capacity_evictions": 1,
        }


class _Scheduler:
    def stats(self):
        return {"alpha": {"weight": 1.0, "served_batches": 3, "pending_batches": 0}}


def _cache():
    stats = SimpleNamespace(
        hits=6, misses=2, warm_hits=1, evictions=4, skipped=1, compile_seconds=0.25
    )
    return SimpleNamespace(stats=stats)


def fixed_history(metrics: ServingMetrics) -> ServingMetrics:
    """Every recorded row of the model and server scopes is touched once."""
    metrics.set_slo("alpha", 4.0)
    metrics.record_residency("alpha", RESIDENCY)
    metrics.record_swap("alpha", 2)
    metrics.record_requests("alpha", [(0.002, 0.001, 2), (0.008, 0.004, 1)], 0.001, version=2)
    metrics.record_requests("alpha", [(0.002, 0.001, 1)], 0.001, version=1)
    metrics.record_requests("beta", [(0.016, 0.004, 2)], 0.008)
    metrics.record_execution(
        "alpha",
        {
            "stage_vectorized": 3,
            "stage_fallbacks": 1,
            "stage_fallback_reasons": {"encode": "gate mismatch"},
            "stage_profile": [
                {"stage": "encode", "seconds": 0.25, "gate_seconds": 0.125, "route": "fallback"},
                {"stage": "search", "seconds": 0.5, "gate_seconds": 0.0, "route": "vectorized"},
            ],
        },
        bucket=4,
    )
    metrics.record_swap_round("alpha", "update", {"derive": 0.25, "warm": 0.5, "swap": 0.125})
    metrics.record_failure(2, "alpha")
    metrics.record_failure()
    metrics.record_expired(3, "alpha")
    return metrics


def fixed_snapshot() -> dict:
    stats = fixed_history(ServingMetrics()).snapshot(
        cache=_cache(), workers=[_Worker()], scheduler=_Scheduler()
    ).to_dict()
    stats.update(uptime_seconds=2.0, throughput_rps=3.0)  # the wall clock, pinned
    return stats


GOLDEN = """\
# HELP hdc_serving_requests_total Requests served
# TYPE hdc_serving_requests_total counter
hdc_serving_requests_total 6
# HELP hdc_serving_failures_total Requests that failed
# TYPE hdc_serving_failures_total counter
hdc_serving_failures_total 3
# HELP hdc_serving_deadline_exceeded_total Requests shed past their deadline
# TYPE hdc_serving_deadline_exceeded_total counter
hdc_serving_deadline_exceeded_total 3
# HELP hdc_serving_batches_total Micro-batches executed
# TYPE hdc_serving_batches_total counter
hdc_serving_batches_total 3
# HELP hdc_serving_swaps_total Hot-swaps installed
# TYPE hdc_serving_swaps_total counter
hdc_serving_swaps_total 1
# HELP hdc_serving_slo_violations_total Served requests that exceeded their SLO
# TYPE hdc_serving_slo_violations_total counter
hdc_serving_slo_violations_total 1
# HELP hdc_serving_vectorized_stages_total Stage executions on the batched route
# TYPE hdc_serving_vectorized_stages_total counter
hdc_serving_vectorized_stages_total 3
# HELP hdc_serving_fallback_stages_total Stage executions on the per-row fallback
# TYPE hdc_serving_fallback_stages_total counter
hdc_serving_fallback_stages_total 1
# HELP hdc_serving_cache_hits_total Compile-cache hits
# TYPE hdc_serving_cache_hits_total counter
hdc_serving_cache_hits_total 6
# HELP hdc_serving_cache_misses_total Compile-cache misses
# TYPE hdc_serving_cache_misses_total counter
hdc_serving_cache_misses_total 2
# HELP hdc_serving_cache_warm_hits_total Compile-cache hits off a loaded cache
# TYPE hdc_serving_cache_warm_hits_total counter
hdc_serving_cache_warm_hits_total 1
# HELP hdc_serving_cache_evictions_total Compile-cache evictions
# TYPE hdc_serving_cache_evictions_total counter
hdc_serving_cache_evictions_total 4
# HELP hdc_serving_cache_skipped_total Compile-cache entries a save / load skipped
# TYPE hdc_serving_cache_skipped_total counter
hdc_serving_cache_skipped_total 1
# HELP hdc_serving_cache_compile_seconds_total Seconds compile-cache misses spent tracing and compiling
# TYPE hdc_serving_cache_compile_seconds_total counter
hdc_serving_cache_compile_seconds_total 0.25
# HELP hdc_serving_elided_transfers_total Device transfers skipped by warm sessions
# TYPE hdc_serving_elided_transfers_total counter
hdc_serving_elided_transfers_total 2
# HELP hdc_serving_uptime_seconds Seconds since the metrics interval started
# TYPE hdc_serving_uptime_seconds gauge
hdc_serving_uptime_seconds 2
# HELP hdc_serving_throughput_rps Requests per second over the interval
# TYPE hdc_serving_throughput_rps gauge
hdc_serving_throughput_rps 3
# HELP hdc_serving_mean_batch_size Mean micro-batch size
# TYPE hdc_serving_mean_batch_size gauge
hdc_serving_mean_batch_size 2
# HELP hdc_serving_cache_hit_rate Compile-cache hit rate
# TYPE hdc_serving_cache_hit_rate gauge
hdc_serving_cache_hit_rate 0.75
# HELP hdc_serving_request_latency_seconds End-to-end request latency (enqueue to result)
# TYPE hdc_serving_request_latency_seconds histogram
hdc_serving_request_latency_seconds_bucket{le="0.00201895661"} 3
hdc_serving_request_latency_seconds_bucket{le="0.008196844542"} 4
hdc_serving_request_latency_seconds_bucket{le="0.01651606392"} 6
hdc_serving_request_latency_seconds_bucket{le="+Inf"} 6
hdc_serving_request_latency_seconds_sum 0.046
hdc_serving_request_latency_seconds_count 6
# HELP hdc_serving_model_requests_total Requests served per deployment version
# TYPE hdc_serving_model_requests_total counter
hdc_serving_model_requests_total{model="alpha",version="1"} 1
hdc_serving_model_requests_total{model="alpha",version="2"} 3
hdc_serving_model_requests_total{model="beta",version=""} 2
# HELP hdc_serving_model_failures_total Failed requests that named the deployment
# TYPE hdc_serving_model_failures_total counter
hdc_serving_model_failures_total{model="alpha"} 2
hdc_serving_model_failures_total{model="beta"} 0
# HELP hdc_serving_model_deadline_exceeded_total Sheds that named the deployment
# TYPE hdc_serving_model_deadline_exceeded_total counter
hdc_serving_model_deadline_exceeded_total{model="alpha"} 3
hdc_serving_model_deadline_exceeded_total{model="beta"} 0
# HELP hdc_serving_model_slo_violations_total SLO violations per deployment
# TYPE hdc_serving_model_slo_violations_total counter
hdc_serving_model_slo_violations_total{model="alpha"} 1
hdc_serving_model_slo_violations_total{model="beta"} 0
# HELP hdc_serving_model_vectorized_stages_total Batched-route stages per deployment
# TYPE hdc_serving_model_vectorized_stages_total counter
hdc_serving_model_vectorized_stages_total{model="alpha"} 3
hdc_serving_model_vectorized_stages_total{model="beta"} 0
# HELP hdc_serving_model_fallback_stages_total Per-row fallback stages per deployment
# TYPE hdc_serving_model_fallback_stages_total counter
hdc_serving_model_fallback_stages_total{model="alpha"} 1
hdc_serving_model_fallback_stages_total{model="beta"} 0
# HELP hdc_serving_model_request_latency_seconds Per-deployment end-to-end latency
# TYPE hdc_serving_model_request_latency_seconds histogram
hdc_serving_model_request_latency_seconds_bucket{model="alpha",le="0.00201895661"} 3
hdc_serving_model_request_latency_seconds_bucket{model="alpha",le="0.008196844542"} 4
hdc_serving_model_request_latency_seconds_bucket{model="alpha",le="+Inf"} 4
hdc_serving_model_request_latency_seconds_sum{model="alpha"} 0.014
hdc_serving_model_request_latency_seconds_count{model="alpha"} 4
hdc_serving_model_request_latency_seconds_bucket{model="beta",le="0.01651606392"} 2
hdc_serving_model_request_latency_seconds_bucket{model="beta",le="+Inf"} 2
hdc_serving_model_request_latency_seconds_sum{model="beta"} 0.032
hdc_serving_model_request_latency_seconds_count{model="beta"} 2
# HELP hdc_serving_model_queue_wait_seconds Per-deployment queue wait (enqueue to worker start)
# TYPE hdc_serving_model_queue_wait_seconds histogram
hdc_serving_model_queue_wait_seconds_bucket{model="alpha",le="0.001001998633"} 3
hdc_serving_model_queue_wait_seconds_bucket{model="alpha",le="0.004068055244"} 4
hdc_serving_model_queue_wait_seconds_bucket{model="alpha",le="+Inf"} 4
hdc_serving_model_queue_wait_seconds_sum{model="alpha"} 0.007
hdc_serving_model_queue_wait_seconds_count{model="alpha"} 4
hdc_serving_model_queue_wait_seconds_bucket{model="beta",le="0.004068055244"} 2
hdc_serving_model_queue_wait_seconds_bucket{model="beta",le="+Inf"} 2
hdc_serving_model_queue_wait_seconds_sum{model="beta"} 0.008
hdc_serving_model_queue_wait_seconds_count{model="beta"} 2
# HELP hdc_serving_model_execute_seconds Per-deployment execute time inside the worker
# TYPE hdc_serving_model_execute_seconds histogram
hdc_serving_model_execute_seconds_bucket{model="alpha",le="0.001001998633"} 4
hdc_serving_model_execute_seconds_bucket{model="alpha",le="+Inf"} 4
hdc_serving_model_execute_seconds_sum{model="alpha"} 0.004
hdc_serving_model_execute_seconds_count{model="alpha"} 4
hdc_serving_model_execute_seconds_bucket{model="beta",le="0.008196844542"} 2
hdc_serving_model_execute_seconds_bucket{model="beta",le="+Inf"} 2
hdc_serving_model_execute_seconds_sum{model="beta"} 0.016
hdc_serving_model_execute_seconds_count{model="beta"} 2
# HELP hdc_serving_model_swap_round_seconds Per-deployment swap-round duration
# TYPE hdc_serving_model_swap_round_seconds histogram
hdc_serving_model_swap_round_seconds_bucket{model="alpha",le="0.9047619048"} 1
hdc_serving_model_swap_round_seconds_bucket{model="alpha",le="+Inf"} 1
hdc_serving_model_swap_round_seconds_sum{model="alpha"} 0.875
hdc_serving_model_swap_round_seconds_count{model="alpha"} 1
hdc_serving_model_swap_round_seconds_bucket{model="beta",le="+Inf"} 0
hdc_serving_model_swap_round_seconds_sum{model="beta"} 0
hdc_serving_model_swap_round_seconds_count{model="beta"} 0
# HELP hdc_serving_model_class_memory_bytes Resident packed class-memory bytes per deployment
# TYPE hdc_serving_model_class_memory_bytes gauge
hdc_serving_model_class_memory_bytes{model="alpha"} 64
# HELP hdc_serving_model_class_memory_unpacked_bytes Unpacked (float source) class-memory bytes per deployment
# TYPE hdc_serving_model_class_memory_unpacked_bytes gauge
hdc_serving_model_class_memory_unpacked_bytes{model="alpha"} 2048
# HELP hdc_serving_model_class_memory_shrink_ratio Unpacked-to-packed class-memory size ratio per deployment
# TYPE hdc_serving_model_class_memory_shrink_ratio gauge
hdc_serving_model_class_memory_shrink_ratio{model="alpha"} 32
# HELP hdc_serving_stage_executions_total Stage executions per (model, stage, batch bucket)
# TYPE hdc_serving_stage_executions_total counter
hdc_serving_stage_executions_total{model="alpha",stage="encode",bucket="4"} 1
hdc_serving_stage_executions_total{model="alpha",stage="search",bucket="4"} 1
# HELP hdc_serving_stage_seconds_total Stage wall seconds per (model, stage, batch bucket)
# TYPE hdc_serving_stage_seconds_total counter
hdc_serving_stage_seconds_total{model="alpha",stage="encode",bucket="4"} 0.25
hdc_serving_stage_seconds_total{model="alpha",stage="search",bucket="4"} 0.5
# HELP hdc_serving_stage_gate_seconds_total Bit-identity gate-check seconds per (model, stage, batch bucket)
# TYPE hdc_serving_stage_gate_seconds_total counter
hdc_serving_stage_gate_seconds_total{model="alpha",stage="encode",bucket="4"} 0.125
hdc_serving_stage_gate_seconds_total{model="alpha",stage="search",bucket="4"} 0
# HELP hdc_serving_swap_phase_seconds_total Swap-round wall seconds per (model, kind, phase)
# TYPE hdc_serving_swap_phase_seconds_total counter
hdc_serving_swap_phase_seconds_total{model="alpha",kind="update",phase="derive"} 0.25
hdc_serving_swap_phase_seconds_total{model="alpha",kind="update",phase="warm"} 0.5
hdc_serving_swap_phase_seconds_total{model="alpha",kind="update",phase="swap"} 0.125
# HELP hdc_serving_worker_batches_total Batches executed per worker
# TYPE hdc_serving_worker_batches_total counter
hdc_serving_worker_batches_total{worker="cpu-0"} 3
# HELP hdc_serving_worker_samples_total Samples executed per worker
# TYPE hdc_serving_worker_samples_total counter
hdc_serving_worker_samples_total{worker="cpu-0"} 20
# HELP hdc_serving_worker_busy_seconds_total Busy seconds per worker
# TYPE hdc_serving_worker_busy_seconds_total counter
hdc_serving_worker_busy_seconds_total{worker="cpu-0"} 0.125
# HELP hdc_serving_worker_capacity_evictions_total Constants the session evicted for capacity
# TYPE hdc_serving_worker_capacity_evictions_total counter
hdc_serving_worker_capacity_evictions_total{worker="cpu-0"} 1
"""


class TestFixedHistory:
    def test_golden_exposition(self):
        """The parent's bytes for every family the parent had; the rows
        added since are pinned beside them."""
        text = render_prometheus(fixed_snapshot())
        parse_prometheus_text(text)
        assert text == GOLDEN

    def test_reset_zeroes_exactly_the_rows_without_keeps(self):
        metrics = fixed_history(ServingMetrics())
        before = metrics.snapshot().to_dict()["model_stats"]["alpha"]
        metrics.reset()
        after = metrics.snapshot().to_dict()
        blank = ServingMetrics()
        blank.set_slo("never-fed", None)
        zero = blank.snapshot().to_dict()
        zero_model = zero["model_stats"]["never-fed"]
        kept = [row for row in ROWS["model"] if row.keeps]
        assert {row.key for row in kept} == {"slo_ms", "version", "residency"}
        for row in ROWS["model"]:
            if row.merge == "derived":
                continue
            views = (before, after["model_stats"]["alpha"], zero_model)
            was, now, blank_value = (row.read(view) for view in views)
            # Not vacuous: the history moved every recorded row off zero.
            assert was != blank_value, f"fixed_history() never feeds {row.key!r}"
            assert now == (was if row.keeps else blank_value), row.key
        for view in (after, zero):
            view["model_stats"] = {}
            del view["uptime_seconds"]
        assert after == zero

    def test_snapshot_and_reset_loses_no_request_under_writers(self):
        metrics = ServingMetrics()
        per_writer, batch = 1500, [(0.001, 0.001, 1), (0.002, 0.002, 2)]
        intervals = []

        def writer(name):
            for _ in range(per_writer):
                metrics.record_requests(name, batch, 0.001, version=1)

        threads = [threading.Thread(target=writer, args=(f"m{i % 2}",)) for i in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                intervals.append(metrics.snapshot(reset=True))
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        intervals.append(metrics.snapshot(reset=True))
        total = 4 * per_writer * sum(rows for _, _, rows in batch)
        assert sum(stats.requests for stats in intervals) == total
        assert sum(stats.batches for stats in intervals) == 4 * per_writer
        assert sum(stats.latency_histogram["count"] for stats in intervals) == total
        for stats in intervals:  # each interval is internally consistent
            assert stats.requests == sum(m["requests"] for m in stats.model_stats.values())
        assert metrics.snapshot().requests == 0

    def test_merge_keeps_each_replica_under_its_own_index(self):
        """A dead replica in the *middle* of the positional list must not
        renumber the live ones after it (``r1`` is another machine)."""
        a, b = fixed_snapshot(), fixed_snapshot()
        merged = merge_server_stats([a, None, b])
        assert merged["replicas"] == 2
        assert sorted(merged["worker_stats"]) == ["r0/cpu-0", "r2/cpu-0"]
        assert sorted(merged["scheduler_stats"]) == ["r0", "r2"]
        workers = {
            sample.labels["worker"]
            for sample in parse_prometheus_text(render_prometheus(merged))
            if "worker" in sample.labels
        }
        assert workers == {"r0/cpu-0", "r2/cpu-0"}
        assert merged["requests"] == 2 * a["requests"]
        assert merged["model_stats"]["alpha"]["failures"] == 4
        assert merge_server_stats([None, a])["worker_stats"].keys() == {"r1/cpu-0"}
