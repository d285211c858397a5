"""Serving benchmark — dynamic batching vs one-shot single-request inference.

Not a paper figure: this benchmark quantifies the serving runtime added on
top of the reproduction (ROADMAP north star).  It measures, for the ISOLET
classification application on the CPU backend,

* **single-request throughput** — a warm batch-1 ``BoundProgram`` handle
  invoked once per sample (no re-tracing, no re-binding of constants: the
  strongest one-shot baseline the seed flow offers), versus
* **served throughput** — the same samples pushed through an
  :class:`~repro.serving.InferenceServer` that coalesces them into
  micro-batches and runs the batched host kernel path,

and asserts the dynamic-batching speedup the serving subsystem exists to
deliver (>= 3x).  A second benchmark exercises the registry round trip
(register -> warm cache -> re-register) and asserts the compile cache
actually hits.  A third pushes the same request stream through a
**sharded deployment** (class memory split across two workers, partial
scores reduced on the way back) and asserts the scatter/reduce path is
bit-identical to unsharded serving while reporting its throughput cost.
A fourth drives the **socket transport**: one blocking network client is
latency-bound (each request pays a batching wait plus a socket round
trip), while 8 concurrent clients coalesce into shared micro-batches on
the server — the benchmark asserts the >= 2x aggregate-throughput
scaling that the transport front end exists to deliver.

Two benchmarks cover the **batch-native execution plane**: the HyperOMS
workload served through the default batched worker must beat a per-row
worker by >= 3x (the encoder runs as one gather-and-bundle over the
pre-bound item memory instead of one Python iteration per spectrum), and
every stock app adapter must serve fully vectorized — zero per-row
fallbacks in the per-deployment ``ServerStats`` counters, which is what
CI's perf-smoke step fails on.

Two cases cover the **observability plane**: a steady-load comparison
asserting that per-request tracing costs < 5% of untraced throughput
(min-of-repeats on both sides), and an export case that scrapes a live
transport's Prometheus exposition (linted by the in-tree parser, written
to ``BENCH_metrics.prom``) and dumps retained request traces as Chrome
trace-event JSON (``BENCH_trace.json``) — both uploaded as CI artifacts
next to ``BENCH_serving.json``.

A **serve-while-retraining** benchmark drives sustained load across
three online re-training hot-swaps (``InferenceServer.update``): zero
dropped or errored requests end to end, and the post-swap predictions
bit-identical to an offline retrain applying the same update rule to the
same mini-batches.  Its ``failures`` / ``swaps`` fields feed the CI
threshold gate (``tools/scrape_stats.py --check``).  A **streaming
growth** benchmark is its shape-changing counterpart: sustained load
across three ``InferenceServer.append`` hot-swaps that grow the served
hash table's row count, zero drops, and post-growth predictions
bit-identical to an offline rebuild of the full grown index — gated the
same way.

Two cases cover the **uint64 packed-bit serving plane**: a kernel-level
micro-benchmark at serving micro-batch shapes asserting the packed
Hamming route (including the per-batch query pack) beats the bipolar
float path by >= 1.5x with bit-identical top-1 results, and a
packed-storage case asserting a binarized deployment's resident class
memory shrinks >= 25x (``ServerStats`` residency) while serving
predictions bit-identical to the binarized-but-unpacked route with zero
per-row fallbacks.  Both record their ratios in ``BENCH_serving.json``
so the CI threshold gate can replay them offline.

Every case also lands in ``BENCH_serving.json`` (see the ``bench_json``
fixture) so the throughput trajectory is tracked across PRs.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.accelerators.digital_asic import DigitalASICParameters
from repro.apps import HDClassificationInference, HyperOMS
from repro.apps.classification import classification_servable
from repro.apps.common import bipolar_random
from repro.backends import compile as hdc_compile
from repro.backends.asic import DigitalASICBackend
from repro.backends.cpu import CPUBackend
from repro.bench.loadgen import bench_seed, derive_rng
from repro.datasets import make_isolet_like
from repro.serving import InferenceServer, ModelRegistry, merge_server_stats
from repro.serving.replica import ClientPool, ReplicaGroup
from repro.serving.replica.routing import route
from repro.serving.scheduler import Worker
from repro.serving.transport import ServingClient, TransportServer

#: Number of single-sample requests pushed through both flows.
N_REQUESTS = 512

#: Socket requests per concurrency level of the transport benchmark.
N_SOCKET_REQUESTS = 192

#: Requests pushed through the batched-vs-per-row encoder comparison.
N_ENCODER_REQUESTS = 256


@pytest.fixture(scope="module")
def isolet(scale):
    return make_isolet_like(scale.isolet())


@pytest.fixture(scope="module")
def servable(scale, isolet):
    app = HDClassificationInference(dimension=scale.classification_dim, similarity="hamming")
    return app.as_servable(dataset=isolet)


@pytest.fixture(scope="module")
def requests(isolet):
    test = isolet.test_features
    reps = -(-N_REQUESTS // test.shape[0])  # ceil
    return np.tile(test, (reps, 1))[:N_REQUESTS]


def test_dynamic_batching_speedup(benchmark, bench_json, servable, requests):
    """Served throughput must be >= 3x the single-request baseline."""
    # Warm single-request baseline: compiled once, constants bound once.
    baseline_handle = hdc_compile(servable.build_program(1), target="cpu").bind(
        **servable.constants
    )
    query = servable.query_param

    start = time.perf_counter()
    baseline_labels = [
        int(np.asarray(baseline_handle.run(**{query: requests[i : i + 1]}).output)[0])
        for i in range(requests.shape[0])
    ]
    baseline_seconds = time.perf_counter() - start

    server = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
    server.register(servable)

    def serve_all():
        with server:
            return server.infer_many(servable.name, list(requests))

    start = time.perf_counter()
    results = benchmark.pedantic(serve_all, rounds=1, iterations=1)
    served_seconds = time.perf_counter() - start

    served_labels = [int(np.asarray(r)) for r in results]
    assert served_labels == baseline_labels

    stats = server.stats()
    speedup = baseline_seconds / served_seconds
    benchmark.extra_info["baseline_rps"] = requests.shape[0] / baseline_seconds
    benchmark.extra_info["served_rps"] = requests.shape[0] / served_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["mean_batch_size"] = stats.mean_batch_size
    benchmark.extra_info["latency_p99_ms"] = stats.latency_p99_ms
    print(
        f"\nserving: {requests.shape[0]} requests, "
        f"baseline {baseline_seconds * 1e3:.1f}ms, served {served_seconds * 1e3:.1f}ms, "
        f"speedup {speedup:.1f}x, mean batch {stats.mean_batch_size:.1f}, "
        f"p99 {stats.latency_p99_ms:.2f}ms"
    )
    bench_json.record(
        "dynamic_batching",
        requests=requests.shape[0],
        baseline_rps=requests.shape[0] / baseline_seconds,
        served_rps=requests.shape[0] / served_seconds,
        speedup=speedup,
        mean_batch_size=stats.mean_batch_size,
        latency_p99_ms=stats.latency_p99_ms,
    )
    assert stats.mean_batch_size > 1.0
    assert speedup >= 3.0


def test_sharded_deployment_throughput(benchmark, bench_json, servable, requests):
    """Sharded serving (N=2) must match unsharded predictions bit-for-bit;
    report the scatter/reduce throughput next to the unsharded path."""
    unsharded = InferenceServer(
        workers=("cpu", "cpu"), max_batch_size=64, max_wait_seconds=0.002
    )
    unsharded.register(servable)
    start = time.perf_counter()
    with unsharded:
        expected = unsharded.infer_many(servable.name, list(requests))
    unsharded_seconds = time.perf_counter() - start
    expected_labels = [int(np.asarray(r)) for r in expected]

    sharded = InferenceServer(workers=("cpu", "cpu"), max_batch_size=64, max_wait_seconds=0.002)
    sharded.register(servable, name="sharded", shards=2)

    def serve_sharded():
        with sharded:
            return sharded.infer_many("sharded", list(requests))

    start = time.perf_counter()
    results = benchmark.pedantic(serve_sharded, rounds=1, iterations=1)
    sharded_seconds = time.perf_counter() - start

    sharded_labels = [int(np.asarray(r)) for r in results]
    assert sharded_labels == expected_labels  # bit-identical scatter/reduce

    unsharded_rps = requests.shape[0] / unsharded_seconds
    sharded_rps = requests.shape[0] / sharded_seconds
    benchmark.extra_info["unsharded_rps"] = unsharded_rps
    benchmark.extra_info["sharded_rps"] = sharded_rps
    benchmark.extra_info["relative_throughput"] = sharded_rps / unsharded_rps
    print(
        f"\nsharded serving: {requests.shape[0]} requests, "
        f"unsharded {unsharded_rps:.0f} req/s, sharded(2) {sharded_rps:.0f} req/s "
        f"({sharded_rps / unsharded_rps:.2f}x relative)"
    )
    stats = sharded.stats()
    bench_json.record(
        "sharded_deployment",
        requests=requests.shape[0],
        unsharded_rps=unsharded_rps,
        sharded_rps=sharded_rps,
        relative_throughput=sharded_rps / unsharded_rps,
    )
    assert stats.failures == 0
    # Scatter pays one extra encode per shard, so allow slack — but the
    # sharded path must stay within the same order of magnitude.
    assert sharded_rps >= 0.2 * unsharded_rps


def test_socket_clients_scale_aggregate_throughput(benchmark, bench_json, servable, requests):
    """8 concurrent socket clients must deliver >= 2x the aggregate
    throughput of 1 client on CPU ISOLET classification.

    A single blocking client serializes (submit, batching wait, execute,
    socket round trip) per request; concurrent clients keep the
    micro-batcher fed, so the batched kernel path amortizes across
    connections.  That cross-client coalescing is the point of fronting
    the shared RequestBroker with a network transport.
    """
    server = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
    server.register(servable)
    server.start()
    transport = TransportServer(server)
    host, port = transport.start()
    samples = requests[:N_SOCKET_REQUESTS]

    def run_clients(n_clients: int) -> float:
        """Aggregate seconds for the whole request set split evenly."""
        chunks = np.array_split(np.arange(samples.shape[0]), n_clients)
        errors = []

        def client_loop(indices) -> None:
            try:
                with ServingClient(host, port, timeout=60.0) as client:
                    for i in indices:
                        client.infer(servable.name, samples[i])
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in chunks]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors
        return elapsed

    try:
        run_clients(1)  # warm every bucket/handle before timing
        single_seconds = run_clients(1)

        def timed_concurrent():
            return run_clients(8)

        concurrent_seconds = benchmark.pedantic(timed_concurrent, rounds=1, iterations=1)
        server.drain()
        stats = server.stats()
    finally:
        transport.stop()
        server.stop()

    single_rps = samples.shape[0] / single_seconds
    concurrent_rps = samples.shape[0] / concurrent_seconds
    scaling = concurrent_rps / single_rps
    benchmark.extra_info["single_client_rps"] = single_rps
    benchmark.extra_info["eight_client_rps"] = concurrent_rps
    benchmark.extra_info["scaling"] = scaling
    benchmark.extra_info["mean_batch_size"] = stats.mean_batch_size
    print(
        f"\nsocket transport: {samples.shape[0]} requests, "
        f"1 client {single_rps:.0f} req/s, 8 clients {concurrent_rps:.0f} req/s "
        f"({scaling:.1f}x), mean batch {stats.mean_batch_size:.1f}"
    )
    bench_json.record(
        "socket_transport",
        requests=samples.shape[0],
        single_client_rps=single_rps,
        eight_client_rps=concurrent_rps,
        scaling=scaling,
        mean_batch_size=stats.mean_batch_size,
    )
    assert stats.failures == 0
    assert scaling >= 2.0


def test_serve_while_retraining(benchmark, bench_json, servable, requests, isolet):
    """Zero-downtime online re-training: sustained load across >= 3
    hot-swaps with zero dropped/errored requests, and post-swap
    predictions bit-identical to an offline retrain on the same data.

    Loader threads keep submitting while ``server.update`` retrains the
    class memories on three disjoint slices of the training set and
    hot-swaps each re-trained deployment in.  Every submitted future must
    resolve to a valid label — a request that errored (e.g. handed to a
    just-closed batcher by the pre-fix race) or was silently dropped
    fails the case, as does any ``ServerStats`` failure count.
    """
    n_swaps = 3
    server = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
    server.register(servable)
    rounds = [
        (isolet.train_features[i::n_swaps], isolet.train_labels[i::n_swaps])
        for i in range(n_swaps)
    ]
    stop = threading.Event()
    futures, errors = [], []
    futures_lock = threading.Lock()

    def loader(seed: int) -> None:
        i = seed
        while not stop.is_set():
            try:
                future = server.submit(servable.name, requests[i % requests.shape[0]])
                with futures_lock:
                    futures.append(future)
            except Exception as exc:
                errors.append(exc)
            i += 1
            time.sleep(0.0005)

    def run_case():
        threads = [threading.Thread(target=loader, args=(t,)) for t in range(4)]
        with server:
            for thread in threads:
                thread.start()
            versions = []
            for samples, labels in rounds:
                versions.append(server.update(servable.name, samples, labels))
                time.sleep(0.02)  # keep serving between swaps
            stop.set()
            for thread in threads:
                thread.join()
            server.drain()
            post_swap = server.infer_many(servable.name, list(isolet.test_features))
            server.drain()
            return versions, post_swap, server.stats()

    start = time.perf_counter()
    versions, post_swap, stats = benchmark.pedantic(run_case, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    assert not errors, errors  # zero requests errored at submit time
    labels = [int(np.asarray(f.result(timeout=10.0))) for f in futures]  # zero dropped
    assert stats.failures == 0 and stats.deadline_exceeded == 0
    assert versions == [2, 3, 4] and stats.swaps == n_swaps
    model = stats.model_stats[servable.name]
    assert sum(model["requests_by_version"].values()) == model["requests"]

    # Bit identity vs an offline retrain applying the same rule to the
    # same mini-batches: identical constants, identical predictions.
    offline = servable
    for samples, labels_round in rounds:
        offline = offline.updated(samples, labels_round)
    live = server.registry.get(servable.name).servable
    assert np.array_equal(offline.constants["class_hvs"], live.constants["class_hvs"])
    handle = hdc_compile(
        offline.build_program(isolet.test_features.shape[0]), target="cpu"
    ).bind(**offline.constants)
    expected = [int(v) for v in np.asarray(handle.run(**{offline.query_param: isolet.test_features}).output)]
    assert [int(np.asarray(r)) for r in post_swap] == expected

    served_rps = len(labels) / elapsed if elapsed > 0 else 0.0
    benchmark.extra_info["requests_during_swaps"] = len(labels)
    benchmark.extra_info["swaps"] = stats.swaps
    benchmark.extra_info["served_rps"] = served_rps
    print(
        f"\nserve-while-retraining: {len(labels)} requests across {stats.swaps} hot-swaps "
        f"({served_rps:.0f} req/s), failures {stats.failures}, "
        f"versions {model['requests_by_version']}, bit-identical post-swap"
    )
    bench_json.record(
        "serve_while_retraining",
        requests=len(labels),
        swaps=stats.swaps,
        failures=stats.failures,
        deadline_exceeded=stats.deadline_exceeded,
        served_rps=served_rps,
        requests_by_version=model["requests_by_version"],
        bit_identical=True,
    )
    assert len(labels) > 0
    assert all(0 <= label < isolet.n_classes for label in labels)


def test_streaming_growth(benchmark, bench_json):
    """Zero-downtime shape-changing growth: sustained load across >= 3
    append hot-swaps with zero dropped/errored requests, and post-growth
    predictions bit-identical to an offline rebuild of the grown index.

    The shape-changing counterpart of ``test_serve_while_retraining``:
    instead of re-training weights at a fixed shape, each round appends
    new reference buckets to the served hash table's ``table`` constant
    (``InferenceServer.append``), re-traces the programs for the grown
    row count and hot-swaps — loader threads submitting the whole time.
    Every future must resolve; the grown servable's content-hashed
    signature and its predictions must equal an offline rebuild from the
    full sequence set.
    """
    from repro.apps import HDHashtable
    from repro.datasets.genomics import GenomicsConfig, base_indices, make_genomics_dataset

    n_appends, rows_per_append, kmer_length = 3, 2, 8
    dataset = make_genomics_dataset(
        GenomicsConfig(
            genome_length=2000, bucket_size=200, read_length=60, n_reads=24,
            n_decoys=0, kmer_length=kmer_length,
        )
    )
    app = HDHashtable(dimension=256)
    base_hvs = app.make_base_hypervectors()
    table = app.encode_reference_buckets(dataset, base_hvs)

    def make_servable(bucket_table):
        return app.as_servable(
            bucket_table,
            dataset.config.read_length,
            kmer_length,
            base_hvs=base_hvs,
            name="growing-table",
            append_length=dataset.config.bucket_size,
        )

    servable = make_servable(table)
    queries = np.stack([base_indices(read) for read in dataset.reads])
    rng = derive_rng(bench_seed(), "bench_serving.streaming_growth")
    rounds = [
        rng.integers(0, 4, (rows_per_append, dataset.config.bucket_size), dtype=np.int64)
        for _ in range(n_appends)
    ]

    server = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
    server.register(servable)
    stop = threading.Event()
    futures, errors = [], []
    futures_lock = threading.Lock()

    def loader(seed: int) -> None:
        i = seed
        while not stop.is_set():
            try:
                future = server.submit(servable.name, queries[i % queries.shape[0]])
                with futures_lock:
                    futures.append(future)
            except Exception as exc:
                errors.append(exc)
            i += 1
            time.sleep(0.0005)

    def run_case():
        threads = [threading.Thread(target=loader, args=(t,)) for t in range(4)]
        with server:
            for thread in threads:
                thread.start()
            versions = []
            for rows in rounds:
                versions.append(server.append(servable.name, rows))
                time.sleep(0.02)  # keep serving between shape changes
            stop.set()
            for thread in threads:
                thread.join()
            server.drain()
            post_growth = server.infer_many(servable.name, list(queries))
            server.drain()
            return versions, post_growth, server.stats()

    start = time.perf_counter()
    versions, post_growth, stats = benchmark.pedantic(run_case, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    assert not errors, errors  # zero requests errored at submit time
    labels = [int(np.asarray(f.result(timeout=10.0))) for f in futures]  # zero dropped
    assert stats.failures == 0 and stats.deadline_exceeded == 0
    assert versions == [2, 3, 4] and stats.swaps == n_appends

    # Bit identity vs an offline rebuild of the full grown table: same
    # content-hashed signature, identical predictions.
    encode_read = app._make_read_encoder(base_hvs, kmer_length)
    extra = np.stack(
        [np.sign(encode_read(row)) for row in np.vstack(rounds)]
    ).astype(np.float32)
    offline = make_servable(np.vstack([table, extra]))
    live = server.registry.get(servable.name).servable
    assert live.signature == offline.signature
    handle = hdc_compile(
        offline.build_program(queries.shape[0]), target="cpu"
    ).bind(**offline.constants)
    expected = [int(v) for v in np.asarray(handle.run(**{offline.query_param: queries}).output)]
    assert [int(np.asarray(r)) for r in post_growth] == expected

    served_rps = len(labels) / elapsed if elapsed > 0 else 0.0
    appended = n_appends * rows_per_append
    append_rows_per_s = appended / elapsed if elapsed > 0 else 0.0
    benchmark.extra_info["requests_during_growth"] = len(labels)
    benchmark.extra_info["swaps"] = stats.swaps
    benchmark.extra_info["served_rps"] = served_rps
    benchmark.extra_info["append_rows_per_s"] = append_rows_per_s
    print(
        f"\nstreaming growth: {len(labels)} requests across {stats.swaps} append "
        f"hot-swaps ({served_rps:.0f} req/s), table {table.shape[0]} -> "
        f"{table.shape[0] + appended} rows, failures {stats.failures}, "
        f"bit-identical post-growth"
    )
    bench_json.record(
        "streaming_growth",
        requests=len(labels),
        swaps=stats.swaps,
        failures=stats.failures,
        deadline_exceeded=stats.deadline_exceeded,
        served_rps=served_rps,
        appended_rows=appended,
        append_rows_per_s=append_rows_per_s,
        bit_identical=True,
    )
    assert len(labels) > 0
    assert all(0 <= label < table.shape[0] + appended for label in labels)


def test_tracing_overhead_under_steady_load(benchmark, bench_json, servable, requests):
    """Per-request tracing must cost < 5% of untraced steady-state
    throughput.

    Both servers serve the identical request stream; the traced one runs
    the worst-case configuration (``trace_sample_every=1`` — every
    healthy trace retained, every span recorded).  Passes are
    *interleaved* (untraced, traced, untraced, traced, ...) and each side
    keeps its minimum, so a machine-wide slowdown mid-run biases both
    configurations equally instead of penalizing whichever ran second.
    Two noise sources need explicit countermeasures beyond that:

    * passes must be long enough (~100ms — the stream serves the request
      set several times over) for scheduler jitter not to swamp a
      single-digit-microsecond per-request delta, and
    * a server *instance* can be persistently ~10% slow from unlucky
      thread placement, so each measurement attempt builds fresh server
      pairs, and a below-threshold attempt is re-measured (bounded
      retries) rather than trusted — a genuine >5% regression fails
      every attempt, while a one-off noisy attempt does not fail CI.
    """
    stream = list(requests) * 6
    pairs_per_attempt = 2
    passes_per_pair = 3
    max_attempts = 4

    def make_server(tracing: bool) -> InferenceServer:
        server = InferenceServer(
            workers=("cpu",),
            max_batch_size=64,
            max_wait_seconds=0.002,
            tracing=tracing,
            trace_sample_every=1,
        )
        server.register(servable)
        server.start()
        server.infer_many(servable.name, list(requests[:64]))  # warm every bucket
        return server

    def one_pass(server: InferenceServer) -> float:
        start = time.perf_counter()
        server.infer_many(servable.name, stream)
        return time.perf_counter() - start

    def measure_attempt() -> "tuple[float, float]":
        best_untraced = best_traced = float("inf")
        for _ in range(pairs_per_attempt):
            untraced_server = make_server(tracing=False)
            traced_server = make_server(tracing=True)
            try:
                for _ in range(passes_per_pair):
                    best_untraced = min(best_untraced, one_pass(untraced_server))
                    best_traced = min(best_traced, one_pass(traced_server))
            finally:
                untraced_server.stop()
                traced_server.stop()
        return best_untraced, best_traced

    untraced_seconds = traced_seconds = float("inf")
    for attempt in range(max_attempts):
        attempt_untraced, attempt_traced = measure_attempt()
        untraced_seconds = min(untraced_seconds, attempt_untraced)
        traced_seconds = min(traced_seconds, attempt_traced)
        if traced_seconds <= untraced_seconds / 0.95:
            break
        print(f"\ntracing overhead attempt {attempt + 1} noisy, re-measuring")

    # The recorded benchmark sample is one traced pass on a fresh server.
    bench_server = make_server(tracing=True)
    try:
        benchmark.pedantic(lambda: one_pass(bench_server), rounds=1, iterations=1)
    finally:
        bench_server.stop()

    untraced_rps = len(stream) / untraced_seconds
    traced_rps = len(stream) / traced_seconds
    relative = traced_rps / untraced_rps
    benchmark.extra_info["untraced_rps"] = untraced_rps
    benchmark.extra_info["traced_rps"] = traced_rps
    benchmark.extra_info["relative_throughput"] = relative
    print(
        f"\ntracing overhead: {len(stream)} requests, "
        f"untraced {untraced_rps:.0f} req/s, traced {traced_rps:.0f} req/s "
        f"({relative:.3f}x relative)"
    )
    bench_json.record(
        "tracing_overhead",
        requests=len(stream),
        untraced_rps=untraced_rps,
        traced_rps=traced_rps,
        relative_throughput=relative,
    )
    assert relative >= 0.95


def test_observability_export_artifacts(bench_json, servable, requests):
    """Scrape a live transport's observability surface into CI artifacts:
    the Prometheus exposition (validated by the in-tree lint) and the
    retained traces as loadable Chrome trace-event JSON."""
    import json as json_module

    from repro.serving import chrome_trace, parse_prometheus_text

    server = InferenceServer(
        workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002, tracing=True
    )
    server.register(servable)
    server.start()
    transport = TransportServer(server)
    host, port = transport.start()
    try:
        with ServingClient(host, port, timeout=60.0) as client:
            for sample in requests[:64]:
                client.infer(servable.name, sample)
            text = client.metrics_text()
            traces = client.traces()
        stats = server.stats().to_dict()
    finally:
        transport.stop()
        server.stop()

    samples = parse_prometheus_text(text)  # raises on malformed exposition
    assert samples

    out_dir = bench_json.path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    prom_path = out_dir / "BENCH_metrics.prom"
    prom_path.write_text(text, encoding="utf-8")

    assert traces, "tracing enabled but no traces retained"
    document = chrome_trace(traces)
    trace_path = out_dir / "BENCH_trace.json"
    trace_path.write_text(json_module.dumps(document, indent=2) + "\n", encoding="utf-8")
    reloaded = json_module.loads(trace_path.read_text(encoding="utf-8"))
    assert reloaded["traceEvents"]

    names = {span["name"] for trace in traces for span in trace["spans"]}
    print(
        f"\nobservability export: {len(samples)} prometheus samples -> {prom_path.name}, "
        f"{len(traces)} traces / {len(document['traceEvents'])} events -> {trace_path.name}"
    )
    bench_json.record(
        "observability_export",
        prometheus_samples=len(samples),
        traces=len(traces),
        trace_events=len(document["traceEvents"]),
        span_names=sorted(names),
        # The serialized histogram lets the CI threshold gate resolve
        # quantile paths (…latency_histogram.p99_9_ms) offline.
        latency_histogram=stats["model_stats"][servable.name]["histograms"]["latency"],
    )


def test_registry_round_trip_hits_compile_cache(benchmark, bench_json, servable):
    """register -> warm -> re-register must hit the compiled-program cache."""
    registry = ModelRegistry()

    def round_trip():
        registry.register(servable, warm_batch_sizes=(1, 64))
        registry.get(servable.name).warm([1, 64])
        registry.register(servable, warm_batch_sizes=(1, 64))  # re-register
        return registry

    benchmark.pedantic(round_trip, rounds=1, iterations=1)
    stats = registry.cache.stats
    benchmark.extra_info["cache_hits"] = stats.hits
    benchmark.extra_info["cache_misses"] = stats.misses
    print(f"\ncompile cache: {stats.hits} hits / {stats.misses} misses")
    bench_json.record(
        "registry_compile_cache", cache_hits=stats.hits, cache_misses=stats.misses
    )
    assert stats.misses == 2  # one compile per warmed bucket
    assert stats.hits >= 1


# ---------------------------------------------------------------------------
# uint64 packed-bit serving plane
# ---------------------------------------------------------------------------

#: Serving micro-batch shape for the packed-kernel comparison.  The
#: hypervector dimension matches ``bench_primitives`` (paper-scale class
#: memories); toy dims (<~1k) are NumPy-dispatch-bound on both sides and
#: measure overhead, not the kernels.
PACKED_BENCH_DIM = 8192
PACKED_BENCH_CLASSES = 26
PACKED_BENCH_BATCH = 64


def test_packed_hamming_kernel_speedup(benchmark, bench_json):
    """The packed Hamming route must beat the bipolar float path >= 1.5x
    at serving micro-batch shapes, with bit-identical top-1 classes.

    Models exactly what a packed-storage deployment does per micro-batch:
    the class memory is already resident packed (packed once at
    register/swap), so the packed side pays pack(queries) + XOR/popcount
    while the bipolar side runs the batched float kernel on the same
    operands.  Passes are interleaved and each side keeps its minimum, so
    machine-wide noise biases both equally (same discipline as the
    tracing-overhead case).
    """
    from repro.kernels import batched, binary as binkern

    rng = derive_rng(bench_seed(), "bench_serving.packed_kernel")
    queries = np.sign(rng.standard_normal((PACKED_BENCH_BATCH, PACKED_BENCH_DIM))).astype(
        np.float32
    )
    classes = np.sign(rng.standard_normal((PACKED_BENCH_CLASSES, PACKED_BENCH_DIM))).astype(
        np.float32
    )
    packed_classes = binkern.pack_bipolar(classes)

    def bipolar_pass():
        return np.asarray(batched.pairwise_hamming(queries, classes))

    def packed_pass():
        # The per-batch query pack is part of the served cost; the class
        # memory is not — it is packed once per deployment install.
        return np.asarray(
            binkern.hamming_distance_packed(binkern.pack_bipolar(queries), packed_classes)
        )

    bipolar_out, packed_out = bipolar_pass(), packed_pass()
    assert np.array_equal(bipolar_out, packed_out)  # exact integer counts
    assert np.array_equal(np.argmin(bipolar_out, axis=1), np.argmin(packed_out, axis=1))

    repeats, passes = 5, 20
    best_bipolar = best_packed = float("inf")
    for _ in range(repeats):
        for _ in range(passes):
            start = time.perf_counter()
            bipolar_pass()
            best_bipolar = min(best_bipolar, time.perf_counter() - start)
            start = time.perf_counter()
            packed_pass()
            best_packed = min(best_packed, time.perf_counter() - start)

    benchmark.pedantic(packed_pass, rounds=1, iterations=1)

    ratio = best_bipolar / best_packed
    benchmark.extra_info["bipolar_us"] = best_bipolar * 1e6
    benchmark.extra_info["packed_us"] = best_packed * 1e6
    benchmark.extra_info["throughput_ratio"] = ratio
    print(
        f"\npacked hamming kernel: B={PACKED_BENCH_BATCH} K={PACKED_BENCH_CLASSES} "
        f"D={PACKED_BENCH_DIM}, bipolar {best_bipolar * 1e6:.1f}us, "
        f"packed {best_packed * 1e6:.1f}us ({ratio:.2f}x)"
    )
    bench_json.record(
        "packed_kernel",
        batch=PACKED_BENCH_BATCH,
        classes=PACKED_BENCH_CLASSES,
        dim=PACKED_BENCH_DIM,
        bipolar_seconds=best_bipolar,
        packed_seconds=best_packed,
        throughput_ratio=ratio,
        bit_identical_topk=True,
    )
    assert ratio >= 1.5


def test_packed_storage_serving(benchmark, bench_json, servable, requests):
    """A binarized deployment serves from packed class memory: resident
    bytes >= 25x smaller (``ServerStats`` residency document), zero
    per-row fallbacks, predictions bit-identical to the
    binarized-but-unpacked route."""
    import repro.serving.registry as registry_mod
    from repro.transforms import ApproximationConfig

    config = ApproximationConfig(binarize=True)

    # Reference: the same binarized program with packing disabled.
    original = registry_mod.packable_entry_params
    registry_mod.packable_entry_params = lambda program: []
    try:
        unpacked_server = InferenceServer(
            workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002
        )
        unpacked_server.register(servable, name="unpacked", config=config)
        start = time.perf_counter()
        with unpacked_server:
            expected = unpacked_server.infer_many("unpacked", list(requests))
        unpacked_seconds = time.perf_counter() - start
    finally:
        registry_mod.packable_entry_params = original
    expected_labels = [int(np.asarray(r)) for r in expected]

    server = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
    server.register(servable, name="packed", config=config)

    def serve_packed():
        with server:
            return server.infer_many("packed", list(requests))

    start = time.perf_counter()
    results = benchmark.pedantic(serve_packed, rounds=1, iterations=1)
    packed_seconds = time.perf_counter() - start

    packed_labels = [int(np.asarray(r)) for r in results]
    assert packed_labels == expected_labels  # bit-identical predictions

    stats = server.stats().to_dict()
    model = stats["model_stats"]["packed"]
    residency = model["residency"]
    assert residency is not None and residency["packed"]
    shrink = residency["shrink_ratio"]
    relative = unpacked_seconds / packed_seconds
    benchmark.extra_info["resident_bytes"] = residency["class_memory_bytes"]
    benchmark.extra_info["unpacked_bytes"] = residency["class_memory_unpacked_bytes"]
    benchmark.extra_info["shrink_ratio"] = shrink
    benchmark.extra_info["relative_throughput"] = relative
    print(
        f"\npacked storage: {requests.shape[0]} requests, class memory "
        f"{residency['class_memory_unpacked_bytes']} -> {residency['class_memory_bytes']} bytes "
        f"({shrink:.0f}x), throughput {relative:.2f}x vs unpacked-binarized, "
        f"fallbacks {model['fallback_stages']}"
    )
    bench_json.record(
        "packed_storage",
        requests=requests.shape[0],
        resident_bytes=residency["class_memory_bytes"],
        unpacked_bytes=residency["class_memory_unpacked_bytes"],
        shrink_ratio=shrink,
        relative_throughput=relative,
        fallback_stages=model["fallback_stages"],
        failures=stats["failures"],
        bit_identical=True,
    )
    assert shrink >= 25.0
    assert model["fallback_stages"] == 0
    assert stats["failures"] == 0


# ---------------------------------------------------------------------------
# Batch-native execution plane
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hyperoms_workload():
    """A served HyperOMS search at a typical online-request shape.

    Small-ish spectra (64 m/z bins, ~20% occupancy) keep each row's NumPy
    work modest, which is exactly the regime where the per-row path pays
    its Python-per-row tax: one closure call per spectrum for the encoder
    plus one interpreted traced-function run per query for the search.
    The batched plane replaces both with a handful of whole-batch library
    calls.
    """
    rng = derive_rng(bench_seed(), "bench_serving.hyperoms_workload")
    n_bins, n_library = 64, 64
    app = HyperOMS(dimension=512, n_levels=8, seed=11)
    library = (rng.random((n_library, n_bins)) * (rng.random((n_library, n_bins)) > 0.8)).astype(
        np.float32
    )
    servable = app.as_servable(app.encode_library(library), n_bins=n_bins)
    spectra = (
        rng.random((N_ENCODER_REQUESTS, n_bins)) * (rng.random((N_ENCODER_REQUESTS, n_bins)) > 0.8)
    ).astype(np.float32)
    return servable, spectra


def test_batched_encoder_speedup(benchmark, bench_json, hyperoms_workload):
    """The batched execution plane must serve the HyperOMS workload >= 3x
    faster than the per-row reference path.

    Both servers run identical programs; the only difference is the
    worker's stage strategy — ``CPUBackend(batched=True)`` (the serving
    default) executes the level-ID encoder as one ``gather_bundle`` call
    over the whole micro-batch behind the bit-identity gate, while
    ``CPUBackend(batched=False)`` loops one Python iteration per
    spectrum.  Predictions must agree exactly (the gate guarantees it).
    """
    servable, spectra = hyperoms_workload

    def serve_all(server):
        with server:
            results = server.infer_many(servable.name, list(spectra))
            return [int(np.asarray(r)) for r in results]

    rowwise_worker = Worker("cpu-rowwise", "cpu", backend=CPUBackend(batched=False))
    rowwise = InferenceServer(workers=(rowwise_worker,), max_batch_size=64, max_wait_seconds=0.002)
    rowwise.register(servable, warm="full")
    start = time.perf_counter()
    rowwise_labels = serve_all(rowwise)
    rowwise_seconds = time.perf_counter() - start

    batched = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
    batched.register(servable, warm="full")

    start = time.perf_counter()
    batched_labels = benchmark.pedantic(lambda: serve_all(batched), rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - start

    assert batched_labels == rowwise_labels  # gate-guaranteed bit identity

    stats = batched.stats().to_dict()
    model = stats["model_stats"][servable.name]
    speedup = rowwise_seconds / batched_seconds
    benchmark.extra_info["rowwise_rps"] = spectra.shape[0] / rowwise_seconds
    benchmark.extra_info["batched_rps"] = spectra.shape[0] / batched_seconds
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\nbatched encoder: {spectra.shape[0]} requests, "
        f"per-row {rowwise_seconds * 1e3:.1f}ms, batched {batched_seconds * 1e3:.1f}ms "
        f"({speedup:.1f}x), vectorized stages {model['vectorized_stages']}, "
        f"fallbacks {model['fallback_stages']}"
    )
    bench_json.record(
        "batched_encoder",
        requests=spectra.shape[0],
        rowwise_rps=spectra.shape[0] / rowwise_seconds,
        batched_rps=spectra.shape[0] / batched_seconds,
        speedup=speedup,
        vectorized_stages=model["vectorized_stages"],
        fallback_stages=model["fallback_stages"],
    )
    assert model["vectorized_stages"] > 0
    assert model["fallback_stages"] == 0
    assert speedup >= 3.0


def test_stock_apps_serve_fully_vectorized(bench_json, scale, isolet):
    """Every stock app adapter must take the batched route on every batch:
    per-deployment ``vectorized_stages`` > 0 and ``fallback_stages`` == 0
    in ``ServerStats.to_dict()`` — a model silently degrading to the
    per-row path is a perf regression CI should catch, not scrollback."""
    from repro.apps import HDClustering, HDHashtable, RelHD
    from repro.datasets.genomics import GenomicsConfig, base_indices, make_genomics_dataset

    rng = derive_rng(bench_seed(), "bench_serving.stock_apps")
    servables = []

    cls_app = HDClassificationInference(dimension=scale.classification_dim, similarity="hamming")
    servables.append((cls_app.as_servable(dataset=isolet), isolet.test_features[:32]))

    clu = HDClustering(dimension=256)
    rp = np.sign(rng.standard_normal((256, 16))).astype(np.float32)
    clusters = np.sign(rng.standard_normal((8, 256))).astype(np.float32)
    servables.append((clu.as_servable(rp, clusters), rng.standard_normal((32, 16)).astype(np.float32)))

    rel = RelHD(dimension=256)
    rel_classes = np.sign(rng.standard_normal((7, 256))).astype(np.float32)
    servables.append(
        (rel.as_servable(rel_classes), np.sign(rng.standard_normal((32, 256))).astype(np.float32))
    )

    oms = HyperOMS(dimension=256)
    library = rng.random((12, 24)).astype(np.float32)
    servables.append(
        (oms.as_servable(oms.encode_library(library), n_bins=24), rng.random((32, 24)).astype(np.float32))
    )

    config = GenomicsConfig(
        genome_length=4000, bucket_size=500, read_length=60, n_reads=32, n_decoys=0, kmer_length=8
    )
    genomics = make_genomics_dataset(config)
    hasht = HDHashtable(dimension=256)
    base_hvs = hasht.make_base_hypervectors()
    table = hasht.encode_reference_buckets(genomics, base_hvs)
    reads = np.stack([base_indices(read) for read in genomics.reads[:32]])
    servables.append(
        (hasht.as_servable(table, read_length=60, kmer_length=8, base_hvs=base_hvs), reads)
    )

    server = InferenceServer(workers=("cpu",), max_batch_size=16, max_wait_seconds=0.002)
    for sv, _ in servables:
        server.register(sv)
    with server:
        for sv, queries in servables:
            server.infer_many(sv.name, list(queries))
        server.drain()
        stats = server.stats().to_dict()

    summary = {}
    for sv, _ in servables:
        model = stats["model_stats"][sv.name]
        summary[sv.name] = {
            "vectorized_stages": model["vectorized_stages"],
            "fallback_stages": model["fallback_stages"],
        }
        print(
            f"\n{sv.name}: vectorized={model['vectorized_stages']} "
            f"fallbacks={model['fallback_stages']} reasons={model['stage_fallback_reasons']}"
        )
    bench_json.record(
        "stock_apps_vectorized",
        aggregate_vectorized=stats["vectorized_stages"],
        aggregate_fallbacks=stats["fallback_stages"],
        per_model=summary,
    )
    for sv, _ in servables:
        model = stats["model_stats"][sv.name]
        assert model["vectorized_stages"] > 0, sv.name
        assert model["fallback_stages"] == 0, (sv.name, model["stage_fallback_reasons"])
    assert stats["fallback_stages"] == 0


# ---------------------------------------------------------------------------
# Replica-group scale-out (PR 9)
# ---------------------------------------------------------------------------


class BridgeLatencyBackend(CPUBackend):
    """Batched host execution plus a fixed per-batch device-bridge stall.

    Models the regime the replica group exists for: a serving worker
    whose batch round trip is dominated by *waiting* on an attached
    accelerator (the taped-out digital ASIC sits behind a ~10 kbps FPGA
    bridge — see :mod:`repro.accelerators.digital_asic`), so the host
    core idles for most of each batch.  The stall is a sleep, not
    compute: on a one-core CI runner, aggregate throughput can then
    genuinely scale with the replica count, exactly as it would against
    N physical devices, without the benchmark pretending that N
    CPU-bound replicas share one core for free.
    """

    def __init__(self, stall_seconds: float):
        super().__init__(batched=True)
        self.stall_seconds = float(stall_seconds)

    def execute(self, compiled, env, report):
        outputs = super().execute(compiled, env, report)
        time.sleep(self.stall_seconds)
        return outputs


def _balanced_clone_names() -> list:
    """Eight model names that rendezvous-spread evenly at 2 and 4 replicas.

    Rendezvous hashing balances in expectation, but with only eight
    models the per-run variance would leak hash luck into the measured
    scaling ratios.  Routes are *nested* (the 2-replica winner is fully
    determined whenever the 4-replica winner is replica 0 or 1), so the
    search picks names by their joint ``(route@2, route@4)`` signature
    against a feasible quota table: 4+4 at two replicas and 2+2+2+2 at
    four.  Deterministic (SHA-256 routing), so every run measures the
    same placement.
    """
    need = {(0, 0): 2, (1, 1): 2, (0, 2): 1, (1, 2): 1, (0, 3): 1, (1, 3): 1}
    names = []
    index = 0
    while sum(need.values()):
        name = f"clone-{index}"
        index += 1
        signature = (route(name, range(2)), route(name, range(4)))
        if need.get(signature, 0):
            need[signature] -= 1
            names.append(name)
    return names


def test_replica_scaling_throughput(benchmark, bench_json):
    """1 -> 2 -> 4 replicas must scale aggregate throughput >=1.6x / >=2.5x,
    with zero drops across a group-wide hot-swap and predictions
    bit-identical to the single-replica run.

    Eight model clones are spread by rendezvous routing; one sequential
    client stream per model drives its routed replica through a
    :class:`~repro.serving.replica.ClientPool`.  Every replica owns one
    bridge-latency worker, so per-replica throughput is capped by device
    wait time — the latency-bound regime where scale-out pays.  Mid-run,
    one group-wide ``update`` hot-swaps a model on every replica; after
    the run a version-pinned read exercises read-your-writes on the
    routed replica.
    """
    n_features, dimension, n_classes = 16, 1024, 8
    n_streams, per_stream, stall = 8, 10, 0.015
    rp = bipolar_random(dimension, n_features, seed=5)
    classes = bipolar_random(n_classes, dimension, seed=9)
    rng = derive_rng(bench_seed(), "replica_scaling")
    stream_queries = rng.standard_normal((per_stream, n_features)).astype(np.float32)
    probes = rng.standard_normal((4, n_features)).astype(np.float32)
    update_samples = rng.standard_normal((8, n_features)).astype(np.float32)
    update_labels = rng.integers(0, n_classes, 8)
    servable = classification_servable("clone", dimension, "hamming", rp, classes)
    names = _balanced_clone_names()

    def run_group(n_replicas: int) -> dict:
        group = ReplicaGroup(
            replicas=n_replicas,
            workers=lambda i: [
                Worker(f"bridge-{i}", "cpu", backend=BridgeLatencyBackend(stall))
            ],
            max_batch_size=8,
            max_wait_seconds=0.002,
        )
        with group:
            for name in names:
                group.register(servable, name=name)
            pool = ClientPool(group)
            try:
                predictions = {name: [] for name in names}

                def stream(name):
                    for k in range(per_stream):
                        predictions[name].append(
                            int(np.asarray(pool.infer(name, stream_queries[k])))
                        )

                threads = [threading.Thread(target=stream, args=(n,)) for n in names]
                start = time.perf_counter()
                for t in threads:
                    t.start()
                time.sleep(0.1)
                version = pool.update(names[0], update_samples, update_labels)
                for t in threads:
                    t.join()
                wall = time.perf_counter() - start
                pinned = [
                    int(np.asarray(pool.infer(names[0], probes[j], min_version=version)))
                    for j in range(probes.shape[0])
                ]
                merged = merge_server_stats(group.stats())
            finally:
                pool.close()
        return {
            "wall": wall,
            "rps": n_streams * per_stream / wall,
            "predictions": predictions,
            "pinned": pinned,
            "version": version,
            "failures": merged["failures"],
            "requests": merged["requests"],
        }

    runs = {}
    runs[1] = run_group(1)
    runs[2] = run_group(2)
    measured = benchmark.pedantic(lambda: run_group(4), rounds=1, iterations=1)
    runs[4] = measured

    scaling_2 = runs[1]["wall"] / runs[2]["wall"]
    scaling_4 = runs[1]["wall"] / runs[4]["wall"]
    # The swapped model's stream flips versions at a timing-dependent
    # request index; every *steady* model must be bit-identical to the
    # single-replica run, and the swapped model's pinned post-swap reads
    # must match across group sizes (read-your-writes determinism).
    steady = lambda run: {k: v for k, v in run["predictions"].items() if k != names[0]}
    for n in (2, 4):
        assert steady(runs[n]) == steady(runs[1])
        assert runs[n]["pinned"] == runs[1]["pinned"]
        assert runs[n]["version"] == runs[1]["version"]
    total_failures = sum(runs[n]["failures"] for n in (1, 2, 4))
    assert total_failures == 0  # zero drops across every hot-swap

    benchmark.extra_info["rps_1"] = runs[1]["rps"]
    benchmark.extra_info["rps_2"] = runs[2]["rps"]
    benchmark.extra_info["rps_4"] = runs[4]["rps"]
    benchmark.extra_info["scaling_2"] = scaling_2
    benchmark.extra_info["scaling_4"] = scaling_4
    print(
        f"\nreplica scaling: {n_streams} streams x {per_stream} requests, "
        f"1r {runs[1]['rps']:.0f} rps, 2r {runs[2]['rps']:.0f} rps "
        f"({scaling_2:.2f}x), 4r {runs[4]['rps']:.0f} rps ({scaling_4:.2f}x)"
    )
    bench_json.record(
        "replica_scaling",
        streams=n_streams,
        requests_per_stream=per_stream,
        rps_1=runs[1]["rps"],
        rps_2=runs[2]["rps"],
        rps_4=runs[4]["rps"],
        scaling_2=scaling_2,
        scaling_4=scaling_4,
        swap_version=runs[4]["version"],
        failures=total_failures,
    )
    assert scaling_2 >= 1.6
    assert scaling_4 >= 2.5


def test_sharded_placement_capacity_win(benchmark, bench_json):
    """Pinned sharding must beat unsharded serving (> 1.0x, up from 0.79x)
    on a class memory too big for one worker's device bank — bit-identically.

    One capacity-limited digital-ASIC worker (``class_mem_rows=128``)
    serving all 256 classes re-streams the class memory on *every* batch
    (``capacity_evictions`` counts them).  Two shard workers, each pinned
    to half the rows, fit their banks: shard placement keeps each
    worker's ``DeviceSession`` resident (``elided_transfers``), the shard
    partials offload encoding to the same cyclic device encoder the
    unsharded inference loop uses (so predictions stay bit-identical),
    and the batched host pass reduces the partial scores.  A mid-load
    group-style hot-swap then retrains the sharded deployment with zero
    drops, and the post-swap predictions still match an unsharded server
    that applied the same update.
    """
    n_features, dimension, n_classes, bank_rows = 16, 4096, 256, 128
    n_requests = 96
    rp = bipolar_random(dimension, n_features, seed=7)
    classes = bipolar_random(n_classes, dimension, seed=11)
    rng = derive_rng(bench_seed(), "sharded_placement")
    queries = rng.standard_normal((n_requests, n_features)).astype(np.float32)
    update_samples = queries[:8]
    update_labels = rng.integers(0, n_classes, 8)
    servable = classification_servable("capacity", dimension, "hamming", rp, classes)

    def asic_workers(count: int) -> list:
        return [
            Worker(
                f"asic-{i}",
                "hdc_asic",
                backend=DigitalASICBackend(
                    params=DigitalASICParameters(class_mem_rows=bank_rows),
                    reuse_session=True,
                ),
            )
            for i in range(count)
        ]

    unsharded = InferenceServer(
        workers=asic_workers(1), max_batch_size=4, max_wait_seconds=0.002
    )
    unsharded.register(servable)
    with unsharded:
        start = time.perf_counter()
        expected_v1 = [
            int(np.asarray(r)) for r in unsharded.infer_many(servable.name, list(queries))
        ]
        unsharded_seconds = time.perf_counter() - start
        unsharded.update(servable.name, update_samples, update_labels)
        expected_v2 = [
            int(np.asarray(r)) for r in unsharded.infer_many(servable.name, list(queries))
        ]
    unsharded_workers = unsharded.stats().to_dict()["worker_stats"]

    sharded = InferenceServer(
        workers=asic_workers(2), max_batch_size=4, max_wait_seconds=0.002
    )
    sharded.register(servable, name="sharded", shards=2)
    with sharded:
        def serve_v1():
            return sharded.infer_many("sharded", list(queries))

        start = time.perf_counter()
        results = benchmark.pedantic(serve_v1, rounds=1, iterations=1)
        sharded_seconds = time.perf_counter() - start
        sharded_v1 = [int(np.asarray(r)) for r in results]

        # Hot-swap under load: retrain the sharded deployment while a
        # full request pass is in flight — nothing may drop.
        in_flight = {}
        swapper = threading.Thread(
            target=lambda: in_flight.setdefault(
                "labels", sharded.infer_many("sharded", list(queries))
            )
        )
        swapper.start()
        time.sleep(0.05)
        swap_version = sharded.update("sharded", update_samples, update_labels)
        swapper.join()
        sharded_v2 = [
            int(np.asarray(r)) for r in sharded.infer_many("sharded", list(queries))
        ]
    stats = sharded.stats()
    sharded_workers = stats.to_dict()["worker_stats"]

    assert sharded_v1 == expected_v1  # pinned sharding is bit-identical
    assert sharded_v2 == expected_v2  # ... and stays so across a hot-swap
    assert len(in_flight["labels"]) == n_requests
    assert stats.failures == 0 and swap_version == 2

    # The mechanism, not just the ratio: the unsharded bank overflows
    # (re-streamed classes every batch), the pinned shards never do.
    baseline_evictions = sum(w["capacity_evictions"] for w in unsharded_workers.values())
    shard_evictions = sum(w["capacity_evictions"] for w in sharded_workers.values())
    shard_elided = sum(w["elided_transfers"] for w in sharded_workers.values())
    assert baseline_evictions > 0
    assert shard_evictions == 0
    assert shard_elided > 0

    unsharded_rps = n_requests / unsharded_seconds
    sharded_rps = n_requests / sharded_seconds
    relative = sharded_rps / unsharded_rps
    benchmark.extra_info["unsharded_rps"] = unsharded_rps
    benchmark.extra_info["sharded_rps"] = sharded_rps
    benchmark.extra_info["relative_throughput"] = relative
    print(
        f"\nsharded placement: {n_requests} requests over {n_classes} classes "
        f"(bank {bank_rows}), unsharded {unsharded_rps:.0f} req/s "
        f"({baseline_evictions} evictions), sharded(2) {sharded_rps:.0f} req/s "
        f"({relative:.2f}x, {shard_elided} elided transfers)"
    )
    bench_json.record(
        "sharded_placement",
        requests=n_requests,
        classes=n_classes,
        bank_rows=bank_rows,
        unsharded_rps=unsharded_rps,
        sharded_rps=sharded_rps,
        relative_throughput=relative,
        baseline_capacity_evictions=baseline_evictions,
        sharded_capacity_evictions=shard_evictions,
        sharded_elided_transfers=shard_elided,
        swap_version=swap_version,
        failures=stats.failures,
    )
    assert relative > 1.0  # the 0.79x regression, fixed by placement
