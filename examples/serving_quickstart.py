"""Serving quickstart: keep a compiled HDC program warm behind a server.

The one-shot flow (``examples/quickstart.py``) traces, compiles, runs and
exits.  This example shows the serving runtime instead:

1. train HD-Classification offline on the ISOLET-like dataset;
2. package the trained state as a :class:`~repro.serving.Servable`;
3. register it with an :class:`~repro.serving.InferenceServer` whose worker
   pool spans the CPU (batched host kernels) and the digital HDC ASIC
   (warm device session — base/class memories stay resident);
4. push a stream of single-sample requests through the dynamic
   micro-batching queue from several client threads; and
5. **drain, then** print the :class:`~repro.serving.ServerStats`
   snapshot: latency percentiles, throughput, batch-size histogram,
   compile-cache hit rate and the device transfers the warm sessions
   elided.

The drain in step 5 is the idiom to remember: ``server.drain()`` blocks
until every submitted request has resolved, so the subsequent ``stats()``
snapshot accounts for all of them.  Reading stats while requests are
still in flight (queued in a batcher, the fair scheduler or a worker)
undercounts — depending on thread ordering, the final partial batch may
flush only after the snapshot is taken.  ``server.stop()`` (or leaving
the ``with`` block) also drains, but tears the workers down with it;
``drain()`` is how a live service takes a consistent reading.

Run with:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro.apps import HDClassificationInference
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import InferenceServer

DIMENSION = 2048
N_CLIENTS, REQUESTS_PER_CLIENT = 8, 40


def main() -> None:
    dataset = make_isolet_like(IsoletConfig(n_train=1000, n_test=400))

    # -- offline: train once, package the state as a servable ----------------------
    app = HDClassificationInference(dimension=DIMENSION, similarity="hamming")
    servable = app.as_servable(dataset=dataset)
    print(f"trained servable: {servable}")

    # -- online: register and serve ------------------------------------------------
    server = InferenceServer(
        workers=("cpu", "cpu", "hdc_asic"),
        max_batch_size=64,
        max_wait_seconds=0.002,
    )
    server.register(servable)

    rng = np.random.default_rng(0)
    picks = rng.integers(0, dataset.test_features.shape[0], size=(N_CLIENTS, REQUESTS_PER_CLIENT))
    correct = [0]
    lock = threading.Lock()

    def client(row: np.ndarray) -> None:
        hits = 0
        for index in row:
            label = int(np.asarray(server.infer(servable.name, dataset.test_features[index])))
            hits += int(label == dataset.test_labels[index])
        with lock:
            correct[0] += hits

    with server:
        threads = [threading.Thread(target=client, args=(picks[c],)) for c in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Drain before reading stats: every submitted request (including
        # the final partial batch) must resolve for a consistent snapshot.
        server.drain()
        stats = server.stats()

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    print(f"\nserved {stats.requests} requests, accuracy {correct[0] / total:.3f}")
    print(f"  batches:        {stats.batches} (mean size {stats.mean_batch_size:.1f})")
    print(f"  batch sizes:    {dict(sorted(stats.batch_size_histogram.items()))}")
    print(
        f"  latency:        p50 {stats.latency_p50_ms:.2f}ms  "
        f"p95 {stats.latency_p95_ms:.2f}ms  p99 {stats.latency_p99_ms:.2f}ms"
    )
    print(f"  throughput:     {stats.throughput_rps:.0f} requests/s")
    print(
        f"  compile cache:  {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"(hit rate {stats.cache_hit_rate:.2f})"
    )
    print(f"  elided device transfers: {stats.elided_transfers}")
    for name, worker in stats.worker_stats.items():
        print(
            f"  worker {name:<12} {worker['samples']:>4} samples in {worker['batches']} batches, "
            f"{worker['ewma_seconds_per_sample'] * 1e6:.0f}us/sample"
        )


if __name__ == "__main__":
    main()
