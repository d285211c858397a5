"""Network serving: socket clients, warm cache restarts, SLO metrics.

``examples/serving_quickstart.py`` drives the in-process API; this example
exercises the three capabilities added by the transport refactor:

1. **Socket front end** — a :class:`~repro.serving.transport
   .TransportServer` exposes a running :class:`~repro.serving
   .InferenceServer` over TCP (length-prefixed JSON/binary frames), and
   several :class:`~repro.serving.transport.ServingClient` threads drive
   it concurrently.  Because every front end shares one
   :class:`~repro.serving.broker.RequestBroker`, samples from different
   connections coalesce into the same micro-batches.
2. **Per-deployment SLO metrics** — the model registers with an
   ``slo_ms`` budget; the stats snapshot reports the queue-wait/execute
   latency split and the violation count per deployment.
3. **Persistent compile cache** — the server saves its compiled-program
   cache, a "restarted" server loads it, and the second round of serving
   reports warm cache hits and zero compile misses (no re-trace, no
   re-plan, no re-verify).

Run with:  python examples/network_serving.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.apps import HDClassificationInference
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import InferenceServer
from repro.serving.transport import ServingClient, TransportServer

DIMENSION = 2048
N_CLIENTS, REQUESTS_PER_CLIENT = 6, 25
SLO_MS = 250.0


def serve_round(server: InferenceServer, servable, dataset, picks) -> dict:
    """Expose ``server`` over a socket, drive it with client threads."""
    correct = [0]
    lock = threading.Lock()

    def client_loop(rows: np.ndarray) -> None:
        hits = 0
        with ServingClient(*transport.address, timeout=60.0) as client:
            for index in rows:
                label = int(client.infer(servable.name, dataset.test_features[index]))
                hits += int(label == dataset.test_labels[index])
        with lock:
            correct[0] += hits

    with TransportServer(server) as transport:
        print(f"transport listening on {transport.address[0]}:{transport.address[1]}")
        threads = [
            threading.Thread(target=client_loop, args=(picks[c],)) for c in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServingClient(*transport.address) as client:
            client.drain()                      # settle everything first
            assert servable.name in client.list_models()
            stats = client.stats()              # the remote ServerStats dict
    return {"stats": stats, "accuracy": correct[0] / (N_CLIENTS * REQUESTS_PER_CLIENT)}


def report(tag: str, outcome: dict, servable_name: str) -> None:
    stats = outcome["stats"]
    model = stats["model_stats"][servable_name]
    print(f"\n[{tag}] served {stats['requests']} requests, accuracy {outcome['accuracy']:.3f}")
    print(
        f"  latency:       p50 {stats['latency_p50_ms']:.2f}ms  "
        f"p99 {stats['latency_p99_ms']:.2f}ms  ({stats['throughput_rps']:.0f} req/s)"
    )
    print(
        f"  split ({servable_name}): queue-wait p95 {model['queue_wait_p95_ms']:.2f}ms, "
        f"execute p95 {model['execute_p95_ms']:.2f}ms"
    )
    print(f"  SLO {model['slo_ms']:.0f}ms: {model['slo_violations']} violations")
    print(
        f"  compile cache: {stats['cache_hits']} hits / {stats['cache_misses']} misses "
        f"({stats['cache_warm_hits']} warm from disk)"
    )


def main() -> None:
    dataset = make_isolet_like(IsoletConfig(n_train=1000, n_test=400))
    app = HDClassificationInference(dimension=DIMENSION, similarity="hamming")
    servable = app.as_servable(dataset=dataset)
    rng = np.random.default_rng(0)
    picks = rng.integers(
        0, dataset.test_features.shape[0], size=(N_CLIENTS, REQUESTS_PER_CLIENT)
    )
    cache_path = Path(tempfile.mkdtemp(prefix="hdc-serving-")) / "compile-cache.pkl"

    # -- first process: compile, serve, persist the cache --------------------------
    # warm="full" compiles the whole bucket ladder, so the saved cache
    # covers every batch shape a restarted server can encounter.
    server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=64, max_wait_seconds=0.002)
    server.register(servable, slo_ms=SLO_MS, warm="full")
    with server:
        first = serve_round(server, servable, dataset, picks)
        saved = server.save_cache(cache_path)
    report("cold start", first, servable.name)
    print(f"\nsaved {saved} compiled artifacts to {cache_path}")

    # -- "restarted process": load the cache, register, serve warm -----------------
    restarted = InferenceServer(workers=("cpu", "cpu"), max_batch_size=64, max_wait_seconds=0.002)
    loaded = restarted.load_cache(cache_path)
    print(f"restart loaded {loaded} artifacts (registration below compiles nothing)")
    restarted.register(servable, slo_ms=SLO_MS, warm="full")
    with restarted:
        second = serve_round(restarted, servable, dataset, picks)
    report("warm restart", second, servable.name)
    assert second["stats"]["cache_misses"] == 0, "warm restart must not recompile"
    assert second["stats"]["cache_warm_hits"] >= 1


if __name__ == "__main__":
    main()
