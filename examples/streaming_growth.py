"""Shape-changing hot-swap: streaming index growth under live query load.

The online-retraining demo changed a served model's *weights*; this one
changes its *shape*.  A genome-read hash table is served over the socket
transport while a writer client streams brand-new reference buckets into
it through the ``append`` op: each round k-mer encodes the new sequences
server-side, appends them as rows of the ``table`` constant, re-traces
the programs for the grown shape, warms them, bumps the model version
and hot-swaps — with query traffic flowing the whole time.

1. **Streaming growth** — ``ServingClient.append(model, rows)`` ships a
   batch of base-index reference sequences and returns the new version.
   The op is non-idempotent (appending twice grows the index twice), so
   the client never resends it on a dropped connection.
2. **Zero downtime, zero drops** — loader threads keep inferring across
   every shape change; at the end the stats must show zero failures and
   the loaders zero errors.
3. **Bit identity** — the grown deployment equals an offline rebuild of
   the hash table from the full sequence set: same servable signature
   (content-hashed constants) and bit-identical bucket predictions.

Run with:  python examples/streaming_growth.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro.apps import HDHashtable
from repro.datasets import GenomicsConfig, make_genomics_dataset
from repro.datasets.genomics import base_indices
from repro.serving import InferenceServer
from repro.serving.transport import ServingClient, TransportServer

DIMENSION = 1024
KMER_LENGTH = 10
N_ROUNDS = 3
ROWS_PER_ROUND = 2
SEED = 13


def main() -> None:
    dataset = make_genomics_dataset(
        GenomicsConfig(
            genome_length=4000,
            bucket_size=200,
            read_length=80,
            n_reads=40,
            kmer_length=KMER_LENGTH,
            seed=SEED,
        )
    )
    app = HDHashtable(dimension=DIMENSION, seed=SEED)
    base_hvs = app.make_base_hypervectors()
    table = app.encode_reference_buckets(dataset, base_hvs)
    servable = app.as_servable(
        table,
        dataset.config.read_length,
        KMER_LENGTH,
        base_hvs=base_hvs,
        name="genome-search",
        append_length=dataset.config.bucket_size,
    )
    queries = np.stack([base_indices(read) for read in dataset.reads])

    # The stream of new reference material: fresh bucket-length sequences
    # that were not part of the offline build.
    rng = np.random.default_rng(SEED + 1)
    rounds = [
        rng.integers(0, 4, (ROWS_PER_ROUND, dataset.config.bucket_size), dtype=np.int64)
        for _ in range(N_ROUNDS)
    ]

    server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=16, max_wait_seconds=0.002)
    server.register(servable)
    stop = threading.Event()
    background = {"requests": 0, "errors": 0}

    def loader(host: str, port: int) -> None:
        """Sustained query load: the traffic the shape changes must not drop."""
        with ServingClient(host, port, timeout=60.0) as client:
            i = 0
            while not stop.is_set():
                try:
                    client.infer("genome-search", queries[i % len(queries)])
                    background["requests"] += 1
                except Exception:
                    background["errors"] += 1
                i += 1

    with server, TransportServer(server) as transport:
        host, port = transport.address
        print(f"serving genome-search v1 ({table.shape[0]} buckets) on {host}:{port}")
        threads = [
            threading.Thread(target=loader, args=(host, port), daemon=True) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            with ServingClient(host, port, timeout=60.0) as client:
                matches = client.infer_batch("genome-search", queries)
                accuracy = (np.asarray(matches) == dataset.read_buckets).mean()
                print(f"  v1 bucket accuracy: {accuracy:.3f}")
                versions = []
                for rows in rounds:
                    version = client.append("genome-search", rows)
                    versions.append(version)
                    n_rows = table.shape[0] + ROWS_PER_ROUND * len(versions)
                    print(f"  -> v{version}: appended {rows.shape[0]} buckets, "
                          f"table is now {n_rows} rows")
                assert versions == sorted(versions) and len(set(versions)) == N_ROUNDS
                stop.set()
                for thread in threads:
                    thread.join()
                after = [np.asarray(client.infer("genome-search", q)) for q in queries]
                client.drain()
                stats = client.stats()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        grown = server.registry.get("genome-search").servable

    print(f"\nbackground load: {background['requests']} requests across "
          f"{stats['swaps']} shape-changing hot-swaps, {background['errors']} errors, "
          f"{stats['failures']} server-side failures")
    assert background["errors"] == 0 and stats["failures"] == 0, "growth dropped requests"
    assert stats["swaps"] == N_ROUNDS

    # Bit identity: rebuild the hash table offline from the full sequence
    # set and serve it fresh — same signature, same predictions.
    encode_read = app._make_read_encoder(app._rotated_bases(base_hvs, KMER_LENGTH))
    extra = np.stack(
        [np.sign(encode_read(row)) for row in np.vstack(rounds)]
    ).astype(np.float32)
    offline = app.as_servable(
        np.vstack([table, extra]),
        dataset.config.read_length,
        KMER_LENGTH,
        base_hvs=base_hvs,
        name="genome-search",
        append_length=dataset.config.bucket_size,
    )
    assert grown.signature == offline.signature, "grown state drifted from offline rebuild"
    rebuilt = InferenceServer(workers=("cpu",), max_batch_size=16)
    rebuilt.register(offline)
    with rebuilt:
        expected = [np.asarray(rebuilt.infer("genome-search", q)) for q in queries]
    for got, want in zip(after, expected):
        assert np.array_equal(got, want)
    accuracy = (np.asarray(after).ravel() == dataset.read_buckets).mean()
    print(f"offline rebuild of the grown table is bit-identical to the served state "
          f"(bucket accuracy {accuracy:.3f})")


if __name__ == "__main__":
    main()
