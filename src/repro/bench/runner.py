"""The scenario-matrix executor: one cell, one real serving stack.

Each cell builds its workload (:mod:`repro.bench.workloads`), stands up
a real :class:`~repro.serving.server.InferenceServer` — and, for
transport backends, the asyncio socket front end — then plays the
cell's materialized :class:`~repro.bench.loadgen.Schedule` against it:
paced arrivals, clone targeting, and (for retraining shapes) online
update rounds **fed from a pre-materialized update log**, never from
live RNG.  The emitted metrics come straight from
:meth:`ServerStats.to_dict`, so every number CI gates on is the same
number the serving runtime itself reports.

The per-cell document (one entry in ``BENCH_matrix.json``'s ``cells``
mapping, keyed by ``app.backend.config.shape``) carries the cell
coordinates, throughput, latency quantiles plus the full serialized
latency histogram (so gates can derive *any* quantile), the
failure/shed/swap/fallback counters and the request-stream fingerprint
(``stream_sha1`` — two same-seed runs must agree byte-for-byte).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time
from typing import Callable, List, Optional

import numpy as np

from repro.bench.config import Cell, MatrixConfig, MatrixConfigError, build_approximation
from repro.bench.loadgen import SHAPE_KINDS, build_schedule, derive_rng
from repro.bench.workloads import build_workload

__all__ = ["run_matrix", "run_cell"]

#: Per-request settle timeout — generous, the cells themselves are small.
_RESULT_TIMEOUT_S = 60.0


def _clone_names(cell: Cell, n_models: int) -> List[str]:
    if n_models == 1:
        return [cell.app]
    return [f"{cell.app}-{k}" for k in range(n_models)]


def _append_pool_rows(cell, workload, shape_params):
    """The growth shape's append rounds, sliced from the workload pool.

    The pool — materialized by the workload builder from the derived
    RNG — is what the run appends, so the grown constants are a pure
    function of (bench seed, cell ID), like every other stream choice.
    """
    appends, batch = shape_params["appends"], shape_params["append_rows"]
    pool = workload.append_rows
    if pool is None or appends * batch > pool.shape[0]:
        have = 0 if pool is None else pool.shape[0]
        raise MatrixConfigError(
            f"cell {cell.cell_id}: {appends} append rounds x {batch} rows "
            f"need {appends * batch} pooled rows, but app {cell.app!r} "
            f"provides {have} — shrink the shape or grow the app's append_pool"
        )
    return [pool[round_index * batch : (round_index + 1) * batch] for round_index in range(appends)]


def _materialize_update_log(cell, workload, shape_params, model_name, directory):
    """Slice the workload's labelled pool into the cell's update log.

    The log — not the pool arrays — is what the run replays, so the
    exact bytes behind every hot-swap are on disk before the first
    request is submitted.
    """
    from repro.serving.update_log import UpdateLog

    updates, batch = shape_params["updates"], shape_params["update_batch"]
    pool = workload.update_samples
    if pool is None or updates * batch > pool.shape[0]:
        have = 0 if pool is None else pool.shape[0]
        raise MatrixConfigError(
            f"cell {cell.cell_id}: {updates} update rounds x batch {batch} "
            f"need {updates * batch} labelled samples, but app {cell.app!r} "
            f"provides {have} — shrink the shape or grow the app's pool"
        )
    log = UpdateLog(os.path.join(directory, "source.updatelog"))
    labels = np.asarray(workload.update_labels, dtype=np.int64)
    for round_index in range(updates):
        sl = slice(round_index * batch, (round_index + 1) * batch)
        log.append(model_name, pool[sl], labels[sl])
    return log


def _drive_in_process(server, names, workload, schedule):
    """Paced submission through the broker's future contract."""
    from repro.serving.batching import DeadlineExceeded

    futures = []
    t0 = time.perf_counter()
    for at, sample, model in zip(schedule.at, schedule.sample, schedule.model):
        delay = t0 + float(at) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        futures.append(server.submit(names[int(model)], workload.samples[int(sample)]))
    failures = shed = 0
    for future in futures:
        try:
            future.result(timeout=_RESULT_TIMEOUT_S)
        except DeadlineExceeded:
            shed += 1
        except Exception:
            failures += 1
    return failures, shed


def _drive_clients(server, clients, names, workload, schedule):
    """Paced blocking submission from ``clients`` concurrent threads, each
    through something with ``.infer(model, sample)``: its own socket client
    on a transport in front of ``server``, or — for a replica group — the
    one rendezvous-routing pool, so each model lands on its replica."""
    from repro.serving.replica import ClientPool, ReplicaGroup
    from repro.serving.transport import ServingClient, TransportServer

    failures = [0] * clients
    with contextlib.ExitStack() as stack:
        if isinstance(server, ReplicaGroup):
            pool = stack.enter_context(ClientPool(server, timeout=_RESULT_TIMEOUT_S))
            endpoints = [pool] * clients
        else:
            transport = TransportServer(server)
            address = transport.start()
            stack.callback(transport.stop)
            endpoints = [
                stack.enter_context(ServingClient(*address, timeout=_RESULT_TIMEOUT_S))
                for _ in range(clients)
            ]
        t0 = time.perf_counter()

        def client_loop(c: int) -> None:
            for index in range(c, len(schedule), clients):
                delay = t0 + float(schedule.at[index]) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    endpoints[c].infer(
                        names[int(schedule.model[index])],
                        workload.samples[int(schedule.sample[index])],
                    )
                except Exception:
                    failures[c] += 1

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"bench-client-{c}")
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return sum(failures), 0


def run_cell(cell: Cell, config: MatrixConfig, seed: int) -> dict:
    """Execute one matrix cell; returns its metrics dict."""
    from repro.serving import InferenceServer, merge_server_stats
    from repro.serving.replica import ReplicaGroup
    from repro.serving.update_log import UpdateLog

    app_spec = config.apps[cell.app]
    backend = config.backends[cell.backend]
    approx = build_approximation(config.configs[cell.config])
    shape = config.shapes[cell.shape]
    shape_kind = SHAPE_KINDS[shape["kind"]]

    rng = derive_rng(seed, cell.cell_id)
    workload = build_workload(app_spec, rng)
    schedule = build_schedule(
        shape["kind"],
        {key: value for key, value in shape.items() if key != "kind"},
        rng,
        n_pool=workload.samples.shape[0],
    )
    names = _clone_names(cell, schedule.n_models)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        # (server method, arguments, rows carried) per hot-swap round,
        # materialized before the first request is submitted.
        rounds: List[tuple] = []
        if shape_kind.retraining:
            source_log = _materialize_update_log(cell, workload, shape, names[0], tmp)
            rounds = [
                ("update", (record.model, record.samples, record.labels), len(record.labels))
                for record in source_log.read_all()
            ]
        if shape_kind.growing:
            rounds = [
                ("append", (names[0], rows), int(rows.shape[0]))
                for rows in _append_pool_rows(cell, workload, shape)
            ]
        # The server keeps its own log too, so the run exercises the append
        # hook: it must end up with one record per applied round (mirroring
        # the source log 1:1; a typed growth record per append).
        live_log = UpdateLog(os.path.join(tmp, "live.updatelog")) if rounds else None

        n_replicas = int(backend.get("replicas", 1))
        options = dict(
            workers=tuple(backend["workers"]),
            max_batch_size=int(backend["max_batch_size"]),
            max_wait_seconds=float(backend["max_wait_ms"]) / 1e3,
            update_log=live_log,
        )
        # Replica cells front the brokers with a ReplicaGroup: it owns the
        # update log and fans register/update/drain across its members.
        if n_replicas > 1:
            server = ReplicaGroup(replicas=n_replicas, **options)
        else:
            server = InferenceServer(**options)
        for name in names:
            server.register(
                workload.servable, name=name, config=approx, shards=backend["shards"]
            )

        versions: List[int] = []
        update_errors: List[str] = []
        applied_rows = 0
        updater = None

        def replay_rounds(t0: float) -> None:
            nonlocal applied_rows
            for offset, (method, arguments, n_rows) in zip(schedule.updates, rounds):
                delay = t0 + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    versions.append(getattr(server, method)(*arguments))
                    applied_rows += n_rows
                except Exception as exc:  # surfaced as cell failures below
                    update_errors.append(f"{type(exc).__name__}: {exc}")

        start = time.perf_counter()
        with server:
            if rounds:
                updater = threading.Thread(target=replay_rounds, args=(start,), name="bench-updater")
                updater.start()
            if n_replicas > 1 or backend["transport"]:
                failures, shed = _drive_clients(
                    server, int(backend["clients"]), names, workload, schedule
                )
            else:
                failures, shed = _drive_in_process(server, names, workload, schedule)
            if updater is not None:
                updater.join()
            server.drain()
            if n_replicas > 1:
                # Per-replica snapshots, merged into one group-wide view
                # (already dict-shaped — counters summed, histograms and
                # quantiles merged, model versions reconciled).
                stats = merge_server_stats(server.stats())
            else:
                stats = server.stats().to_dict()
        elapsed = time.perf_counter() - start

        # Packed class-memory residency, pooled over the cell's model
        # clones: 0 bytes / 0.0 shrink when the config serves unpacked.
        resident = unpacked = 0
        for name in names:
            residency = stats["model_stats"].get(name, {}).get("residency")
            if residency:
                resident += int(residency["class_memory_bytes"])
                unpacked += int(residency["class_memory_unpacked_bytes"])

        metrics = {
            **cell.coords(),
            "replicas": n_replicas,
            "requests": len(schedule),
            "duration_s": elapsed,
            "served_rps": len(schedule) / elapsed if elapsed > 0 else 0.0,
            "p50_ms": stats["latency_p50_ms"],
            "p95_ms": stats["latency_p95_ms"],
            "p99_ms": stats["latency_p99_ms"],
            "mean_ms": stats["mean_latency_ms"],
            "mean_batch_size": stats["mean_batch_size"],
            "failures": int(stats["failures"]) + failures + len(update_errors),
            "shed": int(stats["deadline_exceeded"]) + shed,
            "swaps": int(stats["swaps"]),
            "vectorized_stages": int(stats["vectorized_stages"]),
            "fallback_stages": int(stats["fallback_stages"]),
            "resident_class_memory_bytes": resident,
            "class_memory_shrink": (unpacked / resident) if resident else 0.0,
            "stream_sha1": schedule.fingerprint(),
            "latency_histogram": stats["latency_histogram"],
        }
        # ``dropped`` is the zero-drop contract in one number: every
        # request that failed or was shed, server- or client-side.
        metrics["dropped"] = int(metrics["failures"]) + int(metrics["shed"])
        if rounds:
            metrics["versions"] = versions
            metrics["update_errors"] = update_errors
            metrics["update_log_records"] = len(live_log)
        if shape_kind.growing:
            metrics["appended_rows"] = applied_rows
            metrics["append_rows_per_s"] = applied_rows / elapsed if elapsed > 0 else 0.0
        return metrics


def run_matrix(
    config: MatrixConfig,
    seed: int,
    cells: Optional[List[Cell]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the matrix (or a cell subset) and return the summary document.

    The document is what ``BENCH_matrix.json`` holds: run metadata plus
    the per-cell metrics mapping that ``cell.``-path gates resolve
    against.
    """
    selected = config.cells if cells is None else cells
    results = {}
    for index, cell in enumerate(selected):
        if progress is not None:
            progress(f"[{index + 1}/{len(selected)}] {cell.cell_id}")
        results[cell.cell_id] = run_cell(cell, config, seed)
    timestamp = float(os.environ.get("REPRO_BENCH_TIMESTAMP", time.time()))
    return {
        "benchmark": "matrix",
        "config_name": config.name,
        "seed": int(seed),
        "timestamp": timestamp,
        "cells": results,
    }
