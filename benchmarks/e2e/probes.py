"""Per-layer probes of the traced run.

Nothing under ``src/`` is instrumented: every layer is measured from
outside, by timing calls into its public functions.  The serving layers
are peeled as an **onion** — the same batches replayed through
successively wider public entry points:

    kernel functions -> BoundProgram.run -> Deployment.run
        -> InferenceServer.infer_many -> ClientPool.infer_batch

A ring's self time is its median span minus the median of the ring one
in.  The kernel ring is timed by wrapping the public functions of
``repro.kernels`` while ``BoundProgram.run`` executes, so it measures the
calls the program really makes rather than a re-implementation of them.
The cold path (trace, passes, lower, compile, first run), the control
plane (register, swap round, update log) and the stand-alone data
structures (batcher, scheduler, histogram, frame codec) are timed directly.

Every probe returns ``{metric name: (value, unit)}``; the names are the
``per_layer`` list of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import io
import os
import random
import statistics
import threading
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from harness import CLIENTS, SpanRecorder
from workloads import BUCKET, OUT_DIR, SERVER_OPTIONS, ProbeContext, ServingStack

from repro.backends import backend_for_target
from repro.ir.builder import clone_program, lower_program
from repro.ir.verifier import verify_graph
from repro.kernels import batched, binary as binkern, reference as refkern
from repro.serving import (
    BatchWork,
    CompiledProgramCache,
    FairScheduler,
    InferenceServer,
    LatencyHistogram,
    MicroBatcher,
    ModelRegistry,
    UpdateLog,
    WorkerPool,
    bucket_for,
    pad_batch,
    servable_signature,
)
from repro.serving.transport import ServingClient
from repro.serving.transport.protocol import (
    decode_array,
    encode_array_header,
    encode_frame,
    read_frame_sync,
)
from repro.transforms.pipeline import ApproximationConfig, PassPipeline

Metrics = Dict[str, tuple]

RINGS = (
    "kernels",
    "BoundProgram.run",
    "Deployment.run",
    "InferenceServer.infer_many",
    "ClientPool.infer_batch",
)
SPAN_NAMES = ("queue", "batch", "schedule", "dispatch", "execute", "settle")
TARGETS = ("cpu", "gpu", "hdc_asic", "hdc_reram")

_SCORE_PREFIXES = ("pairwise", "rowwise", "hamming", "cossim", "dot_", "arg_", "l2norm", "normalize")
_PACK_PREFIXES = ("pack", "unpack", "sign")


@dataclass
class Reps:
    """Repetition counts of the traced run (cut by ``--scale`` for smoke)."""

    batches: int  # onion batches per ring
    micro: int  # iterations of a micro-probe
    rounds: int  # control-plane rounds (register, update, cold compile)
    overhead_seconds: float  # per side of the traced-vs-untraced replay

    @staticmethod
    def for_scale(batches: int, scale: float) -> "Reps":
        return Reps(
            batches=max(4, int(batches * min(1.0, scale * 4))),
            micro=max(20, int(400 * min(1.0, scale * 4))),
            rounds=5 if scale >= 0.25 else 2,
            overhead_seconds=1.2 * min(1.0, scale * 4),
        )


def _median_us(fn: Callable, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _category(name: str) -> str:
    if name.startswith(_PACK_PREFIXES):
        return "pack"
    if name.startswith(_SCORE_PREFIXES):
        return "score"
    return "encode"


class KernelShim:
    """Times every call into the public kernel functions while installed.

    Calls nest (a packed Hamming search packs its operand first): a call's
    self time goes to its own category, so ``pack`` inside ``score`` is
    counted as packing.  ``batch`` names the span parent of the calls made
    until it is set again.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.batch = -1
        #: Per batch: {"encode"|"score"|"pack": seconds, "bytes": n}.
        self.per_batch: Dict[int, dict] = {}
        self._stack: List[list] = []
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        category = _category(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]  # seconds spent in nested kernel calls
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            slot = self.per_batch.setdefault(
                self.batch, {"encode": 0.0, "score": 0.0, "pack": 0.0, "bytes": 0}
            )
            slot[category] += (end - start) - frame[0]
            if self._stack:
                self._stack[-1][0] += end - start
            else:
                # Outermost kernel call: one span, and the bytes it moved
                # (computed from array sizes, not measured).
                self.recorder.spans.append((f"kernels.{name}", start, end, self.batch))
                moved = [a for a in args if isinstance(a, np.ndarray)]
                if isinstance(result, np.ndarray):
                    moved.append(result)
                slot["bytes"] += sum(int(a.nbytes) for a in moved)
            return result

        return timed

    def __enter__(self) -> "KernelShim":
        for module in (batched, binkern, refkern):
            for name, fn in list(vars(module).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and not name.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved = []


def _wrong_rows(output, expected: np.ndarray) -> int:
    return int(np.count_nonzero(np.asarray(output).reshape(-1)[: expected.shape[0]] != expected))


def onion(ctx: ProbeContext, stack: ServingStack, recorder: SpanRecorder, reps: Reps) -> tuple:
    """Replay the workload's batches through the five rings; returns
    (metrics, rows attempted, rows wrong).  Every ring's answers meet the
    oracle."""
    frames, expected = ctx.frames[: reps.batches], ctx.expected[: reps.batches]
    rows = frames[0].shape[0]
    bucket = bucket_for(rows, BUCKET)
    param = ctx.servable.query_param
    padded = [pad_batch(frame, bucket) for frame in frames]
    bound = stack.deployment.handle_for(bucket, worker=stack.worker)
    bound_one = stack.deployment.handle_for(1, worker=stack.worker)
    attempted = wrong = 0
    report = None

    def check(output, answer, raw: bool = False) -> None:
        nonlocal attempted, wrong
        if raw and ctx.servable.postprocess is not None:
            output = ctx.servable.postprocess(output)
        attempted += answer.shape[0]
        wrong += _wrong_rows(output, answer)

    shim = KernelShim(recorder)

    def kernels(batch: int):
        # The kernel ring: the same BoundProgram.run, with the kernel
        # functions wrapped for just this call.
        nonlocal report
        shim.batch = batch
        with shim:
            result = bound.run(**{param: padded[batch]})
        report = result.report
        return result.output

    # Every step runs the five rings in a freshly shuffled order, each on
    # its own batch, so all replay the same batches under the same machine
    # conditions (this machine's speed drifts by several percent within
    # seconds).  Each timed call follows one untimed innermost call on
    # another batch, so every ring starts from the same state — kernel
    # code and constants cached, the server's threads idle — whichever
    # ring ran before it; without that a direct call behind a served one
    # ran ~2x slower and the thin rings' medians sat between two modes.
    count = len(frames)
    rings = (
        ("kernels", kernels),
        ("BoundProgram.run", lambda batch: bound.run(**{param: padded[batch]}).output),
        (
            "Deployment.run",
            lambda batch: stack.deployment.run(padded[batch], worker=stack.worker).output,
        ),
        (
            "InferenceServer.infer_many",
            lambda batch: stack.server.infer_many(ctx.model, frames[batch], timeout=60),
        ),
        ("ClientPool.infer_batch", lambda batch: stack.clients.infer_batch(ctx.model, frames[batch])),
    )
    shuffle = random.Random(0)
    for step in range(count):
        for index in shuffle.sample(range(len(rings)), len(rings)):
            ring, call = rings[index]
            batch = (step + index) % count
            bound.run(**{param: padded[(batch + 1) % count]})
            if ring == "kernels":  # records its own spans, one per kernel call
                output = call(batch)
            else:
                output = recorder.timed(ring, batch, call, batch)
            check(output, expected[batch], raw=index < 3)
    run_one_us = _median_us(lambda: bound_one.run(**{param: padded[0][:1]}), count)

    kernel = {
        key: statistics.median(slot[key] for slot in shim.per_batch.values())
        for key in ("encode", "score", "pack", "bytes")
    }
    encode_us, score_us, pack_us = (kernel[key] * 1e6 for key in ("encode", "score", "pack"))
    run_us = recorder.median_us("BoundProgram.run")
    deployment_us = recorder.median_us("Deployment.run")
    infer_many_us = recorder.median_us("InferenceServer.infer_many")
    infer_batch_us = recorder.median_us("ClientPool.infer_batch")
    notes = report.notes
    metrics = {
        "kernels.encode_b64_us": (encode_us, "us"),
        "kernels.score_b64_us": (score_us, "us"),
        "kernels.pack_b64_us": (pack_us, "us"),
        "kernels.bytes_per_b64": (kernel["bytes"], "bytes"),
        "backends.run_b64_us": (run_us, "us"),
        "backends.run_b1_us": (run_one_us, "us"),
        "backends.dispatch_self_us": (run_us - encode_us - score_us - pack_us, "us"),
        "backends.stage_vectorized": (notes.get("stage_vectorized", 0), "count"),
        "backends.stage_fallbacks": (notes.get("stage_fallbacks", 0), "count"),
        "backends.kernel_launches": (report.kernel_launches, "count"),
        "serving.registry.self_us": (deployment_us - run_us, "us"),
        "serving.broker.self_us_per_row": ((infer_many_us - deployment_us) / rows, "us"),
        "serving.transport.self_us_per_row": ((infer_batch_us - infer_many_us) / rows, "us"),
    }
    return metrics, attempted, wrong


def batching_from_stats(stack: ServingStack, model: str) -> Metrics:
    """Batch shape and the per-model latency split, from the broker's own
    ``ServerStats`` after the onion replays."""
    stats = stack.server.stats()
    executed = padded = 0
    for size, count in stats.batch_size_histogram.items():
        bucket = bucket_for(int(size), BUCKET)
        executed += bucket * count
        padded += (bucket - int(size)) * count
    model_stats = stats.model_stats[model]
    return {
        "serving.batching.mean_batch_size": (stats.mean_batch_size, "count"),
        "serving.batching.pad_share": (padded / executed if executed else 0.0, "ratio"),
        "serving.batching.shed": (stats.deadline_exceeded, "count"),
        "serving.broker.queue_wait_p50_ms": (model_stats["queue_wait_p50_ms"], "ms"),
        "serving.broker.execute_p50_ms": (model_stats["execute_p50_ms"], "ms"),
        "serving.cache.hit_rate": (stats.cache_hit_rate, "ratio"),
    }


def broker_spans(ctx: ProbeContext, reps: Reps) -> Metrics:
    """The six request spans, read from the program's own tracing API on a
    second replay.  Each batch is represented by its first request (the
    one whose trace covers the whole call), divided by the batch's rows."""
    frames = ctx.frames[: reps.batches]
    rows = frames[0].shape[0]
    stack = ServingStack(
        ctx.servable,
        ctx.config,
        frames[0],
        tracing=True,
        trace_capacity=len(frames) * rows + BUCKET,
        trace_sample_every=1,
    )
    calls = []
    try:
        stack.server.traces(clear=True)
        for frame in frames:
            start = time.perf_counter()
            stack.server.infer_many(ctx.model, frame, timeout=60)
            calls.append(time.perf_counter() - start)
        traces = stack.server.traces()
    finally:
        stack.close()
    firsts = [traces[index] for index in range(0, len(traces) - rows + 1, rows)]
    metrics = {}
    for name in SPAN_NAMES:
        durations = [
            sum(span["end"] - span["start"] for span in trace["spans"] if span["name"] == name)
            for trace in firsts
        ]
        metrics[f"serving.broker.span.{name}.self_us"] = (
            statistics.median(durations) * 1e6 / rows,
            "us",
        )
    # What the program's own spans do not cover: the trace ends at the
    # settle mark, before the futures are resolved and the caller has
    # gathered them.
    untraced = [call - trace["duration_ms"] / 1e3 for call, trace in zip(calls, firsts)]
    metrics["serving.broker.span.untraced_us"] = (statistics.median(untraced) * 1e6 / rows, "us")
    return metrics


def tracing_overhead(ctx: ProbeContext, reps: Reps) -> Metrics:
    """1 - traced / untraced rows per second: two client threads replay
    the workload's batches closed-loop against a traced and an untraced
    server, in short alternating slices."""
    frames = ctx.frames[: reps.batches]
    stacks = {
        traced: ServingStack(ctx.servable, ctx.config, frames[0], tracing=traced)
        for traced in (False, True)
    }
    served = {False: [0, 0.0], True: [0, 0.0]}
    slices = 3

    def client(server, offset: int, deadline: float, counts: list) -> None:
        index = offset
        while time.perf_counter() < deadline:
            server.infer_many(ctx.model, frames[index % len(frames)], timeout=60)
            index += CLIENTS
        counts.append((index - offset) // CLIENTS)

    try:
        for _ in range(slices):
            for traced, stack in stacks.items():
                counts: list = []
                start = time.perf_counter()
                deadline = start + reps.overhead_seconds / slices
                threads = [
                    threading.Thread(target=client, args=(stack.server, offset, deadline, counts))
                    for offset in range(CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                served[traced][0] += sum(counts)
                served[traced][1] += time.perf_counter() - start
    finally:
        for stack in stacks.values():
            stack.close()
    rate = {traced: calls / seconds for traced, (calls, seconds) in served.items()}
    return {"serving.observability.tracing_overhead_share": (1.0 - rate[True] / rate[False], "ratio")}


def data_structures(ctx: ProbeContext, stack: ServingStack, reps: Reps) -> Metrics:
    """The batcher, scheduler, histogram and metrics snapshot stand-alone,
    plus the time ``InferenceServer.submit`` takes to return."""
    frame = ctx.frames[0]
    rows = frame.shape[0]

    def batcher_round() -> None:
        batcher = MicroBatcher(max_batch_size=BUCKET, max_wait_seconds=0.002)
        for row in frame:
            batcher.submit(row)
        if rows < BUCKET:
            batcher.close()  # a short frame is released by close, not the timer
        batcher.next_batch()

    scheduler = FairScheduler()
    scheduler.ensure_lane(ctx.model)
    work = BatchWork(stack.deployment, [])

    def scheduler_round() -> None:
        scheduler.offer(ctx.model, work)
        scheduler.next_ready(timeout=1.0)

    pool = WorkerPool(("cpu",))
    pool.start(lambda worker, item: None)
    try:
        dispatch_us = _median_us(lambda: pool.dispatch(ctx.servable, work), reps.micro)
    finally:
        pool.stop()

    submit_seconds = []
    for _ in range(max(2, reps.micro // 40)):
        futures = []
        for row in frame:
            start = time.perf_counter()
            futures.append(stack.server.submit(ctx.model, row))
            submit_seconds.append(time.perf_counter() - start)
        for future in futures:
            future.result(timeout=60)

    histogram = LatencyHistogram()
    record_count = reps.micro * 50
    start = time.perf_counter()
    for index in range(record_count):
        histogram.record(1e-3 + index * 1e-7)
    record_ns = (time.perf_counter() - start) / record_count * 1e9

    return {
        "serving.batching.submit_next_us_per_row": (
            _median_us(batcher_round, reps.micro // 4 + 1) / rows,
            "us",
        ),
        "serving.scheduler.offer_next_us": (_median_us(scheduler_round, reps.micro), "us"),
        "serving.scheduler.dispatch_us": (dispatch_us, "us"),
        "serving.broker.submit_call_us": (statistics.median(submit_seconds) * 1e6, "us"),
        "serving.metrics.stats_snapshot_ms": (
            _median_us(stack.server.stats, max(5, reps.micro // 20)) / 1e3,
            "ms",
        ),
        "serving.observability.hist_record_ns": (record_ns, "ns"),
    }


def cold_path(ctx: ProbeContext, stack: ServingStack, reps: Reps) -> Metrics:
    """Trace, passes, lower + verify on the workload's own program; compile,
    first run and steady run per target on the all-target classifier."""
    servable = ctx.servable
    metrics: Metrics = {
        "hdcpp.trace_ms": (_median_us(lambda: servable.build_program(BUCKET), reps.rounds * 2) / 1e3, "ms"),
    }
    program = servable.build_program(BUCKET)
    graphs = []

    def lower() -> None:
        graph = lower_program(clone_program(program))
        verify_graph(graph)
        graphs.append(graph)

    metrics["ir.lower_verify_ms"] = (_median_us(lower, reps.rounds * 2) / 1e3, "ms")
    metrics["ir.nodes"] = (len(graphs[-1].nodes), "count")
    reports = []

    def passes() -> None:
        pipeline = PassPipeline.from_config(ApproximationConfig(binarize=True))
        reports.append(pipeline.run(clone_program(program)))

    metrics["transforms.passes_ms"] = (_median_us(passes, reps.rounds * 2) / 1e3, "ms")
    rewrites = sum(
        getattr(report, "binarized_values", 0) for report in reports[-1].reports.values()
    )
    metrics["transforms.rewrites"] = (rewrites, "count")

    aux = ctx.aux_servable
    aux_program = aux.build_program(BUCKET)
    inputs = {aux.query_param: ctx.aux_rows, **aux.constants}
    for target in TARGETS:
        compile_s, first_s, steady_s = [], [], []
        for _ in range(reps.rounds):
            backend = backend_for_target(target)
            start = time.perf_counter()
            compiled = backend.compile(aux_program)
            compile_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            compiled.run(**inputs)
            first_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            compiled.run(**inputs)
            steady_s.append(time.perf_counter() - start)
        metrics[f"backends.compile_ms.{target}"] = (statistics.median(compile_s) * 1e3, "ms")
        metrics[f"backends.first_run_ms.{target}"] = (statistics.median(first_s) * 1e3, "ms")
        metrics[f"backends.steady_run_ms.{target}"] = (statistics.median(steady_s) * 1e3, "ms")

    cache = stack.server.registry.cache
    key = cache.make_key(servable.signature, stack.worker.backend.target, ctx.config, BUCKET, stack.worker.scope)
    metrics["serving.cache.hit_us"] = (
        _median_us(
            lambda: cache.get_or_compile(key, stack.worker.backend, lambda: program, config=ctx.config),
            reps.micro,
        ),
        "us",
    )
    metrics["serving.cache.signature_us"] = (
        _median_us(
            lambda: servable_signature(
                servable.name, servable.sample_shape, servable.constants, servable.signature_extra
            ),
            reps.rounds * 2,
        ),
        "us",
    )
    return metrics


def accelerators(ctx: ProbeContext, reps: Reps) -> Metrics:
    """Steady batch time on the two simulated accelerators with a warm
    device session (the serving worker's configuration), and how many
    memory transfers the session made against how many it elided."""
    aux = ctx.aux_servable
    program = aux.build_program(BUCKET)
    inputs = {aux.query_param: ctx.aux_rows, **aux.constants}
    metrics: Metrics = {}
    transfers = elided = 0
    for target, name in (("hdc_asic", "asic"), ("hdc_reram", "reram")):
        backend = backend_for_target(target, reuse_session=True)
        device = backend.device
        counted = [0]
        for method in ("allocate_base_mem", "allocate_class_mem"):
            original = getattr(device, method)

            def counting(*args, _original=original, **kwargs):
                counted[0] += 1
                return _original(*args, **kwargs)

            setattr(device, method, counting)
        compiled = backend.compile(program)
        compiled.run(**inputs)
        metrics[f"accelerators.{name}_run_ms"] = (
            _median_us(lambda: compiled.run(**inputs), reps.rounds + 1) / 1e3,
            "ms",
        )
        transfers += counted[0]
        elided += backend.last_session.elided_transfers
    metrics["accelerators.transfers"] = (transfers, "count")
    metrics["accelerators.elided_transfers"] = (elided, "count")
    return metrics


def control_plane(ctx: ProbeContext, reps: Reps) -> Metrics:
    """Register + warm, the in-process swap round, the update rule alone,
    and the update log's append and replay."""
    frame = ctx.frames[0]
    register_s = []
    for _ in range(reps.rounds):
        server = InferenceServer(registry=ModelRegistry(CompiledProgramCache()), **SERVER_OPTIONS)
        start = time.perf_counter()
        deployment = server.register(ctx.servable, config=ctx.config, warm="full")
        register_s.append(time.perf_counter() - start)
    residency = deployment.residency()
    resident = (
        residency["class_memory_bytes"]
        if residency is not None
        else sum(int(np.asarray(value).nbytes) for value in ctx.servable.constants.values())
    )

    updatable = ctx.servable if ctx.servable.updatable else ctx.aux_servable
    rows = frame if updatable is ctx.servable else ctx.aux_rows
    samples, labels = ctx.aux_update
    if updatable is ctx.servable and updatable is not ctx.aux_servable:
        # The workload's own servable learns from its own query rows.
        samples = np.concatenate(ctx.frames[:2])[:BUCKET]
        labels = np.concatenate(ctx.expected[:2])[:BUCKET].astype(np.int64)
    # Per process: the tier-1 smoke runs its children side by side.
    log = UpdateLog(os.path.join(OUT_DIR, f"probe.{os.getpid()}.updatelog"))
    log.clear()
    stack = ServingStack(updatable, None, rows, update_log=log)
    try:
        round_us = _median_us(
            lambda: stack.server.update(updatable.name, samples, labels), reps.rounds
        )
        swaps = stack.server.stats().swaps
        replica = ServingStack(updatable, None, rows)
        try:
            start = time.perf_counter()
            replayed = log.replay(replica.server)
            replay_ms = (time.perf_counter() - start) * 1e3 / len(replayed)
        finally:
            replica.close()
    finally:
        stack.close()
        log.clear()
    try:
        append_us = _median_us(lambda: log.append(updatable.name, samples, labels), reps.rounds)
    finally:
        log.clear()
    return {
        "serving.registry.register_warm_ms": (statistics.median(register_s) * 1e3, "ms"),
        "serving.registry.resident_class_memory_bytes": (resident, "bytes"),
        "serving.broker.update_round_ms": (round_us / 1e3, "ms"),
        "serving.broker.swaps": (swaps, "count"),
        "serving.servable.updated_ms": (
            _median_us(lambda: updatable.updated(samples, labels), reps.rounds) / 1e3,
            "ms",
        ),
        "serving.update_log.append_ms": (append_us / 1e3, "ms"),
        "serving.update_log.replay_ms_per_record": (replay_ms, "ms"),
    }


def transport(ctx: ProbeContext, stack: ServingStack, reps: Reps) -> Metrics:
    """The frame codec on one request and its response, a ping round trip,
    and the pool's routing decision."""
    frame = ctx.frames[0]
    answer = np.asarray(ctx.expected[0])

    def encode() -> tuple:
        fields, payload = encode_array_header(frame)
        request = encode_frame({"op": "infer_batch", "model": ctx.model, **fields}, payload)
        fields, payload = encode_array_header(answer)
        return request, encode_frame({"ok": True, **fields}, payload)

    request, response = encode()

    def decode() -> None:
        for blob in (request, response):
            header, payload = read_frame_sync(io.BytesIO(blob))
            decode_array(header, payload)

    host, port = stack.address
    with ServingClient(host, port, timeout=60) as client:
        ping_us = _median_us(client.ping, reps.micro)
        reconnects = client.reconnects
    return {
        "serving.transport.encode_us": (_median_us(encode, reps.micro), "us"),
        "serving.transport.decode_us": (_median_us(decode, reps.micro), "us"),
        "serving.transport.frame_bytes": (len(request) + len(response), "bytes"),
        "serving.transport.ping_rtt_us": (ping_us, "us"),
        "serving.transport.retries": (reconnects, "count"),
        "serving.replica.route_us": (
            _median_us(lambda: stack.clients.route_for(ctx.model), reps.micro),
            "us",
        ),
    }


def run_probes(ctx: ProbeContext, reps: Reps, recorder: SpanRecorder) -> tuple:
    """All per-layer metrics of one workload; returns (metrics, rows
    attempted, rows wrong)."""
    stack = ServingStack(ctx.servable, ctx.config, ctx.frames[0], wire=True)
    try:
        metrics, attempted, wrong = onion(ctx, stack, recorder, reps)
        metrics.update(batching_from_stats(stack, ctx.model))
        metrics.update(data_structures(ctx, stack, reps))
        metrics.update(cold_path(ctx, stack, reps))
        metrics.update(transport(ctx, stack, reps))
    finally:
        stack.close()
    metrics.update(broker_spans(ctx, reps))
    metrics.update(tracing_overhead(ctx, reps))
    metrics.update(accelerators(ctx, reps))
    metrics.update(control_plane(ctx, reps))
    return metrics, attempted, wrong
