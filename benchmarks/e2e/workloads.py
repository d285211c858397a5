"""The four workloads of the end-to-end benchmark.

Each workload builds its inputs and its oracle from ``--seed`` (input
generation, outside ``setup_s``), performs complete cold set-ups on
demand, and measures for ``--seconds`` along a **fixed op sequence**.
The program under test receives only the generated arrays.

The window is a row of short slices with a burst of reference work
between them (``harness.Calibrator``); every time is divided by how slow
the bursts beside it read, so all timings are in reference-speed
seconds.  How far along the op sequence a window gets depends on the
machine's speed; the metrics are medians over slices, so they do not.
See README.md for the measurements behind each size.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import harness
from harness import CLIENTS

from repro.apps import HDClassification, HDClassificationInference, HDClustering
from repro.apps import HDHashtable, HyperOMS, RelHD
from repro.backends import CPUBackend
from repro.baselines import (
    classification_cuda,
    classification_python,
    clustering_cuda,
    clustering_python,
    hashtable_python,
    hyperoms_cuda,
    relhd_cuda,
    relhd_python,
)
from repro.datasets import (
    CoraConfig,
    GenomicsConfig,
    IsoletConfig,
    SpectraConfig,
    make_cora_like,
    make_genomics_dataset,
    make_isolet_like,
    make_spectral_library,
)
from repro.kernels import reference as refkern
from repro.serving import CompiledProgramCache, InferenceServer, ModelRegistry, UpdateLog
from repro.serving import bucket_ladder
from repro.serving.replica import ClientPool
from repro.serving.transport import TransportServer
from repro.transforms.pipeline import ApproximationConfig

#: Every serving workload runs this server shape.
SERVER_OPTIONS = dict(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
BUCKET = 64
#: Seconds a client waits for one response before the call counts as failed.
CALL_TIMEOUT_S = 60.0
#: Latency percentiles are taken per segment of at least this many
#: consecutive calls (whole slices) and the median over segments is
#: reported, so a host stall moves one segment, not the reported figure.
SEGMENT_CALLS = 40
#: Where run outputs (update logs, result documents, traces) go.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class WindowResult:
    """What one measured window produced, before it is reduced to metrics.

    All times are in reference-speed seconds (measured seconds divided by
    the calibrator's slowness reading beside them) unless named ``raw``.
    """

    #: Per rate segment: rows answered correctly per second, and process
    #: CPU microseconds per row attempted.
    segment_rps: List[float]
    segment_cpu_us: List[float]
    #: Per latency segment (>= ``SEGMENT_CALLS`` consecutive calls): the
    #: client-call latencies in seconds.
    segment_latencies: List[np.ndarray]
    raw_latencies: List[float]
    #: The calibrator's reading for each slice (1.0 = nominal speed).
    slowness: List[float]
    #: Wall seconds from the first slice to the last, bursts included.
    window_s: float
    #: Rows (app runs on ``retarget_sweep``) attempted / answered wrongly.
    attempted: int
    failed: int
    #: SHA-1 of the op sequence — identical for one seed, different for another.
    schedule_sha1: str = ""
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass
class ProbeContext:
    """What the per-layer probes need from a workload (see probes.py)."""

    servable: object
    config: Optional[ApproximationConfig]
    model: str
    #: The workload's own batches, as the client sends them, with the
    #: oracle answer for each.
    frames: List[np.ndarray]
    expected: List[np.ndarray]
    #: An updatable, all-target classifier for the probes the workload's
    #: own servable cannot carry (online update, accelerator targets).
    aux_servable: object = None
    aux_rows: Optional[np.ndarray] = None
    aux_update: Optional[tuple] = None


def reference_labels(servable, rows: np.ndarray, config=None) -> np.ndarray:
    """The oracle: answers by the per-row reference route, never through
    the broker or the batched kernels."""
    compiled = CPUBackend(batched=False).compile(
        servable.build_program(rows.shape[0]), config=config
    )
    output = compiled.run(**{servable.query_param: rows}, **servable.constants).output
    if servable.postprocess is not None:
        output = servable.postprocess(output)
    return np.asarray(output)


def aux_classifier(seed: int):
    """A small HD-Classification servable: supports all four targets and
    carries an online-update rule, so every workload's traced run can
    measure the cold path per target and the swap round."""
    dataset = make_isolet_like(
        IsoletConfig(n_train=256, n_test=128, seed=harness.derive_int(seed, "aux.dataset"))
    )
    app = HDClassificationInference(dimension=1024, similarity="hamming")
    servable = app.as_servable(dataset=dataset, name="aux-isolet")
    update = (dataset.train_features[:BUCKET], dataset.train_labels[:BUCKET])
    return servable, dataset.test_features[:BUCKET], update


def brief_stats(stats) -> dict:
    """The few ``ServerStats`` fields worth keeping beside a window."""
    return {
        key: getattr(stats, key)
        for key in (
            "requests", "failures", "deadline_exceeded", "batches", "mean_batch_size",
            "swaps", "vectorized_stages", "fallback_stages", "cache_hits", "cache_misses",
        )
    }


def _smoke_cut(count: int, scale: float, floor: int = 1) -> int:
    """Repeat counts and pool sizes shrink with ``--scale`` below 0.1 (the
    tier-1 smoke runs at 0.005); at full scale they are the constants."""
    return max(floor, int(round(count * min(1.0, scale * 10))))


def _even(count: int) -> int:
    """Round down to a multiple of ``CLIENTS`` (at least one call each)."""
    return max(CLIENTS, count // CLIENTS * CLIENTS)


def latency_segments(slices) -> List[np.ndarray]:
    """Reference-speed latencies of consecutive whole slices, cut wherever
    ``SEGMENT_CALLS`` calls have gathered (a short tail joins the last)."""
    segments: List[list] = [[]]
    for piece in slices:
        if len(segments[-1]) >= SEGMENT_CALLS:
            segments.append([])
        segments[-1].extend(record.latency / piece.slowness for record in piece.records)
    if len(segments) > 1 and len(segments[-1]) < SEGMENT_CALLS:
        segments[-2].extend(segments.pop())
    return [np.asarray(segment) for segment in segments]


class ServingStack:
    """One complete serving stack, cold: fresh registry, fresh compile
    cache, fresh server, the full bucket ladder compiled and executed once
    (first-run gate probes included), so it is ready to serve at steady
    state; with ``wire`` also the socket front end and a client pool."""

    def __init__(self, servable, config, warm_rows: np.ndarray, wire: bool = False, **server_options):
        self.server = InferenceServer(
            registry=ModelRegistry(CompiledProgramCache()), **SERVER_OPTIONS, **server_options
        )
        self.deployment = self.server.register(servable, config=config, warm="full")
        self.server.start()
        self.worker = self.server.pool.workers[0]
        for bucket in bucket_ladder(BUCKET):
            self.deployment.run(warm_rows[:bucket], worker=self.worker)
        self.transport = self.address = self.clients = None
        if wire:
            self.transport = TransportServer(self.server)
            self.address = self.transport.start()
            self.clients = ClientPool([self.address], timeout=CALL_TIMEOUT_S)

    def close(self) -> None:
        if self.clients is not None:
            self.clients.close()
            self.transport.stop()
        self.server.stop()


class ServingWorkload:
    """Shared set-up / tear-down of the three serving workloads."""

    name = ""
    model = ""
    setup_repeats = 5
    config: Optional[ApproximationConfig] = None
    wire = False

    # Set by subclasses in __init__: servable, pool (query rows), expected.
    servable = None
    pool: np.ndarray
    expected: np.ndarray
    stack: Optional[ServingStack] = None

    def set_up(self, **server_options) -> None:
        """One complete cold set-up (see :class:`ServingStack`)."""
        self.stack = ServingStack(
            self.servable, self.config, self.pool, wire=self.wire, **server_options
        )
        self.server = self.stack.server

    def tear_down(self) -> None:
        self.stack.close()
        self.stack = self.server = None


class ClosedLoopServing(ServingWorkload):
    """Closed loop: two client threads, each issuing its calls back to
    back, in slices of ``calls_per_slice`` calls with a calibrator burst
    between slices."""

    #: Client calls per slice, both threads together: about 0.3 s of work.
    calls_per_slice = 0
    #: Rows a read carries.
    rows_per_call = BUCKET
    #: No machine state seen fits more slices than this into a second.
    MAX_SLICES_PER_SECOND = 6

    def __init__(self, seed: int, seconds: float, scale: float):
        self.seconds = seconds * scale
        self.warm_seconds = self.seconds / 10.0
        self.calls_per_slice = _even(_smoke_cut(self.calls_per_slice, scale))
        self.per_client = self.calls_per_slice // CLIENTS
        self.setup_repeats = _smoke_cut(self.setup_repeats, scale)
        self.max_slices = int((self.seconds + self.warm_seconds) * self.MAX_SLICES_PER_SECOND) + 8
        self.build_inputs(seed, scale)
        self.build_schedule(harness.derive_rng(seed, self.name, "schedule"))

    def build_inputs(self, seed: int, scale: float) -> None:
        """Query pool, servable and oracle."""
        raise NotImplementedError

    def build_schedule(self, rng: np.random.Generator) -> None:
        """The op sequence: one row per client thread, ``max_slices x
        per_client`` columns; slice i is columns [i, i + 1) x per_client."""
        raise NotImplementedError

    def argument(self, client: int, column: int):
        """What ``call`` receives for op (client, column)."""
        raise NotImplementedError

    def call(self, argument):
        raise NotImplementedError

    def wrong_rows(self, warm_records, records) -> Dict[tuple, Optional[int]]:
        """Per window call, by op: rows answered wrongly (all of them when
        the call raised), or ``None`` for a call that is not a read."""
        raise NotImplementedError

    def run(self, calibrator: harness.Calibrator) -> WindowResult:
        clients = harness.ClientThreads(self.call)

        def run_slice(index: int) -> tuple:
            columns = range(index * self.per_client, (index + 1) * self.per_client)
            return clients.run_slice(
                [
                    [((client, column), self.argument(client, column)) for column in columns]
                    for client in range(CLIENTS)
                ]
            )

        try:
            # The discarded warm-up walks the head of the op sequence.
            warm = harness.sliced_window(
                run_slice, calibrator, self.warm_seconds, self.max_slices // 4, min_slices=1
            )
            harness.freeze_gc()
            began = time.perf_counter()
            slices = harness.sliced_window(
                lambda index: run_slice(len(warm) + index),
                calibrator,
                self.seconds,
                self.max_slices - len(warm),
            )
            window_s = time.perf_counter() - began
        finally:
            clients.close()
        wrong = self.wrong_rows(
            [record for piece in warm for record in piece.records],
            [record for piece in slices for record in piece.records],
        )
        rps, cpu_us = [], []
        attempted = failed = 0
        for piece in slices:
            missed = [wrong[record.op] for record in piece.records]
            rows = self.rows_per_call * sum(1 for count in missed if count is not None)
            bad = sum(count for count in missed if count is not None)
            attempted += rows
            failed += bad
            rps.append((rows - bad) / (piece.wall / piece.slowness))
            cpu_us.append(piece.cpu / piece.slowness / max(rows, 1) * 1e6)
        return WindowResult(
            segment_rps=rps,
            segment_cpu_us=cpu_us,
            segment_latencies=latency_segments(slices),
            raw_latencies=[record.latency for piece in slices for record in piece.records],
            slowness=[piece.slowness for piece in slices],
            window_s=window_s,
            attempted=attempted,
            failed=failed + self.final_state_failures(),
            schedule_sha1=self.schedule_sha1(),
            notes={"server": brief_stats(self.server.stats())},
        )

    def final_state_failures(self) -> int:
        """Rows' worth of failures found in what the run left behind."""
        return 0

    def schedule_sha1(self) -> str:
        raise NotImplementedError


class InProcessSat(ClosedLoopServing):
    """In-process closed loop: each call is ``infer_many`` of 64 rows."""

    #: Rows of the query pool the 64-row frames are cut from.
    pool_rows = 0

    def __init__(self, seed: int, seconds: float, scale: float):
        self.pool_rows = _smoke_cut(self.pool_rows, scale, floor=BUCKET + 8)
        super().__init__(seed, seconds, scale)

    def build_schedule(self, rng: np.random.Generator) -> None:
        # Offsets into the query pool.
        high = self.pool.shape[0] - BUCKET + 1
        self.offsets = rng.integers(0, high, size=(CLIENTS, self.max_slices * self.per_client))

    def argument(self, client: int, column: int) -> int:
        return int(self.offsets[client, column])

    def call(self, offset: int):
        return self.server.infer_many(
            self.model, self.pool[offset : offset + BUCKET], timeout=CALL_TIMEOUT_S
        )

    def wrong_rows(self, warm_records, records) -> Dict[tuple, Optional[int]]:
        wrong = {}
        for record in records:
            if isinstance(record.output, Exception):
                wrong[record.op] = BUCKET
            else:
                offset = int(self.offsets[record.op])
                wrong[record.op] = int(
                    np.count_nonzero(record.output != self.expected[offset : offset + BUCKET])
                )
        return wrong

    def schedule_sha1(self) -> str:
        return harness.schedule_sha1(self.offsets, self.pool)

    def probe_context(self, seed: int, batches: int) -> ProbeContext:
        offsets = [int(offset) for offset in self.offsets[0, :batches]]
        aux, aux_rows, aux_update = aux_classifier(seed)
        return ProbeContext(
            servable=self.servable,
            config=self.config,
            model=self.model,
            frames=[self.pool[offset : offset + BUCKET] for offset in offsets],
            expected=[self.expected[offset : offset + BUCKET] for offset in offsets],
            aux_servable=aux,
            aux_rows=aux_rows,
            aux_update=aux_update,
        )


class RelHDSat(InProcessSat):
    """Broker-bound: a 7-row class memory, so the kernel is a few
    microseconds per row and per-request bookkeeping does most of the work."""

    name = "relhd_sat"
    model = "relhd"
    # Measured: ~35k rows/s = ~550 calls/s of 64 rows on one pinned CPU.
    calls_per_slice = 160
    dimension = 512
    n_classes = 7
    pool_rows = 4096

    def build_inputs(self, seed: int, scale: float) -> None:
        rng = harness.derive_rng(seed, self.name, "inputs")
        dim = self.dimension
        classes = np.sign(rng.standard_normal((self.n_classes, dim))).astype(np.float32)
        # Queries are class prototypes with 30 % of their elements flipped:
        # pre-encoded node hypervectors, as RelHD's host-side aggregation
        # would hand them to the served search.
        labels = rng.integers(0, self.n_classes, size=self.pool_rows)
        flips = np.where(rng.random((self.pool_rows, dim)) < 0.3, -1.0, 1.0)
        self.pool = (classes[labels] * flips).astype(np.float32)
        self.servable = RelHD(dimension=dim).as_servable(classes, name=self.model)
        self.expected = reference_labels(self.servable, self.pool)


class OmsPackedSat(InProcessSat):
    """Kernel-bound: level-ID encoding plus packed Hamming search against a
    2048-spectrum library registered with ``binarize``."""

    name = "oms_packed_sat"
    model = "hyperoms"
    config = ApproximationConfig(binarize=True)
    # Measured: ~23 ms per executed 64-row batch, ~42 calls/s.
    calls_per_slice = 12
    dimension = 2048
    n_library = 2048
    n_bins = 128
    n_levels = 16
    # The per-row reference route costs ~20 ms per query against this
    # library, so the oracle (and with it the query pool) is kept small;
    # frames are 64-row windows at 65 offsets into it.
    pool_rows = 128

    def build_inputs(self, seed: int, scale: float) -> None:
        dataset = make_spectral_library(
            SpectraConfig(
                n_library=_smoke_cut(self.n_library, scale, floor=128),
                n_queries=self.pool_rows,
                n_bins=self.n_bins,
                peaks_per_spectrum=24,
                noise_peaks=4,
                max_modification_bins=6,
                seed=harness.derive_int(seed, self.name, "dataset"),
            )
        )
        app = HyperOMS(dimension=self.dimension, n_levels=self.n_levels)
        library = app.encode_library(dataset.library_matrix)
        self.servable = app.as_servable(library, n_bins=self.n_bins, name=self.model)
        self.pool = dataset.query_matrix
        self.expected = reference_labels(self.servable, self.pool, config=self.config)


class WireRW(ClosedLoopServing):
    """Socket closed loop: reads of 48 rows beside online-update writes."""

    name = "wire_rw"
    model = "isolet"
    wire = True
    # Measured: ~150 calls/s over the two connections on one pinned CPU.
    calls_per_slice = 48
    rows_per_call = frame_rows = 48
    #: Every ``write_every``-th call on connection 0 is an update: two of a
    #: slice's 48 calls, so every slice carries the same mix, and with the
    #: reads that wait behind a write about a tenth of the calls are slow,
    #: so a segment's p95 sits inside that population, not on its edge.
    write_every = 12
    update_rows = 64
    #: Distinct read frames; the oracle is computed per (frame, version).
    n_frames = 8
    dimension = 2048

    def __init__(self, seed: int, seconds: float, scale: float):
        self.n_frames = _smoke_cut(self.n_frames, scale, floor=2)
        self.write_every = _smoke_cut(self.write_every, scale, floor=2)
        super().__init__(seed, seconds, scale)
        self.build_oracle()

    def build_inputs(self, seed: int, scale: float) -> None:
        dataset = make_isolet_like(
            IsoletConfig(
                n_train=1024,
                n_test=self.n_frames * self.frame_rows,
                seed=harness.derive_int(seed, self.name, "dataset"),
            )
        )
        app = HDClassificationInference(dimension=self.dimension, similarity="hamming")
        self.servable = app.as_servable(dataset=dataset, name=self.model)
        self.pool = dataset.test_features
        self.frames = self.pool.reshape(self.n_frames, self.frame_rows, -1)
        self.update_pool = (dataset.train_features, dataset.train_labels.astype(np.int64))

    def build_schedule(self, rng: np.random.Generator) -> None:
        shape = (CLIENTS, self.max_slices * self.per_client)
        self.frame_of = rng.integers(0, self.n_frames, size=shape)
        self.is_write = np.zeros(shape, dtype=bool)
        self.is_write[0, self.write_every - 1 :: self.write_every] = True
        self.write_index = np.cumsum(self.is_write[0]) - 1
        n_writes = int(self.is_write.sum())
        picks = rng.integers(0, self.update_pool[0].shape[0], size=(n_writes, self.update_rows))
        self.update_samples = self.update_pool[0][picks]
        self.update_labels = self.update_pool[1][picks]

    def build_oracle(self) -> None:
        # Row encodings do not depend on the model version (updates touch
        # only the class memory), so each row is encoded once, with the
        # per-row reference kernels.
        rp = self.servable.constants["rp"]
        self.encoded = [refkern.sign(refkern.matmul(row, rp)) for row in self.pool]
        self.latest = self.servable  # the offline fold, as far as ``expected`` reaches
        self.expected: List[np.ndarray] = []
        self.extend_oracle(0)
        # Version 0 is cross-checked against the whole-program per-row
        # route, so the encode-once shortcut cannot drift.
        whole = reference_labels(self.servable, self.pool[: 2 * self.frame_rows])
        if not np.array_equal(whole, self.expected[0].reshape(-1)[: 2 * self.frame_rows]):
            raise RuntimeError("wire_rw oracle shortcut disagrees with the per-row reference route")

    def extend_oracle(self, writes: int) -> None:
        """Offline answers for every (model version, frame) up to the
        version ``writes`` writes produce: an offline fold of
        ``Servable.updated`` over the write sequence, each version's class
        memory searched row by row with the reference kernels.  How many
        writes a window reaches depends on the machine's speed, so the
        fold is extended on demand."""
        while len(self.expected) <= writes:
            version = len(self.expected)
            if version:
                self.latest = self.latest.updated(
                    self.update_samples[version - 1], self.update_labels[version - 1]
                )
            classes = refkern.sign(self.latest.constants["class_hvs"])
            self.expected.append(
                np.asarray(
                    [refkern.arg_min(refkern.hamming_distance(row, classes)) for row in self.encoded]
                ).reshape(self.n_frames, self.frame_rows)
            )

    def set_up(self) -> None:
        # The log lives inside the checkout (the benchmark may write nowhere
        # else); its per-record fsync is ~1 ms here against a ~20 ms swap
        # round, with stalls of 40-140 ms a few times in a hundred writes.
        self.log = UpdateLog(os.path.join(OUT_DIR, f"wire_rw.{os.getpid()}.updatelog"))
        self.log.clear()
        super().set_up(update_log=self.log)
        self.clients = self.stack.clients

    def tear_down(self) -> None:
        super().tear_down()
        self.log.clear()

    def argument(self, client: int, column: int) -> tuple:
        if self.is_write[client, column]:
            return ("write", int(self.write_index[column]))
        return ("read", int(self.frame_of[client, column]))

    def call(self, argument):
        kind, index = argument
        if kind == "write":
            return self.clients.update(
                self.model, self.update_samples[index], self.update_labels[index]
            )
        return self.clients.infer_batch(self.model, self.frames[index])

    def wrong_rows(self, warm_records, records) -> Dict[tuple, Optional[int]]:
        """A read is correct when every row equals the offline answer of a
        model version that was current while the call was in flight: the
        versions from "writes acknowledged before it was sent" through
        "writes sent before it returned".  A write must return the next
        version; one that did not fails ``update_rows`` rows (see
        ``final_state_failures``)."""
        writes = sorted(
            (record for record in warm_records + records if self.is_write[record.op]),
            key=lambda record: record.started,
        )
        self.n_writes = len(writes)
        self.write_failures = 0
        for ordinal, record in enumerate(writes):
            # Registration is version 1; the k-th write must produce k + 1.
            if isinstance(record.output, Exception) or int(record.output) != ordinal + 2:
                self.write_failures += self.update_rows
        self.extend_oracle(self.n_writes)
        acknowledged = np.asarray([record.ended for record in writes])
        sent = np.asarray([record.started for record in writes])
        wrong = {}
        for record in records:
            if self.is_write[record.op]:
                wrong[record.op] = None
            elif isinstance(record.output, Exception):
                wrong[record.op] = self.frame_rows
            else:
                lo = int(np.searchsorted(acknowledged, record.started, side="right"))
                hi = int(np.searchsorted(sent, record.ended, side="left"))
                frame = int(self.frame_of[record.op])
                ok = np.zeros(self.frame_rows, dtype=bool)
                for version in range(lo, hi + 1):
                    ok |= record.output == self.expected[version][frame]
                wrong[record.op] = int(self.frame_rows - ok.sum())
        return wrong

    def final_state_failures(self) -> int:
        """After the run the served constants must equal the offline fold
        bit for bit, and the log must hold exactly one record per write."""
        served = self.server.registry.get(self.model).servable.constants
        offline = self.latest.constants  # wrong_rows folded exactly n_writes writes
        wrong = self.write_failures
        for key, value in offline.items():
            if not np.array_equal(np.asarray(served[key]), np.asarray(value)):
                wrong += self.update_rows
        if len(self.log) != self.n_writes:
            wrong += self.update_rows
        return wrong

    def schedule_sha1(self) -> str:
        return harness.schedule_sha1(
            self.frame_of, self.is_write, self.update_samples, self.update_labels, self.pool
        )

    def probe_context(self, seed: int, batches: int) -> ProbeContext:
        frames = [int(frame) for frame in self.frame_of[1, :batches]]
        return ProbeContext(
            servable=self.servable,
            config=None,
            model=self.model,
            frames=[self.frames[frame] for frame in frames],
            expected=[self.expected[0][frame] for frame in frames],
            aux_servable=self.servable,
            aux_rows=self.pool[:BUCKET],
            aux_update=(self.update_samples[0], self.update_labels[0]),
        )


class RetargetSweep:
    """The paper's experiment: every application on every target it maps
    to, each op one full ``app.run`` (trace, clone, passes, lower, verify,
    backend compile, execute).  Single thread, no serving."""

    name = "retarget_sweep"
    #: Complete cold sweeps are the set-up; five of them, median reported.
    setup_repeats = 5
    # Measured: ~0.68 s per sweep of the 14 pairs at the sizes below; no
    # machine state seen fits more than this many into a second.
    MAX_SWEEPS_PER_SECOND = 4
    #: A sweep is run as this many slices, a calibrator burst after each.
    SLICES_PER_SWEEP = 2
    #: Quality may trail the independent baseline by at most this much
    #: (tests/test_baselines.py allows 0.2 between implementation styles).
    quality_tolerance = 0.2

    def __init__(self, seed: int, seconds: float, scale: float):
        self.seconds = seconds * scale
        self.max_sweeps = int(self.seconds * self.MAX_SWEEPS_PER_SECOND) + 2
        self.setup_repeats = _smoke_cut(self.setup_repeats, scale)
        isolet = make_isolet_like(
            IsoletConfig(n_train=150, n_test=150, seed=harness.derive_int(seed, self.name, "isolet"))
        )
        spectra = make_spectral_library(
            SpectraConfig(
                n_library=40, n_queries=24, n_bins=128, peaks_per_spectrum=20,
                seed=harness.derive_int(seed, self.name, "spectra"),
            )
        )
        cora = make_cora_like(
            CoraConfig(n_nodes=160, seed=harness.derive_int(seed, self.name, "cora"))
        )
        genome = make_genomics_dataset(
            GenomicsConfig(
                genome_length=4000, n_reads=20, seed=harness.derive_int(seed, self.name, "genome")
            )
        )
        dim = 512
        hosts, everywhere = ("cpu", "gpu"), ("cpu", "gpu", "hdc_asic", "hdc_reram")
        # Per application: the app, its dataset, its targets, and the two
        # independent baselines — the per-sample one the CPU and accelerator
        # runs are held to, and the batched one the GPU run is held to (the
        # GPU back end trains in mini-batches, as the batched baselines do).
        apps = [
            ("hd-classification", HDClassification(dimension=dim, epochs=2), isolet, everywhere,
             lambda: classification_python.run(isolet, dimension=dim, epochs=2),
             lambda: classification_cuda.run(isolet, dimension=dim, epochs=2)),
            # Two k-means rounds: the app stops early once assignments repeat,
            # which a third round does on some seeds and not on others; two
            # always run, so every seed does the same amount of work.
            ("hd-clustering", HDClustering(dimension=dim, iterations=2), isolet, everywhere,
             lambda: clustering_python.run(isolet, dimension=dim, iterations=2),
             lambda: clustering_cuda.run(isolet, dimension=dim, iterations=2)),
            ("hyperoms", HyperOMS(dimension=dim, n_levels=8), spectra, hosts,
             lambda: hyperoms_cuda.run(spectra, dimension=dim, n_levels=8), None),
            ("relhd", RelHD(dimension=dim, epochs=2), cora, hosts,
             lambda: relhd_python.run(cora, dimension=dim, epochs=2),
             lambda: relhd_cuda.run(cora, dimension=dim, epochs=2)),
            ("hd-hashtable", HDHashtable(dimension=dim), genome, hosts,
             lambda: hashtable_python.run(genome, dimension=dim), None),
        ]
        self.pairs, self.baseline = [], {}
        for name, app, dataset, targets, per_sample, batched_style in apps:
            host = per_sample().quality
            gpu = batched_style().quality if batched_style is not None else host
            for target in targets:
                self.pairs.append((name, app, dataset, target))
                self.baseline[(name, target)] = gpu if target == "gpu" else host
        rng = harness.derive_rng(seed, self.name, "schedule")
        self.order = np.stack([rng.permutation(len(self.pairs)) for _ in range(self.max_sweeps)])
        #: Quality of each pair on its first run; every later run must match it.
        self.quality: Dict[tuple, float] = {}

    def run_pair(self, index: int) -> int:
        """One op; returns 1 when its quality misses the oracle."""
        name, app, dataset, target = self.pairs[index]
        try:
            quality = app.run(dataset, target=target).quality
        except Exception:  # noqa: BLE001 - a raised run is a failed op
            return 1
        first = self.quality.setdefault((name, target), quality)
        if quality != first or quality < self.baseline[(name, target)] - self.quality_tolerance:
            return 1
        return 0

    def set_up(self) -> None:
        for index in range(len(self.pairs)):
            self.run_pair(index)

    def tear_down(self) -> None:
        pass

    def run(self, calibrator: harness.Calibrator) -> WindowResult:
        per_sweep, parts = len(self.pairs), self.SLICES_PER_SWEEP
        per_slice = per_sweep // parts

        def run_slice(index: int) -> tuple:
            sweep, part = divmod(index, parts)
            records = []
            wall, cpu = time.perf_counter(), time.process_time()
            for pair in self.order[sweep, part * per_slice : (part + 1) * per_slice]:
                started = time.perf_counter()
                failed = self.run_pair(int(pair))
                ended = time.perf_counter()
                records.append(harness.CallRecord((sweep, int(pair)), started, ended, failed))
            return time.perf_counter() - wall, time.process_time() - cpu, records

        harness.freeze_gc()
        began = time.perf_counter()
        slices = harness.sliced_window(
            run_slice, calibrator, self.seconds, self.max_sweeps * parts, multiple=parts
        )
        window_s = time.perf_counter() - began
        # A segment is one whole sweep: every (app, target) pair once.
        rps, cpu_us, failures = [], [], 0
        for first in range(0, len(slices), parts):
            sweep = slices[first : first + parts]
            failed = sum(int(record.output) for piece in sweep for record in piece.records)
            failures += failed
            rps.append((per_sweep - failed) / sum(piece.wall / piece.slowness for piece in sweep))
            cpu_us.append(sum(piece.cpu / piece.slowness for piece in sweep) / per_sweep * 1e6)
        return WindowResult(
            segment_rps=rps,
            segment_cpu_us=cpu_us,
            segment_latencies=latency_segments(slices),
            raw_latencies=[record.latency for piece in slices for record in piece.records],
            slowness=[piece.slowness for piece in slices],
            window_s=window_s,
            attempted=len(rps) * per_sweep,
            failed=failures,
            schedule_sha1=harness.schedule_sha1(self.order),
            notes={
                "quality": {f"{name}.{target}": value for (name, target), value in self.quality.items()},
                "baseline": {f"{name}.{target}": value for (name, target), value in self.baseline.items()},
            },
        )

    def probe_context(self, seed: int, batches: int) -> ProbeContext:
        aux, aux_rows, aux_update = aux_classifier(seed)
        rows = np.concatenate([aux_rows, aux_rows[::-1]])
        frames = [rows[shift : shift + BUCKET] for shift in range(min(batches, BUCKET))]
        return ProbeContext(
            servable=aux,
            config=None,
            model=aux.name,
            frames=frames,
            expected=[reference_labels(aux, frame) for frame in frames],
            aux_servable=aux,
            aux_rows=aux_rows,
            aux_update=aux_update,
        )


WORKLOADS = {
    workload.name: workload for workload in (RelHDSat, OmsPackedSat, WireRW, RetargetSweep)
}


def end_to_end_metrics(result: WindowResult, setup_seconds: List[float], peak_rss_mb: float) -> dict:
    """Reduce a window to the seven end-to-end metrics (name -> value, unit)."""

    def latency_ms(q: float) -> float:
        per_segment = [harness.percentile(segment, q) for segment in result.segment_latencies]
        return statistics.median(per_segment) * 1e3

    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "rps": (statistics.median(result.segment_rps), "1/s"),
        "p50_ms": (latency_ms(50), "ms"),
        "p95_ms": (latency_ms(95), "ms"),
        "cpu_us_per_op": (statistics.median(result.segment_cpu_us), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": ((result.attempted - result.failed) / result.attempted, "ratio"),
    }
