"""Shared machinery of the end-to-end benchmark.

Seeded generators, the reference-work calibrator that takes the host's
wandering speed out of every timing, the closed-loop load generator that
works in slices between calibrator bursts, percentile helpers and the
in-memory span recorder the traced run writes out as a Chrome trace.

Everything here is workload-agnostic; the four workloads live in
:mod:`workloads` and the per-layer probes in :mod:`probes`.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import threading
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Load is generated by exactly this many client threads / connections
#: (the box has two cores; more generators would fight the server for them).
CLIENTS = 2


def derive_rng(seed: int, *salts: str) -> np.random.Generator:
    """A generator derived from (seed, salts) by hashing.

    Same construction as ``repro.bench.loadgen.derive_rng`` (kept local so
    the benchmark does not depend on a harness later issues may delete):
    streams named by different salts share no structure, and adding a new
    salt elsewhere never moves an existing stream.
    """
    digest = hashlib.sha256(":".join([str(int(seed)), *map(str, salts)]).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def derive_int(seed: int, *salts: str) -> int:
    """A 31-bit integer seed for generators that take an ``int`` seed."""
    return int(derive_rng(seed, *salts).integers(0, 2**31 - 1))


def schedule_sha1(*arrays) -> str:
    """SHA-1 over the canonical bytes of a workload's op sequence."""
    digest = hashlib.sha1()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def freeze_gc() -> None:
    """Noise control 6: collect, then move every survivor out of the
    collector's reach.  GC stays enabled — garbage made inside the window
    is still collected, but the set-up's long-lived objects (compiled
    programs, datasets) are never re-scanned mid-window."""
    gc.collect()
    gc.freeze()


def pin_to_one_cpu() -> Optional[int]:
    """Confine every thread of this process to one CPU; returns it (or
    ``None`` where the host refuses).

    The serving stack is GIL-bound, so its five threads run one at a time
    anyway; left free they hop between the two virtual CPUs, whose speeds
    differ from second to second on a shared host.  Pinned, the server,
    the load generators and the calibrator all see the same core, which
    is what lets the calibrator's reading stand for the work beside it
    (measured on ``relhd_sat``: two free client threads 25k rows/s and
    medians of 60 slices still 33 % apart after calibration; pinned 36k
    rows/s and 6 %).
    """
    cpu = max(os.sched_getaffinity(0))
    try:
        for task in os.listdir("/proc/self/task"):
            os.sched_setaffinity(int(task), {cpu})
    except OSError:  # a sandbox that forbids it: run unpinned, and say so
        return None
    return cpu


class Calibrator:
    """Reference work of fixed size, timed beside the measured work.

    The host this benchmark runs on is shared: the same single-threaded
    loop takes 8 ms in one second and 14 ms in another, in stretches of
    two to sixty seconds, with no steal time reported.  No window length
    the driver's time limit allows averages that out.  So every stretch
    of measured work has a burst of reference work timed before and after
    it, and its times are divided by how slow the bursts read: all times
    the benchmark reports are in **reference-speed seconds**, the time
    the work would have taken with the machine at the speed at which a
    burst takes its nominal time.

    The reference work is three kernels the measured code never touches,
    so no later change to the program can move it: an integer loop
    (bytecode dispatch), NumPy popcount search and a float matrix product
    (the kernels' kind of work), and an allocate / lock / dict loop (the
    broker's kind).  A reading is the mean over the kernels of measured /
    nominal time, median over the burst's rounds.
    """

    #: Seconds each kernel takes on this box at its usual speed.  They fix
    #: the unit only; a comparison of two commits divides them out.
    NOMINAL = {"bytecode": 0.0029, "numpy": 0.0047, "objects": 0.0033}
    ROUNDS = 3

    class _Slot:
        __slots__ = ("index", "stamp")

        def __init__(self, index, stamp):
            self.index, self.stamp = index, stamp

    def __init__(self):
        rng = np.random.default_rng(20251001)
        self._library = rng.integers(0, 2**63, size=(512, 32), dtype=np.uint64)
        self._queries = rng.integers(0, 2**63, size=(64, 32), dtype=np.uint64)
        self._left = rng.standard_normal((64, 512)).astype(np.float32)
        self._right = rng.standard_normal((512, 512)).astype(np.float32)
        self._lock = threading.Lock()
        self.seconds = 0.0  # spent in bursts
        self.burst()  # warm caches; not a reading
        self.seconds = 0.0

    def _bytecode(self) -> int:
        total = 0
        for value in range(60000):
            total += value * value
        return total

    def _numpy(self) -> int:
        distance = np.bitwise_count(self._queries[:, None, :] ^ self._library[None, :, :])
        nearest = distance.sum(axis=2).argmin(axis=1)
        signs = np.sign(self._left @ self._right)
        signs = np.sign(signs @ self._right)
        return int(nearest[0]) + int(signs[0, 0])

    def _objects(self) -> int:
        table, kept = {}, []
        for index in range(6000):
            slot = self._Slot(index, time.perf_counter())
            with self._lock:
                table[index & 255] = slot
            kept.append(slot.index + len(table))
        return sum(kept)

    def burst(self) -> float:
        """Time the reference work; returns how slow the machine reads
        (1.0 = nominal speed, 1.5 = everything takes half as long again)."""
        kernels = (("bytecode", self._bytecode), ("numpy", self._numpy), ("objects", self._objects))
        began = time.perf_counter()
        rounds = []
        for _ in range(self.ROUNDS):
            reading = 0.0
            for name, kernel in kernels:
                start = time.perf_counter()
                kernel()
                reading += (time.perf_counter() - start) / self.NOMINAL[name]
            rounds.append(reading / len(kernels))
        self.seconds += time.perf_counter() - began
        return statistics.median(rounds)


def _compact(output):
    """Keep a response as one flat array, not a list of boxed scalars: the
    window retains every response for verification, and hundreds of
    thousands of live list slots make each collector pass dearer as the
    window goes on (measured: rows/s fell 40 % by mid-window)."""
    return output if isinstance(output, Exception) else np.asarray(output)


class CallRecord:
    """One client call of the window (or the warm-up)."""

    __slots__ = ("op", "started", "ended", "output")

    def __init__(self, op, started, ended, output):
        self.op = op  # index into the workload's op sequence
        self.started = started  # perf_counter when the call was sent
        self.ended = ended
        self.output = _compact(output)  # the response, or the exception it raised

    @property
    def latency(self) -> float:
        return self.ended - self.started


class Slice:
    """One stretch of measured work between two calibrator bursts."""

    __slots__ = ("wall", "cpu", "slowness", "records")

    def __init__(self, wall, cpu, slowness, records):
        self.wall = wall  # seconds the stretch took
        self.cpu = cpu  # process CPU seconds over the same stretch
        self.slowness = slowness  # mean of the bursts before and after it
        self.records = records  # its CallRecords


def closed_loop(call: Callable, ops: Sequence) -> List[CallRecord]:
    """Issue ``ops`` back to back: the next op leaves when the previous
    one returned.  ``ops`` is a sequence of ``(op_index, argument)``."""
    records = []
    for op, argument in ops:
        started = time.perf_counter()
        try:
            output = call(argument)
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            output = exc
        records.append(CallRecord(op, started, time.perf_counter(), output))
    return records


class ClientThreads:
    """The ``CLIENTS`` load-generator threads of a closed loop.

    The threads live as long as the object (a per-thread socket connection
    opened in the first slice stays open for the rest) and run one slice
    at a time, when :meth:`run_slice` hands each its ops; between slices
    they wait, so a calibrator burst has the CPU to itself.
    """

    def __init__(self, call: Callable):
        self._call = call
        self._ops: Sequence[Sequence] = ()
        self._records: List[List[CallRecord]] = [[] for _ in range(CLIENTS)]
        self._start = threading.Barrier(CLIENTS + 1)
        self._end = threading.Barrier(CLIENTS + 1)
        self._threads = [
            threading.Thread(target=self._body, args=(client,), name=f"e2e-client-{client}", daemon=True)
            for client in range(CLIENTS)
        ]
        for thread in self._threads:
            thread.start()

    def _body(self, client: int) -> None:
        while True:
            self._start.wait()
            if self._ops is None:
                return
            self._records[client] = closed_loop(self._call, self._ops[client])
            self._end.wait()

    def run_slice(self, ops_per_client: Sequence[Sequence]) -> tuple:
        """Each client issues its ops back to back; returns ``(wall
        seconds, process CPU seconds, records)`` of the slice."""
        self._ops = ops_per_client
        wall, cpu = time.perf_counter(), time.process_time()
        self._start.wait()
        self._end.wait()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return wall, cpu, [record for client in self._records for record in client]

    def close(self) -> None:
        self._ops = None
        self._start.wait()
        for thread in self._threads:
            thread.join()


def sliced_window(
    run_slice: Callable[[int], tuple],
    calibrator: Calibrator,
    seconds: float,
    max_slices: int,
    min_slices: int = 2,
    multiple: int = 1,
) -> List[Slice]:
    """Measure for ``seconds``: slice, burst, slice, burst, ...

    ``run_slice(index)`` performs the index-th slice of the op sequence
    and returns ``(wall, cpu, records)``.  The window ends with the first
    slice that finishes after ``seconds`` (bursts included), or when the
    op sequence runs out, and holds a multiple of ``multiple`` slices.
    How many slices fit depends on the machine's speed; the metrics are
    medians over slices, so they do not.
    """
    slices: List[Slice] = []
    began = time.perf_counter()
    before = calibrator.burst()
    while len(slices) < max_slices and (
        time.perf_counter() - began < seconds
        or len(slices) < min_slices
        or len(slices) % multiple
    ):
        wall, cpu, records = run_slice(len(slices))
        after = calibrator.burst()
        slices.append(Slice(wall, cpu, (before + after) / 2.0, records))
        before = after
    return slices


class SpanRecorder:
    """In-memory spans of the traced run: ``(name, start, end, parent)``.

    ``parent`` is the batch id the span belongs to; spans of one batch
    share it.  Nothing is written until :meth:`chrome_trace` at exit.
    """

    def __init__(self):
        self.spans: List[tuple] = []

    def timed(self, name: str, parent: int, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, start, time.perf_counter(), parent))
        return result

    def durations_us(self, name: str) -> List[float]:
        return [(end - start) * 1e6 for span, start, end, _ in self.spans if span == name]

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations_us(name))

    def chrome_trace(self, rings: Sequence[str]) -> dict:
        """Chrome trace-event document: one virtual thread per onion ring
        (kernel spans share the innermost), ``args.batch`` = parent id."""
        tids = {ring: tid for tid, ring in enumerate(rings, start=1)}
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": ring}}
            for ring, tid in tids.items()
        ]
        for name, start, end, parent in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": "e2e",
                    "ph": "X",
                    "pid": 1,
                    "tid": tids.get(name, 1),
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"batch": parent},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
