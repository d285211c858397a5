"""Replayable update logs: persist the mini-batches behind served versions.

Online re-training (:meth:`RequestBroker.update`) derives each served model
version from the previous one plus a labelled mini-batch.  That derivation
is deterministic — the update rule is a pure function of (constants,
samples, labels) — so persisting the mini-batches *is* persisting the
model: a restarted server replays the log into a freshly registered
baseline and rebuilds the exact served version, bit-identically, without
snapshotting any trained state.

:class:`UpdateLog` is that persistence.  It is an append-only single file;
each record is one JSON header line (model name, sequence number, array
dtypes/shapes, the registry version the update produced) followed by the
raw bytes of the samples and labels arrays::

    {"model": "isolet", "seq": 1, "version": 2, "samples": {...}, ...}\\n
    <samples bytes><labels bytes>
    {"model": "isolet", "seq": 2, ...}\\n
    ...

No pickle anywhere — headers are JSON, payloads are raw C-order array
bytes — so a log is safe to read from untrusted storage and stable across
Python versions.

**Serving** — pass ``update_log=UpdateLog(path)`` to
:class:`~repro.serving.broker.RequestBroker` (or
:class:`~repro.serving.server.InferenceServer`, or a
:class:`~repro.serving.replica.ReplicaGroup`): every successful ``update``
round appends its mini-batch after the hot-swap lands, so the log always
describes versions that actually served.  After a restart, :meth:`replay`
applies the records through the same ``update`` path — same rule, same
arithmetic, same constants, hence the same versions and bit-identical
predictions.

Alongside re-training records the log holds **append records**
(``{"op": "append", ...}`` headers followed by the raw row bytes): the
shape-changing growth rounds of :meth:`RequestBroker.append`.  Growth is
deterministic too — ``append_batch`` is a pure function of (constants,
rows) — so replaying a growth log through ``target.append`` rebuilds
byte-identical grown constants (packed and unpacked) at the exact
recorded versions.

Crash safety: each record is one buffered write + fsync, so a crash can
only tear the *final* record.  Reads recover from a torn tail — they
warn and stop at the last valid record instead of raising — and the next
append truncates the torn bytes before writing.  The typed
:class:`UpdateLogError` is reserved for genuine mid-file corruption
(malformed complete headers, bad dtypes).

Appends and ``len`` cost O(1) in the log's length: the log remembers
(record count, valid end offset) after each write or scan and trusts it
only while the file's size still equals that offset; any other size (a
torn tail, an external truncation, another writer) falls back to a full
scan, so torn-tail repair is unchanged.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import warnings
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = ["UpdateLog", "UpdateRecord", "AppendRecord", "UpdateLogError"]


class UpdateLogError(RuntimeError):
    """A corrupt or unreadable update log (malformed header, unsupported
    dtype, unknown record op).  Typed so callers can distinguish a bad
    log file from the serving errors a replay might surface.  A *torn
    final record* (crash mid-append) is not corruption — reads recover
    by stopping at the last valid record with a warning."""


def _array_header(array: np.ndarray) -> dict:
    return {"dtype": array.dtype.str, "shape": list(array.shape)}


@dataclass(frozen=True)
class UpdateRecord:
    """One logged re-training round: the labelled mini-batch that produced
    a served version.

    Attributes:
        model: Deployment name the update applied to.
        seq: 1-based position in the log (append order).
        samples / labels: The mini-batch, exactly as passed to ``update``.
        version: The registry version the round produced (``None`` for
            a record stored without one, which replay does not check).
    """

    model: str
    seq: int
    samples: np.ndarray
    labels: np.ndarray
    version: Optional[int] = None


@dataclass(frozen=True)
class AppendRecord:
    """One logged growth round: the raw rows appended to a served model's
    growable constants (new bucket sequences, spectra, centroids).

    Attributes:
        model: Deployment name the append applied to.
        seq: 1-based position in the log (append order, shared with
            re-training records).
        rows: The appended rows, exactly as passed to ``append``.
        version: The registry version the round produced when it was
            logged live.
    """

    model: str
    seq: int
    rows: np.ndarray
    version: Optional[int] = None


LogRecord = Union[UpdateRecord, AppendRecord]

#: Record kind -> (record type, its array fields in payload order).
_RECORD_TYPES = {
    "update": (UpdateRecord, ("samples", "labels")),
    "append": (AppendRecord, ("rows",)),
}


class UpdateLog:
    """Append-only, replayable log of online-update mini-batches.

    Args:
        path: Log file location.  Created (parents included) on first
            append; reading a nonexistent log yields zero records.

    Thread safety: appends are serialized under an internal lock (the
    broker calls :meth:`write` from swap rounds, which are themselves
    serialized, but a shared log between brokers stays consistent).
    """

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()
        # While replay() drives a broker that has this same log attached,
        # the broker's post-update append hook must not re-log the very
        # records being replayed (the log would double on every restart).
        self._replaying = False
        # (record count, valid end offset) after the last write or scan.
        self._tail: Optional[Tuple[int, int]] = None

    # -- writing ------------------------------------------------------------------
    def append(
        self,
        model: str,
        samples: np.ndarray,
        labels: np.ndarray,
        version: Optional[int] = None,
    ) -> int:
        """:meth:`write` of one ``"update"`` record, its version optional
        (the write ``benchmarks/e2e/probes.py`` times as
        ``serving.update_log.append_ms``)."""
        return self.write("update", model, samples, labels, version=version)

    def write(self, kind: str, model: str, *arrays, version: Optional[int]) -> int:
        """Append one ``kind`` (``"update"`` / ``"append"``) record holding
        that round's arrays and the version it produced; returns its
        sequence number.

        The record is written with a single buffered write and flushed to
        the OS before returning, so a crash mid-serving loses at most the
        round being written, never an earlier one.
        """
        if self._replaying:
            return len(self)
        arrays = [np.ascontiguousarray(array) for array in arrays]
        with self._lock:
            seq = self._repair_locked() + 1
            # Re-training records carry no "op" field (the format predates
            # growth records); every other kind names itself.
            header = {} if kind == "update" else {"op": kind}
            version = None if version is None else int(version)
            header.update(model=str(model), seq=seq, version=version)
            for field, array in zip(_RECORD_TYPES[kind][1], arrays):
                header[field] = _array_header(array)
            payload = b"".join(array.tobytes() for array in arrays)
            self._tail = (seq, self._write_locked(header, payload))
        return seq

    def _write_locked(self, header: dict, payload: bytes) -> int:
        """One buffered write + fsync (caller holds the lock), so a crash
        mid-serving loses at most the record being written — as a torn,
        recoverable tail — never an earlier one; returns the new end."""
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + payload
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
            return handle.tell()

    def _tail_locked(self) -> Tuple[int, int, int]:
        """``(valid records, their end offset, file size)`` (caller holds
        the lock): the remembered tail while the file still ends there,
        else a full scan."""
        try:
            actual = self.path.stat().st_size
        except FileNotFoundError:
            actual = 0
        if self._tail is None or self._tail[1] != actual:
            count = end = 0
            for count, (_, end) in enumerate(self._scan(), 1):
                pass
            self._tail = (count, end)
        return (*self._tail, actual)

    def _repair_locked(self) -> int:
        """Truncate a torn final record if present (caller holds the
        lock); returns the count of valid records."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            count, end, actual = self._tail_locked()
        if actual > end:
            warnings.warn(
                f"update log {self.path} ends with a torn record (crash "
                f"mid-append); truncating {actual - end} trailing bytes to "
                f"the last valid record before appending",
                RuntimeWarning,
                stacklevel=3,
            )
            with self.path.open("r+b") as handle:
                handle.truncate(end)
        return count

    # -- reading ------------------------------------------------------------------
    def _scan(self) -> Iterator[Tuple[LogRecord, int]]:
        """Yield ``(record, end_offset)`` pairs in append order.

        A torn final record — the header line missing its newline, or the
        payload cut short at end of file (both only a crash mid-append can
        produce, because each record is one write) — ends the scan with a
        :class:`RuntimeWarning` instead of raising.  A *complete* but
        malformed record is mid-file corruption and raises the typed
        :class:`UpdateLogError`.
        """
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            seq = 0
            while True:
                line = handle.readline()
                if not line:
                    return
                if not line.endswith(b"\n"):
                    warnings.warn(
                        f"update log {self.path} ends with a torn record header "
                        f"(crash mid-append); ignoring it and stopping at the "
                        f"last valid record",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    return
                seq += 1
                try:
                    header = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise UpdateLogError(
                        f"malformed update-log header at record {seq} of {self.path}: {exc}"
                    ) from exc
                op = str(header.get("op") or "update")
                if op not in _RECORD_TYPES:
                    raise UpdateLogError(
                        f"update-log record {seq} of {self.path} has unknown op {op!r}"
                    )
                record_type, fields = _RECORD_TYPES[op]
                arrays = {}
                torn = False
                for field in fields:
                    spec = header.get(field)
                    if not isinstance(spec, dict) or "dtype" not in spec or "shape" not in spec:
                        raise UpdateLogError(
                            f"update-log record {seq} of {self.path} is missing "
                            f"the {field!r} array header"
                        )
                    try:
                        dtype = np.dtype(str(spec["dtype"]))
                    except TypeError as exc:
                        raise UpdateLogError(
                            f"update-log record {seq}: bad {field} dtype {spec['dtype']!r}"
                        ) from exc
                    if dtype.hasobject:
                        raise UpdateLogError(
                            f"update-log record {seq}: object dtypes are not allowed"
                        )
                    shape = tuple(int(d) for d in spec["shape"])
                    n_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                    data = handle.read(n_bytes)
                    if len(data) != n_bytes:
                        # A short read on a regular file means end of file:
                        # the record's header landed but its payload did
                        # not — a torn tail, not corruption.
                        warnings.warn(
                            f"update log {self.path} ends with a torn record "
                            f"payload (record {seq}, {field}: got {len(data)} of "
                            f"{n_bytes} bytes — crash mid-append); stopping at "
                            f"the last valid record",
                            RuntimeWarning,
                            stacklevel=3,
                        )
                        torn = True
                        break
                    arrays[field] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
                if torn:
                    return
                version = header.get("version")
                version = None if version is None else int(version)
                model = str(header.get("model", ""))
                record = record_type(model=model, seq=seq, version=version, **arrays)
                yield record, handle.tell()

    def records(self) -> Iterator[LogRecord]:
        """Iterate the logged records (re-training and growth) in append
        order, recovering from a torn final record with a warning."""
        for record, _ in self._scan():
            yield record

    def read_all(self) -> List[LogRecord]:
        """Every record, materialized (convenience over :meth:`records`)."""
        return list(self.records())

    def __len__(self) -> int:
        with self._lock:
            return self._tail_locked()[0]

    def models(self) -> List[str]:
        """Distinct model names appearing in the log, in first-seen order."""
        seen: List[str] = []
        for record in self.records():
            if record.model not in seen:
                seen.append(record.model)
        return seen

    # -- replay -------------------------------------------------------------------
    def replay(self, target, model: Optional[str] = None) -> List[int]:
        """Re-apply the logged rounds through ``target.update`` /
        ``target.append``.

        ``target`` is anything with the broker's update contract —
        :class:`~repro.serving.broker.RequestBroker`,
        :class:`~repro.serving.server.InferenceServer`, or a
        :class:`~repro.serving.transport.ServingClient`.  Records are
        applied in log order (optionally filtered to one ``model``):
        re-training records through ``update``, growth records through
        ``append``.  The returned list holds the registry version each
        round produced.

        Because both rules are deterministic, replaying into a fresh
        process that registered the same baseline servable rebuilds the
        exact served state: same versions, bit-identical (and, for packed
        deployments, byte-identical packed) constants and predictions.
        When the target broker has *this* log attached, the replayed
        rounds are not re-appended.

        Raises:
            UpdateLogError: A record's stored ``version`` disagrees with
                the version the replayed round produced — the target was
                not at the log's baseline (e.g. it already took updates).
        """
        versions: List[int] = []
        self._replaying = True
        try:
            for record in self.records():
                if model is not None and record.model != model:
                    continue
                if isinstance(record, AppendRecord):
                    version = target.append(record.model, record.rows)
                else:
                    version = target.update(record.model, record.samples, record.labels)
                if record.version is not None and int(version) != record.version:
                    raise UpdateLogError(
                        f"replay of record {record.seq} ({record.model!r}) produced "
                        f"version {version}, but the log recorded version "
                        f"{record.version} — the target is not at this log's baseline"
                    )
                versions.append(int(version))
        finally:
            self._replaying = False
        return versions

    def clear(self) -> None:
        """Delete the log file (the next append starts a fresh log)."""
        with self._lock:
            self._tail = None
            if self.path.exists():
                self.path.unlink()

    def __repr__(self) -> str:
        return f"UpdateLog({str(self.path)!r}, records={len(self)})"
