"""Tests for the replayable update log (repro.serving.update_log).

The central contract — same bar as the PR 5 online-retraining tests:
because the online update rule is a pure function of (constants,
samples, labels), persisting the labelled mini-batches behind each
served version *is* persisting the model.  A restarted server that
registers the same baseline and replays the log must end at the same
registry versions with bit-identical constants and predictions.  The
negative side: genuinely corrupt logs (malformed complete headers,
unsafe dtypes) fail with the typed :class:`UpdateLogError`; a *torn
final record* — the only damage a crash mid-append can cause, since
each record is one write — is recovered from by stopping at the last
valid record with a warning, and the next append truncates the torn
bytes; and a replay into a target that is not at the log's baseline is
detected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import HDClassificationInference
from repro.datasets import IsoletConfig, make_isolet_like
from repro.serving import InferenceServer, UpdateLog, UpdateLogError


@pytest.fixture(scope="module")
def dataset():
    return make_isolet_like(
        IsoletConfig(n_features=48, n_classes=6, n_train=180, n_test=48, seed=11)
    )


def make_servable(dataset):
    app = HDClassificationInference(dimension=256, similarity="hamming")
    return app.as_servable(dataset=dataset, name="isolet")


def rounds(dataset, n=3):
    return [
        (dataset.train_features[i::n], dataset.train_labels[i::n].astype(np.int64))
        for i in range(n)
    ]


class TestAppendAndRead:
    def test_round_trips_records_bit_exactly(self, tmp_path, dataset):
        log = UpdateLog(tmp_path / "u.log")
        for index, (samples, labels) in enumerate(rounds(dataset)):
            seq = log.append("isolet", samples, labels, version=index + 2)
            assert seq == index + 1
        records = log.read_all()
        assert [r.seq for r in records] == [1, 2, 3]
        assert [r.version for r in records] == [2, 3, 4]
        for record, (samples, labels) in zip(records, rounds(dataset)):
            assert record.model == "isolet"
            assert record.samples.dtype == samples.dtype
            assert np.array_equal(record.samples, samples)
            assert np.array_equal(record.labels, labels)

    def test_growth_records_round_trip_typed(self, tmp_path):
        """Append records interleave with re-training records, carry the
        raw row bytes, and come back as the typed AppendRecord."""
        from repro.serving.update_log import AppendRecord, UpdateRecord

        log = UpdateLog(tmp_path / "u.log")
        rows = np.arange(12, dtype=np.int64).reshape(3, 4)
        log.append(
            "m", np.zeros((1, 2), dtype=np.float32), np.zeros(1, dtype=np.int64), version=2
        )
        assert log.append_rows("m", rows, version=3) == 2
        records = log.read_all()
        assert isinstance(records[0], UpdateRecord)
        assert isinstance(records[1], AppendRecord)
        assert records[1].seq == 2
        assert records[1].version == 3
        assert records[1].rows.dtype == np.int64
        assert np.array_equal(records[1].rows, rows)

    def test_on_disk_bytes_are_pinned(self, tmp_path):
        """The file format, spelled by hand: re-training records carry no
        ``"op"`` field, growth records lead with ``"op":"append"``, each
        header line is followed by the raw C-order array bytes."""
        log = UpdateLog(tmp_path / "u.log")
        samples = np.array([[1.0, 2.0]], dtype=np.float32)
        labels = np.array([1], dtype=np.int64)
        rows = np.arange(4, dtype=np.int64).reshape(2, 2)
        log.append("m", samples, labels, version=2)
        log.append_rows("m", rows, version=3)
        log.append("m", samples, labels)
        update = (
            b'{"model":"m","seq":%d,"version":%s,'
            b'"samples":{"dtype":"<f4","shape":[1,2]},"labels":{"dtype":"<i8","shape":[1]}}\n'
        )
        growth = (
            b'{"op":"append","model":"m","seq":2,"version":3,'
            b'"rows":{"dtype":"<i8","shape":[2,2]}}\n'
        )
        assert (tmp_path / "u.log").read_bytes() == (
            update % (1, b"2") + samples.tobytes() + labels.tobytes()
            + growth + rows.tobytes()
            + update % (3, b"null") + samples.tobytes() + labels.tobytes()
        )  # fmt: skip

    def test_missing_file_is_an_empty_log(self, tmp_path):
        log = UpdateLog(tmp_path / "never-created.log")
        assert len(log) == 0
        assert log.read_all() == []
        assert log.models() == []

    def test_models_in_first_seen_order(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        batch = np.zeros((2, 4), dtype=np.float32)
        labels = np.zeros(2, dtype=np.int64)
        for model in ("b", "a", "b"):
            log.append(model, batch, labels)
        assert log.models() == ["b", "a"]

    def test_clear_deletes_and_restarts(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        log.append("m", np.zeros((1, 2), dtype=np.float32), np.zeros(1, dtype=np.int64))
        assert len(log) == 1
        log.clear()
        assert len(log) == 0
        assert log.append("m", np.zeros((1, 2), dtype=np.float32), np.zeros(1, dtype=np.int64)) == 1


class TestCorruptLogs:
    def _one_record_log(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        log.append(
            "m",
            np.arange(8, dtype=np.float32).reshape(2, 4),
            np.array([0, 1], dtype=np.int64),
        )
        return log

    def test_torn_final_payload_recovers_with_warning(self, tmp_path):
        """A crash mid-append tears the last record's payload; reads warn
        and stop at the last valid record instead of raising."""
        log = self._one_record_log(tmp_path)
        log.append(
            "m",
            np.arange(8, dtype=np.float32).reshape(2, 4),
            np.array([1, 0], dtype=np.int64),
        )
        data = log.path.read_bytes()
        log.path.write_bytes(data[:-5])
        with pytest.warns(RuntimeWarning, match="torn"):
            records = log.read_all()
        assert [r.seq for r in records] == [1]

    def test_torn_final_header_recovers_with_warning(self, tmp_path):
        """A crash can also land mid-header (no trailing newline)."""
        log = self._one_record_log(tmp_path)
        with log.path.open("ab") as handle:
            handle.write(b'{"model": "m", "seq": 2, "vers')
        with pytest.warns(RuntimeWarning, match="torn"):
            records = log.read_all()
        assert [r.seq for r in records] == [1]

    def test_append_truncates_a_torn_tail_first(self, tmp_path):
        """The next append repairs the file: torn bytes are truncated to
        the last valid record, then the new record lands cleanly."""
        log = self._one_record_log(tmp_path)
        data = log.path.read_bytes()
        log.path.write_bytes(data + b'{"model": "m", "seq": 2')
        with pytest.warns(RuntimeWarning, match="truncating"):
            seq = log.append(
                "m",
                np.arange(8, dtype=np.float32).reshape(2, 4),
                np.array([0, 1], dtype=np.int64),
            )
        assert seq == 2
        records = log.read_all()  # clean again: no warning, both records
        assert [r.seq for r in records] == [1, 2]

    def test_malformed_header_is_typed_error(self, tmp_path):
        log = self._one_record_log(tmp_path)
        log.path.write_bytes(b"not json at all\n" + b"\x00" * 16)
        with pytest.raises(UpdateLogError, match="malformed"):
            log.read_all()

    def test_missing_array_header_is_typed_error(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        log.path.write_bytes(b'{"model": "m", "seq": 1}\n')
        with pytest.raises(UpdateLogError, match="missing"):
            log.read_all()

    def test_object_dtype_is_rejected(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        header = (
            b'{"model": "m", "seq": 1, "version": null, '
            b'"samples": {"dtype": "|O", "shape": [1]}, '
            b'"labels": {"dtype": "<i8", "shape": [1]}}\n'
        )
        log.path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(UpdateLogError, match="dtype"):
            log.read_all()


class TestRememberedTail:
    """Appends and ``len`` trust the remembered (record count, end offset)
    while the file still ends there, so their cost does not grow with the
    log; any other file size is rescanned, so repair stays intact."""

    @staticmethod
    def _record(log) -> int:
        return log.append("m", np.zeros((1, 2), dtype=np.float32), np.zeros(1, dtype=np.int64))

    @staticmethod
    def _agrees(log) -> int:
        """``len(log)``, checked against a full scan."""
        assert len(log) == len(log.read_all())
        return len(log)

    def test_scans_per_append_do_not_grow_with_the_log(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serving.update_log.os.fsync", lambda fd: None)
        scans = {}
        for n in (10, 1000):
            log = UpdateLog(tmp_path / f"{n}.log")
            for _ in range(n):
                self._record(log)
            calls = []
            scan = log._scan
            monkeypatch.setattr(log, "_scan", lambda: calls.append(1) or scan())
            assert self._record(log) == n + 1 and len(log) == n + 1
            scans[n] = len(calls)
        assert scans[10] == scans[1000] == 0

    def test_torn_tail_after_the_tail_was_remembered_is_truncated(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        self._record(log)
        self._record(log)
        with log.path.open("ab") as handle:  # a crash mid-append, after the memo
            handle.write(b'{"model": "m", "seq": 3')
        with pytest.warns(RuntimeWarning, match="torn"):
            assert len(log) == 2
        with pytest.warns(RuntimeWarning, match="truncating"):
            assert self._record(log) == 3
        assert self._agrees(log) == 3
        assert [r.seq for r in log.read_all()] == [1, 2, 3]

    def test_externally_resized_file_is_rescanned(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        self._record(log)
        one_record = log.path.read_bytes()
        other = UpdateLog(log.path)  # a second writer on the same file
        self._record(other)
        self._record(other)
        assert self._agrees(log) == 3  # grown behind log's back
        assert self._record(log) == 4
        assert self._agrees(other) == 4
        log.path.write_bytes(one_record)  # truncated behind both backs
        assert self._agrees(log) == 1
        assert self._record(other) == 2 and self._agrees(log) == 2

    def test_clear_forgets_the_remembered_tail(self, tmp_path):
        log = UpdateLog(tmp_path / "u.log")
        self._record(log)
        assert self._agrees(log) == 1
        log.clear()
        assert log._tail is None
        assert self._agrees(log) == 0
        assert self._record(log) == 1 and self._agrees(log) == 1


class TestReplayRebuildsServedState:
    def test_restarted_server_is_bit_identical(self, tmp_path, dataset):
        """Live-train a server with the log attached, then rebuild a
        fresh server from the same baseline by replaying the log: same
        versions, bit-identical class memories and predictions."""
        servable = make_servable(dataset)
        queries = list(dataset.test_features)

        log = UpdateLog(tmp_path / "u.log")
        live = InferenceServer(workers=("cpu",), update_log=log)
        live.register(servable)
        with live:
            live_versions = [
                live.update("isolet", samples, labels) for samples, labels in rounds(dataset)
            ]
            live_predictions = live.infer_many("isolet", queries)
        assert live_versions == [2, 3, 4]
        assert [r.version for r in log.read_all()] == [2, 3, 4]

        # "Restart": a fresh process registers the same baseline servable
        # and replays the persisted log through the same update path.
        restarted = InferenceServer(workers=("cpu",), update_log=log)
        restarted.register(make_servable(dataset))
        with restarted:
            replayed_versions = log.replay(restarted)
            replayed_predictions = restarted.infer_many("isolet", queries)

        assert replayed_versions == live_versions
        live_classes = live.registry.get("isolet").servable.constants["class_hvs"]
        replayed_classes = restarted.registry.get("isolet").servable.constants["class_hvs"]
        assert np.array_equal(live_classes, replayed_classes)
        for live_p, replayed_p in zip(live_predictions, replayed_predictions):
            assert np.array_equal(np.asarray(live_p), np.asarray(replayed_p))

    def test_replay_does_not_reappend_to_the_attached_log(self, tmp_path, dataset):
        servable = make_servable(dataset)
        log = UpdateLog(tmp_path / "u.log")
        live = InferenceServer(workers=("cpu",), update_log=log)
        live.register(servable)
        with live:
            for samples, labels in rounds(dataset):
                live.update("isolet", samples, labels)
        assert len(log) == 3

        restarted = InferenceServer(workers=("cpu",), update_log=log)
        restarted.register(make_servable(dataset))
        with restarted:
            log.replay(restarted)
        assert len(log) == 3  # replayed rounds are already in the log

    def test_replay_into_non_baseline_target_is_detected(self, tmp_path, dataset):
        servable = make_servable(dataset)
        log = UpdateLog(tmp_path / "u.log")
        live = InferenceServer(workers=("cpu",), update_log=log)
        live.register(servable)
        with live:
            for samples, labels in rounds(dataset):
                live.update("isolet", samples, labels)

        # The target already took an update, so its versions are ahead
        # of the log's recorded ones.
        drifted = InferenceServer(workers=("cpu",))
        drifted.register(make_servable(dataset))
        with drifted:
            drifted.update("isolet", *rounds(dataset)[0])
            with pytest.raises(UpdateLogError, match="baseline"):
                log.replay(drifted)

    def test_model_filter_replays_a_subset(self, tmp_path, dataset):
        servable = make_servable(dataset)
        log = UpdateLog(tmp_path / "u.log")
        samples, labels = rounds(dataset)[0]
        # Interleave records for a model this target does not serve; the
        # filtered replay must skip them.
        log.append("other", samples, labels)
        log.append("isolet", samples, labels, version=2)
        server = InferenceServer(workers=("cpu",))
        server.register(servable)
        with server:
            versions = log.replay(server, model="isolet")
        assert versions == [2]
