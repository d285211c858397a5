"""Tests for the network front end (repro.serving.transport).

The end-to-end tests launch the asyncio socket server over a running
:class:`InferenceServer` and drive it with blocking clients — including
the multi-client smoke test the CI transport job runs under a pytest
timeout (a hung event loop fails fast instead of stalling the workflow).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import pathlib
import struct
import threading
import time

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps.classification import classification_servable
from repro.apps.common import bipolar_random
from repro.backends import compile as hdc_compile
from repro.serving import DeadlineExceeded, InferenceServer, Servable
from repro.serving.transport import (
    PROTOCOL_VERSION,
    FrameError,
    ProtocolVersionError,
    RemoteServingError,
    ServingClient,
    TransportServer,
    decode_array,
    encode_array_header,
    encode_frame,
    read_frame_sync,
)

DIM = 128
CLASSES = 6
N_QUERIES = 40


def make_servable(seed: int = 5, name: str = "bipolar-net") -> Servable:
    """A bipolar classifier: exact in every path, so served results must be
    bit-identical to per-request execution."""
    classes = bipolar_random(CLASSES, DIM, seed=seed)

    def build_program(batch_size: int) -> H.Program:
        prog = H.Program(f"{name}_b{batch_size}")

        @prog.define(H.hv(DIM), H.hm(CLASSES, DIM))
        def infer_one(encoding, class_hvs):
            distances = H.hamming_distance(H.sign(encoding), H.sign(class_hvs))
            return H.arg_min(distances)

        @prog.entry(H.hm(batch_size, DIM), H.hm(CLASSES, DIM))
        def main(encodings, class_hvs):
            return H.inference_loop(infer_one, encodings, class_hvs)

        return prog

    return Servable(
        name=name,
        build_program=build_program,
        constants={"class_hvs": classes},
        query_param="encodings",
        sample_shape=(DIM,),
        supported_targets=("cpu", "gpu"),
    )


@pytest.fixture(scope="module")
def servable():
    return make_servable()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(11)
    return (rng.integers(0, 2, (N_QUERIES, DIM)) * 2 - 1).astype(np.float32)


@pytest.fixture(scope="module")
def expected_labels(servable, queries):
    handle = hdc_compile(servable.build_program(1), target="cpu").bind(**servable.constants)
    return [
        int(np.asarray(handle.run(encodings=queries[i : i + 1]).output)[0])
        for i in range(queries.shape[0])
    ]


@pytest.fixture(scope="module")
def serving_stack(servable):
    """A running InferenceServer + TransportServer on an ephemeral port."""
    server = InferenceServer(workers=("cpu", "cpu"), max_batch_size=16, max_wait_seconds=0.002)
    server.register(servable, slo_ms=30_000.0)
    server.start()
    transport = TransportServer(server)
    host, port = transport.start()
    yield server, host, port
    transport.stop()
    server.stop()


class TestFrameProtocol:
    def test_frame_round_trip(self):
        header = {"op": "infer", "model": "m", "priority": 2, "deadline_ms": None}
        payload = b"\x00\x01\x02payload"
        frame = encode_frame(header, payload)
        got_header, got_payload = read_frame_sync(io.BytesIO(frame))
        assert got_header == header and got_payload == payload

    def test_empty_payload_round_trip(self):
        frame = encode_frame({"op": "stats"})
        header, payload = read_frame_sync(io.BytesIO(frame))
        assert header == {"op": "stats"} and payload == b""

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        for array in (
            rng.standard_normal((3, 5)).astype(np.float32),
            np.arange(7, dtype=np.int64),
            np.int64(42),  # 0-d result scalar
        ):
            fields, payload = encode_array_header(np.asarray(array))
            restored = decode_array(fields, payload)
            assert np.array_equal(restored, np.asarray(array))
            assert restored.dtype == np.asarray(array).dtype

    def test_truncated_stream_raises(self):
        frame = encode_frame({"op": "ping"}, b"1234")
        with pytest.raises(FrameError):
            read_frame_sync(io.BytesIO(frame[:-2]))

    def test_oversized_prefix_rejected(self):
        bogus = struct.pack("!II", 2**31, 16)
        with pytest.raises(FrameError):
            read_frame_sync(io.BytesIO(bogus + b"\x00" * 64))

    def test_non_object_header_rejected(self):
        body = json.dumps([1, 2]).encode()
        frame = struct.pack("!II", len(body), 0) + body
        with pytest.raises(FrameError):
            read_frame_sync(io.BytesIO(frame))

    def test_payload_length_mismatch_rejected(self):
        with pytest.raises(FrameError):
            decode_array({"dtype": "float32", "shape": [4]}, b"\x00" * 8)


class TestSocketServing:
    def test_infer_matches_in_process(self, serving_stack, servable, queries, expected_labels):
        server, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            assert client.ping()
            for i in range(8):
                remote = int(client.infer(servable.name, queries[i]))
                local = int(np.asarray(server.infer(servable.name, queries[i])))
                assert remote == local == expected_labels[i]

    def test_infer_batch_row_aligned(self, serving_stack, servable, queries, expected_labels):
        _, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            out = client.infer_batch(servable.name, queries)
            assert out.shape == (N_QUERIES,)
            assert [int(v) for v in out] == expected_labels

    def test_list_models_and_stats(self, serving_stack, servable):
        _, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            client.infer(servable.name, np.ones(DIM, dtype=np.float32))
            client.drain()
            assert servable.name in client.list_models()
            stats = client.stats()
            assert stats["requests"] >= 1
            assert stats["failures"] == 0
            model = stats["model_stats"][servable.name]
            assert model["requests"] >= 1
            assert model["slo_ms"] == 30_000.0
            assert model["slo_violations"] == 0
            assert model["mean_queue_wait_ms"] >= 0.0
            assert model["mean_execute_ms"] > 0.0
            json.dumps(stats)  # the whole snapshot is JSON-serializable

    def test_expired_deadline_raises_typed_error(self, serving_stack, servable, queries):
        _, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            with pytest.raises(DeadlineExceeded):
                client.infer(servable.name, queries[0], deadline_ms=1e-6)
            # The connection survives a shed request.
            assert int(client.infer(servable.name, queries[0])) >= 0

    def test_infer_batch_is_one_completion_per_frame(self, serving_stack, servable, queries):
        """A frame's rows settle as one completion: a shed frame raises
        the typed error once, a mis-shaped row refuses the whole frame,
        and the connection (and the workers) survive both."""
        server, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            with pytest.raises(DeadlineExceeded):
                client.infer_batch(servable.name, queries[:8], deadline_ms=1e-6)
            with pytest.raises(RemoteServingError) as excinfo:
                client.infer_batch(servable.name, np.zeros((4, DIM + 1), dtype=np.float32))
            assert excinfo.value.error_type == "ValueError"
            client.drain()  # nothing of either frame is left outstanding
            local = [int(np.asarray(v)) for v in server.infer_many(servable.name, queries[:8])]
            before = client.stats()["batches"]
            assert [int(v) for v in client.infer_batch(servable.name, queries[:8])] == local
            assert client.stats()["batches"] - before == 1  # one frame, one executed batch

    def test_infer_batch_payload_is_the_stacked_rows_byte_for_byte(self, servable, queries):
        """The response array is built from the settled values in one
        ``np.asarray``: the same dtype, shape and bytes as stacking each
        row's value — for labels, and for per-row arrays (a top-k)."""
        top3 = dataclasses.replace(
            servable,
            name="top3-net",
            postprocess=lambda labels: np.stack([labels, labels + 1, labels + 2], axis=1),
        )
        server = InferenceServer(workers=("cpu",), max_batch_size=64, max_wait_seconds=0.002)
        server.register(servable)
        server.register(top3)
        with server:
            transport = TransportServer(server)
            host, port = transport.start()
            try:
                with ServingClient(host, port, timeout=30.0) as client:
                    for name, row_shape in ((servable.name, ()), (top3.name, (3,))):
                        stacked = np.stack(
                            [np.asarray(v) for v in server.infer_many(name, queries[:32])]
                        )
                        out = client.infer_batch(name, queries[:32])
                        assert stacked.shape == out.shape == (32, *row_shape)
                        assert (out.dtype, out.tobytes()) == (stacked.dtype, stacked.tobytes())
            finally:
                transport.stop()

    def test_unknown_model_is_request_error_not_disconnect(self, serving_stack, servable, queries):
        _, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.infer("no-such-model", queries[0])
            assert excinfo.value.error_type == "KeyError"
            with pytest.raises(RemoteServingError):
                client.infer_batch(servable.name, np.zeros((0, DIM), dtype=np.float32))
            assert int(client.infer(servable.name, queries[0])) >= 0

    def test_bad_sample_shape_reported(self, serving_stack, servable):
        _, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.infer(servable.name, np.zeros(DIM + 1, dtype=np.float32))
            assert excinfo.value.error_type == "ValueError"

    def test_multi_client_smoke(self, serving_stack, servable, queries, expected_labels):
        """8 concurrent socket clients; every result bit-identical.

        This is the smoke test CI runs against the launched socket server
        (with a pytest timeout so a hung event loop fails the job fast).
        """
        _, host, port = serving_stack
        n_clients, per_client = 8, 10
        rng = np.random.default_rng(7)
        picks = rng.integers(0, N_QUERIES, size=(n_clients, per_client))
        results = [[None] * per_client for _ in range(n_clients)]
        errors = []

        def client_thread(c: int) -> None:
            try:
                with ServingClient(host, port, timeout=60.0) as client:
                    for j, index in enumerate(picks[c]):
                        results[c][j] = int(client.infer(servable.name, queries[index]))
            except Exception as exc:  # surfaces in the main thread's assert
                errors.append((c, exc))

        threads = [threading.Thread(target=client_thread, args=(c,)) for c in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, errors
        for c in range(n_clients):
            for j, index in enumerate(picks[c]):
                assert results[c][j] == expected_labels[index]


class TestProtocolHandshake:
    """PROTOCOL_VERSION is enforced, not informational: mismatched (or
    handshake-less) clients are rejected with a typed error frame."""

    def test_mismatched_client_version_raises_typed_error(self, serving_stack, monkeypatch):
        _, host, port = serving_stack
        from repro.serving.transport import client as client_module

        monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 999)
        with pytest.raises(ProtocolVersionError) as excinfo:
            # max_retries must NOT heal a deterministic version mismatch —
            # the typed error escapes the reconnect machinery immediately.
            ServingClient(host, port, timeout=5.0, max_retries=5, backoff_seconds=0.01)
        assert "999" in str(excinfo.value)
        assert str(PROTOCOL_VERSION) in str(excinfo.value)

    def test_legacy_client_without_hello_is_rejected(self, serving_stack):
        """A pre-handshake client whose first frame is an operation gets
        the typed rejection frame, then the connection is closed."""
        import socket as socket_module

        _, host, port = serving_stack
        with socket_module.create_connection((host, port), timeout=5.0) as sock:
            sock.settimeout(5.0)
            stream = sock.makefile("rb")
            sock.sendall(encode_frame({"op": "ping"}))  # no hello first
            header, _ = read_frame_sync(stream)
            assert header["ok"] is False
            assert header["error_type"] == "ProtocolVersionError"
            assert header["version"] == PROTOCOL_VERSION  # server reports its side
            with pytest.raises(FrameError):  # server hung up after rejecting
                read_frame_sync(stream)

    def test_matching_handshake_is_acknowledged(self, serving_stack):
        import socket as socket_module

        _, host, port = serving_stack
        with socket_module.create_connection((host, port), timeout=5.0) as sock:
            sock.settimeout(5.0)
            stream = sock.makefile("rb")
            sock.sendall(encode_frame({"op": "hello", "version": PROTOCOL_VERSION}))
            header, _ = read_frame_sync(stream)
            assert header == {"ok": True, "version": PROTOCOL_VERSION}
            sock.sendall(encode_frame({"op": "ping"}))  # connection stays usable
            header, _ = read_frame_sync(stream)
            assert header["ok"] is True and header["running"] is True


class TestOnlineUpdateOverTheWire:
    """The transport's update / model_versions ops: online re-training
    with versioned zero-downtime hot-swap, driven from a socket client."""

    N_FEATURES, N_CLASSES, UPD_DIM = 16, 4, 64

    def _updatable_stack(self):
        rng = np.random.default_rng(23)
        servable = classification_servable(
            "net-updatable",
            dimension=self.UPD_DIM,
            similarity="hamming",
            rp_matrix=bipolar_random(self.UPD_DIM, self.N_FEATURES, seed=3),
            classes=rng.standard_normal((self.N_CLASSES, self.UPD_DIM)).astype(np.float32),
        )
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)
        server.register(make_servable(name="net-frozen"))  # no update rule
        server.start()
        transport = TransportServer(server)
        host, port = transport.start()
        return server, transport, host, port, servable

    def test_update_bumps_version_and_serves_retrained_state(self):
        server, transport, host, port, servable = self._updatable_stack()
        rng = np.random.default_rng(29)
        samples = rng.standard_normal((12, self.N_FEATURES)).astype(np.float32)
        labels = rng.integers(0, self.N_CLASSES, 12)
        try:
            with ServingClient(host, port, timeout=30.0) as client:
                assert client.model_versions() == {"net-frozen": 1, "net-updatable": 1}
                before = int(client.infer(servable.name, samples[0]))
                assert client.update(servable.name, samples, labels) == 2
                assert client.model_versions()["net-updatable"] == 2
                # The served state now equals an offline retrain on the
                # same mini-batch (same rule, bit-identical constants) and
                # predictions match its one-shot execution exactly.
                offline = servable.updated(samples, labels)
                live = server.registry.get(servable.name).servable
                assert np.array_equal(
                    offline.constants["class_hvs"], live.constants["class_hvs"]
                )
                handle = hdc_compile(offline.build_program(1), target="cpu").bind(
                    **offline.constants
                )
                for i in range(4):
                    expected = int(
                        np.asarray(handle.run(queries=samples[i : i + 1]).output)[0]
                    )
                    assert int(client.infer(servable.name, samples[i])) == expected
                client.drain()
                stats = client.stats()
                assert stats["swaps"] == 1
                assert stats["failures"] == 0
                model = stats["model_stats"][servable.name]
                assert model["version"] == 2 and model["swaps"] == 1
                assert sum(model["requests_by_version"].values()) == model["requests"]
                assert before in range(self.N_CLASSES)
        finally:
            transport.stop()
            server.stop()

    def test_update_rejects_float_labels_client_side(self):
        """The client must not silently truncate 1.7 -> 1 on the wire —
        same integer-labels contract as the local Servable.updated path."""
        server, transport, host, port, servable = self._updatable_stack()
        try:
            with ServingClient(host, port, timeout=30.0) as client:
                with pytest.raises(ValueError):
                    client.update(
                        servable.name,
                        np.zeros((2, self.N_FEATURES), dtype=np.float32),
                        np.array([0.0, 1.7]),
                    )
                assert client.model_versions()[servable.name] == 1  # nothing landed
        finally:
            transport.stop()
            server.stop()

    def test_update_on_frozen_model_reports_typed_error(self):
        server, transport, host, port, _ = self._updatable_stack()
        try:
            with ServingClient(host, port, timeout=30.0) as client:
                with pytest.raises(RemoteServingError) as excinfo:
                    client.update(
                        "net-frozen",
                        np.zeros((2, DIM), dtype=np.float32),
                        np.zeros(2, dtype=np.int64),
                    )
                assert excinfo.value.error_type == "NotUpdatableError"
                # The connection survives the typed rejection.
                assert client.model_versions()["net-frozen"] == 1
        finally:
            transport.stop()
            server.stop()


class TestClientConnectionHygiene:
    def test_timeout_poisons_the_connection(self):
        """A response timeout desynchronizes request/response framing, so
        the client must refuse further use instead of silently reading a
        stale reply (there is no per-request id to re-correlate).  The
        fake server completes the version handshake, then goes silent."""
        import socket as socket_module

        from repro.serving.transport import PROTOCOL_VERSION, encode_frame

        accepted = []

        def mute_after_handshake(sock):
            conn, _ = sock.accept()
            accepted.append(conn)
            stream = conn.makefile("rb")
            accepted.append(stream)
            read_frame_sync(stream)  # the hello
            conn.sendall(encode_frame({"ok": True, "version": PROTOCOL_VERSION}))
            # ... then read nothing, reply nothing.

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        thread = threading.Thread(target=mute_after_handshake, args=(listener,), daemon=True)
        thread.start()
        host, port = listener.getsockname()
        client = ServingClient(host, port, timeout=0.2)
        try:
            with pytest.raises(OSError):  # socket.timeout
                client.ping()
            with pytest.raises(ConnectionError):
                client.ping()  # poisoned: refuses instead of desyncing
        finally:
            client.close()
            thread.join()
            for conn in accepted:
                conn.close()
            listener.close()


class TestResetStatsOverTheWire:
    def test_scrape_then_reset_interval_idiom(self, serving_stack, servable, queries):
        """stats -> reset_stats over the frame protocol zeroes the window,
        so each scrape covers its own interval (the scraper tool's idiom)."""
        server, host, port = serving_stack
        with ServingClient(host, port, timeout=30.0) as client:
            client.infer(servable.name, queries[0])
            server.drain()
            first = client.stats()
            assert first["requests"] >= 1
            client.reset_stats()
            second = client.stats()
            assert second["requests"] == 0
            # Per-deployment batched-plane counters reset with the window.
            for model in second["model_stats"].values():
                assert model["vectorized_stages"] == 0
                assert model["fallback_stages"] == 0


class TestClientRetries:
    def _stack(self, servable):
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)
        server.start()
        transport = TransportServer(server)
        host, port = transport.start()
        return server, transport, host, port

    def test_reconnects_after_server_restart_mid_session(
        self, servable, queries, expected_labels
    ):
        """Kill the transport mid-session, restart it on the same port: a
        client with retries heals (reconnect + resend with capped
        exponential backoff) instead of raising."""
        server, transport, host, port = self._stack(servable)
        replacement = TransportServer(server, port=port)
        client = ServingClient(
            host, port, timeout=10.0, max_retries=10, backoff_seconds=0.02
        )
        try:
            label = int(np.asarray(client.infer(servable.name, queries[0])))
            assert label == expected_labels[0]

            transport.stop()  # kill the socket front end under the client

            def restart_later():
                time.sleep(0.2)  # let a few reconnect attempts fail first
                replacement.start()

            restarter = threading.Thread(target=restart_later, daemon=True)
            restarter.start()
            label = int(np.asarray(client.infer(servable.name, queries[1])))
            restarter.join()
            assert label == expected_labels[1]
            assert client.reconnects >= 1

            # The healed connection is a normal connection: stats work too.
            assert client.stats()["requests"] >= 0
        finally:
            client.close()
            replacement.stop()
            server.stop()

    def test_constructor_retries_cover_initial_connection(self, servable, queries):
        """A client constructed before the transport is listening waits
        out the gap with the same retry budget (scraper launch-order
        case) instead of dying on the doorstep."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)
        server.start()
        probe = TransportServer(server)
        host, port = probe.start()
        probe.stop()  # port known, nothing listening yet
        late = TransportServer(server, port=port)

        def start_later():
            time.sleep(0.2)
            late.start()

        starter = threading.Thread(target=start_later, daemon=True)
        starter.start()
        try:
            client = ServingClient(
                host, port, timeout=10.0, max_retries=10, backoff_seconds=0.02
            )
            starter.join()
            with client:
                assert client.ping()
        finally:
            late.stop()
            server.stop()

    def test_fail_fast_without_retries(self, servable, queries):
        """max_retries=0 keeps the original contract: first transport
        failure poisons the connection and the error propagates."""
        server, transport, host, port = self._stack(servable)
        client = ServingClient(host, port, timeout=5.0)
        try:
            client.ping()
            transport.stop()
            with pytest.raises((ConnectionError, OSError)):
                client.infer(servable.name, queries[0])
            with pytest.raises(ConnectionError):
                client.ping()  # still poisoned, no silent reconnect
        finally:
            client.close()
            server.stop()

    def test_retry_budget_exhausts_when_server_stays_down(self, servable, queries):
        server, transport, host, port = self._stack(servable)
        client = ServingClient(
            host, port, timeout=5.0, max_retries=2, backoff_seconds=0.01
        )
        try:
            client.ping()
            transport.stop()
            server.stop()
            start = time.perf_counter()
            with pytest.raises((ConnectionError, OSError)):
                client.infer(servable.name, queries[0])
            # Both backoff sleeps ran before giving up.  Decorrelated
            # jitter draws each from [floor, 3 * previous], so the floor
            # twice over is all the schedule guarantees.
            assert time.perf_counter() - start >= 2 * client.backoff_seconds
            assert client.reconnects == 0  # no successful reconnect: server stayed down
        finally:
            client.close()


class TestTransportShutdown:
    def test_batch_settling_after_transport_stop_keeps_the_worker_alive(
        self, servable, queries, expected_labels
    ):
        """An ``infer_batch`` frame whose rows settle after the transport
        (and its event loop) went away has nobody left to wake — which
        must cost the settling worker thread nothing."""
        server = InferenceServer(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
        server.register(servable)  # not started: the frame's rows stay queued
        transport = TransportServer(server)
        host, port = transport.start()
        client = ServingClient(host, port, timeout=5.0, max_retries=0)
        errors = []

        def call():
            try:
                client.infer_batch(servable.name, queries[:4])
            except Exception as exc:  # the connection dies with the transport
                errors.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        try:
            deadline = time.monotonic() + 5.0
            while server.broker._outstanding < 4 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert server.broker._outstanding == 4
            transport.stop()
            caller.join(timeout=10.0)
            assert not caller.is_alive() and len(errors) == 1
            with server:
                server.drain(timeout=10.0)  # the orphaned rows still settle
                label = int(np.asarray(server.infer(servable.name, queries[0], timeout=10.0)))
            assert label == expected_labels[0]  # the worker survived the wake-up
        finally:
            client.close()
            transport.stop()


class TestScrapeStatsTool:
    def test_scrapes_intervals_to_json_lines(self, serving_stack, servable, queries, tmp_path):
        """tools/scrape_stats.py appends one JSON record per interval and
        resets the window between scrapes."""
        server, host, port = serving_stack
        scrape_stats = self._load_tool()

        server.infer(servable.name, queries[0])
        server.drain()
        out = tmp_path / "metrics.jsonl"
        exit_code = scrape_stats.main(
            ["--port", str(port), "--interval", "0.01", "--count", "2", "--out", str(out)]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["stats"]["requests"] >= 1
        assert records[1]["stats"]["requests"] == 0  # window reset between scrapes
        assert records[0]["interval_seconds"] == 0.01
        for record in records:
            assert "scraped_at" in record
            assert "vectorized_stages" in record["stats"]

    def _load_tool(self):
        spec = importlib.util.spec_from_file_location(
            "scrape_stats",
            pathlib.Path(__file__).resolve().parent.parent / "tools" / "scrape_stats.py",
        )
        scrape_stats = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scrape_stats)
        return scrape_stats

    def test_fail_on_thresholds_gate_live_scrapes(
        self, serving_stack, servable, queries, tmp_path
    ):
        """--fail-on turns the scraper into an alerting gate: a violated
        threshold (or a missing metric) makes the exit code non-zero."""
        server, host, port = serving_stack
        scrape_stats = self._load_tool()
        server.infer(servable.name, queries[0])
        server.drain()
        out = tmp_path / "gated.jsonl"
        base = ["--port", str(port), "--interval", "0.01", "--count", "1", "--out", str(out)]
        # A threshold that cannot trip on a healthy server: clean exit.
        assert scrape_stats.main(base + ["--fail-on", "failures>0"]) == 0
        # One that must trip (some requests were served this interval)...
        server.infer(servable.name, queries[0])
        server.drain()
        assert scrape_stats.main(base + ["--fail-on", "requests>=1"]) == 1
        # ...and a missing metric is a violation, never a silent pass.
        assert scrape_stats.main(base + ["--fail-on", "no_such_metric>0"]) == 1

    def test_check_mode_replays_thresholds_offline(self, tmp_path):
        """--check evaluates --fail-on against an existing JSONL series or
        a single JSON document (the CI perf-smoke wiring)."""
        scrape_stats = self._load_tool()
        series = tmp_path / "series.jsonl"
        series.write_text(
            json.dumps({"scraped_at": 1.0, "stats": {"fallback_stages": 0}})
            + "\n"
            + json.dumps({"scraped_at": 2.0, "stats": {"fallback_stages": 3}})
            + "\n"
            # A lost-interval marker (connection blip) is skipped, matching
            # live mode — never counted as a missing-metric violation.
            + json.dumps({"scraped_at": 3.0, "error": "ConnectionError: gone"})
            + "\n"
        )
        assert scrape_stats.main(
            ["--check", str(series), "--fail-on", "fallback_stages>0"]
        ) == 1
        assert scrape_stats.main(
            ["--check", str(series), "--fail-on", "fallback_stages>3"]
        ) == 0
        bench = tmp_path / "BENCH_serving.json"
        bench.write_text(
            json.dumps({"cases": {"stock_apps_vectorized": {"aggregate_fallbacks": 0}}})
        )
        assert scrape_stats.main(
            [
                "--check", str(bench),
                "--fail-on", "cases.stock_apps_vectorized.aggregate_fallbacks>0",
            ]
        ) == 0
        assert scrape_stats.main(
            [
                "--check", str(bench),
                "--fail-on", "cases.stock_apps_vectorized.aggregate_fallbacks>=0",
            ]
        ) == 1

    def test_threshold_expression_parsing(self):
        scrape_stats = self._load_tool()
        threshold = scrape_stats.Threshold("model_stats.my-model.fallback_stages>0")
        assert threshold.path == "model_stats.my-model.fallback_stages"
        assert threshold.violation({"model_stats": {"my-model": {"fallback_stages": 0}}}) is None
        assert "violated" in threshold.violation(
            {"model_stats": {"my-model": {"fallback_stages": 2}}}
        )
        with pytest.raises(ValueError):
            scrape_stats.Threshold("not an expression")
