"""The op table (repro.serving.transport.ops) against things it did not write.

A table that encodes and decodes with itself cannot notice a format
change, so the wire format is pinned here by **golden frames**: request
headers and payloads spelled by hand, exactly as the pre-table client
sent them, dispatched through :meth:`TransportServer._dispatch` and
checked against the response fields that client read.  The retry policy
is pinned the same way: the list of side-effecting requests is written
out here, and every row's behaviour on a connection that dies after the
frame went out is observed on a real socket.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps.common import bipolar_random
from repro.serving import InferenceServer, Servable
from repro.serving.transport import (
    PROTOCOL_VERSION,
    FrameError,
    ServingClient,
    TransportServer,
    encode_frame,
    read_frame_sync,
)
from repro.serving.transport.ops import ARRAY, OPS, TEXT

DIM = 64
MODEL = "golden"


def mutable_servable(classes: np.ndarray) -> Servable:
    """A bipolar nearest-class model that can both re-train (add each
    sample into its class row) and grow (append class rows)."""
    n_classes = classes.shape[0]

    def build_program(batch_size: int) -> H.Program:
        prog = H.Program(f"{MODEL}_c{n_classes}_b{batch_size}")

        @prog.define(H.hv(DIM), H.hm(n_classes, DIM))
        def infer_one(encoding, class_hvs):
            return H.arg_min(H.hamming_distance(H.sign(encoding), H.sign(class_hvs)))

        @prog.entry(H.hm(batch_size, DIM), H.hm(n_classes, DIM))
        def main(encodings, class_hvs):
            return H.inference_loop(infer_one, encodings, class_hvs)

        return prog

    def update_batch(constants, samples, labels):
        updated = constants["class_hvs"].copy()
        np.add.at(updated, labels, samples)
        return {**constants, "class_hvs": updated}

    def append_batch(constants, rows):
        return {**constants, "class_hvs": np.vstack([constants["class_hvs"], rows])}

    return Servable(
        name=MODEL,
        build_program=build_program,
        constants={"class_hvs": classes},
        query_param="encodings",
        sample_shape=(DIM,),
        supported_targets=("cpu",),
        update_batch=update_batch,
        append_batch=append_batch,
        growable=("class_hvs",),
        rebuild=lambda constants: mutable_servable(constants["class_hvs"]),
        append_row_shape=(DIM,),
    )


@pytest.fixture
def stack():
    """A started, traced server behind an (unbound) transport: golden
    frames go straight into ``_dispatch``."""
    server = InferenceServer(
        workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001, tracing=True
    )
    server.register(mutable_servable(bipolar_random(4, DIM, seed=3)))
    server.start()
    yield server, TransportServer(server)
    server.stop()


def dispatch(transport: TransportServer, header: dict, payload: bytes = b""):
    return asyncio.run(transport._dispatch(header, payload))


class TestGoldenFrames:
    """Protocol v3 as the pre-table client spelled it, op by op."""

    def test_protocol_version_is_3_and_the_table_has_the_twelve_ops(self):
        assert PROTOCOL_VERSION == 3
        assert set(OPS) == {
            "infer", "infer_batch", "update", "append", "model_versions", "stats",
            "reset_stats", "list_models", "drain", "ping", "metrics", "traces",
        }  # fmt: skip

    def test_infer(self, stack):
        server, transport = stack
        sample = bipolar_random(1, DIM, seed=5)[0].astype(np.float32)
        header, payload = dispatch(
            transport,
            {
                "op": "infer",
                "model": MODEL,
                "priority": 0,
                "deadline_ms": None,
                "dtype": "float32",
                "shape": [DIM],
            },
            sample.tobytes(),
        )
        assert header["ok"] is True and header["version"] == 3
        assert header["shape"] == [] and np.dtype(header["dtype"]).kind == "i"
        label = int(np.frombuffer(payload, dtype=header["dtype"])[0])
        assert label == int(server.infer(MODEL, sample))
        # Tracing is on: the transport-owned trace is named in the reply.
        assert header["trace_id"] in {t["trace_id"] for t in server.traces()}

    def test_infer_batch_with_a_version_pin(self, stack):
        server, transport = stack
        batch = bipolar_random(5, DIM, seed=6).astype(np.float32)
        request = {
            "op": "infer_batch",
            "model": MODEL,
            "priority": 1,
            "deadline_ms": 60000.0,
            "dtype": "float32",
            "shape": [5, DIM],
            "min_version": 1,
        }
        header, payload = dispatch(transport, request, batch.tobytes())
        assert header["ok"] is True and header["shape"] == [5] and "trace_id" not in header
        labels = np.frombuffer(payload, dtype=header["dtype"])
        assert labels.tolist() == [int(o) for o in server.infer_many(MODEL, batch)]
        # A pin ahead of the served version is the typed, structured refusal.
        header, payload = dispatch(transport, {**request, "min_version": 7}, batch.tobytes())
        assert header == {
            "ok": False,
            "version": 3,
            "error_type": "StaleVersionError",
            "error": header["error"],
            "model": MODEL,
            "model_version": 1,
            "min_version": 7,
        }
        assert payload == b""

    def test_update_carries_samples_then_int64_labels(self, stack):
        server, transport = stack
        samples = bipolar_random(3, DIM, seed=7).astype(np.float32)
        labels = np.array([0, 2, 2], dtype=np.int64)
        before = server.registry.get(MODEL).servable.constants["class_hvs"].copy()
        header, payload = dispatch(
            transport,
            {
                "op": "update",
                "model": MODEL,
                "labels": {"dtype": "int64", "shape": [3]},
                "dtype": "float32",
                "shape": [3, DIM],
            },
            samples.tobytes() + labels.tobytes(),
        )
        assert (header, payload) == ({"ok": True, "version": 3, "model_version": 2}, b"")
        expected = before.copy()
        np.add.at(expected, labels, samples)
        after = server.registry.get(MODEL).servable.constants["class_hvs"]
        assert np.array_equal(after, expected)

    def test_append(self, stack):
        server, transport = stack
        rows = bipolar_random(2, DIM, seed=8).astype(np.float32)
        header, payload = dispatch(
            transport,
            {"op": "append", "model": MODEL, "dtype": "float32", "shape": [2, DIM]},
            rows.tobytes(),
        )
        assert (header, payload) == ({"ok": True, "version": 3, "model_version": 2}, b"")
        grown = server.registry.get(MODEL).servable.constants["class_hvs"]
        assert grown.shape == (6, DIM) and np.array_equal(grown[4:], rows)

    def test_model_versions_list_models_ping_drain(self, stack):
        _, transport = stack
        ok = {"ok": True, "version": 3}
        assert dispatch(transport, {"op": "model_versions"}) == ({**ok, "models": {MODEL: 1}}, b"")
        assert dispatch(transport, {"op": "list_models"}) == ({**ok, "models": [MODEL]}, b"")
        assert dispatch(transport, {"op": "ping"}) == ({**ok, "running": True}, b"")
        assert dispatch(transport, {"op": "drain", "timeout": None}) == (ok, b"")
        assert dispatch(transport, {"op": "drain", "timeout": 5.0}) == (ok, b"")

    def test_stats_with_and_without_reset_and_reset_stats(self, stack):
        server, transport = stack
        server.infer(MODEL, np.ones(DIM, dtype=np.float32))
        header, payload = dispatch(transport, {"op": "stats", "reset": False})
        assert set(header) == {"ok", "version", "stats"} and payload == b""
        assert header["stats"]["requests"] == 1
        assert header["stats"]["batch_size_histogram"] == {"1": 1}  # JSON-safe keys
        header, _ = dispatch(transport, {"op": "stats", "reset": True})
        assert header["stats"]["requests"] == 1  # the snapshot, then zeroed
        header, _ = dispatch(transport, {"op": "stats", "reset": False})
        assert header["stats"]["requests"] == 0
        server.infer(MODEL, np.ones(DIM, dtype=np.float32))
        assert dispatch(transport, {"op": "reset_stats"}) == ({"ok": True, "version": 3}, b"")
        assert server.stats().requests == 0

    def test_metrics_answers_text_in_the_payload(self, stack):
        _, transport = stack
        header, payload = dispatch(transport, {"op": "metrics"})
        assert header == {
            "ok": True,
            "version": 3,
            "content_type": "text/plain; version=0.0.4; charset=utf-8",
        }
        assert "hdc_serving_requests_total" in payload.decode("utf-8")
        _, payload = dispatch(transport, {"op": "metrics", "namespace": "golden_ns"})
        text = payload.decode("utf-8")
        assert "golden_ns_requests_total" in text and "hdc_serving_requests_total" not in text

    def test_traces_with_limit_and_clear(self, stack):
        server, transport = stack
        for _ in range(3):
            server.infer(MODEL, np.ones(DIM, dtype=np.float32))
        header, payload = dispatch(transport, {"op": "traces", "clear": False})
        assert set(header) == {"ok", "version", "tracing", "traces"} and payload == b""
        assert header["tracing"] is True and len(header["traces"]) == 3
        header, _ = dispatch(transport, {"op": "traces", "clear": True, "limit": 2})
        assert len(header["traces"]) == 2
        header, _ = dispatch(transport, {"op": "traces", "clear": False})
        assert header["traces"] == []  # the clear landed

    def test_errors_are_typed_frames_not_exceptions(self, stack):
        _, transport = stack
        header, _ = dispatch(transport, {"op": "teleport"})
        assert header["ok"] is False and header["error_type"] == "ValueError"
        header, _ = dispatch(
            transport, {"op": "infer", "model": "nope", "dtype": "float32", "shape": [0]}
        )
        assert header["ok"] is False and header["error_type"] == "KeyError"
        header, _ = dispatch(transport, {"op": "append", "model": MODEL}, b"123")
        assert header["ok"] is False and header["error_type"] == "FrameError"


# ---------------------------------------------------------------------------
# Retry policy: what is resent after the frame went out
# ---------------------------------------------------------------------------

#: Every request with a side effect, written out by hand: re-running it
#: trains / grows / zeroes / clears twice.  A new row that mutates must be
#: added here on purpose.
NEVER_RESENT = {
    ("update", ()),
    ("append", ()),
    ("reset_stats", ()),
    ("stats", ("reset",)),
    ("traces", ("clear",)),
}


def request_cases():
    """Every op bare, plus once per option switched on."""
    for name, op in OPS.items():
        yield name, ()
        for option in op.options:
            yield name, (option,)


def case_options(name: str, switched_on: tuple) -> dict:
    return {option: OPS[name].options[option](1) for option in switched_on}


def test_the_mutating_requests_are_exactly_the_listed_ones():
    mutating = {
        (name, on) for name, on in request_cases() if OPS[name].mutates(case_options(name, on))
    }
    assert mutating == NEVER_RESENT


class ReplyLosingServer:
    """A frame-protocol peer that handshakes every connection, then loses
    the reply to the first request it receives (hangs up after reading
    it) and acks every later one."""

    def __init__(self):
        self.requests: list = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            with conn, conn.makefile("rb") as stream:
                try:
                    read_frame_sync(stream)  # hello
                    conn.sendall(encode_frame({"ok": True, "version": PROTOCOL_VERSION}))
                    header, _ = read_frame_sync(stream)
                    self.requests.append(header)
                    if len(self.requests) > 1:
                        conn.sendall(encode_frame(*self._ack(OPS[header["op"]])))
                        stream.read()  # until the client hangs up
                except (FrameError, OSError):
                    continue

    @staticmethod
    def _ack(op):
        if op.reply is ARRAY:
            return {"ok": True, "dtype": "int64", "shape": []}, np.int64(3).tobytes()
        if op.reply is TEXT:
            return {"ok": True}, b"text"
        return {"ok": True, op.reply or "ack": 3}, b""

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.mark.parametrize(
    "name, switched_on",
    [pytest.param(name, on, id="-".join((name, *on))) for name, on in request_cases()],
)
def test_a_lost_reply_is_retried_only_when_resending_is_safe(name, switched_on):
    """The frame went out and the connection died before the reply: a
    side-effecting request surfaces the error (the server may have
    acted), everything else heals by reconnect + resend."""
    op = OPS[name]
    arrays = tuple(np.zeros((2, 3), dtype=np.float32) for _ in op.arrays)
    peer = ReplyLosingServer()
    try:
        with ServingClient(
            *peer.address, timeout=5.0, max_retries=3, backoff_seconds=0.01
        ) as client:
            call = lambda: client._call(  # noqa: E731
                name, "m" if op.model else None, arrays, **case_options(name, switched_on)
            )
            if (name, switched_on) in NEVER_RESENT:
                with pytest.raises(ConnectionError):
                    call()
                assert len(peer.requests) == 1 and client.reconnects == 0
            else:
                assert call() is not None or op.reply is None
                assert len(peer.requests) == 2 and client.reconnects == 1
                assert peer.requests[0] == peer.requests[1]
    finally:
        peer.close()
