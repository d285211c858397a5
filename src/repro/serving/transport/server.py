"""Asyncio socket front end over the :class:`RequestBroker`.

:class:`TransportServer` listens on a TCP socket, decodes the frames of
:mod:`repro.serving.transport.protocol` and serves each operation from
its row of the op table (:mod:`repro.serving.transport.ops`) — decode,
call the broker, encode — keeping handlers only for the two that map
onto the broker's completion contract: an ``infer`` submits one sample and awaits
the broker future via :func:`asyncio.wrap_future`, an ``infer_batch``
submits the frame's rows as one batch and awaits its one completion (one
loop wake-up per frame), so one event-loop thread multiplexes every
connection while the actual inference runs on the worker pool.  Because
all front ends share one broker, samples arriving from different sockets
(and from in-process callers) coalesce into the same micro-batches —
concurrency across clients is what feeds the batcher, which is why
aggregate throughput scales with client count.

The event loop runs on a daemon background thread, so the transport
embeds in any host process::

    server = InferenceServer(workers=("cpu",))
    server.register(servable)
    server.start()
    transport = TransportServer(server)      # or TransportServer(broker)
    host, port = transport.start()
    ...
    transport.stop(); server.stop()

Lifecycle note: the transport accepts connections as soon as ``start()``
returns, but requests only settle while the underlying broker is started
— start the broker first (or use both context managers).
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Optional, Tuple

import numpy as np

from repro.serving.registry import StaleVersionError
from repro.serving.transport.ops import OPS, decode_request, encode_reply
from repro.serving.transport.protocol import (
    FrameError,
    PROTOCOL_VERSION,
    ProtocolVersionError,
    encode_array_header,
    encode_frame,
    read_frame,
)

__all__ = ["TransportServer"]


class TransportServer:
    """A length-prefixed-frame socket server over a request broker.

    Args:
        server: The serving core to expose — an
            :class:`~repro.serving.server.InferenceServer` (its broker is
            used) or a bare :class:`~repro.serving.broker.RequestBroker`.
        host: Bind address (default loopback; bind ``"0.0.0.0"``
            explicitly to serve remote machines).
        port: TCP port; the default 0 picks an ephemeral free port —
            read the bound address from :meth:`start`'s return value.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0):
        self.broker = getattr(server, "broker", server)
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Start accepting connections; returns the bound ``(host, port)``."""
        if self._thread is not None:
            return self.address
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(target=self._run, name="hdc-transport", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("transport server failed to start listening")
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self.address

    def stop(self) -> None:
        """Stop accepting connections and join the event-loop thread.

        In-flight broker requests still settle (their futures resolve on
        the worker pool); only the transport goes away.
        """
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join()
        self._thread = None
        self._loop = None
        self.address = None

    def __enter__(self) -> "TransportServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    async def _serve(self) -> None:
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        except OSError as exc:  # bind failure: surfaced by start(), not lost on this thread
            self._startup_error = exc
            self._started.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._shutdown.wait()
        # Cancel the connection handlers still parked in read_frame so the
        # loop shuts down without orphaned tasks; their finally blocks
        # close the sockets.
        current = asyncio.current_task()
        handlers = [task for task in asyncio.all_tasks() if task is not current]
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)

    # -- connection handling ------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handshaken = False
        try:
            while True:
                try:
                    header, payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # client went away
                except FrameError as exc:
                    # The stream is desynchronized; report and hang up.
                    await self._send(writer, self._error_header(exc))
                    return
                if not handshaken:
                    # PROTOCOL_VERSION is *enforced*: the first frame must
                    # be a matching hello, or the client is rejected with
                    # a typed error frame and the connection closed.
                    response = self._handshake_response(header)
                    try:
                        await self._send(writer, response)
                    except (ConnectionError, OSError):
                        return
                    if not response.get("ok"):
                        return  # mismatched client: rejected, hang up
                    handshaken = True
                    continue
                response, response_payload = await self._dispatch(header, payload)
                try:
                    await self._send(writer, response, response_payload)
                except FrameError as exc:
                    # The *response* could not be framed (oversized array);
                    # report it as a request error so the client fails
                    # loudly instead of reconnect-and-resending a doomed
                    # request until its retry budget burns out.
                    try:
                        await self._send(writer, self._error_header(exc))
                    except (ConnectionError, OSError):
                        return
                except (ConnectionError, OSError):
                    return  # client went away mid-reply; nothing to tell it
        except asyncio.CancelledError:
            # Transport shutdown cancelled us mid-read; exiting normally
            # (instead of staying "cancelled") keeps asyncio.streams'
            # connection_made callback from logging a spurious traceback.
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, header: dict, payload: bytes = b"") -> None:
        writer.write(encode_frame(header, payload))
        await writer.drain()

    @staticmethod
    def _error_header(exc: BaseException) -> dict:
        header = {
            "ok": False,
            "version": PROTOCOL_VERSION,
            "error_type": type(exc).__name__,
            "error": str(exc),
        }
        if isinstance(exc, StaleVersionError):
            # Structured fields so the client rebuilds the typed error
            # instead of parsing the message string.
            header.update(model=exc.model, model_version=exc.version, min_version=exc.min_version)
        return header

    @staticmethod
    def _handshake_response(header: dict) -> dict:
        """Validate a connection's opening hello frame.

        Both failure modes — a ``hello`` carrying the wrong version, and
        a first frame that is not a ``hello`` at all (a pre-handshake
        client speaking an older protocol) — are answered with the same
        typed :class:`ProtocolVersionError` frame, which always carries
        the server's version so the peer can report both sides.
        """
        if header.get("op") != "hello":
            return TransportServer._error_header(
                ProtocolVersionError(
                    f"expected a hello handshake as the first frame, got "
                    f"op={header.get('op')!r}; this server speaks protocol "
                    f"version {PROTOCOL_VERSION}"
                )
            )
        client_version = header.get("version")
        if client_version != PROTOCOL_VERSION:
            return TransportServer._error_header(
                ProtocolVersionError(
                    f"protocol version mismatch: client speaks "
                    f"{client_version!r}, server speaks {PROTOCOL_VERSION}"
                )
            )
        return {"ok": True, "version": PROTOCOL_VERSION}

    # -- operations ---------------------------------------------------------------
    async def _dispatch(self, header: dict, payload: bytes) -> Tuple[dict, bytes]:
        """Serve one request frame from its row of the op table."""
        op = OPS.get(header.get("op"))
        if op is None:
            return self._error_header(ValueError(f"unknown op {header.get('op')!r}")), b""
        try:
            args, options = decode_request(op, header, payload)
            awaited = self._AWAITED.get(op.name)
            if awaited is not None:
                fields, out_payload = await awaited(self, *args, **options)
            else:
                call = functools.partial(op.call, self.broker, *args, **options)
                if op.blocking:
                    # Off the event loop: inference frames on other
                    # connections keep flowing while the call lands.
                    result = await asyncio.get_running_loop().run_in_executor(None, call)
                else:
                    result = call()
                fields, out_payload = encode_reply(op, result)
        except Exception as exc:  # per-request failure, not a connection failure
            return self._error_header(exc), b""
        return {"ok": True, "version": PROTOCOL_VERSION, **fields}, out_payload

    async def _op_infer(self, model: str, sample: np.ndarray, **options) -> Tuple[dict, bytes]:
        # The transport owns the trace when the broker has tracing on:
        # minted here (so the chain starts at the socket front end) and
        # finished here, after the closing "transport" span — which lands
        # after the broker's settle step, so the top-level spans tile
        # request arrival to response encoding exactly.
        tracer = self.broker.tracer
        trace = tracer.begin(model) if tracer is not None else None
        try:
            future = self.broker.submit(model, sample, trace=trace, **options)
            output = await asyncio.wrap_future(future)
            fields, out_payload = encode_array_header(output)
        except Exception as exc:
            if trace is not None:
                trace.fail(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if trace is not None:
                trace.step("transport", op="infer")
                tracer.finish(trace)
        if trace is not None:
            fields["trace_id"] = trace.trace_id
        return fields, out_payload

    async def _op_infer_batch(
        self, model: str, batch: np.ndarray, **options
    ) -> Tuple[dict, bytes]:
        if batch.ndim < 1 or batch.shape[0] == 0:
            raise ValueError(f"infer_batch needs a non-empty leading batch axis, got {batch.shape}")
        # One broker submission per frame: the rows flow through the same
        # micro-batcher as everyone else's samples, preserving fairness
        # and deadline semantics, and come back in order.
        completion = self.broker.submit_many(model, batch, **options)
        loop = asyncio.get_running_loop()
        settled = loop.create_future()

        def wake(_completion) -> None:
            # Runs on the settling worker thread.  A loop closed by a
            # transport shutdown has nobody left to wake.
            try:
                loop.call_soon_threadsafe(lambda: settled.done() or settled.set_result(None))
            except RuntimeError:
                pass

        completion.add_done_callback(wake)
        await settled
        return encode_array_header(np.asarray(completion.result(timeout=0)))

    #: The two ops that await a broker completion instead of making a
    #: call; every other op is served generically from its table row.
    _AWAITED = {"infer": _op_infer, "infer_batch": _op_infer_batch}

    def __repr__(self) -> str:
        state = f"listening on {self.address}" if self.address else "stopped"
        return f"TransportServer({self.broker!r}, {state})"
