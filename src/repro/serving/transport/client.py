"""Blocking socket client for the serving transport.

:class:`ServingClient` mirrors the in-process request API over TCP::

    from repro.serving.transport import ServingClient

    with ServingClient(host, port) as client:
        label = client.infer("hd-classification", features)
        labels = client.infer_batch("hd-classification", feature_matrix)
        print(client.stats()["latency_p99_ms"], client.list_models())

One client holds one connection and serializes its requests on it
(request/response framing), so it is thread-safe but not concurrent —
open one client per thread (or process) to generate concurrent load,
exactly as the multi-client throughput benchmark does.  Server-side
errors come back typed: a shed deadline re-raises
:class:`~repro.serving.batching.DeadlineExceeded`, anything else raises
:class:`RemoteServingError` carrying the remote type name and message.

With ``max_retries > 0`` the client survives transport failures: a
``ConnectionError`` / ``EOFError`` during any request tears the dead
connection down, reconnects with capped exponential backoff and resends
the request — so a server restart mid-session costs the caller latency,
not an exception.  Retries resend the whole request; inference is safe
to resend (a duplicate execution of the same sample yields the same
result), but a request that died *after* the server acted and *before*
the reply landed will be executed twice, so keep retries off for
non-idempotent extensions.
"""

from __future__ import annotations

import random
import socket
import threading
from typing import Optional, Tuple

import numpy as np

from repro.serving.batching import DeadlineExceeded
from repro.serving.registry import StaleVersionError
from repro.serving.transport.ops import OPS, decode_reply, encode_request
from repro.serving.transport.protocol import (
    PROTOCOL_VERSION,
    ProtocolVersionError,
    encode_frame,
    read_frame_sync,
)

__all__ = ["ServingClient", "RemoteServingError", "RetryBudget"]


class RetryBudget:
    """A token-bucket retry budget shared across pooled clients.

    Unbounded per-client retries compose badly: when a replica dies, every
    pooled connection starts burning its own full retry budget against the
    same dead address, multiplying the reconnect storm by the pool size.
    A shared budget bounds the *aggregate*: each backoff attempt spends
    one token, each successful request refunds ``refund`` tokens (capped
    at ``tokens``), so a healthy pool regains headroom while a pool
    hammering a dead replica runs dry and fails fast.

    Thread-safe; hand one instance to every client in a pool via the
    ``retry_budget`` constructor argument.
    """

    def __init__(self, tokens: float = 10.0, refund: float = 0.1):
        self.capacity = float(tokens)
        self.refund_tokens = float(refund)
        self._tokens = float(tokens)
        self._lock = threading.Lock()
        #: Backoff attempts refused because the bucket was empty.
        self.exhausted = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def try_spend(self) -> bool:
        """Take one token; ``False`` (and counted) when the bucket is dry."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            self.exhausted += 1
            return False

    def refund(self) -> None:
        """Credit one successful request back into the bucket."""
        with self._lock:
            self._tokens = min(self.capacity, self._tokens + self.refund_tokens)


class RemoteServingError(RuntimeError):
    """A server-side failure reported over the wire.

    Attributes:
        error_type: The remote exception's class name (e.g. ``KeyError``
            for an unknown model).
    """

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


def _raise_remote(header: dict) -> None:
    error_type = header.get("error_type", "RuntimeError")
    message = header.get("error", "")
    if error_type == "DeadlineExceeded":
        raise DeadlineExceeded(message)
    if error_type == "ProtocolVersionError":
        raise ProtocolVersionError(message)
    if error_type == "StaleVersionError" and "min_version" in header:
        raise StaleVersionError(
            str(header.get("model", "")),
            int(header.get("model_version", 0)),
            int(header["min_version"]),
        )
    raise RemoteServingError(error_type, message)


class ServingClient:
    """A blocking, thread-safe client for :class:`TransportServer`.

    Args:
        host / port: The transport server's bound address (as returned by
            :meth:`TransportServer.start`).
        timeout: Socket timeout in seconds for connect and for each
            response (``None`` blocks indefinitely).
        max_retries: Transport-failure retries per request (and for the
            initial connection in the constructor).  On a
            ``ConnectionError`` / ``EOFError`` of an established
            connection — or *any* ``OSError`` while (re)connecting, where
            nothing can be in flight — the client reconnects and resends,
            sleeping a **decorrelated-jitter** backoff between attempts,
            outside the request lock.  The default 0 keeps the fail-fast
            behaviour: the first transport failure marks the connection
            dead and the error propagates.
        backoff_seconds: Backoff floor.  Each sleep is drawn uniformly
            from ``[backoff_seconds, 3 * previous_sleep]`` and capped at
            ``max_backoff_seconds`` (AWS-style decorrelated jitter), so N
            clients reconnecting after the same replica restart spread
            out instead of thundering the listener in lockstep; the
            previous-sleep state resets on every successful connection.
        max_backoff_seconds: Upper bound on one backoff sleep.
        retry_budget: Optional :class:`RetryBudget` shared across pooled
            clients; when it runs dry, backoff attempts fail fast even
            with ``max_retries`` remaining.  Successful requests refund
            it.
    """

    #: Transport failures that are safe to heal with reconnect + resend:
    #: the request/response stream is dead, so no late reply can ever be
    #: misattributed to the resent request.  (FrameError subclasses
    #: ConnectionError, covering truncated frames from a dying server.)
    _RETRYABLE_ERRORS = (ConnectionError, EOFError)

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        max_retries: int = 0,
        backoff_seconds: float = 0.05,
        max_backoff_seconds: float = 1.0,
        retry_budget: Optional[RetryBudget] = None,
    ):
        self.address: Tuple[str, int] = (host, int(port))
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)
        self.max_backoff_seconds = float(max_backoff_seconds)
        self.retry_budget = retry_budget
        self.reconnects = 0
        # Decorrelated-jitter state: the previous sleep, seeded at the
        # floor.  Per-client RNG — pooled clients must not share a
        # sequence, or their "jitter" would correlate right back.
        self._rng = random.Random()
        self._backoff_delay = self.backoff_seconds
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._stream = None
        self._broken = False
        # Set by close(): interrupts backoff sleeps and aborts further
        # reconnect attempts, so a supervisor can stop a client that is
        # mid-way through its retry budget.
        self._closing = threading.Event()
        # The retry budget covers the initial connection too, so a client
        # constructed while the server is still (re)starting rides out
        # the gap instead of dying on the doorstep.
        attempt = 0
        while True:
            try:
                with self._lock:
                    self._connect_locked()
                break
            except OSError:
                attempt = self._backoff_or_raise(attempt)

    # -- plumbing -----------------------------------------------------------------
    def _connect_locked(self) -> None:
        self._sock = socket.create_connection(self.address, timeout=self.timeout)
        self._sock.settimeout(self.timeout)
        self._stream = self._sock.makefile("rb")
        self._broken = False
        self._handshake_locked()
        self._backoff_delay = self.backoff_seconds

    def _handshake_locked(self) -> None:
        """Open the connection with the mandatory version handshake.

        Every (re)connection sends ``hello`` carrying this client's
        protocol version before any operation.  A server rejection raises
        the typed :class:`ProtocolVersionError` — *not* retried by the
        reconnect machinery, because a version mismatch is deterministic.
        Transport failures mid-handshake surface as ``OSError`` and take
        the normal connect-phase retry path.
        """
        self._sock.sendall(encode_frame({"op": "hello", "version": PROTOCOL_VERSION}))
        response, _ = read_frame_sync(self._stream)
        if not response.get("ok"):
            self._broken = True
            self._close_locked()
            _raise_remote(response)

    def _backoff_or_raise(self, attempt: int) -> int:
        """Sleep one decorrelated-jitter step; re-raise when the budget is
        spent or the client is closing.  Called outside the lock."""
        if attempt >= self.max_retries:
            raise
        if self.retry_budget is not None and not self.retry_budget.try_spend():
            raise
        # Decorrelated jitter: uniform over [floor, 3 * previous sleep],
        # capped.  Deterministic exponential backoff synchronizes every
        # client that observed the same failure instant — after a replica
        # restart the whole pool would reconnect in lockstep waves; the
        # jittered draw spreads the herd across the interval while the
        # 3x growth still backs a persistent outage off exponentially.
        self._backoff_delay = min(
            self.max_backoff_seconds,
            self._rng.uniform(self.backoff_seconds, max(self._backoff_delay, self.backoff_seconds) * 3.0),
        )
        # Event-based sleep: close() interrupts the backoff instead of
        # waiting out the whole retry budget.
        if self._closing.wait(self._backoff_delay):
            raise ConnectionError("client closed while retrying")
        return attempt + 1

    def _request(
        self, header: dict, payload: bytes = b"", resend: bool = True
    ) -> Tuple[dict, bytes]:
        """One framed request/response exchange, with retries.

        ``resend=False`` marks a **non-idempotent** request (the
        stats-with-reset and reset ops): reconnect attempts still use the
        retry budget — nothing was sent on a fresh connection — but a
        failure *after* the frame went out is never resent, because the
        server may have acted before the reply was lost and a resend
        would apply the side effect twice.
        """
        frame = encode_frame(header, payload)
        attempt = 0
        while True:
            if self._closing.is_set():
                raise ConnectionError("client closed while retrying")
            phase = "exchange"
            try:
                with self._lock:
                    if self._broken or self._sock is None:
                        if self.max_retries == 0:
                            raise ConnectionError(
                                "connection is no longer usable after a transport failure; "
                                "open a new ServingClient (or construct with max_retries > 0)"
                            )
                        phase = "connect"
                        self._connect_locked()
                        self.reconnects += 1
                        phase = "exchange"
                    try:
                        self._sock.sendall(frame)
                        response, response_payload = read_frame_sync(self._stream)
                    except (OSError, EOFError):
                        self._broken = True
                        self._close_locked()
                        raise
                break
            except (OSError, EOFError) as exc:
                if phase == "connect":
                    # Nothing was in flight on a fresh connect, so *any*
                    # failure here (refused, timed out, unresolvable) is
                    # safe to retry.
                    retryable = True
                else:
                    # On an established connection, only a dead stream is
                    # retryable: the request/response framing is
                    # desynchronized and no late reply can be
                    # misattributed after a fresh connection + resend.
                    # Timeouts keep the fail-fast contract — the reply
                    # may still be in flight, so a blind resend could
                    # desynchronize more than it heals.  Non-idempotent
                    # requests are never resent once the frame went out.
                    retryable = resend and isinstance(exc, self._RETRYABLE_ERRORS)
                if not retryable:
                    raise
                # Backoff happens outside the lock, so other threads
                # sharing the client fail fast on the (broken) connection
                # instead of queueing behind the sleeper's retry budget.
                attempt = self._backoff_or_raise(attempt)
        if self.retry_budget is not None:
            self.retry_budget.refund()
        if not response.get("ok"):
            _raise_remote(response)  # stream still in sync: server replied
        return response, response_payload

    def _call(self, name: str, model: Optional[str] = None, arrays: tuple = (), **options):
        """One op, encoded, retried and decoded as its :data:`OPS` row says."""
        op = OPS[name]
        header, payload = encode_request(op, model, arrays, options)
        return decode_reply(op, *self._request(header, payload, resend=not op.mutates(options)))

    # -- request API --------------------------------------------------------------
    def infer(
        self,
        model: str,
        sample: np.ndarray,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        min_version: Optional[int] = None,
    ) -> np.ndarray:
        """One sample through the remote micro-batching queue.

        ``min_version`` pins the read: the server refuses with a typed
        :class:`~repro.serving.registry.StaleVersionError` if the model's
        deployment is older — the read-your-writes contract after a
        group-wide update.  Omitted from the wire when ``None``, so
        un-pinned requests stay byte-compatible with older servers.
        """
        options = {"priority": priority, "deadline_ms": deadline_ms, "min_version": min_version}
        return self._call("infer", model, (sample,), **options)

    def infer_batch(
        self,
        model: str,
        samples: np.ndarray,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        min_version: Optional[int] = None,
    ) -> np.ndarray:
        """A whole batch in one frame; results come back row-aligned."""
        options = {"priority": priority, "deadline_ms": deadline_ms, "min_version": min_version}
        return self._call("infer_batch", model, (samples,), **options)

    def update(self, model: str, samples: np.ndarray, labels) -> int:
        """One online re-training round on the server; returns the new
        monotonic model version.

        The labelled mini-batch crosses the wire as one frame: samples
        and int64 labels are concatenated in the binary payload (arrays
        never ride the JSON header — same rationale as inference), with
        the labels' metadata under the header's ``"labels"`` field.  The
        server applies the servable's ``update_batch`` rule, warms the
        re-trained deployment and hot-swaps it with zero downtime.
        **Never resent** on transport failure: a round that died after
        the frame went out may have landed, and blindly resending would
        train on the same batch twice.  Check :meth:`model_versions` to
        disambiguate.

        Raises:
            RemoteServingError: With ``error_type == "NotUpdatableError"``
                when the model's servable carries no update rule.
        """
        labels = np.asarray(labels)
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            # Same contract as the local path (Servable.updated): casting
            # 1.7 -> 1 on the wire would train on wrong labels silently.
            raise ValueError(f"update labels must be integers, got dtype {labels.dtype}")
        return int(self._call("update", model, (samples, labels.astype(np.int64, copy=False))))

    def append(self, model: str, rows: np.ndarray) -> int:
        """One shape-changing growth round on the server; returns the new
        monotonic model version.

        The raw rows (new bucket sequences, spectra, centroids — whatever
        the servable's ``append_batch`` rule consumes) cross the wire as
        one frame's binary payload.  The server grows the designated
        constants, re-traces the program family for the new shapes, warms
        it and hot-swaps with zero downtime.  **Never resent** on
        transport failure — appending is non-idempotent (a blind resend
        would grow the index twice); check :meth:`model_versions` to
        disambiguate a round that died mid-flight.

        Raises:
            RemoteServingError: With ``error_type == "NotAppendableError"``
                when the model's servable carries no append rule.
        """
        return int(self._call("append", model, (rows,)))

    def model_versions(self) -> dict:
        """``{name: version}`` for every deployment served by the peer."""
        versions = self._call("model_versions")
        return {str(name): int(version) for name, version in versions.items()}

    def stats(self, reset: bool = False) -> dict:
        """The server's :class:`ServerStats` snapshot as a plain dict.

        ``reset=True`` atomically zeroes the metrics window with the same
        server-side lock acquisition that took the snapshot — the
        scrape-then-reset idiom without the between-frames gap in which
        concurrent requests would vanish from every interval.  Because
        the reset is a side effect, the request is never *resent* by the
        retry machinery: if the connection dies after the frame went out,
        the error propagates (the interval may or may not have been
        reset) instead of silently resetting twice.
        """
        return self._call("stats", reset=reset)

    def reset_stats(self) -> None:
        """Zero the server's metrics window (per-interval reporting).

        Prefer ``stats(reset=True)`` when the snapshot is also needed:
        it is atomic server-side.  SLO thresholds survive either way.
        Never resent on transport failure (non-idempotent).
        """
        self._call("reset_stats")

    def list_models(self) -> list:
        """Names of the deployments registered on the server."""
        return self._call("list_models")

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every request submitted to the server has resolved."""
        self._call("drain", timeout=timeout)

    def ping(self) -> bool:
        """Round-trip liveness probe; returns whether the broker runs."""
        return bool(self._call("ping"))

    def metrics_text(self, namespace: Optional[str] = None) -> str:
        """The server's Prometheus text exposition (format 0.0.4).

        Read-only server-side (no reset), so scrapes are idempotent and
        safe to resend.  ``namespace`` overrides the metric-name prefix
        (default ``hdc_serving``).
        """
        return self._call("metrics", namespace=namespace)

    def traces(self, limit: Optional[int] = None, clear: bool = False) -> list:
        """Retained request traces as JSON-safe dicts (oldest first).

        Empty unless the server's broker runs with ``tracing=True``.
        ``clear=True`` empties the server's trace rings after the read —
        a side effect, so that variant is never resent by the retry
        machinery (a dump that died mid-reply may already have cleared).
        """
        return self._call("traces", limit=limit, clear=clear)

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        # Signal before taking the lock: a _request mid-retry wakes from
        # its backoff sleep and aborts, releasing the lock promptly (an
        # in-flight socket operation still bounds this by `timeout`).
        self._closing.set()
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        try:
            if self._stream is not None:
                self._stream.close()
        except OSError:
            pass
        finally:
            if self._sock is not None:
                self._sock.close()
            self._stream = None
            self._sock = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ServingClient({self.address[0]}:{self.address[1]}, v{PROTOCOL_VERSION})"
