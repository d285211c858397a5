"""repro.serving.transport — the network front end of the serving runtime.

The in-process :class:`~repro.serving.server.InferenceServer` and this
package are two front ends over the same
:class:`~repro.serving.broker.RequestBroker`: everything below the
submit boundary (micro-batching, fair scheduling, worker dispatch,
sharding, metrics) is shared, so network clients coalesce into the same
batches as local callers.

* :mod:`~repro.serving.transport.protocol` — the wire format: length-
  prefixed frames carrying a JSON header plus a raw binary payload
  (NumPy array bytes), opened by an **enforced version handshake**
  (mismatched clients are rejected with a typed
  :class:`~repro.serving.transport.protocol.ProtocolVersionError`
  frame).
* :mod:`~repro.serving.transport.ops` — the op table: each operation's
  wire format and policy (blocking, never-resent, pool fan-out) written
  once; server dispatch, client calls and pool routing derive from it.
* :class:`~repro.serving.transport.server.TransportServer` — an asyncio
  socket server running on a background thread; broker futures are
  bridged onto awaitables, so thousands of connections multiplex onto
  one event loop while inference stays on the worker pool.
* :class:`~repro.serving.transport.client.ServingClient` — a blocking,
  thread-safe client mirroring the in-process request API
  (``infer`` / ``infer_batch`` / ``stats`` / ``list_models`` /
  ``drain``), raising the same typed
  :class:`~repro.serving.batching.DeadlineExceeded` on sheds, with
  decorrelated-jitter reconnect backoff drawing from an optional shared
  :class:`~repro.serving.transport.client.RetryBudget`.
"""

from repro.serving.transport.client import RemoteServingError, RetryBudget, ServingClient
from repro.serving.transport.protocol import (
    FrameError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolVersionError,
    decode_array,
    encode_array_header,
    encode_frame,
    read_frame_sync,
)
from repro.serving.transport.server import TransportServer

__all__ = [
    "TransportServer",
    "ServingClient",
    "RemoteServingError",
    "RetryBudget",
    "FrameError",
    "ProtocolVersionError",
    "encode_frame",
    "read_frame_sync",
    "encode_array_header",
    "decode_array",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
]
