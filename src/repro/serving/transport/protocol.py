"""Wire format of the socket transport: length-prefixed JSON/binary frames.

One frame is::

    +----------------+----------------+------------------+----------------+
    | header length  | payload length |   JSON header    |    payload     |
    |  uint32 (BE)   |  uint32 (BE)   |  header-length   | payload-length |
    |                |                |      bytes       |     bytes      |
    +----------------+----------------+------------------+----------------+

The **header** is UTF-8 JSON carrying the operation (requests) or the
outcome (responses) plus any array metadata; the **payload** is raw,
C-contiguous NumPy array bytes described by the header's ``dtype`` /
``shape`` fields (empty for array-free operations).  Keeping the bulk
data out of JSON means a feature vector crosses the wire at
``itemsize * size`` bytes with zero escaping or base64 overhead, while
the header stays debuggable with any JSON tool.

Every connection opens with a **version handshake**: the client's first
frame must be ``{"op": "hello", "version": PROTOCOL_VERSION}``, and the
server *enforces* the match — a mismatched (or missing) handshake is
answered with a typed :class:`ProtocolVersionError` frame carrying the
server's version, and the connection is closed.  The client raises the
same typed error instead of misparsing frames of an incompatible peer.

Request headers (post-handshake; written once, as the rows of
:data:`repro.serving.transport.ops.OPS` — optional fields may be ``null``
or left out)::

    {"op": "infer",       "model": str, "priority": int,
     "deadline_ms": float|null, "min_version": int|null,
     "dtype": str, "shape": [..]}                              + sample
    {"op": "infer_batch", "model": str, "priority": int,
     "deadline_ms": float|null, "min_version": int|null,
     "dtype": str, "shape": [n,..]}                            + samples
    {"op": "update",      "model": str, "dtype": str, "shape": [n,..],
     "labels": {"dtype": "int64", "shape": [n]}}   + samples ++ labels
    {"op": "append",      "model": str, "dtype": str, "shape": [n,..]} + rows
    {"op": "stats", "reset": bool} | {"op": "reset_stats"}
    {"op": "list_models"} | {"op": "model_versions"} | {"op": "ping"}
    {"op": "drain", "timeout": float|null}
    {"op": "metrics", "namespace": str|null}
    {"op": "traces", "limit": int|null, "clear": bool}

``update`` runs one online re-training round (the servable's
``update_batch`` rule) and hot-swaps the re-trained deployment; its
payload concatenates the sample matrix and the int64 label vector
(described by the header's top-level and ``"labels"`` array metadata —
labels are arrays, so like all arrays they stay out of the JSON), and
its response carries the new monotonic ``"model_version"``.
``append`` runs one shape-changing growth round (the servable's
``append_batch`` rule) and hot-swaps the grown deployment; its payload
is the raw row matrix alone.  Like ``update`` it is **non-idempotent**
— re-running it grows the index twice — so the client never resends it
on a dropped connection.
``model_versions`` returns the ``{name: version}`` map.  ``metrics``
returns the Prometheus text exposition in the response *payload* (the
header carries its ``"content_type"``); ``traces`` returns retained
request traces as JSON dicts in the header, optionally clearing the
server-side trace rings after the read.

Response headers carry ``"ok": true`` plus op-specific fields (array
metadata for inference results, a ``"stats"`` object, a ``"models"``
list, a ``"model_version"``), or ``"ok": false`` with ``"error"`` /
``"error_type"`` — the client re-raises
:class:`~repro.serving.batching.DeadlineExceeded` for typed sheds,
:class:`ProtocolVersionError` for handshake rejections and
:class:`~repro.serving.transport.client.RemoteServingError` for
everything else.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO, Tuple

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FrameError",
    "ProtocolVersionError",
    "encode_frame",
    "read_frame",
    "read_frame_sync",
    "encode_array_header",
    "decode_array",
]

#: Bumped on incompatible wire changes; servers reject mismatched clients
#: during the mandatory hello handshake.  v2 introduced the enforced
#: handshake itself plus the ``update`` / ``model_versions`` operations;
#: v3 added the shape-changing ``append`` operation.
PROTOCOL_VERSION = 3

#: Upper bound on either frame section, guarding both peers against
#: corrupt prefixes (a desynchronized stream would otherwise be read as a
#: multi-gigabyte allocation).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_PREFIX = struct.Struct("!II")


class FrameError(ConnectionError):
    """Raised on malformed, oversized or truncated frames."""


class ProtocolVersionError(RuntimeError):
    """Raised when the hello handshake finds incompatible protocol versions.

    Deliberately *not* a :class:`ConnectionError`: the client's reconnect
    machinery retries dead connections, but a version mismatch is
    deterministic — retrying would loop forever against the same peer —
    so this propagates immediately with both versions in the message.
    """


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame (JSON header + binary payload)."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_FRAME_BYTES or len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame exceeds MAX_FRAME_BYTES ({len(header_bytes)}+{len(payload)} bytes)"
        )
    return _PREFIX.pack(len(header_bytes), len(payload)) + header_bytes + bytes(payload)


def _decode_prefix(prefix: bytes) -> Tuple[int, int]:
    header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len > MAX_FRAME_BYTES or payload_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing frame with header={header_len} payload={payload_len} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream is corrupt or hostile"
        )
    return header_len, payload_len


def _parse_header(header_bytes: bytes) -> dict:
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameError(f"frame header must be a JSON object, got {type(header).__name__}")
    return header


async def read_frame(reader) -> Tuple[dict, bytes]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Raises :class:`asyncio.IncompleteReadError` on clean EOF between
    frames (empty ``.partial``) — callers treat that as disconnect.
    """
    header_len, payload_len = _decode_prefix(await reader.readexactly(_PREFIX.size))
    header_bytes = await reader.readexactly(header_len)
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return _parse_header(header_bytes), payload


def read_frame_sync(stream: BinaryIO) -> Tuple[dict, bytes]:
    """Read one frame from a blocking binary stream (``socket.makefile``)."""

    def exactly(n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = stream.read(remaining)
            if not chunk:
                raise FrameError(f"connection closed mid-frame ({remaining} bytes short)")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    header_len, payload_len = _decode_prefix(exactly(_PREFIX.size))
    header_bytes = exactly(header_len)
    payload = exactly(payload_len) if payload_len else b""
    return _parse_header(header_bytes), payload


# ---------------------------------------------------------------------------
# Array payloads
# ---------------------------------------------------------------------------


def encode_array_header(array: np.ndarray) -> Tuple[dict, bytes]:
    """``(header fields, payload bytes)`` describing one array."""
    array = np.asarray(array)
    if not array.flags["C_CONTIGUOUS"]:
        # (ascontiguousarray unconditionally would promote 0-d scalars —
        # single-request results — to 1-d and change the reply shape.)
        array = np.ascontiguousarray(array)
    return {"dtype": str(array.dtype), "shape": list(array.shape)}, array.tobytes()


def decode_array(header: dict, payload: bytes) -> np.ndarray:
    """Rebuild the array described by a frame's ``dtype``/``shape`` fields."""
    try:
        dtype = np.dtype(header["dtype"])
        shape = tuple(int(dim) for dim in header["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"frame carries no decodable array: {exc}") from exc
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if len(payload) != expected:
        raise FrameError(
            f"array payload is {len(payload)} bytes, expected {expected} "
            f"for dtype={dtype} shape={shape}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
