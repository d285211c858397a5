"""The one op table: every serving op's wire format and policy, defined once.

Each post-handshake operation of the frame protocol is one :class:`Op`
row of :data:`OPS`.  A row says what the request carries (a model name,
payload arrays, optional scalar header fields), what the broker is asked
to do, which response field answers, and the op's policy — whether the
call blocks, whether it may be resent, and how a replica pool fans it
out.  Everything else is *derived* from the row:

* :class:`~repro.serving.transport.server.TransportServer` decodes the
  request (:func:`decode_request`), makes the call — on the default
  executor when ``blocking`` — and encodes the reply (:func:`encode_reply`);
* :class:`~repro.serving.transport.client.ServingClient` encodes the
  request (:func:`encode_request`), never resends it once
  ``mutates(options)`` holds, and decodes the reply (:func:`decode_reply`);
* :class:`~repro.serving.replica.ClientPool` routes by ``scope``.

Adding an op is one row here plus the broker method it calls
(docs/SERVING.md, "Adding an op").

Wire layout (protocol v3): the request header is ``{"op": name}`` plus
``"model"`` when the op takes one; the first payload array is described
by the header's top-level ``dtype`` / ``shape``, each later one by an
object under its own field name, and their bytes are concatenated in
order in the binary payload; optional scalar fields ride the header and
are omitted when ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.serving.observability.prometheus import DEFAULT_NAMESPACE, render_prometheus
from repro.serving.transport.protocol import decode_array, encode_array_header

__all__ = ["Op", "OPS", "encode_request", "decode_request", "encode_reply", "decode_reply"]

#: ``Op.reply`` kinds that answer in the binary payload instead of a
#: header field: one array (metadata in the header), or UTF-8 text.
ARRAY = "<array payload>"
TEXT = "<text payload>"

#: The ``content_type`` header of a :data:`TEXT` reply (the only text op
#: is the Prometheus exposition).
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _never(options: dict) -> bool:
    return False


def _always(options: dict) -> bool:
    return True


def _when(option: str) -> Callable[[dict], bool]:
    return lambda options: bool(options.get(option))


@dataclass(frozen=True)
class Op:
    """One wire operation.

    Attributes:
        name: The ``"op"`` header value.
        model: Whether the request names a model (``"model"`` field,
            first call argument).
        arrays: Names of the payload arrays, in payload order.
        options: Optional scalar header fields and their casts (applied
            on both ends; a ``None`` value is left off the wire).
        call: ``(broker, [model], *arrays, **options)`` -> the response
            header fields (``None`` acks), or the array / text itself
            for an :data:`ARRAY` / :data:`TEXT` reply.  ``None`` for the
            two ops that await a completion instead of making a call
            (the transport server keeps their handlers).
        reply: The response field the client returns, :data:`ARRAY`,
            :data:`TEXT`, or ``None`` for a bare ack.
        blocking: The call blocks (training, compiles, waiting), so the
            transport runs it off the event loop.
        mutates: ``options -> bool``: the request has a side effect, so
            it is never resent once its frame went out — the server may
            have acted before the reply was lost.
        scope: How a replica pool fans the op out — ``"route"`` to the
            one replica the model routes to, ``"each"`` live replica, or
            one group-wide swap ``"round"``.
    """

    name: str
    model: bool = False
    arrays: Tuple[str, ...] = ()
    options: Mapping[str, Callable] = field(default_factory=dict)
    call: Optional[Callable] = None
    reply: Optional[str] = None
    blocking: bool = False
    mutates: Callable[[dict], bool] = _never
    scope: str = "each"


_INFER_OPTIONS = {"priority": int, "deadline_ms": float, "min_version": int}
_ROUND = dict(reply="model_version", blocking=True, mutates=_always, scope="round")

# fmt: off
_ROWS = (
    Op("infer", model=True, arrays=("sample",), options=_INFER_OPTIONS, reply=ARRAY, scope="route"),
    Op("infer_batch", model=True, arrays=("samples",), options=_INFER_OPTIONS, reply=ARRAY,
       scope="route"),
    # The two swap rounds train / grow, compile and warm before they
    # answer, and re-running one applies its batch twice.
    Op("update", model=True, arrays=("samples", "labels"), **_ROUND,
       call=lambda broker, *args: {"model_version": broker.update(*args)}),
    Op("append", model=True, arrays=("rows",), **_ROUND,
       call=lambda broker, *args: {"model_version": broker.append(*args)}),
    Op("model_versions", reply="models",
       call=lambda broker: {"models": broker.model_versions()}),
    # ``reset`` snapshots and zeroes the window under one broker-side lock
    # acquisition, so scrape-then-reset over the wire never loses the
    # requests that land between two frames.
    Op("stats", options={"reset": bool}, reply="stats", mutates=_when("reset"),
       call=lambda broker, reset=False: {"stats": broker.stats(reset=reset).to_dict()}),
    Op("reset_stats", mutates=_always, call=lambda broker: broker.reset_stats()),
    Op("list_models", reply="models", call=lambda broker: {"models": broker.registry.names()}),
    Op("drain", options={"timeout": float}, blocking=True,
       call=lambda broker, timeout=None: broker.drain(timeout)),
    Op("ping", reply="running", call=lambda broker: {"running": broker.running}),
    # Read-only (no reset), so scrapers never perturb the per-interval
    # reporting idiom.
    Op("metrics", options={"namespace": str}, reply=TEXT,
       call=lambda broker, namespace=None: render_prometheus(
           broker.stats().to_dict(), namespace=namespace or DEFAULT_NAMESPACE)),
    # ``clear`` empties the trace rings after the read (scrape-then-clear).
    Op("traces", options={"limit": int, "clear": bool}, reply="traces", mutates=_when("clear"),
       call=lambda broker, limit=None, clear=False: {
           "traces": broker.traces(limit=limit, clear=clear),
           "tracing": broker.tracer is not None}),
)
# fmt: on

#: The table, by op name.
OPS: Dict[str, Op] = {op.name: op for op in _ROWS}


def pick_options(op: Op, values: Mapping) -> dict:
    """The op's options present (not ``None``) in ``values``, cast."""
    return {
        key: cast(values[key]) for key, cast in op.options.items() if values.get(key) is not None
    }


def encode_request(
    op: Op, model: Optional[str], arrays: tuple, options: dict
) -> Tuple[dict, bytes]:
    """The request ``(header, payload)`` of one call."""
    header: dict = {"op": op.name}
    if op.model:
        header["model"] = model
    chunks = []
    for index, (name, array) in enumerate(zip(op.arrays, arrays)):
        fields, data = encode_array_header(array)
        if index == 0:
            header.update(fields)
        else:
            header[name] = fields
        chunks.append(data)
    header.update(pick_options(op, options))
    return header, b"".join(chunks)


def decode_request(op: Op, header: dict, payload: bytes) -> Tuple[list, dict]:
    """``(positional arguments, options)`` of one request frame."""
    args = [header["model"]] if op.model else []
    offset = 0
    for index, name in enumerate(op.arrays):
        spec = header if index == 0 else header.get(name) or {}
        end = len(payload)
        if index < len(op.arrays) - 1:
            # Not the last array: its own metadata says where it ends
            # (decode_array then checks the slice against it).
            itemsize = np.dtype(spec.get("dtype", "float64")).itemsize
            end = offset + itemsize * int(np.prod(spec.get("shape", ()), dtype=np.int64))
        args.append(decode_array(spec, payload[offset:end]))
        offset = end
    return args, pick_options(op, header)


def encode_reply(op: Op, result) -> Tuple[dict, bytes]:
    """The response ``(header fields, payload)`` for a call's result."""
    if op.reply is ARRAY:
        return encode_array_header(result)
    if op.reply is TEXT:
        return {"content_type": TEXT_CONTENT_TYPE}, result.encode("utf-8")
    return result or {}, b""


def decode_reply(op: Op, header: dict, payload: bytes):
    """What the client returns for one ``ok`` response frame."""
    if op.reply is ARRAY:
        return decode_array(header, payload)
    if op.reply is TEXT:
        return payload.decode("utf-8")
    return header[op.reply] if op.reply else None
