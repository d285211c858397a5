"""HTTP/JSON gateway over the frame protocol.

The native transport speaks length-prefixed JSON/binary frames — compact
and fast, but it requires the Python client.  :class:`HttpGateway`
translates plain REST calls into frame-protocol requests through a
client-side :class:`~repro.serving.replica.ClientPool`, so anything that
can POST JSON (curl, a browser, a load balancer health check) can reach
a replica group::

    POST /v1/models/<name>:infer        {"sample": [...], "min_version": 3}
    POST /v1/models/<name>:infer_batch  {"samples": [[...], ...]}
    POST /v1/models/<name>:update       {"samples": [[...]], "labels": [...]}
    POST /v1/models/<name>:append       {"rows": [[...]], "dtype": "int64"?}
    GET  /v1/models                     -> {"models": {...}}
    GET  /v1/versions                   -> per-replica version maps
    GET  /v1/stats[?reset=1]            -> per-replica ServerStats
    GET  /healthz                       -> {"ok": true, "replicas": N}

Each gateway worker thread drives its own pooled frame-protocol client
(the pool is per-(thread, replica)), so concurrent HTTP requests fan
into concurrent frame requests without a connection lock, and every
request rides the pool's rendezvous routing — the same model always
lands on the same replica's micro-batcher no matter which HTTP
connection carried it.

Typed serving errors map onto HTTP status codes instead of opaque 500s:

====================================  ======
:class:`StaleVersionError`            409 (body carries version / min_version)
:class:`DeadlineExceeded`             504
unknown model (``KeyError``)          404
bad request shape (``ValueError``)    400
frozen model (``NotUpdatableError``)  400 (likewise ``NotAppendableError``)
unreachable backend (``OSError``)     503
anything else                         500
====================================  ======

The server is the stdlib ``ThreadingHTTPServer`` — no dependencies, one
daemon thread per connection — which is plenty for a gateway whose real
work happens behind the frame protocol.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.serving.registry import StaleVersionError
from repro.serving.transport.client import RemoteServingError
from repro.serving.transport.ops import ARRAY, OPS, pick_options

__all__ = ["HttpGateway"]

#: The one error -> HTTP status relation, keyed by exception class name:
#: looked up with ``error_type`` for errors that crossed the frame
#: protocol as :class:`RemoteServingError`, and along the class's MRO for
#: local ones (so ``KeyError`` / ``ValueError`` / ``OSError`` subclasses
#: map, and a typed name wins over its base).  Anything else is a 500.
_STATUS = {
    "StaleVersionError": 409,
    "DeadlineExceeded": 504,
    "NotUpdatableError": 400,
    "NotAppendableError": 400,
    "KeyError": 404,
    "ValueError": 400,
    "OSError": 503,
}


def _error_reply(exc: BaseException) -> Tuple[int, dict]:
    if type(exc).__name__ == "GroupUpdateError" and exc.__cause__ is not None:
        # Every live replica refused the round; answer for the (chained)
        # reason they gave, as the same mistake gets over the wire.  By
        # name like the table: the replica package imports this one.
        exc = exc.__cause__
    if isinstance(exc, RemoteServingError):
        names = [exc.error_type]
    else:
        names = [cls.__name__ for cls in type(exc).__mro__]
    body = {"error_type": names[0], "error": str(exc)}
    if isinstance(exc, StaleVersionError):
        body.update(model=exc.model, version=exc.version, min_version=exc.min_version)
    return next((_STATUS[name] for name in names if name in _STATUS), 500), body


#: Response field of each array-answering POST action.
_OUTPUT_FIELD = {"infer": "output", "infer_batch": "outputs"}


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # The gateway binds loopback by default; allow quick restarts.
    allow_reuse_address = True

    def __init__(self, address, handler, pool):
        super().__init__(address, handler)
        self.pool = pool


class _GatewayHandler(BaseHTTPRequestHandler):
    # Keep stdlib request logging off the benchmark's stderr.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def pool(self):
        return self.server.pool

    # -- plumbing -----------------------------------------------------------------
    def _reply(self, status: int, body: dict) -> None:
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        body = json.loads(raw.decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError(f"request body must be a JSON object, got {type(body).__name__}")
        return body

    @staticmethod
    def _array(body: dict, field: str, dtype: Optional[str]) -> np.ndarray:
        if field not in body:
            raise ValueError(f"request body is missing the {field!r} field")
        return np.asarray(body[field], dtype=None if dtype is None else np.dtype(dtype))

    # -- routes -------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/healthz":
                versions = self.pool.model_versions()
                self._reply(
                    200,
                    {
                        "ok": any(v is not None for v in versions),
                        "replicas": len(versions),
                        "reachable": sum(1 for v in versions if v is not None),
                    },
                )
            elif parsed.path == "/v1/models":
                merged: dict = {}
                for versions in self.pool.model_versions():
                    for name, version in (versions or {}).items():
                        merged[name] = max(int(version), merged.get(name, 0))
                self._reply(200, {"models": merged})
            elif parsed.path == "/v1/versions":
                self._reply(200, {"replicas": self.pool.model_versions()})
            elif parsed.path == "/v1/stats":
                query = parse_qs(parsed.query)
                reset = query.get("reset", ["0"])[0] in ("1", "true", "yes")
                self._reply(200, {"replicas": self.pool.stats(reset=reset)})
            else:
                self._reply(404, {"error_type": "KeyError", "error": f"no route {parsed.path}"})
        except Exception as exc:  # noqa: BLE001 - mapped to a status code
            self._reply(*_error_reply(exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        prefix = "/v1/models/"
        if not parsed.path.startswith(prefix) or ":" not in parsed.path:
            self._reply(404, {"error_type": "KeyError", "error": f"no route {parsed.path}"})
            return
        model, _, action = parsed.path[len(prefix):].rpartition(":")
        op = OPS.get(action)
        if op is None or not op.model:
            self._reply(404, {"error_type": "KeyError", "error": f"unknown action {action!r}"})
            return
        try:
            body = self._read_json()
            # As on the wire, "dtype" describes the first array (JSON
            # numbers decode as float64; an explicit "dtype" pins float32
            # samples or int64 base indices).  Later arrays keep the dtype
            # JSON gave them: forcing labels to int64 here would truncate
            # 1.7 -> 1 before the integer check could refuse it.
            arrays = [
                self._array(body, field, body.get("dtype", "float64") if index == 0 else None)
                for index, field in enumerate(op.arrays)
            ]
            result = getattr(self.pool, action)(model, *arrays, **pick_options(op, body))
            field = _OUTPUT_FIELD[action] if op.reply is ARRAY else op.reply
            reply = {"model": model, field: np.asarray(result).tolist()}
            if op.scope == "route":
                reply["replica"] = self.pool.route_for(model)
            self._reply(200, reply)
        except json.JSONDecodeError as exc:
            self._reply(400, {"error_type": "ValueError", "error": f"bad JSON body: {exc}"})
        except Exception as exc:  # noqa: BLE001 - mapped to a status code
            self._reply(*_error_reply(exc))


class HttpGateway:
    """A REST front door for a replica group (or a single server).

    Args:
        pool: The :class:`~repro.serving.replica.ClientPool` to translate
            requests through — built from a
            :class:`~repro.serving.replica.ReplicaGroup` or from bare
            ``(host, port)`` transport addresses.
        host: Gateway bind address.
        port: Gateway TCP port (0 picks an ephemeral port).

    The gateway serves from a daemon thread; use as a context manager or
    call :meth:`start` / :meth:`stop`::

        pool = ClientPool(group)
        with HttpGateway(pool) as gateway:
            requests.post(f"http://{gateway.address[0]}:{gateway.address[1]}"
                          f"/v1/models/isolet:infer", json={"sample": [...]})
    """

    def __init__(self, pool, host: str = "127.0.0.1", port: int = 0):
        self.pool = pool
        self._httpd = _GatewayHTTPServer((host, port), _GatewayHandler, pool)
        self._thread: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        if self._thread is not None:
            return self.address
        self.address = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="hdc-http-gateway", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop accepting requests and join the serve thread (the pool's
        frame-protocol connections stay open — the caller owns the pool)."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._thread = None
        self.address = None

    def __enter__(self) -> "HttpGateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = f"listening on {self.address}" if self.address else "stopped"
        return f"HttpGateway({self.pool!r}, {state})"
