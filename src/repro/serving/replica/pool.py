"""Client-side connection pooling and routing for replica groups.

:class:`ClientPool` is what callers (benchmark drivers, application
threads) hold instead of a bare
:class:`~repro.serving.transport.ServingClient`:

* **Per-(thread, replica) clients.**  The frame protocol is
  request/response per connection, so a connection serializes its
  callers; the pool gives every thread its own client per replica
  (``threading.local``), which is the idiom that lets N threads drive
  N concurrent requests without a connection lock.
* **Rendezvous routing.**  Each model consistently routes to one live
  replica (:func:`~repro.serving.replica.routing.route`), so a model's
  traffic coalesces into one replica's micro-batches no matter how many
  threads or processes are calling.  Dead replicas drop out of
  the candidate set; only models routed to them move.
* **Shared retry budget.**  All pooled clients draw reconnect-backoff
  tokens from one :class:`~repro.serving.transport.RetryBudget`, so a
  replica outage costs a bounded number of retries *per pool*, not per
  thread — a thundering herd of per-thread retries is exactly what the
  budget exists to prevent.
* **Group-wide writes.**  ``update`` fans out through the owning
  :class:`~repro.serving.replica.ReplicaGroup` when the pool wraps one
  (keeping the group's update log authoritative), or over the wire to
  every replica when the pool was built from bare addresses.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.replica.routing import route
from repro.serving.transport.client import RetryBudget, ServingClient
from repro.serving.transport.ops import OPS

__all__ = ["ClientPool"]


class ClientPool:
    """Pooled, rendezvous-routed clients over a replica group.

    Args:
        group_or_addresses: A started
            :class:`~repro.serving.replica.ReplicaGroup` (liveness and
            addresses tracked through it; ``update`` delegates to the
            group) or a plain sequence of ``(host, port)`` transport
            addresses (all assumed live; ``update`` fans out over the
            wire).
        retry_budget: Shared reconnect budget; defaults to a fresh
            :class:`RetryBudget` so the pool is herd-safe out of the box.
        **client_options: Extra :class:`ServingClient` keyword arguments
            (``timeout``, ``max_retries``, backoff bounds, ...).
    """

    def __init__(
        self,
        group_or_addresses,
        retry_budget: Optional[RetryBudget] = None,
        **client_options,
    ):
        if hasattr(group_or_addresses, "alive_indices"):
            self._group = group_or_addresses
            self._addresses: List[Tuple[str, int]] = []
        else:
            self._group = None
            self._addresses = [(str(h), int(p)) for h, p in group_or_addresses]
            if not self._addresses:
                raise ValueError("ClientPool needs at least one replica address")
        self.retry_budget = retry_budget if retry_budget is not None else RetryBudget()
        self.client_options = dict(client_options)
        self._local = threading.local()
        # Every client ever created, across threads, so close() can
        # reach clients owned by threads that have since exited.
        self._all_clients: List[ServingClient] = []
        self._all_lock = threading.Lock()
        self._closed = False

    # -- membership ---------------------------------------------------------------
    def _live_indices(self) -> List[int]:
        if self._group is not None:
            return self._group.alive_indices()
        return list(range(len(self._addresses)))

    def _address_of(self, index: int) -> Tuple[str, int]:
        if self._group is not None:
            address = self._group.replicas[index].address
            if address is None:
                raise ConnectionError(f"replica {index} is down")
            return address
        return self._addresses[index]

    def route_for(self, model: str) -> int:
        """The live replica index ``model`` currently routes to."""
        return route(model, self._live_indices())

    # -- client management --------------------------------------------------------
    def _client(self, index: int) -> ServingClient:
        if self._closed:
            raise ConnectionError("client pool is closed")
        clients: Dict[int, ServingClient] = getattr(self._local, "clients", None)
        if clients is None:
            clients = {}
            self._local.clients = clients
        client = clients.get(index)
        if client is None:
            host, port = self._address_of(index)
            client = ServingClient(
                host, port, retry_budget=self.retry_budget, **self.client_options
            )
            clients[index] = client
            with self._all_lock:
                self._all_clients.append(client)
        elif client.address != self._address_of(index):
            # The replica came back on a new port after a resync: retire
            # the stale client and dial the new address.
            client.close()
            clients.pop(index)
            return self._client(index)
        return client

    def close(self) -> None:
        """Close every pooled connection (all threads' clients)."""
        self._closed = True
        with self._all_lock:
            clients, self._all_clients = self._all_clients, []
        for client in clients:
            client.close()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- op routing ---------------------------------------------------------------
    def _call(self, name: str, *args, **options):
        """Fan one op out as its :data:`OPS` row's ``scope`` says."""
        return getattr(self, "_" + OPS[name].scope)(name, *args, **options)

    def _route(self, name: str, model: str, *args, **options):
        """On the one live replica ``model`` routes to."""
        return getattr(self._client(self.route_for(model)), name)(model, *args, **options)

    def _each(self, name: str, **options) -> list:
        """On each live replica; ``None`` stands in for an unreachable one."""
        results: list = []
        for index in self._live_indices():
            try:
                results.append(getattr(self._client(index), name)(**options))
            except (ConnectionError, OSError):
                results.append(None)
        return results

    def _round(self, name: str, model: str, *arrays) -> int:
        """One group-wide swap round (see :meth:`update` / :meth:`append`)."""
        if self._group is not None:
            return getattr(self._group, name)(model, *arrays)
        versions = []
        first_error: Optional[Exception] = None
        for index in self._live_indices():
            try:
                versions.append(getattr(self._client(index), name)(model, *arrays))
            except Exception as exc:  # noqa: BLE001 - collected, re-raised if total
                if first_error is None:
                    first_error = exc
        if not versions:
            raise first_error if first_error is not None else ConnectionError(
                f"no replica accepted the {name}"
            )
        return max(versions)

    # -- reads --------------------------------------------------------------------
    def infer(self, model: str, sample: np.ndarray, **kwargs) -> np.ndarray:
        """Single-sample inference on the replica ``model`` routes to.

        Accepts the :meth:`ServingClient.infer` keywords, including
        ``min_version=N`` for read-your-writes after :meth:`update`.
        """
        return self._call("infer", model, sample, **kwargs)

    def infer_batch(self, model: str, samples: np.ndarray, **kwargs) -> np.ndarray:
        """Batch inference on the replica ``model`` routes to."""
        return self._call("infer_batch", model, samples, **kwargs)

    # -- writes -------------------------------------------------------------------
    def update(self, model: str, samples: np.ndarray, labels) -> int:
        """Group-wide online update; returns the new model version.

        Through a wrapped group this is the group's own update (one
        log append, dead replicas skipped).  Over bare addresses it fans
        out to every replica and returns the maximum version — replicas
        apply the same pure update rule, so versions agree wherever the
        round landed.
        """
        return self._call("update", model, samples, labels)

    def append(self, model: str, rows: np.ndarray) -> int:
        """Group-wide shape-changing append; returns the new model version.

        Through a wrapped group this is the group's own append (one typed
        growth record in the log, dead replicas skipped).  Over bare
        addresses it fans out to every replica and returns the maximum
        version — the growth rule is pure, so versions agree wherever the
        round landed.  Never resent per replica (appending twice grows
        the index twice).
        """
        return self._call("append", model, rows)

    # -- observability ------------------------------------------------------------
    def stats(self, reset: bool = False) -> List[Optional[dict]]:
        """Per-replica stats snapshots (``None`` for unreachable ones)."""
        return self._call("stats", reset=reset)

    def model_versions(self) -> List[Optional[dict]]:
        """Per-replica ``{name: version}`` maps (``None`` if unreachable)."""
        return self._call("model_versions")

    def __repr__(self) -> str:
        n = len(self._live_indices())
        backing = "group" if self._group is not None else "addresses"
        return f"ClientPool({n} live replicas via {backing})"
