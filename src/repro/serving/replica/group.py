"""Replica groups: N serving replicas under one versioned contract.

One :class:`~repro.serving.server.InferenceServer` saturates once its
batching cadence is the bottleneck — each micro-batch costs at most
``max_wait_seconds`` of coalescing delay regardless of how little CPU
the batch itself needs, so per-replica throughput is capped by cadence
long before the host core is.  A :class:`ReplicaGroup` runs N complete
serving stacks (registry + broker + worker pool + socket transport) in
one process, each with its own batching clock, so aggregate throughput
scales with the replica count while clients spread their models across
the group with rendezvous hashing (:mod:`repro.serving.replica.routing`).
Each replica's transport binds its own ephemeral port; the front door is
:class:`~repro.serving.replica.pool.ClientPool` (rendezvous routing over
the live replicas' sockets).

Replicas deliberately share exactly one thing: the
:class:`~repro.serving.cache.CompiledProgramCache`.  Compiled programs
are immutable and content-addressed, so sharing the cache makes replica
N's warm-up free after replica 0 compiled, without coupling any mutable
serving state.

**Group-wide versioned hot-swap.**  :meth:`ReplicaGroup.update` applies
one labelled mini-batch to *every* live replica.  The update rule is a
pure function of (constants, samples, labels) (see
:meth:`Servable.updated`), so each replica independently derives the
bit-identical new model at the bit-identical new version — no state is
copied between replicas, ever.  The round is recorded **once** in the
group's :class:`~repro.serving.update_log.UpdateLog` after at least one
replica landed it; a replica that was down (or failed the round) is
marked dead and later repaired by :meth:`resync`, which re-registers the
baseline servables and replays the group log — rebuilding the exact
served versions from first principles.

**Read-your-writes.**  ``update`` returns the new version N; clients pin
follow-up reads with ``infer(..., min_version=N)``.  A replica that
missed the round refuses such reads with the typed
:class:`~repro.serving.registry.StaleVersionError` instead of silently
serving stale predictions — the client fails over or retries after
:meth:`resync` converges the group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.cache import CompiledProgramCache
from repro.serving.observability.catalogue import emit
from repro.serving.registry import ModelRegistry
from repro.serving.server import InferenceServer
from repro.serving.servable import Servable
from repro.serving.transport.server import TransportServer
from repro.serving.update_log import UpdateLog

__all__ = ["ReplicaGroup", "GroupUpdateError"]


class GroupUpdateError(RuntimeError):
    """A group-wide update failed on every live replica (the versions
    did not advance anywhere, so nothing was logged)."""


@dataclass
class Replica:
    """One member of a :class:`ReplicaGroup`.

    Attributes:
        index: Stable position in the group — the identity rendezvous
            routing hashes against, unchanged by kill/resync cycles.
        server: The replica's serving stack (own registry and broker;
            compile cache shared group-wide).
        transport: The replica's socket front end.
        alive: Whether the replica is serving.  Dead replicas are
            skipped by updates and routing until :meth:`ReplicaGroup.resync`
            repairs them.
    """

    index: int
    server: InferenceServer
    transport: TransportServer
    alive: bool = True

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The transport's bound ``(host, port)`` (``None`` when down)."""
        return self.transport.address if self.alive else None


@dataclass
class _Registration:
    """A baseline registration, remembered so resync can rebuild it."""

    servable: Servable
    options: dict = field(default_factory=dict)


class ReplicaGroup:
    """N serving replicas with group-wide registration, update and repair.

    Args:
        replicas: Number of replicas to run.
        host: Bind address for every replica transport (each on its own
            ephemeral port).
        update_log: Optional group-owned :class:`UpdateLog`.  Recorded
            once per successful group update (never per replica); the
            source of truth :meth:`resync` replays.
        server_options: Extra keyword arguments for every replica's
            :class:`InferenceServer` (workers, batching watermarks,
            ...).  ``registry`` / ``update_log`` are owned by the group
            and may not be overridden.
    """

    def __init__(
        self,
        replicas: int = 2,
        host: str = "127.0.0.1",
        update_log: Optional[UpdateLog] = None,
        **server_options,
    ):
        if replicas < 1:
            raise ValueError(f"a replica group needs at least 1 replica, got {replicas}")
        for owned in ("registry", "update_log"):
            if owned in server_options:
                raise ValueError(
                    f"{owned!r} is owned by the group and cannot be passed per replica"
                )
        self.n_replicas = int(replicas)
        self.host = host
        self.update_log = update_log
        self.server_options = dict(server_options)
        #: The one piece of state replicas share: the compiled-program
        #: cache.  Programs are immutable and content-addressed, so this
        #: makes warm-up O(1) per replica after the first.
        self.cache = CompiledProgramCache()
        self.replicas: List[Replica] = []
        self._registrations: Dict[str, _Registration] = {}
        self._started = False

    # -- construction helpers -----------------------------------------------------
    def _build_server(self, index: int) -> InferenceServer:
        # Each replica has its own registry (independent versions, so a
        # dead replica's staleness is observable) over the shared cache.
        # Replica brokers get NO update log: the group logs each round
        # exactly once, after it landed somewhere.
        options = dict(self.server_options)
        workers = options.get("workers")
        if callable(workers):
            # Worker *instances* hold a queue and an execution thread, so
            # they cannot be shared between replicas; a callable spec is
            # invoked once per replica (with its index) to build a private
            # worker set — also what resync uses to rebuild one.
            options["workers"] = workers(index)
        return InferenceServer(registry=ModelRegistry(cache=self.cache), **options)

    def _start_transport(self, server: InferenceServer) -> TransportServer:
        transport = TransportServer(server, host=self.host, port=0)
        transport.start()
        return transport

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "ReplicaGroup":
        """Start every replica (servers first, then their transports)."""
        if self._started:
            return self
        for index in range(self.n_replicas):
            server = self._build_server(index)
            for registration in self._registrations.values():
                server.register(registration.servable, **registration.options)
            server.start()
            transport = self._start_transport(server)
            self.replicas.append(Replica(index=index, server=server, transport=transport))
        self._started = True
        return self

    def stop(self) -> None:
        """Stop every live replica (transports first, then servers)."""
        for replica in self.replicas:
            if replica.alive:
                replica.transport.stop()
                replica.server.stop()
                replica.alive = False
        self.replicas = []
        self._started = False

    def __enter__(self) -> "ReplicaGroup":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- membership ---------------------------------------------------------------
    def alive_indices(self) -> List[int]:
        """Indices of the replicas currently serving."""
        return [replica.index for replica in self.replicas if replica.alive]

    def addresses(self) -> List[Optional[Tuple[str, int]]]:
        """Per-replica transport addresses (``None`` for dead replicas)."""
        return [replica.address for replica in self.replicas]

    def kill(self, index: int) -> None:
        """Hard-stop one replica (transport and server), as a crash would.

        The replica stays in the group as a dead member: updates skip
        it, routing excludes it, and :meth:`resync` repairs it.
        """
        replica = self.replicas[index]
        if not replica.alive:
            return
        replica.transport.stop()
        replica.server.stop()
        replica.alive = False

    def resync(self, index: int) -> Replica:
        """Repair a dead replica from the baseline plus the group log.

        Builds a fresh server over the shared compile cache, re-registers
        every baseline servable, replays the group's update log through
        the ordinary ``update`` path — same rule, same arithmetic, hence
        bit-identical constants and the exact recorded versions
        (:meth:`UpdateLog.replay` verifies them) — and restarts the
        transport.  After resync the replica serves the same versions as
        the rest of the group and accepts pinned reads again.
        """
        replica = self.replicas[index]
        if replica.alive:
            return replica
        started = time.monotonic()
        server = self._build_server(replica.index)
        for registration in self._registrations.values():
            server.register(registration.servable, **registration.options)
        server.start()
        replayed = self.update_log.replay(server) if self.update_log is not None else ()
        replica.server = server
        replica.transport = self._start_transport(server)
        replica.alive = True
        emit(
            "replica_resynced", index=index, records=len(replayed),
            duration_ms=round((time.monotonic() - started) * 1e3, 3),
        )
        return replica

    # -- group-wide operations ----------------------------------------------------
    def register(self, servable: Servable, **options) -> str:
        """Register a servable on every live replica; returns its name.

        The registration (servable + options) is remembered as the
        baseline :meth:`resync` rebuilds dead replicas from, so register
        the *initial* model here and evolve it through :meth:`update` —
        that keeps baseline + log a complete description of the served
        state.
        """
        name = options.get("name") or servable.name
        self._registrations[name] = _Registration(servable=servable, options=dict(options))
        for replica in self.replicas:
            if replica.alive:
                replica.server.register(servable, **options)
        return name

    def update(self, model: str, samples: np.ndarray, labels: np.ndarray) -> int:
        """One group-wide online re-training round; returns the version.

        Every live replica applies the same mini-batch through its own
        ``update`` path; determinism of the update rule makes the
        resulting deployments bit-identical at the same version, so no
        replica-to-replica state transfer is needed.  Partial failure is
        tolerated: replicas whose round failed are marked dead (their
        versions no longer advance — serving pinned reads from them
        would violate read-your-writes) and are repaired by
        :meth:`resync`.  The round is appended to the group log exactly
        once, after at least one replica landed it.

        Raises:
            GroupUpdateError: No live replica landed the round (the
                first per-replica error is chained as the cause).
        """
        return self._round("update", model, samples, labels)

    def append(self, model: str, rows: np.ndarray) -> int:
        """One group-wide shape-changing growth round; returns the version.

        The append-side twin of :meth:`update`: every live replica grows
        the same rows through its own ``append`` path — determinism of
        the growth rule makes the grown deployments bit-identical at the
        same version — failed replicas are killed (stale shapes must not
        serve pinned reads), and the round lands in the group log exactly
        once as a typed growth record, which :meth:`resync`'s replay
        re-applies through ``append`` to rebuild byte-identical grown
        constants.

        Raises:
            GroupUpdateError: No live replica landed the round (the
                first per-replica error is chained as the cause).
        """
        return self._round("append", model, rows)

    def _round(self, kind: str, model: str, *arrays) -> int:
        """The one body behind :meth:`update` and :meth:`append`."""
        arrays = [np.asarray(array) for array in arrays]
        versions: Dict[int, int] = {}
        errors: Dict[int, Exception] = {}
        for replica in self.replicas:
            if not replica.alive:
                continue
            try:
                versions[replica.index] = getattr(replica.server, kind)(model, *arrays)
            except Exception as exc:  # noqa: BLE001 - recorded per replica
                errors[replica.index] = exc
        if not versions:
            raise GroupUpdateError(
                f"group {kind} of {model!r} failed on every live replica "
                f"({len(errors)} errors)"
            ) from (next(iter(errors.values())) if errors else None)
        # A replica that failed the round is stale from here on: take it
        # out of the group rather than let it serve old versions (or old
        # shapes) as if nothing happened.
        for index, exc in errors.items():
            self.kill(index)
            emit("replica_killed", index=index, model=model, kind=kind, error=repr(exc))
        version = max(versions.values())
        if self.update_log is not None:
            self.update_log.write(kind, model, *arrays, version=version)
        return version

    # -- observability ------------------------------------------------------------
    def _each(self, call: Callable[[InferenceServer], object]) -> list:
        """``call(server)`` on each live replica, by position (``None``
        stands in for a dead one) — the group's ``scope="each"`` fan-out."""
        return [call(replica.server) if replica.alive else None for replica in self.replicas]

    def model_versions(self) -> List[Optional[dict]]:
        """Per-replica ``{name: version}`` maps (``None`` for dead ones)."""
        return self._each(InferenceServer.model_versions)

    def stats(self, reset: bool = False) -> List[Optional[dict]]:
        """Per-replica :class:`ServerStats` snapshots as dicts (``None``
        for dead replicas) — feed :func:`repro.serving.metrics.merge_server_stats`
        for the group-wide view."""
        return self._each(lambda server: server.stats(reset=reset).to_dict())

    def drain(self, timeout: Optional[float] = None) -> None:
        """Drain every live replica's request queue."""
        self._each(lambda server: server.drain(timeout))

    def __repr__(self) -> str:
        alive = len(self.alive_indices())
        return (
            f"ReplicaGroup({alive}/{len(self.replicas) or self.n_replicas} alive, "
            f"models={sorted(self._registrations)})"
        )
