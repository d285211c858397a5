"""Replica groups: horizontal scaling for the serving runtime.

One serving stack's throughput is capped by its batching cadence; a
replica group runs N complete stacks (each with its own registry,
broker and transport, sharing only the immutable compiled-program
cache) and spreads models across them with deterministic rendezvous
routing.  See :mod:`repro.serving.replica.group` for the group-wide
versioned hot-swap / read-your-writes contract, and
``docs/SERVING.md`` ("Replica groups") for the guided tour.
"""

from repro.serving.replica.group import GroupUpdateError, ReplicaGroup
from repro.serving.replica.pool import ClientPool
from repro.serving.replica.routing import route

__all__ = [
    "ClientPool",
    "GroupUpdateError",
    "ReplicaGroup",
    "route",
]
