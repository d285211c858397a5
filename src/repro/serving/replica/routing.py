"""Consistent model→replica routing via rendezvous (HRW) hashing.

A replica group wants two properties from its routing function:

* **Consistency** — every client (and every thread of every process)
  must route the same model to the same replica without coordinating,
  so that model's requests coalesce into one replica's micro-batches
  instead of fragmenting across the group.
* **Spread** — distinct models should land on distinct replicas with
  uniform probability, so the hot-model skew the matrix harness
  produces (one model taking most of the traffic) spreads the *other*
  models away from the hot replica instead of stacking behind it.

Rendezvous hashing gives both with no ring state: score every
(model, replica) pair with a deterministic hash and pick the replica
with the highest score.  When a replica dies, only the models that
ranked it first move (to their second choice) — every other assignment
is untouched, which is the property modulo hashing lacks.

The hash is SHA-256 over ``"model|replica_index"`` — deterministic
across processes, machines and Python versions (no ``PYTHONHASHSEED``
dependence), so a fleet of clients agrees on routes by construction.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

__all__ = ["route"]


def rendezvous_score(model: str, replica: int) -> int:
    """The deterministic HRW score of one (model, replica) pair."""
    digest = hashlib.sha256(f"{model}|{int(replica)}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_rank(model: str, replicas: Sequence[int]) -> List[int]:
    """Replica indices ordered best-first for ``model``.

    The full preference order is what failover uses: when the top choice
    is dead, the model moves to its second choice — and *only* models
    whose top choice died move at all.
    """
    return sorted(replicas, key=lambda index: rendezvous_score(model, index), reverse=True)


def route(model: str, replicas: Sequence[int]) -> int:
    """The preferred replica index for ``model`` among ``replicas``.

    Raises:
        ValueError: ``replicas`` is empty (no live replica to route to).
    """
    if not replicas:
        raise ValueError(f"cannot route model {model!r}: no live replicas")
    return max(replicas, key=lambda index: rendezvous_score(model, index))
