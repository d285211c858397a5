"""Compiled-program caching for the serving runtime.

Compilation (clone → approximation passes → lowering → verification) is the
dominant fixed cost of putting an HDC++ program behind a service: the same
model re-registered, or the same model compiled for a new micro-batch
bucket, should never repeat that work.  :class:`CompiledProgramCache` is a
thread-safe LRU keyed on

``(program signature, target, approximation-config key, batch size, scope)``

where the *signature* identifies the traced program family (see
:func:`repro.serving.servable.servable_signature`; online updates inherit
it, so their constants re-bind the same entries) and *scope*
isolates entries that cannot be shared — e.g. accelerator back ends whose
compiled programs are tied to one device's residency state.

The cache is **persistent**: :meth:`CompiledProgramCache.save` serializes
every artifact through its back end's serialization hook
(:meth:`repro.backends.Backend.serialize_compiled`) and
:meth:`CompiledProgramCache.load` restores them into a fresh process —
under the very same keys, so a restarted server's first registration hits
instead of re-running trace/transform/lower/verify.  Hits served from
loaded entries are additionally counted in ``CacheStats.warm_hits``,
which is how tests (and operators) assert that a warm restart really
skipped compilation.  Entries whose programs cannot be serialized (e.g.
eager implementation closures) are skipped at save time and simply
recompile on first use after a restart.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.backends.base import Backend, CompiledProgram
from repro.hdcpp.program import Program
from repro.ir.dataflow import Target
from repro.serving.observability.catalogue import emit
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["CacheStats", "CompiledProgramCache"]

CacheKey = Tuple[str, str, str, int, str]


def config_key(config: Optional[ApproximationConfig]) -> str:
    """A stable, hashable token for an approximation configuration.

    ``ApproximationConfig`` is a frozen dataclass of value objects, so its
    ``repr`` is deterministic and distinguishes every knob the passes read.
    """
    config = config or ApproximationConfig.none()
    return repr(config)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance.

    ``warm_hits`` counts the subset of ``hits`` served by entries that
    were restored with :meth:`CompiledProgramCache.load` — i.e. lookups
    that would have been trace/lower/verify misses in a cold process.
    ``evictions`` counts capacity and ``evict_signature`` evictions,
    ``skipped`` the entries a save / load could not (de)serialize and
    ``compile_seconds`` what misses spent tracing and compiling.  Each
    field is the ``cache_<field>`` row of a ``ServerStats`` snapshot.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    warm_hits: int = 0
    skipped: int = 0
    compile_seconds: float = 0.0


#: On-disk format version of :meth:`CompiledProgramCache.save` payloads.
#: Format 3 programs carry the plan attributes their back ends read
#: (:mod:`repro.transforms.plan`), the stages' ``proven`` columns among them;
#: an older save has none of those (format 1) or not the proofs (format 2),
#: so it is refused.
PERSIST_FORMAT = 3


class CompiledProgramCache:
    """Thread-safe LRU cache of :class:`CompiledProgram` artifacts."""

    def __init__(self, capacity: Optional[int] = None):
        self._entries: "OrderedDict[CacheKey, CompiledProgram]" = OrderedDict()
        self._warm_keys: set = set()
        self._lock = threading.RLock()
        self.capacity = capacity
        self.stats = CacheStats()

    # -- keys ---------------------------------------------------------------------
    @staticmethod
    def make_key(
        signature: str,
        target: Union[str, Target],
        config: Optional[ApproximationConfig] = None,
        batch_size: int = 0,
        scope: str = "",
    ) -> CacheKey:
        target = Target(target) if not isinstance(target, Target) else target
        return (signature, target.value, config_key(config), int(batch_size), scope)

    # -- lookup / population ------------------------------------------------------
    def get_or_compile(
        self,
        key: CacheKey,
        backend: Backend,
        build: Callable[[], Program],
        config: Optional[ApproximationConfig] = None,
    ) -> CompiledProgram:
        """Return the cached artifact for ``key``, compiling it on a miss.

        ``build`` is only invoked on a miss, so callers can defer tracing
        itself (not just transform/lower/verify) behind the cache.  The
        lock is held across compilation: concurrent workers asking for the
        same key wait for one compile instead of duplicating it.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.stats.hits += 1
                if key in self._warm_keys:
                    self.stats.warm_hits += 1
                self._entries.move_to_end(key)
                return cached
            self.stats.misses += 1
            started = time.perf_counter()
            program = build()
            traced = time.perf_counter()
            compiled = backend.compile(program, config=config)
            done = time.perf_counter()
            self.stats.compile_seconds += done - started
            self._entries[key] = compiled
            self._evict_over_capacity()
        emit(
            "compile", signature=key[0], target=key[1], bucket=key[3],
            trace_ms=round((traced - started) * 1e3, 3), compile_ms=round((done - traced) * 1e3, 3),
            phases_ms={name: round(s * 1e3, 3) for name, s in compiled.compile_seconds.items()},
        )
        return compiled

    def _evict_over_capacity(self) -> None:
        """Caller must hold the lock."""
        while self.capacity is not None and len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._warm_keys.discard(evicted)
            self.stats.evictions += 1

    # -- persistence --------------------------------------------------------------
    def save(self, path: Union[str, "os.PathLike"]) -> int:
        """Serialize the cached artifacts to ``path``; returns entries saved.

        Each artifact is serialized through its back end's
        :meth:`~repro.backends.Backend.serialize_compiled` hook.  Entries
        that refuse serialization (programs closing over Python callables,
        back ends with unserializable device state) are skipped — they
        recompile on first use after a restart, exactly as before this
        feature existed.
        """
        with self._lock:
            entries = list(self._entries.items())
        payloads: Dict[CacheKey, bytes] = {}
        for key, compiled in entries:
            try:
                payloads[key] = compiled.backend.serialize_compiled(compiled)
            except Exception as exc:  # unserializable entry: recompiles after restart
                self._skip("save", key, exc)
        blob = pickle.dumps({"format": PERSIST_FORMAT, "entries": payloads})
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)  # readers never observe a half-written cache
        return len(payloads)

    def load(
        self,
        path: Union[str, "os.PathLike"],
        backend_factory: Optional[Callable[[Target], "Backend"]] = None,
    ) -> int:
        """Restore artifacts saved with :meth:`save`; returns entries loaded.

        Restoration deserializes through
        :meth:`~repro.backends.Backend.deserialize_compiled`, which redoes
        back-end preparation (kernel selection, device setup) but **not**
        tracing, transforms, lowering or verification — the dominant fixed
        cost the cache exists to avoid.  Keys already present in the cache
        are kept (a live compile beats a stale disk entry), and loaded
        entries count their subsequent hits in ``stats.warm_hits``.

        Args:
            backend_factory: ``Target -> Backend`` used to re-create the
                executing back ends.  Defaults to the serving-default back
                end per target (batched CPU kernels, warm accelerator
                sessions), one shared instance per target.
        """
        with open(path, "rb") as handle:
            data = pickle.load(handle)
        if not isinstance(data, dict) or data.get("format") != PERSIST_FORMAT:
            raise ValueError(
                f"{os.fspath(path)} is not a compiled-program cache save "
                f"(format {data.get('format') if isinstance(data, dict) else None!r})"
            )
        if backend_factory is None:
            from repro.serving.scheduler import default_worker_backend

            shared: Dict[Target, "Backend"] = {}

            def backend_factory(target: Target) -> "Backend":
                if target not in shared:
                    shared[target] = default_worker_backend(target)
                return shared[target]

        loaded = 0
        for key, payload in data["entries"].items():
            if key in self:  # cheap pre-check: a live compile beats the
                continue     # disk entry, so skip the whole restore cost
            try:
                backend = backend_factory(Target(key[1]))
                compiled = backend.deserialize_compiled(payload)
            except Exception as exc:  # an entry this process cannot restore
                self._skip("load", key, exc)
                continue
            with self._lock:
                if key in self._entries:  # raced with a concurrent compile
                    continue
                self._entries[key] = compiled
                self._warm_keys.add(key)
                self._evict_over_capacity()
            loaded += 1
        return loaded

    def _skip(self, op: str, key: CacheKey, exc: Exception) -> None:
        """Count and report an entry a save / load could not carry."""
        with self._lock:
            self.stats.skipped += 1
        emit("cache_skip", op=op, key=key, error=repr(exc))

    # -- maintenance --------------------------------------------------------------
    def evict_signature(self, signature: str) -> int:
        """Drop every entry compiled for one program-family signature.

        Covers the signature itself and its scoped derivatives (shard
        slices sign as ``"<signature>:shardIofN"``).  This is how the
        hot-swap path reclaims a replaced deployment's artifacts: each
        growth round re-traces the family under a new signature, so
        without eviction a growing index would leak one warmed bucket
        ladder per round, forever.  Evicting is always safe —
        already-bound handles keep executing (they never go back through
        the cache), and a late lookup simply recompiles.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if key[0] == signature or key[0].startswith(signature + ":")
            ]
            for key in doomed:
                del self._entries[key]
                self._warm_keys.discard(key)
            self.stats.evictions += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._warm_keys.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"CompiledProgramCache(size={len(self)}, hits={self.stats.hits}, "
            f"misses={self.stats.misses})"
        )
