"""Model registry: named deployments of servables with warm compile caching.

A :class:`Deployment` ties one :class:`~repro.serving.servable.Servable`
(trained state included) to an approximation configuration and hands out
reusable :class:`~repro.backends.BoundProgram` inference handles, one per
(micro-batch bucket, worker scope).  Handles are created through the shared
:class:`~repro.serving.cache.CompiledProgramCache`, so re-registering a
model or warming a second worker of the same target skips tracing,
transforms, lowering and verification entirely — and, with
:meth:`ModelRegistry.save_cache` / :meth:`ModelRegistry.load_cache`, so
does re-registering after a process restart.

:class:`ShardedDeployment` extends this to class memories that exceed one
worker's capacity: the servable's :class:`~repro.serving.servable
.ShardSpec` constant is split into N contiguous row blocks, each shard
compiles a *partial-score* program bound to its slice alone, and
:func:`reduce_partials` folds the scatter-executed partial scores back
into predictions (argmin / argmax / top-k) — bit-identically to the
unsharded program, because ordered concatenation restores the exact
arg-reduction input.  One cell is excepted: *cosine* on the HDC
accelerators, where the unsharded stage is the device's binarized Hamming
search and shards score host cosine.

The :class:`ModelRegistry` is usable standalone — ``registry.register(...)``
then ``deployment.run(batch)`` — and is what
:class:`~repro.serving.server.InferenceServer` builds on.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.backends.base import Backend, BoundProgram, ExecutionReport, ExecutionResult
from repro.backends.packing import packable_entry_params
from repro.ir.dataflow import Target
from repro.kernels import binary as binkern, reference as refkern
from repro.serving.cache import CompiledProgramCache
from repro.serving.scheduler import default_worker_backend
from repro.serving.servable import Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = [
    "Deployment",
    "ShardedDeployment",
    "ModelRegistry",
    "StaleVersionError",
    "reduce_partials",
]


class StaleVersionError(RuntimeError):
    """A version-pinned request (``infer(..., min_version=N)``) reached a
    deployment still serving an older version.

    Version pinning is the read-your-writes contract across replica
    groups: after a group-wide ``update`` returns version N, a client may
    pin follow-up reads to ``min_version=N``; a replica that missed the
    update (killed mid-propagation, not yet resynced) refuses the read
    with this typed error instead of silently serving stale predictions.
    The transport maps it end to end (the HTTP gateway answers 409), so
    callers can retry against another replica or trigger a resync.
    """

    def __init__(self, model: str, version: int, min_version: int):
        super().__init__(
            f"model {model!r} is at version {version}, but the request "
            f"pinned min_version={min_version} — this replica is stale"
        )
        self.model = model
        self.version = int(version)
        self.min_version = int(min_version)


def reduce_partials(
    partials: Sequence[np.ndarray], mode: str, top_k: int = 1
) -> np.ndarray:
    """Fold per-shard score matrices into predictions.

    Args:
        partials: One ``(batch, shard_rows)`` score matrix per shard, in
            shard order, so concatenation restores original row indices.
        mode: ``"argmin"`` (distances) or ``"argmax"`` (similarities).
        top_k: With the default 1, returns a ``(batch,)`` index vector —
            the same contract as the unsharded arg-reduced program.  With
            ``top_k > 1``, returns ``(batch, top_k)`` ranked indices.

    Tie-breaking matches ``np.argmin`` / ``np.argmax`` (first match wins)
    and the top-k ranking uses a stable sort, so sharded results are
    bit-identical to reducing the unsharded score matrix.
    """
    scores = np.concatenate([np.asarray(p) for p in partials], axis=-1)
    if mode not in ("argmin", "argmax"):
        raise ValueError(f"mode must be 'argmin' or 'argmax', got {mode!r}")
    if top_k == 1:
        reduced = scores.argmin(axis=-1) if mode == "argmin" else scores.argmax(axis=-1)
        return reduced.astype(np.int64)
    if top_k < 1 or top_k > scores.shape[-1]:
        raise ValueError(f"top_k={top_k} out of range for {scores.shape[-1]} classes")
    keys = scores if mode == "argmin" else -scores
    return np.argsort(keys, axis=-1, kind="stable")[..., :top_k].astype(np.int64)


class Deployment:
    """One registered model: a servable plus its compiled-handle cache."""

    def __init__(
        self,
        name: str,
        servable: Servable,
        cache: CompiledProgramCache,
        config: Optional[ApproximationConfig] = None,
        default_target: Union[str, Target] = Target.CPU,
    ):
        self.name = name
        self.servable = servable
        self.cache = cache
        self.config = config
        self.default_target = (
            Target(default_target) if not isinstance(default_target, Target) else default_target
        )
        if not servable.supports_target(self.default_target):
            raise ValueError(
                f"{servable.name!r} does not support target {self.default_target.value} "
                f"(supports {servable.supported_targets})"
            )
        self._default_backend: Optional[Backend] = None
        self._handles: Dict[tuple, BoundProgram] = {}
        #: Packed class-memory constants, keyed by param name — populated
        #: lazily by :meth:`handle_for` when the approximation config opts
        #: this deployment into packed residency (``binarize``).  Packing
        #: is a pure function of the servable's float constants, so every
        #: handle (and every rebuilt deployment replaying the same
        #: constants) binds bit-identical words.
        self._packed_constants: Dict[str, "binkern.PackedBits"] = {}
        self._lock = threading.Lock()
        #: Monotonic deployment version, stamped by the registry on
        #: :meth:`ModelRegistry.register` / :meth:`ModelRegistry.swap`.
        #: 0 means "never registered".
        self.version = 0

    # -- backends -----------------------------------------------------------------
    @property
    def default_backend(self) -> Backend:
        with self._lock:
            if self._default_backend is None:
                self._default_backend = default_worker_backend(self.default_target)
            return self._default_backend

    # -- handles ------------------------------------------------------------------
    def handle_for(self, batch_size: int, worker=None) -> BoundProgram:
        """The reusable inference handle for one micro-batch bucket.

        When ``worker`` (a :class:`repro.serving.scheduler.Worker`) is
        given, the handle executes through that worker's back end and the
        cache entry is keyed by the worker's scope; otherwise the
        deployment's default backend is used.
        """
        if worker is not None:
            backend, scope = worker.backend, worker.scope
        else:
            backend, scope = self.default_backend, self.default_target.value
        key = self.cache.make_key(
            self.servable.signature, backend.target, self.config, batch_size, scope
        )
        handle_key = (key, id(backend))
        with self._lock:
            handle = self._handles.get(handle_key)
        if handle is not None:
            return handle
        compiled = self.cache.get_or_compile(
            key, backend, lambda: self.servable.build_program(batch_size), config=self.config
        )
        handle = compiled.bind(backend=backend, **self._constants_for(compiled))
        with self._lock:
            return self._handles.setdefault(handle_key, handle)

    # -- packed residency ----------------------------------------------------------
    def _constants_for(self, compiled) -> dict:
        """The constants one compiled handle binds — packed class memory
        when this deployment opted into packed residency.

        A ``binarize`` approximation config turns eligible constants (see
        :func:`~repro.backends.packing.packable_entry_params`) into
        :class:`~repro.kernels.binary.PackedBits` ``uint64`` words:
        ``pack(sign(float_constants))``, exactly the binarization the
        program's ``_coerce`` would apply, so results are bit-identical
        to binding the float state.  The packed words are computed once
        per deployment and shared by every handle; the servable's float
        constants are left untouched (``update_batch`` needs them).
        """
        constants = self.servable.constants
        if self.config is None or not getattr(self.config, "binarize", False):
            return constants
        packable = packable_entry_params(compiled.program)
        if not packable:
            return constants
        bound = dict(constants)
        with self._lock:
            for name in packable:
                if name not in constants:
                    continue
                packed = self._packed_constants.get(name)
                if packed is None:
                    packed = binkern.pack_bipolar(
                        refkern.sign(np.asarray(constants[name]))
                    )
                    self._packed_constants[name] = packed
                bound[name] = packed
        return bound

    def residency(self) -> Optional[dict]:
        """Resident class-memory accounting, or ``None`` when unpacked.

        Reports, per packed constant and in total, the bytes actually
        resident (``uint64`` words) against what the same state occupies
        unpacked — the ~32x shrink the serving metrics and Prometheus
        exposition surface per model.
        """
        with self._lock:
            packed_map = dict(self._packed_constants)
        if not packed_map:
            return None
        params = {}
        resident = unpacked = 0
        for name, packed in packed_map.items():
            source = self.servable.constants.get(name)
            source_bytes = int(np.asarray(source).nbytes) if source is not None else 0
            params[name] = {
                "resident_bytes": int(packed.nbytes),
                "unpacked_bytes": source_bytes,
                "dim": int(packed.dim),
            }
            resident += int(packed.nbytes)
            unpacked += source_bytes
        return {
            "packed": True,
            "params": params,
            "class_memory_bytes": resident,
            "class_memory_unpacked_bytes": unpacked,
            "shrink_ratio": (unpacked / resident) if resident else 0.0,
        }

    def ensure_packed(self) -> Optional[dict]:
        """Materialize packed residency *now* and return the accounting.

        :meth:`residency` only reports words that already exist, so a
        deployment registered with ``warm=False`` — or swapped in without
        a warm pass — would report ``None`` (and leave the Prometheus
        class-memory gauges stale) until the first handle compiled.  The
        broker calls this at register/swap time so the gauges reflect the
        new constant bytes eagerly, not lazily at the next ``stats()``.
        Compiling the smallest bucket is what triggers the one-time pack;
        for unpacked configs this is a no-op returning ``None``.
        """
        if self.config is not None and getattr(self.config, "binarize", False):
            with self._lock:
                packed = bool(self._packed_constants)
            if not packed:
                self.handle_for(1)
        return self.residency()

    def warm(self, batch_sizes: Iterable[int], worker=None) -> None:
        """Pre-compile (or cache-hit) the handles for the given buckets."""
        for batch_size in batch_sizes:
            self.handle_for(batch_size, worker=worker)

    # -- hot-swap -----------------------------------------------------------------
    def with_servable(self, servable: Servable) -> "Deployment":
        """A same-shaped deployment (name, cache, config, target) serving a
        different servable — the replacement a hot-swap installs after an
        online update re-trained the bound state."""
        return Deployment(
            self.name,
            servable,
            self.cache,
            config=self.config,
            default_target=self.default_target,
        )

    # -- direct execution ---------------------------------------------------------
    def run(self, batch: np.ndarray, worker=None) -> ExecutionResult:
        """One-shot batched inference through the deployment's own handle."""
        batch = np.asarray(batch)
        handle = self.handle_for(batch.shape[0], worker=worker)
        return handle.run(**{self.servable.query_param: batch})

    def __repr__(self) -> str:
        return (
            f"Deployment({self.name!r}, v{self.version}, "
            f"target={self.default_target.value}, handles={len(self._handles)})"
        )


class ShardedDeployment(Deployment):
    """A deployment whose class memory is split across N shard workers.

    Construction slices ``servable.shard_spec.param`` into ``n_shards``
    contiguous row blocks and builds one sub-:class:`Deployment` per
    shard, each serving the partial-score program over its slice alone —
    so no single worker ever holds (or transfers) the full hypermatrix.
    Execution scatters the same query batch to every shard, gathers the
    ``(batch, shard_rows)`` partial scores and reduces them with
    :func:`reduce_partials`.

    The parent :class:`Deployment` machinery (default backend, signature,
    config) is reused; the full-memory handles of the parent are simply
    never compiled, because :meth:`warm`, :meth:`run` and the server's
    scatter path only touch the shard sub-deployments.
    """

    def __init__(
        self,
        name: str,
        servable: Servable,
        cache: CompiledProgramCache,
        n_shards: int,
        config: Optional[ApproximationConfig] = None,
        default_target: Union[str, Target] = Target.CPU,
        shard_capacity: Optional[int] = None,
    ):
        super().__init__(name, servable, cache, config=config, default_target=default_target)
        spec = servable.shard_spec
        if spec is None:
            raise ValueError(f"{servable.name!r} has no shard_spec; cannot deploy sharded")
        full = np.asarray(servable.constants[spec.param])
        rows = full.shape[spec.axis]
        if shard_capacity is not None and shard_capacity < 1:
            raise ValueError(f"shard_capacity must be >= 1, got {shard_capacity}")
        if n_shards < 2:
            raise ValueError(f"n_shards must be >= 2, got {n_shards}")
        if n_shards > rows:
            raise ValueError(f"cannot split {rows} rows into {n_shards} shards")
        self.n_shards = n_shards
        #: Maximum class-memory rows one shard may hold.  With a capacity
        #: declared, :meth:`with_servable` re-partitions when append-style
        #: growth would push any shard past it — the live shard-rebalance
        #: path of shape-changing swap.
        self.shard_capacity = shard_capacity
        self.spec = spec
        self.shards: List[Deployment] = []
        for index, block in enumerate(np.array_split(np.arange(rows), n_shards)):
            piece = np.ascontiguousarray(np.take(full, block, axis=spec.axis))
            constants = dict(servable.constants)
            constants[spec.param] = piece
            n_rows = piece.shape[spec.axis]
            sub = Servable(
                name=f"{servable.name}#shard{index}of{n_shards}",
                build_program=lambda b, n=n_rows: spec.build_partial(b, n),
                constants=constants,
                query_param=servable.query_param,
                sample_shape=servable.sample_shape,
                # Shard slices of different deployments of the same model
                # share cache entries; the slice identity is the parent
                # signature plus the shard coordinates.
                signature=f"{servable.signature}:shard{index}of{n_shards}",
                supported_targets=servable.supported_targets,
            )
            self.shards.append(
                Deployment(sub.name, sub, cache, config=config, default_target=self.default_target)
            )

    # -- handles ------------------------------------------------------------------
    def shard_handle_for(self, shard: int, batch_size: int, worker=None) -> BoundProgram:
        """The partial-score inference handle of one shard."""
        return self.shards[shard].handle_for(batch_size, worker=worker)

    def warm(self, batch_sizes: Iterable[int], worker=None) -> None:
        """Pre-compile every shard's handles for the given buckets."""
        batch_sizes = list(batch_sizes)
        for shard in self.shards:
            shard.warm(batch_sizes, worker=worker)

    # -- hot-swap -----------------------------------------------------------------
    def with_servable(self, servable: Servable) -> "ShardedDeployment":
        """A sharded deployment serving a different servable (same cache,
        config and target), re-partitioned live when growth demands it.

        With a ``shard_capacity`` declared, a replacement whose sharded
        constant has grown past ``n_shards * shard_capacity`` rows gets
        more shards — the smallest count that fits every contiguous block
        within capacity again.  Construction rebuilds every shard's
        partial servable from the new row partition (signatures carry the
        new shard coordinates, so the bucket ladder re-warms per shard),
        and the broker cuts over atomically exactly as for a same-shape
        swap; scatter/gather stays bit-identical because ordered
        concatenation of the new blocks restores the same full score
        matrix.
        """
        n_shards = self.n_shards
        if self.shard_capacity is not None:
            rows = int(
                np.asarray(servable.constants[self.spec.param]).shape[self.spec.axis]
            )
            n_shards = max(n_shards, -(-rows // self.shard_capacity))
        return ShardedDeployment(
            self.name,
            servable,
            self.cache,
            n_shards,
            config=self.config,
            default_target=self.default_target,
            shard_capacity=self.shard_capacity,
        )

    # -- packed residency ----------------------------------------------------------
    def ensure_packed(self) -> Optional[dict]:
        """Materialize every shard's packed residency (the parent's full
        program is never compiled — only shard partials serve)."""
        if self.config is not None and getattr(self.config, "binarize", False):
            for shard in self.shards:
                shard.ensure_packed()
        return self.residency()

    def residency(self) -> Optional[dict]:
        """Aggregate resident class-memory bytes across all shards."""
        shard_docs = [shard.residency() for shard in self.shards]
        shard_docs = [doc for doc in shard_docs if doc is not None]
        if not shard_docs:
            return None
        params: dict = {}
        resident = unpacked = 0
        for doc in shard_docs:
            resident += doc["class_memory_bytes"]
            unpacked += doc["class_memory_unpacked_bytes"]
            for name, info in doc["params"].items():
                merged = params.setdefault(
                    name, {"resident_bytes": 0, "unpacked_bytes": 0, "dim": info["dim"]}
                )
                merged["resident_bytes"] += info["resident_bytes"]
                merged["unpacked_bytes"] += info["unpacked_bytes"]
        return {
            "packed": True,
            "params": params,
            "class_memory_bytes": resident,
            "class_memory_unpacked_bytes": unpacked,
            "shrink_ratio": (unpacked / resident) if resident else 0.0,
            "shards": len(shard_docs),
        }

    # -- reduction ----------------------------------------------------------------
    def reduce(self, partials: Sequence[np.ndarray], top_k: int = 1) -> np.ndarray:
        """Fold gathered shard scores into predictions (see spec.reduce)."""
        return reduce_partials(partials, self.spec.reduce, top_k=top_k)

    # -- direct execution ---------------------------------------------------------
    def run(self, batch: np.ndarray, worker=None, top_k: int = 1) -> ExecutionResult:
        """Scatter one batch over all shards sequentially and reduce.

        The standalone path (no worker pool): every shard's partial
        program runs on the deployment's default backend and the merged
        :class:`~repro.backends.base.ExecutionReport` sums their costs.
        The server's scatter path instead spreads the shards across
        distinct pool workers.
        """
        batch = np.asarray(batch)
        report = ExecutionReport(target=self.default_target.value)
        partials = []
        for shard in self.shards:
            result = shard.run(batch, worker=worker)
            partials.append(np.asarray(result.output))
            report.merge(result.report)
        predictions = self.reduce(partials, top_k=top_k)
        return ExecutionResult({"predictions": predictions}, report)

    def __repr__(self) -> str:
        return (
            f"ShardedDeployment({self.name!r}, shards={self.n_shards}, "
            f"target={self.default_target.value}, reduce={self.spec.reduce})"
        )


class ModelRegistry:
    """Named (servable, target, approximation-config) deployments.

    Every name carries a **monotonically increasing version**: the first
    :meth:`register` stamps 1, and each subsequent re-register or
    :meth:`swap` under the same name bumps it — under the registry lock,
    so concurrent swappers always observe strictly increasing versions.
    Versions survive :meth:`unregister`, so a name re-registered later
    continues the sequence instead of restarting it.
    """

    def __init__(self, cache: Optional[CompiledProgramCache] = None):
        self.cache = cache if cache is not None else CompiledProgramCache()
        self._models: Dict[str, Deployment] = {}
        self._versions: Dict[str, int] = {}
        self._lock = threading.Lock()

    def register(
        self,
        servable: Servable,
        name: Optional[str] = None,
        target: Union[str, Target] = Target.CPU,
        config: Optional[ApproximationConfig] = None,
        warm_batch_sizes: Iterable[int] = (1,),
        shards: Optional[int] = None,
        shard_capacity: Optional[int] = None,
    ) -> Deployment:
        """Deploy a servable under a name, warming the compile cache.

        Re-registering an unchanged servable is cheap: the signature keys
        the same cache entries, so warming hits instead of recompiling.

        Args:
            shards: Deploy sharded across this many class-memory slices
                (requires ``servable.shard_spec``); ``None`` deploys the
                ordinary single-memory program.
            shard_capacity: Maximum rows per shard; append-style growth
                past it re-partitions live at swap time (sharded only).
        """
        name = name or servable.name
        if shards is not None:
            deployment: Deployment = ShardedDeployment(
                name,
                servable,
                self.cache,
                shards,
                config=config,
                default_target=target,
                shard_capacity=shard_capacity,
            )
        else:
            deployment = Deployment(name, servable, self.cache, config=config, default_target=target)
        deployment.warm(warm_batch_sizes)
        with self._lock:
            self._install_locked(name, deployment)
        return deployment

    def swap(
        self, name: str, deployment: Deployment, expected: Optional[Deployment] = None
    ) -> int:
        """Atomically replace a registered deployment; returns the version.

        The replacement must already be built (and ideally warmed — see
        :meth:`Deployment.with_servable`); the swap itself is one
        dictionary write under the registry lock, so readers see either
        the old deployment or the new one, never an intermediate state.
        The name's version is bumped under the same lock acquisition,
        which is what makes versions strictly monotonic under concurrent
        swappers.

        Args:
            expected: Optional compare-and-swap guard — the deployment
                this replacement was derived from.  The swap is refused
                when the registry no longer holds it (someone else
                re-registered or swapped the name meanwhile), so a stale
                derivation cannot clobber newer state.

        Raises:
            KeyError: ``name`` is not registered (use :meth:`register`
                for first-time deployment).
            ValueError: The replacement was built under a different name.
            RuntimeError: The compare-and-swap guard failed.
        """
        if deployment.name != name:
            raise ValueError(
                f"cannot swap {name!r} with a deployment named {deployment.name!r}"
            )
        with self._lock:
            if name not in self._models:
                raise KeyError(
                    f"no model {name!r} registered to swap (have {sorted(self._models)})"
                )
            if expected is not None and self._models[name] is not expected:
                raise RuntimeError(
                    f"model {name!r} changed concurrently (now v{self._models[name].version}, "
                    f"swap was derived from v{expected.version}); re-derive and retry"
                )
            return self._install_locked(name, deployment)

    def _install_locked(self, name: str, deployment: Deployment) -> int:
        """Install a deployment and bump its version (caller holds the lock)."""
        version = self._versions.get(name, 0) + 1
        self._versions[name] = version
        deployment.version = version
        self._models[name] = deployment
        return version

    def version(self, name: str) -> int:
        """The current version of one registered name (0 if never seen)."""
        with self._lock:
            return self._versions.get(name, 0)

    def versions(self) -> Dict[str, int]:
        """``{name: version}`` for every currently registered deployment."""
        with self._lock:
            return {name: self._versions[name] for name in self._models}

    def get(self, name: str) -> Deployment:
        with self._lock:
            try:
                return self._models[name]
            except KeyError as exc:
                raise KeyError(
                    f"no model {name!r} registered (have {sorted(self._models)})"
                ) from exc

    def unregister(self, name: str) -> None:
        with self._lock:
            self._models.pop(name, None)

    # -- cache persistence --------------------------------------------------------
    def save_cache(self, path) -> int:
        """Persist the shared compile cache (see
        :meth:`~repro.serving.cache.CompiledProgramCache.save`)."""
        return self.cache.save(path)

    def load_cache(self, path) -> int:
        """Restore a persisted compile cache before registering, so the
        registrations warm from disk instead of compiling (their hits are
        counted in ``cache.stats.warm_hits``)."""
        return self.cache.load(path)

    def names(self) -> list:
        with self._lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __repr__(self) -> str:
        return f"ModelRegistry({self.names()}, cache={self.cache!r})"
