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

A deployment registered with ``shards=N`` serves class memories that exceed
one worker's capacity: the servable's :class:`~repro.serving.servable
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
from repro.ir.ops import row_mapped_params
from repro.kernels import binary as binkern, reference as refkern
from repro.serving.cache import CompiledProgramCache
from repro.serving.scheduler import default_worker_backend
from repro.serving.servable import Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = [
    "Deployment",
    "ModelRegistry",
    "NotRowMappedError",
    "StaleVersionError",
    "reduce_partials",
]


class NotRowMappedError(TypeError):
    """Raised at register / swap for a servable whose program mixes batch
    rows: its ``query_param`` is not row-mapped
    (:func:`~repro.ir.ops.row_mapped_params`).

    The broker runs each batch's own rows through the handle of the bucket
    that holds them, unpadded, and hands row ``i`` of the output to the
    request in row ``i``.  That is only the request's answer when row
    ``i`` of the output depends on row ``i`` of the batch alone.
    """


class StaleVersionError(RuntimeError):
    """A version-pinned request (``infer(..., min_version=N)``) reached a
    deployment still serving an older version.

    Version pinning is the read-your-writes contract across replica
    groups: after a group-wide ``update`` returns version N, a client may
    pin follow-up reads to ``min_version=N``; a replica that missed the
    update (killed mid-propagation, not yet resynced) refuses the read
    with this typed error instead of silently serving stale predictions.
    The transport maps it end to end, so callers can retry against
    another replica or trigger a resync.
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
    """One registered model: a servable, split over ``n_shards`` class-memory
    shards (1: the servable's own program), plus its compiled-handle cache.

    With ``n_shards > 1`` the constant ``servable.shard_spec.param`` is
    sliced into contiguous row blocks and :attr:`shards` holds one partial
    servable per block, each serving the partial-score program over its
    slice alone — so no single worker ever holds (or transfers) the full
    hypermatrix.  Execution runs the same query batch on every shard and
    :meth:`reduce` folds the ``(batch, shard_rows)`` partial scores back
    into predictions.  Unsharded, :attr:`shards` is the servable itself.
    """

    def __init__(
        self,
        name: str,
        servable: Servable,
        cache: CompiledProgramCache,
        config: Optional[ApproximationConfig] = None,
        default_target: Union[str, Target] = Target.CPU,
        n_shards: int = 1,
        shard_capacity: Optional[int] = None,
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
        self.n_shards = n_shards
        #: Maximum class-memory rows one shard may hold (sharded only).
        #: With a capacity declared, :meth:`with_servable` re-partitions
        #: when append-style growth would push any shard past it — the
        #: live shard-rebalance path of shape-changing swap.
        self.shard_capacity = shard_capacity
        self.spec = servable.shard_spec
        #: What each shard serves: the servable itself, or one partial
        #: servable per contiguous row block of the sharded constant.
        self.shards: List[Servable] = [servable] if n_shards == 1 else self._partition()
        # One default back end per shard: on the accelerators a back end
        # is one device session, and each shard's slice is its own
        # resident class memory.
        self._default_backends: List[Optional[Backend]] = [None] * n_shards
        self._handles: Dict[tuple, BoundProgram] = {}
        #: Packed class-memory constants, keyed by (shard, param name) —
        #: populated lazily by :meth:`handle_for` when the approximation
        #: config opts this deployment into packed residency
        #: (``binarize``).  Packing is a pure function of the servable's
        #: float constants, so every handle (and every rebuilt deployment
        #: replaying the same constants) binds bit-identical words.
        self._packed_constants: Dict[tuple, "binkern.PackedBits"] = {}
        self._lock = threading.Lock()
        #: Monotonic deployment version, stamped by the registry on
        #: :meth:`ModelRegistry.register` / :meth:`ModelRegistry.swap`.
        #: 0 means "never registered".
        self.version = 0

    def _partition(self) -> List[Servable]:
        """The partial servables of a sharded deployment, in shard order."""
        servable, spec, n_shards = self.servable, self.spec, self.n_shards
        if spec is None:
            raise ValueError(f"{servable.name!r} has no shard_spec; cannot deploy sharded")
        full = np.asarray(servable.constants[spec.param])
        rows = full.shape[spec.axis]
        if self.shard_capacity is not None and self.shard_capacity < 1:
            raise ValueError(f"shard_capacity must be >= 1, got {self.shard_capacity}")
        if n_shards < 2:
            raise ValueError(f"n_shards must be 1 (unsharded) or >= 2, got {n_shards}")
        if n_shards > rows:
            raise ValueError(f"cannot split {rows} rows into {n_shards} shards")
        shards = []
        for index, block in enumerate(np.array_split(np.arange(rows), n_shards)):
            piece = np.ascontiguousarray(np.take(full, block, axis=spec.axis))
            constants = dict(servable.constants)
            constants[spec.param] = piece
            n_rows = piece.shape[spec.axis]
            shards.append(
                Servable(
                    name=f"{servable.name}#shard{index}of{n_shards}",
                    build_program=lambda b, n=n_rows: spec.build_partial(b, n),
                    constants=constants,
                    query_param=servable.query_param,
                    sample_shape=servable.sample_shape,
                    # Shard slices of different deployments of the same
                    # model share cache entries; the slice identity is the
                    # parent signature plus the shard coordinates.
                    signature=f"{servable.signature}:shard{index}of{n_shards}",
                    supported_targets=servable.supported_targets,
                )
            )
        return shards

    # -- handles ------------------------------------------------------------------
    def handle_for(self, batch_size: int, worker=None, shard: int = 0) -> BoundProgram:
        """The reusable inference handle of one shard for one micro-batch
        bucket (a sharded deployment's handles run partial-score programs).

        When ``worker`` (a :class:`repro.serving.scheduler.Worker`) is
        given, the handle executes through that worker's back end and the
        cache entry is keyed by the worker's scope; otherwise the shard's
        default backend is used.
        """
        servable = self.shards[shard]
        if worker is not None:
            backend, scope = worker.backend, worker.scope
        else:
            with self._lock:
                backend = self._default_backends[shard]
                if backend is None:
                    backend = default_worker_backend(self.default_target)
                    self._default_backends[shard] = backend
            scope = self.default_target.value
        key = self.cache.make_key(
            servable.signature, backend.target, self.config, batch_size, scope
        )
        handle_key = (key, id(backend))
        with self._lock:
            handle = self._handles.get(handle_key)
        if handle is not None:
            return handle
        compiled = self.cache.get_or_compile(
            key, backend, lambda: servable.build_program(batch_size), config=self.config
        )
        handle = compiled.bind(backend=backend, **self._constants_for(compiled, shard))
        with self._lock:
            return self._handles.setdefault(handle_key, handle)

    # -- packed residency ----------------------------------------------------------
    def _constants_for(self, compiled, shard: int) -> dict:
        """The constants one compiled handle binds — packed class memory
        when this deployment opted into packed residency.

        A ``binarize`` approximation config turns eligible constants (see
        :func:`~repro.backends.packing.packable_entry_params`) into
        :class:`~repro.kernels.binary.PackedBits` ``uint64`` words:
        ``pack(sign(float_constants))``, exactly the binarization the
        program's ``_coerce`` would apply, so results are bit-identical
        to binding the float state.  The packed words are computed once
        per shard and shared by every handle; the servable's float
        constants are left untouched (``update_batch`` needs them).
        """
        constants = self.shards[shard].constants
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
                packed = self._packed_constants.get((shard, name))
                if packed is None:
                    packed = binkern.pack_bipolar(
                        refkern.sign(np.asarray(constants[name]))
                    )
                    self._packed_constants[shard, name] = packed
                bound[name] = packed
        return bound

    def residency(self) -> Optional[dict]:
        """Resident class-memory accounting, or ``None`` when unpacked.

        Reports, per packed constant and in total (summed over shards),
        the bytes actually resident (``uint64`` words) against what the
        same state occupies unpacked — the ~32x shrink the serving metrics
        and Prometheus exposition surface per model.
        """
        with self._lock:
            packed_map = dict(self._packed_constants)
        if not packed_map:
            return None
        params: dict = {}
        for (shard, name), packed in packed_map.items():
            info = params.setdefault(
                name, {"resident_bytes": 0, "unpacked_bytes": 0, "dim": int(packed.dim)}
            )
            info["resident_bytes"] += int(packed.nbytes)
            info["unpacked_bytes"] += int(np.asarray(self.shards[shard].constants[name]).nbytes)
        resident = sum(info["resident_bytes"] for info in params.values())
        unpacked = sum(info["unpacked_bytes"] for info in params.values())
        return {
            "packed": True,
            "params": params,
            "class_memory_bytes": resident,
            "class_memory_unpacked_bytes": unpacked,
            "shrink_ratio": (unpacked / resident) if resident else 0.0,
            "shards": len({shard for shard, _ in packed_map}),
        }

    def ensure_packed(self) -> Optional[dict]:
        """Materialize packed residency *now* and return the accounting.

        :meth:`residency` only reports words that already exist, so a
        deployment registered with ``warm=False`` — or swapped in without
        a warm pass — would report ``None`` (and leave the Prometheus
        class-memory gauges stale) until the first handle compiled.  The
        broker calls this at register/swap time so the gauges reflect the
        new constant bytes eagerly, not lazily at the next ``stats()``.
        Compiling a shard's smallest bucket is what triggers its one-time
        pack; for unpacked configs this is a no-op returning ``None``.
        """
        if self.config is not None and getattr(self.config, "binarize", False):
            with self._lock:
                packed = {shard for shard, _ in self._packed_constants}
            for shard in range(self.n_shards):
                if shard not in packed:
                    self.handle_for(1, shard=shard)
        return self.residency()

    def check_rows(self) -> None:
        """Refuse a deployment whose programs mix batch rows.

        Reads every compiled program this deployment's handles bound (each
        computes its :attr:`~repro.backends.CompiledProgram.row_mapped`
        once); a shard without a handle traces its one-row program and
        compiles nothing.

        Raises:
            NotRowMappedError: Some shard's ``query_param`` is not row-mapped.
        """
        with self._lock:
            handles = list(self._handles.items())
        for servable in self.shards:
            mapped = [h.compiled.row_mapped for (key, _), h in handles if key[0] == servable.signature]
            if not mapped:
                mapped = [row_mapped_params(servable.build_program(1).entry_function)]
            if not all(servable.query_param in names for names in mapped):
                raise NotRowMappedError(
                    f"{servable.name!r}: row i of the program's output does not depend on "
                    f"row i of {servable.query_param!r} alone, so batches cannot be served"
                )

    def warm(self, batch_sizes: Iterable[int], worker=None) -> None:
        """Pre-compile (or cache-hit) every shard's handles for the given
        buckets."""
        batch_sizes = list(batch_sizes)
        for shard in range(self.n_shards):
            for batch_size in batch_sizes:
                self.handle_for(batch_size, worker=worker, shard=shard)

    # -- hot-swap -----------------------------------------------------------------
    def with_servable(self, servable: Servable) -> "Deployment":
        """A same-shaped deployment (name, cache, config, target, shards)
        serving a different servable — the replacement a hot-swap installs
        after an online update re-trained (or grew) the bound state.

        Re-partitioned live when growth demands it: with a
        ``shard_capacity`` declared, a sharded replacement whose sharded
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
        if n_shards > 1 and self.shard_capacity is not None:
            rows = int(
                np.asarray(servable.constants[self.spec.param]).shape[self.spec.axis]
            )
            n_shards = max(n_shards, -(-rows // self.shard_capacity))
        return Deployment(
            self.name,
            servable,
            self.cache,
            config=self.config,
            default_target=self.default_target,
            n_shards=n_shards,
            shard_capacity=self.shard_capacity,
        )

    # -- reduction ----------------------------------------------------------------
    def reduce(self, partials: Sequence[np.ndarray], top_k: int = 1) -> np.ndarray:
        """Fold gathered shard scores into predictions (see spec.reduce)."""
        return reduce_partials(partials, self.spec.reduce, top_k=top_k)

    # -- direct execution ---------------------------------------------------------
    def run(self, batch: np.ndarray, worker=None, top_k: int = 1) -> ExecutionResult:
        """One-shot batched inference through the deployment's own handles.

        The standalone path (no worker pool): a sharded deployment runs
        every shard's partial program in turn, reduces (``top_k > 1``
        ranks the best ``top_k`` rows) and sums the shards' costs into one
        merged :class:`~repro.backends.base.ExecutionReport`; the server
        instead spreads the shards across distinct pool workers.

        Raises:
            ValueError: ``top_k != 1`` on an unsharded deployment — its
                program arg-reduces inside itself, so there are no scores
                to rank.
        """
        if self.n_shards == 1 and top_k != 1:
            raise ValueError(
                f"top_k={top_k} needs a sharded deployment: the unsharded program of "
                f"{self.name!r} arg-reduces inside itself and returns no scores to rank"
            )
        batch = np.asarray(batch)
        results = [
            self.handle_for(batch.shape[0], worker=worker, shard=shard).run(
                **{self.servable.query_param: batch}
            )
            for shard in range(self.n_shards)
        ]
        if self.n_shards == 1:
            return results[0]
        report = ExecutionReport(target=self.default_target.value)
        for result in results:
            report.merge(result.report)
        predictions = self.reduce([np.asarray(result.output) for result in results], top_k=top_k)
        return ExecutionResult({"predictions": predictions}, report)

    def __repr__(self) -> str:
        return (
            f"Deployment({self.name!r}, v{self.version}, target={self.default_target.value}, "
            f"shards={self.n_shards}, handles={len(self._handles)})"
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

        Raises:
            NotRowMappedError: The servable's program mixes batch rows.
        """
        name = name or servable.name
        if shards == 1:
            # One shard of the *partial* program is not the unsharded
            # program (on the accelerators the unsharded stage is the
            # device's own search), so ``shards=1`` gets neither meaning.
            raise ValueError("shards must be >= 2 (omit it to deploy unsharded), got 1")
        deployment = Deployment(
            name,
            servable,
            self.cache,
            config=config,
            default_target=target,
            n_shards=1 if shards is None else shards,
            shard_capacity=shard_capacity,
        )
        deployment.warm(warm_batch_sizes)
        deployment.check_rows()
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
            NotRowMappedError: The replacement's program mixes batch rows.
            RuntimeError: The compare-and-swap guard failed.
        """
        if deployment.name != name:
            raise ValueError(
                f"cannot swap {name!r} with a deployment named {deployment.name!r}"
            )
        deployment.check_rows()
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
