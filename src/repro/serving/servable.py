"""Servable model descriptions.

A :class:`Servable` packages everything the serving runtime needs to keep a
trained HDC application warm behind a request queue:

* a *program factory* that traces the inference program for an arbitrary
  micro-batch size (serving coalesces single-sample requests into
  hypermatrix batches, so one traced family yields one program per batch
  bucket);
* the *constants* — trained state such as class memories, random-projection
  encoders or reference tables — bound once per deployment through
  :meth:`repro.backends.CompiledProgram.bind`;
* a *signature* identifying the program family (and its shapes) for the
  compiled-program cache; and
* the request-side contract: which entry parameter carries the batch and
  what shape one sample has.

Each of the five applications in :mod:`repro.apps` exposes an
``as_servable`` adapter producing one of these.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from repro.backends.kernelsets import LibraryKernelSet
from repro.hdcpp.program import Program
from repro.kernels import memo

__all__ = [
    "NotUpdatableError",
    "NotAppendableError",
    "Servable",
    "ShardSpec",
    "servable_signature",
    "ALL_TARGETS",
    "HOST_TARGETS",
]


class NotUpdatableError(TypeError):
    """Raised when online re-training is requested for a servable that
    carries no ``update_batch`` rule.

    Typed (rather than a bare ``TypeError`` message) so the transport can
    report it by name and clients can distinguish "this model cannot
    learn online" from transient serving failures.
    """


class NotAppendableError(TypeError):
    """Raised when append-style growth is requested for a servable that
    carries no ``append_batch`` rule (or no ``rebuild`` factory to
    re-derive its shape-dependent program family).

    Typed for the same reason as :class:`NotUpdatableError`: the
    transport reports it by name, so clients can tell "this index is
    frozen" from transient serving failures.
    """

#: Targets every fully stage-mapped application supports.
ALL_TARGETS = ("cpu", "gpu", "hdc_asic", "hdc_reram")
#: Targets for applications with host-only ancillary work (Table 4).
HOST_TARGETS = ("cpu", "gpu")


def servable_signature(
    name: str,
    sample_shape: tuple,
    constants: Mapping[str, np.ndarray],
    extra: str = "",
) -> str:
    """Fingerprint an independently built servable from its name, shapes
    and bound state.

    This hashes the *contents* of the constants, so registering separately
    trained weights is a cache miss while re-registering identical state is
    a hit.  Only construction pays it: an online update
    (:meth:`Servable.updated`) inherits its parent's signature, because the
    same rule at the same shapes serves the same compiled programs.
    """
    digest = hashlib.sha1()
    digest.update(f"{name}|{tuple(sample_shape)}|{extra}".encode())
    for key in sorted(constants):
        value = np.ascontiguousarray(constants[key])
        digest.update(f"|{key}:{value.shape}:{value.dtype}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """How a servable's class memory splits across shard workers.

    A sharded deployment slices the constant named ``param`` into N
    contiguous row blocks along ``axis`` and compiles one *partial
    program* per shard via ``build_partial(batch_size, n_rows)``.  The
    partial program must return the raw per-row similarity scores of its
    shard — shape ``(batch_size, n_rows)`` — instead of the arg-reduced
    labels; the serving runtime concatenates the partials in shard order
    (restoring the original row indexing) and applies the ``reduce``
    (``"argmin"`` for distances, ``"argmax"`` for similarities, both with
    first-match tie-breaking, or their top-k forms) on the way back.

    Bit-identity with the unsharded path holds because every score is a
    function of one class-memory row and the query alone: splitting the
    rows changes neither the per-score arithmetic nor — after ordered
    concatenation — the arg-reduction input.  It holds per target only if
    the partial encodes the way the unsharded stage does there (on the
    accelerators: through an ``encoding_loop`` stage, i.e. the device
    encoder), and not for *cosine* on the accelerators, whose unsharded
    stage is the device's binarized Hamming search.

    Attributes:
        param: Name of the constant to split (e.g. ``"class_hvs"``).
        build_partial: ``(batch_size, n_rows) -> Program`` factory tracing
            the partial-score program for one shard size.
        reduce: ``"argmin"`` or ``"argmax"`` — how partial scores fold
            back into predictions.
        axis: Split axis of the constant (default 0: one row per class /
            bucket / library entry).
    """

    param: str
    build_partial: Callable[[int, int], "Program"]
    reduce: str = "argmin"
    axis: int = 0

    def __post_init__(self) -> None:
        if self.reduce not in ("argmin", "argmax"):
            raise ValueError(f"reduce must be 'argmin' or 'argmax', got {self.reduce!r}")


@dataclass
class Servable:
    """A trained model packaged for the serving runtime.

    Attributes:
        name: Model name used for registration and metrics.
        build_program: ``batch_size -> Program`` factory tracing the
            inference program for one micro-batch bucket.  Its
            ``query_param`` must be row-mapped (row ``i`` of the output
            depends on row ``i`` of the batch alone): a bucket's program
            runs every batch of up to ``batch_size`` rows, unpadded.
        constants: Entry inputs frozen per deployment (trained state).
        query_param: Name of the entry parameter that carries the batch.
        sample_shape: Shape of a single request sample.
        signature: Stable identity for the compiled-program cache;
            derived from name/shapes/constants when omitted, inherited
            unchanged by :meth:`updated`.
        signature_extra: Extra configuration folded into the derived
            signature (e.g. similarity mode) — state the constants alone
            do not capture.
        supported_targets: Targets this application maps onto.
        postprocess: Optional row-wise callable applied to the batched
            program output before per-request results are sliced out.
        shard_spec: Optional :class:`ShardSpec` enabling sharded
            deployments (class memory split across N workers); ``None``
            means the servable only deploys unsharded.
        update_batch: Optional online-update rule
            ``(constants, samples, labels) -> new constants`` — the
            mini-batched training rule of the application applied to the
            deployment's bound state.  ``None`` means the model's state
            is frozen; :meth:`updated` then raises the typed
            :class:`NotUpdatableError`.
        append_batch: Optional append-style growth rule
            ``(constants, rows) -> new constants`` — how a batch of new
            index entries (centroids, reference sequences, spectra)
            grows the declared ``growable`` constants along axis 0.
            Unlike ``update_batch``, the resulting constants may
            *change shape*; :meth:`appended` verifies the growth is
            strictly append-only (old rows stay a bit-identical prefix).
            ``None`` means the index is frozen; :meth:`appended` then
            raises the typed :class:`NotAppendableError`.
        growable: Names of the constants ``append_batch`` may grow
            (axis 0).  Every other constant must pass through untouched.
        rebuild: ``new constants -> Servable`` factory re-deriving the
            whole servable for the grown shapes.  Required alongside
            ``append_batch``, because program factories close over row
            counts (``n_clusters`` / ``n_buckets`` / ``n_library``) —
            only the application adapter can re-trace the program family
            and re-derive the content-hashed signature for a new shape.
        append_row_shape: Shape of one append row as it crosses the
            request boundary (e.g. ``(sequence_length,)`` base indices
            for the hashtable) — validated by :meth:`appended`.  May
            differ from ``sample_shape``; ``None`` skips the check.
        description: Human-readable note for registries/dashboards.
    """

    name: str
    build_program: Callable[[int], Program]
    constants: dict = field(default_factory=dict)
    query_param: str = "queries"
    sample_shape: tuple = ()
    signature: str = ""
    signature_extra: str = ""
    supported_targets: tuple = ALL_TARGETS
    postprocess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    shard_spec: Optional[ShardSpec] = None
    update_batch: Optional[Callable[[dict, np.ndarray, np.ndarray], dict]] = None
    append_batch: Optional[Callable[[dict, np.ndarray], dict]] = None
    growable: tuple = ()
    rebuild: Optional[Callable[[dict], "Servable"]] = None
    append_row_shape: Optional[tuple] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.signature:
            self.signature = servable_signature(
                self.name, self.sample_shape, self.constants, extra=self.signature_extra
            )

    @property
    def updatable(self) -> bool:
        """Whether this servable carries an online-update rule."""
        return self.update_batch is not None

    def updated(self, samples: np.ndarray, labels: np.ndarray) -> "Servable":
        """One online re-training step: a new servable with updated state.

        Applies ``update_batch`` — the application's mini-batched training
        rule — over *read-only views* of the bound constants (rules must
        build fresh arrays; in-place mutation raises) and returns a new
        :class:`Servable` identical except for the updated constants.  The
        rule runs as a library-set execution (:mod:`repro.kernels.memo`):
        its eager primitives take the batched kernels where they return the
        reference kernels' bits.  The same callable drives offline
        retraining, so serving an updated servable is bit-identical to
        retraining offline on the same data (same rule, same arithmetic,
        same resulting constants).

        The signature is *inherited*, not re-hashed: the update keeps every
        constant's shape and dtype, so it is the same ``build_program``
        family at the same shapes — the same compiled programs, which a
        hot-swap re-binds to the new constants instead of recompiling.
        Served state is told apart by ``(model, version)``, not signature.

        Raises:
            NotUpdatableError: The servable has no ``update_batch`` rule.
            ValueError: Malformed samples / labels, or a rule that changed
                a constant's set membership, shape or dtype (growth is
                :meth:`appended`).
        """
        if self.update_batch is None:
            raise NotUpdatableError(
                f"servable {self.name!r} is not updatable: it carries no "
                f"update_batch rule (its trained state is frozen)"
            )
        samples = np.asarray(samples)
        if samples.ndim < 1 or tuple(samples.shape[1:]) != tuple(self.sample_shape):
            raise ValueError(
                f"{self.name}: update samples have shape {samples.shape}, expected "
                f"(n, *{tuple(self.sample_shape)})"
            )
        labels = np.asarray(labels)
        if labels.shape != (samples.shape[0],):
            raise ValueError(
                f"{self.name}: update labels have shape {labels.shape}, expected "
                f"({samples.shape[0]},)"
            )
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(
                f"{self.name}: update labels must be integers, got dtype {labels.dtype}"
            )
        if labels.size and int(labels.min()) < 0:
            # Negative labels would silently index class memories from the
            # end (numpy semantics) and corrupt the swapped-in state.
            raise ValueError(f"{self.name}: update labels must be >= 0, got {labels.min()}")
        with memo.Execution(LibraryKernelSet.column):
            new_constants = self._apply_rule(self.update_batch, samples, labels)
        for key in sorted(set(self.constants) | set(new_constants)):
            before, after = (
                (np.shape(c[key]), np.asarray(c[key]).dtype) if key in c else None
                for c in (self.constants, new_constants)
            )
            if before != after:
                raise ValueError(
                    f"{self.name}: update_batch changed constant {key!r} ({before} -> "
                    f"{after}); an update must keep every constant's shape and dtype"
                )
        return dataclasses.replace(self, constants=new_constants)

    def _apply_rule(self, rule: Callable[..., dict], *arrays: np.ndarray) -> dict:
        """``rule(constants, *arrays)`` over read-only views of the bound
        constants; returns the new constants."""
        # Read-only views, not copies: a rule that tries to mutate the
        # bound constants in place fails loudly (ValueError) instead of
        # corrupting the state the *old* deployment is still serving
        # mid-swap — without paying a per-round copy of large constants
        # the rule never touches (e.g. the projection matrix).
        working = {}
        for key, value in self.constants.items():
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
            working[key] = value
        new_constants = dict(rule(working, *arrays))
        for key, value in list(new_constants.items()):
            if value is working.get(key):
                # Untouched key passed straight through: keep the original
                # (writeable) array instead of the guard view.
                new_constants[key] = self.constants[key]
        return new_constants

    @property
    def appendable(self) -> bool:
        """Whether this servable carries an append-style growth rule."""
        return self.append_batch is not None and self.rebuild is not None

    def appended(self, rows: np.ndarray) -> "Servable":
        """One append-style growth step: a new servable with grown state.

        Applies ``append_batch`` — the application's rule for turning a
        batch of new index entries into extra rows of its ``growable``
        constants — over *read-only views* of the bound constants, checks
        the growth is strictly append-only (every grown constant keeps
        the old rows as a bit-identical prefix; everything else passes
        through untouched), and hands the new constants to ``rebuild`` so
        the program family is re-traced for the grown shapes and the
        signature re-derived from the new contents.  The same rule and
        the same arithmetic drive an offline rebuild of the grown index,
        so serving the appended servable is bit-identical to rebuilding
        offline from the full entry set.

        Raises:
            NotAppendableError: The servable has no ``append_batch`` rule
                (or no ``rebuild`` factory).
        """
        if self.append_batch is None or self.rebuild is None:
            missing = "append_batch rule" if self.append_batch is None else "rebuild factory"
            raise NotAppendableError(
                f"servable {self.name!r} is not appendable: it carries no "
                f"{missing} (its index shape is frozen)"
            )
        rows = np.asarray(rows)
        if rows.ndim < 1 or rows.shape[0] == 0:
            raise ValueError(
                f"{self.name}: append needs a non-empty batch of rows, got shape {rows.shape}"
            )
        if self.append_row_shape is not None and tuple(rows.shape[1:]) != tuple(
            self.append_row_shape
        ):
            raise ValueError(
                f"{self.name}: append rows have shape {rows.shape}, expected "
                f"(n, *{tuple(self.append_row_shape)})"
            )
        new_constants = self._apply_rule(self.append_batch, rows)
        if set(new_constants) != set(self.constants):
            raise ValueError(
                f"{self.name}: append_batch changed the constant set "
                f"({sorted(self.constants)} -> {sorted(new_constants)})"
            )
        for key, value in new_constants.items():
            old = self.constants[key]
            if key in self.growable:
                old_arr, new_arr = np.asarray(old), np.asarray(value)
                if (
                    new_arr.ndim != old_arr.ndim
                    or new_arr.shape[1:] != old_arr.shape[1:]
                    or new_arr.shape[0] < old_arr.shape[0]
                    or not np.array_equal(new_arr[: old_arr.shape[0]], old_arr)
                ):
                    raise ValueError(
                        f"{self.name}: append_batch must grow {key!r} by appending rows "
                        f"(old rows bit-identical as a prefix); got "
                        f"{old_arr.shape} -> {new_arr.shape}"
                    )
            elif value is not old:
                raise ValueError(
                    f"{self.name}: append_batch touched non-growable constant {key!r} "
                    f"(growable: {tuple(self.growable)})"
                )
        fresh = self.rebuild(dict(new_constants))
        if fresh.name != self.name:
            raise ValueError(
                f"{self.name}: rebuild produced a servable named {fresh.name!r}; "
                f"growth must keep the served name"
            )
        return fresh

    def supports_target(self, target) -> bool:
        value = getattr(target, "value", target)
        return value in self.supported_targets

    def validate_sample(self, sample: np.ndarray) -> np.ndarray:
        """Check one request sample against the declared sample shape."""
        array = np.asarray(sample)
        if tuple(array.shape) != tuple(self.sample_shape):
            raise ValueError(
                f"{self.name}: sample has shape {array.shape}, expected {tuple(self.sample_shape)}"
            )
        return array

    def __repr__(self) -> str:
        return (
            f"Servable({self.name!r}, sample={tuple(self.sample_shape)}, "
            f"targets={self.supported_targets}, sig={self.signature[:8]})"
        )
