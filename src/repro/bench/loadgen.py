"""Deterministic, seedable load-shape generators for the scenario matrix.

Every stochastic choice a matrix run makes — arrival times, which sample
each request carries, which model clone it targets, when re-training
rounds land — is drawn from generators rooted in **one** integer seed:
the ``REPRO_BENCH_SEED`` environment variable (default
:data:`DEFAULT_SEED`).  Per-cell generators are derived by hashing the
seed with the cell ID (:func:`derive_rng`), so cells are independent of
each other *and* of the matrix order: adding a cell to a config never
changes the request stream of any existing cell.

A :class:`Schedule` is the fully materialized request stream of one
cell — arrays of arrival offsets, sample-pool indices and model-clone
indices, plus the offsets at which online-update rounds apply.  Its
:meth:`~Schedule.fingerprint` hashes the raw array bytes, so "two
same-seed runs produce identical request streams" is a one-line
assertion on two hex digests.

Load shapes (the glossary lives in ``docs/BENCHMARKING.md``):

* ``steady`` — Poisson arrivals at a constant rate.
* ``burst`` — a steady baseline with evenly spaced bursts of
  back-to-back arrivals (queue-depth spikes).
* ``diurnal`` — arrival rate follows a raised-cosine ramp between a
  floor and the peak rate, ``periods`` times over the run.
* ``hot_skew`` — steady arrivals, but each request targets one of
  ``clones`` model replicas drawn from a Zipf distribution: one hot
  model dominates, exercising the fair scheduler under skew.
* ``serve_while_retraining`` — steady arrivals with ``updates`` online
  re-training rounds evenly spaced through the run; the mini-batches
  come from a pre-materialized :class:`~repro.serving.update_log
  .UpdateLog`, never from live RNG.
* ``growth`` — steady arrivals with ``appends`` shape-changing append
  rounds (``append_rows`` rows each) evenly spaced through the run; the
  rows come from the workload's pre-materialized append pool, so the
  grown constants are a pure function of the bench seed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "SEED_ENV",
    "bench_seed",
    "derive_rng",
    "Schedule",
    "build_schedule",
    "SHAPE_KINDS",
]

#: The fixed default seed (today's date when the harness landed); any
#: run without ``REPRO_BENCH_SEED`` set uses exactly this stream.
DEFAULT_SEED = 20250808

#: The single environment variable seeding every benchmark RNG.
SEED_ENV = "REPRO_BENCH_SEED"


def bench_seed(default: int = DEFAULT_SEED) -> int:
    """The benchmark seed: ``REPRO_BENCH_SEED`` if set, else ``default``.

    Raises:
        ValueError: The environment variable is set but not an integer.
    """
    raw = os.environ.get(SEED_ENV)
    if raw is None or not raw.strip():
        return int(default)
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise ValueError(
            f"{SEED_ENV}={raw!r} is not an integer seed"
        ) from exc


def derive_rng(seed: int, *salts: str) -> np.random.Generator:
    """A generator derived from (seed, salts) by hashing, order-stable.

    Hashing (rather than ``seed + offset`` arithmetic) keeps derived
    streams independent: ``derive_rng(s, "a.b")`` and
    ``derive_rng(s, "a.c")`` share no structure, and neither moves when
    unrelated salts are added elsewhere.
    """
    digest = hashlib.sha256(
        ":".join([str(int(seed)), *map(str, salts)]).encode("utf-8")
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class Schedule:
    """One cell's materialized request stream.

    Attributes:
        at: Arrival offsets in seconds from the run start (sorted,
            float64, one per request).
        sample: Index into the workload's sample pool per request.
        model: Model-clone index per request (all zeros unless the shape
            spreads load across clones, e.g. ``hot_skew``).
        updates: Offsets (seconds) at which online re-training rounds
            apply, in order — one per pre-materialized update-log record.
        n_models: Number of model clones the schedule targets.
    """

    at: np.ndarray
    sample: np.ndarray
    model: np.ndarray
    updates: Tuple[float, ...] = ()
    n_models: int = 1

    def __len__(self) -> int:
        return int(self.at.shape[0])

    def fingerprint(self) -> str:
        """SHA-1 over the canonical little-endian bytes of the stream.

        Two schedules with the same fingerprint carry byte-identical
        arrival times, sample choices, clone targets and update offsets
        — the reproducibility assertion for same-seed runs.
        """
        payload = b"".join(
            [
                np.ascontiguousarray(self.at, dtype="<f8").tobytes(),
                np.ascontiguousarray(self.sample, dtype="<i8").tobytes(),
                np.ascontiguousarray(self.model, dtype="<i8").tobytes(),
                np.asarray(self.updates, dtype="<f8").tobytes(),
                np.asarray([self.n_models], dtype="<i8").tobytes(),
            ]
        )
        return hashlib.sha1(payload).hexdigest()


def _arrival_gaps(rng: np.random.Generator, n: int, rate_rps: float) -> np.ndarray:
    return rng.exponential(1.0 / rate_rps, size=n)


def _steady(params: dict, rng: np.random.Generator, n_pool: int) -> Schedule:
    n = params["requests"]
    at = np.cumsum(_arrival_gaps(rng, n, params["rate_rps"]))
    return Schedule(
        at=at,
        sample=rng.integers(0, n_pool, size=n),
        model=np.zeros(n, dtype=np.int64),
    )


def _burst(params: dict, rng: np.random.Generator, n_pool: int) -> Schedule:
    n, bursts, burst_size = params["requests"], params["bursts"], params["burst_size"]
    baseline = n - bursts * burst_size
    gaps = _arrival_gaps(rng, baseline, params["rate_rps"])
    at = list(np.cumsum(gaps))
    span = at[-1] if at else bursts / params["rate_rps"]
    # Bursts land at evenly spaced instants; every burst arrival shares
    # its instant, so the batcher sees a queue-depth spike, not a ramp.
    for b in range(bursts):
        instant = span * (b + 1) / (bursts + 1)
        at.extend([instant] * burst_size)
    order = np.argsort(np.asarray(at), kind="stable")
    return Schedule(
        at=np.asarray(at, dtype=np.float64)[order],
        sample=rng.integers(0, n_pool, size=n),
        model=np.zeros(n, dtype=np.int64),
    )


def _diurnal(params: dict, rng: np.random.Generator, n_pool: int) -> Schedule:
    n = params["requests"]
    peak, floor_fraction, periods = (
        params["rate_rps"],
        params["floor_fraction"],
        params["periods"],
    )
    floor = peak * floor_fraction
    phase = np.arange(n) / max(n, 1)
    # Raised-cosine rate ramp between floor and peak, `periods` cycles.
    rate = floor + (peak - floor) * 0.5 * (1.0 - np.cos(2.0 * np.pi * periods * phase))
    gaps = rng.exponential(1.0, size=n) / rate
    return Schedule(
        at=np.cumsum(gaps),
        sample=rng.integers(0, n_pool, size=n),
        model=np.zeros(n, dtype=np.int64),
    )


def _hot_skew(params: dict, rng: np.random.Generator, n_pool: int) -> Schedule:
    n, clones, s = params["requests"], params["clones"], params["zipf_s"]
    weights = (1.0 + np.arange(clones)) ** -float(s)
    weights /= weights.sum()
    at = np.cumsum(_arrival_gaps(rng, n, params["rate_rps"]))
    return Schedule(
        at=at,
        sample=rng.integers(0, n_pool, size=n),
        model=rng.choice(clones, size=n, p=weights).astype(np.int64),
        n_models=clones,
    )


def _serve_while_retraining(params: dict, rng: np.random.Generator, n_pool: int) -> Schedule:
    n, updates = params["requests"], params["updates"]
    at = np.cumsum(_arrival_gaps(rng, n, params["rate_rps"]))
    span = float(at[-1]) if n else 1.0
    offsets = tuple(span * (u + 1) / (updates + 1) for u in range(updates))
    return Schedule(
        at=at,
        sample=rng.integers(0, n_pool, size=n),
        model=np.zeros(n, dtype=np.int64),
        updates=offsets,
    )


def _growth(params: dict, rng: np.random.Generator, n_pool: int) -> Schedule:
    n, appends = params["requests"], params["appends"]
    at = np.cumsum(_arrival_gaps(rng, n, params["rate_rps"]))
    span = float(at[-1]) if n else 1.0
    # Append rounds land at the same evenly spaced instants retraining
    # rounds would; the ``updates`` field carries their offsets.
    offsets = tuple(span * (a + 1) / (appends + 1) for a in range(appends))
    return Schedule(
        at=at,
        sample=rng.integers(0, n_pool, size=n),
        model=np.zeros(n, dtype=np.int64),
        updates=offsets,
    )


@dataclass(frozen=True)
class ShapeKind:
    """One load-shape family: its builder and its parameter schema."""

    build: object
    #: Parameter defaults; the *keys* double as the allowed-key schema
    #: the config parser validates shape specs against.
    params: Dict[str, object] = field(default_factory=dict)
    #: Whether cells of this shape apply online updates (and therefore
    #: need an updatable app and a pre-materialized update log).
    retraining: bool = False
    #: Whether cells of this shape apply shape-changing appends (and
    #: therefore need an appendable app with a pre-materialized row pool).
    growing: bool = False


#: Registry of load-shape kinds, keyed by the ``kind`` field of a shape
#: spec.  Every kind shares ``requests`` and ``rate_rps``.
SHAPE_KINDS: Dict[str, ShapeKind] = {
    "steady": ShapeKind(build=_steady, params={"requests": 128, "rate_rps": 400.0}),
    "burst": ShapeKind(
        build=_burst,
        params={"requests": 128, "rate_rps": 200.0, "bursts": 3, "burst_size": 24},
    ),
    "diurnal": ShapeKind(
        build=_diurnal,
        params={
            "requests": 128,
            "rate_rps": 400.0,
            "periods": 2,
            "floor_fraction": 0.25,
        },
    ),
    "hot_skew": ShapeKind(
        build=_hot_skew,
        params={"requests": 128, "rate_rps": 400.0, "clones": 3, "zipf_s": 1.5},
    ),
    "serve_while_retraining": ShapeKind(
        build=_serve_while_retraining,
        params={
            "requests": 128,
            "rate_rps": 300.0,
            "updates": 3,
            "update_batch": 48,
        },
        retraining=True,
    ),
    "growth": ShapeKind(
        build=_growth,
        params={
            "requests": 128,
            "rate_rps": 300.0,
            "appends": 3,
            "append_rows": 4,
        },
        growing=True,
    ),
}


def build_schedule(kind: str, params: dict, rng: np.random.Generator, n_pool: int) -> Schedule:
    """Materialize one cell's request stream.

    ``params`` must already be validated/defaulted by the config layer
    (:func:`repro.bench.config.load_config`); unknown kinds raise
    ``KeyError`` here because reaching this point with one is a
    programming error, not a user-input error.
    """
    shape = SHAPE_KINDS[kind]
    merged = dict(shape.params)
    merged.update(params)
    return shape.build(merged, rng, n_pool)
