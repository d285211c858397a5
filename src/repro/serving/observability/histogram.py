"""Mergeable log-linear latency histograms with bounded relative error.

:class:`LatencyHistogram` replaces the raw fixed-size sample windows the
serving metrics used to keep: instead of the last N latencies (which
silently forget everything before a burst, biasing the tail percentiles),
it buckets every observation into geometrically-spaced bins.  Bucket ``i``
covers ``(gamma**(i-1), gamma**i]`` with ``gamma = (1 + a) / (1 - a)`` for
a configured relative accuracy ``a``, so reporting the log-midpoint of a
bucket is within a factor ``1 ± a`` of any value inside it — a quantile
estimate with **bounded relative error**, independent of how many samples
arrived or in what order.  The midpoint is the minimax choice, so the
bound is *attained* at both bucket edges (a sample equal to ``gamma**i``
is reported as exactly ``(1 - a)`` times itself in real arithmetic): in
floating point the contract is "within ``a`` up to rounding", i.e. a
relative error of at most ``a * (1 + 1e-9)``.

Properties the serving plane relies on:

* **constant memory** — the bucket count is bounded by the dynamic range
  (about 217 sparse buckets cover 1 µs … 1000 s at the default 5%
  accuracy), not by the observation count;
* **exact counts** — ``count`` / ``min`` / ``max`` and every bucket are
  exact and ``sum`` has no bucketing error (a run-length :meth:`record`
  agrees with single records to float rounding), so means carry none;
* **mergeable** — two histograms with the same shape add bucket-wise
  (:meth:`merge`), so per-replica or per-shard stats can aggregate into
  fleet quantiles later without resampling;
* **serializable** — :meth:`to_dict` / :meth:`from_dict` round-trip
  through JSON, which is how histograms cross the serving transport and
  land in ``tools/scrape_stats.py`` threshold expressions.

Values at or below ``min_value`` land in a dedicated underflow bucket
(reported as ``min_value`` at worst); the relative-error guarantee applies
to values above it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["LatencyHistogram", "DEFAULT_RELATIVE_ERROR"]

#: Default quantile accuracy: estimates are within ±5% of the true value.
DEFAULT_RELATIVE_ERROR = 0.05


class LatencyHistogram:
    """A sparse log-linear histogram over positive measurements.

    Args:
        relative_error: Quantile accuracy bound ``a`` (0 < a < 1): any
            quantile estimate is within a factor ``1 ± a`` of the exact
            sample quantile (for values above ``min_value``), up to float
            rounding at a bucket's edges: ``a * (1 + 1e-9)`` at worst.
        min_value: Underflow threshold; observations at or below it share
            one bucket.  Keeps the bucket count bounded for degenerate
            inputs (zeros, sub-microsecond timings).
    """

    __slots__ = (
        "relative_error",
        "min_value",
        "_gamma",
        "_log_gamma",
        "_counts",
        "zero_count",
        "count",
        "sum",
        "min",
        "max",
    )

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        min_value: float = 1e-6,
    ):
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error must be in (0, 1), got {relative_error}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        self.relative_error = float(relative_error)
        self.min_value = float(min_value)
        self._gamma = (1.0 + self.relative_error) / (1.0 - self.relative_error)
        self._log_gamma = math.log(self._gamma)
        self._counts: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording ----------------------------------------------------------------
    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value`` (negatives clamp to 0).

        A run-length record (a settled segment's rows): ``count``, ``min``,
        ``max`` and every bucket end exactly as ``count`` single records
        leave them; ``sum`` gains ``value * count``, equal up to rounding.
        """
        if count <= 0:
            return
        value = max(0.0, float(value))
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= self.min_value:
            self.zero_count += count
            return
        index = self._index(value)
        self._counts[index] = self._counts.get(index, 0) + count

    def _index(self, value: float) -> int:
        # Bucket i covers (gamma**(i-1), gamma**i].
        return int(math.ceil(math.log(value) / self._log_gamma - 1e-12))

    def _representative(self, index: int) -> float:
        # Log-midpoint of (gamma**(i-1), gamma**i]: within ±relative_error
        # of every value the bucket can hold, exactly so at its two edges.
        return (2.0 * self._gamma ** index) / (self._gamma + 1.0)

    # -- introspection ------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        """Occupied buckets (the memory footprint), underflow included."""
        return len(self._counts) + (1 if self.zero_count else 0)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:  # an empty histogram is still a histogram
        return True

    # -- quantiles ----------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``), nearest-rank convention.

        Matches :func:`repro.serving.metrics.percentile`'s rank rule on
        the underlying samples, up to the documented bucket error.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        # The extreme ranks map to the exactly-tracked extrema, so the
        # tails of the distribution never suffer bucket rounding at all.
        if rank == 1 and self.min is not None:
            return self.min
        if rank == self.count and self.max is not None:
            return self.max
        seen = self.zero_count
        if rank <= seen:
            value = self.min_value if self.min is None else min(self.min_value, self.min)
            return self._clamp(value)
        for index in sorted(self._counts):
            seen += self._counts[index]
            if rank <= seen:
                return self._clamp(self._representative(index))
        return self._clamp(self.max if self.max is not None else 0.0)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (``0 <= p <= 100``), nearest-rank."""
        return self.quantile(p / 100.0)

    def _clamp(self, value: float) -> float:
        # Exact extrema are tracked, so no estimate needs to leave them.
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    # -- merging ------------------------------------------------------------------
    def compatible(self, other: "LatencyHistogram") -> bool:
        return (
            abs(self.relative_error - other.relative_error) < 1e-12
            and abs(self.min_value - other.min_value) < 1e-18
        )

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s observations into this histogram (in place).

        Both histograms must share bucket shape (same ``relative_error``
        and ``min_value``); merged quantiles keep the same error bound as
        if every observation had been recorded here directly.
        """
        if not self.compatible(other):
            raise ValueError(
                f"cannot merge histograms with different shapes: "
                f"(a={self.relative_error}, min={self.min_value}) vs "
                f"(a={other.relative_error}, min={other.min_value})"
            )
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    # -- exposition ---------------------------------------------------------------
    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ascending, exact.

        Bucket upper bounds are exact bin edges (``gamma**i``), so the
        cumulative counts are *exact* counts of observations ``<= bound``
        — the form Prometheus ``_bucket``/``le`` series expect.  The
        ``+Inf`` bucket is implied by :attr:`count`.
        """
        out: List[Tuple[float, int]] = []
        running = 0
        if self.zero_count:
            running += self.zero_count
            out.append((self.min_value, running))
        for index in sorted(self._counts):
            running += self._counts[index]
            out.append((self._gamma ** index, running))
        return out

    def to_dict(self) -> dict:
        """A JSON-safe form (bucket indices stringified for JSON objects)."""
        return {
            "type": "log-linear",
            "relative_error": self.relative_error,
            "min_value": self.min_value,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero_count": self.zero_count,
            "buckets": {str(index): count for index, count in sorted(self._counts.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`to_dict` output (e.g. off the
        wire, or out of a scraped stats document)."""
        hist = cls(
            relative_error=float(data.get("relative_error", DEFAULT_RELATIVE_ERROR)),
            min_value=float(data.get("min_value", 1e-6)),
        )
        hist._counts = {int(index): int(count) for index, count in (data.get("buckets") or {}).items()}
        hist.zero_count = int(data.get("zero_count", 0))
        hist.count = int(data.get("count", 0))
        hist.sum = float(data.get("sum", 0.0))
        hist.min = None if data.get("min") is None else float(data["min"])
        hist.max = None if data.get("max") is None else float(data["max"])
        return hist

    def copy(self) -> "LatencyHistogram":
        clone = LatencyHistogram(self.relative_error, self.min_value)
        clone._counts = dict(self._counts)
        clone.zero_count = self.zero_count
        clone.count = self.count
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        return clone

    def clear(self) -> None:
        self._counts.clear()
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, buckets={self.bucket_count}, "
            f"a={self.relative_error:g}, mean={self.mean:.6g})"
        )
