"""Shared result types and helpers for the HDC++ applications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.backends.base import ExecutionReport

__all__ = ["AppResult", "merge_reports", "bipolar_random", "corrective_class_update"]


@dataclass
class AppResult:
    """The outcome of running one application end to end on one target.

    Attributes:
        app: Application name (e.g. ``"hd-classification"``).
        target: Hardware target the application was compiled for.
        quality: Application-level quality of service (accuracy, recall,
            purity, ... — higher is better).
        quality_metric: Name of the quality metric.
        wall_seconds: Measured end-to-end wall-clock time of the HDC work.
        report: Merged execution report across all compiled-program calls.
        outputs: Application-specific extra outputs (predictions, trained
            class hypervectors, ...).
    """

    app: str
    target: str
    quality: float
    quality_metric: str
    wall_seconds: float
    report: ExecutionReport
    outputs: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"AppResult({self.app}, target={self.target}, "
            f"{self.quality_metric}={self.quality:.3f}, wall={self.wall_seconds * 1e3:.1f}ms)"
        )


def merge_reports(target: str, reports: list[ExecutionReport]) -> ExecutionReport:
    """Accumulate the execution reports of several compiled-program calls."""
    merged = ExecutionReport(target=target)
    for report in reports:
        merged.merge(report)
    return merged


def bipolar_random(rows: int, cols: int, seed: int) -> np.ndarray:
    """A deterministic bipolar {+1, -1} matrix (random projection / item memory)."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(rows, cols)) * 2 - 1).astype(np.float32)


def corrective_class_update(
    class_hvs: np.ndarray,
    encoded: np.ndarray,
    labels: np.ndarray,
    predicted: np.ndarray,
    name: str = "update",
) -> np.ndarray:
    """The shared HDC corrective training rule over a mini-batch.

    Bundle each encoding into its labelled class accumulator and subtract
    it from the class it was mistaken for — the single definition used by
    the online ``update_batch`` rules (classification, RelHD), so the
    corrective arithmetic stays bit-identical across applications.

    Args:
        class_hvs: ``(n_classes, D)`` class memories (not modified).
        encoded: ``(n, D)`` encodings to bundle.
        labels: ``(n,)`` true class indices (validated against n_classes).
        predicted: ``(n,)`` classes the serving path would have predicted.
        name: Model name for error messages.
    """
    class_hvs = np.asarray(class_hvs, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and int(labels.max()) >= class_hvs.shape[0]:
        raise ValueError(
            f"{name}: update label {int(labels.max())} out of range for "
            f"{class_hvs.shape[0]} classes"
        )
    updated = np.array(class_hvs, copy=True)
    np.add.at(updated, labels, encoded)
    wrong = np.asarray(predicted) != labels
    np.add.at(updated, np.asarray(predicted)[wrong], -encoded[wrong])
    return updated.astype(np.float32)
