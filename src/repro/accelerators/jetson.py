"""Device-only latency model of an NVIDIA Jetson AGX Orin class edge GPU.

Figure 6 of the paper compares the two HDC accelerators against the same
HDC++ applications compiled for an NVIDIA Jetson AGX Orin board (Ampere
GPU, 2048 CUDA cores, 64 tensor cores) — the representative GPU available
at the edge, which is the deployment target of the accelerators.  Because
the comparison is *device-only* (the ASIC's 10 kbps host link and the
ReRAM simulator's lack of a host model make end-to-end numbers
meaningless), what is needed from the Jetson is a latency model of the HDC
primitive work: encoding GEMMs, similarity computations and class updates,
including per-kernel launch overhead, which dominates for the small
per-sample kernels HDC produces.

The model is analytical: the achieved throughput on the small, skinny
matrices typical of HDC (one sample at a time, as the accelerators process
them) is far below peak, which the ``efficiency`` factor captures.  It
prices the stages an accelerator run reports (:meth:`~JetsonOrinModel.profile_time`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["JetsonParameters", "JetsonOrinModel"]


@dataclass(frozen=True)
class JetsonParameters:
    """Performance parameters of the edge-GPU latency model.

    Attributes:
        peak_flops: Peak FP32 throughput of the Ampere GPU (~5.3 TFLOPS for
            the 2048-core Orin configuration).
        efficiency: Fraction of peak achieved on per-sample HDC kernels
            (skinny GEMV-like shapes keep utilization low).
        kernel_launch_seconds: Fixed overhead per kernel launch.
        memory_bandwidth: Device memory bandwidth in bytes/second.
    """

    peak_flops: float = 5.3e12
    efficiency: float = 0.05
    kernel_launch_seconds: float = 8e-6
    memory_bandwidth: float = 200e9


class JetsonOrinModel:
    """Analytical device-only latency model for HDC stages on a Jetson Orin."""

    def __init__(self, params: JetsonParameters | None = None):
        self.params = params or JetsonParameters()

    def _kernel_time(self, flops: float, bytes_moved: float) -> float:
        compute = flops / (self.params.peak_flops * self.params.efficiency)
        memory = bytes_moved / self.params.memory_bandwidth
        return self.params.kernel_launch_seconds + max(compute, memory)

    # -- per-sample HDC stages -------------------------------------------------------
    def encode_time(self, dimension: int, features: int) -> float:
        """Random projection encoding of one sample: a (D x F) GEMV."""
        flops = 2.0 * dimension * features
        bytes_moved = 4.0 * (dimension * features + features + dimension)
        return self._kernel_time(flops, bytes_moved)

    def similarity_time(self, dimension: int, classes: int) -> float:
        """Similarity of one encoded sample against every class hypervector."""
        flops = 2.0 * dimension * classes
        bytes_moved = 4.0 * (dimension * classes + dimension + classes)
        # similarity kernel + an argmin reduction kernel
        return self._kernel_time(flops, bytes_moved) + self.params.kernel_launch_seconds

    def update_time(self, dimension: int) -> float:
        """Class hypervector update for one training sample."""
        flops = 2.0 * dimension
        bytes_moved = 4.0 * 3 * dimension
        return self._kernel_time(flops, bytes_moved)

    def inference_time(self, dimension: int, features: int, classes: int) -> float:
        """Encode + similarity + argmin for one sample."""
        return self.encode_time(dimension, features) + self.similarity_time(dimension, classes)

    def train_iteration_time(self, dimension: int, features: int, classes: int) -> float:
        """One retraining iteration (encode, similarity, conditional update)."""
        return self.inference_time(dimension, features, classes) + self.update_time(dimension)

    # -- a run's device stages ---------------------------------------------------------
    def profile_time(self, profile) -> float:
        """The ``device`` rows of a run's ``stage_profile`` on this GPU: each
        row's encodes, inferences (with the encoder, or on encoded queries)
        and train iterations, at the ``D x F x K`` the row ran under."""
        seconds = 0.0
        for device in (row["device"] for row in profile if "device" in row):
            d, f, k = device["dimension"], device["features"], device["classes"]
            infer = self.inference_time(d, f, k) if device["encoder"] else self.similarity_time(d, k)
            seconds += device["encodes"] * self.encode_time(d, f) + device["inferences"] * infer
            seconds += device["train_iterations"] * self.train_iteration_time(d, f, k)
        return seconds
