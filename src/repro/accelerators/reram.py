"""Simulator of the ReRAM-based HDC accelerator (Section 2.2 of the paper).

The device (Xu et al., "FSL-HD") accelerates HDC with a large resistive-RAM
macro used as an in-memory compute array:

* **Tensorized encoding** — a more energy-efficient variant of random
  projection in which the projection matrix is the Kronecker product of two
  much smaller matrices, so only the factors need to be stored in the
  1024x1024 ReRAM macro.
* **In-memory Hamming unit with progressive computation** — Hamming
  distances between the encoded query and the candidate class hypervectors
  are accumulated chunk by chunk; once the remaining (uncomputed) elements
  can no longer change the relative ranking of the best candidate, the
  computation terminates early.
* **Summation-based one-shot training** — class hypervectors are the
  bundled (element-wise summed) encodings of their training samples.

The paper evaluated this accelerator through a simulator with timing and
energy parameters extracted from commercial 40 nm SRAM/ReRAM macros; this
module is the equivalent simulator for the reproduction, so the methodology
matches the original evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerators.interface import AcceleratorConfig, HDCAcceleratorDevice
from repro.kernels.reference import sign

__all__ = ["ReRAMParameters", "ReRAMAccelerator"]


@dataclass(frozen=True)
class ReRAMParameters:
    """Timing/energy parameters of the ReRAM accelerator model.

    ``macro_rows`` x ``macro_cols`` is the size of the ReRAM crossbar
    (1024x1024 in the paper's Figure 1).  One in-memory operation activates
    an entire macro row per cycle, which is what gives the device its large
    throughput advantage over the digital ASIC's lane-limited pipeline.
    """

    clock_hz: float = 100e6
    macro_rows: int = 1024
    macro_cols: int = 1024
    #: Hamming chunk width processed per progressive step (elements).
    hamming_chunk: int = 1024
    #: Latency of one in-memory activation burst (analog read, ADC sample
    #: and accumulate), in cycles.
    row_activation_cycles: int = 20
    #: Energy per activated ReRAM cell, in picojoules.
    energy_per_cell_pj: float = 0.02
    #: On-chip buffer size in bits (256 kb in Figure 1).
    buffer_bits: int = 256 * 1024
    host_link_bps: float = 1e6


class ReRAMAccelerator(HDCAcceleratorDevice):
    """Functional + timing simulator of the ReRAM HDC accelerator."""

    def __init__(self, params: ReRAMParameters | None = None, seed: int = 0x5EED):
        super().__init__()
        self.params = params or ReRAMParameters()
        self.host_link_bps = self.params.host_link_bps
        self.device_power_watts = 0.05
        self._seed = seed
        self._class_accumulators: np.ndarray | None = None
        self._factors: tuple[np.ndarray, np.ndarray] | None = None
        #: Fraction of the hypervector dimension actually visited by the
        #: progressive Hamming unit, averaged over inferences (for reports
        #: and the early-termination ablation benchmark).
        self.progressive_fraction_history: list[float] = []

    # ------------------------------------------------------------------ config --
    def initialize_device(self, config: AcceleratorConfig) -> None:
        super().initialize_device(config)
        self._class_accumulators = None
        self._factors = None
        self.progressive_fraction_history = []

    # --------------------------------------------------------- tensorized encode --
    @staticmethod
    def _factor_dims(dimension: int, features: int) -> tuple[int, int, int, int]:
        """Choose Kronecker factor shapes (d1 x f1) ⊗ (d2 x f2).

        ``d1 * d2 >= dimension`` and ``f1 * f2 >= features`` with factors as
        balanced as possible so both fit comfortably in the ReRAM macro.
        """
        d1 = int(np.ceil(np.sqrt(dimension)))
        d2 = int(np.ceil(dimension / d1))
        f1 = int(np.ceil(np.sqrt(features)))
        f2 = int(np.ceil(features / f1))
        return d1, d2, f1, f2

    def allocate_base_mem(self, base: np.ndarray) -> None:
        """Program the tensorized encoder.

        The host-provided projection matrix is only used as an entropy
        source: the device draws its two bipolar Kronecker factors from a
        deterministic generator so that the effective projection is
        reproducible across sessions, which is how the real device programs
        its encoder from a seed rather than storing a full D x F matrix.
        """
        config = self._require_config()
        base = np.asarray(base)
        super().allocate_base_mem(np.sign(base).astype(np.int8) if base.ndim else base)
        d1, d2, f1, f2 = self._factor_dims(config.dimension, config.features)
        rng = np.random.default_rng(self._seed)
        factor_a = (rng.integers(0, 2, size=(d1, f1)) * 2 - 1).astype(np.float32)
        factor_b = (rng.integers(0, 2, size=(d2, f2)) * 2 - 1).astype(np.float32)
        self._factors = (factor_a, factor_b)

    def allocate_class_mem(self, classes: np.ndarray) -> None:
        super().allocate_class_mem(classes)
        self._class_accumulators = np.asarray(classes, dtype=np.float32).copy()

    def read_class_mem(self) -> np.ndarray:
        self._class_mem = self._class_accumulators
        return super().read_class_mem()

    def _encode(self, features: np.ndarray) -> np.ndarray:
        config = self._require_config()
        assert self._factors is not None
        factor_a, factor_b = self._factors
        d1, d2 = factor_a.shape[0], factor_b.shape[0]
        f1, f2 = factor_a.shape[1], factor_b.shape[1]
        padded = np.zeros(f1 * f2, dtype=np.float32)
        padded[: config.features] = np.asarray(features, dtype=np.float32)
        # (A ⊗ B) @ x  ==  vec(B @ X @ A^T)  with X = reshape(x, f1, f2)
        x = padded.reshape(f1, f2)
        product = factor_b @ x.T @ factor_a.T  # (d2, d1)
        encoded = product.T.reshape(-1)[: config.dimension]
        return sign(encoded)

    # ------------------------------------------------- progressive hamming unit --
    def _progressive_hamming(self, encoded: np.ndarray) -> tuple[np.ndarray, float]:
        """Accumulate Hamming distances chunk-by-chunk with early termination.

        Returns the (possibly partial) distances and the fraction of the
        hypervector dimension that was actually visited.
        """
        config = self._require_config()
        assert self._class_accumulators is not None
        bipolar_classes = sign(self._class_accumulators)
        dim = config.dimension
        chunk = self.params.hamming_chunk
        distances = np.zeros(config.classes, dtype=np.float64)
        visited = 0
        for start in range(0, dim, chunk):
            stop = min(start + chunk, dim)
            distances += np.count_nonzero(
                bipolar_classes[:, start:stop] != encoded[None, start:stop], axis=1
            )
            visited = stop
            remaining = dim - visited
            order = np.argsort(distances)
            best, second = distances[order[0]], distances[order[1]] if len(order) > 1 else np.inf
            # Even if every remaining element favours the runner-up, it can
            # no longer overtake the current best candidate.
            if best + remaining < second:
                break
        fraction = visited / dim
        self.progressive_fraction_history.append(fraction)
        return distances, fraction

    def _train_step(self, features: np.ndarray, label: int) -> None:
        """Summation-based one-shot training: bundle the encoded sample."""
        assert self._class_accumulators is not None
        encoded = self._encode(features).astype(np.float32)
        self._class_accumulators[label] += encoded
        self._class_mem = self._class_accumulators

    def _infer(self, features: np.ndarray) -> tuple[int, float]:
        encoded = self._encode(features)
        label, hamming_seconds = self._infer_encoded(encoded)
        return label, self._encode_time() + hamming_seconds

    def _infer_encoded(self, encoded: np.ndarray) -> tuple[int, float]:
        encoded = sign(encoded)
        distances, fraction = self._progressive_hamming(encoded)
        return int(np.argmin(distances)), self._hamming_time(fraction)

    # ------------------------------------------------------------------ timing --
    def _encode_time(self) -> float:
        config = self._require_config()
        p = self.params
        d1, d2, f1, f2 = self._factor_dims(config.dimension, config.features)
        # The Kronecker trick turns the D x F projection into two small
        # matrix-vector products computed in memory: f1 activation bursts
        # against factor B followed by d2 bursts against factor A.
        activations = f1 + d2
        cycles = activations * p.row_activation_cycles
        return cycles / p.clock_hz

    def _hamming_time(self, fraction: float = 1.0) -> float:
        config = self._require_config()
        p = self.params
        # The progressive unit stops on a chunk boundary (or at the end).
        full_chunks, rest = divmod(round(config.dimension * fraction), p.hamming_chunk)
        # One activation burst reads at most one macro row, so a chunk wider
        # than the crossbar takes several — per candidate class hypervector.
        bursts = full_chunks * -(-p.hamming_chunk // p.macro_cols) + -(-rest // p.macro_cols)
        cycles = bursts * p.row_activation_cycles * max(1, config.classes)
        return cycles / p.clock_hz

    def _train_time(self) -> float:
        config = self._require_config()
        p = self.params
        update_cycles = config.dimension / p.macro_cols * p.row_activation_cycles
        return self._encode_time() + update_cycles / p.clock_hz

    # --------------------------------------------------------------- accounting --
    def _account(self, device_seconds: float) -> None:
        super()._account(device_seconds)
        config = self.config
        if config is not None:
            cells = self.params.macro_cols
            self.counters.energy_joules += cells * self.params.energy_per_cell_pj * 1e-12

    @property
    def mean_progressive_fraction(self) -> float:
        """Average visited fraction of the progressive Hamming unit."""
        if not self.progressive_fraction_history:
            return 1.0
        return float(np.mean(self.progressive_fraction_history))
