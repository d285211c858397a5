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

A staged block is encoded with one stacked Kronecker product (each row's
two products are the one-row call's, run in one call), bundled in row
order, and searched with the progressive unit vectorized over its rows:
each row still stops at its own chunk.

The paper evaluated this accelerator through a simulator with timing and
energy parameters extracted from commercial 40 nm SRAM/ReRAM macros; this
module is the equivalent simulator for the reproduction, so the methodology
matches the original evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerators.interface import AcceleratorConfig, HDCAcceleratorDevice, hamming
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
        self._factors: tuple[np.ndarray, np.ndarray] | None = None
        self._dims: tuple[int, int, int, int] | None = None
        #: Elements the progressive Hamming unit visited, and rows it
        #: searched, since ``initialize_device``: a running sum and count,
        #: so a long-lived session's state does not grow with its traffic.
        self._visited = 0
        self._searched = 0

    # ------------------------------------------------------------------ config --
    def initialize_device(self, config: AcceleratorConfig) -> None:
        super().initialize_device(config)
        self._factors = None
        self._dims = self._factor_dims(config.dimension, config.features)
        self._visited = 0
        self._searched = 0

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
        self._require_config()
        base = np.asarray(base)
        super().allocate_base_mem(np.sign(base).astype(np.int8) if base.ndim else base)
        d1, d2, f1, f2 = self._dims
        rng = np.random.default_rng(self._seed)
        factor_a = (rng.integers(0, 2, size=(d1, f1)) * 2 - 1).astype(np.float32)
        factor_b = (rng.integers(0, 2, size=(d2, f2)) * 2 - 1).astype(np.float32)
        self._factors = (factor_a, factor_b)

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        config = self._require_config()
        factor_a, factor_b = self._factors
        d1, d2, f1, f2 = self._dims
        padded = np.zeros((len(rows), f1 * f2), dtype=np.float32)
        padded[:, : config.features] = rows
        # (A ⊗ B) @ x  ==  vec(B @ X @ A^T)  with X = reshape(x, f1, f2); the
        # stacked matmul makes each row's two products the one-row call's.
        x = padded.reshape(-1, f1, f2)
        product = factor_b @ x.transpose(0, 2, 1) @ factor_a.T  # (N, d2, d1)
        return sign(product.transpose(0, 2, 1).reshape(len(rows), d1 * d2)[:, : config.dimension])

    # ------------------------------------------------- progressive hamming unit --
    def _progressive_hamming(self, encoded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate each row's Hamming distances chunk by chunk, stopping
        the row once the uncomputed elements can no longer change its best
        candidate.

        Returns each row's (possibly partial) distances and the number of
        elements it visited.
        """
        dim = self._require_config().dimension
        signed = self._signed_classes()
        starts = np.arange(0, dim, self.params.hamming_chunk)
        stops = np.minimum(starts + self.params.hamming_chunk, dim)
        # (chunks, N, K): each row's distances once each chunk is in.
        running = np.cumsum(
            [hamming(encoded[:, a:b], signed[:, a:b]) for a, b in zip(starts, stops)], axis=0
        )
        if running.shape[2] > 1:
            best, second = np.moveaxis(np.partition(running, 1, axis=2)[..., :2], 2, 0)
        else:
            best, second = running[..., 0], np.inf
        # Even if every remaining element favours the runner-up, it can no
        # longer overtake the current best candidate; the last chunk ends
        # every search.
        settled = best + (dim - stops)[:, None] < second
        settled[-1] = True
        last = np.argmax(settled, axis=0)
        return running[last, np.arange(len(encoded))], stops[last]

    def _train(self, encoded: np.ndarray, labels: np.ndarray) -> None:
        """Summation-based one-shot training: bundle each encoded row into
        its class, in row order (a row loop: 6x ``np.add.at``'s speed at
        150 x 512)."""
        classes = self._class_mem
        for row, label in zip(encoded.astype(np.float32), labels.tolist()):
            classes[label] += row
        self._signed = None

    def _infer_encoded(self, encoded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        distances, visited = self._progressive_hamming(sign(encoded).astype(np.float32))
        self._visited += int(visited.sum())
        self._searched += len(visited)
        return np.argmin(distances, axis=1), self._hamming_time(visited / self.config.dimension)

    # ------------------------------------------------------------------ timing --
    def _encode_time(self) -> float:
        p = self.params
        d1, d2, f1, f2 = self._dims
        # The Kronecker trick turns the D x F projection into two small
        # matrix-vector products computed in memory: f1 activation bursts
        # against factor B followed by d2 bursts against factor A.
        activations = f1 + d2
        cycles = activations * p.row_activation_cycles
        return cycles / p.clock_hz

    def _hamming_time(self, fraction=1.0):
        """Device seconds of a search that visited ``fraction`` of the
        hypervector (a scalar, or an array of one per row)."""
        config = self._require_config()
        p = self.params
        # The progressive unit stops on a chunk boundary (or at the end).
        visited = np.rint(config.dimension * np.asarray(fraction)).astype(np.int64)
        full_chunks, rest = np.divmod(visited, p.hamming_chunk)
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
    def _energy(self, seconds: np.ndarray) -> np.ndarray:
        # Each row also activates one macro row of cells, after its power term.
        cells = self.params.macro_cols * self.params.energy_per_cell_pj * 1e-12
        return np.column_stack([super()._energy(seconds), np.full(len(seconds), cells)]).ravel()

    @property
    def mean_progressive_fraction(self) -> float:
        """Average visited fraction of the progressive Hamming unit."""
        if not self._searched:
            return 1.0
        return self._visited / (self._searched * self.config.dimension)
