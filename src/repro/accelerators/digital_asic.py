"""Simulator of the digital HDC ASIC (Section 2.2 of the paper).

The taped-out device (Yang et al., "FSL-HDnn", 40 nm) supports *cyclic
random projection* encoding and *pipelined Hamming distance* for both
training and inference, reaching 0.78 TOPS/W on its HDC module.  The chip
is attached to an ARM host through an FPGA bridge limited to roughly
10 kbps, so realistic deployments keep data resident on the device and the
evaluation of Figure 6 reports device-only latency.

This module reproduces the device functionally and with an analytical
timing/energy model:

* **Cyclic random projection.**  The host programs a single base projection
  row (plus the device's LFSR seed); row *i* of the effective projection
  matrix is the base row cyclically rotated by *i*.  The encoded
  hypervector is the sign of the projection product — exactly the behaviour
  HPVM-HDC relies on when it offloads ``encoding_loop``.
* **Pipelined Hamming distance.**  Class hypervectors are stored as
  bipolar vectors; inference streams the encoded query through a Hamming
  pipeline, one class per pipeline pass, with ``lanes`` elements compared
  per cycle.
* **Class updating.**  Training keeps integer accumulators per class and
  adds/subtracts the encoded hypervector on mispredictions (the standard
  HDC retraining rule); the bipolar class memory used for inference is the
  sign of the accumulators.

A staged block is encoded with one certified ``sign ∘ matmul``
(:func:`repro.kernels.batched.sign_gemm`), and its Hamming distances are one
±1 float32 GEMM; training is the ordered ``retrain`` kernel the host's
reference route runs (:func:`repro.kernels.reference.retrain`), which walks
the block's rows in order, re-signing only the class rows a step changed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.accelerators.interface import AcceleratorConfig, HDCAcceleratorDevice, hamming
from repro.kernels.batched import sign_gemm
from repro.kernels.reference import retrain, sign

__all__ = ["DigitalASICParameters", "DigitalHDCASIC"]


@dataclass(frozen=True)
class DigitalASICParameters:
    """Timing and energy parameters of the digital HDC ASIC model.

    The defaults are anchored to the published figures of the device: a
    40 nm design running at a few hundred MHz whose HDC module achieves
    0.78 TOPS/W.  ``encode_lanes`` / ``hamming_lanes`` model the number of
    multiply-accumulate / compare lanes working in parallel per cycle.
    """

    clock_hz: float = 200e6
    encode_lanes: int = 512
    hamming_lanes: int = 1024
    update_lanes: int = 512
    pipeline_fill_cycles: int = 64
    tops_per_watt: float = 0.78
    host_link_bps: float = 10e3
    #: On-chip class-memory bank size in rows; ``None`` models an
    #: unbounded bank (the pre-PR-9 behaviour).  Class memories above the
    #: bank size cannot stay resident between executions — the host
    #: re-streams them per round, which is exactly the data-movement wall
    #: that sharding across devices exists to break.
    class_mem_rows: "int | None" = None

    @property
    def watts(self) -> float:
        """Average power implied by lane throughput and TOPS/W."""
        ops_per_second = self.hamming_lanes * self.clock_hz
        return ops_per_second / (self.tops_per_watt * 1e12)


class DigitalHDCASIC(HDCAcceleratorDevice):
    """Functional + timing simulator of the digital HDC ASIC."""

    def __init__(self, params: DigitalASICParameters | None = None, seed: int = 0xA51C):
        super().__init__()
        self.params = params or DigitalASICParameters()
        self.host_link_bps = self.params.host_link_bps
        self.device_power_watts = self.params.watts
        self.class_mem_capacity_rows = self.params.class_mem_rows
        self._seed = seed
        self._projection: np.ndarray | None = None

    # ------------------------------------------------------------------ config --
    def initialize_device(self, config: AcceleratorConfig) -> None:
        super().initialize_device(config)
        self._projection = None

    def allocate_base_mem(self, base: np.ndarray) -> None:
        """Program the cyclic projection base row.

        The host may pass a full random projection matrix (as generated for
        CPU/GPU execution); the device only stores its first row and derives
        the remaining rows cyclically — this is the hardware restriction that
        makes the encoder cheap to store on chip.
        """
        base = np.asarray(base)
        row = base[0] if base.ndim == 2 else base
        super().allocate_base_mem(np.sign(row).astype(np.int8))
        self._projection = self._cyclic_projection(sign(self._base_mem))

    # ----------------------------------------------------------------- compute --
    def _cyclic_projection(self, base_row: np.ndarray) -> np.ndarray:
        """The effective ``D x F`` projection: row i is the base row rotated
        left by ``i mod F`` (the hardware streams it through MAC lanes
        without materializing it).  Rotation s is window s of the base row
        followed by its own first ``F - 1`` entries, so the matrix is one
        row copy per rotation of a strided view."""
        config = self._require_config()
        dim, n_features = config.dimension, config.features
        base = base_row[:n_features].astype(np.float32)
        rotations = sliding_window_view(np.concatenate([base, base[:-1]]), n_features)
        return rotations[np.arange(dim) % n_features]

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        return sign_gemm(np.asarray(rows, dtype=np.float32), self._projection)

    def _train(self, encoded: np.ndarray, labels: np.ndarray) -> None:
        """The retraining rule, row after row: the host's ``retrain`` kernel."""
        self._class_mem, self._signed = retrain(self._class_mem, encoded, labels), None

    def _infer_encoded(self, encoded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        distances = hamming(sign(encoded).astype(np.float32), self._signed_classes())
        return np.argmin(distances, axis=1), np.full(len(encoded), self._hamming_time())

    # ------------------------------------------------------------------ timing --
    def _encode_time(self) -> float:
        config = self._require_config()
        p = self.params
        macs = config.dimension * config.features
        cycles = macs / p.encode_lanes + p.pipeline_fill_cycles
        return cycles / p.clock_hz

    def _hamming_time(self) -> float:
        config = self._require_config()
        p = self.params
        comparisons = config.dimension * config.classes
        cycles = comparisons / p.hamming_lanes + p.pipeline_fill_cycles * config.classes
        return cycles / p.clock_hz

    def _update_time(self) -> float:
        config = self._require_config()
        p = self.params
        cycles = 2 * config.dimension / p.update_lanes + p.pipeline_fill_cycles
        return cycles / p.clock_hz

    def _train_time(self) -> float:
        return self._encode_time() + self._hamming_time() + self._update_time()
