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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerators.interface import AcceleratorConfig, HDCAcceleratorDevice
from repro.kernels.reference import sign

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
        self._class_accumulators: np.ndarray | None = None
        self._base_row: np.ndarray | None = None
        self._projection_cache: np.ndarray | None = None

    # ------------------------------------------------------------------ config --
    def initialize_device(self, config: AcceleratorConfig) -> None:
        super().initialize_device(config)
        self._class_accumulators = None
        self._base_row = None
        self._projection_cache = None

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
        self._base_row = sign(self._base_mem)
        self._projection_cache = None

    def allocate_class_mem(self, classes: np.ndarray) -> None:
        super().allocate_class_mem(classes)
        # Class memory is kept as integer accumulators; inference uses sign().
        self._class_accumulators = np.asarray(classes, dtype=np.float32).copy()

    def read_class_mem(self) -> np.ndarray:
        self._class_mem = self._class_accumulators
        return super().read_class_mem()

    # ----------------------------------------------------------------- compute --
    def _cyclic_projection(self, features: np.ndarray) -> np.ndarray:
        """Encode with the cyclic random projection unit."""
        config = self._require_config()
        assert self._base_row is not None
        features = np.asarray(features, dtype=np.float32)
        # Row i of the projection is the base row rotated by i; the product
        # against a fixed feature vector is a circular correlation, computed
        # here with a cached expansion of the cyclic matrix (the hardware
        # streams it through MAC lanes without materializing it).
        if self._projection_cache is None:
            dim, n_features = config.dimension, config.features
            base = self._base_row[:n_features].astype(np.float32)
            shifts = np.arange(dim) % n_features
            idx = (np.arange(n_features)[None, :] + shifts[:, None]) % n_features
            self._projection_cache = base[idx]
        return self._projection_cache @ features

    def _encode(self, features: np.ndarray) -> np.ndarray:
        return sign(self._cyclic_projection(features))

    def _train_step(self, features: np.ndarray, label: int) -> None:
        assert self._class_accumulators is not None
        encoded = self._encode(features)
        bipolar_classes = sign(self._class_accumulators)
        distances = np.count_nonzero(bipolar_classes != encoded[None, :], axis=1)
        predicted = int(np.argmin(distances))
        # Bundle into the true class, and correct the mispredicted class.
        self._class_accumulators[label] += encoded
        if predicted != label:
            self._class_accumulators[predicted] -= encoded
        self._class_mem = self._class_accumulators

    def _infer(self, features: np.ndarray) -> tuple[int, float]:
        label, hamming_seconds = self._infer_encoded(self._encode(features))
        return label, self._encode_time() + hamming_seconds

    def _infer_encoded(self, encoded: np.ndarray) -> tuple[int, float]:
        assert self._class_accumulators is not None
        bipolar_classes = sign(self._class_accumulators)
        distances = np.count_nonzero(bipolar_classes != sign(encoded)[None, :], axis=1)
        return int(np.argmin(distances)), self._hamming_time()

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
