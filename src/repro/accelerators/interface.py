"""The coarse-grain functional interface of the HDC accelerators.

Both the digital HDC ASIC and the ReRAM accelerator expose the same style
of host-facing interface (Section 2.2 / Listing 6 of the paper): functions
for device configuration, data movement, and coarse-grain HDC operations
("run one iteration of training given a single data point", "infer the
label for a single feature vector given pre-programmed class
hypervectors").  HPVM-HDC lowers the HDC++ *stage* primitives to exactly
these calls.

The input buffers hold a *block* of rows, and each coarse operation runs
on the whole staged block in row order: a stage stages its rows once and
makes one call.  A 1-D buffer is a block of one, so Listing 6's per-sample
loop is the one-row case of the same methods.  A block adds exactly the
counters, seconds, energy and transfer bytes its rows' one-row calls add.

:class:`HDCAcceleratorDevice` defines the interface plus shared accounting
(device-only latency, host-link transfer time at the 10 kbps FPGA bridge of
the ASIC setup, energy).  Concrete devices implement the actual encoding /
training / inference algorithms and their timing models.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.kernels.reference import sign

__all__ = ["AcceleratorConfig", "DeviceCounters", "HDCAcceleratorDevice", "DeviceError"]


class DeviceError(RuntimeError):
    """Raised when the accelerator functional interface is misused."""


@dataclass(frozen=True)
class AcceleratorConfig:
    """Device configuration written by ``initialize_device`` (Listing 6).

    Attributes:
        dimension: Hypervector dimensionality D programmed into the device.
        features: Input feature vector length F.
        classes: Number of class hypervectors K.
        similarity: Similarity metric used by inference; both devices
            implement Hamming distance in hardware.
    """

    dimension: int
    features: int
    classes: int
    similarity: str = "hamming"


@dataclass
class DeviceCounters:
    """Accumulated accounting for one device session."""

    device_seconds: float = 0.0
    transfer_seconds: float = 0.0
    bytes_to_device: float = 0.0
    bytes_from_device: float = 0.0
    energy_joules: float = 0.0
    encodes: int = 0
    inferences: int = 0
    train_iterations: int = 0

    def reset(self) -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, f.default)

    def merge(self, other: "DeviceCounters") -> None:
        """Fold another set of counters into this one, field by field."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "DeviceCounters":
        return dataclasses.replace(self)

    def delta(self, since: "DeviceCounters") -> "DeviceCounters":
        """Counters accumulated after the ``since`` snapshot was taken."""
        return DeviceCounters(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in dataclasses.fields(self)
            }
        )


class HDCAcceleratorDevice:
    """Base class for the HDC accelerator simulators.

    The functional interface follows Listing 6 of the paper::

        initialize_device(config)
        allocate_base_mem(random_projection)   # encoder / base hypervectors
        allocate_class_mem(classes)            # class hypervectors
        allocate_feature_mem(features)         # a block of input feature rows
        execute_encode()                       # encode the staged rows
        execute_retrain(labels[, epochs])      # one training iteration per row
        execute_inference()                    # classify the staged rows
        read_class_mem()                       # copy class hypervectors back

    Subclasses implement the block hooks ``_encode`` (rows to ±1 rows),
    ``_train`` (the training rule over encoded rows, in order) and
    ``_infer_encoded`` (labels and device seconds per row), and the
    per-row timing models ``_encode_time`` / ``_train_time``.  All data
    movement over the host link is accounted through
    :meth:`_transfer_to_device` / :meth:`_transfer_from_device`.
    """

    #: Host link bandwidth in bits per second.  The taped-out ASIC talks to
    #: its ARM host through a 10 kbps FPGA bridge (Section 5.2).
    host_link_bps: float = 10e3

    #: Class-memory capacity in rows (class hypervectors), or ``None`` for
    #: unbounded.  Real devices hold the class memory in a fixed on-chip
    #: bank (the ASIC's class SRAM, the ReRAM macro's crossbar rows); a
    #: class memory larger than the bank cannot stay resident — the host
    #: must re-stream it per execution round.  :class:`DeviceSession`
    #: consults this to decide whether residency-based transfer elision is
    #: possible at all; the functional simulators still *execute*
    #: oversized memories (streaming is functionally a reload), they just
    #: never count them resident.
    class_mem_capacity_rows: Optional[int] = None

    def __init__(self) -> None:
        self.config: Optional[AcceleratorConfig] = None
        self.counters = DeviceCounters()
        self._base_mem: Optional[np.ndarray] = None
        self._class_mem: Optional[np.ndarray] = None
        self._signed: Optional[np.ndarray] = None
        self._feature_mem: Optional[np.ndarray] = None
        self._encoded_mem: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ config --
    def initialize_device(self, config: AcceleratorConfig) -> None:
        """Configure the device and clear its on-chip state."""
        self.config = config
        self.counters.reset()
        self._base_mem = None
        self._class_mem = None
        self._signed = None
        self._feature_mem = None
        self._encoded_mem = None

    def _require_config(self) -> AcceleratorConfig:
        if self.config is None:
            raise DeviceError("initialize_device must be called before any other operation")
        return self.config

    # ----------------------------------------------------------- data movement --
    def allocate_base_mem(self, base: np.ndarray) -> None:
        """Load the encoder (random projection / base hypervectors)."""
        self._require_config()
        self._base_mem = np.asarray(base)
        self._transfer_to_device(self._base_mem.size * self._element_bytes(self._base_mem))

    def allocate_class_mem(self, classes: np.ndarray) -> None:
        """Load the class hypervectors into on-chip class memory.

        The devices train in place on this memory (float32 accumulators);
        their Hamming units read its sign.
        """
        config = self._require_config()
        classes = np.asarray(classes)
        if classes.shape[0] != config.classes:
            raise DeviceError(
                f"class memory expects {config.classes} class hypervectors, got {classes.shape[0]}"
            )
        self._class_mem = classes.astype(np.float32, copy=True)
        self._signed = None
        self._transfer_to_device(classes.size * self._element_bytes(classes))

    def allocate_feature_mem(self, features: np.ndarray) -> None:
        """Stage a block of input feature rows (``N x F``; one vector is a block of one)."""
        self._feature_mem = self._stage(features, self._require_config().features, "feature")

    def read_class_mem(self) -> np.ndarray:
        """Copy the class hypervectors back to the host."""
        self._require_config()
        if self._class_mem is None:
            raise DeviceError("class memory has not been programmed")
        self._transfer_from_device(self._class_mem.size * 4)
        return np.array(self._class_mem, copy=True)

    def allocate_encoded_mem(self, encoded: np.ndarray) -> None:
        """Stage a block of already-encoded hypervectors in the encoded-HV buffer.

        Both accelerators keep encoded hypervectors in an on-chip buffer
        between their encoder and their Hamming unit (Figure 1 of the
        paper); this entry point lets the host feed that buffer directly so
        that pre-encoded data (e.g. the encodings produced by a previous
        ``encoding_loop`` offload) can be classified without re-encoding.
        """
        self._encoded_mem = self._stage(encoded, self._require_config().dimension, "encoded")

    def _stage(self, block: np.ndarray, width: int, buffer: str) -> np.ndarray:
        """Check a block of rows (``N x width``, or one row) and move it over the host link."""
        block = np.asarray(block)
        if block.ndim not in (1, 2) or block.shape[-1] != width:
            raise DeviceError(f"the {buffer} buffer takes rows of {width}, got shape {block.shape}")
        self._transfer_to_device(block.size * self._element_bytes(block))
        return block

    # ------------------------------------------------------- coarse operations --
    def execute_encode(self) -> np.ndarray:
        """Encode the staged rows: ``N x D`` for a block, ``D`` for one vector."""
        self._require_staged()
        rows = np.atleast_2d(self._feature_mem)
        encoded = self._encode(rows)
        self._account(np.full(len(rows), self._encode_time()))
        self.counters.encodes += len(rows)
        return encoded if self._feature_mem.ndim == 2 else encoded[0]

    def execute_retrain(self, labels, epochs: int = 1) -> None:
        """Run ``epochs`` passes of one training iteration per staged row,
        in row order.

        ``labels`` holds one label per row (a scalar for one vector).
        Listing 6 stages the rows once per epoch, so every pass after the
        first moves them over the host link again; the simulator encodes
        them once, as the encoder does not change between passes.
        """
        self._require_staged(need_classes=True)
        rows = np.atleast_2d(self._feature_mem)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if labels.size != len(rows):
            raise DeviceError(f"{len(rows)} staged rows but {labels.size} labels")
        encoded = self._encode(rows)
        for epoch in range(epochs):
            if epoch:
                self.allocate_feature_mem(self._feature_mem)
            self._train(encoded, labels)
            self._account(np.full(len(rows), self._train_time()))
            self.counters.train_iterations += len(rows)

    def execute_inference(self):
        """Classify the staged rows against the class memory: a label per
        row for a block, one ``int`` for one vector."""
        self._require_staged(need_classes=True)
        labels, seconds = self._infer_encoded(self._encode(np.atleast_2d(self._feature_mem)))
        return self._labels(labels, self._encode_time() + seconds, self._feature_mem)

    def execute_inference_encoded(self):
        """Classify the staged *pre-encoded* rows (Hamming unit only)."""
        self._require_config()
        if self._encoded_mem is None:
            raise DeviceError("allocate_encoded_mem must be called before encoded inference")
        if self._class_mem is None:
            raise DeviceError("allocate_class_mem must be called before execution")
        labels, seconds = self._infer_encoded(np.atleast_2d(self._encoded_mem))
        return self._labels(labels, seconds, self._encoded_mem)

    def _labels(self, labels: np.ndarray, seconds: np.ndarray, staged: np.ndarray):
        self._account(seconds)
        self.counters.inferences += len(labels)
        # The predicted labels travel back over the host link.
        self._transfer_from_device(4 * len(labels))
        return labels if staged.ndim == 2 else int(labels[0])

    def _signed_classes(self) -> np.ndarray:
        """The class memory's sign as ±1 float32 rows, the Hamming units'
        operand: signed once per programmed memory, not once per query (a
        training rule that changes rows keeps it current or drops it)."""
        if self._signed is None:
            self._signed = sign(self._class_mem).astype(np.float32)
        return self._signed

    # ------------------------------------------------------------------- hooks --
    def _encode(self, rows: np.ndarray) -> np.ndarray:
        """Encode ``N x F`` rows into ``N x D`` ±1 rows."""
        raise NotImplementedError

    def _train(self, encoded: np.ndarray, labels: np.ndarray) -> None:
        """Run the training rule over ``N x D`` encoded rows and their labels, in order."""
        raise NotImplementedError

    def _infer_encoded(self, encoded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return each encoded row's label and Hamming-unit device seconds."""
        raise NotImplementedError

    def _encode_time(self) -> float:
        raise NotImplementedError

    def _train_time(self) -> float:
        raise NotImplementedError

    #: Average device power in watts, used for the energy accounting.
    device_power_watts: float = 0.1

    # --------------------------------------------------------------- accounting --
    def _account(self, seconds: np.ndarray) -> None:
        """Add each row's device seconds and energy, row after row."""
        self.counters.device_seconds = _fold(self.counters.device_seconds, seconds)
        self.counters.energy_joules = _fold(self.counters.energy_joules, self._energy(seconds))

    def _energy(self, seconds: np.ndarray) -> np.ndarray:
        """The energy terms of rows taking ``seconds``, in the order their
        one-row calls add them."""
        return seconds * self.device_power_watts

    def _transfer_to_device(self, num_bytes: float) -> None:
        self.counters.bytes_to_device += num_bytes
        self.counters.transfer_seconds += (num_bytes * 8.0) / self.host_link_bps

    def _transfer_from_device(self, num_bytes: float) -> None:
        self.counters.bytes_from_device += num_bytes
        self.counters.transfer_seconds += (num_bytes * 8.0) / self.host_link_bps

    def _require_staged(self, need_classes: bool = False) -> None:
        self._require_config()
        if self._base_mem is None:
            raise DeviceError("allocate_base_mem must be called before execution")
        if self._feature_mem is None:
            raise DeviceError("allocate_feature_mem must be called before execution")
        if need_classes and self._class_mem is None:
            raise DeviceError("allocate_class_mem must be called before execution")

    @staticmethod
    def _element_bytes(array: np.ndarray) -> float:
        return float(array.dtype.itemsize)


def _fold(total: float, terms: np.ndarray) -> float:
    """``total`` plus each of ``terms`` in turn, rounding after every add
    (``np.add.accumulate`` is sequential), so a block's sum is bit for bit
    its rows' one-row sums."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def hamming(encoded: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """Hamming distances (``N x K``, float32) between ±1 rows ``encoded``
    (``N x W``) and ±1 rows ``signed`` (``K x W``): ``(W - dot) / 2``, one
    float32 GEMM, exact while ``W < 2^24``, with no ``N x K x W`` temporary."""
    return (encoded.shape[1] - encoded @ signed.T) / np.float32(2)
