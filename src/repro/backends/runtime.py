"""Host runtime for the HDC accelerator back ends.

The accelerators expose coarse-grain operations over device-resident data
(Listing 6 of the paper).  Because the digital ASIC talks to its host over
a ~10 kbps link, the single most important job of the generated host code
is to avoid redundant data movement: the random-projection base memory and
the class memory must be programmed once and reused across the training and
inference loops rather than re-sent per sample or per stage.

:class:`DeviceSession` implements that policy.  It wraps a device simulator
and tracks what is currently resident on the device; ``ensure_*`` methods
re-program memories only when the configuration or the data actually
changed, which is the "lift redundant data movements outside of loops"
optimization HPVM-HDC applies when lowering the stage primitives.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.accelerators.interface import AcceleratorConfig, DeviceCounters, HDCAcceleratorDevice

__all__ = ["DeviceSession"]


class DeviceSession:
    """Tracks device residency and accumulates device counters across stages."""

    def __init__(self, device: HDCAcceleratorDevice):
        self.device = device
        self.totals = DeviceCounters()
        #: The configuration last written by ``initialize_device``.
        self.config: Optional[AcceleratorConfig] = None
        self._resident_base: Optional[np.ndarray] = None
        self._resident_classes: Optional[np.ndarray] = None
        # The host array object each resident memory was programmed from
        # (a strong reference, so the identity can never be a recycled
        # id).  Serving hands the session the *same* cached constants
        # object on every batch (Deployment constants are immutable once
        # registered), so an `is` check elides the transfer in O(1)
        # instead of re-comparing the whole memory byte-for-byte — on an
        # oversized class memory the value comparison itself costs a full
        # memory stream per batch.  Mutating a previously ensured array
        # in place would defeat the check; deployment constants are never
        # mutated (updates build new arrays), matching the contract the
        # value comparison's defensive copy already assumed.
        self._resident_base_src: Optional[np.ndarray] = None
        self._resident_classes_src: Optional[np.ndarray] = None
        #: Number of transfers skipped because the data was already resident.
        self.elided_transfers = 0
        #: Class-memory transfers forced by the device's fixed bank size
        #: (``class_mem_capacity_rows``): the memory was unchanged but too
        #: large to stay resident, so it re-streamed to the device.
        self.capacity_evictions = 0

    # -- configuration -------------------------------------------------------------
    def ensure_config(self, dimension: int, features: int, classes: int) -> None:
        """(Re)initialize the device if the programmed shape changed."""
        config = AcceleratorConfig(dimension=dimension, features=features, classes=classes)
        if self.config == config:
            return
        self._accumulate()
        self.device.initialize_device(config)
        self.config = config
        self._resident_base = None
        self._resident_classes = None
        self._resident_base_src = None
        self._resident_classes_src = None

    # -- residency-aware data movement ------------------------------------------------
    def ensure_base(self, base: np.ndarray) -> None:
        source = base
        base = np.asarray(base)
        if source is self._resident_base_src and self._resident_base is not None:
            self.elided_transfers += 1
            return
        if self._resident_base is not None and np.array_equal(self._resident_base, base):
            self.elided_transfers += 1
            self._resident_base_src = source
            return
        self.device.allocate_base_mem(base)
        self._resident_base = np.array(base, copy=True)
        self._resident_base_src = source

    def ensure_classes(self, classes: np.ndarray) -> None:
        source = classes
        classes = np.asarray(classes)
        capacity = getattr(self.device, "class_mem_capacity_rows", None)
        if capacity is not None and classes.shape[0] > int(capacity):
            # Too large for the device's class-memory bank: it can never
            # stay resident, so every execution round re-streams it.
            # This is the cost model that makes "a memory too big for one
            # worker" mean something — and the cost shard-pinned
            # placement exists to avoid, by keeping each (bank-sized)
            # slice resident on its own worker.
            self.capacity_evictions += 1
            self.device.allocate_class_mem(classes)
            self._resident_classes = None
            self._resident_classes_src = None
            return
        if source is self._resident_classes_src and self._resident_classes is not None:
            self.elided_transfers += 1
            return
        if self._resident_classes is not None and np.array_equal(self._resident_classes, classes):
            self.elided_transfers += 1
            self._resident_classes_src = source
            return
        self.device.allocate_class_mem(classes)
        self._resident_classes = np.array(classes, copy=True)
        self._resident_classes_src = source

    def invalidate_classes(self) -> None:
        """Mark device class memory as modified (after on-device training)."""
        self._resident_classes = None
        self._resident_classes_src = None

    # -- counters -----------------------------------------------------------------------
    def _accumulate(self) -> None:
        counters = self.device.counters
        self.totals.merge(counters)
        counters.reset()

    def counters(self) -> dict:
        """The session's counters so far as ``{field: value}``, the device's
        outstanding ones included, without folding them in."""
        device = vars(self.device.counters)
        return {name: total + device[name] for name, total in vars(self.totals).items()}

    def finalize(self) -> DeviceCounters:
        """Fold outstanding device counters into the session totals."""
        self._accumulate()
        return self.totals
