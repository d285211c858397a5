"""The HDC accelerator back ends: digital ASIC and ReRAM.

:class:`DigitalASICBackend` targets the digital HDC ASIC simulator
(:class:`~repro.accelerators.digital_asic.DigitalHDCASIC`) and
:class:`ReRAMBackend` the ReRAM accelerator simulator
(:class:`~repro.accelerators.reram.ReRAMAccelerator`).  They differ only in
the target they declare and the device type they build by default; pass
``device=`` for a device with custom parameters.

Both back ends lower the three HDC++ stage primitives to the
devices' coarse-grain functional interface (the call sequence of Listing 6)
and execute every other operation on the host CPU.  Granular HDC primitives
are *not* offloaded: the devices only understand whole encoding / training /
inference operations, which is precisely why the paper introduces the stage
primitives in the first place.

The generated call sequence for a training + inference program follows
Listing 6 of the paper, each stage staging its whole block of rows (the
listing's per-sample loop is the one-row case of the same calls, and adds
the same counters, seconds, energy and bytes)::

    initialize_device(&config)
    allocate_base_mem(random_projection)
    allocate_class_mem(classes)
    for n in range(EPOCHS):
        allocate_feature_mem(train_inputs)       # N_TRAIN x F, once per epoch
        execute_retrain(train_labels)            # the rows in order
    read_class_mem(classes)
    # base memory stays resident — the redundant transfer is elided
    allocate_class_mem(classes)
    allocate_feature_mem(infer_inputs)           # N_TEST x F
    infer_labels = execute_inference()

The epoch loop is issued as one ``execute_retrain(train_labels, EPOCHS)``
after the first staging: the device re-stages the rows before each later
epoch, so the bytes and counters are the loop's, and encodes them once.

A program may state its training encode-then-train instead: an
``encoding_loop`` whose only use is the queries of an encoder-less
``training_loop``.  The devices retrain from raw feature rows, so the back
end fuses the pair (the ``training_loop``'s planned ``fused_with``,
:mod:`repro.transforms.plan`): the encoding stage does no device work, and
the training stage runs the sequence above on the encoding stage's raw
rows, its encoder programmed into base memory — the same device calls and
counters as the ``training_loop(..., encoder=)`` form.  Any other
encoder-less ``training_loop`` is refused at compile.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.accelerators.digital_asic import DigitalHDCASIC
from repro.accelerators.interface import HDCAcceleratorDevice
from repro.accelerators.reram import ReRAMAccelerator
from repro.backends.base import Backend, CompiledProgram, ExecutionReport
from repro.backends.executor import ExecutionError, HostStageExecutor, OpInterpreter
from repro.backends.runtime import DeviceSession
from repro.hdcpp.program import Operation, Program
from repro.ir.dataflow import DataflowGraph, Target
from repro.ir.ops import STAGE_OPS, Opcode
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["AcceleratorBackend", "DigitalASICBackend", "ReRAMBackend"]


class AcceleratorStageExecutor(HostStageExecutor):
    """Stage executor that offloads the stage primitives to a device session."""

    def __init__(self, session: DeviceSession, fused: set):
        super().__init__(verdicts={})
        self.session = session
        #: Ids of the ``encoding_loop`` results a ``training_loop`` is
        #: planned ``fused_with``: those stages pass their raw rows on.
        self.fused = fused

    # -- helpers ------------------------------------------------------------------------
    @staticmethod
    def _dimension_of(encoder: np.ndarray, classes: Optional[np.ndarray]) -> int:
        if classes is not None:
            return int(np.asarray(classes).shape[1])
        return int(np.asarray(encoder).shape[0])

    # -- stage offloading ------------------------------------------------------------------
    def execute_stage(self, interpreter, op: Operation, inputs: list[np.ndarray]):
        if op.result.id in self.fused:
            # The fused training stage encodes these rows on chip: pass it
            # the raw rows and the encoder.
            return tuple(inputs)
        if op.opcode == Opcode.ENCODING_LOOP:
            return self._encoding(op, inputs)
        if op.opcode == Opcode.INFERENCE_LOOP:
            return self._inference(op, inputs)
        if op.opcode == Opcode.TRAINING_LOOP:
            return self._training(op, inputs)
        raise ExecutionError(f"unsupported stage {op.opcode}")

    def _encoding(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        queries, encoder = np.asarray(inputs[0]), np.asarray(inputs[1])
        dimension = int(encoder.shape[0])
        self.session.ensure_config(dimension, queries.shape[1], classes=1)
        self.session.ensure_base(encoder)
        # The device encodes but has no class memory requirement here; a
        # single placeholder row satisfies the functional interface.
        self.session.ensure_classes(np.zeros((1, dimension), dtype=np.float32))
        device = self.session.device
        device.allocate_feature_mem(queries)
        return device.execute_encode()

    def _inference(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        queries, classes = np.asarray(inputs[0]), np.asarray(inputs[1])
        device = self.session.device
        if not op.attrs.get("has_encoder"):
            # No encoder operand: the queries are already encoded
            # hypervectors (e.g. produced by a previous ``encoding_loop``
            # offload), so only the devices' Hamming unit is exercised.
            if queries.shape[1] != classes.shape[1]:
                raise ExecutionError(
                    "inference_loop without an encoder requires pre-encoded queries whose "
                    "dimension matches the class hypervectors"
                )
            self.session.ensure_config(classes.shape[1], classes.shape[1], classes.shape[0])
            self.session.ensure_classes(classes)
            device.allocate_encoded_mem(queries)
            return device.execute_inference_encoded()

        encoder = np.asarray(inputs[2])
        dimension = self._dimension_of(encoder, classes)
        self.session.ensure_config(dimension, queries.shape[1], classes.shape[0])
        self.session.ensure_base(encoder)
        self.session.ensure_classes(classes)
        device.allocate_feature_mem(queries)
        return device.execute_inference()

    def _training(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        if "fused_with" in op.attrs:
            (queries, encoder), labels, classes = inputs
        else:
            queries, labels, classes, encoder = inputs
        queries, classes, encoder = np.asarray(queries), np.asarray(classes), np.asarray(encoder)
        dimension = self._dimension_of(encoder, classes)
        epochs = int(op.attrs.get("epochs", 1))
        self.session.ensure_config(dimension, queries.shape[1], classes.shape[0])
        self.session.ensure_base(encoder)
        self.session.ensure_classes(classes)
        device = self.session.device
        device.allocate_feature_mem(queries)
        # Re-staged before every later epoch: the bytes Listing 6 moves.
        device.execute_retrain(labels, epochs)
        self.session.invalidate_classes()
        return device.read_class_mem()


class AcceleratorBackend(Backend):
    """Base class of the digital-ASIC and ReRAM back ends: a subclass
    declares its ``target``, ``name`` and the ``device_type`` it builds
    when no ``device`` is passed."""

    name = "accelerator"
    device_type: type[HDCAcceleratorDevice]

    def __init__(
        self,
        device: Optional[HDCAcceleratorDevice] = None,
        seed: int = 0,
        reuse_session: bool = False,
    ):
        self.device = device or self.make_device()
        self.seed = seed
        #: Keep one :class:`DeviceSession` alive across ``execute`` calls so
        #: residency tracking spans a whole stream of requests: a serving
        #: worker that classifies batch after batch programs the base and
        #: class memories once and elides every later transfer.  Reports
        #: still carry per-call deltas, not session totals.
        self.reuse_session = reuse_session
        self.last_session: Optional[DeviceSession] = None

    def make_device(self) -> HDCAcceleratorDevice:
        return self.device_type()

    def prepare(self, program: Program, graph: DataflowGraph, config: ApproximationConfig) -> None:
        if not config.is_identity:
            raise ValueError(
                f"the {self.name} back end does not support the approximation transforms: "
                "the accelerators implement fixed-function encoding/inference (Section 4.2)"
            )
        # Every stage node must be mappable onto the device.
        for node in graph.leaf_nodes():
            for op in node.ops:
                if op.opcode in STAGE_OPS:
                    if self.target not in node.targets:
                        raise ValueError(f"stage node {node.name} is not annotated for {self.target}")
                    trains = op.opcode == Opcode.TRAINING_LOOP
                    if trains and not op.attrs.get("has_encoder") and "fused_with" not in op.attrs:
                        raise ValueError(
                            f"{op.opcode} cannot be offloaded to the {self.name} back end: it has no "
                            "encoder operand and trains on no encoding_loop of its own, and the device "
                            "retrains from raw rows, its base memory programmed from the encoder"
                        )

    def execute(
        self, compiled: CompiledProgram, env: dict[int, np.ndarray], report: ExecutionReport,
        verdicts: dict,
    ) -> dict[str, object]:
        # The device stages run no batched route, so no gate verdicts.
        if self.reuse_session and self.last_session is not None:
            session = self.last_session
        else:
            session = DeviceSession(self.device)
        self.last_session = session
        before = session.totals.copy()
        before_elided = session.elided_transfers
        kernels = self.kernel_set(seed=self.seed)
        fused = {op.attrs["fused_with"].id for op in compiled.entry.ops if "fused_with" in op.attrs}
        stages = AcceleratorStageExecutor(session, fused)
        interpreter = OpInterpreter(compiled.program, kernels, stages)
        interpreter.run_entry(env)
        call = session.finalize().delta(before)
        report.merge_device_counters(call)
        report.kernel_launches = kernels.kernel_invocations
        report.notes["elided_transfers"] = session.elided_transfers - before_elided
        report.notes["device"] = type(self.device).__name__
        report.notes["encodes"] = call.encodes
        report.notes["inferences"] = call.inferences
        report.notes["train_iterations"] = call.train_iterations
        return self.collect_outputs(compiled.entry, env)


class DigitalASICBackend(AcceleratorBackend):
    """Compile HDC++ programs for the digital HDC ASIC."""

    target = Target.HDC_ASIC
    name = "hdc_asic"
    device_type = DigitalHDCASIC


class ReRAMBackend(AcceleratorBackend):
    """Compile HDC++ programs for the ReRAM HDC accelerator simulator."""

    target = Target.HDC_RERAM
    name = "hdc_reram"
    device_type = ReRAMAccelerator
