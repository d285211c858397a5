"""The HDC accelerator back ends: digital ASIC and ReRAM.

:class:`DigitalASICBackend` targets the digital HDC ASIC simulator
(:class:`~repro.accelerators.digital_asic.DigitalHDCASIC`) and
:class:`ReRAMBackend` the ReRAM accelerator simulator
(:class:`~repro.accelerators.reram.ReRAMAccelerator`).  They differ only in
the target they declare and the device type they build by default; pass
``device=`` for a device with custom parameters.

Both back ends lower the three HDC++ stage primitives to the
devices' coarse-grain functional interface (the call sequence of Listing 6)
and execute every other operation on the host CPU, a ``parallel_map`` on
the host executor's gated block route.  Granular HDC primitives are *not*
offloaded: the devices only understand whole encoding / training /
inference operations, which is why the paper introduces the stage
primitives.  Every stage gets a ``stage_profile`` row, as on the host
targets: a device stage's route is ``device``, and its row carries the
device counters it added and the config it ran under.

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
:mod:`repro.transforms.plan`): the encoding stage does no device work
(its row's counters are zero, its reason names the fusion), and the
training stage runs the sequence above on the encoding stage's raw rows,
its encoder programmed into base memory — the same device calls and
counters as the ``training_loop(..., encoder=)`` form.  Any other
encoder-less ``training_loop`` is refused at compile.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.accelerators.digital_asic import DigitalHDCASIC
from repro.accelerators.interface import AcceleratorConfig, HDCAcceleratorDevice
from repro.accelerators.reram import ReRAMAccelerator
from repro.backends.base import Backend, CompiledProgram, ExecutionReport
from repro.backends.executor import ExecutionError, HostStageExecutor, OpInterpreter, Stage
from repro.backends.runtime import DeviceSession
from repro.hdcpp.program import Operation, Program
from repro.ir.dataflow import DataflowGraph, Target
from repro.ir.ops import STAGE_OPS, Opcode
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["AcceleratorBackend", "DigitalASICBackend", "ReRAMBackend"]


class AcceleratorStageExecutor(HostStageExecutor):
    """Stage executor that offloads the stage primitives to a device session.

    Its row-map and training handlers offload (a ``parallel_map`` stays on
    the host's block route).  Each stage runs under the host's profiling
    hook (:meth:`HostStageExecutor.execute_stage`), route ``device``: its
    row's ``device`` dict holds the ``DeviceCounters`` it added, the
    ``AcceleratorConfig`` it ran under (zeros before the first), and
    ``encoder``: ``False`` when its inferences ran the Hamming unit only.
    """

    def __init__(self, session: DeviceSession, verdicts: dict):
        super().__init__(verdicts)
        self.session = session
        #: The encoder each fused ``encoding_loop`` handed on, by its
        #: result's id (the ``training_loop``'s planned ``fused_with``).
        self.fused: dict[int, np.ndarray] = {}

    def _map_rows(self, run, stage: Stage, inputs: list[np.ndarray]):
        if stage.op.opcode is Opcode.PARALLEL_MAP:  # a parallel map runs on the host
            return super()._map_rows(run, stage, inputs)
        return self._offload(stage, inputs)

    def _training(self, run, stage: Stage, inputs: list[np.ndarray]):
        return self._offload(stage, inputs)

    def _offload(self, stage: Stage, inputs: list[np.ndarray]):
        op, before = stage.op, self.session.counters()
        if stage.fused:
            # The fused training stage encodes these rows on chip: hand it
            # the raw rows, and the encoder beside them.
            self.reasons[op] = "fused: the training_loop encodes these rows on chip"
            self.fused[op.result.id] = inputs[1]
            result = inputs[0]
        elif op.opcode == Opcode.ENCODING_LOOP:
            queries, encoder = np.asarray(inputs[0]), np.asarray(inputs[1])
            # No class memory is read; a placeholder row satisfies the interface.
            classes = np.zeros((1, encoder.shape[0]), dtype=np.float32)
            result = self._stage(queries, encoder, classes).execute_encode()
        elif op.opcode == Opcode.INFERENCE_LOOP:
            result = self._inference(op, inputs)
        elif op.opcode == Opcode.TRAINING_LOOP:
            result = self._retrain(stage, inputs)
        else:
            raise ExecutionError(f"unsupported stage {op.opcode}")
        self.metered[op] = {
            **vars(self.session.config or AcceleratorConfig(0, 0, 0)),
            **{name: value - before[name] for name, value in self.session.counters().items()},
            "encoder": op.opcode != Opcode.INFERENCE_LOOP or bool(op.attrs.get("has_encoder")),
        }
        return result

    def _stage(self, queries: np.ndarray, encoder: np.ndarray, classes: np.ndarray):
        """Configure the device for these shapes, program its base and class
        memories where they changed, stage the feature rows."""
        self.session.ensure_config(classes.shape[1], queries.shape[1], classes.shape[0])
        self.session.ensure_base(encoder)
        self.session.ensure_classes(classes)
        self.session.device.allocate_feature_mem(queries)
        return self.session.device

    def _inference(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        queries, classes = np.asarray(inputs[0]), np.asarray(inputs[1])
        if op.attrs.get("has_encoder"):
            return self._stage(queries, np.asarray(inputs[2]), classes).execute_inference()
        # No encoder operand: the queries are already encoded hypervectors
        # (e.g. an earlier ``encoding_loop``'s), so only the devices'
        # Hamming unit is exercised.
        if queries.shape[1] != classes.shape[1]:
            raise ExecutionError(
                "inference_loop without an encoder requires pre-encoded queries whose "
                "dimension matches the class hypervectors"
            )
        self.session.ensure_config(classes.shape[1], classes.shape[1], classes.shape[0])
        self.session.ensure_classes(classes)
        self.session.device.allocate_encoded_mem(queries)
        return self.session.device.execute_inference_encoded()

    def _retrain(self, stage: Stage, inputs: list[np.ndarray]) -> np.ndarray:
        op, (queries, labels, classes) = stage.op, inputs[:3]
        encoder = inputs[3] if stage.fused_with is None else self.fused[stage.fused_with]
        device = self._stage(np.asarray(queries), np.asarray(encoder), np.asarray(classes))
        # Re-staged before every later epoch: the bytes Listing 6 moves.
        device.execute_retrain(labels, int(op.attrs.get("epochs", 1)))
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
        if self.reuse_session and self.last_session is not None:
            session = self.last_session
        else:
            session = DeviceSession(self.device)
        self.last_session = session
        before = session.totals.copy()
        before_elided = session.elided_transfers
        stages = AcceleratorStageExecutor(session, verdicts)
        run = OpInterpreter(stages, self.seed)
        run.run_steps(compiled.resolved(self.kernel_set).steps, env)
        call = session.finalize().delta(before)
        report.merge_device_counters(call)
        report.kernel_launches = run.launches
        report.notes["elided_transfers"] = session.elided_transfers - before_elided
        report.notes["device"] = type(self.device).__name__
        for counter in ("encodes", "inferences", "train_iterations"):
            report.notes[counter] = getattr(call, counter)
        report.stages = stages.record
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
