"""Tests for the digital ASIC and ReRAM accelerator back ends."""

import numpy as np
import pytest

from repro import hdcpp as H
from repro.backends import DigitalASICBackend, ReRAMBackend, compile as hdc_compile
from repro.transforms import ApproximationConfig, PerforationSpec


#: What ``AcceleratorBackend.prepare`` says of a ``training_loop`` it refuses.
REFUSAL = "no encoder operand and trains on no encoding_loop of its own"


def build_train_infer_program(n_train=30, n_test=15, features=16, dim=128, classes=4):
    prog = H.Program("accelerator_app")

    @prog.define(H.hv(features), H.hm(classes, dim), H.hm(dim, features))
    def infer_one(query, class_hvs, rp):
        encoded = H.sign(H.matmul(query, rp))
        return H.arg_min(H.hamming_distance(encoded, H.sign(class_hvs)))

    def train_one(query, label, class_hvs, rp):
        encoded = np.sign(np.asarray(query) @ np.asarray(rp).T)
        updated = np.array(class_hvs, copy=True)
        updated[label] += encoded
        return updated

    @prog.entry(
        H.hm(n_train, features),
        H.IndexVectorType(n_train),
        H.hm(n_test, features),
        H.hm(dim, features),
        H.hm(classes, dim),
    )
    def main(train_q, train_labels, test_q, rp, class_hvs):
        trained = H.training_loop(train_one, train_q, train_labels, class_hvs, epochs=2, encoder=rp)
        return H.inference_loop(infer_one, test_q, trained, encoder=rp), trained

    return prog


def build_encode_then_train_program(n_train=30, n_test=15, features=16, dim=128, classes=4):
    """:func:`build_train_infer_program` stated encode-then-train: an
    ``encoding_loop`` whose only use is an encoder-less ``training_loop``."""
    prog = H.Program("accelerator_app_encoded")

    @prog.define(H.hv(features), H.hm(classes, dim), H.hm(dim, features))
    def infer_one(query, class_hvs, rp):
        encoded = H.sign(H.matmul(query, rp))
        return H.arg_min(H.hamming_distance(encoded, H.sign(class_hvs)))

    @prog.define(H.hv(features), H.hm(dim, features))
    def encode_one(query, rp):
        return H.sign(H.matmul(query, rp))

    def train_encoded(encoded, label, class_hvs):
        updated = np.array(class_hvs, copy=True)
        updated[label] += np.asarray(encoded)
        return updated

    @prog.entry(
        H.hm(n_train, features),
        H.IndexVectorType(n_train),
        H.hm(n_test, features),
        H.hm(dim, features),
        H.hm(classes, dim),
    )
    def main(train_q, train_labels, test_q, rp, class_hvs):
        encoded = H.encoding_loop(encode_one, train_q, rp)
        trained = H.training_loop(train_encoded, encoded, train_labels, class_hvs, epochs=2)
        return H.inference_loop(infer_one, test_q, trained, encoder=rp), trained

    return prog


def state_size(value) -> int:
    """Elements ``value`` holds: an array's size, a container's elements
    (recursively), 1 for anything else."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple, set)):
        return sum(state_size(item) for item in value)
    return 1


@pytest.fixture()
def toy_data():
    rng = np.random.default_rng(11)
    features, classes, n_train, n_test = 16, 4, 30, 15
    prototypes = rng.normal(size=(classes, features))
    train_labels = rng.integers(0, classes, n_train)
    test_labels = rng.integers(0, classes, n_test)
    train = prototypes[train_labels] + 0.2 * rng.normal(size=(n_train, features))
    test = prototypes[test_labels] + 0.2 * rng.normal(size=(n_test, features))
    rp = (rng.integers(0, 2, size=(128, features)) * 2 - 1).astype(np.float32)
    return {
        "train_q": train.astype(np.float32),
        "train_labels": train_labels,
        "test_q": test.astype(np.float32),
        "rp": rp,
        "class_hvs": np.zeros((classes, 128), dtype=np.float32),
        "test_labels": test_labels,
    }


@pytest.mark.parametrize("target", ["hdc_asic", "hdc_reram"])
class TestAcceleratorExecution:
    def test_train_and_infer_produces_good_accuracy(self, target, toy_data):
        prog = build_train_infer_program()
        compiled = hdc_compile(prog, target=target)
        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        result = compiled.run(**inputs)
        predictions = np.asarray(result.outputs[prog.entry_function.results[0].name])
        accuracy = (predictions == toy_data["test_labels"]).mean()
        assert accuracy > 0.7

    def test_device_counters_flow_into_report(self, target, toy_data):
        prog = build_train_infer_program()
        compiled = hdc_compile(prog, target=target)
        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        report = compiled.run(**inputs).report
        assert report.device_seconds > 0
        assert report.bytes_to_device > 0
        assert report.energy_joules > 0
        assert report.notes["train_iterations"] == 60  # 30 samples x 2 epochs
        assert report.notes["inferences"] == 15

    def test_redundant_base_transfer_is_elided(self, target, toy_data):
        prog = build_train_infer_program()
        compiled = hdc_compile(prog, target=target)
        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        report = compiled.run(**inputs).report
        # Training programs the base memory; the inference stage reuses it.
        assert report.notes["elided_transfers"] >= 1

    def test_approximations_rejected(self, target):
        prog = build_train_infer_program()
        with pytest.raises(ValueError):
            hdc_compile(prog, target=target, config=ApproximationConfig(binarize=True))
        with pytest.raises(ValueError):
            hdc_compile(
                prog,
                target=target,
                config=ApproximationConfig(perforations=(PerforationSpec("matmul", stride=2),)),
            )

    def test_training_without_encoder_rejected(self, target):
        """Refused at compile, before any device work — the device programs
        its base memory from the projection, and there is none: a toy
        program, and RelHD's training over host-aggregated encodings."""
        from repro.accelerators.interface import DeviceCounters
        from repro.apps import RelHD
        from repro.backends import backend_for_target

        prog = H.Program("no_encoder")

        def train_one(query, label, class_hvs):
            return class_hvs

        @prog.entry(H.hm(10, 16), H.IndexVectorType(10), H.hm(4, 128))
        def main(train_q, labels, class_hvs):
            return H.training_loop(train_one, train_q, labels, class_hvs)

        for program in (prog, RelHD(dimension=128).build_classify_program(10, 5, 4)):
            backend = backend_for_target(target)
            with pytest.raises(ValueError, match=REFUSAL):
                backend.compile(program)
            assert backend.last_session is None
            assert backend.device.counters == DeviceCounters()


@pytest.mark.parametrize("target", ["hdc_asic", "hdc_reram"])
class TestEncodeThenTrainFusion:
    """An ``encoding_loop`` used only by an encoder-less ``training_loop``
    runs as the device's on-chip retraining of the raw rows."""

    def test_matches_the_training_loop_encoder_form(self, target, toy_data):
        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        runs = []
        for prog in (build_encode_then_train_program(), build_train_infer_program()):
            result = hdc_compile(prog, target=target).run(**inputs)
            predictions, trained = (result.outputs[v.name] for v in prog.entry_function.results)
            runs.append((np.asarray(predictions), np.asarray(trained), result.report))
        (got_pred, got_classes, got), (pred, classes, expected) = runs
        assert got_pred.tobytes() == pred.tobytes()
        assert got_classes.tobytes() == classes.tobytes()
        for name in ("train_iterations", "encodes", "inferences", "elided_transfers"):
            assert got.notes[name] == expected.notes[name], name
        for name in ("bytes_to_device", "bytes_from_device", "device_seconds", "energy_joules"):
            assert getattr(got, name) == getattr(expected, name), name
        assert got.notes["train_iterations"] == 60 and got.notes["encodes"] == 0

    def test_encoding_with_another_consumer_is_not_fused(self, target):
        """An encode feeding an ``inference_loop`` keeps its device encode
        (clustering's shape); one that is also a program result leaves its
        ``training_loop`` without an encoding of its own, so it is refused."""
        from repro.accelerators.interface import DeviceCounters
        from repro.backends import backend_for_target

        features, dim, classes, n = 16, 128, 4, 12
        rng = np.random.default_rng(5)
        rp = (rng.integers(0, 2, size=(dim, features)) * 2 - 1).astype(np.float32)
        queries = rng.normal(size=(n, features)).astype(np.float32)
        centroids = np.sign(rng.normal(size=(classes, dim))).astype(np.float32)

        def encode_one(query, rp):
            return H.sign(H.matmul(query, rp))

        infer = H.Program("encode_infer")
        encode = infer.define(H.hv(features), H.hm(dim, features))(encode_one)

        @infer.define(H.hv(dim), H.hm(classes, dim))
        def assign_one(encoded, clusters):
            return H.arg_min(H.hamming_distance(H.sign(encoded), H.sign(clusters)))

        @infer.entry(H.hm(n, features), H.hm(dim, features), H.hm(classes, dim))
        def main(samples, rp, clusters):
            return H.inference_loop(assign_one, H.encoding_loop(encode, samples, rp), clusters)

        report = hdc_compile(infer, target=target).run(samples=queries, rp=rp, clusters=centroids).report
        assert report.notes["encodes"] == n and report.notes["inferences"] == n

        shared = H.Program("encode_train_and_return")
        encode = shared.define(H.hv(features), H.hm(dim, features))(encode_one)

        @shared.entry(H.hm(n, features), H.IndexVectorType(n), H.hm(dim, features), H.hm(classes, dim))
        def train(samples, labels, rp, class_hvs):
            encoded = H.encoding_loop(encode, samples, rp)
            return H.training_loop(lambda q, label, c: c, encoded, labels, class_hvs), encoded

        backend = backend_for_target(target)
        with pytest.raises(ValueError, match=REFUSAL):
            backend.compile(shared)
        assert backend.last_session is None
        assert backend.device.counters == DeviceCounters()


@pytest.mark.parametrize("target", ["hdc_asic", "hdc_reram"])
class TestStageProfile:
    def test_every_stage_gets_a_row_with_its_device_counters(self, target, toy_data):
        prog = build_encode_then_train_program()
        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        report = hdc_compile(prog, target=target).run(**inputs).report
        fused, train, infer = report.notes["stage_profile"]
        assert [row["route"] for row in (fused, train, infer)] == ["device"] * 3
        assert "fused" in fused["reason"] and fused["rows"] == 30
        assert not any(fused["device"][k] for k in ("encodes", "train_iterations", "device_seconds"))
        assert (train["device"]["train_iterations"], infer["device"]["inferences"]) == (60, 15)
        for row in (train, infer):
            assert row["device"]["device_seconds"] > 0 and row["device"]["encoder"]
            config = {k: row["device"][k] for k in ("dimension", "features", "classes")}
            assert config == {"dimension": 128, "features": 16, "classes": 4}

    def test_a_bound_handle_keeps_its_gate_verdicts(self, target):
        """HyperOMS's host ``parallel_map`` stages take the gated block route
        on the devices too: a bound handle's second run of the same row
        counts reads its verdicts and pays no boundary-row gate."""
        from repro.apps import HyperOMS
        from repro.datasets import SpectraConfig, make_spectral_library

        data = make_spectral_library(SpectraConfig(n_library=24, n_queries=12, n_bins=64))
        queries, library = data.query_matrix, data.library_matrix
        program = HyperOMS(dimension=256).build_program(len(queries), len(library), queries.shape[1])
        handle = hdc_compile(program, target=target).bind(library_spectra=library)
        first, second = (
            [row for row in handle.run(query_spectra=queries).report.notes["stage_profile"]
             if row["route"] != "device"]
            for _ in range(2)
        )
        assert [row["route"] for row in first + second] == ["vectorized"] * 4
        assert all(row["gate_seconds"] > 0 for row in first)
        assert [row["gate_seconds"] for row in second] == [0.0, 0.0]


class TestPreEncodedInference:
    @pytest.mark.parametrize("target", ["hdc_asic", "hdc_reram"])
    def test_inference_without_encoder_uses_encoded_queries(self, target):
        rng = np.random.default_rng(3)
        dim, classes, n = 128, 5, 20
        class_hvs = np.sign(rng.normal(size=(classes, dim))).astype(np.float32)
        labels = rng.integers(0, classes, n)
        queries = class_hvs[labels].copy()

        prog = H.Program("pre_encoded")

        @prog.define(H.hv(dim), H.hm(classes, dim))
        def assign_one(encoded, clusters):
            return H.arg_min(H.hamming_distance(H.sign(encoded), H.sign(clusters)))

        @prog.entry(H.hm(n, dim), H.hm(classes, dim))
        def main(encoded, clusters):
            return H.inference_loop(assign_one, encoded, clusters)

        compiled = hdc_compile(prog, target=target)
        predictions = np.asarray(compiled.run(encoded=queries, clusters=class_hvs).output)
        assert np.array_equal(predictions, labels)


class TestBackendConstruction:
    def test_custom_device_instance_is_used(self):
        from repro.accelerators import DigitalHDCASIC, ReRAMAccelerator

        asic_device = DigitalHDCASIC()
        backend = DigitalASICBackend(device=asic_device)
        assert backend.device is asic_device

        reram_device = ReRAMAccelerator()
        backend = ReRAMBackend(device=reram_device)
        assert backend.device is reram_device

    @pytest.mark.parametrize("target", ["hdc_asic", "hdc_reram"])
    def test_each_target_builds_its_declared_device_type(self, target):
        from repro.accelerators import DigitalHDCASIC, ReRAMAccelerator
        from repro.backends import backend_for_target
        from repro.ir.dataflow import Target

        backend_type, device_type = {
            "hdc_asic": (DigitalASICBackend, DigitalHDCASIC),
            "hdc_reram": (ReRAMBackend, ReRAMAccelerator),
        }[target]
        backend = backend_for_target(target)
        assert type(backend) is backend_type and backend.name == target
        assert backend.target is Target(target)
        assert type(backend.device) is device_type
        assert backend_for_target(target).device is not backend.device  # one device per back end

    def test_device_parameters_reach_the_back_end_through_device(self, toy_data):
        """The one way to give a back end custom device parameters: a
        class-memory bank of 2 rows, under the program's 4 classes, makes
        every run of a reused session re-stream the class memory."""
        from repro.accelerators.digital_asic import DigitalASICParameters, DigitalHDCASIC

        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        params = DigitalASICParameters(class_mem_rows=2)
        evictions = {}
        for name, backend in (
            ("banked", DigitalASICBackend(device=DigitalHDCASIC(params), reuse_session=True)),
            ("default", DigitalASICBackend(reuse_session=True)),
        ):
            compiled = backend.compile(build_train_infer_program())
            compiled.run(**inputs)
            compiled.run(**inputs)
            evictions[name] = backend.last_session.capacity_evictions
        assert evictions["banked"] > 0 and evictions["default"] == 0
        with pytest.raises(TypeError, match="params"):
            DigitalASICBackend(params=params)


class TestDeviceCounters:
    def test_merge_accumulates_every_field(self):
        from repro.accelerators.interface import DeviceCounters

        a = DeviceCounters(device_seconds=1.0, bytes_to_device=10.0, encodes=2, inferences=3)
        b = DeviceCounters(device_seconds=0.5, bytes_to_device=5.0, encodes=1, train_iterations=7)
        a.merge(b)
        assert a.device_seconds == 1.5
        assert a.bytes_to_device == 15.0
        assert a.encodes == 3
        assert a.inferences == 3
        assert a.train_iterations == 7

    def test_copy_and_delta(self):
        from repro.accelerators.interface import DeviceCounters

        counters = DeviceCounters(device_seconds=2.0, inferences=4)
        snapshot = counters.copy()
        counters.merge(DeviceCounters(device_seconds=1.0, inferences=6))
        delta = counters.delta(snapshot)
        assert snapshot.device_seconds == 2.0  # snapshot unaffected
        assert delta.device_seconds == 1.0
        assert delta.inferences == 6


class TestSessionReuse:
    def test_persistent_session_elides_transfers_across_runs(self, toy_data):
        prog = build_train_infer_program()
        backend = DigitalASICBackend(reuse_session=True)
        compiled = backend.compile(prog)
        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        first = compiled.run(**inputs).report
        second = compiled.run(**inputs).report
        # The warm session keeps the base memory resident: the second run
        # re-uses it where the first had to program it.
        assert second.notes["elided_transfers"] > first.notes["elided_transfers"]
        assert second.bytes_to_device < first.bytes_to_device
        # Reports stay per-call: the second run's modeled inference count
        # matches one execution, not the session total.
        assert second.notes["inferences"] == first.notes["inferences"]

    def test_fresh_sessions_by_default(self, toy_data):
        prog = build_train_infer_program()
        backend = ReRAMBackend()
        compiled = backend.compile(prog)
        inputs = {k: v for k, v in toy_data.items() if k != "test_labels"}
        first = compiled.run(**inputs).report
        second = compiled.run(**inputs).report
        assert second.notes["elided_transfers"] == first.notes["elided_transfers"]
        assert second.bytes_to_device == first.bytes_to_device

    def test_a_reused_session_keeps_its_device_state_the_same_size(self, toy_data):
        """A serving worker's ``hdc_reram`` session serves batch after batch:
        the progressive unit's visited fraction is a running sum and count,
        so 50 more batches leave the device's state as large as one did."""
        prog = H.Program("serve")
        features, classes, dim, n = 16, 4, 128, 15

        @prog.define(H.hv(features), H.hm(classes, dim), H.hm(dim, features))
        def infer_one(query, class_hvs, rp):
            encoded = H.sign(H.matmul(query, rp))
            return H.arg_min(H.hamming_distance(encoded, H.sign(class_hvs)))

        @prog.entry(H.hm(n, features), H.hm(dim, features), H.hm(classes, dim))
        def main(test_q, rp, class_hvs):
            return H.inference_loop(infer_one, test_q, class_hvs, encoder=rp)

        backend = ReRAMBackend(reuse_session=True)
        compiled = backend.compile(prog)
        class_hvs = np.sign(np.random.default_rng(2).normal(size=(classes, dim))).astype(np.float32)
        inputs = {"test_q": toy_data["test_q"], "rp": toy_data["rp"], "class_hvs": class_hvs}
        compiled.run(**inputs)
        size = state_size(vars(backend.device))
        for _ in range(50):
            compiled.run(**inputs)
        assert state_size(vars(backend.device)) == size
        assert backend.last_session.totals.inferences == 51 * n
        assert 0 < backend.device.mean_progressive_fraction <= 1.0
