"""Tests for the accelerator device simulators and the Jetson latency model."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.accelerators import (
    AcceleratorConfig,
    DigitalASICParameters,
    DigitalHDCASIC,
    JetsonOrinModel,
    JetsonParameters,
    ReRAMAccelerator,
    ReRAMParameters,
)
from repro.accelerators.interface import DeviceError
from repro.apps import HDClassification, HDClustering
from repro.apps.common import bipolar_random
from repro.datasets import IsoletConfig, make_isolet_like
from repro.kernels.reference import sign


def make_config(dim=256, features=32, classes=4):
    return AcceleratorConfig(dimension=dim, features=features, classes=classes)


@pytest.fixture(params=[DigitalHDCASIC, ReRAMAccelerator])
def device(request):
    return request.param()


class TestFunctionalInterface:
    def test_operations_require_initialization(self, device):
        with pytest.raises(DeviceError):
            device.allocate_base_mem(np.ones((4, 4)))
        with pytest.raises(DeviceError):
            device.execute_inference()

    def test_execution_requires_staged_data(self, device):
        device.initialize_device(make_config())
        with pytest.raises(DeviceError):
            device.execute_encode()
        device.allocate_base_mem(np.ones((256, 32), dtype=np.float32))
        with pytest.raises(DeviceError):
            device.execute_encode()

    def test_class_memory_shape_checked(self, device):
        device.initialize_device(make_config(classes=4))
        with pytest.raises(DeviceError):
            device.allocate_class_mem(np.zeros((5, 256)))

    def test_feature_shape_checked(self, device):
        device.initialize_device(make_config(features=32))
        with pytest.raises(DeviceError):
            device.allocate_feature_mem(np.zeros(33))

    def test_encode_produces_bipolar_hypervector(self, device):
        rng = np.random.default_rng(0)
        device.initialize_device(make_config())
        device.allocate_base_mem((rng.integers(0, 2, (256, 32)) * 2 - 1).astype(np.float32))
        device.allocate_feature_mem(rng.normal(size=32).astype(np.float32))
        encoded = device.execute_encode()
        assert encoded.shape == (256,)
        assert set(np.unique(encoded)) <= {-1, 1}
        assert device.counters.encodes == 1
        assert device.counters.device_seconds > 0

    def test_counters_accumulate_and_reset(self, device):
        rng = np.random.default_rng(1)
        device.initialize_device(make_config())
        device.allocate_base_mem((rng.integers(0, 2, (256, 32)) * 2 - 1).astype(np.float32))
        device.allocate_class_mem(np.zeros((4, 256), dtype=np.float32))
        for label in range(4):
            device.allocate_feature_mem(rng.normal(size=32).astype(np.float32))
            device.execute_retrain(label)
        assert device.counters.train_iterations == 4
        first_total = device.counters.device_seconds
        assert first_total > 0
        device.initialize_device(make_config())
        assert device.counters.device_seconds == 0

    def test_training_then_inference_recovers_labels(self, device):
        rng = np.random.default_rng(2)
        config = make_config(dim=512, features=24, classes=3)
        prototypes = rng.normal(size=(3, 24))
        device.initialize_device(config)
        device.allocate_base_mem((rng.integers(0, 2, (512, 24)) * 2 - 1).astype(np.float32))
        device.allocate_class_mem(np.zeros((3, 512), dtype=np.float32))
        for _ in range(40):
            label = int(rng.integers(0, 3))
            sample = prototypes[label] + 0.2 * rng.normal(size=24)
            device.allocate_feature_mem(sample.astype(np.float32))
            device.execute_retrain(label)
        correct = 0
        for _ in range(20):
            label = int(rng.integers(0, 3))
            sample = prototypes[label] + 0.2 * rng.normal(size=24)
            device.allocate_feature_mem(sample.astype(np.float32))
            correct += int(device.execute_inference() == label)
        assert correct >= 16
        classes = device.read_class_mem()
        assert classes.shape == (3, 512)
        assert device.counters.bytes_from_device > 0

    def test_transfer_accounting_uses_host_link(self, device):
        device.initialize_device(make_config())
        base = np.ones((256, 32), dtype=np.float32)
        device.allocate_base_mem(base)
        assert device.counters.bytes_to_device > 0
        assert device.counters.transfer_seconds > 0


class TestDigitalASIC:
    def test_cyclic_projection_is_deterministic(self):
        rng = np.random.default_rng(3)
        base = (rng.integers(0, 2, (128, 16)) * 2 - 1).astype(np.float32)
        features = rng.normal(size=16).astype(np.float32)
        outputs = []
        for _ in range(2):
            device = DigitalHDCASIC()
            device.initialize_device(make_config(dim=128, features=16))
            device.allocate_base_mem(base)
            device.allocate_feature_mem(features)
            outputs.append(device.execute_encode())
        assert np.array_equal(outputs[0], outputs[1])

    def test_timing_scales_with_dimension(self):
        small, large = DigitalHDCASIC(), DigitalHDCASIC()
        small.initialize_device(make_config(dim=256))
        large.initialize_device(make_config(dim=4096))
        assert large._encode_time() > small._encode_time()
        assert large._hamming_time() > small._hamming_time()

    def test_power_derived_from_tops_per_watt(self):
        params = DigitalASICParameters()
        assert params.watts > 0
        assert DigitalHDCASIC(params).device_power_watts == pytest.approx(params.watts)


class TestReRAM:
    def test_progressive_hamming_early_termination(self):
        rng = np.random.default_rng(4)
        device = ReRAMAccelerator(ReRAMParameters(hamming_chunk=64))
        config = make_config(dim=1024, features=32, classes=3)
        device.initialize_device(config)
        device.allocate_base_mem(np.ones((1024, 32), dtype=np.float32))
        # Classes that differ maximally so the ranking settles early.
        classes = np.ones((3, 1024), dtype=np.float32)
        classes[1] = -1.0
        classes[2, ::2] = -1.0
        device.allocate_class_mem(classes)
        device._encoded_mem = np.ones(1024, dtype=np.int8)
        device.allocate_encoded_mem(np.ones(1024, dtype=np.int8))
        label = device.execute_inference_encoded()
        assert label == 0
        assert device.mean_progressive_fraction < 1.0

    @pytest.mark.parametrize("chunk", [1024, 2048, 3072, 4096, 8192])
    def test_full_visit_costs_one_burst_per_macro_row_whatever_the_chunk(self, chunk):
        """How early termination is switched off must not change what the
        exhaustive search costs: a burst reads at most one macro row."""
        params = ReRAMParameters(hamming_chunk=chunk)
        device = ReRAMAccelerator(params)
        device.initialize_device(make_config(dim=4096, features=64, classes=16))
        bursts = -(-4096 // params.macro_cols) * 16
        assert device._hamming_time(1.0) == pytest.approx(
            bursts * params.row_activation_cycles / params.clock_hz
        )

    def test_early_termination_never_costs_more_than_the_full_visit(self):
        """``benchmarks/bench_ablation_reram.py``'s workload: the progressive
        unit at crossbar-wide chunks against one hypervector-wide chunk."""
        rng = np.random.default_rng(1)
        features, dim, n_classes, n = 64, 4096, 16, 60
        base = (rng.integers(0, 2, (dim, features)) * 2 - 1).astype(np.float32)
        prototypes = rng.normal(size=(n_classes, features))
        labels = rng.integers(0, n_classes, n)
        queries = (prototypes[labels] + 0.3 * rng.normal(size=(n, features))).astype(np.float32)
        config = make_config(dim=dim, features=features, classes=n_classes)

        def staged(params=None, classes=None):
            device = ReRAMAccelerator(params)
            device.initialize_device(config)
            device.allocate_base_mem(base)
            device.allocate_class_mem(
                np.zeros((n_classes, dim), dtype=np.float32) if classes is None else classes
            )
            return device

        trainer = staged()
        for query, label in zip(queries, labels):
            trainer.allocate_feature_mem(query)
            trainer.execute_retrain(int(label))
        classes = trainer.read_class_mem()
        progressive = staged(classes=classes)
        exhaustive = staged(ReRAMParameters(hamming_chunk=dim), classes)
        for device in (progressive, exhaustive):
            for query in queries:
                device.allocate_feature_mem(query)
                device.execute_inference()
        assert exhaustive.mean_progressive_fraction == pytest.approx(1.0)
        assert progressive.mean_progressive_fraction < 1.0
        assert progressive.counters.device_seconds < exhaustive.counters.device_seconds

    def test_tensorized_encoding_factors_cover_dimensions(self):
        d1, d2, f1, f2 = ReRAMAccelerator._factor_dims(2048, 617)
        assert d1 * d2 >= 2048
        assert f1 * f2 >= 617

    def test_one_shot_training_bundles_samples(self):
        rng = np.random.default_rng(5)
        device = ReRAMAccelerator()
        device.initialize_device(make_config(dim=256, features=16, classes=2))
        device.allocate_base_mem(np.ones((256, 16), dtype=np.float32))
        device.allocate_class_mem(np.zeros((2, 256), dtype=np.float32))
        sample = rng.normal(size=16).astype(np.float32)
        device.allocate_feature_mem(sample)
        device.execute_retrain(1)
        classes = device.read_class_mem()
        assert np.any(classes[1] != 0)
        assert np.all(classes[0] == 0)


def block_case(kind, dim, features, classes, rows, warm, seed, chunk=1024):
    """Staged inputs for one device: a bipolar base, a class memory (zero,
    or warm: small integers), training rows near per-class prototypes with
    labels that repeat, query rows, and encoded queries."""
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(classes, features))
    labels = rng.integers(0, classes, rows)
    return {
        "device": (
            (lambda: ReRAMAccelerator(ReRAMParameters(hamming_chunk=chunk)))
            if kind == "reram" else DigitalHDCASIC
        ),
        "config": make_config(dim=dim, features=features, classes=classes),
        "base": (rng.integers(0, 2, (dim, features)) * 2 - 1).astype(np.float32),
        "classes": (
            rng.integers(-3, 4, (classes, dim)) if warm else np.zeros((classes, dim))
        ).astype(np.float32),
        "train": (prototypes[labels] + 0.5 * rng.normal(size=(rows, features))).astype(np.float32),
        "labels": labels,
        "queries": (prototypes[rng.integers(0, classes, rows)] + 0.5 * rng.normal(size=(rows, features))),
        "encoded": sign(rng.normal(size=(rows, dim))),
    }


def drive(case, blocked):
    """Two training epochs, an encode, an inference and an encoded
    inference, each staging its own rows, as the accelerator back end's
    stages do — as one block call each (both epochs one
    ``execute_retrain(labels, 2)``, which re-stages the rows for the
    second), or as one-row calls.  Returns the device, then the encodings
    and both inferences' labels."""
    device = case["device"]()
    device.initialize_device(case["config"])
    device.allocate_base_mem(case["base"])
    device.allocate_class_mem(case["classes"])
    epoch = (device.allocate_feature_mem, case["train"], device.execute_retrain, case["labels"])
    if blocked:
        both = (device.allocate_feature_mem, case["train"], lambda y: device.execute_retrain(y, 2), case["labels"])
        steps = [both]
    else:
        steps = [epoch, epoch]
    steps += [
        (device.allocate_feature_mem, case["queries"], device.execute_encode, None),
        (device.allocate_feature_mem, case["queries"], device.execute_inference, None),
        (device.allocate_encoded_mem, case["encoded"], device.execute_inference_encoded, None),
    ]
    outputs = []
    for stage, block, execute, labels in steps:
        if blocked:
            stage(block)
            outputs.append(execute() if labels is None else execute(labels))
            continue
        results = []
        for i, row in enumerate(block):
            stage(row)
            results.append(execute() if labels is None else execute(labels[i]))
        outputs.append(np.array(results))
    return (device, *outputs[-3:])


def textbook_training(case):
    """The class memory two epochs of the device's training rule leave, run
    as the rule reads, one row at a time with the whole memory re-signed
    per step: the ASIC's retraining (bundle into the label, subtract from a
    mispredicted class), the ReRAM's one-shot bundling."""
    device = case["device"]()
    device.initialize_device(case["config"])
    device.allocate_base_mem(case["base"])
    device.allocate_feature_mem(case["train"])
    encodings = device.execute_encode()
    classes = case["classes"].copy()
    for _ in range(2):
        for encoded, label in zip(encodings, case["labels"]):
            if isinstance(device, DigitalHDCASIC):
                predicted = np.argmin(np.count_nonzero(sign(classes) != encoded, axis=1))
                if predicted != label:
                    classes[predicted] -= encoded
            classes[label] += encoded
    return classes


class TestBlockEqualsRows:
    """A staged block is its rows: one block call leaves the device where
    its rows' one-row calls (Listing 6's per-sample loop) leave it."""

    @given(
        kind=st.sampled_from(["asic", "reram"]),
        dim=st.sampled_from([64, 200, 512]),
        features=st.integers(2, 40),
        classes=st.integers(1, 6),
        rows=st.integers(1, 20),
        warm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([64, 128, 1024]),
    )
    # Zero class memory: the ASIC first predicts class 0 (the first of 26
    # equal distances), so every other label mispredicts.
    @example(kind="asic", dim=512, features=617, classes=26, rows=60, warm=False, seed=3, chunk=1024)
    @example(kind="reram", dim=512, features=24, classes=1, rows=9, warm=True, seed=4, chunk=128)
    @example(kind="asic", dim=64, features=8, classes=1, rows=9, warm=False, seed=5, chunk=1024)
    @example(kind="reram", dim=512, features=24, classes=5, rows=20, warm=False, seed=6, chunk=128)
    @settings(max_examples=40, deadline=None)
    def test_one_block_call_equals_its_rows(self, **params):
        case = block_case(**params)
        blocked, *got = drive(case, blocked=True)
        rows, *want = drive(case, blocked=False)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.array_equal(blocked.read_class_mem(), rows.read_class_mem())
        a, b = blocked.counters, rows.counters
        for name in ("encodes", "inferences", "train_iterations", "bytes_to_device", "bytes_from_device"):
            assert getattr(a, name) == getattr(b, name), name
        # Seconds and energy are folded row after row, so they are exact;
        # a block is one transfer where its rows were N.
        assert a.device_seconds == b.device_seconds
        assert a.energy_joules == b.energy_joules
        assert a.transfer_seconds == pytest.approx(b.transfer_seconds, rel=1e-12)
        if params["kind"] == "reram":
            assert blocked.mean_progressive_fraction == rows.mean_progressive_fraction
        assert np.array_equal(blocked.read_class_mem(), textbook_training(case))

    def test_rows_of_one_block_stop_at_their_own_chunk(self):
        """The progressive unit stops each row of a block where its one-row
        search stops, and those places differ within the block."""
        case = block_case("reram", dim=512, features=24, classes=5, rows=20, warm=False, seed=6, chunk=128)
        device, encodings, *_ = drive(case, blocked=True)
        encoded = encodings.astype(np.float32)  # queries near the trained classes
        distances, visited = device._progressive_hamming(encoded)
        per_row = [device._progressive_hamming(row[None, :]) for row in encoded]
        assert np.array_equal(distances, np.concatenate([d for d, _ in per_row]))
        assert np.array_equal(visited, np.concatenate([v for _, v in per_row]))
        assert len(np.unique(visited)) > 1

    def test_asic_block_training_corrects_mispredictions(self):
        """The first example above mispredicts, so its class memory is not
        the plain bundle of its encodings: the corrections reach it."""
        case = block_case("asic", dim=512, features=617, classes=26, rows=60, warm=False, seed=3)
        device, *_ = drive(case, blocked=True)
        device.allocate_feature_mem(case["train"])
        encodings = device.execute_encode().astype(np.float32)
        bundle = np.zeros((26, 512), dtype=np.float32)
        np.add.at(bundle, case["labels"], 2 * encodings)  # two epochs
        assert len(set(case["labels"].tolist())) < len(case["labels"])  # labels repeat
        assert not np.array_equal(device.read_class_mem(), bundle)

    @pytest.mark.parametrize("kind", ["asic", "reram"])
    def test_training_epochs_encode_their_rows_once(self, kind):
        case = block_case(kind, dim=64, features=8, classes=3, rows=5, warm=True, seed=2)
        device = case["device"]()
        device.initialize_device(case["config"])
        device.allocate_base_mem(case["base"])
        device.allocate_class_mem(case["classes"])
        device.allocate_feature_mem(case["train"])
        with mock.patch.object(device, "_encode", wraps=device._encode) as encode:
            device.execute_retrain(case["labels"], 3)
        assert encode.call_count == 1 and device.counters.train_iterations == 15

    @pytest.mark.parametrize("kind", ["asic", "reram"])
    def test_ties_go_to_the_first_class(self, kind):
        case = block_case(kind, dim=128, features=8, classes=3, rows=4, warm=False, seed=1)
        device = case["device"]()
        device.initialize_device(case["config"])
        classes = np.ones((3, 128), dtype=np.float32)
        classes[0, :64] = -1.0  # rows 1 and 2 are the same hypervector
        device.allocate_class_mem(classes)
        device.allocate_encoded_mem(np.ones((4, 128)))
        assert device.execute_inference_encoded().tolist() == [1, 1, 1, 1]


def parent_asic_encode(device, rows):
    """The ASIC's encode as it ran one row at a time: the cyclic projection
    built by a fancy index, then ``sign`` of a float32 GEMV per row."""
    config = device.config
    base = sign(device._base_mem)[: config.features].astype(np.float32)
    shifts = np.arange(config.dimension) % config.features
    projection = base[(np.arange(config.features)[None, :] + shifts[:, None]) % config.features]
    return np.stack([sign(projection @ np.asarray(row, dtype=np.float32)) for row in rows])


class TestASICBlockEncode:
    @pytest.mark.parametrize("seed", [7, 1947, 20251001])
    def test_certified_block_encode_equals_the_per_row_gemv(self, seed):
        """The retarget sweep's ISOLET shapes (150 + 150 rows, 617
        features, D = 512), against both applications' projections."""
        isolet = make_isolet_like(IsoletConfig(n_train=150, n_test=150, seed=seed))
        rows = np.concatenate([isolet.train_features, isolet.test_features])
        for app in (HDClassification(dimension=512), HDClustering(dimension=512)):
            device = DigitalHDCASIC()
            device.initialize_device(make_config(dim=512, features=isolet.n_features, classes=26))
            device.allocate_base_mem(bipolar_random(512, isolet.n_features, seed=app.seed))
            device.allocate_feature_mem(rows)
            assert np.array_equal(device.execute_encode(), parent_asic_encode(device, rows))

    def test_block_inference_builds_no_rows_by_classes_by_dimension_temporary(self):
        """64 encoded rows against a 2048 x 2048 class memory: the Hamming
        unit is one GEMM, so the peak stays near the class memory's own
        size (an N x K x D int8 compare would be 256 MB)."""
        rng = np.random.default_rng(0)
        device = DigitalHDCASIC()
        device.initialize_device(make_config(dim=2048, features=16, classes=2048))
        classes = rng.integers(-4, 5, (2048, 2048)).astype(np.float32)
        device.allocate_class_mem(classes)
        encoded = sign(rng.normal(size=(64, 2048)))
        tracemalloc.start()
        try:
            device.allocate_encoded_mem(encoded)
            labels = device.execute_inference_encoded()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (64,)
        assert peak < 3 * classes.nbytes


class TestJetsonModel:
    def test_times_positive_and_monotonic_in_dimension(self):
        model = JetsonOrinModel()
        assert model.encode_time(2048, 617) > 0
        assert model.encode_time(4096, 617) > model.encode_time(1024, 617)
        assert model.similarity_time(4096, 26) > model.similarity_time(1024, 26)

    def test_stage_times_scale_with_samples_and_epochs(self):
        """An accelerator run's device rows are priced by what they did: the
        training stage linearly in rows x epochs, the inference stage in
        rows, each at the config it ran under."""
        model = JetsonOrinModel()
        training = {}
        for n_train, epochs in ((10, 1), (30, 1), (30, 3)):
            data = make_isolet_like(IsoletConfig(n_train=n_train, n_test=20, seed=5))
            app = HDClassification(dimension=256, epochs=epochs)
            profile = app.run(data, target="hdc_asic").report.notes["stage_profile"]
            train, infer = ([r for r in profile if r["device"][k]] for k in ("train_iterations", "inferences"))
            training[n_train, epochs] = model.profile_time(train)
            per_query = model.inference_time(256, data.n_features, data.n_classes)
            assert model.profile_time(infer) == pytest.approx(20 * per_query)
        single = training[10, 1] / 10
        assert single == pytest.approx(model.train_iteration_time(256, data.n_features, data.n_classes))
        assert training[30, 1] == pytest.approx(30 * single)
        assert training[30, 3] == pytest.approx(90 * single)

    def test_launch_overhead_dominates_tiny_kernels(self):
        params = JetsonParameters(kernel_launch_seconds=1e-3)
        model = JetsonOrinModel(params)
        assert model.update_time(16) >= 1e-3

    def test_inference_time_is_encode_plus_similarity(self):
        model = JetsonOrinModel()
        expected = model.encode_time(2048, 617) + model.similarity_time(2048, 26)
        assert model.inference_time(2048, 617, 26) == pytest.approx(expected)
