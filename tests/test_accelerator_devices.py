"""Tests for the accelerator device simulators and the Jetson latency model."""

import numpy as np
import pytest

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


class TestJetsonModel:
    def test_times_positive_and_monotonic_in_dimension(self):
        model = JetsonOrinModel()
        assert model.encode_time(2048, 617) > 0
        assert model.encode_time(4096, 617) > model.encode_time(1024, 617)
        assert model.similarity_time(4096, 26) > model.similarity_time(1024, 26)

    def test_stage_times_scale_with_samples_and_epochs(self):
        model = JetsonOrinModel()
        single = model.training_stage_time(1, 1, 2048, 617, 26)
        assert model.training_stage_time(100, 1, 2048, 617, 26) == pytest.approx(100 * single)
        assert model.training_stage_time(100, 3, 2048, 617, 26) == pytest.approx(300 * single)

    def test_launch_overhead_dominates_tiny_kernels(self):
        params = JetsonParameters(kernel_launch_seconds=1e-3)
        model = JetsonOrinModel(params)
        assert model.update_time(16) >= 1e-3

    def test_inference_time_is_encode_plus_similarity(self):
        model = JetsonOrinModel()
        expected = model.encode_time(2048, 617) + model.similarity_time(2048, 26)
        assert model.inference_time(2048, 617, 26) == pytest.approx(expected)
