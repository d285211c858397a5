"""Ablation benchmark for the ReRAM accelerator's progressive Hamming unit.

The ReRAM device computes Hamming distances chunk by chunk and terminates
early once the ranking can no longer change (Section 2.2).  This benchmark
measures how much of the hypervector the unit actually visits and the
device-only latency saved relative to disabling early termination (by using
a chunk as large as the hypervector).  The progressive device keeps the
default crossbar-wide chunk: one activation burst reads one macro row, so a
narrower chunk would waste part of every burst.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators import AcceleratorConfig, ReRAMAccelerator, ReRAMParameters


def _run_inferences(device: ReRAMAccelerator, queries, base, classes) -> float:
    config = AcceleratorConfig(dimension=classes.shape[1], features=base.shape[1], classes=classes.shape[0])
    device.initialize_device(config)
    device.allocate_base_mem(base)
    device.allocate_class_mem(classes)
    for query in queries:
        device.allocate_feature_mem(query)
        device.execute_inference()
    return device.counters.device_seconds


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(1)
    features, dim, classes_n, n = 64, 4096, 16, 60
    base = (rng.integers(0, 2, (dim, features)) * 2 - 1).astype(np.float32)
    prototypes = rng.normal(size=(classes_n, features))
    labels = rng.integers(0, classes_n, n)
    queries = (prototypes[labels] + 0.3 * rng.normal(size=(n, features))).astype(np.float32)
    # Train class hypervectors through the device's own one-shot training.
    trainer = ReRAMAccelerator()
    trainer.initialize_device(AcceleratorConfig(dimension=dim, features=features, classes=classes_n))
    trainer.allocate_base_mem(base)
    trainer.allocate_class_mem(np.zeros((classes_n, dim), dtype=np.float32))
    for query, label in zip(queries, labels):
        trainer.allocate_feature_mem(query)
        trainer.execute_retrain(int(label))
    classes = trainer.read_class_mem()
    return queries, base, classes


def test_progressive_hamming_enabled(benchmark, workload, capsys):
    queries, base, classes = workload
    device = ReRAMAccelerator()
    seconds = benchmark.pedantic(
        lambda: _run_inferences(device, queries, base, classes), rounds=1, iterations=1
    )
    with capsys.disabled():
        print(
            f"\nprogressive Hamming: visited fraction {device.mean_progressive_fraction:.2f}, "
            f"device-only {seconds * 1e3:.3f} ms"
        )
    benchmark.extra_info["visited_fraction"] = device.mean_progressive_fraction
    assert device.mean_progressive_fraction <= 1.0


def test_progressive_hamming_disabled(benchmark, workload):
    queries, base, classes = workload
    # A chunk covering the whole hypervector disables early termination.
    device = ReRAMAccelerator(ReRAMParameters(hamming_chunk=4096))
    benchmark.pedantic(lambda: _run_inferences(device, queries, base, classes), rounds=1, iterations=1)
    assert device.mean_progressive_fraction == pytest.approx(1.0)


def test_early_termination_saves_device_time(workload, capsys):
    queries, base, classes = workload
    progressive = ReRAMAccelerator()
    exhaustive = ReRAMAccelerator(ReRAMParameters(hamming_chunk=4096))
    t_progressive = _run_inferences(progressive, queries, base, classes)
    t_exhaustive = _run_inferences(exhaustive, queries, base, classes)
    with capsys.disabled():
        print(
            f"\nearly termination saves {(1 - t_progressive / t_exhaustive) * 100:.1f}% of the "
            f"modeled Hamming-unit time"
        )
    assert t_progressive <= t_exhaustive
