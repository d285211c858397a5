"""Microbenchmarks of the HDC primitive kernels used by the back ends.

Not a paper figure, but useful for understanding where the time of the
figure-level benchmarks goes: encoding GEMMs, similarity searches (float,
bipolar-GEMM and packed-bit variants), the element-wise primitives, the
item-memory draw (cold and from its table), and
the batched vs per-row application encoders of the batch-native execution
plane.  Every case's mean time lands in ``BENCH_primitives.json`` (see
the ``bench_json`` fixture in ``conftest.py``) so kernel-level
regressions are visible across PRs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import common
from repro.kernels import batched, binary as binkern, reference as ref

DIM = 8192
CLASSES = 26
QUERIES = 128
FEATURES = 617


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(2)
    return {
        "features": rng.normal(size=(QUERIES, FEATURES)).astype(np.float32),
        "rp": (rng.integers(0, 2, (DIM, FEATURES)) * 2 - 1).astype(np.float32),
        "encoded": (rng.integers(0, 2, (QUERIES, DIM)) * 2 - 1).astype(np.float32),
        "classes": (rng.integers(0, 2, (CLASSES, DIM)) * 2 - 1).astype(np.float32),
    }


def _record(bench_json, benchmark, case: str, **extra) -> None:
    """Fold one pytest-benchmark case into the JSON summary."""
    stats = benchmark.stats.stats
    bench_json.record(
        case,
        mean_seconds=stats.mean,
        min_seconds=stats.min,
        ops_per_second=(1.0 / stats.mean) if stats.mean else 0.0,
        **extra,
    )


def test_encode_gemm_batched(benchmark, bench_json, data):
    benchmark(lambda: batched.gemm(data["features"], data["rp"]))
    _record(bench_json, benchmark, "encode_gemm_batched", queries=QUERIES, dim=DIM)


def test_encode_matmul_per_sample(benchmark, bench_json, data):
    benchmark(lambda: ref.matmul(data["features"][0], data["rp"]))
    _record(bench_json, benchmark, "encode_matmul_per_sample", dim=DIM)


def test_cossim_batched(benchmark, bench_json, data):
    benchmark(lambda: batched.pairwise_cossim(data["encoded"], data["classes"]))
    _record(bench_json, benchmark, "cossim_batched", queries=QUERIES, classes=CLASSES)


def test_hamming_batched_bipolar(benchmark, bench_json, data):
    """The one Hamming routine on a ±1 block: one float32 GEMM."""
    benchmark(lambda: ref.hamming_distance(data["encoded"], data["classes"]))
    _record(bench_json, benchmark, "hamming_batched_bipolar", queries=QUERIES, classes=CLASSES)


def test_hamming_reference(benchmark, bench_json, data):
    benchmark(lambda: ref.hamming_distance(data["encoded"][:16], data["classes"]))
    _record(bench_json, benchmark, "hamming_reference", queries=16, classes=CLASSES)


def test_hamming_packed_bits(benchmark, bench_json, data):
    packed_q = binkern.pack_bipolar(data["encoded"])
    packed_c = binkern.pack_bipolar(data["classes"])
    benchmark(lambda: binkern.hamming_distance_packed(packed_q, packed_c))
    _record(
        bench_json,
        benchmark,
        "hamming_packed_bits",
        queries=QUERIES,
        classes=CLASSES,
        resident_bytes=int(packed_c.nbytes),
        unpacked_bytes=int(data["classes"].nbytes),
    )


def test_pack_bipolar(benchmark, bench_json, data):
    """Per-micro-batch query pack cost — the packed route's only per-call
    overhead once the class memory is resident packed."""
    packed = benchmark(lambda: binkern.pack_bipolar(data["encoded"]))
    _record(
        bench_json,
        benchmark,
        "pack_bipolar",
        queries=QUERIES,
        dim=DIM,
        resident_bytes=int(packed.nbytes),
        unpacked_bytes=int(data["encoded"].nbytes),
        shrink_ratio=data["encoded"].nbytes / packed.nbytes,
    )


def test_unpack_bipolar(benchmark, bench_json, data):
    packed = binkern.pack_bipolar(data["encoded"])
    restored = benchmark(lambda: binkern.unpack_bipolar(packed, DIM))
    assert np.array_equal(restored, (data["encoded"] > 0).astype(np.int8) * 2 - 1)
    _record(bench_json, benchmark, "unpack_bipolar", queries=QUERIES, dim=DIM)


def test_sign_kernel(benchmark, bench_json, data):
    raw = data["features"] @ data["rp"].T
    benchmark(lambda: ref.sign(raw))
    _record(bench_json, benchmark, "sign_kernel", queries=QUERIES, dim=DIM)


def test_wrap_shift(benchmark, bench_json, data):
    benchmark(lambda: ref.wrap_shift(data["encoded"], 3))
    _record(bench_json, benchmark, "wrap_shift", queries=QUERIES, dim=DIM)


def test_batched_permute(benchmark, bench_json, data):
    benchmark(lambda: batched.permute(data["encoded"], 3))
    _record(bench_json, benchmark, "batched_permute", queries=QUERIES, dim=DIM)


# ---------------------------------------------------------------------------
# Item memories: a draw vs a hit on bipolar_random's table of sign bits
# ---------------------------------------------------------------------------

PROJECTION = (512, FEATURES)


def test_bipolar_random_cold(benchmark, bench_json):
    benchmark.pedantic(
        lambda: common.bipolar_random(*PROJECTION, seed=4),
        setup=common._draws.clear, rounds=200, iterations=1,
    )
    _record(bench_json, benchmark, "bipolar_random_cold", shape=list(PROJECTION))


def test_bipolar_random_hit(benchmark, bench_json):
    common.bipolar_random(*PROJECTION, seed=4)
    benchmark(lambda: common.bipolar_random(*PROJECTION, seed=4))
    _record(bench_json, benchmark, "bipolar_random_hit", shape=list(PROJECTION))


# ---------------------------------------------------------------------------
# Application encoders: batched route vs per-row reference
# ---------------------------------------------------------------------------

HASHTABLE_READS = 64
READ_LENGTH = 60
KMER = 8


@pytest.fixture(scope="module")
def hashtable_encoders():
    from repro.apps.hashtable import HDHashtable

    app = HDHashtable(dimension=2048, seed=9)
    base_hvs = app.make_base_hypervectors()
    rng = np.random.default_rng(6)
    reads = rng.integers(0, 4, (HASHTABLE_READS, READ_LENGTH)).astype(np.int64)
    return (*app.search(READ_LENGTH, KMER, base_hvs).encode, reads)


def test_hashtable_encoder_per_read(benchmark, bench_json, hashtable_encoders):
    encode_read, _, reads = hashtable_encoders
    benchmark(lambda: np.stack([encode_read(read) for read in reads]))
    _record(bench_json, benchmark, "hashtable_encoder_per_read", reads=HASHTABLE_READS)


def test_hashtable_encoder_batched(benchmark, bench_json, hashtable_encoders):
    encode_read, encode_reads, reads = hashtable_encoders
    result = encode_reads(reads)
    # The batched route must stay bit-identical to the per-read reference.
    assert np.array_equal(result, np.stack([encode_read(read) for read in reads]))
    benchmark(lambda: encode_reads(reads))
    _record(bench_json, benchmark, "hashtable_encoder_batched", reads=HASHTABLE_READS)
