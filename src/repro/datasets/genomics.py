"""Synthetic genomics dataset for HD-Hashtable (long-read sequence search).

HD-Hashtable (adapted from BioHD) searches a reference genome for the
origin of long, error-prone reads by hashing k-mers into hyperdimensional
buckets.  The paper uses a long-read assembly dataset; offline we generate:

* a random reference genome over the ACGT alphabet, partitioned into
  fixed-size *buckets* (contiguous regions);
* query reads sampled from random positions of the reference with
  substitution errors at a configurable rate (emulating long-read noise),
  each carrying its ground-truth bucket;
* decoy reads not present in the reference (to exercise rejection).

Utilities for k-mer extraction are shared by the HDC application and the
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GenomicsConfig", "GenomicsDataset", "make_genomics_dataset", "kmer_tokens"]

_ALPHABET = np.array(list("ACGT"))
#: ASCII byte -> base index (A=0, C=1, G=2, T=3); -1 for every other byte.
_BASE_INDEX = np.full(256, -1, dtype=np.int64)
_BASE_INDEX[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4)


@dataclass(frozen=True)
class GenomicsConfig:
    """Configuration of the synthetic genomics generator."""

    genome_length: int = 20000
    bucket_size: int = 1000
    read_length: int = 300
    n_reads: int = 120
    n_decoys: int = 20
    error_rate: float = 0.05
    kmer_length: int = 12
    seed: int = 99


@dataclass
class GenomicsDataset:
    """A reference genome plus query reads with known origin buckets."""

    genome: str
    reads: list[str]
    read_buckets: np.ndarray
    decoys: list[str]
    config: GenomicsConfig

    @property
    def n_buckets(self) -> int:
        return (len(self.genome) + self.config.bucket_size - 1) // self.config.bucket_size

    def bucket_sequence(self, bucket: int) -> str:
        """The reference subsequence covered by one bucket."""
        start = bucket * self.config.bucket_size
        return self.genome[start : start + self.config.bucket_size]

    def __repr__(self) -> str:
        return (
            f"GenomicsDataset(genome={len(self.genome)}bp, buckets={self.n_buckets}, "
            f"reads={len(self.reads)}, decoys={len(self.decoys)})"
        )


def kmer_tokens(sequence: str, k: int) -> list[str]:
    """All overlapping k-mers of a sequence."""
    if k <= 0:
        raise ValueError("k-mer length must be positive")
    if len(sequence) < k:
        return []
    return [sequence[i : i + k] for i in range(len(sequence) - k + 1)]


def base_indices(sequence: str) -> np.ndarray:
    """Map a DNA string to integer base indices (A=0, C=1, G=2, T=3).

    One lookup of the string's UTF-8 bytes: a character other than ``ACGT``
    (a non-ASCII one is bytes >= 128) maps to -1 and raises ``KeyError``.
    """
    indices = _BASE_INDEX[np.frombuffer(sequence.encode(), dtype=np.uint8)]
    if np.any(indices < 0):
        raise KeyError(next(base for base in sequence if base not in "ACGT"))
    return indices


def _mutate(read: str, error_rate: float, rng: np.random.Generator) -> str:
    bases = np.array(list(read))
    errors = rng.random(bases.shape[0]) < error_rate
    if errors.any():
        bases[errors] = rng.choice(_ALPHABET, size=int(errors.sum()))
    return "".join(bases)


def make_genomics_dataset(config: GenomicsConfig | None = None) -> GenomicsDataset:
    """Generate a synthetic reference genome and noisy query reads."""
    config = config or GenomicsConfig()
    rng = np.random.default_rng(config.seed)

    genome = "".join(rng.choice(_ALPHABET, size=config.genome_length))

    reads: list[str] = []
    buckets: list[int] = []
    max_start = config.genome_length - config.read_length
    for _ in range(config.n_reads):
        start = int(rng.integers(0, max_start))
        read = genome[start : start + config.read_length]
        reads.append(_mutate(read, config.error_rate, rng))
        # Ground truth is the bucket containing the middle of the read.
        buckets.append((start + config.read_length // 2) // config.bucket_size)

    decoys = [
        "".join(rng.choice(_ALPHABET, size=config.read_length)) for _ in range(config.n_decoys)
    ]
    return GenomicsDataset(genome, reads, np.asarray(buckets, dtype=np.int64), decoys, config)
