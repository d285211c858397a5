"""Synthetic mass-spectrometry spectral library for HyperOMS.

HyperOMS performs *open modification search* (OMS): every query spectrum is
compared against a library of reference spectra, tolerating a mass
modification that shifts part of the peaks.  The paper uses the combined
Yeast / human spectral libraries with iPRG2012 queries; offline we generate
a synthetic library with the same structure:

* each library spectrum has a precursor mass and a sparse set of peaks
  (m/z positions with intensities);
* each query is derived from a library spectrum by keeping most of its
  peaks, dropping some, adding noise peaks, and optionally applying a mass
  modification that shifts a suffix of the peaks — queries therefore have a
  known ground-truth library match, which is what the evaluation scores.

Spectra are represented both as peak lists and as dense binned intensity
vectors (the representation the HDC encodings consume).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SpectraConfig", "SpectralDataset", "make_spectral_library"]


@dataclass(frozen=True)
class SpectraConfig:
    """Configuration of the synthetic spectral-library generator."""

    n_library: int = 400
    n_queries: int = 200
    n_bins: int = 1200
    peaks_per_spectrum: int = 60
    min_mz: float = 100.0
    max_mz: float = 1500.0
    #: Fraction of library peaks kept in a derived query spectrum.
    keep_fraction: float = 0.8
    #: Number of random noise peaks added to each query.
    noise_peaks: int = 6
    #: Fraction of queries carrying an open modification (mass shift).
    modified_fraction: float = 0.4
    #: Maximum modification magnitude in m/z bins.
    max_modification_bins: int = 25
    seed: int = 7


@dataclass
class Spectrum:
    """One spectrum: sparse peaks plus its dense binned representation."""

    precursor_mass: float
    bins: np.ndarray
    intensities: np.ndarray
    binned: np.ndarray
    library_match: int = -1
    modification_bins: int = 0


@dataclass
class SpectralDataset:
    """A spectral library plus query spectra with known ground truth."""

    library: list[Spectrum]
    queries: list[Spectrum]
    config: SpectraConfig

    @property
    def library_matrix(self) -> np.ndarray:
        """Dense binned intensity matrix of the library (n_library x n_bins)."""
        return np.stack([s.binned for s in self.library])

    @property
    def query_matrix(self) -> np.ndarray:
        """Dense binned intensity matrix of the queries (n_queries x n_bins)."""
        return np.stack([s.binned for s in self.queries])

    @property
    def query_truth(self) -> np.ndarray:
        """Index of the true library match for every query."""
        return np.asarray([q.library_match for q in self.queries], dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"SpectralDataset(library={len(self.library)}, queries={len(self.queries)}, "
            f"bins={self.config.n_bins})"
        )


def _binned(bins: np.ndarray, intensities: np.ndarray, n_bins: int) -> np.ndarray:
    dense = np.zeros(n_bins, dtype=np.float32)
    np.maximum.at(dense, bins, intensities.astype(np.float32))
    return dense


def make_spectral_library(config: SpectraConfig | None = None) -> SpectralDataset:
    """Generate a synthetic spectral library and matching query spectra."""
    config = config or SpectraConfig()
    rng = np.random.default_rng(config.seed)

    library: list[Spectrum] = []
    for _ in range(config.n_library):
        bins = np.sort(rng.choice(config.n_bins, size=config.peaks_per_spectrum, replace=False))
        intensities = rng.gamma(shape=2.0, scale=1.0, size=config.peaks_per_spectrum)
        intensities = intensities / intensities.max()
        precursor = rng.uniform(config.min_mz, config.max_mz)
        library.append(
            Spectrum(precursor, bins, intensities, _binned(bins, intensities, config.n_bins))
        )

    queries: list[Spectrum] = []
    for _ in range(config.n_queries):
        match = int(rng.integers(0, config.n_library))
        source = library[match]
        keep_mask = rng.random(source.bins.shape[0]) < config.keep_fraction
        bins = source.bins[keep_mask].copy()
        intensities = source.intensities[keep_mask] * rng.uniform(0.8, 1.2, size=keep_mask.sum())

        modification = 0
        if rng.random() < config.modified_fraction and bins.size > 4:
            modification = int(rng.integers(1, config.max_modification_bins + 1))
            if rng.random() < 0.5:
                modification = -modification
            # An open modification shifts the peaks after a random cut point.
            cut = int(rng.integers(1, bins.size - 1))
            bins = bins.copy()
            bins[cut:] = np.clip(bins[cut:] + modification, 0, config.n_bins - 1)

        noise_bins = rng.choice(config.n_bins, size=config.noise_peaks, replace=False)
        noise_intensity = rng.uniform(0.05, 0.3, size=config.noise_peaks)
        all_bins = np.concatenate([bins, noise_bins])
        all_intensities = np.concatenate([intensities, noise_intensity])

        queries.append(
            Spectrum(
                source.precursor_mass + modification * 0.5,
                all_bins,
                all_intensities,
                _binned(all_bins, all_intensities, config.n_bins),
                library_match=match,
                modification_bins=modification,
            )
        )

    return SpectralDataset(library, queries, config)
