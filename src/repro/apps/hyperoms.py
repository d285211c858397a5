"""HyperOMS written in HDC++ (Table 2 of the paper).

HyperOMS performs *open modification search* for mass spectrometry: every
query spectrum is matched against a spectral library, tolerating an unknown
mass modification.  The HDC formulation encodes each spectrum with
**level-ID encoding**: every peak binds an *ID hypervector* (identifying the
m/z bin) with a *level hypervector* (quantized intensity), and the bound
pairs are bundled into a single spectrum hypervector.  Search is a nearest-
neighbour lookup among the encoded library spectra.

The outer loop over spectra is not an HDC primitive — it is generic data
parallelism, which the paper highlights as the reason HDC++ interoperates
with Hetero-C++: here it is expressed with :func:`repro.hdcpp.parallel_map`
(which lowers to an internal dataflow node with one dynamic instance per
spectrum), while the search stage uses ``inference_loop``; both are read
off the one search statement (:meth:`HyperOMS.search`) the served program
is derived from.  Level-ID encoding is not a coarse-grain operation of the
HDC accelerators, so the
paper evaluates HyperOMS on the CPU and GPU only (its baseline: GPU only); an
accelerator runs just the search, on its Hamming unit, and matches the CPU.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro import hdcpp as H
from repro.apps.common import AppResult, Search, bipolar_random, cold_path, search_servable
from repro.backends import compile as hdc_compile
from repro.kernels import batched
from repro.datasets.spectra import SpectralDataset
from repro.serving.servable import HOST_TARGETS, Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["HyperOMS", "make_level_hypervectors"]


def make_level_hypervectors(n_levels: int, dimension: int, seed: int) -> np.ndarray:
    """Level (intensity) hypervectors with correlated neighbouring levels.

    Level i+1 is level i with a fixed slice of elements re-randomized, so
    nearby intensity levels stay similar — the standard level-encoding item
    memory used by HyperOMS.
    """
    rng = np.random.default_rng(seed)
    levels = np.empty((n_levels, dimension), dtype=np.float32)
    levels[0] = (rng.integers(0, 2, size=dimension) * 2 - 1).astype(np.float32)
    flip_per_level = max(1, dimension // (2 * max(1, n_levels - 1)))
    for level in range(1, n_levels):
        levels[level] = levels[level - 1]
        positions = rng.choice(dimension, size=flip_per_level, replace=False)
        levels[level, positions] = -levels[level, positions]
    return levels


@lru_cache(maxsize=4)
def _item_memory(seed: int, n_bins: int, dimension: int, n_levels: int) -> tuple:
    """ID hypervectors, level hypervectors and their pre-bound ``int8`` item
    memory (row ``bin * n_levels + level`` is ``id_bin ⊙ level_level``):
    built once per configuration, shared read-only by every program,
    servable and rebuild of it."""
    id_hvs = bipolar_random(n_bins, dimension, seed=seed)
    level_hvs = make_level_hypervectors(n_levels, dimension, seed=seed + 1)
    bound = batched.bind(np.int8(id_hvs)[:, None], np.int8(level_hvs)).reshape(-1, dimension)
    for array in (id_hvs, level_hvs, bound):
        array.setflags(write=False)
    return id_hvs, level_hvs, bound


@dataclass
class HyperOMS:
    """Open modification spectral library search with HDC."""

    targets = HOST_TARGETS  #: where Table 2 maps it, and where it may be served
    dimension: int = 4096
    n_levels: int = 16
    seed: int = 11

    # --------------------------------------------------------------- encoding impl --
    def _make_encoder(self, id_hvs: np.ndarray, level_hvs: np.ndarray):
        """Level-ID encoding of one binned spectrum (per-row reference).

        The implementation is a host callable (closure over the ID / level
        item memories) executed once per spectrum by ``parallel_map``.  It
        is the reference the bit-identity gate checks the declared batched
        route (:meth:`_make_batched_encoder`) against on the boundary rows
        of every batch.
        """
        n_levels = self.n_levels

        def encode_spectrum(binned):
            dense = np.asarray(binned, dtype=np.float32)
            if dense.ndim != 1:
                raise ValueError("encode_spectrum is the per-spectrum reference; one row at a time")
            levels = np.clip((dense * (n_levels - 1)).round().astype(np.int64), 0, n_levels - 1)
            # Bind each active peak's ID hypervector with its level
            # hypervector and bundle over peaks:  sum_b  active_b * (id_b ⊙ level_b).
            active = np.nonzero(dense > 0)[0]
            if active.size == 0:
                return np.zeros(id_hvs.shape[1], dtype=np.float32)
            bound = id_hvs[active] * level_hvs[levels[active]]
            return bound.sum(axis=0)

        return encode_spectrum

    def _make_batched_encoder(self, bound: np.ndarray):
        """Level-ID encode a whole spectrum matrix as one gather-and-bundle.

        Each spectrum's active ``(bin, level)`` pairs are compacted into a
        padded index over the pre-bound item memory and one ``gather_bundle``
        sums the rows it selects: work proportional to the active peaks, not
        to ``bins * levels``.  The memory is bipolar (±1), so the integer
        sums are bit-identical to the per-spectrum reference in any order,
        which lets the execution gate accept this route for every batch.
        """
        n_levels = self.n_levels

        def encode_spectra(binned):
            dense = np.atleast_2d(np.asarray(binned, dtype=np.float32))
            levels = np.clip((dense * (n_levels - 1)).round().astype(np.int64), 0, n_levels - 1)
            active = dense > 0
            counts = active.sum(axis=1)
            rows, bins = np.nonzero(active)
            # Row-major nonzero order: a peak's slot is its rank within its row.
            slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
            index = np.full((dense.shape[0], int(counts.max(initial=0))), -1, dtype=np.intp)
            index[rows, slot] = bins * n_levels + levels[rows, bins]
            encoded = batched.gather_bundle(bound, index)
            return encoded[0] if np.ndim(binned) == 1 else encoded

        return encode_spectra

    def _encoders(self, n_bins: int):
        """Per-spectrum reference and batched route over the one shared memory."""
        id_hvs, level_hvs, bound = _item_memory(self.seed, n_bins, self.dimension, self.n_levels)
        return self._make_encoder(id_hvs, level_hvs), self._make_batched_encoder(bound)

    # ------------------------------------------------------------------ program --
    def search(self, n_bins: int) -> Search:
        """HyperOMS's search, stated once: a binned spectrum, level-ID
        encoded, against the encoded ``library`` under Hamming distance."""
        return Search(("query_spectra", (n_bins,)), "library", self._encoders(n_bins))

    def build_program(self, n_queries: int, n_library: int, n_bins: int) -> H.Program:
        dim, search = self.dimension, self.search(n_bins)
        encode_spectrum, encode_spectra = search.encode
        prog = H.Program("hyperoms")
        search_fn = search.define(prog, H.hv(dim), H.hm(n_library, dim))

        @prog.entry(H.hm(n_queries, n_bins), H.hm(n_library, n_bins))
        def main(query_spectra, library_spectra):
            library_encodings = H.parallel_map(
                encode_spectrum, library_spectra, output_dim=dim, batch_impl=encode_spectra
            )
            query_encodings = H.parallel_map(
                encode_spectrum, query_spectra, output_dim=dim, batch_impl=encode_spectra
            )
            return H.inference_loop(search_fn, query_encodings, library_encodings)

        return prog

    # ------------------------------------------------------------------ driver --
    def run(
        self,
        dataset: SpectralDataset,
        target: str = "gpu",
        config: Optional[ApproximationConfig] = None,
    ) -> AppResult:
        """Encode the library and the queries, then search (recall@1)."""
        queries = dataset.query_matrix
        library = dataset.library_matrix
        program = self.build_program(queries.shape[0], library.shape[0], queries.shape[1])
        compiled = hdc_compile(program, target=target, config=config)

        start = time.perf_counter()
        result = compiled.run(query_spectra=queries, library_spectra=library)
        wall = time.perf_counter() - start

        matches = np.asarray(result.output, dtype=np.int64)
        recall = float((matches == dataset.query_truth).mean())
        return AppResult(
            app="hyperoms",
            target=target,
            quality=recall,
            quality_metric="recall@1",
            wall_seconds=wall,
            report=result.report,
            outputs={"matches": matches},
            **cold_path(compiled),
        )

    # ------------------------------------------------------------------ serving --
    def encode_library(self, library_matrix: np.ndarray, n_bins: Optional[int] = None) -> np.ndarray:
        """Level-ID encode a spectral library offline (the serving constant)."""
        library_matrix = np.atleast_2d(np.asarray(library_matrix, dtype=np.float32))
        _, encode_spectra = self._encoders(library_matrix.shape[1] if n_bins is None else n_bins)
        return encode_spectra(library_matrix)

    def as_servable(
        self, library_encodings: np.ndarray, n_bins: int, name: str = "hyperoms"
    ) -> Servable:
        """Serve open modification search against a pre-encoded library.

        A request is one binned query spectrum ``(n_bins,)``.  Offline,
        :meth:`encode_library` bundles the whole spectral library once; the
        served program only level-ID encodes each query batch and searches
        it against the resident library encodings — re-encoding the library
        per request stream is exactly the redundant work serving exists to
        elide.  An appended row is a raw reference spectrum ``(n_bins,)``,
        encoded by the closure :meth:`encode_library` uses, so growth equals
        re-encoding the full library.
        """
        search = self.search(n_bins)
        return search_servable(
            name,
            search,
            library_encodings,
            targets=self.targets,
            grow=((n_bins,), search.encode[1]),
            signature_extra=f"dim={self.dimension},levels={self.n_levels},seed={self.seed}",
        )
