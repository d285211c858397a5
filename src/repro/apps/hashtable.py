"""HD-Hashtable written in HDC++ (Table 2 of the paper).

HD-Hashtable (a hash-table-optimized variant of BioHD) searches a reference
genome for the origin of long, error-prone reads.  The HDC formulation:

* **K-mer based encoding** — each k-mer binds per-base hypervectors shifted
  by their position in the k-mer (``wrap_shift``), and a sequence is the
  bundle of its k-mer encodings.
* **HD hashing** — the reference genome is partitioned into buckets; each
  bucket's value in the hash table is the bundled encoding of every k-mer
  it contains.
* **Search / inference** — a read is encoded the same way and compared
  against the bucket hypervectors; the closest bucket identifies where the
  read came from.

The per-read encoding runs as a :func:`repro.hdcpp.parallel_map` (generic
data parallelism over reads), the search uses ``inference_loop`` — both read
off the one search statement (:meth:`HDHashtable.search`) the served program
is derived from — and the reference-side table construction is host-side
setup.  The ``parallel_map`` pairs two encoders: the per-read reference
binds ``int8`` base hypervectors offset by offset, and the batch route —
which the reference table and appended buckets use too — works on the
packed bits (:mod:`repro.kernels.binary`): a k-mer is the XOR of a few
rows of packed sub-tables that each hold a group of offsets pre-bound for
every base combination.  Both are exact, so the gate accepts the batch
route on every batch.  Like HyperOMS, it is evaluated on the CPU and GPU
only (an accelerator runs just its search); its baseline is a single
Python/CuPy-style program used for both CPU and GPU (Table 4 of the paper).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import hdcpp as H
from repro.apps.common import AppResult, Search, bipolar_random, cold_path, search_servable
from repro.backends import compile as hdc_compile
from repro.kernels import batched, binary
from repro.datasets.genomics import GenomicsDataset, base_indices
from repro.serving.servable import HOST_TARGETS, Servable
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["HDHashtable"]

#: K-mer offsets per packed sub-table of the batch route: ``4**3`` rows.
KMER_GROUP = 3


@dataclass
class HDHashtable:
    """Genome sequence search with HD hashing."""

    targets = HOST_TARGETS  #: where Table 2 maps it, and where it may be served
    dimension: int = 4096
    seed: int = 23

    # ------------------------------------------------------------- k-mer encoding --
    @staticmethod
    def _rotated_bases(base_hvs: np.ndarray, kmer_length: int) -> np.ndarray:
        """The 4 base hypervectors pre-rotated for every offset inside a
        k-mer, ``(kmer_length, 4, D)``, as ``int8`` — exact for ±1 only."""
        if not np.all(np.abs(base_hvs) == 1):
            raise ValueError("k-mer encoding needs bipolar (+1 / -1) base hypervectors")
        rotated = [batched.permute(base_hvs, offset) for offset in range(kmer_length)]
        return np.stack(rotated).astype(np.int8)

    @staticmethod
    def _make_read_encoder(rotated: np.ndarray):
        """Encode one read (as base indices) into a hypervector.

        Each k-mer *binds* (element-wise multiplies) its bases' hypervectors
        rotated by their offset inside the k-mer (``rotated``, from
        :meth:`_rotated_bases`) — the GenieHD / BioHD encoding — and the
        sequence encoding is the bundle (sum) of all of its k-mer
        hypervectors.  This is the **per-read reference**: the bit-identity
        gate of the batched execution plane checks the declared batched
        route (:meth:`_make_batched_read_encoder`) against it on the
        boundary rows of every batch.  The binds run in one ``int8``
        accumulator and the bundle sums integers: exact.
        """
        kmer_length, _, dimension = rotated.shape

        def encode_read(read_bases) -> np.ndarray:
            bases = np.asarray(read_bases, dtype=np.int64)
            if bases.ndim != 1:
                raise ValueError("encode_read is the per-read reference; one read at a time")
            positions = bases.shape[0] - kmer_length + 1
            if positions <= 0:
                return np.zeros(dimension, dtype=np.float32)
            kmers = rotated[0][bases[:positions]]
            for offset in range(1, kmer_length):
                batched.bind(kmers, rotated[offset][bases[offset : offset + positions]], out=kmers)
            return batched.bundle_windows(kmers)

        return encode_read

    @staticmethod
    def _kmer_tables(rotated: np.ndarray) -> list:
        """The packed k-mer sub-tables of the batch route.

        The ``kmer_length`` offsets of ``rotated`` split into groups of
        :data:`KMER_GROUP` (the last one shorter when the group does not
        divide ``kmer_length``); each group gets one packed ``(4**g,
        words)`` table (:func:`~repro.kernels.binary.pack_bipolar`).  Row
        ``id`` is the product of the group's rotated base hypervectors for
        the base digits of ``id``, the group's first offset the most
        significant base-4 digit.
        """
        tables = []
        for begin in range(0, len(rotated), KMER_GROUP):
            product = np.ones((1, rotated.shape[-1]), dtype=np.int8)
            for bases in rotated[begin : begin + KMER_GROUP]:
                product = (product[:, None, :] * bases[None, :, :]).reshape(-1, rotated.shape[-1])
            tables.append(np.asarray(binary.pack_bipolar(product)))
        return tables

    #: Working-set budget of the batch route, in bytes of the unpacked
    #: ``(chunk, positions, D)`` k-mer bits it counts.  Reads are
    #: independent, so chunking changes nothing numerically — it bounds
    #: memory (a read of 289 k-mers is 2.4 MB at D = 8192) and keeps the
    #: bits cache-sized.  Measured fastest at 1-2 MB on batches of 20-400
    #: reads at D = 512-8192; one 60 MB chunk is ~3x slower.
    batched_encoder_bytes = 2_000_000

    def _make_batched_read_encoder(self, rotated: np.ndarray):
        """K-mer encode a whole matrix of reads in a few array operations.

        The same GenieHD / BioHD encoding on packed bits (+1 = bit 1): a
        k-mer is the product of its groups' sub-table rows
        (:meth:`_kmer_tables`), ``ceil(k / g)`` row gathers of ``ceil(D /
        64)`` words for a whole chunk of reads at once, shape ``(chunk,
        positions, words)``.  A product of two ±1 factors is the XNOR of
        their bits, so the rows are XORed and the result inverted when the
        number of groups is even.  The bundle is
        :func:`~repro.kernels.binary.bundle_windows_packed`: ``2 * ones -
        positions`` per dimension, the ones counted from ``np.unpackbits``
        with integer sums over the position axis.  Every value is an
        exact integer, so the batched result is bit-identical to the
        per-read reference, which is what lets the execution gate accept
        this route for every batch.
        """
        kmer_length, _, dimension = rotated.shape
        tables = self._kmer_tables(rotated)
        odd = len(tables) % 2 == 1

        def encode_chunk(bases: np.ndarray, positions: int) -> np.ndarray:
            words = None
            for begin, table in zip(range(0, kmer_length, KMER_GROUP), tables):
                # Each k-mer's row index: its group's bases as base-4 digits.
                index = bases[:, begin : begin + positions]
                for offset in range(begin + 1, min(begin + KMER_GROUP, kmer_length)):
                    index = index << 2 | bases[:, offset : offset + positions]
                rows = np.take(table, index, axis=0)
                words = rows if words is None else np.bitwise_xor(words, rows, out=words)
            if not odd:  # a product of an even number of groups is their XNOR
                np.invert(words, out=words)
            return binary.bundle_windows_packed(words, dimension)

        def encode_reads(reads) -> np.ndarray:
            bases = np.asarray(reads, dtype=np.int64)
            single = bases.ndim == 1
            bases = np.atleast_2d(bases)
            n_reads = bases.shape[0]
            positions = bases.shape[1] - kmer_length + 1
            if positions <= 0:
                out = np.zeros((n_reads, dimension), dtype=np.float32)
                return out[0] if single else out
            chunk = max(1, self.batched_encoder_bytes // (positions * dimension))
            out = np.empty((n_reads, dimension), dtype=np.float32)
            for begin in range(0, n_reads, chunk):
                out[begin : begin + chunk] = encode_chunk(bases[begin : begin + chunk], positions)
            return out[0] if single else out

        return encode_reads

    def make_base_hypervectors(self) -> np.ndarray:
        """The four per-nucleotide item-memory hypervectors."""
        return bipolar_random(4, self.dimension, seed=self.seed)

    def encode_reference_buckets(
        self, dataset: GenomicsDataset, base_hvs: np.ndarray, encode_reads=None
    ) -> np.ndarray:
        """Build the HD hash table: one bundled hypervector per genome bucket.

        ``encode_reads`` is a batch route already built for ``base_hvs``
        (:meth:`run` passes its :class:`Search`'s); without one, one is
        built.  Buckets of one length are encoded in one call.
        """
        if encode_reads is None:
            rotated = self._rotated_bases(base_hvs, dataset.config.kmer_length)
            encode_reads = self._make_batched_read_encoder(rotated)
        sequences = [base_indices(dataset.bucket_sequence(b)) for b in range(dataset.n_buckets)]
        buckets = np.zeros((len(sequences), self.dimension), dtype=np.float32)
        for length in {len(sequence) for sequence in sequences}:
            rows = [b for b, sequence in enumerate(sequences) if len(sequence) == length]
            buckets[rows] = encode_reads(np.stack([sequences[b] for b in rows]))
        return np.sign(buckets)

    # ------------------------------------------------------------------ program --
    def search(self, read_length: int, kmer_length: int, base_hvs: np.ndarray) -> Search:
        """HD-Hashtable's search, stated once: a read of base indices, k-mer
        encoded, against the bucket ``table`` under Hamming distance.  Its
        two encoders share one :meth:`_rotated_bases`."""
        rotated = self._rotated_bases(base_hvs, kmer_length)
        encoders = (self._make_read_encoder(rotated), self._make_batched_read_encoder(rotated))
        return Search(("reads", (read_length,), H.int64), "table", encoders)

    def build_program(self, n_reads: int, n_buckets: int, search: Search) -> H.Program:
        """The program of :meth:`run`: ``n_reads`` reads encoded and searched
        against ``n_buckets`` buckets, as ``search`` (:meth:`search`) states."""
        dim, (read_length,) = self.dimension, search.query[1]
        encode_read, encode_reads = search.encode
        prog = H.Program("hd_hashtable")
        search_fn = search.define(prog, H.hv(dim), H.hm(n_buckets, dim))

        @prog.entry(H.hm(n_reads, read_length, H.int64), H.hm(n_buckets, dim))
        def main(reads, bucket_table):
            read_encodings = H.parallel_map(
                encode_read, reads, output_dim=dim, batch_impl=encode_reads
            )
            return H.inference_loop(search_fn, read_encodings, bucket_table)

        return prog

    # ------------------------------------------------------------------ driver --
    def run(
        self,
        dataset: GenomicsDataset,
        target: str = "cpu",
        config: Optional[ApproximationConfig] = None,
    ) -> AppResult:
        """Build the reference table, encode the reads, and search.

        ``wall_seconds`` times what the Python baseline times: the
        reference table, the reads' base indices and the search.
        """
        base_hvs = self.make_base_hypervectors()
        search = self.search(len(dataset.reads[0]), dataset.config.kmer_length, base_hvs)
        program = self.build_program(len(dataset.reads), dataset.n_buckets, search)
        compiled = hdc_compile(program, target=target, config=config)

        start = time.perf_counter()
        bucket_table = self.encode_reference_buckets(dataset, base_hvs, search.encode[1])
        reads = np.stack([base_indices(read) for read in dataset.reads])
        result = compiled.run(reads=reads, bucket_table=bucket_table)
        wall = time.perf_counter() - start

        matches = np.asarray(result.output, dtype=np.int64)
        accuracy = float((matches == dataset.read_buckets).mean())
        return AppResult(
            app="hd-hashtable",
            target=target,
            quality=accuracy,
            quality_metric="bucket accuracy",
            wall_seconds=wall,
            report=result.report,
            outputs={"matches": matches},
            **cold_path(compiled),
        )

    # ------------------------------------------------------------------ serving --
    def as_servable(
        self,
        bucket_table: np.ndarray,
        read_length: int,
        kmer_length: int,
        base_hvs: Optional[np.ndarray] = None,
        name: str = "hd-hashtable",
        append_length: Optional[int] = None,
    ) -> Servable:
        """Serve genome-read bucket search against a prebuilt HD hash table.

        A request is one fixed-length read as base indices (see
        :func:`repro.datasets.genomics.base_indices`); the reference-side
        table (``encode_reference_buckets``) is the deployment's constant.

        An appended row is a new bucket sequence — base indices of length
        ``append_length`` (default ``read_length``) — k-mer encoded exactly
        as :meth:`encode_reference_buckets` does (same ``base_hvs``, same
        exact integer arithmetic, then sign), so serving the grown table
        is bit-identical to rebuilding it offline from the full sequence set.
        """
        base_hvs = self.make_base_hypervectors() if base_hvs is None else np.asarray(base_hvs)
        search = self.search(read_length, kmer_length, base_hvs)

        def encode_buckets(sequences: np.ndarray) -> np.ndarray:
            # Anything but 0..3 would index the base hypervectors from the
            # end, truncate or raise IndexError deep inside the swap round —
            # refuse it before a row is derived, logged or replayed.
            valid = np.issubdtype(sequences.dtype, np.number) and np.all(
                (sequences >= 0) & (sequences <= 3) & (sequences % 1 == 0)
            )
            if not valid:
                raise ValueError(
                    f"{name}: append rows must be integer base indices in 0..3 (A, C, G, T)"
                )
            return np.sign(search.encode[1](sequences))

        return search_servable(
            name,
            search,
            bucket_table,
            targets=self.targets,
            grow=((read_length if append_length is None else int(append_length),), encode_buckets),
            signature_extra=(
                f"dim={self.dimension},k={kmer_length},"
                f"base={hashlib.sha1(np.ascontiguousarray(base_hvs).tobytes()).hexdigest()}"
            ),
        )
