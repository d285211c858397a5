"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from repro import hdcpp as H
from repro.apps import (
    HDClassification,
    HDClassificationInference,
    HDClustering,
    HDHashtable,
    HyperOMS,
    RelHD,
)
from repro.apps.common import bipolar_random
from repro.backends import CPUBackend, compile as hdc_compile
from repro.datasets import (
    CoraConfig,
    GenomicsConfig,
    IsoletConfig,
    SpectraConfig,
    make_cora_like,
    make_genomics_dataset,
    make_isolet_like,
    make_spectral_library,
)

# One tier-1 verdict on every machine: hypothesis draws the same examples
# on every run (derandomize) and neither reads nor writes the gitignored
# local example database, so a failure a past run happened to store cannot
# make a checkout red (or a fresh runner green by luck).  A property that
# finds a real counter-example gets it pinned.  Every ``@given`` test states
# its own ``max_examples``; the two budgets here are the state machine's
# (tests/test_serving_machine.py).  CI runs that file again under the longer
# profile: ``pytest tests/test_serving_machine.py --hypothesis-profile=serving-long``.
settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=10, stateful_step_count=30
)
settings.register_profile(
    "serving-long", settings.get_profile("tier1"), max_examples=150, stateful_step_count=40
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_isolet():
    """A very small ISOLET-like dataset (fast, still 26 classes)."""
    return make_isolet_like(IsoletConfig(n_train=200, n_test=80, seed=5))


@pytest.fixture(scope="session")
def tiny_spectra():
    return make_spectral_library(SpectraConfig(n_library=50, n_queries=25, seed=5))


@pytest.fixture(scope="session")
def tiny_cora():
    return make_cora_like(CoraConfig(n_nodes=150, seed=5))


@pytest.fixture(scope="session")
def tiny_genomics():
    return make_genomics_dataset(GenomicsConfig(genome_length=4000, n_reads=25, seed=5))


@pytest.fixture()
def inference_program():
    """A small HD-Classification-style inference program (traced)."""
    features, dim, classes = 32, 256, 6
    prog = H.Program("test_inference")

    @prog.define(H.hv(features), H.hm(classes, dim), H.hm(dim, features))
    def infer_one(query, class_hvs, rp_matrix):
        encoded = H.sign(H.matmul(query, rp_matrix))
        distances = H.hamming_distance(encoded, H.sign(class_hvs))
        return H.arg_min(distances)

    @prog.entry(H.hm(40, features), H.hm(classes, dim), H.hm(dim, features))
    def main(queries, class_hvs, rp_matrix):
        return H.inference_loop(infer_one, queries, class_hvs, encoder=rp_matrix)

    return prog


@pytest.fixture()
def inference_inputs(rng):
    """Concrete inputs matching :func:`inference_program`."""
    features, dim, classes, queries = 32, 256, 6, 40
    prototypes = rng.normal(size=(classes, features))
    labels = rng.integers(0, classes, size=queries)
    data = prototypes[labels] + 0.3 * rng.normal(size=(queries, features))
    rp = (rng.integers(0, 2, size=(dim, features)) * 2 - 1).astype(np.float32)
    encoded_protos = np.sign(prototypes @ rp.T).astype(np.float32)
    return {
        "queries": data.astype(np.float32),
        "class_hvs": encoded_protos,
        "rp_matrix": rp,
        "labels": labels,
    }


# ------------------------------------------------------------------ stock servables --
def per_row_reference(servable, queries: np.ndarray, config=None) -> np.ndarray:
    """The served program, under an optional approximation ``config``, on
    the per-row CPU route: no batched kernels, no gate."""
    program = servable.build_program(queries.shape[0])
    compiled = CPUBackend(batched=False).compile(program, config)
    return np.asarray(compiled.run(**{servable.query_param: queries}, **servable.constants).output)


@pytest.fixture(scope="session")
def per_row():
    """:func:`per_row_reference`, for test modules."""
    return per_row_reference


@pytest.fixture(scope="session")
def stock():
    """:func:`stock_servables`, for a test that serves several cases at once."""
    return stock_servables()


@functools.lru_cache(maxsize=None)
def stock_servables() -> dict:
    """One small instance of every ``as_servable`` adapter — both
    classification conventions x both similarities — keyed for test ids.

    Each case carries the servable, a query batch, its similarity, update
    labels where the adapter is trainable, and ``one_shot(target)``: the
    labels of the app's inference-only one-shot program compiled for that
    target on the same inputs.  RelHD and ``HDClassification`` have none
    (their one-shot programs train), so theirs is the per-row CPU route —
    and, on the accelerators, where the stage ignores the implementation
    function, the inference-only classification program.
    """
    rng = np.random.default_rng(17)
    dim, rows, n, feats = 128, 7, 16, 24
    rp = bipolar_random(dim, feats, seed=1)
    classes = rng.integers(-4, 5, size=(rows, dim)).astype(np.float32)  # accumulators, zeros included
    x = rng.standard_normal((n, feats)).astype(np.float32)
    y = rng.integers(0, rows, size=n)
    cases = {}

    def add(key, servable, queries, one_shot, similarity="hamming", labels=None):
        cases[key] = SimpleNamespace(
            key=key, servable=servable, queries=queries, one_shot=one_shot,
            similarity=similarity, labels=labels,
        )

    def run(program, target, **inputs):
        return hdc_compile(program, target=target).run(**inputs).output

    for similarity in ("hamming", "cosine"):
        inference = HDClassificationInference(dimension=dim, similarity=similarity)

        def infer(target, app=inference):
            program = app.build_program(feats, rows, n)
            return np.asarray(run(program, target, test_queries=x, classes=classes, rp_matrix=rp))

        add(f"inference-{similarity}", inference.as_servable(trained=(rp, classes)), x, infer, similarity, y)
        trained = HDClassification(dimension=dim, similarity=similarity).as_servable(rp, classes)

        def classify(target, servable=trained, infer=infer):
            return infer(target) if target.startswith("hdc_") else per_row_reference(servable, x)

        add(f"classification-{similarity}", trained, x, classify, similarity, y)

    clustering = HDClustering(dimension=dim, n_clusters=rows)
    clusters = np.sign(rng.standard_normal((rows, dim))).astype(np.float32)

    def assign(target):
        encoded = run(clustering.build_encode_program(n, feats), target, samples=x, rp_matrix=rp)
        encoded = np.asarray(encoded, dtype=np.float32)
        program = clustering.build_assign_program(n)
        return np.asarray(run(program, target, encoded_samples=encoded, clusters=clusters))

    add("clustering", clustering.as_servable(rp, clusters), x, assign)

    # Aggregated neighbour encodings routinely hold exact zeros, where
    # ``np.sign`` (0) and ``H.sign`` (+1) disagree.
    nodes = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    relhd = RelHD(dimension=dim).as_servable(classes)
    add("relhd", relhd, nodes, lambda target: per_row_reference(relhd, nodes), labels=y)

    oms = HyperOMS(dimension=dim, n_levels=8)
    spectra = rng.random((rows + n, 24), dtype=np.float32) * (rng.random((rows + n, 24)) < 0.3)
    library, peaks = spectra[:rows], spectra[rows:]

    def search(target):
        program = oms.build_program(n, rows, 24)
        return np.asarray(run(program, target, query_spectra=peaks, library_spectra=library))

    add("hyperoms", oms.as_servable(oms.encode_library(library), n_bins=24), peaks, search)

    hashtable = HDHashtable(dimension=dim)
    base_hvs = hashtable.make_base_hypervectors()
    sequences = rng.integers(0, 4, size=(rows + n, 40))
    table = np.sign(hashtable._make_batched_read_encoder(base_hvs, 6)(sequences[:rows]))
    reads = sequences[rows:]

    def lookup(target):
        program = hashtable.build_program(n, 40, rows, 6, base_hvs)
        return np.asarray(run(program, target, reads=reads, bucket_table=table))

    servable = hashtable.as_servable(table, read_length=40, kmer_length=6, base_hvs=base_hvs)
    add("hashtable", servable, reads, lookup)
    return cases


def pytest_generate_tests(metafunc):
    """``stock_case``: every stock servable; ``stock_cell``: every (stock
    servable, target it is offered on) pair."""
    if "stock_case" in metafunc.fixturenames:
        cases = stock_servables()
        metafunc.parametrize("stock_case", list(cases.values()), ids=list(cases))
    if "stock_cell" in metafunc.fixturenames:
        cases = stock_servables().values()
        cells = [(case, t) for case in cases for t in case.servable.supported_targets]
        metafunc.parametrize("stock_cell", cells, ids=[f"{case.key}-{t}" for case, t in cells])
