"""Property-based tests (hypothesis) for core invariants of the system."""

import functools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import test_batched_execution
import test_eager_library_route
from test_kernels_reference import count_nonzero_form
from repro import hdcpp as H
from repro.apps import HDClassification, HDClassificationInference, HDClustering, HDHashtable, HyperOMS, RelHD
from repro.backends import CPUBackend, compile as hdc_compile
from repro.ir.builder import clone_program, lower_program
from repro.ir.ops import PRIMITIVES, Opcode
from repro.ir.verifier import verify_graph, verify_program
from repro.kernels import binary as binkern
from repro.kernels import memo, reference as ref
from repro.serving.metrics import percentile as exact_percentile
from repro.serving.observability.histogram import DEFAULT_RELATIVE_ERROR, LatencyHistogram
from repro.transforms import ApproximationConfig, AutomaticBinarization, PerforationSpec


plant_near_zero = test_batched_execution.TestBitIdentityGate._plant_near_zero_projection


def bipolar(rows, dim, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(rows, dim)) * 2 - 1).astype(np.float32)


dims = st.integers(min_value=4, max_value=128)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestKernelProperties:
    @given(dims, seeds)
    @settings(max_examples=30, deadline=None)
    def test_sign_is_idempotent(self, dim, seed):
        x = np.random.default_rng(seed).normal(size=dim)
        once = ref.sign(x)
        assert np.array_equal(ref.sign(once), once)

    @given(dims, seeds, st.integers(-200, 200))
    @settings(max_examples=30, deadline=None)
    def test_wrap_shift_is_invertible(self, dim, seed, amount):
        x = np.random.default_rng(seed).normal(size=dim)
        assert np.allclose(ref.wrap_shift(ref.wrap_shift(x, amount), -amount), x)

    @given(dims, seeds)
    @settings(max_examples=30, deadline=None)
    def test_hamming_is_a_metric_on_bipolar_vectors(self, dim, seed):
        a, b, c = bipolar(3, dim, seed)
        dab = ref.hamming_distance(a, b)
        dba = ref.hamming_distance(b, a)
        dac = ref.hamming_distance(a, c)
        dbc = ref.hamming_distance(b, c)
        assert dab == dba
        assert ref.hamming_distance(a, a) == 0
        assert dac <= dab + dbc  # triangle inequality
        assert 0 <= dab <= dim

    @given(dims, seeds)
    @settings(max_examples=30, deadline=None)
    def test_cossim_is_bounded_and_symmetric(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=dim) + 0.01
        b = rng.normal(size=dim) + 0.01
        sab = ref.cossim(a, b)
        assert -1.0 - 1e-5 <= sab <= 1.0 + 1e-5
        assert sab == pytest.approx(ref.cossim(b, a), abs=1e-6)

    @given(dims, seeds, st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_perforated_hamming_is_bounded_by_exact(self, dim, seed, stride):
        a, b = bipolar(2, dim, seed)
        exact = ref.hamming_distance(a, b)
        perforated = ref.hamming_distance(a, b, 0, None, stride)
        assert perforated <= exact

    @given(dims, seeds)
    @settings(max_examples=30, deadline=None)
    def test_bundling_preserves_similarity_to_components(self, dim, seed):
        a, b, unrelated = bipolar(3, dim, seed)
        bundle = a + b
        assert float(bundle @ a) >= float(bundle @ unrelated) - dim * 0.5


#: Values that are not ±1, each in a dtype that holds it.
NOT_BIPOLAR = [(np.int8, -128), (np.int8, 0), (np.float32, 0.5), (np.float32, np.nan)]


@st.composite
def hamming_cases(draw):
    """(lhs, rhs, window): ±1 ``int8`` or ``float32`` operands of any rank
    pair, ``rhs``'s first row a copy of ``lhs``'s, a perforation window, and
    sometimes one value that is not ±1 planted in a visited column."""
    dim = draw(st.integers(1, 150))
    begin = draw(st.integers(0, dim - 1))
    end = draw(st.integers(begin + 1, dim))
    stride = draw(st.integers(1, 4))
    plant = draw(st.sampled_from([None, *NOT_BIPOLAR]))
    dtype = plant[0] if plant else draw(st.sampled_from([np.int8, np.float32]))
    rng = np.random.default_rng(draw(seeds))
    lhs = (rng.integers(0, 2, (draw(st.integers(1, 6)), dim)) * 2 - 1).astype(dtype)
    rhs = (rng.integers(0, 2, (draw(st.integers(1, 6)), dim)) * 2 - 1).astype(dtype)
    rhs[0] = lhs[0]
    if plant:
        target = draw(st.sampled_from([lhs, rhs]))
        target[draw(st.integers(0, len(target) - 1)), begin] = plant[1]
    lhs_rank, rhs_rank = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    return (lhs if lhs_rank == 2 else lhs[0]), (rhs if rhs_rank == 2 else rhs[0]), (begin, end, stride)


class TestHammingProperties:
    """The one Hamming routine: a ±1 block is counted by one float32 GEMM,
    anything else row by row, and either way the result is the count."""

    @given(hamming_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_route_is_the_per_row_count(self, case):
        lhs, rhs, window = case
        got, expected = ref.hamming_distance(lhs, rhs, *window), count_nonzero_form(lhs, rhs, *window)
        assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert not np.signbit(got).any()  # identical rows are +0.0, not -0.0


packed_dtypes = st.sampled_from([np.int8, np.int32, np.float32, np.float64])
packed_dims = st.integers(min_value=1, max_value=150)  # crosses the 64/128 word edges
packed_rows = st.integers(min_value=0, max_value=6)  # 0 = empty batch


@st.composite
def packed_cases(draw):
    """Two bipolar matrices with a shared dim plus a perforation slice."""
    dim = draw(packed_dims)
    rows_a, rows_b = draw(packed_rows), draw(packed_rows)
    dtype = draw(packed_dtypes)
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    a = (rng.integers(0, 2, size=(rows_a, dim)) * 2 - 1).astype(dtype)
    b = (rng.integers(0, 2, size=(rows_b, dim)) * 2 - 1).astype(dtype)
    begin = draw(st.integers(0, max(0, dim - 1)))
    end = draw(st.one_of(st.none(), st.integers(begin + 1, dim)))
    stride = draw(st.integers(1, 7))
    return a, b, (begin, end, stride)


class TestPackedKernelProperties:
    """The uint64 packed plane agrees bit-for-bit with the reference
    kernels across dtypes, odd dims, empty batches and perforation
    slices — the invariant the serving route's boundary gate relies on."""

    @given(packed_cases())
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_round_trips_exactly(self, case):
        a, _, (begin, end, stride) = case
        dim = a.shape[1]
        packed = binkern.pack_bipolar(a)
        restored = binkern.unpack_bipolar(packed, dim)
        assert np.array_equal(restored, np.where(a > 0, 1, -1).astype(np.int8))
        # Round-trip holds under a perforation slice too: slicing the
        # restored bipolar rows equals slicing the originals.
        sl = slice(begin, end, stride)
        assert np.array_equal(restored[:, sl], np.where(a[:, sl] > 0, 1, -1).astype(np.int8))

    @given(packed_cases())
    @settings(max_examples=60, deadline=None)
    def test_packed_hamming_equals_reference(self, case):
        a, b, (begin, end, stride) = case
        expected = np.asarray(ref.hamming_distance(a, b, begin, end, stride))
        out = np.asarray(binkern.hamming_distance_bipolar(a, b, begin, end, stride))
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    @given(packed_cases())
    @settings(max_examples=40, deadline=None)
    def test_packed_dot_and_cossim_equal_reference(self, case):
        a, b, _ = case
        expected_dot = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64).T
        assert np.allclose(binkern.dot_bipolar(a, b), expected_dot)
        if a.shape[0] and b.shape[0]:
            assert np.allclose(
                binkern.cossim_bipolar(a, b),
                np.asarray(ref.cossim(a, b), dtype=np.float32),
                atol=1e-5,
            )

    @given(packed_cases())
    @settings(max_examples=40, deadline=None)
    def test_prepacked_operands_equal_unpacked(self, case):
        a, b, (begin, end, stride) = case
        pa, pb = binkern.pack_bipolar(a), binkern.pack_bipolar(b)
        expected = np.asarray(binkern.hamming_distance_bipolar(a, b, begin, end, stride))
        assert np.array_equal(
            np.asarray(binkern.hamming_distance_bipolar(pa, pb, begin, end, stride)), expected
        )

    @given(packed_cases())
    @settings(max_examples=30, deadline=None)
    def test_int64_word_sum_equals_float32(self, case):
        a, b, (begin, end, stride) = case
        expected = np.asarray(binkern.hamming_distance_bipolar(a, b, begin, end, stride))
        original = binkern._F32_EXACT_BITS
        binkern._F32_EXACT_BITS = 0  # every row takes the int64 axis-sum
        try:
            out = np.asarray(binkern.hamming_distance_bipolar(a, b, begin, end, stride))
        finally:
            binkern._F32_EXACT_BITS = original
        assert out.dtype == expected.dtype and np.array_equal(out, expected)


class TestCompilerProperties:
    @staticmethod
    def _make_program(dim, classes):
        prog = H.Program("prop")

        @prog.entry(H.hv(16), H.hm(classes, dim), H.hm(dim, 16))
        def main(query, class_hvs, rp):
            encoded = H.sign(H.matmul(query, rp))
            distances = H.hamming_distance(encoded, H.sign(class_hvs))
            return H.arg_min(distances)

        return prog

    @given(st.integers(8, 64), st.integers(2, 8))
    @settings(max_examples=15, deadline=None)
    def test_lowered_graphs_always_verify(self, dim, classes):
        prog = self._make_program(dim, classes)
        graph = lower_program(prog)
        verify_graph(graph)

    @given(st.integers(8, 64), st.integers(2, 8))
    @settings(max_examples=15, deadline=None)
    def test_binarization_keeps_program_verified(self, dim, classes):
        prog = clone_program(self._make_program(dim, classes))
        AutomaticBinarization().run(prog)
        verify_program(prog)

    @given(st.integers(16, 64), st.integers(2, 6), seeds)
    @settings(max_examples=10, deadline=None)
    def test_cpu_gpu_equivalence(self, dim, classes, seed):
        prog = self._make_program(dim, classes)
        rng = np.random.default_rng(seed)
        inputs = {
            "query": rng.normal(size=16).astype(np.float32),
            "class_hvs": rng.normal(size=(classes, dim)).astype(np.float32),
            "rp": (rng.integers(0, 2, size=(dim, 16)) * 2 - 1).astype(np.float32),
        }
        cpu = hdc_compile(prog, target="cpu").run(**inputs)
        gpu = hdc_compile(prog, target="gpu").run(**inputs)
        assert int(np.asarray(cpu.output)) == int(np.asarray(gpu.output))

    @given(st.integers(2, 6), seeds)
    @settings(max_examples=10, deadline=None)
    def test_perforation_stride_one_is_exact(self, classes, seed):
        prog = self._make_program(64, classes)
        rng = np.random.default_rng(seed)
        inputs = {
            "query": rng.normal(size=16).astype(np.float32),
            "class_hvs": rng.normal(size=(classes, 64)).astype(np.float32),
            "rp": (rng.integers(0, 2, size=(64, 16)) * 2 - 1).astype(np.float32),
        }
        exact = hdc_compile(prog, target="cpu").run(**inputs)
        config = ApproximationConfig(
            perforations=(PerforationSpec("hamming_distance", begin=0, end=None, stride=1),)
        )
        identity_perf = hdc_compile(prog, target="cpu", config=config).run(**inputs)
        assert int(np.asarray(exact.output)) == int(np.asarray(identity_perf.output))


# The CPU stages of the five applications' programs, at D = 64 over 20
# features and 4 rows of memory, each ``n`` rows: ``(name, program, inputs)``.
_D, _F, _K = 64, 20, 4


def _app_programs(app: str, n: int, features: np.ndarray, rp: np.ndarray, rng) -> list:
    classes = rng.standard_normal((_K, _D)).astype(np.float32)
    labels = rng.integers(0, _K, n)
    encoded = ref.sign(ref.matmul(features, rp)).astype(np.float32)
    if app == "hd-classification":
        return [
            (similarity, HDClassification(dimension=_D, epochs=1, similarity=similarity).build_program(_F, _K, n, n),
             dict(train_queries=features, train_labels=labels, test_queries=features, rp_matrix=rp, classes=classes))
            for similarity in ("hamming", "cosine")
        ] + [
            (f"inference-{similarity}", HDClassificationInference(dimension=_D, similarity=similarity).build_program(_F, _K, n),
             dict(test_queries=features, classes=classes, rp_matrix=rp))
            for similarity in ("hamming", "cosine")
        ]
    if app == "hd-clustering":
        clustering = HDClustering(dimension=_D, n_clusters=_K)
        return [
            ("encode", clustering.build_encode_program(n, _F), dict(samples=features, rp_matrix=rp)),
            ("assign", clustering.build_assign_program(n), dict(encoded_samples=encoded, clusters=classes)),
        ]
    if app == "relhd":
        relhd = RelHD(dimension=_D)
        return [
            ("encode", relhd.build_encode_program(n, _F), dict(node_features=features, rp_matrix=rp)),
            ("classify", relhd.build_classify_program(n, n, _K),
             dict(train_encodings=encoded, train_labels=labels, test_encodings=encoded, classes=classes)),
        ]
    if app == "hyperoms":
        spectra = np.clip(rng.standard_normal((n, 16)), 0, None).astype(np.float32)
        return [("search", HyperOMS(dimension=_D, n_levels=4).build_program(n, n, 16),
                 dict(query_spectra=spectra, library_spectra=spectra[::-1].copy()))]
    hashtable = HDHashtable(dimension=_D)
    program = hashtable.build_program(n, _K, hashtable.search(12, 3, hashtable.make_base_hypervectors()))
    return [("search", program, dict(reads=rng.integers(0, 4, (n, 12)), bucket_table=classes))]


_CONFIGS = {
    "exact": ApproximationConfig(),
    "binarize": ApproximationConfig(binarize=True),
    "matmul[2:]": ApproximationConfig(perforations=(PerforationSpec("matmul", 2, None, 1),)),
    "hamming[1::2]": ApproximationConfig(perforations=(PerforationSpec("hamming_distance", 1, None, 2),)),
    "cossim[0:50:3]": ApproximationConfig(perforations=(PerforationSpec("cossim", 0, 50, 3),)),
}


#: The rows the primitive table marks ``exact`` (what a stage's proof reads).
EXACT_ROWS = sorted((op for op, row in PRIMITIVES.items() if row.exact), key=lambda op: op.value)


def _exact_data(kind: str, shape: tuple, rng) -> np.ndarray:
    """Bipolar (float32 or int8, as ``sign`` stores it), real, or real with
    zeros of both signs, NaNs and infinities."""
    if kind in ("bipolar", "int8"):
        values = rng.integers(0, 2, shape) * 2 - 1
        return values.astype(np.int8 if kind == "int8" else np.float32)
    values = (rng.standard_normal(shape) * 4).astype(np.float32)
    if kind == "special":
        flat, hit = values.reshape(-1), rng.random(values.size) < 0.2
        flat[hit] = rng.choice(np.array([0.0, -0.0, np.nan, np.inf, -np.inf], dtype=np.float32), int(hit.sum()))
    return values


@st.composite
def exact_row_cases(draw):
    """One marked row (or ``matmul``'s certified ``signed`` column, the
    proof's other leg), a block of 1-70 rows, its data, a shared operand
    (rows or one hypervector) and, on a reduction, a perforation window."""
    op = draw(st.sampled_from(EXACT_ROWS + [Opcode.MATMUL]))
    n, dim = draw(st.integers(1, 70)), draw(st.integers(1, 80))
    kinds = ["bipolar", "int8", "real"] if op is Opcode.MATMUL else ["bipolar", "int8", "real", "special"]
    kind = draw(st.sampled_from(kinds))
    window = {}
    if PRIMITIVES[op].is_reduce and draw(st.booleans()):
        begin = draw(st.integers(0, dim - 1))
        end = draw(st.one_of(st.none(), st.integers(begin + 1, dim)))
        window = dict(begin=begin, end=end, stride=draw(st.integers(1, 3)))
    shared_rows = draw(st.one_of(st.none(), st.integers(1, 9)))
    return op, n, dim, kind, window, shared_rows, draw(seeds)


class TestExactRowsProperties:
    """The primitive table's ``exact`` column as a property: for every marked
    row, on every column it has, row ``i`` of the kernel on a block is the
    kernel on row ``i`` alone, bit for bit and in dtype."""

    def test_the_marked_rows(self):
        assert set(EXACT_ROWS) == {Opcode.SIGN, Opcode.HAMMING_DISTANCE, Opcode.ARG_MIN, Opcode.ARG_MAX}

    @given(exact_row_cases())
    @settings(max_examples=80, deadline=None)
    @example((Opcode.HAMMING_DISTANCE, 70, 64, "bipolar", {"begin": 1, "end": None, "stride": 2}, 9, 0))
    @example((Opcode.MATMUL, 33, 20, "real", {}, 7, 1))
    def test_a_block_is_its_rows(self, case):
        op, n, dim, kind, window, shared_rows, seed = case
        rng = np.random.default_rng(seed)
        row = PRIMITIVES[op]
        block = _exact_data(kind, (n, dim), rng)
        if op is Opcode.MATMUL:
            # The certified ``sign ∘ matmul`` against a ±1 projection.
            shared = [_exact_data("bipolar", (shared_rows or 1, dim), rng)]
            kernels = {"signed": row.signed}
        else:
            shared = []
            if op is Opcode.HAMMING_DISTANCE:
                shape = (dim,) if shared_rows is None else (shared_rows, dim)
                shared = [_exact_data(kind, shape, rng)]
            kernels = {"kernel": row.kernel, "library": row.library or row.kernel}
            if row.packed is not None and kind in ("bipolar", "int8"):
                kernels["packed"] = row.packed
        for column, kernel in kernels.items():
            out = np.asarray(kernel(block, *shared, **window))
            assert out.shape[0] == n, column
            for i in range(n):
                one = np.asarray(kernel(block[i], *shared, **window))
                assert out[i].dtype == one.dtype, (column, i)
                assert out[i].tobytes() == one.tobytes(), (column, i)


class TestCpuBlockRouteProperties:
    """The CPU runs a row-map stage once over its block on the reference
    kernels, and that equals its per-row loop bit for bit: every stage it
    attempts reads no row-count-dependent kernel."""

    @given(
        st.sampled_from(["hd-classification", "hd-clustering", "relhd", "hyperoms", "hd-hashtable"]),
        st.one_of(st.just(1), st.just(2), st.integers(3, 9)),
        st.sampled_from(sorted(_CONFIGS)),
        st.sampled_from(["float", "near-zero", "integer"]),
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_block_route_equals_the_per_row_loop(self, app, n, config, rows, seed):
        """Row counts 1, 2 and n; exact, binarized and perforated; float
        rows, rows with a projection coordinate planted within float32
        rounding of zero (the certified sign's recompute), integer rows."""
        rng = np.random.default_rng(seed)
        rp = bipolar(_D, _F, seed % 1000)
        if rows == "integer":
            features = rng.integers(-3, 4, (n, _F)).astype(np.float32)
        else:
            features = (rng.standard_normal((n, _F)) * 4).astype(np.float32)
            if rows == "near-zero":
                plant_near_zero(features, rp, int(rng.integers(n)))
        for name, program, inputs in _app_programs(app, n, features, rp, rng):
            compiled = CPUBackend(batched=False).compile(program, _CONFIGS[config])
            block = compiled.run(**inputs)
            with test_eager_library_route.per_row_loop():
                per_row = compiled.run(**inputs)
            assert block.report.notes["stage_fallbacks"] == 0, name
            assert block.outputs.keys() == per_row.outputs.keys()
            for key, value in per_row.outputs.items():
                got = np.asarray(block.outputs[key])
                assert got.dtype == np.asarray(value).dtype, (name, key)
                assert got.tobytes() == np.asarray(value).tobytes(), (name, key)

    def test_a_cosine_classifier_keeps_its_stage_per_row(self, tiny_isolet):
        """``HDClassificationInference(similarity="cosine")`` reads its raw
        projection and its ``cossim``, both row-count dependent: the CPU
        keeps the stage per row, as its configured route (no fallback), and
        its profile entry says why."""
        app = HDClassificationInference(dimension=256, similarity="cosine")
        result = app.run(tiny_isolet, target="cpu")
        notes = result.report.notes
        assert notes["stage_fallbacks"] == 0 and notes["stage_vectorized"] == 0
        assert "stage_fallback_reasons" not in notes
        [entry] = notes["stage_profile"]
        assert entry["route"] == "per-row"
        assert entry["reason"] == "hdc.matmul, hdc.cossim reassociate with the row count"


def _minibatch_rule(memory, encoded, labels, similarity: str, bipolar: bool) -> np.ndarray:
    """The corrective rule's n-row path as ``Search.rule`` stated it in
    eager primitives before ``retrain`` was a table row: every prediction,
    then every bundle, then every correction."""
    if similarity == "cosine":
        predicted = H.arg_max(H.cossim(encoded, memory)).reshape(-1)
    else:
        predicted = H.arg_min(H.hamming_distance(encoded if bipolar else H.sign(encoded), H.sign(memory)))
        predicted = predicted.reshape(-1)
    signed = np.atleast_2d(encoded if bipolar else H.sign(encoded))
    labels, updated = np.asarray(labels).reshape(-1), np.asarray(memory).astype(np.float32)
    for label, row in zip(labels, signed):
        if label >= len(updated):
            raise ValueError(f"label {label} out of range for {len(updated)} rows")
        updated[label] += row
    for guess, label, row in zip(predicted, labels, signed):
        if guess != label:
            updated[guess] -= row
    return updated


@st.composite
def retrain_cases(draw):
    """A memory, ``n`` rows and labels for ``retrain``.  Small integer
    values give zero memory coordinates (``sign(0) = +1``) and tied
    scores; ``bipolar`` rows are ±1 (a signed encode), others raw, zeros
    included; ``bad`` puts one label just out of range."""
    similarity = draw(st.sampled_from(["hamming", "cosine"]))
    bipolar_rows = draw(st.booleans())
    classes, dim, n = draw(st.integers(1, 5)), draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(seeds))
    memory = rng.integers(-2, 3, (classes, dim)).astype(np.float32)
    if bipolar_rows:
        rows = (rng.integers(0, 2, (n, dim)) * 2 - 1).astype(np.float32)
    else:
        rows = rng.integers(-2, 3, (n, dim)).astype(np.float32)
    labels = rng.integers(0, classes, n)
    bad = draw(st.booleans()) and draw(st.integers(0, n - 1))
    if bad is not False:
        labels[bad] = classes + draw(st.integers(0, 2))
    return similarity, bipolar_rows, memory, rows, labels, bad is not False


class TestRetrainProperties:
    """``retrain``'s two columns: the ordered ``kernel`` is its one-row
    calls in turn (the CPU's per-row ``training_loop``), and the mini-batch
    ``library`` is the rule ``Search.rule`` ran on the GPU and in updates."""

    @given(retrain_cases())
    @settings(max_examples=150, deadline=None)
    def test_ordered_rows_are_one_row_calls_and_the_library_is_the_minibatch(self, case):
        similarity, bipolar_rows, memory, rows, labels, bad = case
        if bad:
            for column in ("kernel", "library"):
                with memo.Execution(column), pytest.raises(ValueError, match="out of range"):
                    H.retrain(memory, rows, labels, similarity=similarity)
            with pytest.raises(ValueError, match="out of range"):
                _minibatch_rule(memory, rows, labels, similarity, bipolar_rows)
            return
        ordered = np.asarray(H.retrain(memory, rows, labels, similarity=similarity))
        stepped, before = memory, memory
        for row, label in zip(rows, labels.tolist()):
            stepped = np.asarray(H.retrain(stepped, row, label, similarity=similarity))
            before = _minibatch_rule(before, row, label, similarity, bipolar_rows)
        assert ordered.dtype == np.float32
        assert ordered.tobytes() == stepped.tobytes() == before.tobytes()
        with memo.Execution("library"):
            library = np.asarray(H.retrain(memory, rows, labels, similarity=similarity))
            minibatch = _minibatch_rule(memory, rows, labels, similarity, bipolar_rows)
        assert library.tobytes() == minibatch.tobytes()
        # One row is one step on both columns.
        with memo.Execution("library"):
            one = np.asarray(H.retrain(memory, rows[0], int(labels[0]), similarity=similarity))
        assert one.tobytes() == np.asarray(H.retrain(memory, rows[:1], labels[:1], similarity=similarity)).tobytes()


@st.composite
def rule_cases(draw):
    """A traced training rule's operands: ``n`` rows, labels from few
    classes (so repeated), Hamming or cosine, and either a signed encode of
    raw features in the rule or encoded rows (raw integers, zeros included,
    or ±1)."""
    similarity, encode = draw(st.sampled_from(["hamming", "cosine"])), draw(st.booleans())
    classes, n = draw(st.integers(1, 4)), draw(st.one_of(st.just(1), st.integers(2, 12)))
    rng = np.random.default_rng(draw(seeds))
    memory = rng.integers(-2, 3, (classes, _D)).astype(np.float32)
    labels = rng.integers(0, classes, n)
    if encode:
        rows = (rng.standard_normal((n, _F)) * 4).astype(np.float32)
        return similarity, memory, rows, labels, bipolar(_D, _F, int(rng.integers(1000)))
    if draw(st.booleans()):
        return similarity, memory, rng.integers(-2, 3, (n, _D)).astype(np.float32), labels, None
    return similarity, memory, bipolar(n, _D, int(rng.integers(1000))), labels, None


class TestTracedRuleProperties:
    """A ``training_loop``'s traced rule the plan proves runs once per
    epoch over its block on the reference CPU, and that is its per-row
    loop, byte for byte."""

    @given(rule_cases())
    @settings(max_examples=60, deadline=None)
    def test_the_proven_block_is_the_per_row_loop(self, case):
        similarity, memory, rows, labels, rp = case
        n, encoded = rows.shape[0], rp is None
        prog = H.Program("rule")
        row_types = [H.hv(rows.shape[1]), H.IndexType(), H.hm(*memory.shape)]
        types = [H.hm(*rows.shape), H.IndexVectorType(n), H.hm(*memory.shape)]
        if encoded:
            rule = prog.define(*row_types, name="rule")(
                lambda rows, labels, memory: H.retrain(memory, rows, labels, similarity=similarity)
            )
            prog.entry(*types)(lambda rows, labels, memory: H.training_loop(rule, rows, labels, memory, 2))
            inputs = {}
        else:
            rule = prog.define(*row_types, H.hm(*rp.shape), name="rule")(
                lambda rows, labels, memory, rp: H.retrain(
                    memory, H.sign(H.matmul(rows, rp)), labels, similarity=similarity
                )
            )
            prog.entry(*types, H.hm(*rp.shape))(
                lambda rows, labels, memory, rp: H.training_loop(rule, rows, labels, memory, 2, rp)
            )
            inputs = {"rp": rp}
        compiled = CPUBackend().compile(prog)
        assert compiled.entry.ops[0].attrs["proven"] == ("kernel",)
        inputs.update(rows=rows, labels=labels, memory=memory)
        block = compiled.run(**inputs)
        with test_eager_library_route.per_row_loop():
            per_row = compiled.run(**inputs)
        assert [entry["route"] for entry in block.report.notes["stage_profile"]] == ["vectorized"]
        assert [entry["route"] for entry in per_row.report.notes["stage_profile"]] == ["per-row"]
        assert np.asarray(block.output).tobytes() == np.asarray(per_row.output).tobytes()


# Latency samples above the histogram's underflow threshold (1e-6 s),
# spanning microseconds to ~3 hours — the relative-error guarantee only
# applies above min_value, and real latencies live in this range anyway.
latencies = st.lists(
    st.floats(min_value=1e-5, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def _hist(samples) -> LatencyHistogram:
    hist = LatencyHistogram()
    for sample in samples:
        hist.record(sample)
    return hist


def _same_state(a: LatencyHistogram, b: LatencyHistogram) -> None:
    """Bucket-exact equality: merging is bucket-wise integer addition, so
    every field except the float ``sum`` (addition-order sensitive) must
    match exactly."""
    assert a._counts == b._counts
    assert a.count == b.count
    assert a.zero_count == b.zero_count
    assert a.min == b.min
    assert a.max == b.max
    assert a.sum == pytest.approx(b.sum, rel=1e-12)


class TestLatencyHistogramProperties:
    """The merge/serialize algebra the fleet-aggregation path relies on:
    shard histograms must combine in any order and survive a JSON hop
    without moving any quantile."""

    @given(latencies, latencies)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative(self, xs, ys):
        ab = _hist(xs).merge(_hist(ys))
        ba = _hist(ys).merge(_hist(xs))
        _same_state(ab, ba)

    @given(latencies, latencies, latencies)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_associative(self, xs, ys, zs):
        a, b, c = _hist(xs), _hist(ys), _hist(zs)
        left = a.copy().merge(b.copy().merge(c.copy()))
        right = a.copy().merge(b.copy()).merge(c.copy())
        _same_state(left, right)

    @given(latencies, latencies)
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_recording_everything_in_one(self, xs, ys):
        merged = _hist(xs).merge(_hist(ys))
        direct = _hist(xs + ys)
        _same_state(merged, direct)

    @given(latencies)
    @settings(max_examples=40, deadline=None)
    def test_to_dict_round_trips_exactly(self, xs):
        hist = _hist(xs)
        restored = LatencyHistogram.from_dict(hist.to_dict())
        _same_state(hist, restored)
        # ...and through an actual JSON hop, as on the serving transport.
        import json

        rewired = LatencyHistogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        _same_state(hist, rewired)
        for p in (50.0, 90.0, 99.0):
            assert restored.percentile(p) == hist.percentile(p)

    @given(latencies, latencies, st.sampled_from([25.0, 50.0, 90.0, 95.0, 99.0]))
    # 1.0 == gamma**0 sits on bucket 0's upper edge, where the bound is
    # attained: reported as 2 / (gamma + 1) = 0.9499999999999998.
    @example(xs=[1.0, 1.0, 1.0], ys=[1.0, 0.5], p=25.0)
    @settings(max_examples=60, deadline=None)
    def test_merged_quantiles_stay_within_relative_error(self, xs, ys, p):
        """The documented accuracy contract survives a merge: a quantile
        of two merged shard histograms is within DEFAULT_RELATIVE_ERROR
        (up to float rounding at a bucket edge) of the exact nearest-rank
        percentile over the pooled samples."""
        merged = _hist(xs).merge(_hist(ys))
        exact = exact_percentile(xs + ys, p)
        bound = DEFAULT_RELATIVE_ERROR * (1 + 1e-9)
        assert merged.percentile(p) == pytest.approx(exact, rel=bound)

    @given(latencies)
    @settings(max_examples=40, deadline=None)
    def test_extreme_ranks_are_exact(self, xs):
        hist = _hist(xs)
        assert hist.percentile(0.0) == min(xs)
        assert hist.percentile(100.0) == max(xs)

    @given(
        st.one_of(
            st.floats(min_value=-1.0, max_value=1e4, allow_nan=False),
            st.sampled_from([0.0, 1e-7, 1e-6, 2.5e-3]),  # the underflow edge
        ),
        st.integers(min_value=0, max_value=500),
        latencies,
    )
    @settings(max_examples=60, deadline=None)
    def test_run_length_record_equals_single_records(self, value, count, seed_values):
        """``record(value, count)`` — one per settled segment — leaves the
        state ``count`` single records leave: count, extrema, underflow and
        every bucket exactly, ``sum`` to float rounding (one ``value *
        count`` instead of ``count`` additions; 1e-12 relative), on an
        empty and on a pre-filled histogram, negatives and underflow
        values included."""
        for prefill in ((), seed_values):
            run, looped = _hist(prefill), _hist(prefill)
            run.record(value, count)
            for _ in range(count):
                looped.record(value)
            _same_state(run, looped)

    @given(latencies)
    @settings(max_examples=20, deadline=None)
    def test_incompatible_shapes_refuse_to_merge(self, xs):
        hist = _hist(xs)
        other = LatencyHistogram(relative_error=DEFAULT_RELATIVE_ERROR / 2)
        with pytest.raises(ValueError, match="different shapes"):
            hist.merge(other)


class TestTraceRetentionProperties:
    @given(
        st.lists(st.sampled_from(["ok", "error", "slo"]), max_size=60),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_finish_many_equals_finish_one_by_one(self, kinds, sample_every, chunk):
        """Batch-wise retention keeps exactly the traces (and counters)
        that finishing the same traces one at a time keeps, wherever the
        batch boundaries fall in the 1-in-N healthy sampling."""
        from repro.serving.observability.trace import RequestTracer

        def mint(tracer):
            traces = []
            for index, kind in enumerate(kinds):
                trace = tracer.begin("m", trace_id=str(index))
                if kind == "error":
                    trace.fail("boom")
                trace.slo_violated = kind == "slo"
                traces.append(trace)
            return traces

        single = RequestTracer(capacity=64, sample_every=sample_every)
        batched = RequestTracer(capacity=64, sample_every=sample_every)
        for trace in mint(single):
            single.finish(trace)
        traces = mint(batched)
        for start in range(0, len(traces), chunk):
            batched.finish_many(traces[start : start + chunk])
        assert batched.stats() == single.stats()
        kept = lambda tracer: sorted(t["trace_id"] for t in tracer.traces())  # noqa: E731
        assert kept(batched) == kept(single)


# -- the replica merge (repro.serving.metrics over the emit catalogue's rows) ----

_MODELS = ("alpha", "beta")
_STAGES = ("encode", "search")
_RESIDENCY = {"packed": True, "params": {}, "class_memory_bytes": 64,
              "class_memory_unpacked_bytes": 2048, "shrink_ratio": 32.0, "shards": 1}
_seconds = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
_counts = st.integers(min_value=1, max_value=4)
metric_ops = st.one_of(
    st.tuples(st.just("requests"), st.sampled_from(_MODELS),
              st.lists(_seconds, min_size=1, max_size=8), st.sampled_from([None, 1, 2, 3])),
    st.tuples(st.just("swap"), st.sampled_from(_MODELS), _counts),
    st.tuples(st.just("failure"), st.sampled_from(_MODELS + (None,)), _counts),
    st.tuples(st.just("expired"), st.sampled_from(_MODELS + (None,)), _counts),
    st.tuples(st.just("stage_counters"), st.sampled_from(_MODELS), st.sampled_from(_STAGES),
              st.integers(0, 3)),
    st.tuples(st.just("stage_profile"), st.sampled_from(_MODELS), st.sampled_from(_STAGES),
              st.sampled_from([1, 8]), _seconds),
    st.tuples(st.just("swap_round"), st.sampled_from(_MODELS),
              st.sampled_from(["update", "append"]), _seconds),
)
_EVERY_OP = [
    (("requests", "alpha", [0.004, 0.004, 9.0], 2), 0), (("requests", "beta", [0.25], None), 1),
    (("requests", "alpha", [0.5], 1), 2), (("swap", "alpha", 3), 1), (("failure", None, 2), 0),
    (("failure", "beta", 1), 2), (("expired", "alpha", 3), 1), (("expired", None, 1), 2),
    (("stage_counters", "alpha", "encode", 2), 0), (("stage_counters", "alpha", "encode", 0), 2),
    (("stage_profile", "alpha", "encode", 8, 0.5), 0),
    (("stage_profile", "alpha", "encode", 8, 0.25), 1),
    (("swap_round", "beta", "append", 0.75), 2), (("swap_round", "beta", "append", 0.5), 0),
]


class _FakeWorker:
    def __init__(self, index):
        self.name, self.index = "w", index

    def stats(self):
        return {"target": "cpu", "batches": self.index, "elided_transfers": 0}


class _FakeScheduler:
    def stats(self):
        return {"alpha": {"weight": 1.0, "served_batches": 1, "pending_batches": 0}}


def _collector():
    from repro.serving.metrics import ServingMetrics

    metrics = ServingMetrics()
    metrics.set_slo("alpha", 5.0)
    metrics.record_residency("alpha", _RESIDENCY)
    return metrics


def _apply(metrics, op):
    from repro.backends.executor import StageRecord

    kind, model, *rest = op
    if kind == "requests":
        latencies, version = rest
        segments = [(latency, latency / 2, 1) for latency in latencies]
        metrics.record_requests(model, segments, latencies[0] / 4, version=version)
    elif kind == "swap":
        metrics.record_swap(model, *rest)
    elif kind == "failure":
        metrics.record_failure(rest[0], model)
    elif kind == "expired":
        metrics.record_expired(rest[0], model)
    elif kind == "stage_counters":
        stage, fallbacks = rest  # the reason is a function of the stage: ``last`` is order-free
        reasons = {stage: f"{stage} gate"} if fallbacks else {}
        metrics.record_execution(model, StageRecord([], 1, fallbacks, reasons), bucket=1)
    elif kind == "stage_profile":
        stage, bucket, seconds = rest
        row = (stage, 0.0, seconds, seconds / 8, bucket, "vectorized", None, None)
        metrics.record_execution(model, StageRecord([row], 0, 0, {}), bucket)
    else:
        swap_kind, seconds = rest
        metrics.record_swap_round(model, swap_kind, {"derive": seconds, "warm": seconds / 2})


def _assert_merged(scope, single, merged, seen):
    """``merged`` equals ``single`` row by row: exactly, except float sums
    and the means read off them (addition order), to 1e-9 relative."""
    import re

    from repro.serving.observability.catalogue import ROWS

    for row in ROWS[scope]:
        seen.add(row.merge)
        one, other = row.read(single), row.read(merged)
        if row.key in ("uptime_seconds", "throughput_rps") or row.merge == "replica":
            continue  # the wall clock; kept apart, checked by the caller
        if row.merge == "nested":
            assert one.keys() == other.keys(), row.key
            for name in one:
                _assert_merged(row.kind, one[name], other[name], seen)
        elif row.merge == "histogram":
            assert {**one, "sum": None} == {**other, "sum": None}, row.key
            assert other["sum"] == pytest.approx(one["sum"], rel=1e-9)
        elif isinstance(one, float) and not re.fullmatch(r"\w+_p\d+_ms", row.key):
            assert other == pytest.approx(one, rel=1e-9), row.key
        else:  # counters, ledgers, versions, labels, documents — and the percentiles
            assert one == other, row.key


class TestMetricsMergeProperties:
    @given(st.lists(st.tuples(metric_ops, st.integers(0, 3)), max_size=40), st.integers(1, 4))
    @example(history=_EVERY_OP, replicas=3)
    @settings(max_examples=40, deadline=None)
    def test_any_partition_of_a_history_merges_to_the_single_collector(self, history, replicas):
        """Recording one history on one collector, or splitting it any way
        across 1-4 replicas and merging their snapshots, is the same
        document — the contract ``scrape_stats --replica`` and the group
        gates read, checked row by row over ``METRICS``."""
        from repro.serving.metrics import merge_server_stats
        from repro.serving.observability.catalogue import METRICS

        single, parts = _collector(), [_collector() for _ in range(replicas)]
        for op, slot in history:
            _apply(single, op)
            _apply(parts[slot % replicas], op)
        snapshots = [
            part.snapshot(workers=[_FakeWorker(index)], scheduler=_FakeScheduler()).to_dict()
            for index, part in enumerate(parts)
        ]
        merged = merge_server_stats(snapshots)
        seen = set()
        _assert_merged("server", single.snapshot().to_dict(), merged, seen)
        assert merged["replicas"] == replicas
        assert merged["worker_stats"] == {
            f"r{index}/w": snapshot["worker_stats"]["w"] for index, snapshot in enumerate(snapshots)
        }
        assert merged["scheduler_stats"] == {
            f"r{index}": snapshot["scheduler_stats"] for index, snapshot in enumerate(snapshots)
        }
        if {op[0] for op, _ in history} == {op[0] for op, _ in _EVERY_OP}:
            assert seen == {row.merge for row in METRICS}, "a merge kind no row exercised"


# -- caller batches through a live broker (repro.serving.broker) -----------------

_LAPSED = 1e-3  # a deadline (ms) that has passed by the time the broker starts
callers = st.lists(
    st.tuples(
        st.integers(1, 40),  # rows
        st.sampled_from([-1, 0, 1]),  # priority
        st.sampled_from([None, 60_000.0, _LAPSED]),  # deadline_ms
        st.booleans(),  # a one-row caller uses submit (a future)
    ),
    min_size=1,
    max_size=6,
)


@functools.lru_cache(maxsize=None)
def _broker_fixture():
    """A bipolar classifier (exact on every route), one compile cache for
    every example, and the reference: the 64-row program on a padded block."""
    from repro.apps.common import bipolar_random
    from repro.serving import CompiledProgramCache, Servable, pad_batch

    dim, classes = 32, 5

    def build_program(batch_size):
        prog = H.Program(f"prop_broker_b{batch_size}")

        @prog.define(H.hv(dim), H.hm(classes, dim))
        def infer_one(encoding, class_hvs):
            return H.arg_min(H.hamming_distance(H.sign(encoding), H.sign(class_hvs)))

        @prog.entry(H.hm(batch_size, dim), H.hm(classes, dim))
        def main(encodings, class_hvs):
            return H.inference_loop(infer_one, encodings, class_hvs)

        return prog

    servable = Servable(
        name="prop-broker",
        build_program=build_program,
        constants={"class_hvs": bipolar_random(classes, dim, seed=3)},
        query_param="encodings",
        sample_shape=(dim,),
        supported_targets=("cpu",),
    )
    handle = hdc_compile(build_program(64), target="cpu").bind(**servable.constants)

    def reference(block):
        padded = pad_batch(block, 64)
        return [int(v) for v in np.asarray(handle.run(encodings=padded).output)[: len(block)]]

    return servable, CompiledProgramCache(), reference


class TestCallerBatchProperties:
    @given(callers, st.sampled_from([1, 2, 4, 8, 16, 64]), seeds)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_any_mix_of_callers_settles_every_slot_once(self, callers, max_batch_size, seed):
        """Random caller sizes x batch watermark x priorities x deadlines,
        all queued before the broker starts: every slot resolves exactly
        once (lapsed callers to ``DeadlineExceeded``), ``drain`` returns,
        the counters equal the per-row count, batches are the watermark's
        cut of the served rows, and every output equals the reference."""
        from concurrent.futures import Future

        from repro.serving import DeadlineExceeded, ModelRegistry, RequestBroker
        from repro.serving.scheduler import WorkerPool

        servable, cache, reference = _broker_fixture()
        rng = np.random.default_rng(seed)
        registry = ModelRegistry(cache=cache)
        broker = RequestBroker(
            registry, WorkerPool(("cpu",)), max_batch_size=max_batch_size, max_wait_seconds=5e-4
        )
        broker.add_model(registry.register(servable, warm_batch_sizes=()))
        submitted = []
        for rows, priority, deadline, single in callers:
            block = bipolar(rows, 32, int(rng.integers(2**31)))
            options = {"priority": priority, "deadline_ms": deadline}
            if rows == 1 and single:
                handle = broker.submit(servable.name, block[0], **options)
            else:
                handle = broker.submit_many(servable.name, block, **options)
            submitted.append((block, deadline, handle))
        time.sleep(0.002)  # the lapsed deadlines expire in the queue
        broker.start()
        try:
            broker.drain(timeout=30.0)
            stats = broker.stats().to_dict()
        finally:
            broker.stop()
        assert broker._outstanding == 0  # a slot settled twice would drive it negative
        for block, deadline, handle in submitted:
            assert handle.done()
            if deadline == _LAPSED:
                with pytest.raises(DeadlineExceeded):
                    handle.result(timeout=0)
                continue
            if isinstance(handle, Future):
                out = [handle.result(timeout=0)]
            else:
                assert handle._pending == 0
                out = handle.result(timeout=0)
            assert [int(np.asarray(v)) for v in out] == reference(block)
        served = sum(len(block) for block, deadline, _ in submitted if deadline != _LAPSED)
        shed = sum(len(block) for block, deadline, _ in submitted if deadline == _LAPSED)
        counts = (stats["requests"], stats["deadline_exceeded"], stats["failures"])
        assert counts == (served, shed, 0)
        model = stats["model_stats"][servable.name]
        assert sum(model["requests_by_version"].values()) == served
        full, rest = divmod(served, max_batch_size)
        cut = {str(max_batch_size): full, str(rest): 1}  # full batches, then the remainder
        cut = {size: count for size, count in cut.items() if count and size != "0"}
        assert stats["batch_size_histogram"] == cut


# -- rendezvous routing (repro.serving.replica.routing) --------------------------

model_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=24
)
model_sets = st.lists(model_names, min_size=1, max_size=40, unique=True)
replica_sets = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=8, unique=True
)


class TestRendezvousRoutingProperties:
    """Stability invariants of the HRW router every gateway relies on.

    The load-bearing claims: membership changes move only the models
    whose top choice changed (no unrelated churn), and scores are a pure
    function of the (model, replica) pair — deterministic across
    processes, so a fleet agrees on routes without coordination.
    """

    @given(model_names, replica_sets)
    @settings(max_examples=60, deadline=None)
    def test_route_is_the_top_of_the_rank(self, model, replicas):
        import hashlib

        from repro.serving.replica.routing import (
            rendezvous_rank,
            rendezvous_score,
            route,
        )

        choice = route(model, replicas)
        ranked = rendezvous_rank(model, replicas)
        assert choice in replicas
        assert ranked[0] == choice
        assert sorted(ranked) == sorted(replicas)  # a permutation, nothing lost
        # Cross-process determinism: the score IS the documented SHA-256
        # construction, with no process-local state (PYTHONHASHSEED or
        # otherwise) in the way.
        digest = hashlib.sha256(f"{model}|{choice}".encode("utf-8")).digest()
        assert rendezvous_score(model, choice) == int.from_bytes(digest[:8], "big")

    @given(model_sets, replica_sets)
    @settings(max_examples=60, deadline=None)
    def test_removal_moves_only_the_dead_replicas_models(self, models, replicas):
        """Kill one replica: exactly the models routed to it move (to
        their second choice); every other assignment is untouched."""
        from repro.serving.replica.routing import rendezvous_rank, route

        if len(replicas) < 2:
            return
        before = {model: route(model, replicas) for model in models}
        dead = replicas[0]
        survivors = [index for index in replicas if index != dead]
        after = {model: route(model, survivors) for model in models}
        for model in models:
            if before[model] != dead:
                assert after[model] == before[model]  # unrelated models never churn
            else:
                # The displaced model lands on its pre-computed second
                # choice — failover needs no new hashing decisions.
                assert after[model] == rendezvous_rank(model, replicas)[1]

    @given(model_sets, replica_sets, st.integers(min_value=64, max_value=127))
    @settings(max_examples=60, deadline=None)
    def test_addition_moves_at_most_the_new_replicas_share(self, models, replicas, new):
        """Grow the group by one replica: only models that rank the new
        replica first move, and they move *to* it.  In expectation that
        is 1/(n+1) of the models — the bounded-churn property modulo
        hashing lacks (where adding a replica reshuffles nearly all)."""
        from repro.serving.replica.routing import route

        grown = replicas + [new]
        before = {model: route(model, replicas) for model in models}
        after = {model: route(model, grown) for model in models}
        moved = [model for model in models if after[model] != before[model]]
        for model in moved:
            assert after[model] == new  # movers only ever move to the newcomer
        # Deterministic bound: the movers are exactly the models whose
        # top choice among the grown set is the new replica.
        expected_movers = {model for model in models if route(model, grown) == new}
        assert set(moved) == {m for m in expected_movers if before[m] != new}

    @given(model_sets, replica_sets)
    @settings(max_examples=30, deadline=None)
    def test_routing_is_order_independent(self, models, replicas):
        """The route depends on the membership *set*, not the order a
        client happened to list the replicas in."""
        from repro.serving.replica.routing import route

        reversed_replicas = list(reversed(replicas))
        for model in models:
            assert route(model, replicas) == route(model, reversed_replicas)
