"""Tests for the evaluation harness (metrics, configs, LoC, experiment drivers)."""

import importlib.util
import math
import pathlib
from unittest import mock

import numpy as np
import pytest

from repro.evaluation import (
    EvaluationScale,
    count_lines_of_code,
    fig5_performance,
    fig6_accelerators,
    fig7_optimizations,
    geomean,
    relative_speedup,
    table2_applications,
    table3_settings,
    table4_loc,
)
from repro.apps.common import Search
from repro.backends.executor import HostStageExecutor
from repro.evaluation.applications import APPLICATIONS, SEARCH
from repro.evaluation.metrics import accuracy, format_table
from repro.serving.servable import ALL_TARGETS, HOST_TARGETS
from repro.transforms import ApproximationConfig

#: HDC++ quality may trail the row's independent baseline (and a binarized
#: run its own exact run) by at most this much — half of what the e2e oracle
#: allows (``benchmarks/e2e/workloads.py``, ``RetargetSweep.quality_tolerance``).
QUALITY_BAND = 0.1


class TestMetrics:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_relative_speedup(self):
        assert relative_speedup(2.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            relative_speedup(1.0, 0.0)

    def test_accuracy(self):
        assert accuracy([1, 2, 3], [1, 0, 3]) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            accuracy([1, 2], [1, 2, 3])

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]])
        assert "a" in text and "30" in text


class TestTable3Settings:
    def test_ten_settings_defined(self):
        settings = table3_settings()
        assert [s.id for s in settings] == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"]

    def test_baseline_is_identity(self):
        settings = {s.id: s for s in table3_settings()}
        assert settings["I"].config.is_identity
        assert settings["I"].similarity == "cosine"
        assert settings["I"].loc_changes == 0

    def test_binarization_flags(self):
        settings = {s.id: s for s in table3_settings()}
        assert settings["III"].config.binarize and not settings["III"].config.binarize_reduce
        assert settings["IV"].config.binarize_reduce

    def test_perforation_parameters(self):
        settings = {s.id: s for s in table3_settings(dimension=1000)}
        (spec,) = settings["VI"].config.perforations
        assert spec.stride == 4
        (spec,) = settings["VIII"].config.perforations
        assert spec.end == 500
        (spec,) = settings["X"].config.perforations
        assert str(spec.opcode) in ("cossim", "Opcode.COSSIM") or spec.resolved_opcode().name == "COSSIM"

    def test_loc_changes_match_paper(self):
        settings = {s.id: s for s in table3_settings()}
        assert [settings[i].loc_changes for i in ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X")] == [
            0, 1, 1, 1, 2, 2, 3, 3, 1, 1,
        ]


class TestLocCounting:
    def test_blank_and_comment_lines_ignored(self):
        source = "\n".join(
            [
                '"""Module docstring."""',
                "",
                "# a comment",
                "x = 1",
                "def f():",
                '    """Docstring."""',
                "    return x  # trailing comment",
            ]
        )
        assert count_lines_of_code(source) == 3

    def test_table4_rows_populated(self):
        result = table4_loc()
        assert len(result.rows) == 5
        apps = [row.app for row in result.rows]
        assert "HyperOMS" in apps
        hyperoms = next(r for r in result.rows if r.app == "HyperOMS")
        assert hyperoms.cpu_baseline_loc is None
        assert hyperoms.gpu_baseline_loc > 0
        assert all(row.hdcpp_loc > 0 for row in result.rows)
        assert result.geomean_reduction > 0
        assert "GEOMEAN" in result.format()

    def test_every_row_counts_the_shared_search(self):
        """Table 4 cannot shrink by moving code into the shared statement:
        every row counts the search its programs trace, the training rows
        the corrective rule too — and HDC++ stays the shorter side."""
        for row in APPLICATIONS:
            assert set(SEARCH) <= set(row.sources), row.name
            assert (Search.rule in row.sources) == ("training" in row.stages), row.name
        assert table4_loc().geomean_reduction > 1.0


class TestTable2:
    def test_inventory(self):
        rows = table2_applications()
        assert len(rows) == 5
        classification = next(r for r in rows if r["application"] == "HD-Classification")
        assert "hdc_asic" in classification["targets"]
        hyperoms = next(r for r in rows if r["application"] == "HyperOMS")
        assert "hdc_asic" not in hyperoms["targets"]


class _RunOnce:
    """Stand-in for pytest-benchmark's fixture: runs the case, keeps its result."""

    def __init__(self):
        self.extra_info = {}

    def pedantic(self, fn, rounds, iterations):
        self.result = fn()
        return self.result


def _bench_module(name):
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExperimentDrivers:
    """Smoke-scale runs of the figure drivers."""

    @pytest.fixture(scope="class")
    def fig5(self):
        return fig5_performance(EvaluationScale.smoke())

    def test_scales(self):
        assert EvaluationScale.smoke().isolet_train < EvaluationScale.default().isolet_train
        assert EvaluationScale.paper().fig7_dim == 10240

    def test_fig5_shape(self, fig5):
        assert [row.app for row in fig5.rows] == [row.name for row in APPLICATIONS]
        for row, application in zip(fig5.rows, APPLICATIONS):
            assert (row.cpu_speedup is None) == ("cpu" not in application.baselines)
            for speedup in (row.cpu_speedup, row.gpu_speedup):
                assert speedup is None or (math.isfinite(speedup) and speedup > 0)
            assert row.hdcpp_quality >= row.baseline_quality - QUALITY_BAND
        for mean in (fig5.cpu_geomean, fig5.gpu_geomean):
            assert math.isfinite(mean) and mean > 0

    def test_benches_cluster_the_dataset_the_drivers_do(self, fig5):
        """The per-case timings CI records beside a report row are of that
        row's workload: same samples clustered, hence the same purity."""
        scale = EvaluationScale.smoke()
        row = next(r for r in APPLICATIONS if r.name == "HD-Clustering")
        accelerator = row.accelerators[0]
        fig5_row = fig5.rows[APPLICATIONS.index(row)]
        fig6_row = next(r for r in fig6_accelerators(scale).rows if r.app == row.name)
        for bench, case, target, driver_quality in (
            ("bench_fig5_performance", "test_application", "gpu", fig5_row.hdcpp_quality),
            ("bench_fig6_accelerators", "test_application_on_accelerator", accelerator, fig6_row.quality),
        ):
            benchmark = _RunOnce()
            getattr(_bench_module(bench), case)(benchmark, scale, row, target)
            assert benchmark.result.outputs["assignments"].shape == (scale.clustering_samples,)
            assert benchmark.result.quality == driver_quality

    def test_fig6_shape(self):
        result = fig6_accelerators(EvaluationScale.smoke())
        assert len(result.rows) == 4
        # The edge GPU priced from the runs' device rows reads what the
        # per-application formulas it replaced read, on both devices.
        jetson = {"HD-Classification": 0.0179087648, "HD-Clustering": 0.007034199}
        for row in result.rows:
            assert row.device_seconds > 0
            assert row.jetson_seconds == pytest.approx(jetson[row.app], rel=1e-12)
            assert row.speedup > 1.0, "accelerators must beat the edge GPU on device-only latency"
        text = result.format()
        assert "HDC Digital ASIC" in text and "ReRAM" in text

    def test_fig7_shape(self):
        result = fig7_optimizations(EvaluationScale.smoke(), repeats=1)
        assert len(result.rows) == 10
        by_id = {row.setting.id: row for row in result.rows}
        assert by_id["I"].speedup == pytest.approx(1.0)
        # Binarized Hamming (III) must not lose meaningful accuracy.
        assert by_id["III"].accuracy >= by_id["I"].accuracy - 0.1
        # Aggressive encoding perforation (VI) must cost accuracy relative to III.
        assert by_id["VI"].accuracy <= by_id["III"].accuracy + 0.05
        assert "Speedup" in result.format()


#: The counters of every exact-by-construction cell of the table at smoke
#: scale, recorded before the route decisions became plan attributes
#: (``repro.transforms.plan``): on ``cpu``, exact and binarized alike,
#: ``(kernel_launches, stage_vectorized, stage_fallbacks)``; on each HDC
#: accelerator, exact, ``(encodes, inferences, train_iterations)``.  Losing a
#: ``signed_by`` puts HD-Classification's encode per row, and losing a
#: ``fused_with`` refuses its training on the devices.  The ``cpu`` launches
#: count no boundary-row gate row on a stage the plan proves (``proven``):
#: every traced search, and the traced encodes of HD-Clustering and RelHD;
#: HD-Classification's eager training encode and the ``parallel_map``
#: encoders with a ``batch_impl`` keep the gate's two rows, which launch
#: nothing here.  The traced training rule of HD-Classification and RelHD
#: is proven too: one ``retrain`` launch per epoch (2 and 3 at smoke scale).
#: The ``gpu`` cells are not pinned: the library route's gate can depend on
#: the BLAS build.
COUNTER_PINS = {
    "HD-Classification": {"cpu": (7, 3, 0), "hdc_asic": (0, 80, 400), "hdc_reram": (0, 80, 400)},
    "HD-Clustering": {"cpu": (14, 4, 0), "hdc_asic": (150, 300, 0), "hdc_reram": (150, 300, 0)},
    "HyperOMS": {"cpu": (4, 3, 0), "hdc_asic": (0, 30, 0), "hdc_reram": (0, 30, 0)},
    "RelHD": {"cpu": (9, 3, 0)},
    "HD-Hashtable": {"cpu": (4, 2, 0), "hdc_asic": (0, 30, 0), "hdc_reram": (0, 30, 0)},
}


def _counters(result) -> tuple:
    """A cell's pinned counters (:data:`COUNTER_PINS`)."""
    notes = result.report.notes
    if result.target == "cpu":
        return result.report.kernel_launches, notes["stage_vectorized"], notes["stage_fallbacks"]
    return notes["encodes"], notes["inferences"], notes["train_iterations"]


def _run_counting_stages(app, dataset, target, config=None):
    """``app.run``, and how many stage / ``parallel_map`` operations the
    stage executors ran in it (every one runs under the profiling hook)."""
    executed, execute_stage = [], HostStageExecutor.execute_stage

    def spy(self, run, stage, inputs):
        executed.append(stage.op)
        return execute_stage(self, run, stage, inputs)

    with mock.patch.object(HostStageExecutor, "execute_stage", spy):
        result = app.run(dataset, target=target, config=config)
    return result, len(executed)


def _device_rows_add_up(result, executed: int) -> bool:
    """An accelerator cell's ``stage_profile`` lists one row per executed
    stage, and its device rows' counters add up to the report's."""
    notes = result.report.notes
    profile = notes["stage_profile"]
    rows = [entry["device"] for entry in profile if entry["route"] == "device"]
    return (
        len(profile) == executed
        and all(sum(row[k] for row in rows) == notes[k] for k in ("encodes", "inferences", "train_iterations"))
        and sum(row["device_seconds"] for row in rows) == pytest.approx(result.report.device_seconds, rel=1e-12)
    )


class TestApplicationTable:
    """The retargetability claim as a property of the table: every row on
    every target it lists within one band of its independent baseline, and a
    defined answer on every target it does not list."""

    def test_every_row_on_every_target_exact_and_binarized(self):
        scale = EvaluationScale.smoke()
        binarize = ApproximationConfig(binarize=True)
        header, cells = ["Application", "Target", "Config", "Verdict", "OK"], []
        counted = {}

        def refused(app, dataset, target, config, why):
            with pytest.raises(ValueError, match=why):
                app.run(dataset, target=target, config=config)
            return f"refused at compile: {why}", True

        def count(row, config, result):
            if result.target != "gpu":
                counted[row.name, result.target, config] = _counters(result)

        for row in APPLICATIONS:
            dataset = row.dataset(scale)
            app = row.instance(scale, dataset)
            baseline = {s: row.run_baseline(s, scale, dataset).quality for s in row.baselines}
            exact = {t: _run_counting_stages(app, dataset, t) for t in row.targets}
            for target in ALL_TARGETS:
                if target in row.targets:
                    # The GPU back end trains in mini-batches like the batched
                    # baselines; the CPU and the accelerators go sample by sample.
                    style = "gpu" if target == "gpu" or "cpu" not in baseline else "cpu"
                    gap = exact[target][0].quality - baseline[style]
                    rows = target in HOST_TARGETS or _device_rows_add_up(*exact[target])
                    verdict = f"{gap:+.3f} vs {style} baseline", gap >= -QUALITY_BAND and rows
                    count(row, "exact", exact[target][0])
                elif "training" in row.stages:
                    # Unlisted, and trained on host-side encodings: the device
                    # has no projection to program its base memory from.
                    verdict = refused(app, dataset, target, None, "encoder operand")
                else:
                    # Unlisted, host-encoded search: only the device's Hamming
                    # unit is offloaded, and it answers like the CPU.
                    cpu = exact["cpu"][0].outputs["matches"]
                    device, executed = _run_counting_stages(app, dataset, target)
                    same = np.array_equal(device.outputs["matches"], cpu)
                    inferred = device.report.notes["inferences"] == cpu.shape[0]
                    rows = _device_rows_add_up(device, executed)
                    verdict = "search-only offload, matches == cpu", same and inferred and rows
                    count(row, "exact", device)
                cells.append([row.name, target, "exact", *verdict])
                if target in HOST_TARGETS:
                    binarized = app.run(dataset, target=target, config=binarize)
                    gap = binarized.quality - exact[target][0].quality
                    verdict = f"{gap:+.3f} vs exact", gap >= -QUALITY_BAND
                    count(row, "binarize", binarized)
                else:
                    verdict = refused(app, dataset, target, binarize, "approximation transforms")
                cells.append([row.name, target, "binarize", *verdict])

        print(format_table(header, cells))
        assert len(cells) == len(APPLICATIONS) * len(ALL_TARGETS) * 2
        failed = [c for c in cells if not c[-1]]
        assert not failed, format_table(header, failed)
        pinned = {
            (name, target, config): pin
            for name, pins in COUNTER_PINS.items() for target, pin in pins.items()
            for config in (("exact", "binarize") if target == "cpu" else ("exact",))
        }
        assert counted == pinned
