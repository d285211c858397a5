"""Tests for the scenario-matrix harness (repro.bench).

Three layers, mirroring how the harness is consumed:

* **config parsing** — every structurally invalid config raises the
  typed :class:`MatrixConfigError` with a message naming the offending
  key, so a typo'd matrix fails CI with exit code 2 instead of silently
  sweeping the wrong cells;
* **gates** — the shared ``--fail-on`` grammar's cell paths (greedy
  selector matching, per-cell violations, missing-metric alarms), plus
  the ``tools/scrape_stats.py --check`` path over an emitted matrix
  document;
* **execution** — tiny one-cell matrices of every load shape run
  end-to-end through the real broker, two same-seed runs fingerprint
  identically (the ``REPRO_BENCH_SEED`` contract), and the CLI's
  0/1/2 exit-code split holds.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.bench import (
    CATALOG,
    SHAPE_KINDS,
    MatrixConfigError,
    Threshold,
    bench_seed,
    derive_rng,
    evaluate,
    load_config,
    match_cells,
    parse_config,
    run_cell,
    run_matrix,
)
from repro.bench.config import _RESERVED_NAMES
from repro.bench.loadgen import DEFAULT_SEED, SEED_ENV
from repro.bench.__main__ import main as bench_main


def _load_tool(name: str):
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_config(**overrides) -> dict:
    """A minimal valid matrix config; keyword overrides patch sections.

    The workload is deliberately small (128-dim classifier, 16 requests)
    so execution tests complete in well under a second per cell.
    """
    data = {
        "name": "unit",
        "apps": {
            "iso": {
                "kind": "classification",
                "dimension": 128,
                "n_features": 16,
                "n_classes": 4,
                "n_train": 48,
                "n_test": 24,
            }
        },
        "backends": {"cpu": {"workers": ["cpu"]}},
        "configs": {"exact": {}},
        "shapes": {"steady": {"kind": "steady", "requests": 16, "rate_rps": 800}},
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# Config parsing: every malformed config is a typed, named error
# ---------------------------------------------------------------------------


class TestConfigNegatives:
    def test_unknown_app_kind(self):
        config = tiny_config(apps={"iso": {"kind": "no-such-app"}})
        with pytest.raises(MatrixConfigError, match="unknown kind 'no-such-app'"):
            parse_config(config)

    def test_unknown_app_param_key(self):
        config = tiny_config(apps={"iso": {"kind": "classification", "dimenson": 128}})
        with pytest.raises(MatrixConfigError, match="'dimenson'"):
            parse_config(config)

    def test_unknown_shape_kind(self):
        config = tiny_config(shapes={"s": {"kind": "sawtooth"}})
        with pytest.raises(MatrixConfigError, match="unknown kind 'sawtooth'"):
            parse_config(config)

    def test_unknown_shape_param_key(self):
        config = tiny_config(shapes={"s": {"kind": "steady", "rate": 100}})
        with pytest.raises(MatrixConfigError, match="'rate'"):
            parse_config(config)

    def test_unknown_worker_target(self):
        config = tiny_config(backends={"b": {"workers": ["tpu"]}})
        with pytest.raises(MatrixConfigError, match="unknown worker target 'tpu'"):
            parse_config(config)

    def test_unknown_backend_key(self):
        config = tiny_config(backends={"b": {"workers": ["cpu"], "batchsize": 8}})
        with pytest.raises(MatrixConfigError, match="'batchsize'"):
            parse_config(config)

    def test_replicas_must_be_a_positive_integer(self):
        config = tiny_config(backends={"b": {"workers": ["cpu"], "replicas": 0}})
        with pytest.raises(MatrixConfigError, match="'replicas' must be a positive integer"):
            parse_config(config)

    def test_replicas_conflicts_with_explicit_transport_flag(self):
        config = tiny_config(
            backends={"b": {"workers": ["cpu"], "replicas": 2, "transport": True}}
        )
        with pytest.raises(MatrixConfigError, match="implied by 'replicas'"):
            parse_config(config)

    def test_malformed_gate_limit(self):
        config = tiny_config(gates=["cell.iso.steady.p99_ms>fast"])
        with pytest.raises(MatrixConfigError, match="malformed gate"):
            parse_config(config)

    def test_gates_must_be_a_list(self):
        config = tiny_config(gates="p99_ms>40")
        with pytest.raises(MatrixConfigError, match="'gates' must be a list"):
            parse_config(config)

    def test_empty_matrix(self):
        config = tiny_config(exclude=[{"app": "iso"}])
        with pytest.raises(MatrixConfigError, match="zero cells"):
            parse_config(config)

    def test_duplicate_cell_ids(self):
        config = tiny_config(
            cells=[{"app": "iso", "backend": "cpu", "config": "exact", "shape": "steady"}]
        )
        with pytest.raises(MatrixConfigError, match="duplicate cell ID"):
            parse_config(config)

    def test_explicit_cell_missing_coordinate(self):
        config = tiny_config(cells=[{"app": "iso", "backend": "cpu"}])
        with pytest.raises(MatrixConfigError, match="missing coordinate"):
            parse_config(config)

    def test_matrix_references_undefined_name(self):
        config = tiny_config(matrix={"apps": ["mnist"]})
        with pytest.raises(MatrixConfigError, match="undefined name 'mnist'"):
            parse_config(config)

    def test_axis_names_reject_dots(self):
        config = tiny_config(configs={"v1.5": {}})
        with pytest.raises(MatrixConfigError, match="no dots"):
            parse_config(config)

    def test_axis_names_reject_reserved_metric_names(self):
        # 'failures' is a per-cell metric: an app named after it would
        # make 'cell.failures>0' ambiguous between selector and metric.
        config = tiny_config(shapes={"failures": {"kind": "steady"}})
        with pytest.raises(MatrixConfigError, match="reserved"):
            parse_config(config)

    def test_retraining_shape_needs_updatable_app(self):
        config = tiny_config(
            apps={"oms": {"kind": "hyperoms"}},
            shapes={"retrain": {"kind": "serve_while_retraining"}},
        )
        with pytest.raises(MatrixConfigError, match="no\\s+update rule"):
            parse_config(config)

    def test_burst_needs_baseline_arrivals(self):
        config = tiny_config(
            shapes={"b": {"kind": "burst", "requests": 8, "bursts": 2, "burst_size": 8}}
        )
        with pytest.raises(MatrixConfigError, match="baseline arrivals"):
            parse_config(config)

    def test_missing_section(self):
        config = tiny_config()
        del config["shapes"]
        with pytest.raises(MatrixConfigError, match="missing the 'shapes' section"):
            parse_config(config)

    def test_unknown_top_level_key(self):
        config = tiny_config(matrices={})
        with pytest.raises(MatrixConfigError, match="'matrices'"):
            parse_config(config)

    def test_seed_must_be_integer(self):
        with pytest.raises(MatrixConfigError, match="'seed' must be an integer"):
            parse_config(tiny_config(seed="42"))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MatrixConfigError, match="not valid JSON"):
            load_config(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(MatrixConfigError, match="cannot read config"):
            load_config(tmp_path / "missing.json")


def test_checked_in_config_covers_every_kind_topology_and_gate():
    """``benchmarks/configs/matrix.json`` — the one config CI runs — loads,
    every app kind, load shape, topology field and approximation the
    harness knows occurs in at least one of its cells, and every gate
    selects at least one cell (a typoed selector token would otherwise
    only show, as a missing metric, once CI has run the matrix)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    config = load_config(root / "benchmarks" / "configs" / "matrix.json")
    cells = {cell.cell_id: cell.coords() for cell in config.cells}

    def used(axis: str) -> list:
        return [getattr(config, f"{axis}s")[coords[axis]] for coords in cells.values()]

    assert {spec["kind"] for spec in used("app")} == set(CATALOG)
    assert {spec["kind"] for spec in used("shape")} == set(SHAPE_KINDS)
    assert any((spec["shards"] or 1) > 1 for spec in used("backend"))
    assert any(spec["transport"] for spec in used("backend"))
    assert any(spec["replicas"] > 1 for spec in used("backend"))
    assert any(spec.get("binarize") for spec in used("config"))
    assert any(spec.get("perforations") for spec in used("config"))
    assert config.gates
    for expression in config.gates:
        scope, *tokens = Threshold(expression).path.split(".")
        matched, metric = match_cells(cells, tokens)
        assert scope == "cell" and matched, expression
        assert metric.split(".")[0] in _RESERVED_NAMES, expression  # not a stray selector


# ---------------------------------------------------------------------------
# Gate grammar: cell paths and selector matching
# ---------------------------------------------------------------------------


def matrix_doc(cells: dict) -> dict:
    return {"benchmark": "matrix", "cells": cells}


def cell(app, backend, config, shape, **metrics):
    return {"app": app, "backend": backend, "config": config, "shape": shape, **metrics}


class TestCellGates:
    DOC = matrix_doc(
        {
            "iso.cpu.exact.steady": cell("iso", "cpu", "exact", "steady", p99_ms=10.0, failures=0),
            "iso.cpu.exact.burst": cell("iso", "cpu", "exact", "burst", p99_ms=80.0, failures=2),
            "oms.cpu.exact.steady": cell("oms", "cpu", "exact", "steady", p99_ms=5.0, failures=0),
        }
    )

    def test_selectors_narrow_greedily(self):
        matched, metric = match_cells(self.DOC["cells"], ["iso", "steady", "p99_ms"])
        assert set(matched) == {"iso.cpu.exact.steady"}
        assert metric == "p99_ms"

    def test_zero_selectors_match_every_cell(self):
        matched, metric = match_cells(self.DOC["cells"], ["failures"])
        assert set(matched) == set(self.DOC["cells"])
        assert metric == "failures"

    def test_one_violation_per_violating_cell(self):
        messages = Threshold("cell.failures>0").violations(self.DOC)
        assert len(messages) == 1
        assert "iso.cpu.exact.burst" in messages[0]

    def test_selector_scopes_the_gate(self):
        assert Threshold("cell.steady.p99_ms>40").violations(self.DOC) == []
        assert len(Threshold("cell.burst.p99_ms>40").violations(self.DOC)) == 1

    def test_missing_metric_is_a_violation(self):
        messages = Threshold("cell.iso.steady.shed>0").violations(self.DOC)
        assert len(messages) == 1 and "missing" in messages[0]

    def test_typoed_selector_alarms_everywhere(self):
        # 'stedy' matches no coordinate, so it becomes the metric path
        # and every still-matched cell reports it missing — a gate can
        # never silently match nothing.
        messages = Threshold("cell.iso.stedy.p99_ms>40").violations(self.DOC)
        assert len(messages) == 2
        assert all("missing" in message for message in messages)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("op", [">", "<", ">=", "<=", "==", "!="])
    def test_non_finite_metric_is_a_violation_under_every_operator(self, op, value):
        """Every ordering comparison with NaN is false, so ``>`` / ``<``
        gates used to pass a metric that is not a number."""
        for record, path in (
            ({"x": value}, "x"),
            (json.loads(json.dumps({"x": value})), "x"),  # as scrape_stats --check reads it
            (matrix_doc({"iso.cpu.exact.steady": cell("iso", "cpu", "exact", "steady", x=value)}), "cell.iso.x"),
        ):
            messages = Threshold(f"{path}{op}25").violations(record)
            assert len(messages) == 1 and "non-finite" in messages[0]

    def test_document_without_cells_is_a_violation(self):
        messages = Threshold("cell.failures>0").violations({"requests": 3})
        assert len(messages) == 1 and "no 'cells'" in messages[0]

    def test_evaluate_concatenates_thresholds(self):
        thresholds = [Threshold("cell.failures>0"), Threshold("cell.p99_ms>40")]
        assert len(evaluate(self.DOC, thresholds)) == 2


# ---------------------------------------------------------------------------
# Execution: tiny cells of every shape, seeding, CLI exit codes
# ---------------------------------------------------------------------------


SHAPE_SPECS = {
    "steady": {"kind": "steady", "requests": 16, "rate_rps": 800},
    "burst": {"kind": "burst", "requests": 20, "rate_rps": 800, "bursts": 2, "burst_size": 6},
    "diurnal": {"kind": "diurnal", "requests": 16, "rate_rps": 800, "periods": 1},
    "hot_skew": {"kind": "hot_skew", "requests": 16, "rate_rps": 800, "clones": 2},
    "retrain": {
        "kind": "serve_while_retraining",
        "requests": 16,
        "rate_rps": 400,
        "updates": 2,
        "update_batch": 12,
    },
    "growth": {"kind": "growth", "requests": 16, "rate_rps": 400, "appends": 2, "append_rows": 2},
}

#: The growth shape needs an appendable app; every other shape runs ``iso``.
GROWTH_APPS = {
    "kmers": {
        "kind": "hashtable",
        "dimension": 128,
        "genome_length": 800,
        "bucket_size": 200,
        "read_length": 40,
        "n_reads": 8,
        "append_pool": 4,
    }
}


class TestExecution:
    @pytest.mark.parametrize("shape", sorted(SHAPE_SPECS))
    def test_each_shape_serves_its_whole_stream(self, shape):
        apps = {"apps": GROWTH_APPS} if shape == "growth" else {}
        config = parse_config(
            tiny_config(shapes={shape: SHAPE_SPECS[shape]}, matrix={"shapes": [shape]}, **apps)
        )
        metrics = run_cell(config.cells[0], config, seed=DEFAULT_SEED)
        assert metrics["requests"] == SHAPE_SPECS[shape]["requests"]
        assert metrics["failures"] == 0
        assert metrics["shed"] == 0
        assert metrics["latency_histogram"]["count"] == metrics["requests"]
        assert set(metrics) <= _RESERVED_NAMES  # no axis name may shadow a cell metric
        if shape in ("retrain", "growth"):
            # Two hot-swap rounds: versions 2 and 3 swapped in live, and the
            # server's own log holds one record per round (mirroring the
            # replayed source log 1:1; a typed growth record per append).
            assert metrics["versions"] == [2, 3]
            assert metrics["swaps"] == 2
            assert metrics["update_log_records"] == 2
            assert metrics["update_errors"] == []
        if shape == "growth":
            assert metrics["appended_rows"] == 4 and metrics["dropped"] == 0

    def test_replica_cell_serves_through_the_group(self):
        config = parse_config(
            tiny_config(
                backends={"rep": {"workers": ["cpu"], "replicas": 2, "clients": 2}}
            )
        )
        metrics = run_cell(config.cells[0], config, seed=DEFAULT_SEED)
        assert metrics["backend"] == "rep"
        assert metrics["replicas"] == 2
        assert metrics["failures"] == 0
        assert metrics["shed"] == 0
        # The merged group view still accounts every request exactly once.
        assert metrics["latency_histogram"]["count"] == metrics["requests"]

    def test_replica_retraining_cell_logs_each_round_once(self):
        config = parse_config(
            tiny_config(
                backends={"rep": {"workers": ["cpu"], "replicas": 2, "clients": 2}},
                shapes={"retrain": SHAPE_SPECS["retrain"]},
                matrix={"shapes": ["retrain"]},
            )
        )
        metrics = run_cell(config.cells[0], config, seed=DEFAULT_SEED)
        assert metrics["failures"] == 0
        # Both replicas applied both rounds, but the group log records
        # each round exactly once — never once per replica.
        assert metrics["versions"] == [2, 3]
        assert metrics["update_log_records"] == 2
        assert metrics["update_errors"] == []

    def test_binarized_cell_runs(self):
        config = parse_config(tiny_config(configs={"bin": {"binarize": True}}))
        metrics = run_cell(config.cells[0], config, seed=DEFAULT_SEED)
        assert metrics["failures"] == 0
        assert metrics["config"] == "bin"

    def test_same_seed_runs_fingerprint_identically(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV, raising=False)
        monkeypatch.setenv("REPRO_BENCH_TIMESTAMP", "1754630000")
        config = parse_config(tiny_config())
        first = run_matrix(config, seed=123)
        second = run_matrix(config, seed=123)
        other = run_matrix(config, seed=124)
        for cell_id in config.cell_ids:
            assert (
                first["cells"][cell_id]["stream_sha1"]
                == second["cells"][cell_id]["stream_sha1"]
            )
            assert (
                first["cells"][cell_id]["stream_sha1"]
                != other["cells"][cell_id]["stream_sha1"]
            )

    def test_seed_env_var_reroots_every_generator(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "777")
        assert bench_seed() == 777
        assert derive_rng(bench_seed(), "salt").integers(0, 2**31) == (
            derive_rng(777, "salt").integers(0, 2**31)
        )
        monkeypatch.setenv(SEED_ENV, "not-a-seed")
        with pytest.raises(ValueError, match=SEED_ENV):
            bench_seed()

    def test_update_pool_too_small_is_a_config_error(self):
        shape = dict(SHAPE_SPECS["retrain"], updates=3, update_batch=64)
        config = parse_config(tiny_config(shapes={"retrain": shape}))
        with pytest.raises(MatrixConfigError, match="labelled samples"):
            run_cell(config.cells[0], config, seed=DEFAULT_SEED)


class TestCli:
    def write_config(self, tmp_path, data=None) -> pathlib.Path:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(data or tiny_config()), encoding="utf-8")
        return path

    def run(self, *argv) -> int:
        return bench_main(list(argv))

    def test_clean_run_exits_zero_and_writes_document(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "BENCH_matrix.json"
        code = self.run(
            "--config", str(config), "--out", str(out), "--quiet",
            "--fail-on", "cell.iso.steady.failures>0",
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert set(document["cells"]) == {"iso.cpu.exact.steady"}

    def test_document_carries_the_gates_it_was_checked_against(self, tmp_path):
        """Config gates and ``--fail-on`` alike land in the document, and
        ``scrape_stats --check`` with no list of its own replays them."""
        config = self.write_config(tmp_path, tiny_config(gates=["cell.iso.steady.failures>0"]))
        out = tmp_path / "BENCH_matrix.json"
        code = self.run(
            "--config", str(config), "--out", str(out), "--quiet",
            "--fail-on", "cell.iso.steady.shed>0",
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["gates"] == ["cell.iso.steady.failures>0", "cell.iso.steady.shed>0"]
        assert _load_tool("scrape_stats").main(["--check", str(out)]) == 0

    def test_violated_gate_exits_one(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "BENCH_matrix.json"
        code = self.run(
            "--config", str(config), "--out", str(out), "--quiet",
            "--fail-on", "cell.iso.steady.requests<100",
        )
        assert code == 1

    def test_invalid_config_exits_two(self, tmp_path):
        config = self.write_config(tmp_path, tiny_config(apps={"iso": {"kind": "nope"}}))
        assert self.run("--config", str(config), "--quiet") == 2

    def test_missing_config_exits_two(self, tmp_path):
        assert self.run("--config", str(tmp_path / "no.json"), "--quiet") == 2

    def test_malformed_fail_on_exits_two(self, tmp_path):
        config = self.write_config(tmp_path)
        assert self.run("--config", str(config), "--fail-on", "cell.>>bogus") == 2

    def test_unknown_cell_selector_exits_two(self, tmp_path):
        config = self.write_config(tmp_path)
        assert self.run("--config", str(config), "--cell", "mnist") == 2

    def test_cell_selector_runs_the_subset_into_the_default_out(self, tmp_path, monkeypatch):
        shapes = {name: SHAPE_SPECS[name] for name in ("steady", "burst")}
        config = self.write_config(tmp_path, tiny_config(shapes=shapes))
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
        assert self.run("--config", str(config), "--cell", "iso.burst", "--quiet") == 0
        document = json.loads((tmp_path / "out" / "BENCH_matrix.json").read_text(encoding="utf-8"))
        assert set(document["cells"]) == {"iso.cpu.exact.burst"}

    def test_list_prints_cell_ids_without_running(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert self.run("--config", str(config), "--list") == 0
        assert capsys.readouterr().out.splitlines() == ["iso.cpu.exact.steady"]


class TestScrapeStatsIntegration:
    """The emitted matrix document is re-checkable offline with the same
    gate grammar through ``tools/scrape_stats.py --check``."""

    @pytest.fixture(scope="class")
    def emitted(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("matrix")
        config = parse_config(tiny_config())
        document = run_matrix(config, seed=DEFAULT_SEED)
        path = tmp_path / "BENCH_matrix.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return path

    def test_clean_check_exits_zero(self, emitted):
        tool = _load_tool("scrape_stats")
        argv = ["--check", str(emitted), "--fail-on", "cell.iso.steady.failures>0"]
        assert tool.main(argv) == 0

    def test_violating_check_exits_one(self, emitted, capsys):
        tool = _load_tool("scrape_stats")
        argv = ["--check", str(emitted), "--fail-on", "cell.iso.steady.requests<100"]
        assert tool.main(argv) == 1
        assert "iso.cpu.exact.steady" in capsys.readouterr().err

    def test_check_without_fail_on_replays_the_documents_own_gates(self, emitted, tmp_path, capsys):
        tool = _load_tool("scrape_stats")
        document = json.loads(emitted.read_text(encoding="utf-8"))
        own = tmp_path / "BENCH_own.json"
        own.write_text(json.dumps({**document, "gates": ["cell.iso.steady.requests<100"]}))
        assert tool.main(["--check", str(own)]) == 1
        assert "iso.cpu.exact.steady" in capsys.readouterr().err
        own.write_text(json.dumps({**document, "gates": ["cell.iso.steady.failures>0"]}))
        assert tool.main(["--check", str(own)]) == 0
        with pytest.raises(SystemExit) as usage:  # run_matrix alone records no list
            tool.main(["--check", str(emitted)])
        assert usage.value.code == 2

    def test_check_reports_a_nan_metric_instead_of_passing_it(self, emitted, tmp_path, capsys):
        tool = _load_tool("scrape_stats")
        document = json.loads(emitted.read_text(encoding="utf-8"))
        document["cells"]["iso.cpu.exact.steady"]["p99_ms"] = float("nan")
        nan = tmp_path / "BENCH_nan.json"
        nan.write_text(json.dumps({**document, "gates": ["cell.p99_ms>60000"]}))
        assert tool.main(["--check", str(nan)]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_histogram_quantile_paths_resolve(self, emitted):
        tool = _load_tool("scrape_stats")
        document = json.loads(emitted.read_text(encoding="utf-8"))
        value = tool._resolve(
            document["cells"]["iso.cpu.exact.steady"], "latency_histogram.p99_9_ms"
        )
        assert value is not None and value >= 0.0
