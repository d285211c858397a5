"""Shared configuration for the benchmark harnesses.

Every table and figure of the paper's evaluation has a corresponding
``bench_*`` module here.  The workload scale is selected with the
``REPRO_SCALE`` environment variable:

* ``smoke``   — tiny datasets, completes in a couple of minutes (default,
  so that ``pytest benchmarks/ --benchmark-only`` is quick to run);
* ``default`` — the middle scale (minutes);
* ``paper``   — dataset sizes close to the paper's (slow).

Benchmark modules can additionally emit a **machine-readable summary**
through the ``bench_json`` fixture: every recorded case lands in
``BENCH_<module>.json`` (e.g. ``BENCH_primitives.json``) next to the repo
root — or under ``REPRO_BENCH_DIR`` — so the performance trajectory is
tracked across PRs instead of living only in scrollback.  The summary
timestamp is *passed in* via ``REPRO_BENCH_TIMESTAMP`` (seconds since
epoch) so CI can stamp a whole run consistently; it defaults to the
current time.

The serving plane is not benchmarked from here: its counts and bit-identity
claims are tier-1's serving state machine (``tests/test_serving_machine.py``,
``docs/BENCHMARKING.md``), and its timings are the end-to-end benchmark's
(``benchmarks/e2e/``).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.evaluation import EvaluationScale  # noqa: E402

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _selected_scale() -> EvaluationScale:
    name = os.environ.get("REPRO_SCALE", "smoke").lower()
    if name == "paper":
        return EvaluationScale.paper()
    if name == "default":
        return EvaluationScale.default()
    return EvaluationScale.smoke()


@pytest.fixture(scope="session")
def scale() -> EvaluationScale:
    return _selected_scale()


class BenchRecorder:
    """Collects one benchmark module's cases and writes ``BENCH_<name>.json``."""

    def __init__(self, module_stem: str):
        name = module_stem[len("bench_"):] if module_stem.startswith("bench_") else module_stem
        self.name = name
        self.cases: dict = {}

    def record(self, case: str, **fields) -> None:
        """Record one case's summary numbers (throughput, speedups, ...)."""
        self.cases[case] = {key: _jsonable(value) for key, value in fields.items()}

    @property
    def path(self) -> pathlib.Path:
        out_dir = pathlib.Path(os.environ.get("REPRO_BENCH_DIR", _REPO_ROOT))
        return out_dir / f"BENCH_{self.name}.json"

    def write(self) -> pathlib.Path:
        timestamp = float(os.environ.get("REPRO_BENCH_TIMESTAMP", time.time()))
        payload = {
            "benchmark": self.name,
            "timestamp": timestamp,
            "scale": os.environ.get("REPRO_SCALE", "smoke").lower(),
            "cases": self.cases,
        }
        path = self.path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _jsonable(value):
    if hasattr(value, "item"):  # NumPy scalars
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@pytest.fixture(scope="module")
def bench_json(request):
    """Module-scoped recorder; writes ``BENCH_<module>.json`` at teardown."""
    recorder = BenchRecorder(pathlib.Path(request.module.__file__).stem)
    yield recorder
    if recorder.cases:
        path = recorder.write()
        print(f"\nbenchmark summary -> {path}")
