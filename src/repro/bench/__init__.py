"""repro.bench — the config-driven scenario-matrix benchmark harness.

The paper's evaluation is a *matrix* — application × accelerator ×
approximation configuration — and so is this harness: one JSON config
declares named **apps**, **backends**, **configs** and load **shapes**,
and every cell of their cross product drives the real serving stack
(:class:`~repro.serving.broker.RequestBroker` via
:class:`~repro.serving.server.InferenceServer`, optionally through the
socket transport) under a deterministic, seeded request stream.  One
command runs it all::

    PYTHONPATH=src python -m repro.bench \\
        --config benchmarks/configs/matrix.json --out BENCH_matrix.json

See ``docs/BENCHMARKING.md`` for the config schema, the load-shape
glossary and the per-cell gating recipe.  The pieces:

* :mod:`repro.bench.config` — schema parsing/validation with typed
  :class:`~repro.bench.config.MatrixConfigError` diagnostics.
* :mod:`repro.bench.loadgen` — seeded deterministic load shapes
  (steady, burst, diurnal ramp, adversarial hot-model skew,
  serve-while-retraining), all rooted in ``REPRO_BENCH_SEED`` with
  per-cell derived streams and SHA-1 fingerprints.
* :mod:`repro.bench.workloads` — the app catalog turning stock
  :mod:`repro.apps` applications into served workloads.
* :mod:`repro.bench.runner` — the per-cell executor; retraining cells
  feed their update rounds from a pre-materialized
  :class:`~repro.serving.update_log.UpdateLog`, never live RNG.
* :mod:`repro.bench.gates` — the shared ``--fail-on`` threshold grammar
  (also behind ``tools/scrape_stats.py``) with per-cell
  ``cell.<app>.<shape>.p99_ms>limit`` paths.
"""

from repro.bench.config import (
    Cell,
    MatrixConfig,
    MatrixConfigError,
    build_approximation,
    load_config,
    parse_config,
)
from repro.bench.gates import GateError, Threshold, evaluate, match_cells, resolve
from repro.bench.loadgen import (
    DEFAULT_SEED,
    SEED_ENV,
    SHAPE_KINDS,
    Schedule,
    bench_seed,
    build_schedule,
    derive_rng,
)
from repro.bench.runner import run_cell, run_matrix
from repro.bench.workloads import CATALOG, Workload, build_workload

__all__ = [
    "MatrixConfig",
    "MatrixConfigError",
    "Cell",
    "load_config",
    "parse_config",
    "build_approximation",
    "Threshold",
    "GateError",
    "evaluate",
    "resolve",
    "match_cells",
    "Schedule",
    "build_schedule",
    "bench_seed",
    "derive_rng",
    "DEFAULT_SEED",
    "SEED_ENV",
    "SHAPE_KINDS",
    "CATALOG",
    "Workload",
    "build_workload",
    "run_matrix",
    "run_cell",
]
