"""The scenario-matrix config schema: parsing, validation, typed errors.

A matrix config is one JSON document declaring the four axes and the
cells swept over them::

    {
      "name": "smoke",
      "apps":     {"isolet": {"kind": "classification"}},
      "backends": {"cpu": {"workers": ["cpu"]}},
      "configs":  {"exact": {}},
      "shapes":   {"steady": {"kind": "steady", "requests": 96}},
      "matrix":   {"apps": ["isolet"], "shapes": ["steady"]},
      "gates":    ["cell.isolet.steady.failures>0"]
    }

* **apps** — named app specs; ``kind`` selects a
  :data:`repro.bench.workloads.CATALOG` entry, the remaining keys
  override that kind's parameters.
* **backends** — worker/transport topology: worker targets, optional
  class-memory ``shards``, ``transport: true`` to drive the cell over
  the socket front end with ``clients`` concurrent clients,
  ``replicas: N`` to serve the cell from an N-replica
  :class:`~repro.serving.replica.ReplicaGroup` behind a rendezvous-
  routing client pool (implies the socket transports; per-replica
  stats are merged into one cell view), and the micro-batching
  watermarks.
* **configs** — approximation presets (``binarize``,
  ``binarize_reduce``, ``perforations``); ``{}`` is exact serving.
* **shapes** — load shapes; ``kind`` selects a
  :data:`repro.bench.loadgen.SHAPE_KINDS` entry.
* **matrix** — the axis values to sweep (each key defaults to *all*
  defined names of that axis); the cell set is their cross product,
  minus ``exclude`` entries (partial coordinate matches), plus any
  explicit ``cells``.
* **gates** — ``--fail-on`` expressions evaluated against the emitted
  document after every run (see :mod:`repro.bench.gates`).

Everything wrong with a config raises :class:`MatrixConfigError` with a
message naming the offending key — unknown axis/kind/parameter names,
malformed gate limits, duplicate cell IDs, an empty matrix, a
retraining shape paired with a non-updatable app, a growth shape
paired with a non-appendable one.  The CLI maps this
error class to exit code 2 (usage error), distinct from exit code 1
(gate violations).
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.gates import COORD_KEYS, GateError, Threshold
from repro.bench.loadgen import SHAPE_KINDS
from repro.bench.workloads import CATALOG
from repro.ir.dataflow import Target

__all__ = ["MatrixConfigError", "Cell", "MatrixConfig", "load_config", "build_approximation"]


class MatrixConfigError(ValueError):
    """A structurally invalid matrix config (unknown key, bad limit,
    duplicate cell, empty matrix, ...).  Tools map it to exit code 2."""


#: Axis names live inside dotted gate paths, so they must be dot-free
#: and must not shadow the tokens the path grammar already claims.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")

_RESERVED_NAMES = frozenset(
    {
        "cell",
        "cells",
        *COORD_KEYS,
        "requests",
        "duration_s",
        "served_rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "mean_ms",
        "mean_batch_size",
        "failures",
        "shed",
        "swaps",
        "versions",
        "update_errors",
        "update_log_records",
        "fallback_stages",
        "vectorized_stages",
        "replicas",
        "resident_class_memory_bytes",
        "class_memory_shrink",
        "stream_sha1",
        "latency_histogram",
        "dropped",
        "appended_rows",
        "append_rows_per_s",
    }
)

_TOP_LEVEL_KEYS = frozenset(
    {"name", "seed", "apps", "backends", "configs", "shapes", "matrix", "cells", "exclude", "gates"}
)

_BACKEND_DEFAULTS = {
    "workers": ["cpu"],
    "shards": None,
    "replicas": 1,
    "transport": False,
    "clients": 4,
    "max_batch_size": 32,
    "max_wait_ms": 2.0,
}

_CONFIG_KEYS = frozenset({"binarize", "binarize_reduce", "perforations"})
_PERFORATION_KEYS = frozenset({"opcode", "begin", "end", "stride"})
_PERFORATABLE_OPCODES = frozenset({"matmul", "cossim", "hamming_distance", "l2norm"})

_TARGETS = frozenset(t.value for t in Target)


@dataclass(frozen=True)
class Cell:
    """One matrix cell: a coordinate on each of the four axes."""

    app: str
    backend: str
    config: str
    shape: str

    @property
    def cell_id(self) -> str:
        return f"{self.app}.{self.backend}.{self.config}.{self.shape}"

    def coords(self) -> Dict[str, str]:
        return {"app": self.app, "backend": self.backend, "config": self.config, "shape": self.shape}


@dataclass
class MatrixConfig:
    """A fully validated matrix config (see the module docstring)."""

    name: str
    apps: Dict[str, dict]
    backends: Dict[str, dict]
    configs: Dict[str, dict]
    shapes: Dict[str, dict]
    cells: List[Cell]
    gates: List[str] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def cell_ids(self) -> List[str]:
        return [cell.cell_id for cell in self.cells]


def _require_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MatrixConfigError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _check_name(name, axis: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise MatrixConfigError(
            f"invalid {axis} name {name!r}: names are lowercase [a-z0-9_-], no dots "
            f"(they become path segments in cell IDs and gate expressions)"
        )
    if name in _RESERVED_NAMES:
        raise MatrixConfigError(
            f"{axis} name {name!r} is reserved (it collides with a cell metric "
            f"or path token in gate expressions)"
        )
    return name


def _check_keys(spec: dict, allowed, what: str) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise MatrixConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {what} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _positive(spec: dict, key: str, what: str, integer: bool = False) -> None:
    value = spec.get(key)
    if value is None:
        return
    number_types = (int,) if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, number_types) or value <= 0:
        kind = "a positive integer" if integer else "a positive number"
        raise MatrixConfigError(f"{what}: {key!r} must be {kind}, got {value!r}")


def _parse_apps(section) -> Dict[str, dict]:
    apps = {}
    for name, spec in _require_mapping(section, "'apps'").items():
        _check_name(name, "app")
        spec = dict(_require_mapping(spec, f"app {name!r}"))
        kind = spec.get("kind")
        if kind not in CATALOG:
            raise MatrixConfigError(
                f"app {name!r}: unknown kind {kind!r} "
                f"(known kinds: {', '.join(sorted(CATALOG))})"
            )
        _check_keys(spec, set(CATALOG[kind].params) | {"kind"}, f"app {name!r} (kind {kind!r})")
        apps[name] = spec
    if not apps:
        raise MatrixConfigError("'apps' must define at least one app")
    return apps


def _parse_backends(section) -> Dict[str, dict]:
    backends = {}
    for name, spec in _require_mapping(section, "'backends'").items():
        _check_name(name, "backend")
        spec = dict(_require_mapping(spec, f"backend {name!r}"))
        _check_keys(spec, _BACKEND_DEFAULTS, f"backend {name!r}")
        merged = dict(_BACKEND_DEFAULTS)
        merged.update(spec)
        workers = merged["workers"]
        if not isinstance(workers, list) or not workers:
            raise MatrixConfigError(f"backend {name!r}: 'workers' must be a non-empty list")
        for worker in workers:
            if worker not in _TARGETS:
                raise MatrixConfigError(
                    f"backend {name!r}: unknown worker target {worker!r} "
                    f"(targets: {', '.join(sorted(_TARGETS))})"
                )
        shards = merged["shards"]
        if shards is not None and (isinstance(shards, bool) or not isinstance(shards, int) or shards < 2):
            raise MatrixConfigError(f"backend {name!r}: 'shards' must be an integer >= 2 or null")
        _positive(merged, "replicas", f"backend {name!r}", integer=True)
        if merged["replicas"] > 1 and merged["transport"]:
            raise MatrixConfigError(
                f"backend {name!r}: 'transport' is implied by 'replicas' > 1 "
                "(the replica group is always driven over its socket "
                "transports); drop the 'transport' flag"
            )
        _positive(merged, "clients", f"backend {name!r}", integer=True)
        _positive(merged, "max_batch_size", f"backend {name!r}", integer=True)
        _positive(merged, "max_wait_ms", f"backend {name!r}")
        backends[name] = merged
    if not backends:
        raise MatrixConfigError("'backends' must define at least one backend")
    return backends


def _parse_configs(section) -> Dict[str, dict]:
    configs = {}
    for name, spec in _require_mapping(section, "'configs'").items():
        _check_name(name, "config")
        spec = dict(_require_mapping(spec, f"config {name!r}"))
        _check_keys(spec, _CONFIG_KEYS, f"config {name!r}")
        for flag in ("binarize", "binarize_reduce"):
            if not isinstance(spec.get(flag, False), bool):
                raise MatrixConfigError(f"config {name!r}: {flag!r} must be a boolean")
        for index, perf in enumerate(spec.get("perforations", [])):
            what = f"config {name!r} perforation #{index + 1}"
            perf = _require_mapping(perf, what)
            _check_keys(perf, _PERFORATION_KEYS, what)
            if perf.get("opcode") not in _PERFORATABLE_OPCODES:
                raise MatrixConfigError(
                    f"{what}: unknown opcode {perf.get('opcode')!r} "
                    f"(perforatable: {', '.join(sorted(_PERFORATABLE_OPCODES))})"
                )
            stride = perf.get("stride", 1)
            if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
                raise MatrixConfigError(f"{what}: 'stride' must be an integer >= 1")
        configs[name] = spec
    if not configs:
        raise MatrixConfigError("'configs' must define at least one config (use {} for exact)")
    return configs


def _parse_shapes(section) -> Dict[str, dict]:
    shapes = {}
    for name, spec in _require_mapping(section, "'shapes'").items():
        _check_name(name, "shape")
        spec = dict(_require_mapping(spec, f"shape {name!r}"))
        kind = spec.get("kind")
        if kind not in SHAPE_KINDS:
            raise MatrixConfigError(
                f"shape {name!r}: unknown kind {kind!r} "
                f"(known kinds: {', '.join(sorted(SHAPE_KINDS))})"
            )
        allowed = set(SHAPE_KINDS[kind].params) | {"kind"}
        _check_keys(spec, allowed, f"shape {name!r} (kind {kind!r})")
        for key in SHAPE_KINDS[kind].params:
            integer = key in ("requests", "bursts", "burst_size", "periods", "clones", "updates", "update_batch", "appends", "append_rows")
            _positive(spec, key, f"shape {name!r}", integer=integer)
        merged = dict(SHAPE_KINDS[kind].params)
        merged.update(spec)
        if kind == "burst" and merged["requests"] <= merged["bursts"] * merged["burst_size"]:
            raise MatrixConfigError(
                f"shape {name!r}: 'requests' ({merged['requests']}) must exceed "
                f"bursts*burst_size ({merged['bursts']}*{merged['burst_size']}) — "
                f"there would be no baseline arrivals"
            )
        if merged.get("floor_fraction") is not None and not 0 < merged["floor_fraction"] <= 1:
            raise MatrixConfigError(f"shape {name!r}: 'floor_fraction' must be in (0, 1]")
        shapes[name] = merged
    if not shapes:
        raise MatrixConfigError("'shapes' must define at least one shape")
    return shapes


def _resolve_cells(data: dict, apps, backends, configs, shapes) -> List[Cell]:
    axes = {"apps": apps, "backends": backends, "configs": configs, "shapes": shapes}
    matrix = _require_mapping(data.get("matrix", {}), "'matrix'")
    _check_keys(matrix, axes, "'matrix'")
    selected = {}
    for axis, defined in axes.items():
        names = matrix.get(axis, sorted(defined))
        if not isinstance(names, list) or not names:
            raise MatrixConfigError(f"matrix.{axis} must be a non-empty list of names")
        for name in names:
            if name not in defined:
                raise MatrixConfigError(
                    f"matrix.{axis} references undefined name {name!r} "
                    f"(defined: {', '.join(sorted(defined))})"
                )
        selected[axis] = list(dict.fromkeys(names))

    cells = [
        Cell(app=a, backend=b, config=c, shape=s)
        for a in selected["apps"]
        for b in selected["backends"]
        for c in selected["configs"]
        for s in selected["shapes"]
    ]

    for index, excl in enumerate(data.get("exclude", [])):
        what = f"exclude #{index + 1}"
        excl = _require_mapping(excl, what)
        _check_keys(excl, COORD_KEYS, what)
        if not excl:
            raise MatrixConfigError(f"{what} is empty — it would exclude every cell")
        cells = [
            cell
            for cell in cells
            if not all(cell.coords()[key] == value for key, value in excl.items())
        ]

    for index, extra in enumerate(data.get("cells", [])):
        what = f"cells #{index + 1}"
        extra = _require_mapping(extra, what)
        _check_keys(extra, COORD_KEYS, what)
        missing = [key for key in COORD_KEYS if key not in extra]
        if missing:
            raise MatrixConfigError(f"{what} is missing coordinate(s): {', '.join(missing)}")
        for key, defined in (
            ("app", apps), ("backend", backends), ("config", configs), ("shape", shapes)
        ):
            if extra[key] not in defined:
                raise MatrixConfigError(
                    f"{what}: undefined {key} {extra[key]!r} "
                    f"(defined: {', '.join(sorted(defined))})"
                )
        cells.append(Cell(**extra))

    seen, duplicates = set(), []
    for cell in cells:
        if cell.cell_id in seen:
            duplicates.append(cell.cell_id)
        seen.add(cell.cell_id)
    if duplicates:
        raise MatrixConfigError(f"duplicate cell ID(s): {', '.join(sorted(set(duplicates)))}")
    if not cells:
        raise MatrixConfigError("the matrix resolves to zero cells (empty matrix)")

    for cell in cells:
        shape_kind = SHAPE_KINDS[shapes[cell.shape]["kind"]]
        app_kind = CATALOG[apps[cell.app]["kind"]]
        if shape_kind.retraining and not app_kind.updatable:
            raise MatrixConfigError(
                f"cell {cell.cell_id}: shape {cell.shape!r} replays online updates, "
                f"but app {cell.app!r} (kind {apps[cell.app]['kind']!r}) has no "
                f"update rule (updatable kinds: "
                f"{', '.join(sorted(k for k, v in CATALOG.items() if v.updatable))})"
            )
        if shape_kind.growing and not app_kind.appendable:
            raise MatrixConfigError(
                f"cell {cell.cell_id}: shape {cell.shape!r} applies shape-changing "
                f"appends, but app {cell.app!r} (kind {apps[cell.app]['kind']!r}) has "
                f"no append rule (appendable kinds: "
                f"{', '.join(sorted(k for k, v in CATALOG.items() if v.appendable))})"
            )
    return cells


def parse_config(data: dict, name: str = "matrix") -> MatrixConfig:
    """Validate a raw config mapping into a :class:`MatrixConfig`.

    Raises:
        MatrixConfigError: Any structural problem, with a message naming
            the offending key (see the module docstring for the rules).
    """
    data = _require_mapping(data, "the matrix config")
    _check_keys(data, _TOP_LEVEL_KEYS, "the matrix config")
    for section in ("apps", "backends", "configs", "shapes"):
        if section not in data:
            raise MatrixConfigError(f"the matrix config is missing the {section!r} section")

    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise MatrixConfigError(f"'seed' must be an integer, got {seed!r}")

    apps = _parse_apps(data["apps"])
    backends = _parse_backends(data["backends"])
    configs = _parse_configs(data["configs"])
    shapes = _parse_shapes(data["shapes"])
    cells = _resolve_cells(data, apps, backends, configs, shapes)

    gates = data.get("gates", [])
    if not isinstance(gates, list):
        raise MatrixConfigError("'gates' must be a list of threshold expressions")
    for expression in gates:
        try:
            Threshold(expression)
        except GateError as exc:
            raise MatrixConfigError(f"malformed gate: {exc}") from exc

    return MatrixConfig(
        name=str(data.get("name", name)),
        apps=apps,
        backends=backends,
        configs=configs,
        shapes=shapes,
        cells=cells,
        gates=list(gates),
        seed=seed,
    )


def load_config(path) -> MatrixConfig:
    """Load and validate a matrix config file (JSON).

    Raises:
        MatrixConfigError: The file is unreadable, unparsable, or fails
            validation.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, name=path.stem)


def build_approximation(spec: dict):
    """An :class:`~repro.transforms.pipeline.ApproximationConfig` for one
    validated config spec, or ``None`` for the exact (empty) preset."""
    from repro.transforms.perforation import PerforationSpec
    from repro.transforms.pipeline import ApproximationConfig

    perforations = tuple(
        PerforationSpec(
            opcode=perf["opcode"],
            begin=int(perf.get("begin", 0)),
            end=None if perf.get("end") is None else int(perf["end"]),
            stride=int(perf.get("stride", 1)),
        )
        for perf in spec.get("perforations", [])
    )
    config = ApproximationConfig(
        binarize=bool(spec.get("binarize", False)),
        binarize_reduce=bool(spec.get("binarize_reduce", False)),
        perforations=perforations,
    )
    return None if config.is_identity else config
