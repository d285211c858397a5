"""Tier-1 smoke of the end-to-end benchmark.

Runs all four workloads with windows cut 200x — window and per-layer
probes in one child each, the children side by side.  No timing
asserts: the output must parse, carry every metric ``BENCHMARK.json``
lists exactly once per workload with its unit, meet every oracle, and a
falsified oracle must turn the exit status non-zero.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCH["workloads"]]
SMOKE = ["--seconds", str(BENCH["run_seconds"]), "--scale", "0.005"]


def _child(workload: str, *extra: str, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), *SMOKE, *extra],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every workload in ``both`` mode, plus ``relhd_sat`` on a falsified
    oracle (same seed) and on another seed."""
    with ThreadPoolExecutor(max_workers=len(WORKLOADS) + 2) as pool:
        corrupted = pool.submit(_child, "relhd_sat", "--corrupt-oracle")
        other_seed = pool.submit(_child, "relhd_sat", seed=8)
        completed = dict(zip(WORKLOADS, pool.map(lambda w: _child(w, "--mode", "both"), WORKLOADS)))
        completed["corrupted"] = corrupted.result()
        completed["other_seed"] = other_seed.result()
    return completed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_once_with_its_unit(runs, workload):
    completed = runs[workload]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = {metric["name"]: metric["unit"] for metric in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert len(listed) == len(BENCH["end_to_end"]) + len(BENCH["per_layer"])
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == listed
    for name in listed:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        # Printed by name exactly once per workload in the readable part too.
        printed = re.findall(rf"^{re.escape(workload)}\s+{re.escape(name)}\s", completed.stdout, re.M)
        assert len(printed) == 1, name
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_schedule_is_a_function_of_the_seed(runs):
    def sha1(key: str) -> str:
        return re.search(r"loadgen.schedule_sha1 (\w+)", runs[key].stdout).group(1)

    assert sha1("relhd_sat") == sha1("corrupted")
    assert sha1("relhd_sat") != sha1("other_seed")


def test_falsified_oracle_fails_the_run(runs):
    completed = runs["corrupted"]
    assert completed.returncode != 0
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0
