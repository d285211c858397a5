"""The repo's end-to-end benchmark: four workloads, one command.

    python benchmarks/e2e/run.py --seed S [--trace] [--repeat N]

runs the four workloads of ``BENCHMARK.json`` one after another, each in
a fresh child interpreter, prints every metric by name with its unit,
checks every response against an oracle and exits non-zero on any
mismatch.  ``--trace`` adds the per-layer run; ``--repeat N`` runs the
whole benchmark N times (seed, seed+1, ...) and checks the spread of
every end-to-end metric against its bound.

    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

is the single-workload form the benchmark driver calls: its last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

This parent never imports NumPy: it sets the BLAS thread variables in
the child's environment before NumPy loads there (noise control 1).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20251001
#: One child must end well inside the driver's 180 s limit.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, mode: str, scale: float,
              corrupt_oracle: bool = False, capture: bool = False):
    """Run one workload in a fresh interpreter; returns (exit code, stdout)."""
    environment = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        environment[name] = "1"
    # Randomized str hashing lays every dict out differently per process;
    # pinning it removes one source of run-to-run drift.
    environment["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--scale", str(scale), "--pin",
    ]
    if corrupt_oracle:
        command.append("--corrupt-oracle")
    completed = subprocess.run(
        command,
        env=environment,
        stdout=subprocess.PIPE if capture else None,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return completed.returncode, completed.stdout


def spread_table(bench: dict, runs: list) -> bool:
    """Print median, quartiles and (max - min) / median per (workload,
    end-to-end metric) against the metric's bound; returns whether every
    spread held."""
    held = True
    print(f"\n{'workload':16s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
    for workload in (entry["name"] for entry in bench["workloads"]):
        for metric in bench["end_to_end"]:
            values = [run[workload][metric["name"]]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / median
            spread = (max(values) - min(values)) / median
            # Set-up time is compared median against median only; its
            # single-run spread is reported, not gated.
            ok = spread <= metric["bound"] or metric["name"] == "setup_s"
            held &= ok
            print(f"{workload:16s} {metric['name']:14s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{iqr:8.4f} {spread:9.4f} {metric['bound']:6.2f}{'' if ok else '  EXCEEDED'}")
    return held


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload (the driver's form)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0, help="multiply the window length (smoke: 0.005)")
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no program to measure under {ROOT} (src/repro or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    names = [entry["name"] for entry in bench["workloads"]]

    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r} (have {names})")
        code, _ = run_child(args.workload, args.seed, seconds, "layers" if args.trace else "e2e",
                            args.scale, args.corrupt_oracle)
        return code

    status = 0
    runs = []
    for repeat in range(args.repeat):
        run = {}
        for workload in names:
            code, output = run_child(workload, args.seed + repeat, seconds,
                                     "both" if args.trace else "e2e", args.scale,
                                     args.corrupt_oracle, capture=True)
            sys.stdout.write(output)
            sys.stdout.flush()
            if code != 0:
                status = 1
            lines = output.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                run[workload] = json.loads(lines[-1])["metrics"]
        runs.append(run)
    if status:
        print("\nFAILED: a workload missed its oracle or did not finish", file=sys.stderr)
        return status
    if args.repeat > 1 and not spread_table(bench, runs):
        print("\nFAILED: a spread exceeded its bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
