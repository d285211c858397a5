"""One workload in one fresh interpreter (spawned by run.py).

Prints every metric by name with its unit, writes the full result
document under ``out/``, and ends standard output with one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero when
any answer missed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

#: Noise control 1: BLAS spin-threads otherwise fight the two load-generator
#: threads for the two cores.  run.py sets these in the child's environment;
#: the defaults here cover a direct launch.  Must precede the NumPy import.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ.setdefault(_name, "1")

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

#: Seconds of set-up time within which a cheap set-up keeps being repeated.
SETUP_BUDGET_S = 0.5
#: Onion batches replayed per ring in the traced run, sized so the traced
#: run of each workload stays under ~20 s.
ONION_BATCHES = {"relhd_sat": 200, "oms_packed_sat": 32, "wire_rw": 120, "retarget_sweep": 120}


def measure_window(workload, calibrator, corrupt_oracle: bool) -> tuple:
    """Cold set-ups (median reported, the last kept), then the window.

    A set-up of a few milliseconds is repeated beyond ``setup_repeats``,
    up to five times as often within ``SETUP_BUDGET_S``: its median then
    rests on enough samples to hold still from run to run.  Each set-up
    has a calibrator burst before and after it and is reported in
    reference-speed seconds, like every other time.
    """
    setups, raw = [], []
    before = calibrator.burst()
    while len(setups) < workload.setup_repeats or (
        len(setups) < 5 * workload.setup_repeats and sum(raw) < SETUP_BUDGET_S
    ):
        if setups:
            workload.tear_down()
            before = calibrator.burst()
        start = time.perf_counter()
        workload.set_up()
        raw.append(time.perf_counter() - start)
        after = calibrator.burst()
        setups.append(raw[-1] / ((before + after) / 2.0))
    if corrupt_oracle:
        corrupt(workload)
    try:
        result = workload.run(calibrator)
    finally:
        workload.tear_down()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return setups, raw, result, peak_rss_mb


def corrupt(workload) -> None:
    """Test hook: falsify the oracle, so the run must report misses."""
    if isinstance(workload, workloads.RetargetSweep):
        workload.baseline[("relhd", "cpu")] = 2.0
    elif isinstance(workload, workloads.WireRW):
        extend = workload.extend_oracle

        def falsified(writes: int) -> None:
            extend(writes)
            for version in workload.expected:
                version[:, 0] = -1

        workload.extend_oracle = falsified
    else:
        workload.expected = workload.expected + 1


def window_document(result, setups, raw_setups, calibrator) -> dict:
    document = {
        "setup_seconds": setups,
        "raw_setup_seconds": raw_setups,
        "window_s": result.window_s,
        "calls": len(result.raw_latencies),
        "slices": len(result.slowness),
        "latency_segments": len(result.segment_latencies),
        "slowness": result.slowness,
        "slowness_median": statistics.median(result.slowness),
        "calibrator_s": calibrator.seconds,
        "segment_rps": result.segment_rps,
        "segment_rps_iqr_share": _iqr_share(result.segment_rps),
        "segment_cpu_us_per_op": result.segment_cpu_us,
        "segment_cpu_iqr_share": _iqr_share(result.segment_cpu_us),
        "raw_p50_ms": harness.percentile(result.raw_latencies, 50) * 1e3,
        "raw_p95_ms": harness.percentile(result.raw_latencies, 95) * 1e3,
        "schedule_sha1": result.schedule_sha1,
        "notes": result.notes,
    }
    if len(result.raw_latencies) >= 1000:
        pooled = np.concatenate(result.segment_latencies)
        document["p99_ms"] = harness.percentile(pooled, 99) * 1e3
    return document


def _iqr_share(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "layers", "both"), default="e2e")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corrupt-oracle", action="store_true")
    parser.add_argument("--pin", action="store_true", help="confine the process to one CPU")
    args = parser.parse_args(argv)

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    name = args.workload
    environment = {key: os.environ.get(key) for key in (*BLAS_ENV, "PYTHONHASHSEED")}
    # Noise control 2: one CPU for the server, the generators and the
    # calibrator alike (run.py asks for it; the tier-1 smoke, which runs
    # its children side by side, does not).
    environment["pinned_cpu"] = harness.pin_to_one_cpu() if args.pin else None
    print(f"# {name} seed={args.seed} seconds={args.seconds:g} scale={args.scale:g} mode={args.mode}")
    print("# " + " ".join(f"{key}={value}" for key, value in environment.items())
          + f" numpy={np.__version__} python={sys.version.split()[0]}")

    workload = workloads.WORKLOADS[name](args.seed, args.seconds, args.scale)
    document = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "environment": environment,
    }
    metrics = {}
    attempted = failed = 0

    if args.mode in ("e2e", "both"):
        calibrator = harness.Calibrator()
        setups, raw_setups, result, peak_rss_mb = measure_window(
            workload, calibrator, args.corrupt_oracle
        )
        end_to_end = workloads.end_to_end_metrics(result, setups, peak_rss_mb)
        metrics.update(end_to_end)
        attempted += result.attempted
        failed += result.failed
        window = window_document(result, setups, raw_setups, calibrator)
        document["window"] = window
        print(f"# window {window['window_s']:.2f} s, {window['calls']} calls in {window['slices']} slices "
              f"({window['latency_segments']} latency segments), "
              f"segment IQR/median rps {window['segment_rps_iqr_share']:.3f} "
              f"cpu {window['segment_cpu_iqr_share']:.3f}")
        print(f"# machine slowness (1 = nominal) median {window['slowness_median']:.3f}, "
              f"range {min(result.slowness):.3f}-{max(result.slowness):.3f}; "
              f"calibrator ran {calibrator.seconds:.2f} s; times below are reference-speed, "
              f"as measured: p50 {window['raw_p50_ms']:.4f} ms, p95 {window['raw_p95_ms']:.4f} ms")
        print(f"# loadgen.schedule_sha1 {result.schedule_sha1}")
        if "p99_ms" in window:
            print(f"# p99_ms {window['p99_ms']:.4f} ms (diagnostic, all calls pooled)")

    if args.mode in ("layers", "both"):
        recorder = harness.SpanRecorder()
        reps = probes.Reps.for_scale(ONION_BATCHES[name], args.scale)
        context = workload.probe_context(args.seed, reps.batches)
        layers, rows, wrong = probes.run_probes(context, reps, recorder)
        metrics.update(layers)
        attempted += rows
        failed += wrong
        trace_path = os.path.join(workloads.OUT_DIR, f"{name}.trace.json")
        with open(trace_path, "w") as handle:
            json.dump(recorder.chrome_trace(probes.RINGS), handle)
        print(f"# trace {os.path.relpath(trace_path)} ({len(recorder.spans)} spans)")

    for metric, (value, unit) in metrics.items():
        print(f"{name:16s} {metric:48s} {value:14.4f} {unit}")

    correct = failed == 0
    document.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics={metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    )
    with open(os.path.join(workloads.OUT_DIR, f"{name}.{args.mode}.json"), "w") as handle:
        json.dump(document, handle, indent=1, default=float)
    print(json.dumps(
        {
            "correct": correct,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                metric: {"value": float(value), "unit": unit}
                for metric, (value, unit) in metrics.items()
            },
        }
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
