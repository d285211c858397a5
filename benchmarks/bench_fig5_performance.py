"""Figure 5 — HPVM-HDC performance on CPU and GPU vs hand-written baselines.

Regenerates the relative-speedup bars of Figure 5: every application is run
both through the HPVM-HDC reproduction (compiled from the single HDC++
source) and through its per-target baseline, and the harness prints the
per-application relative speedups plus the geometric mean that the paper
summarizes (1.17x on the GPU against CUDA baselines).  The cases iterate
``repro.evaluation.applications.APPLICATIONS``: one per (application, target
the paper has a baseline for), on the dataset the report's row uses.
"""

from __future__ import annotations

import pytest

from repro.evaluation import fig5_performance
from repro.evaluation.applications import APPLICATIONS


@pytest.mark.parametrize(
    "row, target",
    [pytest.param(row, style, id=f"{row.name}-{style}") for row in APPLICATIONS for style in row.baselines],
)
def test_application(benchmark, scale, row, target):
    dataset = row.dataset(scale)
    app = row.instance(scale, dataset)
    result = benchmark.pedantic(lambda: app.run(dataset, target=target), rounds=1, iterations=1)
    benchmark.extra_info[result.quality_metric] = result.quality
    benchmark.extra_info["target"] = target


def test_fig5_report(benchmark, scale, capsys):
    """Run the full Figure 5 comparison (HPVM-HDC vs baselines) and print it."""
    result = benchmark.pedantic(lambda: fig5_performance(scale), rounds=1, iterations=1)
    with capsys.disabled():
        print("\n=== Figure 5: relative speedup over baseline codes ===")
        print(result.format())
        print(
            f"Paper reference: geomean GPU speedup 1.17x over CUDA baselines, "
            f"CPU comparisons against interpreted Python.\n"
            f"Measured here: CPU geomean {result.cpu_geomean:.2f}x, GPU geomean {result.gpu_geomean:.2f}x"
        )
