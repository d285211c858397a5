"""Figure 6 — HDC accelerators vs an NVIDIA Jetson AGX Orin (device-only).

Regenerates the Figure 6 comparison: the stage-mapped rows of
``repro.evaluation.applications.APPLICATIONS`` (HD-Classification and
HD-Clustering) compiled for the digital HDC ASIC and the ReRAM accelerator
simulators, with device-only latency compared against the Jetson Orin
edge-GPU model, which prices the device rows of each run's stage profile
(each case records those rows' device and Jetson milliseconds in
``extra_info["stages"]``).  The paper's qualitative result — both
accelerators beat the edge GPU, the speedup is larger for
HD-Classification (training-dominated), and the ReRAM accelerator is the
fastest — is asserted by the report benchmark.
"""

from __future__ import annotations

import pytest

from repro.accelerators import JetsonOrinModel
from repro.evaluation import fig6_accelerators
from repro.evaluation.applications import APPLICATIONS


@pytest.mark.parametrize(
    "row, target",
    [pytest.param(row, t, id=f"{row.name}-{t}") for row in APPLICATIONS for t in row.accelerators],
)
def test_application_on_accelerator(benchmark, scale, row, target):
    dataset = row.dataset(scale)
    app = row.instance(scale, dataset)
    result = benchmark.pedantic(lambda: app.run(dataset, target=target), rounds=1, iterations=1)
    benchmark.extra_info["device_only_ms"] = result.report.device_seconds * 1e3
    benchmark.extra_info[result.quality_metric] = result.quality
    benchmark.extra_info["energy_joules"] = result.report.energy_joules
    # Where the pair's modelled time goes, stage by stage (recorded, not
    # asserted): each device row's own seconds, and the edge GPU's for it.
    jetson = JetsonOrinModel()
    benchmark.extra_info["stages"] = [
        {
            "stage": entry["stage"],
            "device_ms": entry["device"]["device_seconds"] * 1e3,
            "jetson_ms": jetson.profile_time([entry]) * 1e3,
        }
        for entry in result.report.notes["stage_profile"]
        if entry["route"] == "device"
    ]


def test_fig6_report(benchmark, scale, capsys):
    result = benchmark.pedantic(lambda: fig6_accelerators(scale), rounds=1, iterations=1)
    with capsys.disabled():
        print("\n=== Figure 6: accelerator device-only speedup over Jetson Orin ===")
        print(result.format())
        print(
            "Paper reference: both accelerators outperform the Jetson Orin; the speedup is "
            "larger for HD-Classification than HD-Clustering and the ReRAM accelerator is fastest."
        )
    # The qualitative shape of Figure 6 must hold.
    assert all(row.speedup > 1.0 for row in result.rows)
    classification = [r.speedup for r in result.rows if r.app == "HD-Classification"]
    clustering = [r.speedup for r in result.rows if r.app == "HD-Clustering"]
    assert max(classification) >= max(clustering)
