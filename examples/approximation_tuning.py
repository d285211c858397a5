"""Sweep the Table 3 approximation settings on HD-Classification inference.

A scaled-down version of the Figure 7 study: the same traced HDC++ program
is compiled under the ten optimization settings of Table 3 (similarity
choice, automatic binarization, reduction perforation) and the script
prints accuracy, wall-clock speedup over the baseline, and the number of
application source lines each setting needs — the programmability argument
of Section 5.4 (a compiler option or 1-2 lines instead of hours of manual
CUDA rewriting).

Run with:  python examples/approximation_tuning.py
"""

from __future__ import annotations

from repro.evaluation import EvaluationScale, fig7_optimizations, table3_settings


def main() -> None:
    # A reduced dimension keeps the sweep quick; use EvaluationScale.default()
    # (or .paper()) for the larger settings benchmarks/bench_fig7_optimizations.py runs.
    scale = EvaluationScale(
        name="example", fig7_dim=4096, fig7_train=600, fig7_test=200, isolet_train=600, isolet_test=200
    )

    print("=== Table 3 settings ===")
    for setting in table3_settings(scale.fig7_dim):
        print(f"  {setting.id:>4s}  {setting.name:50s} ({setting.loc_changes} LoC changes)")

    print("\n=== Figure 7: speedup vs accuracy on GPU inference ===")
    result = fig7_optimizations(scale, target="gpu", repeats=2)
    print(result.format())
    print(
        "\nReading the table: the binarized Hamming settings (III, VII, VIII) keep accuracy at the "
        "baseline level, while perforating the encoding matmul (V, VI, IX) trades accuracy for speed."
    )


if __name__ == "__main__":
    main()
