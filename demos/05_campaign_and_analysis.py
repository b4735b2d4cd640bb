"""A miniature benchmark campaign, end to end.

Runs expected improvement, predicted value, and random search on two
instances of 2-d Rastrigin, then feeds the logs through the statistical
pipeline: per-checkpoint Wilcoxon domination cells, median/quartile curves,
and the rule-based criterion recommendation. At this tiny scale almost no
cell reaches significance; the full acceptance suite runs the real thing.

Writes its artifacts to ./demo_campaign/ (safe to delete).
"""

from pathlib import Path

from infillbench import CampaignConfig, recommend_criterion, run_campaign
from infillbench.analysis import domination_matrix, format_domination_summary, quartile_curves
from infillbench.smbo import read_run_logs


def main():
    out_dir = Path("demo_campaign")
    config = CampaignConfig(
        functions=(3,),
        dimensions=(2,),
        instances=(1, 2),
        criteria=("ei", "pm", "random"),
        total_budget=30,
        base_seed=2024,
        output_dir=str(out_dir),
        mle_evals_per_param=100,  # light fits keep this demo quick
    )
    result = run_campaign(config)
    print(f"executed {len(result.executed)} runs, reused {len(result.skipped)}; "
          f"manifest: {result.manifest_path}\n")

    logs = read_run_logs(out_dir)
    cells = domination_matrix(logs)
    print("domination cells (winner needs p < 0.05 AND the smaller median):")
    for cell in cells:
        print(f"  f{cell.function_id} d={cell.dimension} @ {cell.checkpoint:>3} evals: "
              f"winner={cell.winner:<5} p={cell.p_value:.3f}")
    print()
    print(format_domination_summary(cells))

    print("\nmedian best-gap trajectories:")
    for (fid, dim, criterion), curve in quartile_curves(logs).items():
        medians = "  ".join(f"{m:8.3f}" for m in curve.median)
        print(f"  f{fid} d{dim} {criterion.value:<6} at {curve.checkpoints}: {medians}")

    print("\nwhich criterion should you use?")
    for dimension, budget, modality in ((2, 300, "multimodal"), (10, 300, "unknown"), (2, 50, "unknown")):
        rec = recommend_criterion(dimension, budget, modality)
        print(f"  d={dimension:>2}, budget={budget:>3}, {modality:<10} -> "
              f"{rec.criterion.value.upper():<3} ({rec.rationale})")


if __name__ == "__main__":
    main()
