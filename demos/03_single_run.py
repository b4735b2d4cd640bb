"""One complete optimization run on a shifted 2-d Rastrigin instance.

Ten Latin-hypercube samples seed the surrogate, then each iteration fits a
fresh model and evaluates the expected-improvement proposal. The log tracks
the best-so-far gap to the known optimum and the distance of every proposal
to its nearest predecessor (small steps = exploitation, large = exploration).
"""

import numpy as np

from infillbench import InfillCriterion, RunConfig, make_instance, run


def main():
    config = RunConfig(
        function_id=3,       # Rastrigin: multimodal, separable
        dimension=2,
        instance_id=1,
        infill=InfillCriterion.EXPECTED_IMPROVEMENT,
        total_budget=40,
        initial_design_size=10,
        seed=11,
    )
    log = run(config)
    print(f"instance optimum f_opt = {make_instance(3, 2, 1).f_opt:+.2f}\n")
    print("iter   y-f_opt    best gap   step distance   fit -log likelihood")
    for r in log.records:
        nn = "      -" if r.nn_distance is None else f"{r.nn_distance:7.3f}"
        nll = "        -" if r.model_nll is None else f"{r.model_nll:9.2f}"
        phase = "design" if r.iteration <= 10 else "model "
        print(f"  {r.iteration:3d}  {r.gap:9.4f}  {r.best_gap:9.4f}  {nn}         {nll}  {phase}")

    best = min(log.records, key=lambda r: r.gap)
    print(f"\nbest point found: {np.array2string(best.x, precision=4)} "
          f"with gap {best.gap:.4f} at iteration {best.iteration}")


if __name__ == "__main__":
    main()
