"""Compare the two infill criteria on the same surrogate.

The predicted value simply chases the model minimum; expected improvement
trades that off against uncertainty, so it can prefer an unexplored region
over the incumbent basin. The closing section shows where each criterion
would actually place the next sample.
"""

import numpy as np

from infillbench import BoxBounds, Dataset, InfillCriterion, fit, predict_batch, propose
from infillbench.infill import improvement_from_moments


def target(x):
    return (x - 0.25) ** 2 + 0.2 * np.sin(15.0 * x)


def main():
    # samples cover the left basin densely; the right half is unexplored
    train_x = np.array([0.02, 0.08, 0.14, 0.2, 0.26, 0.32, 0.38, 0.44, 0.5])[:, None]
    train_y = target(train_x[:, 0])
    model = fit(Dataset(train_x, train_y), seed=7)
    y_best = float(train_y.min())
    print(f"best observed value so far: {y_best:+.4f}\n")

    print("   x     model mean   EI(x)")
    grid = np.linspace(0.0, 1.0, 21)
    means, variances = predict_batch(model, grid[:, None])
    for x, mean, ei in zip(grid, means, improvement_from_moments(means, variances, y_best)):
        tag = " <- data here" if x <= 0.5 else ""
        print(f"  {x:.2f}   {mean:+.4f}   {ei:.5f}{tag}")

    bounds = BoxBounds([0.0], [1.0])
    pm_pick = propose(model, InfillCriterion.PREDICTED_VALUE, bounds, y_best, seed=1)
    ei_pick = propose(model, InfillCriterion.EXPECTED_IMPROVEMENT, bounds, y_best, seed=1)
    print(f"\npredicted value proposes      x = {pm_pick[0]:.4f} (greedy)")
    print(f"expected improvement proposes x = {ei_pick[0]:.4f} (explores the gap)")
    print(f"true objective there: pm -> {target(pm_pick[0]):+.4f}, ei -> {target(ei_pick[0]):+.4f}")


if __name__ == "__main__":
    main()
