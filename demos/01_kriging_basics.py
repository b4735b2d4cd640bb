"""Fit a Kriging surrogate to a handful of 1-d samples and look at what it believes.

The model interpolates the training points (tiny nugget) and its predictive
standard deviation collapses there while growing in the gaps: exactly the
uncertainty signal the expected-improvement criterion feeds on.
"""

import numpy as np

from infillbench import Dataset, fit, predict_batch


def target(x):
    return np.sin(3.0 * x) + 0.5 * x


def bar(width):
    return "#" * max(1, int(width))


def main():
    rng = np.random.default_rng(0)
    train_x = np.sort(rng.uniform(-2.0, 2.0, 7))[:, None]
    train_y = target(train_x[:, 0])

    model = fit(Dataset(train_x, train_y), seed=42)
    print("fitted hyperparameters")
    print(f"  theta  = {np.array2string(model.params.theta, precision=4)}")
    print(f"  power  = {np.array2string(model.params.power, precision=4)}")
    print(f"  nugget = {model.params.nugget:.2e}")
    print(f"  process mean {model.mu_hat:+.4f}, variance {model.sigma2_hat:.4f}\n")

    print("training points are reproduced almost exactly:")
    for x, y, mean in zip(train_x, train_y, predict_batch(model, train_x)[0]):
        print(f"  x={x[0]:+.3f}  y={y:+.5f}  model={mean:+.5f}  |err|={abs(mean - y):.2e}")

    print("\nprediction sweep (std shown as bars; note the dips at the samples):")
    sweep = np.linspace(-2.2, 2.2, 23)
    for x, mean, variance in zip(sweep, *predict_batch(model, sweep[:, None])):
        std = np.sqrt(variance)
        marker = " <- sample" if np.any(np.abs(train_x[:, 0] - x) < 0.1) else ""
        print(f"  x={x:+.2f}  mean={mean:+.4f}  std={std:.4f} {bar(60 * std)}{marker}")


if __name__ == "__main__":
    main()
