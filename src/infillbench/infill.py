"""Infill criteria and their optimization over the search box.

Two model-based criteria are supported: the predicted value (greedy, lower is
better) and expected improvement (explorative, higher is better), plus a
uniform random proposal as baseline. Model-based proposals run differential
evolution with exactly 1000 model evaluations per search dimension.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import de
from .design import BoxBounds, uniform_random
from .kriging import KrigingModel, predict, predict_batch
from .numerics import standard_normal_cdf, standard_normal_pdf

MODEL_EVALS_PER_DIMENSION = 1000

# Below this predictive standard deviation the improvement is treated as
# deterministic, avoiding division by a vanishing spread.
DETERMINISTIC_STD = 1.0e-12


class InfillCriterion(str, Enum):
    EXPECTED_IMPROVEMENT = "ei"
    PREDICTED_VALUE = "pm"
    RANDOM_SEARCH = "random"

    @property
    def model_based(self) -> bool:
        return self is not InfillCriterion.RANDOM_SEARCH


def predicted_value_score(model: KrigingModel, x: np.ndarray) -> float:
    """Surrogate mean at x; the greedy criterion minimizes this directly."""
    return predict(model, x)[0]


def improvement_from_moments(means, variances, y_best: float):
    """Expected improvement over y_best given Gaussian prediction moments.

    With m the mean, s the standard deviation and z = (y_best - m) / s:
    ``EI = (y_best - m) * Phi(z) + s * phi(z)``, and ``max(y_best - m, 0)``
    in the deterministic limit s -> 0. Vectorizes over arrays.
    """
    means = np.asarray(means, dtype=float)
    stds = np.sqrt(np.asarray(variances, dtype=float))
    shortfall = y_best - means
    deterministic = np.maximum(shortfall, 0.0)
    safe_stds = np.where(stds < DETERMINISTIC_STD, 1.0, stds)
    z = shortfall / safe_stds
    stochastic = shortfall * standard_normal_cdf(z) + safe_stds * standard_normal_pdf(z)
    ei = np.where(stds < DETERMINISTIC_STD, deterministic, np.maximum(stochastic, 0.0))
    return float(ei) if ei.ndim == 0 else ei


def expected_improvement(model: KrigingModel, x: np.ndarray, y_best: float) -> float:
    """Expected improvement of a single candidate over the best observed value."""
    mean, variance = predict(model, x)
    return improvement_from_moments(mean, variance, y_best)


def propose(
    model: KrigingModel | None,
    criterion: InfillCriterion,
    bounds: BoxBounds,
    y_best: float,
    seed: int,
) -> np.ndarray:
    """Next evaluation point according to the criterion; always inside bounds.

    Deterministic per seed. Random search draws one uniform point without
    touching the model; the model-based criteria spend exactly
    ``1000 * d`` surrogate evaluations on their inner search.
    """
    if criterion is InfillCriterion.RANDOM_SEARCH:
        return uniform_random(1, bounds, seed)[0]
    if model is None:
        raise ValueError(f"criterion {criterion.value!r} needs a fitted model")

    if criterion is InfillCriterion.PREDICTED_VALUE:

        def objective(points: np.ndarray) -> np.ndarray:
            return predict_batch(model, points)[0]

    else:

        def objective(points: np.ndarray) -> np.ndarray:
            means, variances = predict_batch(model, points)
            return -improvement_from_moments(means, variances, y_best)

    return de.minimize(objective, bounds, MODEL_EVALS_PER_DIMENSION * bounds.dimension, seed).x_best
