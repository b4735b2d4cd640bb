"""Infill criteria and their optimization over the search box.

Two model-based criteria are supported: the predicted value (greedy, lower is
better) and expected improvement (explorative, higher is better), plus a
uniform random proposal as baseline. Model-based proposals run differential
evolution with exactly 1000 model evaluations per search dimension. Each
such proposal builds one ``kriging.Query`` for the model, sized to the search
population, and every generation of the search reuses it: the predicted value
asks it only for means, expected improvement for means and variances, which
``improvement_from_moments``, the one place the expected improvement is
computed, turns into the criterion.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import de
from .design import BoxBounds, uniform_random
from .kriging import KrigingModel, Query
# Not called here, but the benchmark's tracer (perfbench/tracer.py) patches
# this name when it installs, so it must stay importable from this module.
from .kriging import predict_batch  # noqa: F401
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


def improvement_from_moments(means, variances, y_best: float):
    """Expected improvement over y_best given Gaussian prediction moments.

    With m the mean, s the standard deviation and z = (y_best - m) / s:
    ``EI = (y_best - m) * Phi(z) + s * phi(z)``, and ``max(y_best - m, 0)``
    in the deterministic limit s -> 0, elementwise over arrays.
    """
    means = np.asarray(means, dtype=float)
    stds = np.sqrt(np.asarray(variances, dtype=float))
    shortfall = y_best - means
    deterministic = np.maximum(shortfall, 0.0)
    vanishing = stds < DETERMINISTIC_STD
    safe_stds = np.where(vanishing, 1.0, stds)
    z = shortfall / safe_stds
    stochastic = shortfall * standard_normal_cdf(z) + safe_stds * standard_normal_pdf(z)
    return np.where(vanishing, deterministic, np.maximum(stochastic, 0.0))


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

    # One query workspace serves every generation of the search, and one
    # errstate silences the log(0) of every generation's kernel.
    query = Query(model, de.population_size(bounds.dimension))
    if criterion is InfillCriterion.PREDICTED_VALUE:
        objective = query.search_means
    else:

        def objective(points: np.ndarray) -> np.ndarray:
            return -improvement_from_moments(*query.search_moments(points), y_best)

    with np.errstate(divide="ignore"):
        return de.minimize(objective, bounds, MODEL_EVALS_PER_DIMENSION * bounds.dimension, seed)
