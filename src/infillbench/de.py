"""Differential evolution (rand/1/bin) with exact evaluation accounting.

This is the single inner optimizer used both for hyperparameter likelihood
search and for optimizing infill criteria over the search box. Its settings
are fixed here: differential weight 0.8, crossover rate 0.9 and a population
of ``min(10 * dimension, 50)``; each call chooses only its budget and seed.
Selection is generation-synchronous: every trial in a generation is built
from the previous population, then replacements happen in member order. The
objective is batch-shaped: it maps an (m, d) array of points to m values, one
call per generation. Out-of-box trial components are clamped to the violated
bound. The run consumes exactly ``budget`` objective evaluations (one per
row), stopping mid-population or mid-generation if needed.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .design import BoxBounds

NONFINITE_PENALTY = 1.0e10
DIFFERENTIAL_WEIGHT = 0.8
CROSSOVER_RATE = 0.9


class DEResult(NamedTuple):
    x_best: np.ndarray
    f_best: float
    evaluations_used: int


def _sanitize(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, NONFINITE_PENALTY)


def minimize(
    objective: Callable[[np.ndarray], np.ndarray], bounds: BoxBounds, budget: int, seed: int
) -> DEResult:
    """Minimize a black-box objective over a box; returns the best point evaluated.

    ``objective`` evaluates an (m, d) array of points in one call and returns
    m values; each row counts as one evaluation, and non-finite values are
    replaced by NONFINITE_PENALTY. A budget below the population evaluates
    only that many initial members. Deterministic for a fixed budget and seed.
    """
    if budget < 1:
        raise ValueError("budget must be at least one evaluation")
    rng = np.random.default_rng(seed)
    d = bounds.dimension
    n_pop = min(10 * d, 50)  # at least 10 >= 4, so rand/1 finds three partners

    population = rng.uniform(bounds.lower, bounds.upper, size=(n_pop, d))
    evaluations = min(budget, n_pop)
    fitness = _sanitize(objective(population[:evaluations]))

    best_index = int(np.argmin(fitness))
    x_best = population[best_index].copy()
    f_best = float(fitness[best_index])

    member_range = np.arange(n_pop)
    while evaluations < budget:
        # Trials for the full generation are always generated (three distinct
        # partners per member via random sort keys, then binomial crossover)
        # so the random stream does not depend on where the budget runs out.
        # The copy frees the sort keys and order before the objective runs.
        partners = np.argsort(rng.random((n_pop, n_pop - 1)), axis=1)[:, :3].copy()
        partners += partners >= member_range[:, None]  # skip the member itself
        r1, r2, r3 = (population[partners[:, k]] for k in range(3))
        mutants = np.clip(r1 + DIFFERENTIAL_WEIGHT * (r2 - r3), bounds.lower, bounds.upper)
        mask = rng.random((n_pop, d)) < CROSSOVER_RATE
        mask[member_range, rng.integers(d, size=n_pop)] = True
        trials = np.where(mask, mutants, population)

        take = min(n_pop, budget - evaluations)
        trial_fitness = _sanitize(objective(trials[:take]))
        evaluations += take

        improved = trial_fitness <= fitness[:take]
        rows = member_range[:take][improved]
        population[rows] = trials[rows]
        fitness[rows] = trial_fitness[improved]
        gen_best = int(np.argmin(trial_fitness))
        if trial_fitness[gen_best] < f_best:
            f_best = float(trial_fitness[gen_best])
            x_best = trials[gen_best].copy()

    return DEResult(x_best=x_best, f_best=f_best, evaluations_used=evaluations)
