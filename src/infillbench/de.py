"""Differential evolution (rand/1/bin) with exact evaluation accounting.

This is the single inner optimizer used both for hyperparameter likelihood
search and for optimizing infill criteria over the search box. Selection is
generation-synchronous: every trial in a generation is built from the previous
population, then replacements happen in member order. The objective is
batch-shaped: it maps an (m, d) array of points to m values, one call per
generation. Out-of-box trial components are clamped to the violated bound.
The run consumes exactly ``config.budget`` objective evaluations (one per
row), stopping mid-generation if needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .design import BoxBounds

NONFINITE_PENALTY = 1.0e10


@dataclass(frozen=True)
class DEConfig:
    """Settings for one minimize() call.

    population_size must be at least 4 (rand/1 mutation draws three distinct
    partners) and the budget must cover the initial population.
    """

    population_size: int
    budget: int
    seed: int
    differential_weight: float = 0.8
    crossover_rate: float = 0.9

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.budget < self.population_size:
            raise ValueError("budget must cover the initial population")
        if not 0.0 < self.differential_weight <= 2.0:
            raise ValueError("differential_weight must be in (0, 2]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be a probability")


class DEResult(NamedTuple):
    x_best: np.ndarray
    f_best: float
    evaluations_used: int


def default_population_size(dimension: int) -> int:
    """10 per search dimension, capped so small budgets still get generations."""
    return min(10 * dimension, 50)


def _sanitize(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, NONFINITE_PENALTY)


def minimize(
    objective: Callable[[np.ndarray], np.ndarray], bounds: BoxBounds, config: DEConfig
) -> DEResult:
    """Minimize a black-box objective over a box; returns the best point evaluated.

    ``objective`` evaluates an (m, d) array of points in one call and returns
    m values; each row counts as one evaluation, and non-finite values are
    replaced by NONFINITE_PENALTY. Deterministic for a fixed config.
    """
    rng = np.random.default_rng(config.seed)
    d = bounds.dimension
    n_pop = config.population_size
    weight = config.differential_weight
    cross = config.crossover_rate

    population = rng.uniform(bounds.lower, bounds.upper, size=(n_pop, d))
    fitness = _sanitize(objective(population))
    evaluations = n_pop

    best_index = int(np.argmin(fitness))
    x_best = population[best_index].copy()
    f_best = float(fitness[best_index])

    member_range = np.arange(n_pop)
    while evaluations < config.budget:
        # Trials for the full generation are always generated (three distinct
        # partners per member via random sort keys, then binomial crossover)
        # so the random stream does not depend on where the budget runs out.
        keys = rng.random((n_pop, n_pop - 1))
        partners = np.argsort(keys, axis=1)[:, :3]
        partners += partners >= member_range[:, None]  # skip the member itself
        r1, r2, r3 = (population[partners[:, k]] for k in range(3))
        mutants = np.clip(r1 + weight * (r2 - r3), bounds.lower, bounds.upper)
        mask = rng.random((n_pop, d)) < cross
        mask[member_range, rng.integers(d, size=n_pop)] = True
        trials = np.where(mask, mutants, population)

        take = min(n_pop, config.budget - evaluations)
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
