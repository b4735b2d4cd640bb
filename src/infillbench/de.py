"""Differential evolution (rand/1/bin) with exact evaluation accounting.

This is the single inner optimizer used both for hyperparameter likelihood
search and for optimizing infill criteria over the search box. Its settings
are fixed here: differential weight 0.8, crossover rate 0.9 and a population
of ``population_size(dimension) = min(10 * dimension, 50)``; each call
chooses only its budget and seed.
Selection is generation-synchronous: every trial in a generation is built
from the previous population, then replacements happen in member order. The
objective is batch-shaped: it maps an (m, d) array of points to m values, one
call per generation. Out-of-box trial components are clamped to the violated
bound. The run consumes exactly ``budget`` objective evaluations (one per
row), stopping mid-population or mid-generation if needed, and returns the
point with the lowest value it evaluated, the first one on a tie.

A generation's bookkeeping is a fixed handful of numpy calls on buffers
that every generation reuses: one random draw holds the partner sort keys
and the crossover draws, one copy lays each member's keys for the others
into a row of an n x n key matrix whose diagonal of 2.0 sorts last, one
row-wise argsort names the three partners, one gather takes them, and the
mutants are built, clamped and crossed in place. The one draw gives the
numbers that drawing the keys and then the crossover values would, in the
same order (tests/test_de.py pins results to the bit). Calls go to ndarray
methods (``argsort``, ``argmin``, ``take``) rather than the ``np.``
functions, whose Python dispatch costs more than the work at a population
of 20.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .design import BoxBounds

NONFINITE_PENALTY = 1.0e10
DIFFERENTIAL_WEIGHT = 0.8
CROSSOVER_RATE = 0.9


def _sanitize(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, NONFINITE_PENALTY)


def population_size(dimension: int) -> int:
    """Members of a population over ``dimension`` variables: ``min(10 * d, 50)``,
    at least 10 >= 4, so rand/1 always finds three partners."""
    return min(10 * dimension, 50)


def minimize(
    objective: Callable[[np.ndarray], np.ndarray], bounds: BoxBounds, budget: int, seed: int
) -> np.ndarray:
    """Minimize a black-box objective over a box; returns the best point evaluated.

    ``objective`` evaluates an (m, d) array of points in one call and returns
    m values; each row counts as one evaluation, and non-finite values are
    replaced by NONFINITE_PENALTY. The array it receives is valid only for the
    duration of the call. A budget below the population evaluates only that
    many initial members. Deterministic for a fixed budget and seed.
    """
    if budget < 1:
        raise ValueError("budget must be at least one evaluation")
    rng = np.random.default_rng(seed)
    d = bounds.dimension
    n_pop = population_size(d)

    population = rng.uniform(bounds.lower, bounds.upper, size=(n_pop, d))
    evaluations = min(budget, n_pop)
    fitness = _sanitize(objective(population[:evaluations]))

    best_index = int(fitness.argmin())
    x_best = population[best_index].copy()
    f_best = float(fitness[best_index])

    member_range = np.arange(n_pop)
    key_count = n_pop * (n_pop - 1)
    # Buffers every generation reuses.
    donors = np.empty((n_pop, 3, d))
    base, plus, minus = donors[:, 0], donors[:, 1], donors[:, 2]
    trials = np.empty((n_pop, d))
    inherited = np.empty((n_pop, d), dtype=bool)
    # Member i's keys for the other members fill row i around a diagonal of
    # 2.0, above every key in [0, 1), so a member is never its own partner.
    # In row order, the off-diagonal entries are the flat matrix after its
    # first entry, seen as rows of n + 1 whose last entry is on the diagonal.
    keys = np.full((n_pop, n_pop), 2.0)
    off_diagonal = keys.reshape(-1)[1:].reshape(n_pop - 1, n_pop + 1)[:, :n_pop]
    while evaluations < budget:
        # Trials for the full generation are always generated (three distinct
        # partners per member via random sort keys, then binomial crossover)
        # so the random stream does not depend on where the budget runs out.
        # One draw holds the sort keys, then the crossover draws: the numbers
        # two draws in turn would give.
        draws = rng.random(key_count + n_pop * d)
        off_diagonal[...] = draws[:key_count].reshape(n_pop - 1, n_pop)
        partners = keys.argsort(axis=1)[:, :3]
        population.take(partners, axis=0, out=donors, mode="clip")  # indices are in range
        # The mutants r1 + F (r2 - r3), clamped to the box, in place.
        np.subtract(plus, minus, out=trials)
        trials *= DIFFERENTIAL_WEIGHT
        trials += base
        np.maximum(trials, bounds.lower, out=trials)
        np.minimum(trials, bounds.upper, out=trials)
        # Binomial crossover: a component stays the member's where its draw is
        # at least CROSSOVER_RATE, except one random component per member.
        np.greater_equal(draws[key_count:].reshape(n_pop, d), CROSSOVER_RATE, out=inherited)
        del draws, partners  # not held while the objective runs
        inherited[member_range, rng.integers(d, size=n_pop)] = False
        np.copyto(trials, population, where=inherited)

        take = min(n_pop, budget - evaluations)
        trial_fitness = _sanitize(objective(trials[:take]))
        evaluations += take

        improved = trial_fitness <= fitness[:take]
        np.copyto(population[:take], trials[:take], where=improved[:, None])
        np.copyto(fitness[:take], trial_fitness, where=improved)
        gen_best = int(trial_fitness.argmin())
        if trial_fitness[gen_best] < f_best:
            f_best = float(trial_fitness[gen_best])
            x_best = trials[gen_best].copy()

    return x_best
