"""Initial experimental designs: Latin hypercube and uniform sampling in a box.

All randomness comes from numpy's PCG64 generator seeded explicitly, so any
point set is reproducible from its (n, bounds, seed) triple alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidBounds(Exception):
    """Lower and upper bounds do not describe a non-degenerate box of at least one dimension."""


@dataclass(frozen=True, eq=False)
class BoxBounds:
    """Axis-aligned search box with strictly ordered per-dimension bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise InvalidBounds(f"bound vectors must be 1-d, non-empty and equal length, "
                                f"got {lower.shape} and {upper.shape}")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise InvalidBounds("bounds must be finite")
        if not np.all(lower < upper):
            raise InvalidBounds("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, dimension: int, lower: float = -5.0, upper: float = 5.0) -> "BoxBounds":
        return cls(np.full(dimension, lower), np.full(dimension, upper))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


def latin_hypercube(n: int, bounds: BoxBounds, seed) -> np.ndarray:
    """n points stratified so each dimension has one point per equal-width stratum.

    Plain LHS: an independent random stratum permutation per dimension plus a
    uniform jitter inside each stratum. Returns an (n, d) array.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    d = bounds.dimension
    unit = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        unit[:, j] = (strata + rng.uniform(size=n)) / n
    return bounds.lower + unit * bounds.span


def uniform_random(n: int, bounds: BoxBounds, seed) -> np.ndarray:
    """n points drawn i.i.d. uniformly inside the box. Returns an (n, d) array."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    return rng.uniform(bounds.lower, bounds.upper, size=(n, bounds.dimension))
