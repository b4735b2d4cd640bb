"""Scalable benchmark functions with deterministic shift/rotation instancing.

Twelve landscape classes covering the unimodal/multimodal, separable/rotated,
and well/ill-conditioned corners of the usual black-box benchmarking taxonomy.
Each instance places the optimum at a seeded shift inside [-4, 4]^d, applies a
seeded random rotation for the non-separable classes, and offsets the optimal
value, so ``evaluate(f, x_opt) == f_opt`` and ``evaluate(f, x) >= f_opt``
everywhere in the search box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .design import BoxBounds

INSTANCE_IDS = tuple(range(1, 16))
SHIFT_RANGE = 4.0
DEFAULT_BOX = 5.0

# Conditioning of the ellipsoidal / discus / bent-cigar axes.
_CONDITIONING = 1.0e6


class UnknownFunction(Exception):
    """The requested function id is not part of the suite."""


class OutOfBounds(Exception):
    """Evaluation point lies outside the function's search box."""


# ---------------------------------------------------------------------------
# Base landscapes. Each g maps a shifted/rotated point z to a value with
# g(0) == 0 and g(z) >= 0, so instancing just adds the target offset.
# ---------------------------------------------------------------------------


def _sphere(z: np.ndarray) -> float:
    return float(z @ z)


def _ellipsoidal(z: np.ndarray) -> float:
    d = z.size
    weights = _CONDITIONING ** (np.arange(d) / (d - 1))
    return float(weights @ (z * z))


def _rastrigin(z: np.ndarray) -> float:
    return float(10.0 * z.size + (z @ z) - 10.0 * np.cos(2.0 * np.pi * z).sum())


def _linear_slope(z: np.ndarray) -> float:
    # Piecewise-linear cone: slopes spread over one decade per dimension. A
    # strictly linear function has no interior optimum, which instancing needs.
    d = z.size
    slopes = 10.0 ** (np.arange(d) / (d - 1))
    return float(slopes @ np.abs(z))


def _rosenbrock(z: np.ndarray) -> float:
    w = z + 1.0
    return float(
        (100.0 * (w[:-1] ** 2 - w[1:]) ** 2).sum() + ((w[:-1] - 1.0) ** 2).sum()
    )


def _discus(z: np.ndarray) -> float:
    return float(_CONDITIONING * z[0] * z[0] + (z[1:] @ z[1:]))


def _bent_cigar(z: np.ndarray) -> float:
    return float(z[0] * z[0] + _CONDITIONING * (z[1:] @ z[1:]))


def _sharp_ridge(z: np.ndarray) -> float:
    return float(z[0] * z[0] + 100.0 * math.sqrt(z[1:] @ z[1:]))


def _different_powers(z: np.ndarray) -> float:
    d = z.size
    exponents = 2.0 + 4.0 * np.arange(d) / (d - 1)
    return float(math.sqrt((np.abs(z) ** exponents).sum()))


def _schaffers_f7(z: np.ndarray) -> float:
    s = np.sqrt(z[:-1] ** 2 + z[1:] ** 2)
    terms = np.sqrt(s) * (1.0 + np.sin(50.0 * s**0.2) ** 2)
    return float(terms.mean() ** 2)


# Schwefel-style sine landscape: the oscillatory region lives on a 100x input
# scale; outside it a quadratic penalty takes over, exactly like the usual
# boundary handling for this function. The offset is padded by 1e-12 so the
# float evaluation stays non-negative at the landscape's true maximum.
_SCHWEFEL_ARGMAX = 420.9687462275036
_SCHWEFEL_OFFSET = _SCHWEFEL_ARGMAX * math.sin(math.sqrt(_SCHWEFEL_ARGMAX)) + 1e-12


def _schwefel(z: np.ndarray) -> float:
    u = 100.0 * z + _SCHWEFEL_ARGMAX
    clipped = np.clip(u, -500.0, 500.0)
    oscillation = _SCHWEFEL_OFFSET - clipped * np.sin(np.sqrt(np.abs(clipped)))
    penalty = np.maximum(np.abs(u) - 500.0, 0.0) ** 2 / 100.0
    return float((oscillation + penalty).sum() / 100.0)


@dataclass(frozen=True)
class SuiteEntry:
    function_id: int
    name: str
    tags: tuple[str, ...]
    rotated: bool
    base: Callable[[np.ndarray], float]


_SUITE: tuple[SuiteEntry, ...] = (
    SuiteEntry(1, "Sphere", ("unimodal", "separable", "symmetric"), False, _sphere),
    SuiteEntry(2, "Ellipsoidal", ("unimodal", "separable", "high conditioning"), False, _ellipsoidal),
    SuiteEntry(3, "Rastrigin", ("multimodal", "separable", "regular structure"), False, _rastrigin),
    SuiteEntry(5, "Linear Slope", ("unimodal", "separable"), False, _linear_slope),
    SuiteEntry(8, "Rosenbrock", ("unimodal/bimodal depending on dimension", "low/moderate conditioning"), False, _rosenbrock),
    SuiteEntry(9, "Rosenbrock Rotated", ("unimodal/bimodal depending on dimension", "low/moderate conditioning"), True, _rosenbrock),
    SuiteEntry(11, "Discus", ("unimodal", "high conditioning"), True, _discus),
    SuiteEntry(12, "Bent Cigar", ("unimodal", "high conditioning"), True, _bent_cigar),
    SuiteEntry(13, "Sharp Ridge", ("unimodal", "high conditioning"), True, _sharp_ridge),
    SuiteEntry(14, "Different Powers", ("unimodal", "high conditioning"), True, _different_powers),
    SuiteEntry(17, "Schaffers F7", ("multimodal", "low conditioning", "adequate global structure"), True, _schaffers_f7),
    SuiteEntry(20, "Schwefel", ("multimodal", "weak global structure"), False, _schwefel),
)

_BY_ID = {entry.function_id: entry for entry in _SUITE}


def list_suite() -> tuple[SuiteEntry, ...]:
    """All implemented function classes, ordered by function id."""
    return _SUITE


@dataclass(frozen=True, eq=False)
class TestFunction:
    """One concrete instance: a landscape class plus its shift/rotation/offset."""

    function_id: int
    name: str
    dimension: int
    bounds: BoxBounds
    instance_id: int
    x_opt: np.ndarray
    f_opt: float
    rotation: Optional[np.ndarray]


def _random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random orthogonal matrix via Gram-Schmidt on a Gaussian matrix."""
    while True:
        a = rng.standard_normal((d, d))
        q = np.zeros((d, d))
        ok = True
        for j in range(d):
            v = a[:, j]
            for _ in range(2):  # re-orthogonalize once for tight orthonormality
                v = v - q[:, :j] @ (q[:, :j].T @ v)
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                ok = False
                break
            q[:, j] = v / norm
        if ok and float(np.abs(q.T @ q - np.eye(d)).max()) <= 1e-11:
            return q


def check_instance(function_id: int, dimension: int, instance_id: int) -> None:
    """UnknownFunction unless ``function_id`` is in the suite; ValueError unless
    it has an instance at (dimension, instance_id)."""
    if function_id not in _BY_ID:
        raise UnknownFunction(f"function id {function_id} not in suite {sorted(_BY_ID)}")
    if dimension < 2:
        raise ValueError("instances require dimension >= 2")
    if instance_id not in INSTANCE_IDS:
        raise ValueError(f"instance_id must be in {INSTANCE_IDS[0]}..{INSTANCE_IDS[-1]}")


def make_instance(function_id: int, dimension: int, instance_id: int) -> TestFunction:
    """Deterministic instance of a suite function for a given dimension.

    The shift, rotation, and value offset are drawn from a generator seeded by
    (function_id, dimension, instance_id), so repeat calls agree exactly.
    """
    check_instance(function_id, dimension, instance_id)
    entry = _BY_ID[function_id]
    rng = np.random.default_rng(
        np.random.SeedSequence((function_id, dimension, instance_id))
    )
    x_opt = rng.uniform(-SHIFT_RANGE, SHIFT_RANGE, dimension)
    rotation = _random_rotation(rng, dimension) if entry.rotated else None
    f_opt = float(np.round(rng.uniform(-100.0, 100.0), 2))
    return TestFunction(
        function_id=function_id,
        name=entry.name,
        dimension=dimension,
        bounds=BoxBounds.cube(dimension, -DEFAULT_BOX, DEFAULT_BOX),
        instance_id=instance_id,
        x_opt=x_opt,
        f_opt=f_opt,
        rotation=rotation,
    )


def evaluate(f: TestFunction, x: np.ndarray) -> float:
    """Objective value at x; raises OutOfBounds outside the search box."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dimension,):
        raise ValueError(f"expected a point of dimension {f.dimension}, got shape {x.shape}")
    if not f.bounds.contains(x):
        raise OutOfBounds(f"point {x} outside box [{f.bounds.lower[0]}, {f.bounds.upper[0]}]^{f.dimension}")
    z = x - f.x_opt
    if f.rotation is not None:
        z = f.rotation @ z
    return _BY_ID[f.function_id].base(z) + f.f_opt


def suite_manifest() -> list[dict]:
    """Suite description as plain data (used by the CLI's ``list`` command):
    each SuiteEntry field but its ``base`` landscape."""
    names = [f.name for f in fields(SuiteEntry) if f.name != "base"]
    return [{name: getattr(entry, name) for name in names} for entry in _SUITE]
