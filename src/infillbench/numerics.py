"""Dense linear algebra and Gaussian distribution helpers for the surrogate stack."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.special

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class SingularMatrix(Exception):
    """A triangular solve hit a zero diagonal entry."""


def solve_triangular(
    l: np.ndarray, b: np.ndarray, transposed: bool = False
) -> np.ndarray:
    """Solve l @ x = b (or l.T @ x = b when ``transposed``) for lower-triangular l."""
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {l.shape}")
    if np.any(np.diag(l) == 0.0):
        raise SingularMatrix("zero entry on the triangular diagonal")
    return scipy.linalg.solve_triangular(
        l, b, lower=True, trans=1 if transposed else 0, check_finite=False
    )


def standard_normal_cdf(z):
    """Phi(z), the standard normal CDF. Accepts scalars or arrays.

    Computed through erfc so the far tails keep full relative accuracy.
    """
    return 0.5 * scipy.special.erfc(-z / _SQRT_2)


def standard_normal_pdf(z):
    """phi(z) = exp(-z^2 / 2) / sqrt(2 pi). Accepts scalars or arrays."""
    z = np.asarray(z, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return float(out) if out.ndim == 0 else out
