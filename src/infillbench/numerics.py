"""Gaussian distribution helpers for the surrogate stack."""

from __future__ import annotations

import math

import numpy as np
import scipy.special

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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
