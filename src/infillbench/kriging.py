"""Kriging (Gaussian process) surrogate with a power-exponential kernel.

Correlation between two points is ``exp(-sum_i theta_i * |x_i - x'_i|^p_i)``
with a separate weight theta_i > 0 and exponent p_i in [0.01, 2] per input
dimension, plus a nugget lambda in [1e-8, 1e-4] on the matrix diagonal for
numerical stability.

Fitting maximizes the concentrated likelihood: for a candidate (theta, p,
lambda) the process mean and variance have closed forms

    mu_hat     = (1' C^-1 y) / (1' C^-1 1)
    sigma2_hat = (y - 1 mu_hat)' C^-1 (y - 1 mu_hat) / n

with C = K + lambda*I, leaving ``-log L = (n/2) log sigma2_hat +
(1/2) log det C`` to be minimized over the 2d+1 kernel parameters by
differential evolution (theta and lambda are searched in log10 scale).
All linear algebra goes through one Cholesky factorization of C.

Prediction at a query point x uses

    mean     = mu_hat + k' C^-1 (y - 1 mu_hat)
    variance = sigma2_hat * (1 + lambda - k' C^-1 k)    (clamped at zero)

where k is the correlation vector between x and the training points.

The likelihood search runs under ``numerics.flush_subnormals`` (a faster
Cholesky, the same likelihood bits); models and predictions do not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import scipy.linalg

from . import de
from .design import BoxBounds
from .numerics import flush_subnormals

# Raw LAPACK handles for the likelihood hot path (thousands of calls per fit)
# and for the solves of every prediction.
_potrf, _trtrs = scipy.linalg.get_lapack_funcs(
    ("potrf", "trtrs"), (np.empty((1, 1), dtype=float),)
)

THETA_LOG10_BOUNDS = (-3.0, 2.0)
POWER_BOUNDS = (0.01, 2.0)
NUGGET_LOG10_BOUNDS = (-8.0, -4.0)
NUGGET_MAX = 1.0e-4
SIGMA2_FLOOR = 1.0e-12
PENALTY_NLL = 1.0e10
DUPLICATE_TOL = 1.0e-12
LIKELIHOOD_EVALS_PER_PARAM = 500


class DegenerateData(Exception):
    """Training data cannot support a model (fewer than two distinct points, or constant y)."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Evaluated design points X (n, d) with objective values y (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"inconsistent data shapes {X.shape} and {y.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def deduplicated(self) -> "Dataset":
        """Drop rows within DUPLICATE_TOL (max-norm) of an earlier row, keeping the first."""
        keep: list[int] = []
        for i in range(self.n):
            kept = self.X[keep]
            if keep and float(np.abs(kept - self.X[i]).max(axis=1).min()) < DUPLICATE_TOL:
                continue
            keep.append(i)
        if len(keep) == self.n:
            return self
        return Dataset(self.X[keep], self.y[keep])


@dataclass(frozen=True, eq=False)
class KrigingHyperparameters:
    """Kernel weights theta (d,), exponents power (d,), and the nugget."""

    theta: np.ndarray
    power: np.ndarray
    nugget: float

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        power = np.atleast_1d(np.asarray(self.power, dtype=float))
        if theta.shape != power.shape or theta.ndim != 1:
            raise ValueError("theta and power must be 1-d vectors of equal length")
        if np.any(theta <= 0.0):
            raise ValueError("theta entries must be positive")
        if np.any(power < POWER_BOUNDS[0]) or np.any(power > POWER_BOUNDS[1]):
            raise ValueError(f"power entries must lie in {POWER_BOUNDS}")
        if not 1e-8 <= self.nugget <= NUGGET_MAX:
            raise ValueError(f"nugget must lie in [1e-08, {NUGGET_MAX}]")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "power", power)


@dataclass(frozen=True, eq=False)
class KrigingModel:
    """Immutable fitted surrogate; query it through predict / predict_batch."""

    data: Dataset
    params: KrigingHyperparameters
    chol: np.ndarray
    alpha: np.ndarray  # C^-1 (y - 1 mu_hat), cached for O(n) mean prediction
    mu_hat: float
    sigma2_hat: float
    neg_log_likelihood: float
    nll_evaluations: int = 0


# ---------------------------------------------------------------------------
# Kernel arithmetic. Every route (scalar correlation, training matrix, query
# vectors) forms log|delta| in _log_abs and maps it to correlations in
# _kernel, so each term |delta_i|^p_i = exp(p_i * log|delta_i|) is bit for bit
# alike; log(0) = -inf propagates to a clean |delta|^p = 0. The sum over
# dimensions is a matrix product whose rounding depends on the array shape, so
# the routes agree to a few ulps, and exactly only at d = 1.
# ---------------------------------------------------------------------------


def _log_abs(diffs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(diffs, out=out), out=out)


def _kernel(log_abs: np.ndarray, theta: np.ndarray, power: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Correlations over the last axis of (..., d) log|delta|; ``out`` may be ``log_abs``."""
    np.multiply(log_abs, power, out=out)
    np.exp(out, out=out)
    corr = out @ theta
    np.negative(corr, out=corr)
    return np.exp(corr, out=corr)


def correlation(x: np.ndarray, x2: np.ndarray, params: KrigingHyperparameters) -> float:
    """Kernel value in (0, 1]; exactly 1 at zero distance and symmetric."""
    row = _log_abs(np.asarray(x, dtype=float) - np.asarray(x2, dtype=float))[None, :]
    return float(_kernel(row, params.theta, params.power, out=row)[0])


class _FitWorkspace:
    """Condensed pairwise geometry reused across the likelihood evaluations of one fit."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        n = X.shape[0]
        self.n = n
        rows, cols = np.triu_indices(n, 1)
        self.log_diffs = _log_abs(X[rows] - X[cols])  # (m, d)
        self.rhs = np.column_stack([y, np.ones(n)])
        # Fortran order lets LAPACK factor in place; only the lower triangle
        # is ever filled, which is all potrf/trtrs read. It is written through
        # a flat view: entry (i, j) sits at i + j*n.
        self.matrix = np.zeros((n, n), order="F")
        self.flat = self.matrix.reshape(-1, order="F")
        self.lower_flat = cols + rows * n
        self.diag_flat = np.arange(n) * (n + 1)
        self.powered = np.empty_like(self.log_diffs)


@dataclass(frozen=True)
class _LikelihoodTerms:
    nll: float
    mu_hat: float
    sigma2_hat: float
    chol: np.ndarray
    nugget: float  # effective value after any jitter escalation


def _likelihood_terms(
    ws: _FitWorkspace, theta: np.ndarray, power: np.ndarray, nugget: float
) -> Optional[_LikelihoodTerms]:
    """Concentrated likelihood pieces, or None when the matrix stays indefinite.

    On factorization failure the nugget escalates tenfold (capped at
    NUGGET_MAX); only if the cap still fails is None returned, which callers
    map to a large penalty so the surrounding search keeps moving.
    """
    corr = _kernel(ws.log_diffs, theta, power, out=ws.powered)
    n = ws.n
    while True:
        # In-place factorization destroys the lower triangle, so every
        # attempt rebuilds it from the correlation vector first.
        ws.flat[ws.lower_flat] = corr
        ws.flat[ws.diag_flat] = 1.0 + nugget
        lower, info = _potrf(ws.matrix, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            break
        if info < 0:
            raise RuntimeError(f"invalid factorization argument {-info}")
        if nugget >= NUGGET_MAX:
            return None
        nugget = min(nugget * 10.0, NUGGET_MAX)

    solved, _ = _trtrs(lower, ws.rhs, lower=1)
    y_white, ones_white = solved[:, 0], solved[:, 1]
    mu_hat = float(ones_white @ y_white) / float(ones_white @ ones_white)
    residual = y_white - mu_hat * ones_white
    sigma2_hat = max(float(residual @ residual) / n, SIGMA2_FLOOR)
    half_log_det = float(np.log(np.diag(lower)).sum())
    nll = 0.5 * n * np.log(sigma2_hat) + half_log_det
    return _LikelihoodTerms(float(nll), mu_hat, sigma2_hat, lower, nugget)


def _mle_bounds(dimension: int) -> BoxBounds:
    lower = np.concatenate(
        [
            np.full(dimension, THETA_LOG10_BOUNDS[0]),
            np.full(dimension, POWER_BOUNDS[0]),
            [NUGGET_LOG10_BOUNDS[0]],
        ]
    )
    upper = np.concatenate(
        [
            np.full(dimension, THETA_LOG10_BOUNDS[1]),
            np.full(dimension, POWER_BOUNDS[1]),
            [NUGGET_LOG10_BOUNDS[1]],
        ]
    )
    return BoxBounds(lower, upper)


def _decode(vector: np.ndarray, dimension: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Search vector -> (theta, power, nugget); theta and nugget live in log10 scale."""
    return (
        10.0 ** vector[:dimension],
        vector[dimension : 2 * dimension],
        float(10.0 ** vector[2 * dimension]),
    )


def fit(data: Dataset, seed: int, evals_per_param: int = LIKELIHOOD_EVALS_PER_PARAM) -> KrigingModel:
    """Fit hyperparameters by likelihood search with differential evolution.

    The search covers log10(theta) in [-3, 2]^d, p in [0.01, 2]^d, and
    log10(lambda) in [-8, -4], spending exactly ``evals_per_param * (2d + 1)``
    likelihood evaluations. Duplicate rows are dropped before fitting.
    Deterministic for a fixed (data, seed).
    """
    data = data.deduplicated()
    if data.n < 2:
        raise DegenerateData("fitting needs at least two distinct points")
    if float(np.ptp(data.y)) == 0.0:
        raise DegenerateData("constant objective values cannot identify a model")

    d = data.dimension
    ws = _FitWorkspace(data.X, data.y)

    def objective(vectors: np.ndarray) -> np.ndarray:
        terms = (_likelihood_terms(ws, *_decode(vector, d)) for vector in vectors)
        return np.array([PENALTY_NLL if t is None else t.nll for t in terms])

    with flush_subnormals():
        result = de.minimize(objective, _mle_bounds(d), evals_per_param * (2 * d + 1), seed)
    del ws  # free the search workspace first, so a fit never holds two at once

    model = model_at(data, KrigingHyperparameters(*_decode(result.x_best, d)))
    return replace(model, nll_evaluations=result.evaluations_used)


def solve_triangular(chol: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve chol @ x = b, or chol.T @ x = b when ``transposed``, for a model's lower factor."""
    # LAPACK reads the C-ordered chol in place as the Fortran-ordered upper factor chol.T.
    return _trtrs(chol.T, b, lower=0, trans=0 if transposed else 1)[0]


def model_at(data: Dataset, params: KrigingHyperparameters) -> KrigingModel:
    """The model conditioned on ``data`` at fixed hyperparameters.

    The nugget escalates as in the likelihood search, and the model carries
    the value that factored; DegenerateData if even NUGGET_MAX does not.
    """
    ws = _FitWorkspace(data.X, data.y)
    terms = _likelihood_terms(ws, params.theta, params.power, params.nugget)
    if terms is None:
        raise DegenerateData("no positive definite correlation matrix found")
    # The workspace factor shares memory with the scratch matrix and carries a
    # stale upper triangle; keep a clean private copy on the model.
    chol = np.tril(terms.chol)
    centered = data.y - terms.mu_hat
    alpha = solve_triangular(chol, solve_triangular(chol, centered), transposed=True)
    return KrigingModel(
        data=data,
        params=replace(params, nugget=terms.nugget),
        chol=chol,
        alpha=alpha,
        mu_hat=terms.mu_hat,
        sigma2_hat=terms.sigma2_hat,
        neg_log_likelihood=terms.nll,
    )


def predict_batch(model: KrigingModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances for an (m, d) array of query points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # One (m, n, d) buffer, transformed in place. The contraction stays on this 3-D
    # shape: a (m*n, d) or (d, m, n) layout rounds differently at d=10.
    buf = points[:, None, :] - model.data.X[None, :, :]
    corr = _kernel(_log_abs(buf, out=buf), model.params.theta, model.params.power, out=buf)
    means = model.mu_hat + corr @ model.alpha
    whitened = solve_triangular(model.chol, corr.T)
    variances = model.sigma2_hat * (
        1.0 + model.params.nugget - (whitened * whitened).sum(axis=0)
    )
    return means, np.maximum(variances, 0.0)


def predict(model: KrigingModel, x: np.ndarray) -> tuple[float, float]:
    """Predictive mean and (non-negative) variance at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.data.dimension,):
        raise ValueError(f"expected a point of dimension {model.data.dimension}, got shape {x.shape}")
    means, variances = predict_batch(model, x[None, :])
    return float(means[0]), float(variances[0])
