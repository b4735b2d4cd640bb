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

LAPACK's ``dpotrf`` and ``dtrtrs`` are called through ``ctypes`` on the
function pointers that ``scipy.linalg.cython_lapack`` exports: the same
routines scipy's own wrappers call, but a ``ctypes`` call releases the GIL.
So a fit splits each generation of the likelihood search into contiguous
slices, one per thread, and joins the values in order, which keeps every
likelihood and every search step bit for bit the same as on one thread. A
fit uses the CPUs the process may run on, up to MAX_FIT_THREADS, and one
thread when it has fewer than THREADED_FIT_MIN_POINTS distinct points or
runs in a campaign pool worker, where the pool already spreads runs over the
CPUs. The threads live only for that fit. Prediction stays on the calling
thread.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

import scipy.linalg.cython_lapack

from . import de
from .design import BoxBounds
from .numerics import flush_subnormals


def _lapack_routine(name: str, *argtypes):
    """A ctypes handle on scipy's LAPACK routine ``name``; a call releases the GIL."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return ctypes.CFUNCTYPE(None, *argtypes)(capsule_pointer(capsule, capsule_name(capsule)))


# LAPACK takes every argument by reference. Flags go as bytes; sizes, info and
# Fortran-ordered matrices go as plain addresses, the cheapest argument for
# ctypes to convert.
_FLAG, _ADDRESS = ctypes.c_char_p, ctypes.c_void_p
# dpotrf(uplo, n, a, lda, info)
_potrf = _lapack_routine("dpotrf", _FLAG, *[_ADDRESS] * 4)
# dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)
_trtrs = _lapack_routine("dtrtrs", _FLAG, _FLAG, _FLAG, *[_ADDRESS] * 7)

THETA_LOG10_BOUNDS = (-3.0, 2.0)
POWER_BOUNDS = (0.01, 2.0)
NUGGET_LOG10_BOUNDS = (-8.0, -4.0)
NUGGET_MAX = 1.0e-4
SIGMA2_FLOOR = 1.0e-12
PENALTY_NLL = 1.0e10
DUPLICATE_TOL = 1.0e-12
LIKELIHOOD_EVALS_PER_PARAM = 500
# Below this many distinct points a fit's likelihood search runs on one
# thread: there, handing slices to other threads costs more than it saves
# (the crossover scans are in CHANGES.md).
THREADED_FIT_MIN_POINTS = 120
# The most threads a fit's likelihood search uses: the count the crossover
# scans and benchmarks measured, on a 2-CPU host. More are untested.
MAX_FIT_THREADS = 2


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
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("data must be finite")
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


class _Geometry:
    """Condensed pairwise geometry of one dataset, read-only and shared by every
    workspace of a fit."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        n = X.shape[0]
        self.n = n
        rows, cols = np.triu_indices(n, 1)
        diffs = X[rows]
        diffs -= X[cols]
        self.log_diffs = _log_abs(diffs, out=diffs)  # (m, d)
        self.rhs = np.column_stack([y, np.ones(n)])
        # A workspace's matrix is written through a flat view of its Fortran
        # order: entry (i, j) sits at i + j*n.
        self.lower_flat = cols + rows * n
        self.diag_flat = np.arange(n) * (n + 1)


class _FitWorkspace:
    """The buffers one thread needs to evaluate likelihoods over shared geometry."""

    def __init__(self, geometry: _Geometry):
        n = geometry.n
        self.geometry = geometry
        # Fortran order lets LAPACK factor and solve in place; only the lower
        # triangle is ever filled, which is all potrf/trtrs read.
        self.matrix = np.zeros((n, n), order="F")
        self.flat = self.matrix.reshape(-1, order="F")
        self.powered = np.empty_like(geometry.log_diffs)
        self.solved = np.empty((n, 2), order="F")
        self.sizes = (ctypes.c_int(n), ctypes.c_int(2))
        self.info = ctypes.c_int()
        # LAPACK arguments, built once from addresses that stay valid while
        # this workspace holds the objects behind them.
        order, columns, info = (ctypes.addressof(c) for c in (*self.sizes, self.info))
        matrix, solved = self.matrix.ctypes.data, self.solved.ctypes.data
        self.potrf_args = (b"L", order, matrix, order, info)
        self.trtrs_args = (b"L", b"N", b"N", order, columns, matrix, order, solved, order, info)


class _LikelihoodTerms(NamedTuple):  # a tuple: the cheapest record to build per evaluation
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
    geometry = ws.geometry
    corr = _kernel(geometry.log_diffs, theta, power, out=ws.powered)
    n = geometry.n
    while True:
        # In-place factorization destroys the lower triangle, so every
        # attempt rebuilds it from the correlation vector first.
        ws.flat[geometry.lower_flat] = corr
        ws.flat[geometry.diag_flat] = 1.0 + nugget
        _potrf(*ws.potrf_args)
        info = ws.info.value
        if info == 0:
            break
        if info < 0:
            raise RuntimeError(f"invalid factorization argument {-info}")
        if nugget >= NUGGET_MAX:
            return None
        nugget = min(nugget * 10.0, NUGGET_MAX)

    lower = ws.matrix
    ws.solved[...] = geometry.rhs
    _trtrs(*ws.trtrs_args)
    y_white, ones_white = ws.solved[:, 0], ws.solved[:, 1]
    mu_hat = float(ones_white @ y_white) / float(ones_white @ ones_white)
    residual = y_white - mu_hat * ones_white
    sigma2_hat = max(float(residual @ residual) / n, SIGMA2_FLOOR)
    half_log_det = float(np.log(lower.diagonal()).sum())  # the view np.diag returns
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
    geometry = _Geometry(data.X, data.y)
    workspaces = [_FitWorkspace(geometry) for _ in range(_fit_threads(data.n))]

    def slice_values(ws: _FitWorkspace, vectors: np.ndarray) -> np.ndarray:
        with flush_subnormals():  # MXCSR is per thread, so each slice sets it
            terms = [_likelihood_terms(ws, *_decode(vector, d)) for vector in vectors]
        return np.array([PENALTY_NLL if t is None else t.nll for t in terms])

    # An executor starts no thread before its first submit, so a one-thread
    # fit starts none.
    with ThreadPoolExecutor(max_workers=max(len(workspaces) - 1, 1)) as pool:

        def objective(vectors: np.ndarray) -> np.ndarray:
            # Contiguous slices, none empty; the calling thread takes the first.
            parts = min(len(workspaces), len(vectors))
            ends = [len(vectors) * k // parts for k in range(parts + 1)]
            slices = [vectors[start:end] for start, end in zip(ends, ends[1:])]
            futures = [pool.submit(slice_values, *job) for job in zip(workspaces[1:], slices[1:])]
            first = slice_values(workspaces[0], slices[0])
            return np.concatenate([first, *(future.result() for future in futures)])

        result = de.minimize(objective, _mle_bounds(d), evals_per_param * (2 * d + 1), seed)
    # Free the search's buffers first, so a fit never holds them and model_at's at once.
    del geometry, workspaces, objective

    model = model_at(data, KrigingHyperparameters(*_decode(result.x_best, d)))
    return replace(model, nll_evaluations=result.evaluations_used)


def _fit_threads(n: int) -> int:
    """Threads for the likelihood search of a fit on ``n`` distinct points."""
    if n < THREADED_FIT_MIN_POINTS or multiprocessing.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_FIT_THREADS)


def solve_triangular(chol: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve chol @ x = b, or chol.T @ x = b when ``transposed``, for a model's lower factor."""
    # LAPACK reads the C-ordered chol in place as the Fortran-ordered upper
    # factor chol.T, and solves in place in a Fortran-ordered copy of b.
    upper = np.ascontiguousarray(chol, dtype=float)
    x = np.array(b, dtype=float, order="F")
    n = upper.shape[0]
    if upper.shape != (n, n) or x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"cannot solve a {upper.shape} factor for right-hand sides {x.shape}")
    # The order, the right-hand side count, the leading dimension and info as
    # consecutive C ints: one ctypes object is the cheapest to build per call.
    sizes = (ctypes.c_int * 4)(n, x.shape[1] if x.ndim == 2 else 1, max(n, 1), 0)
    order, step = ctypes.addressof(sizes), ctypes.sizeof(ctypes.c_int)
    columns, leading, info = order + step, order + 2 * step, order + 3 * step
    _trtrs(b"U", b"N" if transposed else b"T", b"N", order, columns,
           upper.ctypes.data, leading, x.ctypes.data, leading, info)
    return x


def model_at(data: Dataset, params: KrigingHyperparameters) -> KrigingModel:
    """The model conditioned on ``data`` at fixed hyperparameters.

    The nugget escalates as in the likelihood search, and the model carries
    the value that factored; DegenerateData if even NUGGET_MAX does not.
    """
    ws = _FitWorkspace(_Geometry(data.X, data.y))
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
