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

A model is queried through a ``Query``, which holds the buffers to predict
at up to a given number of points a call, per point

    mean     = mu_hat + k' C^-1 (y - 1 mu_hat)
    variance = sigma2_hat * (1 + lambda - k' C^-1 k)    (clamped at zero)

where k is the correlation vector between x and the training points.
``Query.means`` gives the means alone, ``Query.moments`` both. A proposal
search builds one query and reuses it for every generation. A query leaves
the divide warning of the kernel's log(0) to its caller: ``infill.propose``
silences it once around the whole search. ``predict_batch`` takes an (m, d)
array of points (one (d,) point is one row), checks it and answers it with a
query of its own, inside an ``np.errstate`` of its own. The infill criteria
score these moments.
A query and ``predict_batch`` agree bit for bit on the same rows asked in
one call. A point's mean also depends on the call it is asked in: the means
are one matrix-vector product, and OpenBLAS's ``dgemv`` rounds the rows past
the last group of four differently, so the same points asked in blocks of
another size can differ in the last bits.

The likelihood search runs under ``numerics.flush_subnormals`` (a faster
Cholesky, the same likelihood bits); models and predictions do not.

One routine, ``_likelihoods``, evaluates the likelihood of a batch of
hyperparameter vectors: a generation of the search, or the one vector of
``model_at``. It walks the batch in chunks whose buffers take at most
LIKELIHOOD_CHUNK_BYTES (at least one vector a chunk) and runs each numpy
stage once per chunk: the kernel terms, the scatter into the chunk's
matrices and the reductions to the likelihood. Each stage rounds every
vector exactly as it would alone, so every likelihood is bit for bit the
value of a one-vector evaluation.

LAPACK's ``dpotrf`` and ``dtrtrs`` run per vector, called through ``ctypes``
on the function pointers that ``scipy.linalg.cython_lapack`` exports: the
same routines scipy's own wrappers call, but a ``ctypes`` call releases the
GIL. So a fit splits each generation of the likelihood search into
contiguous slices, one per thread, and joins the values in order, which
keeps every likelihood and every search step bit for bit the same as on one
thread. A fit uses the CPUs the process may run on, up to MAX_FIT_THREADS,
and one thread when it has fewer than THREADED_FIT_MIN_POINTS distinct
points or runs in a campaign pool worker, where the pool already spreads
runs over the CPUs. The threads live only for that fit. A query calls
``dtrtrs`` the same way, and runs on the calling thread.

The handles are bound on first use, not at import, and from the export
table's compiled module alone (``numerics._scipy_extension``): the
``scipy.linalg`` package is never imported (with ``scipy.special``, which
``numerics`` skips the same way, it cost each process about 20 MB of peak
RSS and a quarter of a second), and listing the suite or giving advice
loads no scipy at all. Each fit workspace, query and ``solve_triangular``
call binds the handles when it is built, on the calling thread. A fit builds
its workspaces before it enters ``flush_subnormals`` or starts a thread, so
scipy is never loaded under FTZ/DAZ or from a worker thread.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import de
from .design import BoxBounds
from .numerics import _scipy_extension, flush_subnormals


# LAPACK takes every argument by reference. Flags go as bytes; sizes, info and
# Fortran-ordered matrices go as plain addresses, the cheapest argument for
# ctypes to convert.
_FLAG, _ADDRESS = ctypes.c_char_p, ctypes.c_void_p


def _int_arguments(*values: int) -> tuple[ctypes.Array, list[int]]:
    """LAPACK's integer arguments: one block of C ints holding ``values``, and
    the address of each. The addresses stay valid while the block lives, and
    LAPACK writes info back into its entry."""
    block = (ctypes.c_int * len(values))(*values)
    start, step = ctypes.addressof(block), ctypes.sizeof(ctypes.c_int)
    return block, [start + k * step for k in range(len(values))]


class _Lapack(NamedTuple):
    """ctypes handles on scipy's LAPACK routines; a call releases the GIL."""

    potrf: Callable  # dpotrf(uplo, n, a, lda, info)
    trtrs: Callable  # dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)


@functools.cache
def _lapack() -> _Lapack:
    """The LAPACK handles, built on the first call, which loads scipy's export table.

    Call it before any worker thread starts and outside flush_subnormals: a
    module loaded under FTZ/DAZ could compute its constants flushed.
    """
    exports = _scipy_extension("linalg", "cython_lapack")
    if exports is None:
        raise ImportError("scipy has no scipy.linalg.cython_lapack module")
    api = ctypes.pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )

    def routine(name: str, *argtypes):
        capsule = exports.__pyx_capi__[name]
        return ctypes.CFUNCTYPE(None, *argtypes)(capsule_pointer(capsule, capsule_name(capsule)))

    return _Lapack(
        potrf=routine("dpotrf", _FLAG, *[_ADDRESS] * 4),
        trtrs=routine("dtrtrs", _FLAG, _FLAG, _FLAG, *[_ADDRESS] * 7),
    )


THETA_LOG10_BOUNDS = (-3.0, 2.0)
POWER_BOUNDS = (0.01, 2.0)
NUGGET_LOG10_BOUNDS = (-8.0, -4.0)
NUGGET_MAX = 10.0 ** NUGGET_LOG10_BOUNDS[1]
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
# The most bytes of buffers a thread's workspace holds for one chunk of a
# likelihood generation (see _Geometry.bytes_per_vector); a chunk has at least
# one vector. Chosen by the per-fit scan in CHANGES.md.
LIKELIHOOD_CHUNK_BYTES = 512 * 1024


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
        """Drop rows within DUPLICATE_TOL (max-norm) of an earlier kept row, keeping the first."""
        n = self.n
        # The pairwise max-norm distances, accumulated one dimension at a time,
        # so no (n, n, d) temporary is ever built.
        distances, gaps = np.zeros((n, n)), np.empty((n, n))
        for column in self.X.T:
            np.subtract(column[:, None], column, out=gaps)
            np.maximum(distances, np.abs(gaps, out=gaps), out=distances)
        near = distances < DUPLICATE_TOL  # every row is near itself
        keep = np.ones(n, dtype=bool)
        # A row is dropped only for a near earlier row that is kept, so the
        # rows near others, rare in a run, are settled in order.
        for i in (near.sum(axis=1) > 1).nonzero()[0]:
            keep[i] = not (near[i, :i] & keep[:i]).any()
        if keep.all():
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
        nugget_min = 10.0 ** NUGGET_LOG10_BOUNDS[0]
        if not nugget_min <= self.nugget <= NUGGET_MAX:
            raise ValueError(f"nugget must lie in [{nugget_min}, {NUGGET_MAX}]")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "power", power)


@dataclass(frozen=True, eq=False)
class KrigingModel:
    """Immutable fitted surrogate; query it through a Query or predict_batch."""

    data: Dataset
    params: KrigingHyperparameters
    chol: np.ndarray
    alpha: np.ndarray  # C^-1 (y - 1 mu_hat), cached for O(n) mean prediction
    mu_hat: float
    sigma2_hat: float
    neg_log_likelihood: float


# ---------------------------------------------------------------------------
# Kernel arithmetic. Both routes (the training matrix in _likelihoods, the
# query vectors in Query) form log|delta| in _log_abs, raise it to the terms
# |delta_i|^p_i = exp(p_i * log|delta_i|) in _powered, and sum the terms to
# correlations in _correlations. Each difference and term is an elementwise
# subtraction, product or exp, bit for bit alike in any array layout, which
# lets Query subtract a tiled copy of X in place of a broadcast, and lets
# both routes multiply rows of whole points by one repeated power row: the
# fit's tile row of at least 128 terms, the query's row of n * d terms.
# log(0) = -inf propagates to a clean |delta|^p = 0; its divide warning is
# silenced once per fit in _Geometry, once per call in predict_batch, and
# once per proposal search in infill.propose; Query leaves it to its caller.
# The sum over dimensions is a matrix product with -theta: rounding is
# symmetric in sign, so that is exactly the negated product with theta. Its
# rounding depends on the array shape, so the two routes agree to a few ulps,
# and exactly only at d = 1.
# ---------------------------------------------------------------------------


def _log_abs(diffs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """log|diffs|; the caller silences the divide warning of log(0)."""
    return np.log(np.abs(diffs, out=out), out=out)


def _powered(log_abs: np.ndarray, power_row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The terms exp(power * log_abs), written to ``out``, which may be ``log_abs``.

    ``log_abs`` holds rows of whole (d,) points, and ``power_row`` the (d,)
    exponents repeated along one such row, so the product runs in long
    contiguous loops rather than d terms at a time.
    """
    np.multiply(log_abs, power_row, out=out)
    return np.exp(out, out=out)


def _correlations(terms: np.ndarray, neg_theta: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(terms @ -theta): correlations over the last axis of (..., d) terms.

    ``neg_theta`` is -theta, one (d,) vector or a stack of (d, 1) columns, one
    per leading index of ``terms``; the result is written to ``out`` when
    given.
    """
    corr = np.matmul(terms, neg_theta, out=out)
    return np.exp(corr, out=corr)


class _Geometry:
    """Condensed pairwise geometry of one dataset, read-only and shared by every
    workspace of a fit."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        n, d = X.shape
        self.n, self.d = n, d
        rows, cols = np.triu_indices(n, 1)
        m = len(rows)
        # The (m, d) log-distances, padded with zero rows to whole tiles of
        # ``tile`` rows. Seen as rows of tile * d >= 128 terms, they multiply
        # a power vector repeated ``tile`` times in long contiguous loops,
        # which (m, d) times a (d,) broadcast runs d terms at a time.
        self.tile = -(-128 // d)
        padded = np.zeros((-(-m // self.tile) * self.tile, d))
        diffs = np.take(X, rows, axis=0, out=padded[:m])
        diffs -= X[cols]
        with np.errstate(divide="ignore"):
            _log_abs(diffs, out=diffs)
        self.log_tiles = padded.reshape(-1, self.tile * d)
        # Both right-hand sides as rows: one member's (2, n) block of a
        # workspace's solves is the (n, 2) matrix dtrtrs reads in Fortran order.
        self.rhs = np.stack([y, np.ones(n)])
        # A member's matrix is written through a flat view of its Fortran
        # order: entry (i, j) sits at i + j*n.
        self.lower_flat = cols + rows * n

    def bytes_per_vector(self) -> int:
        """Bytes a chunk holds per search vector: the padded (m, d) kernel
        terms, the powers repeated to one tile row, the (m,) correlations and
        scatter offsets, the n x n matrix, the (n, 2) solves and three (n,)
        temporaries of the reductions."""
        n, m = self.n, len(self.lower_flat)
        return 8 * (self.log_tiles.size + self.log_tiles.shape[1] + 2 * m + n * (n + 5))


class _FitWorkspace:
    """The buffers one thread needs to evaluate the likelihoods of a chunk of
    up to ``capacity`` search vectors over shared geometry."""

    def __init__(self, geometry: _Geometry, capacity: int):
        n, m = geometry.n, len(geometry.lower_flat)
        self.geometry = geometry
        self.capacity = capacity
        # Offsets of every member's lower triangle in the flat buffer, so a
        # chunk's scatter is one 1-D fancy assignment. Built first: numpy
        # buffers the broadcast sum. One member shares the geometry's offsets:
        # a copy per thread would raise a large serial fit's peak memory.
        self.scatter = (
            geometry.lower_flat
            if capacity == 1
            else (geometry.lower_flat + n * n * np.arange(capacity)[:, None]).ravel()
        )
        self.powered = np.empty((capacity, *geometry.log_tiles.shape))
        self.terms = self.powered.reshape(capacity, -1, geometry.d)[:, :m]
        self.corr = np.empty((capacity, m))
        self.corr_flat = self.corr.reshape(-1)
        # Member k's matrix, in the Fortran order LAPACK factors and solves in
        # place, is matrices[k].T; only its lower triangle is ever filled,
        # which is all potrf/trtrs read.
        self.matrices = np.zeros((capacity, n, n))
        self.flat = self.matrices.reshape(-1)
        self.diagonals = self.matrices.reshape(capacity, n * n)[:, :: n + 1]
        self.solved = np.empty((capacity, 2, n))
        self.lapack = _lapack()
        # LAPACK arguments, from addresses that stay valid while this
        # workspace holds the objects behind them; member k's matrix and
        # solves sit k strides past the first member's. ints[2] is info.
        self.ints, (self.order, self.columns, self.info) = _int_arguments(n, 2, 0)
        self.matrix_address, self.solved_address = self.matrices.ctypes.data, self.solved.ctypes.data
        self.matrix_stride, self.solved_stride = self.matrices.strides[0], self.solved.strides[0]


def _row_dots(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The (B,) dot products of the rows of (B, n) ``a`` and ``b``, written to
    ``out`` when given. A stack of (1, n) @ (n, 1) products takes one ddot per
    row, so each rounds as that row's dot product alone would."""
    out = np.empty(len(a)) if out is None else out
    np.matmul(a[:, None, :], b[:, :, None], out=out[:, None, None])
    return out


class _Likelihoods(NamedTuple):
    """(B,) arrays, one entry per parameter vector: the value, the closed-form
    process moments and the nugget after any escalation. ``failed`` lists the
    vectors whose matrix stayed indefinite; their value is PENALTY_NLL."""

    nll: np.ndarray
    mu_hat: np.ndarray
    sigma2_hat: np.ndarray
    nugget: np.ndarray
    failed: list


def _likelihoods(
    ws: _FitWorkspace, thetas: np.ndarray, powers: np.ndarray, nuggets: np.ndarray
) -> _Likelihoods:
    """Concentrated likelihoods of B parameter vectors: rows of (B, d)
    ``thetas`` and ``powers``, and (B,) ``nuggets``, which escalate in place.

    The vectors are evaluated in chunks of up to ``ws.capacity``. Each numpy
    stage runs once per chunk and rounds every member exactly as it would
    alone; LAPACK runs per member. The factor of the last chunk's member k is
    left in ``ws.matrices[k].T``.

    On factorization failure a member's nugget escalates tenfold (capped at
    NUGGET_MAX); only if the cap still fails does the vector get PENALTY_NLL,
    so the surrounding search keeps moving.

    On finite data the escalation is not known to run. For p <= 2 the
    power-exponential K is positive semidefinite, and the nugget is at least
    1e-8, far above the rounding of a factorization at the n <= 300 of a run.
    The fits of f13 d=10, f3 d=2 and f1 d=5 runs (budgets 40-60, 20
    likelihood evaluations per parameter) met no dpotrf failure in 46,410
    calls. The escalation stays because LAPACK may still report one.
    """
    geometry = ws.geometry
    potrf, trtrs = ws.lapack
    n, m, total = geometry.n, len(geometry.lower_flat), len(nuggets)
    mu_hat, squares, half_log_det = np.empty(total), np.empty(total), np.empty(total)
    diagonal_values = (1.0 + nuggets)[:, None]
    neg_thetas = -thetas[:, :, None]
    failed = []
    for start in range(0, total, ws.capacity):
        stop = min(start + ws.capacity, total)
        count = stop - start
        # Each member's powers repeated to one tile row.
        power_tiles = powers[start:stop].repeat(geometry.tile, axis=0).reshape(count, 1, -1)
        _powered(geometry.log_tiles, power_tiles, out=ws.powered[:count])
        _correlations(ws.terms[:count], neg_thetas[start:stop], out=ws.corr[:count, :, None])
        corr = ws.corr_flat[: count * m]
        ws.flat[ws.scatter[: corr.size]] = corr
        diagonals = ws.diagonals[:count]
        diagonals[...] = diagonal_values[start:stop]
        ws.solved[:count] = geometry.rhs
        for k in range(count):
            matrix = ws.matrix_address + k * ws.matrix_stride
            potrf(b"L", ws.order, matrix, ws.order, ws.info)
            while ws.ints[2]:
                if ws.ints[2] < 0:
                    raise RuntimeError(f"invalid factorization argument {-ws.ints[2]}")
                if nuggets[start + k] >= NUGGET_MAX:
                    failed.append(start + k)
                    diagonals[k] = 1.0  # keeps the reductions below finite
                    break
                nuggets[start + k] = min(nuggets[start + k] * 10.0, NUGGET_MAX)
                # In-place factorization destroys the lower triangle, so every
                # attempt rebuilds it from the correlations first.
                member = slice(k * m, (k + 1) * m)
                ws.flat[ws.scatter[member]] = corr[member]
                diagonals[k] = 1.0 + nuggets[start + k]
                potrf(b"L", ws.order, matrix, ws.order, ws.info)
            else:
                trtrs(b"L", b"N", b"N", ws.order, ws.columns, matrix, ws.order,
                      ws.solved_address + k * ws.solved_stride, ws.order, ws.info)

        # The row dots and the log of the strided diagonal view, summed
        # pairwise per row, round as one member alone would.
        y_white, ones_white = ws.solved[:count, 0], ws.solved[:count, 1]
        mu = np.divide(
            _row_dots(ones_white, y_white), _row_dots(ones_white, ones_white), out=mu_hat[start:stop]
        )
        residual = y_white - mu[:, None] * ones_white
        _row_dots(residual, residual, out=squares[start:stop])
        np.add.reduce(np.log(diagonals), axis=1, out=half_log_det[start:stop])

    sigma2_hat = np.maximum(squares / n, SIGMA2_FLOOR)
    nll = 0.5 * n * np.log(sigma2_hat) + half_log_det
    nll[failed] = PENALTY_NLL
    return _Likelihoods(nll, mu_hat, sigma2_hat, nuggets, failed)


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


def _decode(vectors: np.ndarray, dimension: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, 2d+1) search vectors -> (B, d) theta, (B, d) power and (B,) nugget;
    theta and nugget live in log10 scale."""
    # The nugget is raised one Python float at a time: the vectorized power
    # rounds differently on hosts with SIMD math (AVX-512 among them).
    nuggets = [10.0 ** v for v in vectors[:, 2 * dimension].tolist()]
    return 10.0 ** vectors[:, :dimension], vectors[:, dimension : 2 * dimension], np.array(nuggets)


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
    capacity = max(1, LIKELIHOOD_CHUNK_BYTES // geometry.bytes_per_vector())
    workspaces = [_FitWorkspace(geometry, capacity) for _ in range(_fit_threads(data.n))]

    def slice_values(ws: _FitWorkspace, vectors: np.ndarray) -> np.ndarray:
        with flush_subnormals():  # MXCSR is per thread, so each slice sets it
            return _likelihoods(ws, *_decode(vectors, d)).nll

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

        x_best = de.minimize(objective, _mle_bounds(d), evals_per_param * (2 * d + 1), seed)
    # Free the search's buffers first, so a fit never holds them and model_at's at once.
    del geometry, workspaces, objective

    (theta,), (power,), (nugget,) = _decode(x_best[None], d)
    return model_at(data, KrigingHyperparameters(theta, power, float(nugget)))


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
    """Solve chol @ x = b, or chol.T @ x = b when ``transposed``, for a model's lower factor.

    numpy.linalg.LinAlgError when the factor has a zero on its diagonal.
    """
    # LAPACK reads the C-ordered chol in place as the Fortran-ordered upper
    # factor chol.T, and solves in place in a Fortran-ordered copy of b.
    upper = np.ascontiguousarray(chol, dtype=float)
    x = np.array(b, dtype=float, order="F")
    n = upper.shape[0]
    if upper.shape != (n, n) or x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"cannot solve a {upper.shape} factor for right-hand sides {x.shape}")
    ints, (order, columns, leading, info) = _int_arguments(
        n, x.shape[1] if x.ndim == 2 else 1, max(n, 1), 0
    )
    _lapack().trtrs(b"U", b"N" if transposed else b"T", b"N", order, columns,
                    upper.ctypes.data, leading, x.ctypes.data, leading, info)
    if ints[3] < 0:
        raise RuntimeError(f"invalid triangular solve argument {-ints[3]}")
    if ints[3] > 0:
        raise np.linalg.LinAlgError(f"singular factor: diagonal entry {ints[3]} is zero")
    return x


def model_at(data: Dataset, params: KrigingHyperparameters) -> KrigingModel:
    """The model conditioned on ``data`` at fixed hyperparameters.

    The nugget escalates as in the likelihood search, and the model carries
    the value that factored; DegenerateData if even NUGGET_MAX does not.
    """
    ws = _FitWorkspace(_Geometry(data.X, data.y), capacity=1)
    terms = _likelihoods(ws, params.theta[None], params.power[None], np.array([params.nugget]))
    if terms.failed:
        raise DegenerateData("no positive definite correlation matrix found")
    # The factor lives in the workspace's scratch matrix; keep a private copy
    # of its lower triangle on the model.
    chol = np.tril(ws.matrices[0].T)
    mu_hat = float(terms.mu_hat[0])
    centered = data.y - mu_hat
    alpha = solve_triangular(chol, solve_triangular(chol, centered), transposed=True)
    return KrigingModel(
        data=data,
        params=replace(params, nugget=float(terms.nugget[0])),
        chol=chol,
        alpha=alpha,
        mu_hat=mu_hat,
        sigma2_hat=float(terms.sigma2_hat[0]),
        neg_log_likelihood=float(terms.nll[0]),
    )


class Query:
    """The buffers to query one model at up to ``capacity`` points a call, built
    once for a search that asks for a generation of points at a time.

    ``means`` and ``moments`` take an (m, d) array with m <= capacity and
    return fresh arrays: the values ``predict_batch`` gives for the same
    array, bit for bit (not for the same points split over other calls).
    Neither enters an ``np.errstate``: the caller silences the divide warning
    of the kernel's log(0), as ``predict_batch`` does once a call and
    ``infill.propose`` once around a whole search.
    """

    def __init__(self, model: KrigingModel, capacity: int):
        X = model.data.X
        n, d = X.shape
        self.model = model
        # X once per point, so the differences are one same-shape subtraction,
        # not a broadcast that runs m * n inner loops of length d.
        self.tiled = np.tile(X, (capacity, 1)).reshape(capacity, n, d)
        self.buf = np.empty((capacity, n, d))
        # The exponents repeated along one point's n * d terms.
        self.power_row = np.tile(model.params.power, n)
        self.neg_theta = -model.params.theta
        self.corr = np.empty((capacity, n))
        # dtrtrs reads the C-ordered chol in place as the Fortran-ordered upper
        # factor chol.T, and solves in place in the C-ordered (m, n)
        # correlations: in Fortran order, the (n, m) right-hand sides.
        self.upper = np.ascontiguousarray(model.chol, dtype=float)
        self.trtrs = _lapack().trtrs
        self.ints, addresses = _int_arguments(n, 0, 0)  # n, m, info
        self.addresses = (*addresses, self.upper.ctypes.data, self.corr.ctypes.data)

    def _correlations_at(self, points: np.ndarray) -> np.ndarray:
        """The (m, n) correlations between the points and the training points."""
        m, (n, d) = len(points), self.tiled.shape[1:]
        # One (m, n, d) buffer, transformed in place. The contraction stays on
        # this 3-D shape: a (m*n, d) or (d, m, n) layout rounds differently at d=10.
        buf = self.buf[:m]
        np.subtract(points.repeat(n, axis=0).reshape(m, n, d), self.tiled[:m], out=buf)
        log_abs = _log_abs(buf, out=buf).reshape(m, n * d)
        _powered(log_abs, self.power_row, out=log_abs)
        return _correlations(buf, self.neg_theta, out=self.corr[:m])

    def means(self, points: np.ndarray) -> np.ndarray:
        """Predictive means, one per row of ``points``."""
        return self.model.mu_hat + self._correlations_at(points) @ self.model.alpha

    def moments(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances, one each per row of ``points``."""
        model = self.model
        corr = self._correlations_at(points)
        means = model.mu_hat + corr @ model.alpha
        order, columns, info, upper, solved = self.addresses
        self.ints[1] = len(points)
        # chol^-1 k for every point, in place.
        self.trtrs(b"U", b"T", b"N", order, columns, upper, order, solved, order, info)
        squares = np.multiply(corr, corr, out=corr)
        variances = model.sigma2_hat * (1.0 + model.params.nugget - np.add.reduce(squares, axis=1))
        return means, np.maximum(variances, 0.0)


def predict_batch(model: KrigingModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances for an (m, d) array of query points.

    One (d,) point is read as one row. Points of another dimension, or an
    array of more than two axes, raise ValueError.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = model.data.dimension
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {points.shape}")
    with np.errstate(divide="ignore"):
        return Query(model, len(points)).moments(points)
