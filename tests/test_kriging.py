import os
import threading
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.linalg

import infillbench.de as de
import infillbench.kriging as kriging
from infillbench.design import latin_hypercube
from infillbench.kriging import (
    LIKELIHOOD_CHUNK_BYTES,
    MAX_FIT_THREADS,
    NUGGET_LOG10_BOUNDS,
    PENALTY_NLL,
    POWER_BOUNDS,
    Query,
    THETA_LOG10_BOUNDS,
    THREADED_FIT_MIN_POINTS,
    Dataset,
    DegenerateData,
    KrigingHyperparameters,
    fit,
    model_at,
    predict_batch,
    solve_triangular,
)
from infillbench.numerics import flush_subnormals
from infillbench.testbed import evaluate, make_instance

from conftest import dense_oracle, unbuffered_moments


def random_params(rng, d):
    return KrigingHyperparameters(
        theta=10.0 ** rng.uniform(-1.0, 1.0, d),
        power=rng.uniform(1.0, 2.0, d),
        nugget=float(10.0 ** rng.uniform(-8.0, -4.0)),
    )


def smooth_dataset(rng, n, d):
    x = rng.uniform(-3.0, 3.0, (n, d))
    coeffs = rng.uniform(-1.0, 1.0, d)
    y = np.sin(x @ coeffs) + 0.3 * (x**2).sum(axis=1)
    return Dataset(x, y)


def f13_dataset(d, n):
    f = make_instance(13, d, 1)
    X = latin_hypercube(n, f.bounds, seed=d)
    return Dataset(X, [evaluate(f, x) for x in X])


def process_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fit_recording_threads(data):
    """Fit ``data`` with kriging.flush_subnormals wrapped to record every thread
    that evaluates likelihoods. Returns the model, the thread ids and the peak
    of the memory the fit allocated, in bytes, as tracemalloc traced it."""
    original, threads = kriging.flush_subnormals, set()

    def recording():
        threads.add(threading.get_ident())
        return original()

    # One small fit first, so loads a process makes on its first fit (such as
    # the LAPACK binding) fall outside the trace, whatever ran before.
    fit(f13_dataset(2, 12), seed=3, evals_per_param=2)
    was_tracing = tracemalloc.is_tracing()
    kriging.flush_subnormals = recording
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        model = fit(data, seed=3, evals_per_param=20)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
        kriging.flush_subnormals = original
    return model, threads, peak


@pytest.fixture(scope="module")
def threaded_and_serial_fits():
    """One f13, d=10, n=150 fit in this process, and the same fit in a
    one-worker pool's process, where every fit runs on one thread."""
    data = f13_dataset(10, 150)
    with ProcessPoolExecutor(max_workers=1) as pool:  # forks before this fit starts threads
        serial = pool.submit(fit_recording_threads, data).result()
    return fit_recording_threads(data), serial


class TestCorrelation:
    """The kernel as the fit sees it: for two points a, b the model's factor L
    has L L' = [[1 + nugget, k], [k, 1 + nugget]] with k the correlation."""

    @staticmethod
    def pair_factor(a, b, params):
        return model_at(Dataset([a, b], [0.0, 1.0]), params).chol

    def test_zero_distance_is_exactly_one(self):
        params = KrigingHyperparameters([2.0, 0.3], [1.5, 2.0], 1e-6)
        x = np.array([0.7, -1.2])
        diagonal = 1.0 + params.nugget
        expected = scipy.linalg.cholesky([[diagonal, 1.0], [1.0, diagonal]], lower=True)
        np.testing.assert_array_equal(self.pair_factor(x, x, params), expected)

    def test_one_dimensional_value(self):
        params = KrigingHyperparameters([1.0], [2.0], 1e-6)
        chol = self.pair_factor(np.array([0.0]), np.array([1.0]), params)
        np.testing.assert_allclose(chol[1, 0] * chol[0, 0], np.exp(-1.0), rtol=1e-12)

    def test_two_dimensional_hand_sum(self):
        # theta=(1,2), p=(1,2), delta=(0.5,0.5): exp(-(0.5 + 2*0.25)) = exp(-1)
        params = KrigingHyperparameters([1.0, 2.0], [1.0, 2.0], 1e-6)
        chol = self.pair_factor(np.array([1.0, 1.0]), np.array([0.5, 0.5]), params)
        np.testing.assert_allclose(chol[1, 0] * chol[0, 0], np.exp(-1.0), rtol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 3)
        for _ in range(25):
            a, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_array_equal(
                self.pair_factor(a, b, params), self.pair_factor(b, a, params)
            )


class TestDataset:
    def test_deduplication_keeps_first(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        y = np.array([1.0, 2.0, 99.0, 3.0])
        clean = Dataset(x, y).deduplicated()
        assert clean.n == 3
        np.testing.assert_array_equal(clean.y, [1.0, 2.0, 3.0])

    def test_near_duplicates_filtered(self):
        x = np.array([[0.0], [1e-13], [1.0]])
        clean = Dataset(x, np.array([1.0, 2.0, 3.0])).deduplicated()
        assert clean.n == 2

    @pytest.mark.parametrize("x, y", [
        ([[0.0, 0.0], [1.0, np.nan], [2.0, 1.0]], [0.0, 1.0, 2.0]),  # potrf passes a NaN pivot
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]], [0.0, np.inf, 2.0]),  # mu_hat would read NaN
        ([[0.0, 0.0], [1.0, -np.inf], [2.0, 1.0]], [0.0, 1.0, np.nan]),
    ])
    def test_non_finite_data_rejected_before_model_at_and_fit(self, x, y):
        params = KrigingHyperparameters(np.array([1.0, 1.0]), np.array([2.0, 2.0]), 1e-8)
        with pytest.raises(ValueError, match="finite"):
            model_at(Dataset(x, y), params)
        with pytest.raises(ValueError, match="finite"):
            fit(Dataset(x, y), seed=0)


class TestNegativeLogLikelihood:
    def test_two_far_points_closed_form(self):
        # K is essentially the identity: mu = mean(y), sigma2 = biased variance,
        # nll = log sigma2 up to the tiny nugget contribution
        data = Dataset(np.array([[0.0], [1000.0]]), np.array([1.0, 3.0]))
        params = KrigingHyperparameters([1.0], [2.0], 1e-8)
        nll = model_at(data, params).neg_log_likelihood
        sigma2 = ((1.0 - 2.0) ** 2 + (3.0 - 2.0) ** 2) / 2
        np.testing.assert_allclose(nll, np.log(sigma2), atol=1e-6)

    def test_constant_values_hit_variance_floor(self):
        data = Dataset(np.array([[0.0], [1000.0]]), np.array([2.0, 2.0]))
        params = KrigingHyperparameters([1.0], [2.0], 1e-8)
        nll = model_at(data, params).neg_log_likelihood
        np.testing.assert_allclose(nll, np.log(1e-12), atol=1e-6)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(8)
        data = smooth_dataset(rng, 5, 1)
        params = random_params(rng, 1)
        _, nll_ref, _ = dense_oracle(data, params)
        assert abs(model_at(data, params).neg_log_likelihood - nll_ref) <= 1e-8

    def test_bit_identical_with_subnormals_flushed(self):
        # Uniform draws from the fit's search box on f13 designs; large theta
        # drives correlations, and then the Cholesky factor, into subnormals.
        draws, with_subnormals = 100, {}
        cases = [(2, 150), (5, 100), (10, 60), (10, 150)]
        for d, n in cases:
            data = f13_dataset(d, n)
            X = data.X
            with np.errstate(divide="ignore"):
                log_diffs = np.log(np.abs(X[:, None] - X[None]))
            rng = np.random.default_rng(d)
            with_subnormals[d, n] = 0
            for _ in range(draws):
                params = KrigingHyperparameters(
                    10.0 ** rng.uniform(*THETA_LOG10_BOUNDS, d),
                    rng.uniform(*POWER_BOUNDS, d),
                    float(10.0 ** rng.uniform(*NUGGET_LOG10_BOUNDS)),
                )
                corr = np.exp(-(np.exp(log_diffs * params.power) @ params.theta))
                with_subnormals[d, n] += bool(np.any((corr > 0.0) & (corr < np.finfo(float).tiny)))
                plain = model_at(data, params).neg_log_likelihood
                with flush_subnormals():
                    assert model_at(data, params).neg_log_likelihood == plain
        assert min(with_subnormals.values()) > 0
        assert sum(with_subnormals.values()) >= len(cases) * draws // 4


class TestFit:
    def test_interpolates_line(self):
        x = np.linspace(0.0, 1.0, 5)[:, None]
        y = x[:, 0].copy()
        model = fit(Dataset(x, y), seed=4)
        means, _ = predict_batch(model, x)
        assert np.all(np.abs(means - y) <= 1e-3 * np.ptp(y))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        data = smooth_dataset(rng, 8, 2)
        a = fit(data, seed=31)
        b = fit(data, seed=31)
        np.testing.assert_array_equal(a.params.theta, b.params.theta)
        np.testing.assert_array_equal(a.params.power, b.params.power)
        assert a.params.nugget == b.params.nugget
        assert a.neg_log_likelihood == b.neg_log_likelihood

    def test_budget_is_500_per_parameter(self, search_rows):
        rng = np.random.default_rng(3)
        data = smooth_dataset(rng, 6, 3)
        fit(data, seed=1)
        assert search_rows == [500 * (2 * 3 + 1)]

    def test_budget_scales_with_desk_factor(self, search_rows):
        rng = np.random.default_rng(3)
        data = smooth_dataset(rng, 6, 2)
        fit(data, seed=1, evals_per_param=100)
        assert search_rows == [100 * 5]

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateData):
            fit(Dataset(np.array([[0.0]]), np.array([1.0])), seed=0)
        with pytest.raises(DegenerateData):
            fit(Dataset(np.array([[0.0], [1.0]]), np.array([2.0, 2.0])), seed=0)

    def test_duplicates_dropped_before_fitting(self):
        x = np.array([[0.0], [0.0], [1.0], [2.0]])
        y = np.array([0.0, 5.0, 1.0, 2.0])
        model = fit(Dataset(x, y), seed=6)
        assert model.data.n == 3

    def test_fitted_nugget_within_bounds(self):
        rng = np.random.default_rng(9)
        model = fit(smooth_dataset(rng, 10, 2), seed=12)
        assert 1e-8 <= model.params.nugget <= 1e-4

    def test_cholesky_reproduces_correlation_matrix(self):
        rng = np.random.default_rng(10)
        data = smooth_dataset(rng, 7, 2)
        model = fit(data, seed=3)
        target, _, _ = dense_oracle(data, model.params)
        assert np.abs(model.chol @ model.chol.T - target).max() <= 1e-8


def chunk_vectors(d, n):
    """Search vectors per chunk of a fit on n points in d dimensions: the fit's
    LIKELIHOOD_CHUNK_BYTES over the bytes one vector takes. Those are its
    kernel terms, (m, d) for m = n(n-1)/2 pairs padded to whole tiles of
    ceil(128 / d) rows, its powers repeated to one tile row, its (m,)
    correlations and scatter offsets, n x n matrix, (n, 2) solves and three
    (n,) reduction temporaries."""
    m, tile = n * (n - 1) // 2, -(-128 // d)
    padded = -(-m // tile) * tile
    return max(1, LIKELIHOOD_CHUNK_BYTES // (8 * ((padded + tile) * d + 2 * m + n * (n + 5))))


class TestSearchValues:
    """Every likelihood a fit's search sees is the value of the one-vector path
    that model_at takes, whatever the chunking of its generations."""

    # (d, n): a generation spans several chunks, fits in one, or goes one
    # vector per chunk.
    CASES = {
        "several_chunks": [(1, 60), (2, 39), (5, 40), (10, 39)],
        "one_chunk": [(1, 25), (2, 16), (5, 12), (10, 10)],
        "one_vector": [(1, 180), (2, 150), (5, 120), (10, 100)],
    }

    @staticmethod
    def record_search(monkeypatch, data, evals_per_param):
        calls, original = [], de.minimize

        def recording(objective, *args, **kwargs):
            def recorded(vectors):
                values = objective(vectors)
                calls.append((vectors.copy(), np.array(values)))
                return values

            return original(recorded, *args, **kwargs)

        monkeypatch.setattr(de, "minimize", recording)
        fit(data, seed=4, evals_per_param=evals_per_param)
        return calls

    @pytest.mark.parametrize(
        "regime, d, n", [(regime, d, n) for regime, cases in CASES.items() for d, n in cases]
    )
    def test_values_match_model_at(self, monkeypatch, regime, d, n):
        per_chunk, population = chunk_vectors(d, n), de.population_size(2 * d + 1)
        assert {
            "several_chunks": 1 < per_chunk < population,
            "one_chunk": per_chunk >= population,
            "one_vector": per_chunk == 1,
        }[regime]
        data = smooth_dataset(np.random.default_rng(100 * d + n), n, d)
        evals_per_param = 6  # two full generations and a partial third
        calls = self.record_search(monkeypatch, data, evals_per_param)
        assert sum(len(values) for _, values in calls) == evals_per_param * (2 * d + 1)
        for vectors, values in calls:
            for v, value in zip(vectors, values):
                params = KrigingHyperparameters(10.0 ** v[:d], v[d : 2 * d], 10.0 ** v[2 * d])
                if value == PENALTY_NLL:
                    with pytest.raises(DegenerateData):
                        model_at(data, params)
                else:
                    assert model_at(data, params).neg_log_likelihood == value

    # Fitted hyperparameters and likelihood of an f13 design, as float.hex,
    # recorded before the search evaluated its generations in chunks, on the
    # host conftest.GOLDEN_HOST describes. Elsewhere the same code may round otherwise.
    GOLDEN = {
        (2, 12, 100): (
            ["0x1.3afad8350779dp-5", "0x1.06be3c69a8a38p-4"],
            ["0x1.86937353db1bdp+0", "0x1.0000000000000p+1"],
            "0x1.9274b361da3cfp-14",
            "0x1.b57e4ae44389ap+5",
        ),
        (2, 39, 100): (
            ["0x1.45a73a520d666p-4", "0x1.80719d80bcfdap-4"],
            ["0x1.ea710585ea826p+0", "0x1.0000000000000p+1"],
            "0x1.a36e2eb1c432dp-14",
            "0x1.25265bd0d8129p+7",
        ),
        (10, 150, 20): (
            ["0x1.0d57c0dbc8a34p-6", "0x1.0624dd2f1a9fcp-10", "0x1.59a254c5a80fdp-10",
             "0x1.faf888947cfe5p-7", "0x1.0624dd2f1a9fcp-10", "0x1.a647fa1cef378p-4",
             "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.444f468b18024p-3",
             "0x1.4d12cc747db48p-9"],
            ["0x1.be7541c1b4d4ep+0", "0x1.0000000000000p+1", "0x1.3390c25785390p-3",
             "0x1.d09f189c91ed2p-1", "0x1.4905084c278acp+0", "0x1.a0132aaab0c45p+0",
             "0x1.aacde2badeccdp+0", "0x1.1f7d5f6ceaacep+0", "0x1.0000000000000p+1",
             "0x1.0000000000000p+1"],
            "0x1.d8dfd84d5a11dp-24",
            "0x1.797ae17618cd4p+9",
        ),
    }

    @pytest.mark.parametrize("d, n, evals_per_param", sorted(GOLDEN))
    def test_golden_fit(self, d, n, evals_per_param, golden_host):
        theta, power, nugget, nll = self.GOLDEN[d, n, evals_per_param]
        model = fit(f13_dataset(d, n), seed=5, evals_per_param=evals_per_param)
        assert [x.hex() for x in model.params.theta] == theta
        assert [x.hex() for x in model.params.power] == power
        assert type(model.params.nugget) is float and model.params.nugget.hex() == nugget
        assert type(model.neg_log_likelihood) is float and model.neg_log_likelihood.hex() == nll


class TestThreadedFit:
    def test_bit_identical_to_one_thread(self, threaded_and_serial_fits):
        (threaded, threads, _), (serial, serial_threads, _) = threaded_and_serial_fits
        assert len(threads) == min(MAX_FIT_THREADS, process_cpus())
        assert len(serial_threads) == 1
        np.testing.assert_array_equal(threaded.chol, serial.chol)
        np.testing.assert_array_equal(threaded.alpha, serial.alpha)
        np.testing.assert_array_equal(threaded.params.theta, serial.params.theta)
        np.testing.assert_array_equal(threaded.params.power, serial.params.power)
        np.testing.assert_array_equal(threaded.params.nugget, serial.params.nugget)
        assert threaded.neg_log_likelihood == serial.neg_log_likelihood

    def test_threads_capped_whatever_the_cpu_count(self, monkeypatch):
        # No more threads than were measured, so the buffers a fit holds, one
        # set per thread, do not grow with the host's CPU count.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        _, threads, _ = fit_recording_threads(f13_dataset(10, 150))
        assert len(threads) == MAX_FIT_THREADS == 2

    def test_small_fit_stays_on_one_thread(self):
        data = f13_dataset(2, 39)
        assert data.n < THREADED_FIT_MIN_POINTS
        _, threads, _ = fit_recording_threads(data)
        assert len(threads) == 1

    def test_peak_memory_is_geometry_plus_one_buffer_set_per_thread(self, threaded_and_serial_fits):
        # A fit's peak: the pairwise geometry, (m, d) log-distances and the (m,)
        # scatter index of its m pairs, shared by every thread; per thread, the
        # (m, d) kernel terms, (m,) correlations, the n x n matrix and (n, 2)
        # solve; and the model's own n x n factor. Building the geometry with
        # one temporary, and freeing the search before the model, keep it so.
        (_, _, peak), (_, _, serial_peak) = threaded_and_serial_fits
        n, d = 150, 10
        m = n * (n - 1) // 2
        shared, model = 8 * (m * d + m), 8 * n * n
        per_thread = 8 * (m * d + m + n * n + 2 * n)
        assert serial_peak <= 1.05 * (shared + per_thread + model)
        assert peak <= 1.05 * (shared + MAX_FIT_THREADS * per_thread + model)

    def test_peak_memory_of_a_chunked_fit_is_bounded_by_the_chunk_budget(self):
        # A one-thread fit whose generations go in chunks of many vectors
        # holds the shared geometry ((m, d) log-distances, the (m,) scatter
        # offsets and the (2, n) right-hand sides), at most
        # LIKELIHOOD_CHUNK_BYTES of chunk buffers, and the model's factor.
        # numpy's iterator buffers come on top, whatever the chunk size:
        # getbufsize() elements for each operand of the kernel's broadcast
        # product.
        n, d = 39, 2
        population = de.population_size(2 * d + 1)
        assert 1 < chunk_vectors(d, n) < population
        _, threads, peak = fit_recording_threads(f13_dataset(d, n))
        assert len(threads) == 1
        m = n * (n - 1) // 2
        shared, model = 8 * (m * d + m + 2 * n), 8 * n * n
        fixed = 8 * 2 * np.getbufsize()
        assert peak <= 1.05 * (shared + LIKELIHOOD_CHUNK_BYTES + model) + fixed


class TestPredict:
    def test_training_point_interpolation(self):
        rng = np.random.default_rng(5)
        data = smooth_dataset(rng, 6, 2)
        model = fit(data, seed=7)
        spread = np.ptp(data.y)
        means, variances = predict_batch(model, data.X)
        assert np.all(np.abs(means - data.y) <= 1e-3 * spread)
        assert np.all(variances >= 0.0)

    def test_far_query_returns_process_moments(self):
        # with all correlations underflowing to zero the prediction falls back
        # to the estimated process mean and full variance (nugget included)
        data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        params = KrigingHyperparameters([10.0], [2.0], 1e-6)
        model = model_at(data, params)
        (mean,), (variance,) = predict_batch(model, np.array([500.0]))
        assert mean == model.mu_hat
        np.testing.assert_allclose(
            variance, model.sigma2_hat * (1.0 + params.nugget), rtol=1e-12
        )

    def test_midpoint_of_symmetric_pair_is_average(self):
        data = Dataset(np.array([[-1.0], [1.0]]), np.array([2.0, 4.0]))
        model = model_at(data, KrigingHyperparameters([0.7], [2.0], 1e-8))
        means, _ = predict_batch(model, np.array([0.0]))
        np.testing.assert_allclose(means, [3.0], rtol=1e-10)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(13)
        data = smooth_dataset(rng, 4, 2)
        params = random_params(rng, 2)
        _, _, predict_ref = dense_oracle(data, params)
        model = model_at(data, params)
        queries = np.random.default_rng(14).uniform(-3.0, 3.0, (20, 2))
        means, variances = predict_batch(model, queries)
        for x, mean, variance in zip(queries, means, variances):
            mean_ref, var_ref = predict_ref(x)
            assert abs(mean - mean_ref) <= 1e-8
            assert abs(variance - var_ref) <= 1e-8

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(20)
        model = fit(smooth_dataset(rng, 12, 2), seed=8)
        queries = rng.uniform(-3.0, 3.0, (10_000, 2))
        _, variances = predict_batch(model, queries)
        assert np.all(variances >= 0.0)

    def test_variance_grows_away_from_data(self):
        x = np.linspace(-1.0, 1.0, 6)[:, None]
        y = np.sin(2 * x[:, 0])
        model = fit(Dataset(x, y), seed=10)
        at_training = predict_batch(model, x)[1].max()
        (far_away,) = predict_batch(model, np.array([4.5]))[1]
        assert at_training <= far_away

    @pytest.mark.parametrize("n", [5, 38, 150])
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_cholesky_bit_identical_to_unbuffered_kernel(self, d, n):
        # the training kernel must round exactly like the plain formula on the
        # condensed pairs, so the fitted factor stays bit for bit the same
        rng = np.random.default_rng(1000 * d + n)
        data = smooth_dataset(rng, n, d)
        params = KrigingHyperparameters(
            10.0 ** rng.uniform(-1.5, 0.0, d) / d, rng.uniform(0.5, 2.0, d), 1e-6
        )
        model = model_at(data, params)
        rows, cols = np.triu_indices(n, 1)
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(data.X[rows] - data.X[cols]))
        C = np.zeros((n, n))
        C[rows, cols] = C[cols, rows] = np.exp(-(np.exp(logs * params.power) @ params.theta))
        C[np.diag_indices(n)] = 1.0 + model.params.nugget
        np.testing.assert_array_equal(model.chol, scipy.linalg.cholesky(C, lower=True))

    @pytest.mark.parametrize("m", [1, 7, 50])
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_batch_means_bit_identical_to_unbuffered_kernel(self, d, m):
        # the in-place query kernel must round exactly like the plain formula,
        # so the trajectories it drives stay bit for bit the same
        rng = np.random.default_rng(100 * d + m)
        data = smooth_dataset(rng, 38, d)  # BLAS takes rows 4 at a time; 2 are left, as at n=150
        params = KrigingHyperparameters(
            10.0 ** rng.uniform(-1.5, 0.0, d) / d, rng.uniform(0.5, 2.0, d), 1e-6
        )
        model = model_at(data, params)
        P = rng.uniform(-3.0, 3.0, (m, d))
        P[0] = data.X[0]  # a zero distance takes the log(0) = -inf route
        X, theta, p = data.X, params.theta, params.power
        with np.errstate(divide="ignore"):
            K = np.exp(-(np.exp(np.log(np.abs(P[:, None] - X[None])) * p) @ theta))
        means, _ = predict_batch(model, P)
        np.testing.assert_array_equal(means, model.mu_hat + K @ model.alpha)

    def test_points_of_another_dimension_rejected(self):
        rng = np.random.default_rng(17)
        model = model_at(smooth_dataset(rng, 9, 3), random_params(rng, 3))
        for shape in [(5, 1), (5, 4), (2,), (4,), (2, 5, 3)]:
            with pytest.raises(ValueError, match="dimension 3"):
                predict_batch(model, np.zeros(shape))
        means, variances = predict_batch(model, np.zeros(3))  # one (d,) point is one row
        assert means.shape == variances.shape == (1,)


class TestQuery:
    """A proposal's query workspace gives the bits of the unbuffered routine,
    for every batch size a search over its population asks for."""

    @pytest.mark.parametrize("d, n", [(1, 12), (2, 25), (2, 39), (10, 150)])
    def test_bit_identical_to_unbuffered_routine(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        data = smooth_dataset(rng, n, d)
        params = KrigingHyperparameters(
            10.0 ** rng.uniform(-1.5, 0.0, d) / d, rng.uniform(0.5, 2.0, d), 1e-6
        )
        model = model_at(data, params)
        population = de.population_size(d)
        query = Query(model, population)
        for m in range(1, population + 1):
            P = rng.uniform(-3.0, 3.0, (m, d))
            P[0, 0] = data.X[m % n, 0]  # a shared coordinate takes the log(0) = -inf route
            if m % 3 == 0:
                P[-1] = data.X[m % n]  # and sometimes a whole training point
            means, variances = unbuffered_moments(model, P)
            with np.errstate(divide="ignore"):  # as a search calls them
                got_means_alone = query.means(P)
                got_means, got_variances = query.moments(P)
            np.testing.assert_array_equal(got_means_alone, means)
            np.testing.assert_array_equal(got_means, means)
            np.testing.assert_array_equal(got_variances, variances)
            for expected, got in zip((means, variances), predict_batch(model, P)):
                np.testing.assert_array_equal(got, expected)

    def test_answers_do_not_alias_its_buffers(self):
        rng = np.random.default_rng(3)
        model = model_at(smooth_dataset(rng, 9, 2), random_params(rng, 2))
        query = Query(model, 4)
        P = rng.uniform(-3.0, 3.0, (4, 2))
        means = query.means(P)
        moments = query.moments(P)
        query.moments(rng.uniform(-3.0, 3.0, (4, 2)))
        np.testing.assert_array_equal(query.means(P), means)
        for expected, got in zip(moments, query.moments(P)):
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_queries_emit_no_warning_at_zero_distances(d):
    # A zero coordinate difference takes log(0) = -inf inside the kernel.
    # predict_batch silences it itself; a Query's methods emit nothing inside
    # the errstate a search enters around them.
    rng = np.random.default_rng(40 + d)
    data = smooth_dataset(rng, 12, d)
    X = data.X.copy()
    X[-1] = 3.0  # a training point at a corner of the box [-3, 3]^d
    model = model_at(Dataset(X, data.y), random_params(rng, d))
    shared = rng.uniform(-3.0, 3.0, d)
    shared[0] = X[2, 0]
    cases = {"training point": X[4], "shared coordinate": shared, "box corner": np.full(d, 3.0)}
    for name, point in cases.items():
        points = np.stack([point, rng.uniform(-3.0, 3.0, d)])
        query = Query(model, len(points))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = predict_batch(model, points)
            with np.errstate(divide="ignore"):
                means = query.means(points)
                moments = query.moments(points)
        assert np.all(np.isfinite(means)), name
        for got, expected in zip(moments, batch):
            np.testing.assert_array_equal(got, expected)


class TestSolveTriangular:
    def test_identity(self):
        np.testing.assert_array_equal(
            solve_triangular(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0]
        )

    def test_substitution(self):
        l = np.array([[2.0, 0.0], [1.0, 1.0]])
        x = solve_triangular(l, np.array([4.0, 3.0]))
        np.testing.assert_allclose(x, [2.0, 1.0])
        np.testing.assert_allclose(l @ x, [4.0, 3.0], rtol=1e-12)

    def test_transposed(self):
        l = np.array([[2.0, 0.0], [1.0, 3.0]])
        b = np.array([5.0, 6.0])
        x = solve_triangular(l, b, transposed=True)
        np.testing.assert_allclose(l.T @ x, b, rtol=1e-12)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("shape, order", [((40,), "C"), ((40, 7), "C"), ((40, 7), "F")])
    def test_bit_identical_to_scipy(self, shape, order, transposed):
        rng = np.random.default_rng(len(shape) + 2 * transposed)
        chol = model_at(smooth_dataset(rng, 40, 3), random_params(rng, 3)).chol
        b = np.asarray(rng.normal(size=shape), order=order)
        given = b.copy()
        trans = "T" if transposed else "N"
        expected = scipy.linalg.solve_triangular(chol, b, lower=True, trans=trans)
        np.testing.assert_array_equal(solve_triangular(chol, b, transposed), expected)
        np.testing.assert_array_equal(b, given)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_singular_factor_raises(self, transposed):
        with pytest.raises(np.linalg.LinAlgError):
            solve_triangular(np.diag([1.0, 0.0]), np.array([1.0, 1.0]), transposed)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            solve_triangular(np.eye(3), np.ones(4))
        with pytest.raises(ValueError):
            solve_triangular(np.eye(3)[:2], np.ones(3))

    def test_multiply_back_well_conditioned(self):
        rng = np.random.default_rng(11)
        for n in (3, 17, 64, 200):
            l = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
            l[np.diag_indices(n)] = rng.uniform(1.0, 2.0, n)
            b = rng.normal(size=n)
            x = solve_triangular(l, b)
            assert np.abs(l @ x - b).max() <= 1e-9 * np.abs(b).max()
