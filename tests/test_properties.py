"""Property tests of the surrogate stack's invariants over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from infillbench.de import minimize
from infillbench.design import BoxBounds
from infillbench.infill import improvement_from_moments
from infillbench.kriging import DUPLICATE_TOL, Dataset, KrigingHyperparameters, model_at, predict_batch

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def kernel_params(draw, d):
    # theta up to 10 on the box [-1, 1]^d keeps exp(-distance) above underflow
    log_theta = draw(st.lists(st.floats(-3.0, 1.0), min_size=d, max_size=d))
    power = draw(st.lists(st.floats(0.01, 2.0), min_size=d, max_size=d))
    nugget = 10.0 ** draw(st.floats(-8.0, -4.0))
    return KrigingHyperparameters(10.0 ** np.array(log_theta), power, nugget)


def points(d, n):
    return st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d), min_size=n, max_size=n
    ).map(np.array)


@st.composite
def model_cases(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    y = rng.normal(size=n)
    queries = draw(points(d, draw(st.integers(1, 20))))
    return Dataset(X, y), draw(kernel_params(d)), queries


@st.composite
def separated_model_cases(draw):
    # distinct cells of a 0.5-spaced grid, jittered by at most 0.1, so every
    # pair of training points lies at least 0.4 apart in some coordinate
    d = draw(st.integers(1, 4))
    cell = st.tuples(*[st.integers(-2, 2)] * d)
    cells = draw(st.lists(cell, min_size=3, max_size=min(12, 5**d), unique=True))
    jitter = draw(points(d, len(cells)))
    X = 0.5 * np.array(cells, dtype=float) + 0.05 * (jitter + 1.0)
    seed = draw(st.integers(0, 2**32 - 1))
    y = np.random.default_rng(seed).normal(size=len(cells))
    return Dataset(X, y), draw(kernel_params(d))


@SETTINGS
@given(model_cases())
def test_batch_variances_nonnegative_and_match_single_point_predictions(case):
    data, params, queries = case
    model = model_at(data, params)
    means, variances = predict_batch(model, queries)
    assert np.all(variances >= 0.0)
    # multi-column triangular solves block differently inside LAPACK, so a
    # row may differ from the same point queried alone in the last ulps
    scale = model.sigma2_hat
    for query, mean, variance in zip(queries, means, variances):
        (single_mean,), (single_variance,) = predict_batch(model, query)
        assert abs(single_mean - mean) <= 1e-9 * (1.0 + abs(mean))
        assert abs(single_variance - variance) <= 1e-9 * scale


@SETTINGS
@given(separated_model_cases())
def test_prediction_interpolates_training_data_up_to_the_nugget(case):
    data, params = case
    model = model_at(data, params)
    nugget = model.params.nugget  # the value that factored, after any escalation
    means, variances = predict_batch(model, data.X)
    # With C = K + nugget*I, k_i' C^-1 r = r_i - nugget * alpha_i exactly, so
    # mean_i - y_i = -nugget * alpha_i up to rounding on the scale of the sums.
    scale = abs(model.mu_hat) + np.abs(data.y) + np.abs(model.alpha).sum()
    assert np.all(np.abs(means - data.y + nugget * model.alpha) <= 1e-9 * scale)
    # 1 + nugget - k_i' C^-1 k_i = 2 nugget - nugget^2 (C^-1)_ii, in [nugget, 2 nugget)
    assert np.all(variances >= 0.0)
    assert np.all(variances <= (2.0 * nugget + 1e-10) * model.sigma2_hat)


@SETTINGS
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    st.lists(st.floats(0.0, 1e6), min_size=30, max_size=30),
    st.floats(-1e6, 1e6),
)
def test_expected_improvement_bounds_plain_improvement(means, variances, y_best):
    means = np.array(means)
    ei = improvement_from_moments(means, np.array(variances[: means.size]), y_best)
    assert np.all(ei >= np.maximum(y_best - means, 0.0))


@SETTINGS
@given(
    st.integers(1, 6),
    st.integers(1, 330),
    st.integers(0, 2**32 - 1),
)
def test_de_spends_exactly_its_budget(d, budget, seed):
    calls = []

    def objective(batch):
        calls.append(len(batch))
        return (batch * batch).sum(axis=1)

    bounds = BoxBounds(np.full(d, -1.0), np.full(d, 1.0))
    x_best = minimize(objective, bounds, budget, seed)
    assert sum(calls) == budget
    assert bounds.contains(x_best)


def deduplicated_rows_by_loop(X):
    """Dataset.deduplicated's keep-first rule as one loop over the rows: a row
    is kept unless an earlier kept row lies within DUPLICATE_TOL in max-norm."""
    keep = []
    for i in range(len(X)):
        kept = X[keep]
        if keep and float(np.abs(kept - X[i]).max(axis=1).min()) < DUPLICATE_TOL:
            continue
        keep.append(i)
    return keep


@st.composite
def near_duplicate_rows(draw):
    # Rows drawn from a few base points, some repeated exactly and some moved
    # along a chain of 0.6 * DUPLICATE_TOL steps: consecutive chain points are
    # near each other, points two steps apart are not.
    d = draw(st.integers(1, 4))
    bases = draw(points(d, draw(st.integers(1, 4))))
    picks = draw(st.lists(st.tuples(st.integers(0, len(bases) - 1), st.integers(0, 4)),
                          min_size=1, max_size=30))
    axis = draw(st.integers(0, d - 1))
    X = np.array([bases[base] for base, _ in picks])
    X[:, axis] += np.array([step for _, step in picks]) * (0.6 * DUPLICATE_TOL)
    return X


@SETTINGS
@given(near_duplicate_rows())
def test_deduplicated_keeps_the_rows_of_the_loop(X):
    rows = np.arange(len(X), dtype=float)
    kept = Dataset(X, rows).deduplicated()
    expected = deduplicated_rows_by_loop(X)
    np.testing.assert_array_equal(kept.y, expected)
    np.testing.assert_array_equal(kept.X, X[expected])
