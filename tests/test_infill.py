import numpy as np
import pytest
from scipy.stats import norm

from infillbench import de
from infillbench.design import BoxBounds
from infillbench.infill import InfillCriterion, improvement_from_moments, propose
from infillbench.kriging import (
    Dataset,
    KrigingHyperparameters,
    Query,
    fit,
    model_at,
    predict_batch,
)
from infillbench.numerics import standard_normal_cdf, standard_normal_pdf

from conftest import unbuffered_moments


@pytest.fixture(scope="module")
def parabola_model():
    x = np.linspace(0.0, 1.0, 12)[:, None]
    y = (x[:, 0] - 0.3) ** 2
    return fit(Dataset(x, y), seed=3)


class TestExpectedImprovement:
    def test_no_uncertainty_no_improvement(self):
        assert improvement_from_moments(1.0, 0.0, 1.0) == 0.0

    def test_no_uncertainty_mean_above_best(self):
        assert improvement_from_moments(2.0, 0.0, 1.0) == 0.0

    def test_deterministic_improvement(self):
        # mean one unit below the best with vanishing spread
        assert improvement_from_moments(0.0, 0.0, 1.0) == 1.0
        np.testing.assert_allclose(improvement_from_moments(0.0, 1e-30, 1.0), 1.0, rtol=1e-9)

    def test_mean_at_best_equals_pdf_at_zero(self):
        # E[max(y_best - N(y_best, 1), 0)] = phi(0)
        np.testing.assert_allclose(
            improvement_from_moments(0.0, 1.0, 0.0), 0.3989422804014327, atol=1e-9
        )

    def test_never_negative(self):
        rng = np.random.default_rng(4)
        means = rng.normal(size=1000)
        variances = rng.uniform(0.0, 4.0, 1000)
        ei = improvement_from_moments(means, variances, 0.0)
        assert np.all(ei >= 0.0)

    def test_monotone_in_uncertainty(self):
        # more spread means more expected improvement (mean not below best)
        for mean in (0.0, 0.5, 1.0, 2.5):
            spreads = np.linspace(0.05, 4.0, 60)
            ei = improvement_from_moments(mean, spreads**2, 0.0)
            assert np.all(np.diff(ei) > 0.0)

    def test_strictly_decreasing_in_mean(self):
        means = np.linspace(-2.0, 4.0, 80)
        ei = improvement_from_moments(means, 1.0, 0.0)
        assert np.all(np.diff(ei) < 0.0)

    def test_model_route_matches_moment_route(self, parabola_model):
        # EI of the model's batch moments, against the closed form written out
        points = np.random.default_rng(5).uniform(0.0, 1.0, (20, 1))
        means, variances = predict_batch(parabola_model, points)
        spreads = np.sqrt(variances)
        z = (0.1 - means) / spreads
        closed_form = (0.1 - means) * norm.cdf(z) + spreads * norm.pdf(z)
        np.testing.assert_allclose(
            improvement_from_moments(means, variances, 0.1), closed_form, rtol=1e-12
        )


class TestPropose:
    def test_predicted_value_finds_model_minimum(self, parabola_model):
        bounds = BoxBounds([0.0], [1.0])
        proposal = propose(parabola_model, InfillCriterion.PREDICTED_VALUE, bounds, 0.0, seed=7)
        # dense grid scan of the surrogate mean as the reference
        grid = np.linspace(0.0, 1.0, 10_000)[:, None]
        means, _ = predict_batch(parabola_model, grid)
        assert abs(proposal[0] - 0.3) <= 0.05
        (proposal_mean,), _ = predict_batch(parabola_model, proposal)
        assert proposal_mean <= means.min() + 1e-9 * np.ptp(means)

    def test_expected_improvement_near_grid_optimum(self, parabola_model):
        bounds = BoxBounds([0.0], [1.0])
        y_best = float(((np.linspace(0, 1, 12) - 0.3) ** 2).min())
        proposal = propose(
            parabola_model, InfillCriterion.EXPECTED_IMPROVEMENT, bounds, y_best, seed=8
        )
        grid = np.linspace(0.0, 1.0, 10_000)[:, None]
        grid_ei = improvement_from_moments(*predict_batch(parabola_model, grid), y_best)
        (proposal_ei,) = improvement_from_moments(*predict_batch(parabola_model, proposal), y_best)
        assert proposal_ei >= 0.999 * grid_ei.max()

    def test_random_search_reproducible_and_inside(self):
        bounds = BoxBounds.cube(3)
        a = propose(None, InfillCriterion.RANDOM_SEARCH, bounds, 0.0, seed=5)
        b = propose(None, InfillCriterion.RANDOM_SEARCH, bounds, 0.0, seed=5)
        np.testing.assert_array_equal(a, b)
        assert bounds.contains(a)

    def test_model_based_requires_model(self):
        with pytest.raises(ValueError):
            propose(None, InfillCriterion.PREDICTED_VALUE, BoxBounds.cube(2), 0.0, seed=1)

    def test_proposals_stay_inside_bounds(self, parabola_model):
        bounds = BoxBounds([0.0], [1.0])
        for seed in range(10):
            for criterion in (InfillCriterion.PREDICTED_VALUE, InfillCriterion.EXPECTED_IMPROVEMENT):
                proposal = propose(parabola_model, criterion, bounds, 0.05, seed=seed)
                assert bounds.contains(proposal)

    def test_model_evaluation_budget_exact(self, parabola_model, monkeypatch):
        counter = {"rows": 0}

        def counting(query_method):
            # Proposals query the model only through Query.means and Query.moments.
            def counted(query, points):
                counter["rows"] += np.atleast_2d(points).shape[0]
                return query_method(query, points)

            return counted

        monkeypatch.setattr(Query, "means", counting(Query.means))
        monkeypatch.setattr(Query, "moments", counting(Query.moments))
        bounds = BoxBounds([0.0], [1.0])
        propose(parabola_model, InfillCriterion.PREDICTED_VALUE, bounds, 0.0, seed=2)
        assert counter["rows"] == 1000 * 1

        counter["rows"] = 0
        propose(parabola_model, InfillCriterion.EXPECTED_IMPROVEMENT, bounds, 0.0, seed=2)
        assert counter["rows"] == 1000 * 1

    def test_random_search_never_touches_model(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("random search must not evaluate the model")

        monkeypatch.setattr(Query, "__init__", forbidden)  # predict_batch builds one too
        bounds = BoxBounds.cube(2)
        proposal = propose(None, InfillCriterion.RANDOM_SEARCH, bounds, 0.0, seed=3)
        assert bounds.contains(proposal)


def reference_improvement(means, variances, y_best):
    """Expected improvement as the cached run logs computed it."""
    stds = np.sqrt(variances)
    shortfall = y_best - means
    deterministic = np.maximum(shortfall, 0.0)
    safe_stds = np.where(stds < 1.0e-12, 1.0, stds)
    z = shortfall / safe_stds
    stochastic = shortfall * standard_normal_cdf(z) + safe_stds * standard_normal_pdf(z)
    return np.where(stds < 1.0e-12, deterministic, np.maximum(stochastic, 0.0))


@pytest.mark.parametrize("criterion", [InfillCriterion.PREDICTED_VALUE, InfillCriterion.EXPECTED_IMPROVEMENT])
@pytest.mark.parametrize("d, n", [(2, 25), (2, 39), (5, 60), (10, 150)])
def test_proposal_is_the_reference_search_point(monkeypatch, d, n, criterion):
    # The whole proposal path, pinned on any host: the same point as a search
    # driven by the reference routines, and every value the search saw equal
    # to the reference value of the same trials.
    rng = np.random.default_rng(7 * d + n)
    X = rng.uniform(-5.0, 5.0, (n, d))
    X[::5, 0] = 5.0  # rows on the box face, where clamped trials meet them
    data = Dataset(X, np.sin(X).sum(axis=1) + 0.05 * (X * X).sum(axis=1))
    params = KrigingHyperparameters(
        10.0 ** rng.uniform(-1.5, 0.0, d) / d, rng.uniform(0.5, 2.0, d), 1e-6
    )
    model = model_at(data, params)
    bounds, y_best = BoxBounds.cube(d), float(data.y.min())
    if criterion is InfillCriterion.PREDICTED_VALUE:

        def reference(points):
            return unbuffered_moments(model, points)[0]

    else:

        def reference(points):
            return -reference_improvement(*unbuffered_moments(model, points), y_best)

    seen, original = [], de.minimize

    def recording(objective, *args):
        def recorded(points):
            values = objective(points)
            seen.append((points.copy(), values))
            return values

        return original(recorded, *args)

    for seed in range(4):
        expected = de.minimize(reference, bounds, 1000 * d, seed)
        with monkeypatch.context() as patch:
            patch.setattr(de, "minimize", recording)
            np.testing.assert_array_equal(propose(model, criterion, bounds, y_best, seed), expected)
    assert sum(len(points) for points, _ in seen) == 4 * 1000 * d
    for points, values in seen:
        np.testing.assert_array_equal(values, reference(points))
