import numpy as np
import pytest

from infillbench.de import minimize
from infillbench.design import BoxBounds


def sphere(x):
    return float(x @ x)


def rowwise(f):
    """Batch objective that applies the point objective f to each row."""
    return lambda points: np.array([f(p) for p in points])


class TestBudget:
    def test_budget_below_population_evaluates_initial_members(self):
        calls = []

        def tracking(x):
            calls.append(sphere(x))
            return calls[-1]

        # cube(2) has a population of 20
        result = minimize(rowwise(tracking), BoxBounds.cube(2), 19, seed=0)
        assert result.evaluations_used == 19
        assert len(calls) == 19
        assert result.f_best == min(calls)

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            minimize(rowwise(sphere), BoxBounds.cube(2), 0, seed=0)


class TestMinimize:
    def test_sphere_convergence(self):
        result = minimize(rowwise(sphere), BoxBounds.cube(2), 2000, seed=7)
        assert result.f_best < 1e-6
        assert result.evaluations_used == 2000

    def test_budget_equal_to_population_is_random_best(self):
        calls = []

        def tracking(x):
            calls.append(sphere(x))
            return calls[-1]

        result = minimize(rowwise(tracking), BoxBounds.cube(3), 30, seed=3)
        assert result.evaluations_used == 30
        assert len(calls) == 30
        assert result.f_best == min(calls)

    def test_deterministic(self):
        a = minimize(rowwise(sphere), BoxBounds.cube(4), 500, seed=11)
        b = minimize(rowwise(sphere), BoxBounds.cube(4), 500, seed=11)
        np.testing.assert_array_equal(a.x_best, b.x_best)
        assert a.f_best == b.f_best

    def test_exact_budget_mid_generation(self):
        count = 0

        def counting(x):
            nonlocal count
            count += 1
            return sphere(x)

        result = minimize(rowwise(counting), BoxBounds.cube(2), 73, seed=5)
        assert count == 73
        assert result.evaluations_used == 73

    def test_returns_best_ever_evaluated(self):
        seen = []

        def tracking(x):
            seen.append((x.copy(), sphere(x)))
            return seen[-1][1]

        result = minimize(rowwise(tracking), BoxBounds.cube(2), 333, seed=9)
        values = [v for _, v in seen]
        assert result.f_best == min(values)
        best_x = seen[int(np.argmin(values))][0]
        np.testing.assert_array_equal(result.x_best, best_x)

    def test_all_evaluations_inside_bounds(self):
        bounds = BoxBounds([-1.0, 2.0], [0.5, 3.0])

        def checked(x):
            assert bounds.contains(x)
            return sphere(x)

        minimize(rowwise(checked), bounds, 400, seed=1)

    def test_nonfinite_objective_penalized(self):
        def spiky(x):
            return np.inf if x[0] > 0 else float(x @ x)

        result = minimize(rowwise(spiky), BoxBounds.cube(2), 200, seed=2)
        assert np.isfinite(result.f_best)

    def test_incumbent_monotone(self):
        best_curve = []
        best = np.inf

        def tracking(x):
            nonlocal best
            value = sphere(x)
            best = min(best, value)
            best_curve.append(best)
            return value

        minimize(rowwise(tracking), BoxBounds.cube(3), 500, seed=4)
        assert all(b <= a for a, b in zip(best_curve, best_curve[1:]))

    def test_convex_quadratic_success_rate(self):
        # 1000*d budget lands below 1e-3 in at least 95 of 100 seeded runs
        rng = np.random.default_rng(12)
        hits = 0
        for trial in range(100):
            d = int(rng.integers(2, 6))
            shift = rng.uniform(-2.0, 2.0, d)

            def quad(x, shift=shift):
                delta = x - shift
                return float(delta @ delta)

            result = minimize(rowwise(quad), BoxBounds.cube(d), 1000 * d, seed=1000 + trial)
            hits += result.f_best <= 1e-3
        assert hits >= 95
