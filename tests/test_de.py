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
        x_best = minimize(rowwise(tracking), BoxBounds.cube(2), 19, seed=0)
        assert len(calls) == 19
        assert sphere(x_best) == min(calls)

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            minimize(rowwise(sphere), BoxBounds.cube(2), 0, seed=0)

    @pytest.mark.parametrize("objective", [
        lambda points: np.array([sphere(points[0])]),
        lambda points: sphere(points[0]),
        lambda points: np.zeros(len(points) + 1),
    ], ids=["one_value", "scalar", "one_value_too_many"])
    def test_objective_must_return_one_value_per_row(self, objective):
        # a single value would broadcast over the population and search on
        with pytest.raises(ValueError, match=r"for 20 points, not \(20,\)"):
            minimize(objective, BoxBounds.cube(2), 200, seed=0)


class TestMinimize:
    def test_sphere_convergence(self):
        assert sphere(minimize(rowwise(sphere), BoxBounds.cube(2), 2000, seed=7)) < 1e-6

    def test_budget_equal_to_population_is_random_best(self):
        calls = []

        def tracking(x):
            calls.append(sphere(x))
            return calls[-1]

        x_best = minimize(rowwise(tracking), BoxBounds.cube(3), 30, seed=3)
        assert len(calls) == 30
        assert sphere(x_best) == min(calls)

    def test_deterministic(self):
        a = minimize(rowwise(sphere), BoxBounds.cube(4), 500, seed=11)
        b = minimize(rowwise(sphere), BoxBounds.cube(4), 500, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_exact_budget_mid_generation(self):
        count = 0

        def counting(x):
            nonlocal count
            count += 1
            return sphere(x)

        minimize(rowwise(counting), BoxBounds.cube(2), 73, seed=5)
        assert count == 73

    def test_returns_best_ever_evaluated(self):
        seen = []

        def tracking(x):
            seen.append((x.copy(), sphere(x)))
            return seen[-1][1]

        x_best = minimize(rowwise(tracking), BoxBounds.cube(2), 333, seed=9)
        values = [v for _, v in seen]
        np.testing.assert_array_equal(x_best, seen[int(np.argmin(values))][0])
        assert sphere(x_best) == min(values)

    def test_all_evaluations_inside_bounds(self):
        bounds = BoxBounds([-1.0, 2.0], [0.5, 3.0])

        def checked(x):
            assert bounds.contains(x)
            return sphere(x)

        minimize(rowwise(checked), bounds, 400, seed=1)

    def test_nonfinite_objective_penalized(self):
        def spiky(x):
            return np.inf if x[0] > 0 else float(x @ x)

        x_best = minimize(rowwise(spiky), BoxBounds.cube(2), 200, seed=2)
        assert np.isfinite(spiky(x_best))

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

            x_best = minimize(rowwise(quad), BoxBounds.cube(d), 1000 * d, seed=1000 + trial)
            hits += quad(x_best) <= 1e-3
        assert hits >= 95


def max_square_objective(points):
    """Rows scored independently; a max rounds alike in any order, so the
    values hold on any host."""
    delta = points - np.linspace(-0.7, 0.9, points.shape[1])
    return np.max(delta * delta, axis=1) + 0.25 * np.abs(points[:, 0])


class TestGolden:
    """The random stream and the bookkeeping, pinned: these are the results the
    generation-by-generation rewrite of the loop had to reproduce bit for bit."""

    @pytest.mark.parametrize(
        "d, budget, seed, f_best, x_best",
        [
            # 61 generations and 14 of the next 20 trials
            (2, 1234, 3, "0x1.46666666666d7p-3", ["-0x1.266668485b659p-1", "0x1.b6a965271947bp-1"]),
            # 100 whole generations
            (2, 2000, 8, "0x1.4666666666666p-3", ["-0x1.2666665db82adp-1", "0x1.cd900aea46c76p-1"]),
            # 15 generations and 27 of the next 50 trials
            (
                5, 777, 11, "0x1.170aab5d2fa68p+0",
                ["-0x1.76251a48700a2p+0", "0x1.9f165e069c022p-2", "-0x1.80a4276eeadcfp-1",
                 "0x1.e9f40ceeb2580p-3", "0x1.99a9aea1522d8p-4"],
            ),
            # population 50 of 21-d points: 25 generations and 37 trials
            (
                21, 1337, 5, "0x1.4197bbb5a9020p+4",
                ["0x1.bcba8eed7f000p-7", "0x1.e862cf3604ff8p+0", "0x1.f91f5d21e8c3cp+0",
                 "-0x1.3c58086af7f01p+2", "-0x1.26ff80c6a9e7bp+2", "-0x1.c13b2055fb0c7p+1",
                 "-0x1.6e8c0a0777a78p+1", "-0x1.7be2a3364c27ap+1", "-0x1.20a97aa55a89fp+2",
                 "-0x1.69f82aef182f6p+1", "0x1.026cde35ea418p+0", "0x1.ee2d1be0b4d90p+1",
                 "-0x1.81452f422d5a8p+0", "-0x1.5600f373ff0ecp+0", "-0x1.aa4846894c128p-1",
                 "0x1.cdacca7adac60p+0", "0x1.6d269193b0048p+1", "0x1.1a36927c11038p+2",
                 "-0x1.3e3538876350ep+0", "0x1.08abc5755c0d8p+1", "-0x1.956abc3798950p+0"],
            ),
        ],
    )
    def test_result_bits(self, d, budget, seed, f_best, x_best):
        point = minimize(max_square_objective, BoxBounds.cube(d), budget, seed)
        assert [float(v).hex() for v in point] == x_best
        # Rows are scored independently, so the point alone gets its search value.
        assert float(max_square_objective(point[None])[0]).hex() == f_best
