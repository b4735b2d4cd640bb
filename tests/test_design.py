import numpy as np
import pytest

from infillbench.design import BoxBounds, InvalidBounds, latin_hypercube, uniform_random


def strata_covered(points, bounds, dim):
    """Stratum index of each point along one dimension."""
    n = points.shape[0]
    unit = (points[:, dim] - bounds.lower[dim]) / bounds.span[dim]
    return np.sort(np.floor(unit * n).astype(int))


class TestBoxBounds:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(InvalidBounds):
            BoxBounds([0.0, 1.0], [1.0, 0.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidBounds):
            BoxBounds([0.0], [1.0, 2.0])

    @pytest.mark.parametrize("lower, upper", [
        ([0.0, np.nan], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.inf]),
        ([-np.inf, 0.0], [1.0, 1.0]),
    ])
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(InvalidBounds, match="finite"):
            BoxBounds(lower, upper)

    def test_rejects_a_box_of_no_dimensions(self):
        # Every other check holds vacuously on empty bound vectors.
        with pytest.raises(InvalidBounds, match="non-empty"):
            BoxBounds([], [])
        with pytest.raises(InvalidBounds, match="non-empty"):
            BoxBounds.cube(0)

    def test_cube(self):
        b = BoxBounds.cube(3)
        assert b.dimension == 3
        np.testing.assert_array_equal(b.lower, [-5.0, -5.0, -5.0])


class TestLatinHypercube:
    def test_single_point_inside_unit_square(self):
        b = BoxBounds([0.0, 0.0], [1.0, 1.0])
        pts = latin_hypercube(1, b, seed=0)
        assert pts.shape == (1, 2)
        assert b.contains(pts[0])

    def test_stratification(self):
        b = BoxBounds.cube(3)
        pts = latin_hypercube(10, b, seed=42)
        for dim in range(3):
            np.testing.assert_array_equal(strata_covered(pts, b, dim), np.arange(10))

    def test_deterministic_per_seed(self):
        b = BoxBounds.cube(4)
        np.testing.assert_array_equal(
            latin_hypercube(8, b, seed=5), latin_hypercube(8, b, seed=5)
        )
        assert not np.array_equal(latin_hypercube(8, b, seed=5), latin_hypercube(8, b, seed=6))

    def test_stratification_sweep(self):
        # every (n, d) combination keeps one point per stratum per dimension
        rng = np.random.default_rng(3)
        for n in range(2, 51, 7):
            for d in range(1, 11, 3):
                b = BoxBounds.cube(d, -2.0, 7.0)
                pts = latin_hypercube(n, b, seed=int(rng.integers(1 << 30)))
                assert np.all(pts >= b.lower) and np.all(pts <= b.upper)
                for dim in range(d):
                    np.testing.assert_array_equal(strata_covered(pts, b, dim), np.arange(n))

    def test_rejects_empty_design(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, BoxBounds.cube(2), seed=0)


class TestUniformRandom:
    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="at least one point"):
            uniform_random(0, BoxBounds.cube(2), seed=0)

    def test_inside_bounds(self):
        b = BoxBounds([-1.0, 0.0], [2.0, 0.5])
        pts = uniform_random(500, b, seed=1)
        assert np.all(pts >= b.lower) and np.all(pts <= b.upper)

    def test_sample_mean(self):
        # law of large numbers: mean of 1000 uniforms on [0,1] within 0.5 +- 0.05 (~3 sigma)
        pts = uniform_random(1000, BoxBounds([0.0], [1.0]), seed=2)
        assert abs(pts.mean() - 0.5) <= 0.05

    def test_deterministic_per_seed(self):
        b = BoxBounds.cube(3)
        np.testing.assert_array_equal(uniform_random(20, b, 9), uniform_random(20, b, 9))
