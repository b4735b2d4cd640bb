import numpy as np
import pytest

from infillbench.numerics import (
    SingularMatrix,
    solve_triangular,
    standard_normal_cdf,
    standard_normal_pdf,
)


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

    def test_zero_diagonal_raises(self):
        with pytest.raises(SingularMatrix):
            solve_triangular(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))

    def test_multiply_back_well_conditioned(self):
        rng = np.random.default_rng(11)
        for n in (3, 17, 64, 200):
            l = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
            l[np.diag_indices(n)] = rng.uniform(1.0, 2.0, n)
            b = rng.normal(size=n)
            x = solve_triangular(l, b)
            assert np.abs(l @ x - b).max() <= 1e-9 * np.abs(b).max()


class TestStandardNormal:
    def test_cdf_at_zero(self):
        assert standard_normal_cdf(0.0) == 0.5

    def test_cdf_upper_tail_value(self):
        # 0.9750000009035575 computed by quadrature of the density over (-inf, z]
        assert abs(standard_normal_cdf(1.959964) - 0.975) <= 1e-6
        assert abs(standard_normal_cdf(1.959964) - 0.9750000009035575) <= 1e-9

    def test_cdf_far_tail(self):
        # quadrature oracle: Phi(-8) = 6.221245601246986e-16
        value = standard_normal_cdf(-8.0)
        assert value < 1e-14
        assert abs(value - 6.221245601246986e-16) <= 1e-18

    def test_cdf_monotone_and_symmetric(self):
        z = np.linspace(-10.0, 10.0, 2001)
        c = standard_normal_cdf(z)
        assert np.all(np.diff(c) >= 0.0)
        assert np.abs(c + standard_normal_cdf(-z) - 1.0).max() <= 1e-12

    def test_pdf_values(self):
        # 1/sqrt(2*pi) and exp(-1/2)/sqrt(2*pi) evaluated at full precision
        assert abs(standard_normal_pdf(0.0) - 0.3989422804014327) <= 1e-6
        assert abs(standard_normal_pdf(1.0) - 0.24197072451914337) <= 1e-6

    def test_pdf_even(self):
        z = np.linspace(0.0, 20.0, 500)
        np.testing.assert_array_equal(standard_normal_pdf(z), standard_normal_pdf(-z))
