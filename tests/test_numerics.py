import platform

import numpy as np
import pytest

from infillbench.numerics import flush_subnormals, standard_normal_cdf, standard_normal_pdf

FLUSH_SUPPORTED = platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc"
SUBNORMAL_EXP = -720.0  # exp(-720) ~ 2e-313 lies below the smallest normal double


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


@pytest.mark.skipif(not FLUSH_SUPPORTED, reason="the flush acts on x86-64 glibc only")
class TestFlushSubnormals:
    def test_flushes_inside_the_block(self):
        assert np.exp(SUBNORMAL_EXP) > 0.0
        with flush_subnormals():
            assert np.exp(SUBNORMAL_EXP) == 0.0
        assert np.exp(SUBNORMAL_EXP) > 0.0

    def test_restored_after_an_exception(self):
        with pytest.raises(KeyError):
            with flush_subnormals():
                raise KeyError("inside")
        assert np.exp(SUBNORMAL_EXP) > 0.0

    def test_nested_blocks_restore_the_outer_mode(self):
        with flush_subnormals():
            with flush_subnormals():
                assert np.exp(SUBNORMAL_EXP) == 0.0
            assert np.exp(SUBNORMAL_EXP) == 0.0
        assert np.exp(SUBNORMAL_EXP) > 0.0


@pytest.mark.skipif(FLUSH_SUPPORTED, reason="the flush is active on this platform")
def test_flush_is_a_no_op_elsewhere():
    with flush_subnormals():
        assert np.exp(SUBNORMAL_EXP) > 0.0
