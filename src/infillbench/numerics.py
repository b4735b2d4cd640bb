"""Gaussian distribution helpers and floating-point mode control for the surrogate stack.

``standard_normal_cdf`` takes erfc from scipy.special, which it imports on
its first call, so importing this module loads no scipy.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import platform

import numpy as np

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def standard_normal_cdf(z):
    """Phi(z), the standard normal CDF. Accepts scalars or arrays.

    Computed through erfc so the far tails keep full relative accuracy.
    """
    import scipy.special

    return 0.5 * scipy.special.erfc(-z / _SQRT_2)


def standard_normal_pdf(z):
    """phi(z) = exp(-z^2 / 2) / sqrt(2 pi). Accepts scalars or arrays."""
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


# glibc's x86-64 fenv_t is 32 bytes: 28 bytes of x87 state, then the SSE
# control/status register MXCSR as the last 32-bit word.
_FenvT = ctypes.c_uint32 * 8
_MXCSR_WORD = 7
_MXCSR_STATUS_FLAGS = 0x3F
_MXCSR_DEFAULT = 0x1F80  # all exceptions masked, round to nearest, no FTZ/DAZ
_MXCSR_FTZ_DAZ = 0x8040


def _libm_fenv():
    """libm's (fegetenv, fesetenv) where the flush is known to be safe, else None.

    That is x86-64 glibc with the MXCSR control bits read back at their
    defaults, which also confirms the fenv_t layout above.
    """
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        return None
    try:
        libm = ctypes.CDLL("libm.so.6")
    except OSError:
        return None
    fegetenv, fesetenv = libm.fegetenv, libm.fesetenv
    for function in (fegetenv, fesetenv):
        function.argtypes = [ctypes.POINTER(_FenvT)]
        function.restype = ctypes.c_int
    env = _FenvT()
    if fegetenv(env) != 0 or env[_MXCSR_WORD] & ~_MXCSR_STATUS_FLAGS != _MXCSR_DEFAULT:
        return None
    return fegetenv, fesetenv


_FENV = _libm_fenv()


@contextlib.contextmanager
def flush_subnormals():
    """Flush subnormal results and inputs to zero (MXCSR FTZ | DAZ) inside the block.

    Arithmetic on subnormal doubles is many times slower than on normal ones,
    and LAPACK's Cholesky meets and creates them when large kernel weights
    push correlations toward underflow. The block acts on the calling thread
    only, and the saved floating-point environment comes back on every exit,
    including by an exception. Only x86-64 glibc is supported; elsewhere the
    block is a no-op.
    """
    if _FENV is None:
        yield
        return
    fegetenv, fesetenv = _FENV
    saved = _FenvT()
    if fegetenv(saved) != 0:
        raise OSError("fegetenv failed")
    flushed = _FenvT.from_buffer_copy(saved)
    flushed[_MXCSR_WORD] |= _MXCSR_FTZ_DAZ
    if fesetenv(flushed) != 0:
        raise OSError("fesetenv failed")
    try:
        yield
    finally:
        fesetenv(saved)
