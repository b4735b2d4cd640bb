"""Gaussian distribution helpers, floating-point mode control, and the loader
of the two scipy extension modules the surrogate stack calls.

Importing this module loads no scipy. ``_scipy_extension`` loads one
compiled module of scipy from its file, without running the ``__init__`` of
the subpackage that holds it: ``scipy.linalg`` and ``scipy.special`` load
code the surrogate never calls, about 20 MB of peak RSS and a quarter of a
second per process together. The module objects are the ones scipy's own
import gives, so every result keeps its bits.

``standard_normal_cdf`` takes scipy's erfc ufunc on its first call, from
``scipy.special._special_ufuncs`` alone, or from ``scipy.special`` on an
older scipy whose ``_special_ufuncs`` is missing or lacks erfc.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import platform
import sys
from types import ModuleType
from typing import Optional

import numpy as np

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _scipy_extension(subpackage: str, name: str) -> Optional[ModuleType]:
    """The compiled module ``scipy.<subpackage>.<name>``, or None if scipy has no such file.

    A module scipy has already imported is returned as it is. Otherwise the
    module is loaded from its file under its full name, and the entry its
    init puts in ``sys.modules`` is taken out again, so that a later import
    through the package runs the package ``__init__`` and binds the module
    as its attribute. Call it on one thread at a time.
    """
    full_name = f"scipy.{subpackage}.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    scipy_spec = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy_spec is None:
        return None
    directories = [os.path.join(location, subpackage) for location in scipy_spec.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec(name, directories)
    if found is None:
        return None
    spec = importlib.util.spec_from_file_location(full_name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full_name, None)
    return module


@functools.cache
def _erfc():
    """scipy's erfc ufunc, loaded on the first call."""
    ufuncs = _scipy_extension("special", "_special_ufuncs")
    if ufuncs is not None and hasattr(ufuncs, "erfc"):
        return ufuncs.erfc
    import scipy.special  # a scipy older than _special_ufuncs' erfc

    return scipy.special.erfc


def standard_normal_cdf(z):
    """Phi(z), the standard normal CDF. Accepts scalars or arrays.

    Computed through erfc so the far tails keep full relative accuracy.
    """
    return 0.5 * _erfc()(-z / _SQRT_2)


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
