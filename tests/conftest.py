import ctypes
import glob
import os
from pathlib import Path

import numpy as np
import pytest

import infillbench.de as de
from infillbench.kriging import solve_triangular
from infillbench.smbo import MANIFEST_NAME


def numeric_host():
    """What the exact bits of a fit depend on besides the code: the numpy and
    scipy versions, the SIMD targets numpy dispatches to here (its float64
    exp and log take an AVX-512 path only on some CPUs) and the runtime core
    of the OpenBLAS each package bundles (f13's rotation goes through numpy's
    BLAS, the Cholesky through scipy's LAPACK). A core that cannot be read is
    None."""
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    def openblas_core(package):
        libraries = os.path.join(os.path.dirname(package.__file__), "..", package.__name__ + ".libs")
        for path in glob.glob(os.path.join(libraries, "*openblas*")):
            library = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for name in (f"{prefix}_get_corename64_", f"{prefix}_get_corename"):
                    if hasattr(library, name):
                        getattr(library, name).restype = ctypes.c_char_p
                        return getattr(library, name)().decode()
        return None

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd": sorted(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)),
        "openblas": [openblas_core(np), openblas_core(scipy)],
    }


# The host every golden value in the suite (fits, run logs) was recorded on.
GOLDEN_HOST = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
    "openblas": ["SkylakeX", "SkylakeX"],
}


def unbuffered_moments(model, points):
    """The means and variances of ``model`` at ``points`` by the query routine
    every cached run log was made with: a broadcast difference, the kernel out
    of place and solve_triangular on a copy of the correlations."""
    params = model.params
    with np.errstate(divide="ignore"):
        terms = np.exp(np.log(np.abs(points[:, None, :] - model.data.X[None])) * params.power)
    corr = np.exp(-(terms @ params.theta))
    means = model.mu_hat + corr @ model.alpha
    whitened = solve_triangular(model.chol, corr.T)
    variances = model.sigma2_hat * (1.0 + params.nugget - (whitened * whitened).sum(axis=0))
    return means, np.maximum(variances, 0.0)


@pytest.fixture
def golden_host():
    """Skip a test of recorded bits on any host other than GOLDEN_HOST, where
    the same code may round otherwise."""
    host = numeric_host()
    if host != GOLDEN_HOST:
        pytest.skip(f"golden bits were recorded on {GOLDEN_HOST}, not this host {host}")


@pytest.fixture
def search_rows(monkeypatch):
    """Rows each ``de.minimize`` search hands its objective, one count per search in call order.

    The objective is wrapped, so a count is what the search evaluated, not
    what it reports.
    """
    counts, original = [], de.minimize

    def counting(objective, *args, **kwargs):
        counts.append(0)
        index = len(counts) - 1

        def counted(vectors):
            counts[index] += len(vectors)
            return objective(vectors)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(de, "minimize", counting)
    return counts


@pytest.fixture
def manifest_reads(monkeypatch):
    """Every manifest file read through ``Path.read_text`` during the test, in order."""
    reads, original = [], Path.read_text

    def recording(self, *args, **kwargs):
        if self.name == MANIFEST_NAME:
            reads.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", recording)
    return reads
