"""Modules load on first use. ``import infillbench`` loads no submodule and
no numpy, and a public name loads only the modules it needs. scipy loads only
the two compiled modules the surrogate calls: importing infillbench, listing
the suite and giving advice load none of it; a fit and an EI proposal load
neither the ``scipy.linalg`` nor the ``scipy.special`` package, and give the
bits they give with both imported beforehand; a later import of either
package still works and agrees.

Each check runs in a fresh interpreter, because this one has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> str:
    """The last line the code prints in a fresh interpreter with this checkout's source."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SOURCE), OPENBLAS_NUM_THREADS="1"),
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
INFILLBENCH_MODULES = "sorted(m for m in sys.modules if m.startswith('infillbench.'))"


def test_import_loads_no_submodule_and_instances_load_only_theirs():
    code = (
        "import json, sys\n"
        "import infillbench\n"
        f"bare = [{INFILLBENCH_MODULES}, 'numpy' in sys.modules]\n"
        "infillbench.make_instance(3, 2, 1)\n"
        f"print(json.dumps(bare + [{INFILLBENCH_MODULES}]))\n"
    )
    assert json.loads(run_fresh(code)) == [[], False, ["infillbench.design", "infillbench.testbed"]]


def test_fit_loads_only_the_kriging_chain():
    code = f"import sys\nfrom infillbench import fit\nprint({INFILLBENCH_MODULES})\n"
    expected = ["infillbench.de", "infillbench.design", "infillbench.kriging", "infillbench.numerics"]
    assert run_fresh(code) == repr(expected)


def test_import_list_and_recommend_load_no_scipy():
    code = (
        "import sys\n"
        "import infillbench\n"
        "from infillbench import cli\n"
        "assert cli.main(['list']) == 0\n"
        "assert cli.main(['recommend', '-d', '10', '-b', '100']) == 0\n"
        f"print({SCIPY_MODULES})\n"
    )
    assert run_fresh(code) == "[]"


# A fit and an EI proposal per case, hashed over every bit of the model and
# the point. Prints the scipy modules loaded before and after the calls, then
# the hash.
# The d=10 fit spends 100 likelihood evaluations per parameter, not 500, to
# keep the test short; it still runs the flushed likelihood search, threaded
# on a host with two or more CPUs.
FIT_AND_PROPOSE = """
import hashlib, json, sys
{preload}
loaded = {scipy_modules}
from infillbench import (Dataset, InfillCriterion, evaluate, fit, latin_hypercube,
                         make_instance, propose)

digest = hashlib.sha256()
for function_id, dimension, n, evals_per_param in ((3, 2, 25, 500), (13, 10, 150, 100)):
    f = make_instance(function_id, dimension, 1)
    X = latin_hypercube(n, f.bounds, 7)
    y = [evaluate(f, x) for x in X]
    model = fit(Dataset(X, y), seed=11, evals_per_param=evals_per_param)
    point = propose(model, InfillCriterion.EXPECTED_IMPROVEMENT, f.bounds, min(y), seed=13)
    for array in (model.chol, model.alpha, model.params.theta, model.params.power, point):
        digest.update(array.tobytes())
    for value in (model.params.nugget, model.mu_hat, model.sigma2_hat, model.neg_log_likelihood):
        digest.update(float(value).hex().encode())
print(json.dumps([loaded, {scipy_modules}, digest.hexdigest()]))
"""


def test_first_fit_and_proposal_match_preloaded_scipy():
    def hashed(preload: str):
        code = FIT_AND_PROPOSE.format(preload=preload, scipy_modules=SCIPY_MODULES)
        return json.loads(run_fresh(code))

    lazy_before, lazy_after, lazy_hash = hashed("import infillbench")
    eager_before, _, eager_hash = hashed("import scipy.linalg, scipy.special")
    assert lazy_before == []
    assert "scipy.linalg" not in lazy_after and "scipy.special" not in lazy_after
    assert "scipy.linalg" in eager_before and "scipy.special" in eager_before
    assert lazy_hash == eager_hash


# Phi on a grid reaching far into both tails, compared bit for bit with
# scipy.special's erfc imported after Phi's first call.
CDF_AGAINST_SCIPY_SPECIAL = """
import math
import numpy as np
from infillbench.numerics import standard_normal_cdf
z = np.linspace(-40.0, 40.0, 16001)
phi = standard_normal_cdf(z)
import scipy.special
expected = 0.5 * scipy.special.erfc(-z / math.sqrt(2.0))
print(phi.tobytes() == expected.tobytes() and float(standard_normal_cdf(-40.0)) == float(expected[0]))
"""


def test_packages_imported_after_a_fit_and_proposal_agree():
    code = (
        FIT_AND_PROPOSE.format(preload="import infillbench", scipy_modules=SCIPY_MODULES)
        + "import scipy.linalg.cython_lapack\n"
        + "assert 'dpotrf' in scipy.linalg.cython_lapack.__pyx_capi__\n"
        + CDF_AGAINST_SCIPY_SPECIAL
    )
    assert run_fresh(code) == "True"


# scipy 1.10, the oldest version pyproject.toml declares, may have no
# scipy.special._special_ufuncs. The file lookup reports it missing here: the
# import system looks submodules up by their full dotted names, so only the
# bare-name lookup of a module loaded from its file sees the patch, and
# ``import scipy.special`` still works.
HIDE_SPECIAL_UFUNCS = """
import importlib.machinery
real_find_spec = importlib.machinery.PathFinder.find_spec
def find_spec(name, path=None, target=None):
    return None if name == "_special_ufuncs" else real_find_spec(name, path, target)
importlib.machinery.PathFinder.find_spec = find_spec
"""


def test_cdf_falls_back_to_scipy_special_without_special_ufuncs():
    code = (
        HIDE_SPECIAL_UFUNCS
        + "import sys\n"
        "from infillbench.numerics import standard_normal_cdf\n"
        "standard_normal_cdf(0.0)\n"
        "assert 'scipy.special' in sys.modules\n"
        + CDF_AGAINST_SCIPY_SPECIAL
    )
    assert run_fresh(code) == "True"
