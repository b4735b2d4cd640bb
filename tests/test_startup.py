"""scipy loads on first use: importing infillbench, listing the suite and
giving advice load none of it, and a fit or proposal that triggers the
import gives the bits it gives with scipy imported beforehand.

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
# the point. Prints the scipy modules loaded before the calls, then the hash.
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
print(json.dumps([loaded, digest.hexdigest()]))
"""


def test_first_fit_and_proposal_match_preloaded_scipy():
    def hashed(preload: str):
        code = FIT_AND_PROPOSE.format(preload=preload, scipy_modules=SCIPY_MODULES)
        return json.loads(run_fresh(code))

    lazy_loaded, lazy_hash = hashed("import infillbench")
    eager_loaded, eager_hash = hashed("import scipy.linalg, scipy.special")
    assert lazy_loaded == []
    assert "scipy.linalg" in eager_loaded and "scipy.special" in eager_loaded
    assert lazy_hash == eager_hash
