"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign_demo --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same figures for a reader, with
the environment and the behaviour fingerprint. perfbench/README.md
describes the workloads and every metric.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> Path:
    """Pin BLAS threads and put the checkout's own source first on the path.

    Must run before numpy is imported: OpenBLAS reads its thread count once,
    when it loads. Campaign workers and set-up probes inherit the setting.
    Returns the checkout root, or exits when the checkout has no source.
    """
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    # The benchmark sets the worker count itself.
    os.environ.pop("INFILLBENCH_MAX_WORKERS", None)
    root = Path(__file__).resolve().parent.parent
    source = root / "src"
    if not (source / "infillbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no infillbench source under {source}")
    sys.path.insert(0, str(source))
    return root


def main() -> int:
    root = prepare()
    import infillbench  # noqa: E402  (after prepare(): BLAS is pinned)

    if Path(infillbench.__file__).resolve().parent != root / "src" / "infillbench":
        sys.exit(f"perfbench: imported infillbench from {infillbench.__file__}, not the checkout")
    import bench  # noqa: E402

    return bench.main(sys.argv[1:], root, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
