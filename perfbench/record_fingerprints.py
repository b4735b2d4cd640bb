"""Record the reference behaviour fingerprints that run.py compares against.

    python3 perfbench/record_fingerprints.py --workload campaign_demo --seeds 0-79

Runs one untraced pass per campaign base seed and stores the fingerprint of
its run logs in perfbench/fingerprints.json, under the workload, the BLAS
thread count and the base seed. A benchmark run with --seed N passes
through base seeds 8N to 8N+7 (bench.pass_seeds). Record again only for a change that is meant to alter the
trajectories, and say so in that change.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    root = run.prepare()
    import bench  # noqa: E402  (after run.prepare(): BLAS is pinned)
    from workloads import WORKLOADS, prepare_study, run_pass  # noqa: E402

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range of base seeds, e.g. 0-31")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))

    path = bench.FINGERPRINTS_FILE
    table = json.loads(path.read_text()) if path.is_file() else {}
    entries = table.setdefault(args.workload, {}).setdefault(f"blas_threads={run.BLAS_THREADS}", {})
    work_dir = root / bench.WORK_DIR_NAME / f"record-{os.getpid()}"
    try:
        for seed in range(first, last + 1):
            work_dir.mkdir(parents=True)
            study = prepare_study(WORKLOADS[args.workload], seed, root, work_dir)
            result = run_pass(study, work_dir / "out")
            shutil.rmtree(work_dir)
            if result.errors or result.failed:
                print("\n".join(result.errors), file=sys.stderr)
                return 1
            entries[str(seed)] = result.fingerprint
            print(f"{args.workload} seed {seed}: {result.fingerprint}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    ordered = {
        workload: {
            threads: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
            for threads, seeds in sorted(by_threads.items())
        }
        for workload, by_threads in sorted(table.items())
    }
    path.write_text(json.dumps(ordered, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
