"""Measure one workload: set-up probes, timed passes, metrics and report.

With ``--trace 0`` the benchmark times untraced passes for ``--seconds``
and reports the end-to-end metrics. With ``--trace 1`` it alternates
untraced and traced passes for ``--seconds`` and reports the per-layer
metrics, medians over the traced passes, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from infillbench import smbo
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Study, prepare_study, run_pass

WORK_DIR_NAME = ".perfbench_work"
FINGERPRINTS_FILE = Path(__file__).resolve().parent / "fingerprints.json"
SETUP_PROBES = 5  # at least this many; one runs before every pass
SETUP_TIMEOUT_S = 60
# Campaign base seeds per benchmark seed. A pass of either workload changes
# its cost by up to 20% from one base seed to another, so a run cycles
# through this many; about as many passes fit in one run of campaign_demo.
SEEDS_PER_RUN = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, required=True, help="selects the run's block of base seeds (>= 0)"
    )
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# -- environment ---------------------------------------------------------------


def _blas_version(show_config) -> str:
    try:
        return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, threads: int) -> dict:
    return {
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np.show_config),
        "scipy_openblas": _blas_version(scipy.show_config),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "commit": git_commit(root),
    }


# -- measurement ---------------------------------------------------------------


def setup_probe(study: Study, root: Path) -> float:
    """Seconds from starting a fresh interpreter to infillbench imported and
    the workload's instances built."""
    keys = sorted({(c.function_id, c.dimension, c.instance_id) for c in study.plan})
    code = (
        "import infillbench\n"
        f"for key in {keys!r}:\n"
        "    infillbench.make_instance(*key)\n"
        "print('ready', flush=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=root, text=True
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.stdout.read()
        probe.wait(timeout=SETUP_TIMEOUT_S)
    if line != "ready\n" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return elapsed


def warm_up(study: Study) -> None:
    """One tiny run per criterion, so that lazy imports and first-call costs
    land outside the timed passes."""
    first = study.plan[0]
    for criterion in study.config.criteria:
        smbo.run(
            dataclasses.replace(
                first, infill=criterion, total_budget=12, initial_design_size=10, seed=0
            )
        )


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, or of it and its largest child."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def pass_seeds(seed: int) -> range:
    """The campaign base seeds of the run with benchmark seed ``seed``: a
    block of its own, disjoint from every other seed's block."""
    return range(seed * SEEDS_PER_RUN, (seed + 1) * SEEDS_PER_RUN)


class PassRunner:
    """Passes of one benchmark run, each in its own output directory.

    Successive passes take the base seeds of the run's block in turn, so a
    run's medians average over several trajectories instead of hanging on
    the cost of one.
    """

    def __init__(self, studies: list[Study], work_dir: Path):
        self.studies = studies
        self.study = studies[0]  # what every study shares: plan shape, workers
        self.work_dir = work_dir
        self.count = 0

    def next_study(self) -> Study:
        return self.studies[self.count % len(self.studies)]

    def run(self, study: Study, tracer=None):
        self.count += 1
        out_dir = self.work_dir / f"pass-{self.count}"
        # Start every pass from a collected heap, outside the timed section.
        gc.collect()
        result = run_pass(study, out_dir, tracer)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result


def repeat_for(seconds: float, one_round) -> list:
    """Results of ``one_round()`` calls, repeated while another round, as
    long as the median round so far, still ends within ``seconds``. The
    first round always runs."""
    results, durations = [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        results.append(one_round())
        now = time.perf_counter()
        durations.append(now - round_started)
        if now - started + statistics.median(durations) > seconds:
            return results


def end_to_end(runner: PassRunner, seconds: float, root: Path):
    warm_up(runner.study)
    # A set-up probe before every pass spreads the probes over the run, so
    # their median does not hang on one moment of a shared machine.
    rounds = repeat_for(
        seconds, lambda: (setup_probe(runner.study, root), runner.run(runner.next_study()))
    )
    probes = [probe for probe, _ in rounds]
    probes += [setup_probe(runner.study, root) for _ in range(SETUP_PROBES - len(probes))]
    passes = [p for _, p in rounds]
    samples = np.array([ms for p in passes for ms in p.iteration_ms])
    if samples.size == 0:
        raise RuntimeError("no model-based iteration completed: " + "\n".join(passes[0].errors))
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "iter_ms_p50": (float(np.percentile(samples, 50)), "ms"),
        "iter_ms_p90": (float(np.percentile(samples, 90)), "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_rss_mb(runner.study.config.workers > 1), "MB"),
    }
    notes = [
        f"{len(passes)} passes, {samples.size} model-iteration samples, {len(probes)} set-up probes",
        "pass wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes),
    ]
    return passes, metrics, notes


def per_layer(runner: PassRunner, seconds: float):
    study = runner.study
    tracer = Tracer(study.config.mle_evals_per_param, runner.work_dir / "spill")
    warm_up(study)

    def pair():
        same_seed = runner.next_study()
        return runner.run(same_seed), runner.run(same_seed, tracer)

    pairs = repeat_for(seconds, pair)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    per_pass = [layer_metrics(*p.trace, study.config.workers) for p in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in untraced
    ) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "frac")
    notes = [f"{len(pairs)} untraced and {len(pairs)} traced passes, alternating"]
    return untraced + traced, metrics, notes


def reference_fingerprints(workload: str, threads: int) -> dict:
    """Reference fingerprints of the workload, by campaign base seed."""
    try:
        table = json.loads(FINGERPRINTS_FILE.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return table.get(workload, {}).get(f"blas_threads={threads}", {})


def main(argv, root: Path, threads: int) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    work_dir = root / WORK_DIR_NAME / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        studies = [prepare_study(workload, s, root, work_dir) for s in pass_seeds(args.seed)]
        runner = PassRunner(studies, work_dir)
        if args.trace:
            passes, metrics, notes = per_layer(runner, args.seconds)
        else:
            passes, metrics, notes = end_to_end(runner, args.seconds, root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another benchmark run is still using it

    by_seed: dict[int, set] = {}
    for p in passes:
        by_seed.setdefault(p.seed, set()).add(p.fingerprint)
    references = reference_fingerprints(workload.name, threads)
    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # Every pass of one base seed, traced or not, must leave the same run logs behind.
    deterministic = all(len(fps) == 1 for fps in by_seed.values())
    correct = failed == 0 and not errors and deterministic

    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(environment(root, threads), sort_keys=True))
    for note in notes:
        print(note)
    matches = []
    for seed, fps in sorted(by_seed.items()):
        reference = references.get(str(seed))
        for fp in sorted(fps):
            match = "no reference" if reference is None else str(fp == reference).lower()
            if reference is not None:
                matches.append(fp == reference)
            print(f"fingerprint base_seed={seed} {fp} fingerprint_match={match}")
    overall = str(all(matches)).lower() if matches else "no reference"
    print(f"fingerprint_match={overall} over {len(matches)} of {len(by_seed)} base seeds")
    if not deterministic:
        print("passes of one base seed left different run logs behind")
    for error in errors[:20]:
        print("error: " + error.rstrip())
    print(f"runs attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0
