"""The benchmark's workloads and one pass over each.

Every pass takes the user's path through the command line, in process:
``infillbench run <campaign> --force --workers W --base-seed SEED
--output-dir OUT`` and then ``infillbench analyze OUT``. The pass is timed
from the first command to the end of the second. Its outputs are checked
afterwards, outside the timed section, and hashed into the behaviour
fingerprint.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from infillbench import cli
from infillbench.campaign import MANIFEST_NAME, CampaignConfig, load_campaign_config
from infillbench.smbo import RunConfig, read_run_log, run_log_filename
from infillbench.testbed import evaluate, make_instance

TIMING_COLUMN = "wall_time_ms"
ANALYSIS_FILES = ("domination.csv", "curves.csv")


@dataclass(frozen=True)
class Workload:
    """A campaign, given inline or as a campaign file of the repository."""

    name: str
    workers: int
    campaign: Optional[dict] = None
    campaign_file: Optional[str] = None


# Why each workload: see README.md. In short, campaign_demo has small fits
# whose per-call overhead bounds the time, plus random search, and
# archive_d10 large fits where the kernel build and potrf dominate. Both run
# in one process: where the benchmark fills every core, a pool of campaign
# workers times the scheduler, not the program. archive_d10 runs two
# instances per criterion because `infillbench analyze` needs two runs per
# criterion.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="campaign_demo",
            workers=1,
            campaign_file="campaigns/quick_demo.json",
        ),
        Workload(
            name="archive_d10",
            workers=1,
            campaign={
                "functions": [13],
                "dimensions": [10],
                "instances": [1, 2],
                "criteria": ["ei", "pm"],
                "total_budget": 153,
                "initial_design_size": 150,
                "mle_evals_per_param": 20,
            },
        ),
    )
}


class CheckFailed(Exception):
    """An output of the program breaks one of the benchmark's checks."""


@dataclass(frozen=True)
class Study:
    """A workload bound to a seed and a checkout: what a pass runs and expects."""

    config_path: Path
    config: CampaignConfig  # with one of the run's campaign base seeds as base_seed

    @property
    def plan(self) -> list[RunConfig]:
        return self.config.run_configs()


def prepare_study(workload: Workload, seed: int, root: Path, work_dir: Path) -> Study:
    """Write the campaign file if it is inline, and load it with the seed applied."""
    if workload.campaign_file is not None:
        config_path = root / workload.campaign_file
    else:
        config_path = work_dir / f"{workload.name}.json"
        config_path.write_text(json.dumps(workload.campaign, indent=2) + "\n")
    config = load_campaign_config(config_path)
    config = dataclasses.replace(config, base_seed=seed, workers=workload.workers)
    return Study(config_path, config)


@dataclass
class PassResult:
    seed: int  # the campaign base seed
    wall_s: float
    attempted: int
    failed: int
    fingerprint: str
    iteration_ms: list[float]  # wall_time_ms of every model-based iteration
    errors: list[str]
    trace: Optional[tuple] = None  # (span totals, counters) of a traced pass


def run_pass(study: Study, out_dir: Path, tracer=None) -> PassResult:
    """Run the workload once into ``out_dir``, then check and fingerprint it.

    A command that fails, or a run that raises, is recorded in ``errors``
    and counted in ``failed``; it never aborts the pass. With a tracer, the
    timed section runs with the tracer installed.
    """
    commands = [
        ["run", str(study.config_path), "--force",
         "--workers", str(study.config.workers),
         "--base-seed", str(study.config.base_seed),
         "--output-dir", str(out_dir)],
        ["analyze", str(out_dir)],
    ]
    errors: list[str] = []
    pass_failed = False
    console = io.StringIO()
    tracing = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with tracing, contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        started = time.perf_counter()
        try:
            for command in commands:
                code = cli.main(command)
                if code != 0:
                    pass_failed = True
                    errors.append(f"infillbench {command[0]} exited with {code}")
                    break
        except Exception:
            pass_failed = True
            errors.append(traceback.format_exc())
        wall_s = time.perf_counter() - started
    if errors:
        errors.append(console.getvalue())

    try:
        check_campaign_outputs(out_dir, study.plan)
    except Exception as exc:  # any malformed output fails the pass, not the benchmark
        pass_failed = True
        errors.append(f"{type(exc).__name__}: {exc}")

    failed_runs = set()
    trace = None
    if tracer is not None:
        totals, counters, violations = tracer.collect()
        trace = (totals, counters)
        for run_file, message in violations:
            failed_runs.add(run_file)
            errors.append(f"{run_file}: {message}")

    iteration_ms: list[float] = []
    for config in study.plan:
        name = run_log_filename(config)
        try:
            iteration_ms.extend(check_run_log(out_dir / name, config))
        except Exception as exc:  # a missing or malformed log fails its run only
            failed_runs.add(name)
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    attempted = len(study.plan)
    # A command that failed, or left its outputs incomplete, fails every run
    # it was asked to produce.
    failed = attempted if pass_failed else len(failed_runs)
    logs = [out_dir / run_log_filename(c) for c in study.plan]
    return PassResult(
        seed=study.config.base_seed,
        wall_s=wall_s,
        attempted=attempted,
        failed=failed,
        fingerprint=fingerprint([p for p in logs if p.is_file()]),
        iteration_ms=iteration_ms,
        errors=errors,
        trace=trace,
    )


def check_campaign_outputs(out_dir: Path, plan: list[RunConfig]) -> None:
    """The manifest lists exactly the planned runs; the analysis files exist."""
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckFailed(f"{MANIFEST_NAME} was not written")
    listed = [entry["file"] for entry in json.loads(manifest_path.read_text())["runs"]]
    expected = [run_log_filename(c) for c in plan]
    if sorted(listed) != sorted(expected):
        raise CheckFailed(f"{MANIFEST_NAME} lists {len(listed)} runs, expected {len(expected)}")
    for name in ANALYSIS_FILES:
        path = out_dir / name
        if not path.is_file() or len(path.read_text().splitlines()) < 2:
            raise CheckFailed(f"{name} was not written or has no rows")


def check_run_log(path: Path, config: RunConfig) -> list[float]:
    """Check one run log; return the wall times of its model-based iterations.

    The log has exactly ``total_budget`` records, numbered in order; every x
    lies inside the instance bounds and its y is the objective at x; and
    ``best_gap`` never increases.
    """
    records = read_run_log(path).records
    if len(records) != config.total_budget:
        raise CheckFailed(f"{len(records)} records, expected {config.total_budget}")
    func = make_instance(config.function_id, config.dimension, config.instance_id)
    previous_best = float("inf")
    for k, record in enumerate(records, start=1):
        if record.iteration != k:
            raise CheckFailed(f"record {k} is numbered {record.iteration}")
        if not func.bounds.contains(record.x):
            raise CheckFailed(f"iteration {k}: x lies outside the instance bounds")
        if record.y != evaluate(func, record.x):
            raise CheckFailed(f"iteration {k}: y is not the objective value at x")
        if record.best_gap > previous_best:
            raise CheckFailed(f"iteration {k}: best_gap increased")
        previous_best = record.best_gap
    if not config.infill.model_based:
        return []
    return [r.wall_time_ms for r in records[config.initial_design_size :]]


def strip_column(text: str, column: str) -> str:
    """CSV text without the named column, found by its header name."""
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index(column)
    return "".join(",".join(row[:drop] + row[drop + 1 :]) + "\n" for row in rows)


def fingerprint(log_paths) -> str:
    """sha256 over the run logs, by file name, without the timing column."""
    digest = hashlib.sha256()
    for path in sorted(log_paths, key=lambda p: p.name):
        digest.update(path.name.encode() + b"\n")
        digest.update(strip_column(path.read_text(), TIMING_COLUMN).encode())
    return digest.hexdigest()
