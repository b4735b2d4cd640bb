"""Campaign execution: expand a config grid into runs and execute them.

A campaign is the grid functions x dimensions x instances x criteria; as in
the BBOB setup, instances supply the replication, one run each. Each cell
becomes one run with a seed derived from the campaign's base seed, one CSV
log, and one manifest entry. Re-running skips, unless forced, each log that
the previous manifest, parsed once by ``smbo.read_manifest``, lists with the
planned settings and that parses back whole against that entry; ``smbo``
alone knows the log and manifest formats. Runs execute in this process or on
a process pool; the parent alone writes the manifest, through
``smbo.write_manifest``, as each run finishes.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .infill import InfillCriterion
from .smbo import (MANIFEST_NAME, MalformedRunLog, RunConfig, _parse_run_log, read_manifest,
                   run, run_log_filename, write_manifest, write_run_log)
from .testbed import INSTANCE_IDS

# Stable per-criterion codes for seed derivation; never reorder.
_CRITERION_CODES = {
    InfillCriterion.EXPECTED_IMPROVEMENT: 1,
    InfillCriterion.PREDICTED_VALUE: 2,
    InfillCriterion.RANDOM_SEARCH: 3,
}


class ConfigParseError(Exception):
    """Campaign configuration file is unreadable or invalid."""


@dataclass(frozen=True)
class CampaignConfig:
    functions: tuple[int, ...]
    dimensions: tuple[int, ...]
    criteria: tuple[InfillCriterion, ...]
    instances: tuple[int, ...] = INSTANCE_IDS
    total_budget: int = RunConfig.total_budget
    initial_design_size: int = RunConfig.initial_design_size
    base_seed: int = 0
    workers: int = 1
    output_dir: str = "runs"
    mle_evals_per_param: int = RunConfig.mle_evals_per_param

    def __post_init__(self):
        # Each run setting, and the grid's membership in the suite, is checked
        # by RunConfig as the plan is built; this checks only what runs do not hold.
        object.__setattr__(self, "criteria", tuple(InfillCriterion(c) for c in self.criteria))
        for name in ("functions", "dimensions", "instances", "criteria"):
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ConfigParseError(f"{name} must be non-empty")
            # A repeated value would plan two runs with one seed and one log file.
            if len(set(values)) < len(values):
                raise ConfigParseError(f"{name} must not repeat a value")
        if type(self.workers) is not int or self.workers < 1:
            raise ConfigParseError("workers must be a positive integer")
        if type(self.base_seed) is not int or self.base_seed < 0:
            raise ConfigParseError("base_seed must be a non-negative integer")
        if not isinstance(self.output_dir, str):
            raise ConfigParseError("output_dir must be a string")
        self.run_configs()

    def run_configs(self) -> list[RunConfig]:
        plan = []
        for cell in itertools.product(self.functions, self.dimensions, self.instances, self.criteria):
            # RunConfig checks the cell before its seed is derived from it, so a
            # bad grid value is named as such rather than as a bad seed.
            unseeded = RunConfig(*cell, total_budget=self.total_budget,
                                 initial_design_size=self.initial_design_size,
                                 mle_evals_per_param=self.mle_evals_per_param)
            plan.append(replace(unseeded, seed=derive_run_seed(self.base_seed, *cell)))
        return plan


# Settings that change how a campaign executes, never what its runs produce;
# the manifest leaves them out.
_EXECUTION_ONLY = ("workers", "output_dir")


def load_campaign_config(path) -> CampaignConfig:
    """Read a JSON campaign file; see README for the schema."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file: {exc}") from None
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}") from None
    if not isinstance(mapping, dict):
        raise ConfigParseError("config must be a JSON object")
    try:
        return CampaignConfig(**mapping)
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(str(exc)) from None


def derive_run_seed(
    base_seed: int,
    function_id: int,
    dimension: int,
    instance_id: int,
    criterion: InfillCriterion,
) -> int:
    """Deterministic 64-bit run seed from the campaign coordinates."""
    # The trailing 0 was a repeat index, and every run so far had index 0;
    # keeping it keeps every seed, log name and cached log valid.
    seq = np.random.SeedSequence(
        (base_seed, function_id, dimension, instance_id,
         _CRITERION_CODES[InfillCriterion(criterion)], 0)
    )
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class CampaignResult:
    manifest_path: Path
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


def _reads_back(path: Path, run_config: RunConfig) -> bool:
    try:
        _parse_run_log(path, run_config)
    except MalformedRunLog:
        return False
    return True


def _execute_run(run_config: RunConfig, out_dir: Path) -> None:
    """Run one configuration and write its log."""
    write_run_log(run(run_config), out_dir)


def _finished_runs(pending: list[RunConfig], out_dir: Path, workers: int):
    """Execute ``pending`` and yield each RunConfig once its log is written:
    in plan order in this process, or as they complete on a pool of
    ``workers`` processes."""
    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_execute_run, run_config, out_dir): run_config
                       for run_config in pending}
            for future in as_completed(futures):
                future.result()
                yield futures[future]
    else:
        for run_config in pending:
            _execute_run(run_config, out_dir)
            yield run_config


def run_campaign(config: CampaignConfig, force: bool = False) -> CampaignResult:
    """Execute a campaign, writing one CSV per run plus ``manifest.json``.

    Unless ``force``, the previous manifest is read once, and each log it
    records with this campaign's run settings that reads back whole against
    that entry is kept, with its entry. The manifest is rewritten as each run
    finishes, so an interrupted campaign resumes where it stopped.
    """
    plan = config.run_configs()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        previous = {} if force else read_manifest(out_dir)
    except MalformedRunLog:  # a missing or unreadable manifest vouches for no log
        previous = {}

    settings = asdict(config)
    for name in _EXECUTION_ONLY:
        del settings[name]
    # The runs this manifest vouches for, listed in plan order: logs made with
    # these settings that read back whole. A log being re-run loses its old
    # entry before it starts.
    recorded: set[RunConfig] = set()
    pending: list[RunConfig] = []
    result = CampaignResult(manifest_path=out_dir / MANIFEST_NAME)
    for run_config in plan:
        filename = run_log_filename(run_config)
        if previous.get(filename) == run_config and _reads_back(out_dir / filename, run_config):
            result.skipped.append(filename)
            recorded.add(run_config)
        else:
            pending.append(run_config)
    write_manifest(out_dir, settings, [c for c in plan if c in recorded])
    for run_config in _finished_runs(pending, out_dir, config.workers):
        result.executed.append(run_log_filename(run_config))
        recorded.add(run_config)
        write_manifest(out_dir, settings, [c for c in plan if c in recorded])
    return result
