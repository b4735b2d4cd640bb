"""Campaign execution: expand a config grid into runs and execute them.

A campaign is the cross product (functions x dimensions x instances x
criteria x repeats); each cell becomes one run with a seed derived from the
campaign's base seed, one CSV log, and one manifest entry. Re-running skips,
unless forced, each log that the previous manifest lists with the planned
settings and that ``smbo.read_run_log`` reads back; ``smbo`` alone knows the
log and manifest formats. Runs execute on a process pool; the parent alone
writes the manifest, through ``smbo.write_manifest``, as each run finishes.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .infill import InfillCriterion
from .smbo import (MANIFEST_NAME, MalformedRunLog, RunConfig, read_manifest, read_run_log,
                   run, run_log_filename, write_manifest, write_run_log)
from .testbed import UnknownFunction, list_suite

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
    instances: tuple[int, ...] = tuple(range(1, 16))
    repeats: int = 1
    total_budget: int = RunConfig.total_budget
    initial_design_size: int = RunConfig.initial_design_size
    base_seed: int = 0
    workers: int = 1
    output_dir: str = "runs"
    mle_evals_per_param: int = RunConfig.mle_evals_per_param

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(int(f) for f in self.functions))
        object.__setattr__(self, "dimensions", tuple(int(d) for d in self.dimensions))
        object.__setattr__(self, "instances", tuple(int(i) for i in self.instances))
        object.__setattr__(
            self, "criteria", tuple(InfillCriterion(c) for c in self.criteria)
        )
        if not self.functions or not self.dimensions or not self.criteria:
            raise ConfigParseError("functions, dimensions, and criteria must be non-empty")
        if self.repeats < 1 or self.workers < 1:
            raise ConfigParseError("repeats and workers must be positive")
        known = {entry.function_id for entry in list_suite()}
        unknown = sorted(set(self.functions) - known)
        if unknown:
            raise UnknownFunction(f"function ids {unknown} not in suite {sorted(known)}")

    def run_configs(self) -> list[RunConfig]:
        configs = []
        for function_id in self.functions:
            for dimension in self.dimensions:
                for instance_id in self.instances:
                    for criterion in self.criteria:
                        for repeat in range(self.repeats):
                            configs.append(
                                RunConfig(
                                    function_id=function_id,
                                    dimension=dimension,
                                    instance_id=instance_id,
                                    infill=criterion,
                                    total_budget=self.total_budget,
                                    initial_design_size=self.initial_design_size,
                                    seed=derive_run_seed(
                                        self.base_seed, function_id, dimension,
                                        instance_id, criterion, repeat,
                                    ),
                                    mle_evals_per_param=self.mle_evals_per_param,
                                )
                            )
        return configs


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
    repeat: int,
) -> int:
    """Deterministic 64-bit run seed from the campaign coordinates."""
    seq = np.random.SeedSequence(
        (base_seed, function_id, dimension, instance_id,
         _CRITERION_CODES[InfillCriterion(criterion)], repeat)
    )
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class CampaignResult:
    manifest_path: Path
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


def _reads_back(path: Path) -> bool:
    try:
        read_run_log(path)
    except MalformedRunLog:
        return False
    return True


def _execute_run(run_config: RunConfig, out_dir: Path) -> bool:
    """Run one configuration and write its log; return its fallback flag."""
    log = run(run_config)
    write_run_log(log, out_dir)
    return log.degenerate_fallback


def run_campaign(config: CampaignConfig, force: bool = False) -> CampaignResult:
    """Execute a campaign, writing one CSV per run plus ``manifest.json``.

    Existing logs are skipped unless ``force``, provided the previous manifest
    records them with this campaign's run settings and they read back whole;
    their entries are carried over from it. The manifest is rewritten as each
    run finishes, so an interrupted campaign resumes where it stopped.
    """
    plan = config.run_configs()  # invalid run settings fail before any I/O
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        previous = read_manifest(out_dir)
    except MalformedRunLog:  # a missing or unreadable manifest vouches for no log
        previous = {}

    settings = asdict(config)
    for name in _EXECUTION_ONLY:
        del settings[name]
    by_file = {run_log_filename(run_config): run_config for run_config in plan}
    # The runs this manifest vouches for: logs made with these settings that
    # read back whole. A log being re-run loses its old entry before it starts.
    recorded: dict[str, tuple[RunConfig, bool]] = {}

    def write() -> None:
        write_manifest(out_dir, settings, [recorded[name] for name in by_file if name in recorded])

    pending: list[RunConfig] = []
    result = CampaignResult(manifest_path=out_dir / MANIFEST_NAME)
    for filename, run_config in by_file.items():
        made_alike = filename in previous and previous[filename][0] == run_config
        if not force and made_alike and _reads_back(out_dir / filename):
            result.skipped.append(filename)
            recorded[filename] = previous[filename]
        else:
            pending.append(run_config)
    write()

    def finish(run_config: RunConfig, degenerate: bool) -> None:
        filename = run_log_filename(run_config)
        result.executed.append(filename)
        recorded[filename] = (run_config, degenerate)
        write()

    if config.workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = {pool.submit(_execute_run, run_config, out_dir): run_config
                       for run_config in pending}
            for future in as_completed(futures):
                finish(futures[future], future.result())
    else:
        for run_config in pending:
            finish(run_config, _execute_run(run_config, out_dir))
    return result
