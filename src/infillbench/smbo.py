"""The sequential model-based optimization loop and its per-evaluation log.

A run spends its first evaluations on a Latin hypercube design, then repeats
fit / propose / evaluate until the total budget is exhausted, fitting a fresh
surrogate on all data at every iteration. Random-search runs share the same
design phase but never fit a model.

Seed scheme
-----------
Every random decision inside a run draws from its own stream derived as
``SeedSequence((run_seed, stream, iteration))`` with stream 0 for the initial
design, 1 for each model fit, and 2 for each proposal. Re-running a config
therefore reproduces the exact evaluation sequence, and streams stay
independent across purposes and iterations.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .design import latin_hypercube
from .infill import InfillCriterion, propose
from .kriging import LIKELIHOOD_EVALS_PER_PARAM, Dataset, fit
from .testbed import evaluate, make_instance

_STREAM_DESIGN = 0
_STREAM_FIT = 1
_STREAM_PROPOSE = 2


class EmptyArchive(Exception):
    """Nearest-neighbor distance is undefined without evaluated points."""


class MalformedRunLog(ValueError):
    """A run log, or its directory's manifest, that cannot be parsed, such as a truncated one."""


def substream_seed(run_seed: int, stream: int, iteration: int = 0) -> int:
    """Derived integer seed for one (purpose, iteration) stream of a run."""
    seq = np.random.SeedSequence((run_seed, stream, iteration))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one optimization run."""

    function_id: int
    dimension: int
    instance_id: int
    infill: InfillCriterion
    total_budget: int = 300
    initial_design_size: int = 10
    seed: int = 0
    # Likelihood evaluations per model parameter in each fit; 500 is the
    # standard setting, smaller values give a cheaper desk-scale variant.
    mle_evals_per_param: int = LIKELIHOOD_EVALS_PER_PARAM

    def __post_init__(self):
        if not 1 <= self.initial_design_size < self.total_budget:
            raise ValueError("initial design must be smaller than the total budget")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.mle_evals_per_param < 1:
            raise ValueError("mle_evals_per_param must be positive")
        if not isinstance(self.infill, InfillCriterion):
            object.__setattr__(self, "infill", InfillCriterion(self.infill))


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One objective evaluation: the decision, its outcome, and bookkeeping."""

    iteration: int  # 1-based evaluation index
    x: np.ndarray
    y: float
    gap: float  # y - f_opt
    best_gap: float  # smallest gap seen so far, non-increasing
    nn_distance: Optional[float]  # to the nearest earlier point; None for the first
    model_nll: Optional[float]  # fitted likelihood value; None when no model was fit
    wall_time_ms: float


@dataclass(frozen=True, eq=False)
class RunLog:
    config: RunConfig
    f_opt: float
    records: tuple[IterationRecord, ...]
    degenerate_fallback: bool = False


def nearest_neighbor_distance(known: np.ndarray, x: np.ndarray) -> float:
    """Euclidean distance from x to its closest point in the archive."""
    known = np.atleast_2d(np.asarray(known, dtype=float))
    if known.size == 0:
        raise EmptyArchive("no evaluated points to measure against")
    deltas = known - np.asarray(x, dtype=float)
    return float(np.sqrt((deltas * deltas).sum(axis=1).min()))


def run(config: RunConfig) -> RunLog:
    """Execute one complete run; the log has exactly total_budget records.

    A proposal that repeats an evaluated point is still evaluated and
    recorded, never silently replaced.
    """
    func = make_instance(config.function_id, config.dimension, config.instance_id)
    bounds = func.bounds
    budget = config.total_budget
    n_init = config.initial_design_size

    points = np.empty((budget, config.dimension))
    values = np.empty(budget)
    records: list[IterationRecord] = []
    best_gap = np.inf

    def record_evaluation(k: int, x: np.ndarray, started: float, nll: Optional[float]):
        nonlocal best_gap
        nn = nearest_neighbor_distance(points[: k - 1], x) if k > 1 else None
        y = evaluate(func, x)
        points[k - 1] = x
        values[k - 1] = y
        gap = y - func.f_opt
        best_gap = min(best_gap, gap)
        records.append(
            IterationRecord(
                iteration=k,
                x=x.copy(),
                y=y,
                gap=gap,
                best_gap=best_gap,
                nn_distance=nn,
                model_nll=nll,
                wall_time_ms=(time.perf_counter() - started) * 1e3,
            )
        )

    design = latin_hypercube(n_init, bounds, substream_seed(config.seed, _STREAM_DESIGN))
    for k in range(1, n_init + 1):
        started = time.perf_counter()
        record_evaluation(k, design[k - 1], started, None)

    # A constant-valued design cannot identify a surrogate; such a run keeps
    # going on random proposals and says so in its log.
    degenerate = config.infill.model_based and float(np.ptp(values[:n_init])) == 0.0

    for k in range(n_init + 1, budget + 1):
        started = time.perf_counter()
        nll: Optional[float] = None
        if config.infill.model_based and not degenerate:
            model = fit(
                Dataset(points[: k - 1], values[: k - 1]),
                substream_seed(config.seed, _STREAM_FIT, k),
                evals_per_param=config.mle_evals_per_param,
            )
            y_best = float(values[: k - 1].min())
            x_next = propose(
                model, config.infill, bounds, y_best,
                substream_seed(config.seed, _STREAM_PROPOSE, k),
            )
            nll = model.neg_log_likelihood
        else:
            x_next = propose(
                None, InfillCriterion.RANDOM_SEARCH, bounds, np.nan,
                substream_seed(config.seed, _STREAM_PROPOSE, k),
            )
        record_evaluation(k, x_next, started, nll)

    return RunLog(
        config=config,
        f_opt=func.f_opt,
        records=tuple(records),
        degenerate_fallback=degenerate,
    )


# ---------------------------------------------------------------------------
# Run log serialization: one CSV per run, floats at 17 significant digits so
# values round-trip exactly. Columns: iteration, x_1..x_d, then the other
# IterationRecord fields in order; Optional ones may be empty. The file name
# encodes the run coordinates for people; a log's settings are read only from
# the entry for its file in the manifest beside it, never from the name.
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"

_VALUE_COLUMNS = tuple(f.name for f in fields(IterationRecord) if f.name not in ("iteration", "x"))
_BLANK_ALLOWED = frozenset(
    name for name, hint in get_type_hints(IterationRecord).items() if type(None) in get_args(hint)
)


def run_log_filename(config: RunConfig) -> str:
    return (
        f"f{config.function_id}_d{config.dimension}_i{config.instance_id}"
        f"_{config.infill.value}_s{config.seed}.csv"
    )


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else format(value, ".17g")


def _x_columns(dimension: int) -> list[str]:
    return [f"x_{i}" for i in range(1, dimension + 1)]


def write_text_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` via a temp file beside it: no partial file, even on failure."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_run_log(log: RunLog, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / run_log_filename(log.config)
    header = ["iteration", *_x_columns(log.config.dimension), *_VALUE_COLUMNS]
    lines = [",".join(header)]
    for r in log.records:
        row = [str(r.iteration), *(_fmt(v) for v in r.x)]
        row += [_fmt(getattr(r, name)) for name in _VALUE_COLUMNS]
        lines.append(",".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")
    return path


def manifest_entry(config: RunConfig, degenerate_fallback: bool) -> dict:
    """A run's manifest entry: every RunConfig field, its log file and fallback flag."""
    settings = asdict(config)
    settings["criterion"] = settings.pop("infill").value
    return {**settings, "file": run_log_filename(config), "degenerate_fallback": degenerate_fallback}


def _entry_settings(entry: dict) -> tuple[RunConfig, bool]:
    """The RunConfig and fallback flag a manifest entry records; manifest_entry inverted.

    An entry that does not hold exactly what manifest_entry writes, such as one
    that leaves a setting out, raises ValueError rather than read as a default.
    """
    settings = {k: v for k, v in entry.items() if k not in ("file", "degenerate_fallback")}
    settings["infill"] = settings.pop("criterion")
    config, degenerate = RunConfig(**settings), entry["degenerate_fallback"]
    if manifest_entry(config, degenerate) != entry:
        raise ValueError(f"entry {entry['file']!r} does not record exactly its run settings")
    return config, degenerate


def _listed_settings(directory, only: Optional[str] = None) -> dict[str, tuple[RunConfig, bool]]:
    """The settings of every run a directory's manifest lists, or of the one for file ``only``."""
    path = Path(directory) / MANIFEST_NAME
    try:
        runs = json.loads(path.read_text())["runs"]
        return {entry["file"]: _entry_settings(entry) for entry in runs
                if only is None or entry["file"] == only}
    except FileNotFoundError as exc:
        raise MalformedRunLog(f"{path.parent} has no {MANIFEST_NAME}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedRunLog(f"manifest {path} cannot be parsed: {exc!r}") from exc


def read_manifest(directory) -> dict[str, tuple[RunConfig, bool]]:
    """The runs a directory's manifest lists: log file name -> (RunConfig, fallback flag).

    MalformedRunLog when the directory has no manifest, it cannot be parsed,
    or any entry does not record exactly its run settings.
    """
    return _listed_settings(directory)


def write_manifest(directory, campaign_settings: dict, runs) -> None:
    """Write a directory's manifest: the campaign's settings and one entry per (RunConfig, fallback flag)."""
    path = Path(directory) / MANIFEST_NAME
    entries = [manifest_entry(config, degenerate) for config, degenerate in runs]
    manifest = {"campaign": campaign_settings, "runs": entries}
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_value(text: str, name: str) -> Optional[float]:
    if not text and name in _BLANK_ALLOWED:
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} is {text}")
    return value


def read_run_log(path) -> RunLog:
    """Parse a run CSV back into a RunLog, finding each column by its header name.

    The RunConfig and fallback flag come from the log's entry in the manifest
    beside it, and only that entry is checked. MalformedRunLog when the
    directory has no manifest, the manifest does not list the log, a listed
    log is missing, the record count differs from the entry's
    ``total_budget``, the iterations are not 1..n, a required field is blank,
    or a number is cut short or not finite.
    """
    path = Path(path)
    listed = _listed_settings(path.parent, only=path.name)
    if path.name not in listed:
        raise MalformedRunLog(f"run log {path} is not listed in its directory's {MANIFEST_NAME}")
    config, degenerate = listed[path.name]
    try:
        lines = path.read_text().strip().splitlines()
    except FileNotFoundError as exc:
        raise MalformedRunLog(f"run log {path} is listed in its manifest but missing") from exc
    if len(lines) != config.total_budget + 1:
        raise MalformedRunLog(f"run log {path} does not hold the {config.total_budget} records "
                              f"its manifest entry records")
    x_columns = _x_columns(config.dimension)
    columns = {name: i for i, name in enumerate(lines[0].split(","))}
    missing = [c for c in ("iteration", *x_columns, *_VALUE_COLUMNS) if c not in columns]
    if missing:
        raise MalformedRunLog(f"run log {path} lacks columns {missing}")
    records: list[IterationRecord] = []
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise MalformedRunLog(f"run log {path} has a row of {len(parts)} fields, not {len(columns)}")
        try:
            if int(parts[columns["iteration"]]) != k:
                raise ValueError(f"row {k} is numbered {parts[columns['iteration']]}")
            records.append(
                IterationRecord(
                    iteration=k,
                    x=np.array([_parse_value(parts[columns[c]], c) for c in x_columns]),
                    **{c: _parse_value(parts[columns[c]], c) for c in _VALUE_COLUMNS},
                )
            )
        except ValueError as exc:  # a blank required field, or a number cut short or not finite
            raise MalformedRunLog(f"run log {path}: {exc}") from exc
    f_opt = records[0].y - records[0].gap
    return RunLog(config, f_opt, tuple(records), degenerate_fallback=degenerate)


def read_run_logs(directory) -> list[RunLog]:
    """Every run log a directory's manifest lists, read by ``read_run_log`` in file-name order.

    The whole manifest is checked first; files it does not list are not read.
    """
    return [read_run_log(Path(directory) / name) for name in sorted(read_manifest(directory))]
