"""The sequential model-based optimization loop and its per-evaluation log.

A run spends its first evaluations on a Latin hypercube design, then repeats
fit / propose / evaluate until the total budget is exhausted, fitting a fresh
surrogate on all data at every iteration. Random-search runs share the same
design phase but never fit a model.

Seed scheme
-----------
Every random decision inside a run draws from its own stream, seeded by
``derive_seed(run_seed, stream, iteration)``: stream 0 for the initial design
(iteration 0), 1 for each model fit, and 2 for each proposal. Re-running a
config therefore reproduces the exact evaluation sequence, and streams stay
independent across purposes and iterations. ``derive_seed`` is the one seed
rule: ``campaign`` derives each run's seed by it from the run's coordinates.

Every output file is written here, atomically: ``write_table`` writes each CSV
(the run logs, and ``analysis``'s ``domination.csv`` and ``curves.csv``) from a
header and rows of values, by one cell rule, and ``write_manifest`` the JSON.
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
from .testbed import UnknownFunction, check_instance, evaluate, make_instance

_STREAM_DESIGN = 0
_STREAM_FIT = 1
_STREAM_PROPOSE = 2


class EmptyArchive(Exception):
    """Nearest-neighbor distance is undefined without evaluated points."""


class MalformedRunLog(ValueError):
    """A run log, or its directory's manifest, that cannot be parsed, such as a truncated one."""


def derive_seed(*entropy: int) -> int:
    """The integer seed ``entropy`` derives: the first 64-bit word its SeedSequence generates."""
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


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
        for name in _INTEGER_SETTINGS:
            value = getattr(self, name)
            if type(value) is not int:  # a bool, float or string is rejected, never converted
                raise ValueError(f"{name} must be an integer, not {value!r}")
        check_instance(self.function_id, self.dimension, self.instance_id)
        if not 1 <= self.initial_design_size < self.total_budget:
            raise ValueError("initial design must be smaller than the total budget")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.mle_evals_per_param < 1:
            raise ValueError("mle_evals_per_param must be positive")
        if not isinstance(self.infill, InfillCriterion):
            object.__setattr__(self, "infill", InfillCriterion(self.infill))


_INTEGER_SETTINGS = tuple(name for name, hint in get_type_hints(RunConfig).items() if hint is int)


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
    records: tuple[IterationRecord, ...]


def nearest_neighbor_distance(known: np.ndarray, x: np.ndarray) -> float:
    """Euclidean distance from x to its closest point in the archive; ValueError
    for a point of another dimension than the archive's points."""
    known = np.atleast_2d(np.asarray(known, dtype=float))
    if known.size == 0:
        raise EmptyArchive("no evaluated points to measure against")
    x = np.asarray(x, dtype=float)
    if x.shape != known.shape[1:]:
        raise ValueError(f"a point of shape {x.shape} for an archive of shape {known.shape}")
    deltas = known - x
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
    criterion = config.infill
    design = latin_hypercube(n_init, bounds, derive_seed(config.seed, _STREAM_DESIGN, 0))
    for k in range(1, budget + 1):
        started = time.perf_counter()
        model = None
        if k <= n_init:
            x = design[k - 1]
        else:
            # A constant-valued design cannot identify a surrogate; such a run keeps
            # going on random proposals, and its log shows it: no model_nll after the design.
            if k == n_init + 1 and criterion.model_based and float(np.ptp(values[:n_init])) == 0.0:
                criterion = InfillCriterion.RANDOM_SEARCH
            if criterion.model_based:
                model = fit(
                    Dataset(points[: k - 1], values[: k - 1]),
                    derive_seed(config.seed, _STREAM_FIT, k),
                    evals_per_param=config.mle_evals_per_param,
                )
            x = propose(
                model, criterion, bounds, float(values[: k - 1].min()),
                derive_seed(config.seed, _STREAM_PROPOSE, k),
            )
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
                model_nll=None if model is None else model.neg_log_likelihood,
                wall_time_ms=(time.perf_counter() - started) * 1e3,
            )
        )

    return RunLog(config=config, records=tuple(records))


# ---------------------------------------------------------------------------
# Run log serialization: one CSV per run, floats at 17 significant digits so
# values round-trip exactly. Columns: iteration, x_1..x_d, then the other
# IterationRecord fields in order; Optional ones may be empty, nn_distance
# in row 1 and only there. The file name encodes the run coordinates for
# people; a log's settings are read only from the entry for its file in the
# manifest beside it, never from the name.
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


def _columns(dimension: int) -> list[str]:
    """The columns of a run log over ``dimension`` variables: the header the
    writer writes, and the only one the reader accepts."""
    return ["iteration", *(f"x_{i}" for i in range(1, dimension + 1)), *_VALUE_COLUMNS]


def write_text_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` via a temp file beside it: no partial file, even on failure."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    return "" if value is None else format(value, ".17g")


def write_table(path, header, rows) -> Path:
    """Write a CSV file atomically, ``header`` then each row. A cell is blank for None,
    a string or an int as it is, and any other number at 17 significant digits."""
    path = Path(path)
    write_text_atomic(path, "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows]))
    return path


def write_run_log(log: RunLog, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ([r.iteration, *r.x, *(getattr(r, name) for name in _VALUE_COLUMNS)] for r in log.records)
    return write_table(directory / run_log_filename(log.config), _columns(log.config.dimension), rows)


def manifest_entry(config: RunConfig) -> dict:
    """A run's manifest entry: every RunConfig field and its log file."""
    settings = asdict(config)
    settings["criterion"] = settings.pop("infill").value
    return {**settings, "file": run_log_filename(config)}


def _entry_settings(entry: dict) -> RunConfig:
    """The RunConfig a manifest entry records; manifest_entry inverted.

    An entry that does not hold exactly what manifest_entry writes, such as one
    that leaves a setting out, raises ValueError rather than read as a default.
    """
    settings = {k: v for k, v in entry.items() if k != "file"}
    settings["infill"] = settings.pop("criterion")
    config = RunConfig(**settings)
    if manifest_entry(config) != entry:
        raise ValueError(f"entry {entry['file']!r} does not record exactly its run settings")
    return config


def read_manifest(directory) -> dict[str, RunConfig]:
    """The runs a directory's manifest lists: log file name -> RunConfig.

    The one place a manifest is parsed and checked. MalformedRunLog when the
    directory has no manifest, it cannot be parsed, any entry does not
    record exactly its run settings, or two entries name one file.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        runs = json.loads(path.read_text())["runs"]
        listed = {entry["file"]: _entry_settings(entry) for entry in runs}
    except FileNotFoundError as exc:
        raise MalformedRunLog(f"{path.parent} has no {MANIFEST_NAME}") from exc
    except (KeyError, TypeError, ValueError, UnknownFunction) as exc:  # JSONDecodeError is a ValueError
        raise MalformedRunLog(f"manifest {path} cannot be parsed: {exc!r}") from exc
    if len(listed) < len(runs):
        raise MalformedRunLog(f"manifest {path} lists a log file more than once")
    return listed


def write_manifest(directory, campaign_settings: dict, configs) -> None:
    """Write a directory's manifest: the campaign's settings and one entry per RunConfig."""
    path = Path(directory) / MANIFEST_NAME
    manifest = {"campaign": campaign_settings, "runs": [manifest_entry(c) for c in configs]}
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_value(text: str, name: str, iteration: int) -> Optional[float]:
    # The writer leaves nn_distance blank where there is no earlier point.
    if name == "nn_distance" and (iteration == 1) != (not text):
        raise ValueError(f"nn_distance is {text or 'blank'} in row {iteration}; "
                         "it is blank in row 1 and only there")
    if not text and name in _BLANK_ALLOWED:
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} is {text}")
    return value


def _parse_run_log(path: Path, config: RunConfig) -> RunLog:
    """Parse a run CSV that its manifest lists with ``config``, reading each
    row's fields by position.

    MalformedRunLog when the log is missing, its record count differs from
    ``config.total_budget``, the header is not the one ``write_run_log``
    writes for ``config.dimension``, a row has another number of fields, the
    iterations are not 1..n, a required field is blank, ``nn_distance`` is
    blank other than in row 1 or filled there, or a number is cut short or
    not finite.
    """
    try:
        lines = path.read_text().strip().splitlines()
    except FileNotFoundError as exc:
        raise MalformedRunLog(f"run log {path} is listed in its manifest but missing") from exc
    if len(lines) != config.total_budget + 1:
        raise MalformedRunLog(f"run log {path} does not hold the {config.total_budget} records "
                              f"its manifest entry records")
    columns, d = _columns(config.dimension), config.dimension
    header = ",".join(columns)
    if lines[0] != header:
        raise MalformedRunLog(f"run log {path} has the header {lines[0]!r}, not {header!r}")
    records: list[IterationRecord] = []
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise MalformedRunLog(f"run log {path} has a row of {len(parts)} fields, not {len(columns)}")
        try:
            if int(parts[0]) != k:
                raise ValueError(f"row {k} is numbered {parts[0]}")
            values = [_parse_value(text, name, k) for name, text in zip(columns[1:], parts[1:])]
            records.append(IterationRecord(k, np.array(values[:d]), *values[d:]))
        except ValueError as exc:  # a blank required field, or a number cut short or not finite
            raise MalformedRunLog(f"run log {path}: {exc}") from exc
    return RunLog(config, tuple(records))


def read_run_log(path) -> RunLog:
    """Parse one run CSV back into a RunLog with the settings of its entry in
    the manifest beside it.

    The whole manifest is checked by ``read_manifest``, as for a directory
    read. MalformedRunLog also when it does not list the log, or when
    ``_parse_run_log`` rejects the log.
    """
    path = Path(path)
    listed = read_manifest(path.parent)
    if path.name not in listed:
        raise MalformedRunLog(f"run log {path} is not listed in its directory's {MANIFEST_NAME}")
    return _parse_run_log(path, listed[path.name])


def read_run_logs(directory) -> list[RunLog]:
    """Every run log a directory's manifest lists, in file-name order.

    The manifest is parsed and checked once, and each log against its entry;
    files it does not list are not read.
    """
    listed = read_manifest(directory)
    return [_parse_run_log(Path(directory) / name, listed[name]) for name in sorted(listed)]
