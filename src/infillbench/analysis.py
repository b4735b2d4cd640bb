"""Rank-based comparison and aggregation of optimization runs.

Provides the Wilcoxon rank-sum (Mann-Whitney) test with exact small-sample
p-values, a domination grid over the checkpoints past the initial design,
deciding where each infill criterion is significantly better, median/quartile
convergence curves, and a rule-based criterion recommendation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .infill import InfillCriterion
from .numerics import standard_normal_cdf
from .smbo import RunLog, write_text_atomic

DEFAULT_ALPHA = 0.05

# Exact rank enumeration is used up to this pooled sample size (tie-free only).
EXACT_ENUMERATION_LIMIT = 16

# Evaluation counts at which runs are compared: a fixed, roughly geometric
# ladder from the end of the default initial design up to the default budget.
# Other budgets reuse the ladder below the budget and always end exactly on it.
CHECKPOINT_LADDER = (10, 13, 18, 24, 32, 43, 57, 76, 101, 135, 180, 240, 300)
_LADDER_GROWTH = 4.0 / 3.0


class EmptySample(Exception):
    """A statistical test received an empty sample."""


class InsufficientRuns(Exception):
    """Fewer runs than the aggregation needs (at least two per group)."""


class WilcoxonResult(NamedTuple):
    statistic: float  # Mann-Whitney U of the first sample
    p_value: float


def _midranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fractional ranks (ties get the mean rank) and the tie-group sizes."""
    _, group, tie_sizes = np.unique(pooled, return_inverse=True, return_counts=True)
    starts = np.cumsum(tie_sizes) - tie_sizes  # values ranked below each tie group
    return (starts + (tie_sizes + 1) / 2)[group], tie_sizes


@lru_cache(maxsize=None)
def _u_count(m: int, n: int, u: int) -> int:
    """Number of rank arrangements of (m, n) tie-free samples with U statistic u."""
    if u < 0 or u > m * n:
        return 0
    if m == 0 or n == 0:
        return 1 if u == 0 else 0
    return _u_count(m - 1, n, u - n) + _u_count(m, n - 1, u)


def _exact_tail_probabilities(m: int, n: int, u: float) -> tuple[float, float]:
    total = float(math.comb(m + n, m))
    counts = np.array([_u_count(m, n, k) for k in range(m * n + 1)], dtype=float)
    p_le = counts[: int(np.floor(u)) + 1].sum() / total
    p_ge = counts[int(np.ceil(u)) :].sum() / total
    return p_le, p_ge


def wilcoxon_rank_sum(
    a: Sequence[float], b: Sequence[float], alternative: str = "two-sided"
) -> WilcoxonResult:
    """Mann-Whitney U test of two independent samples.

    Returns the U statistic of sample ``a`` (small U means ``a`` tends to be
    smaller) and the p-value. Tie-free samples with at most 16 values pooled
    get exact enumeration tails; everything else gets normal-approximation
    tails with tie and continuity corrections. Either way the test has two
    tails, P(U <= u) and P(U >= u): ``alternative`` ``"less"`` (a shifted
    below b) takes the first, ``"greater"`` the second, and ``"two-sided"``
    twice the smaller, capped at 1.
    """
    if alternative not in ("two-sided", "less", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySample("both samples must be non-empty")
    m, n = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks, tie_sizes = _midranks(pooled)
    rank_sum_a = float(ranks[:m].sum())
    u_stat = rank_sum_a - 0.5 * m * (m + 1)

    has_ties = bool(np.any(tie_sizes > 1))
    if not has_ties and (m + n) <= EXACT_ENUMERATION_LIMIT:
        p_le, p_ge = _exact_tail_probabilities(m, n, u_stat)
    else:
        total = m + n
        mean_u = 0.5 * m * n
        tie_term = float((tie_sizes**3 - tie_sizes).sum()) / (total * (total - 1))
        variance = m * n / 12.0 * ((total + 1) - tie_term)
        if variance <= 0.0:
            return WilcoxonResult(u_stat, 1.0)
        sd = np.sqrt(variance)
        p_le = float(standard_normal_cdf((u_stat - mean_u + 0.5) / sd))
        p_ge = float(standard_normal_cdf((mean_u - u_stat + 0.5) / sd))
    if alternative == "less":
        return WilcoxonResult(u_stat, p_le)
    if alternative == "greater":
        return WilcoxonResult(u_stat, p_ge)
    return WilcoxonResult(u_stat, min(1.0, 2.0 * min(p_le, p_ge)))


# ---------------------------------------------------------------------------
# Checkpoints and log grouping
# ---------------------------------------------------------------------------


def checkpoint_grid(total_budget: int) -> tuple[int, ...]:
    """Comparison checkpoints for a run budget: ladder values below it, then it.

    For budgets beyond the ladder the geometric growth continues at the same
    ratio until the budget is reached.
    """
    if total_budget < 1:
        raise ValueError("budget must be positive")
    points = [c for c in CHECKPOINT_LADDER if c < total_budget]
    extension = CHECKPOINT_LADDER[-1]
    while points and total_budget > extension:
        extension = int(np.ceil(extension * _LADDER_GROWTH))
        if extension < total_budget:
            points.append(extension)
    points.append(total_budget)
    return tuple(points)


def _group_runs(
    logs: Iterable[RunLog],
) -> dict[tuple[int, int], dict[InfillCriterion, list[RunLog]]]:
    groups: dict[tuple[int, int], dict[InfillCriterion, list[RunLog]]] = {}
    for log in logs:
        key = (log.config.function_id, log.config.dimension)
        groups.setdefault(key, {}).setdefault(log.config.infill, []).append(log)
    return groups


def _shared(values: Iterable[int], what: str) -> int:
    """The one value the runs of a group share; InsufficientRuns if they differ."""
    distinct = set(values)
    if len(distinct) != 1:
        raise InsufficientRuns(f"runs in one group must share {what}, got {sorted(distinct)}")
    return distinct.pop()


def _values_at(runs: Sequence[RunLog], checkpoint: int, field: str = "best_gap") -> np.ndarray:
    return np.array([getattr(log.records[checkpoint - 1], field) for log in runs], dtype=float)


@dataclass(frozen=True)
class DominationCell:
    """Outcome of one (function, dimension, checkpoint) comparison."""

    function_id: int
    dimension: int
    checkpoint: int
    winner: str  # "ei", "pm", or "none"
    p_value: float


def domination_matrix(logs: Iterable[RunLog], alpha: float = DEFAULT_ALPHA) -> list[DominationCell]:
    """Which criterion wins where: significance plus a strictly smaller median.

    Runs are pooled per (function, dimension, criterion) across instances;
    random-search baselines are ignored. Needs at least two EI and two PM
    runs per group, sharing a budget and an initial design size. Only the
    checkpoints past the design size are tested: up to it every run has
    evaluated only its own Latin hypercube, and a cell there would compare
    design luck, not criteria. ``alpha`` must lie in [0, 1): at 0 no
    comparison is significant, and at 1 or above every one would be.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"significance level alpha must lie in [0, 1), got {alpha}")
    cells: list[DominationCell] = []
    for (function_id, dimension), by_criterion in sorted(_group_runs(logs).items()):
        ei_runs = by_criterion.get(InfillCriterion.EXPECTED_IMPROVEMENT, [])
        pm_runs = by_criterion.get(InfillCriterion.PREDICTED_VALUE, [])
        if len(ei_runs) < 2 or len(pm_runs) < 2:
            raise InsufficientRuns(
                f"function {function_id} d={dimension}: need >= 2 runs per criterion, "
                f"got {len(ei_runs)} ei / {len(pm_runs)} pm"
            )
        runs = ei_runs + pm_runs
        budget = _shared((len(log.records) for log in runs), "a budget")
        design_size = _shared((log.config.initial_design_size for log in runs), "an initial design size")
        for checkpoint in checkpoint_grid(budget):
            if checkpoint <= design_size:
                continue
            ei_gaps = _values_at(ei_runs, checkpoint)
            pm_gaps = _values_at(pm_runs, checkpoint)
            p = wilcoxon_rank_sum(ei_gaps, pm_gaps).p_value
            winner = "none"
            if p < alpha:
                ei_median = float(np.median(ei_gaps))
                pm_median = float(np.median(pm_gaps))
                if ei_median < pm_median:
                    winner = "ei"
                elif pm_median < ei_median:
                    winner = "pm"
            cells.append(DominationCell(function_id, dimension, checkpoint, winner, p))
    return cells


@dataclass(frozen=True)
class QuartileCurve:
    """Median and quartile trajectory of one run group at the checkpoints."""

    checkpoints: tuple[int, ...]
    median: np.ndarray
    lower_quartile: np.ndarray
    upper_quartile: np.ndarray


CurveKey = tuple[int, int, InfillCriterion]


def quartile_curves(logs: Iterable[RunLog], field: str = "best_gap") -> dict[CurveKey, QuartileCurve]:
    """Per-group median/quartile curves of ``best_gap`` or ``nn_distance``.

    Quartiles use linear interpolation of order statistics (numpy's default
    percentile rule). Needs at least two runs per group.
    """
    if field not in ("best_gap", "nn_distance"):
        raise ValueError(f"unknown field {field!r}")
    curves: dict[CurveKey, QuartileCurve] = {}
    for (function_id, dimension), by_criterion in sorted(_group_runs(logs).items()):
        for criterion, runs in sorted(by_criterion.items(), key=lambda kv: kv[0].value):
            if len(runs) < 2:
                raise InsufficientRuns(
                    f"function {function_id} d={dimension} {criterion.value}: need >= 2 runs"
                )
            checkpoints = checkpoint_grid(_shared((len(log.records) for log in runs), "a budget"))
            stacked = np.array(
                [np.percentile(_values_at(runs, c, field), [25.0, 50.0, 75.0]) for c in checkpoints]
            )
            curves[(function_id, dimension, criterion)] = QuartileCurve(
                checkpoints=checkpoints,
                median=stacked[:, 1],
                lower_quartile=stacked[:, 0],
                upper_quartile=stacked[:, 2],
            )
    return curves


# ---------------------------------------------------------------------------
# Criterion recommendation
# ---------------------------------------------------------------------------

# Evaluation budget below which the greedy criterion's faster early
# convergence tends to dominate regardless of landscape.
CRITICAL_BUDGET = 70


@dataclass(frozen=True)
class Recommendation:
    criterion: InfillCriterion
    rationale: str


def recommend_criterion(
    dimension: int, budget: int, modality_hint: str = "unknown"
) -> Recommendation:
    """Advice on which infill criterion to use, with the rule that fired.

    Rule order: known unimodal landscapes and five-or-more dimensions go to
    the greedy predicted value, as do short budgets; low-dimensional
    multimodal or unknown landscapes with a generous budget go to expected
    improvement; four dimensions falls to whichever side the modality hint
    suggests.
    """
    if dimension < 1 or budget < 1:
        raise ValueError("dimension and budget must be positive")
    if modality_hint not in ("unimodal", "multimodal", "unknown"):
        raise ValueError(f"unknown modality hint {modality_hint!r}")
    pm = InfillCriterion.PREDICTED_VALUE
    ei = InfillCriterion.EXPECTED_IMPROVEMENT
    if modality_hint == "unimodal":
        return Recommendation(pm, "unimodal landscape: greedy exploitation cannot get trapped")
    if dimension >= 5:
        return Recommendation(
            pm, f"dimension {dimension} >= 5: exploration loses value in high dimension"
        )
    if budget < CRITICAL_BUDGET:
        return Recommendation(
            pm,
            f"budget {budget} < {CRITICAL_BUDGET}: too short for exploration to pay off",
        )
    if dimension <= 3:
        return Recommendation(
            ei,
            f"dimension {dimension} <= 3 with budget {budget} and {modality_hint} modality: "
            "exploration escapes local optima",
        )
    if modality_hint == "multimodal":
        return Recommendation(ei, "dimension 4 with a multimodal landscape: lean explorative")
    return Recommendation(pm, "dimension 4 without multimodality evidence: lean greedy")


# ---------------------------------------------------------------------------
# CSV emission and text summary
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_domination_csv(cells: Sequence[DominationCell], path) -> Path:
    path = Path(path)
    lines = ["function_id,dimension,checkpoint,winner,p_value"]
    for c in cells:
        lines.append(f"{c.function_id},{c.dimension},{c.checkpoint},{c.winner},{_fmt(c.p_value)}")
    write_text_atomic(path, "\n".join(lines) + "\n")
    return path


def write_curves_csv(
    curve_sets: dict[str, dict[CurveKey, QuartileCurve]], path
) -> Path:
    """Write curves for one or more fields; group names carry the field label."""
    path = Path(path)
    lines = ["group,checkpoint,median,q1,q3"]
    for field, curves in curve_sets.items():
        for (function_id, dimension, criterion), curve in sorted(
            curves.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value)
        ):
            group = f"f{function_id}_d{dimension}_{criterion.value}_{field}"
            for i, checkpoint in enumerate(curve.checkpoints):
                lines.append(
                    f"{group},{checkpoint},{_fmt(curve.median[i])},"
                    f"{_fmt(curve.lower_quartile[i])},{_fmt(curve.upper_quartile[i])}"
                )
    write_text_atomic(path, "\n".join(lines) + "\n")
    return path


def format_domination_summary(cells: Sequence[DominationCell]) -> str:
    """Per-dimension text summary of how many functions each criterion wins."""
    by_dim: dict[int, list[DominationCell]] = {}
    for cell in cells:
        by_dim.setdefault(cell.dimension, []).append(cell)
    lines = []
    for dimension in sorted(by_dim):
        dim_cells = by_dim[dimension]
        final_checkpoint = max(c.checkpoint for c in dim_cells)
        finals = [c for c in dim_cells if c.checkpoint == final_checkpoint]
        ei_wins = sorted(c.function_id for c in finals if c.winner == "ei")
        pm_wins = sorted(c.function_id for c in finals if c.winner == "pm")
        lines.append(
            f"d={dimension} at {final_checkpoint} evaluations: "
            f"ei better on {len(ei_wins)} function(s){f' {ei_wins}' if ei_wins else ''}, "
            f"pm better on {len(pm_wins)} function(s){f' {pm_wins}' if pm_wins else ''}, "
            f"no significant difference on {len(finals) - len(ei_wins) - len(pm_wins)}"
        )
    return "\n".join(lines)
