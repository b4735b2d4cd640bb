"""Kriging-based optimization with expected-improvement and predicted-value
infill criteria, plus a benchmark harness for comparing them."""

from .analysis import (
    DominationCell,
    QuartileCurve,
    Recommendation,
    checkpoint_grid,
    domination_matrix,
    quartile_curves,
    recommend_criterion,
    wilcoxon_rank_sum,
)
from .campaign import CampaignConfig, derive_run_seed, run_campaign
from .de import DEResult, minimize
from .design import BoxBounds, latin_hypercube, uniform_random
from .infill import InfillCriterion, expected_improvement, predicted_value_score, propose
from .kriging import (
    Dataset,
    KrigingHyperparameters,
    KrigingModel,
    correlation,
    fit,
    model_at,
    predict,
    predict_batch,
)
from .smbo import (
    IterationRecord,
    RunConfig,
    RunLog,
    nearest_neighbor_distance,
    read_run_log,
    run,
    write_run_log,
)
from .testbed import TestFunction, evaluate, list_suite, make_instance

__version__ = "0.1.0"

__all__ = [
    "BoxBounds",
    "CampaignConfig",
    "Dataset",
    "DEResult",
    "DominationCell",
    "InfillCriterion",
    "IterationRecord",
    "KrigingHyperparameters",
    "KrigingModel",
    "QuartileCurve",
    "Recommendation",
    "RunConfig",
    "RunLog",
    "TestFunction",
    "checkpoint_grid",
    "correlation",
    "derive_run_seed",
    "domination_matrix",
    "evaluate",
    "expected_improvement",
    "fit",
    "latin_hypercube",
    "list_suite",
    "make_instance",
    "minimize",
    "model_at",
    "nearest_neighbor_distance",
    "predict",
    "predict_batch",
    "predicted_value_score",
    "propose",
    "quartile_curves",
    "read_run_log",
    "recommend_criterion",
    "run",
    "run_campaign",
    "uniform_random",
    "wilcoxon_rank_sum",
    "write_run_log",
]
