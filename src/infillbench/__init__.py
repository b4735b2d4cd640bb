"""Kriging-based optimization with expected-improvement and predicted-value
infill criteria, plus a benchmark harness for comparing them.

Each public name is imported from its module on first access (PEP 562), so
``import infillbench`` loads no submodule and no numpy, and a name loads
only the modules it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "analysis": ("DominationCell", "QuartileCurve", "Recommendation", "checkpoint_grid",
                     "domination_matrix", "quartile_curves", "recommend_criterion",
                     "wilcoxon_rank_sum"),
        "campaign": ("CampaignConfig", "derive_run_seed", "run_campaign"),
        "de": ("minimize",),
        "design": ("BoxBounds", "latin_hypercube", "uniform_random"),
        "infill": ("InfillCriterion", "propose"),
        "kriging": ("Dataset", "KrigingHyperparameters", "KrigingModel", "fit", "model_at",
                    "predict_batch"),
        "smbo": ("IterationRecord", "RunConfig", "RunLog", "nearest_neighbor_distance",
                 "read_run_log", "run", "write_run_log"),
        "testbed": ("TestFunction", "evaluate", "list_suite", "make_instance"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
