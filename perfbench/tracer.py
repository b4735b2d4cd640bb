"""Span tracing for the benchmark's traced passes.

While installed, a Tracer replaces the public functions of each infillbench
module, at every module attribute through which the program calls them, with
wrappers that record one span per call: name, start, end and the index of
the span that was open when the call began. Nothing under ``src/`` changes,
and ``installed()`` puts the original functions back when the pass ends.

Counts are recorded at the same boundaries. At the ``de.minimize`` boundary
the wrapper also checks the protocol budgets: every likelihood search spends
exactly ``mle_evals_per_param * (2d + 1)`` evaluations and every proposal
search exactly ``1000 * d``.

Campaign workers are forked from the traced process, so they inherit the
wrappers. A worker writes each finished span tree, with its counts and budget
violations, to a file in ``spill_dir``; ``collect()`` reads them back in the
parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from infillbench import analysis, campaign, cli, de, infill, kriging, smbo
from infillbench.design import BoxBounds

# The paper's proposal budget per search dimension. Kept here rather than
# read from the program, so that a change to the program's constant shows
# up as a budget violation.
MODEL_EVALS_PER_DIMENSION = 1000

# Span name -> the (module, attribute) references through which the program
# calls that function.
_PLAIN_SPANS = {
    "cli.main": [(cli, "main")],
    "campaign.run_campaign": [(cli, "run_campaign")],
    "smbo.write_run_log": [(campaign, "write_run_log")],
    "smbo.read_run_log": [(smbo, "read_run_log")],
    "smbo.nearest_neighbor_distance": [(smbo, "nearest_neighbor_distance")],
    "testbed.make_instance": [(smbo, "make_instance")],
    "testbed.evaluate": [(smbo, "evaluate")],
    "design.latin_hypercube": [(smbo, "latin_hypercube")],
    "design.uniform_random": [(infill, "uniform_random")],
    "infill.propose": [(smbo, "propose")],
    "numerics.solve_triangular": [(kriging, "solve_triangular")],
    "numerics.normal": [
        (infill, "standard_normal_cdf"),
        (infill, "standard_normal_pdf"),
        (analysis, "standard_normal_cdf"),
    ],
    "analysis.domination_matrix": [(cli, "domination_matrix")],
    "analysis.quartile_curves": [(cli, "quartile_curves")],
}

_SEARCH_ROLES = {"kriging.fit": "fit", "infill.propose": "propose"}
_CALLBACK_SPANS = {"fit": "kriging.nll", "propose": "infill.criterion"}


@dataclass(frozen=True)
class SpanTotals:
    calls: int
    total_s: float
    self_s: float


def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def span_totals(spans) -> dict[str, SpanTotals]:
    """Calls, total time and self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent_index)``, with
    parent None for a root. A span's self time is its duration minus the
    part of it that its child spans cover.
    """
    spans = list(spans)
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    sums = defaultdict(lambda: [0, 0.0, 0.0])
    for index, (name, start, end, _) in enumerate(spans):
        entry = sums[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered_length(children.get(index, ()), start, end)
    return {name: SpanTotals(*entry) for name, entry in sums.items()}


def merge_totals(parts) -> dict[str, SpanTotals]:
    """Sum per-name totals over several span trees (e.g. one per process)."""
    merged = defaultdict(lambda: [0, 0.0, 0.0])
    for part in parts:
        for name, totals in part.items():
            entry = merged[name]
            entry[0] += totals.calls
            entry[1] += totals.total_s
            entry[2] += totals.self_s
    return {name: SpanTotals(*entry) for name, entry in merged.items()}


def _evaluations(points) -> int:
    """Points in one objective call: the rows of a batch, or one point."""
    return len(points) if getattr(points, "ndim", 0) == 2 else 1


class Spans:
    """Spans as columns: name, start, end and parent index (-1 for a root).

    Plain number columns keep the hundred thousand spans of a traced pass
    out of the garbage collector's sight; span objects would slow the pass
    with ever longer collections.
    """

    def __init__(self, names=(), starts=(), ends=(), parents=()):
        self.names = list(names)
        self.starts = array("d", starts)
        self.ends = array("d", ends)
        self.parents = array("q", parents)

    def open(self, name: str, parent: int) -> int:
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(parent)
        return len(self.names) - 1

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()

    def rows(self):
        """(name, start, end, parent) with parent None for a root."""
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            yield name, start, end, (None if parent < 0 else parent)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "parents": self.parents.tolist(),
        }


class Tracer:
    """Records spans and counts for one traced pass at a time."""

    def __init__(self, mle_evals_per_param: int, spill_dir: Path):
        self.mle_evals_per_param = mle_evals_per_param
        self.spill_dir = Path(spill_dir)
        self._owner_pid = os.getpid()
        self._start_recording()

    def _start_recording(self):
        self._pid = os.getpid()
        self._spilled = 0
        self._run_label = None
        self._fit_evals = 0
        self.spans = Spans()
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.violations: list[tuple[str, str]] = []

    # -- recording ---------------------------------------------------------

    def _check_process(self):
        if os.getpid() != self._pid:
            # First call in a forked campaign worker: drop the parent's copy.
            self._start_recording()

    def _call(self, name, fn, args, kwargs):
        self._check_process()
        index = self.spans.open(name, self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.close(index)
            self._stack.pop()
            if not self._stack and self._spilling():
                self._spill()

    def _spilling(self) -> bool:
        return self._pid != self._owner_pid

    def _spill(self):
        payload = {
            "spans": self.spans.to_json(),
            "counters": dict(self.counters),
            "violations": self.violations,
        }
        self._spilled += 1
        path = self.spill_dir / f"{self._pid}-{self._spilled}.json"
        partial = path.with_suffix(".part")
        partial.write_text(json.dumps(payload))
        os.replace(partial, path)
        self.spans, self.counters, self.violations = Spans(), Counter(), []

    def _current_name(self):
        return self.spans.names[self._stack[-1]] if self._stack else None

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, args, kwargs)

        return wrapper

    def _traced_run(self, original):
        @functools.wraps(original)
        def run(config, *args, **kwargs):
            self._check_process()
            self._run_label = smbo.run_log_filename(config)
            return self._call("smbo.run", original, (config, *args), kwargs)

        return run

    def _traced_fit(self, original):
        @functools.wraps(original)
        def fit(*args, **kwargs):
            self._fit_evals = 0
            model = self._call("kriging.fit", original, args, kwargs)
            n, d = model.data.n, model.data.dimension
            self.counters["kriging.nll.kernel_elems"] += self._fit_evals * (n * (n - 1) // 2) * d
            return model

        return fit

    def _traced_predict_batch(self, original):
        @functools.wraps(original)
        def predict_batch(model, points, *args, **kwargs):
            self.counters["kriging.predict_batch.points"] += _evaluations(points)
            return self._call("kriging.predict_batch", original, (model, points, *args), kwargs)

        return predict_batch

    def _callback(self, role, objective, used):
        name = _CALLBACK_SPANS[role]

        @functools.wraps(objective)
        def callback(points, *args, **kwargs):
            count = _evaluations(points)
            used[0] += count
            value = self._call(name, objective, (points, *args), kwargs)
            if role == "fit":
                self._fit_evals += count
                self.counters["kriging.nll.count"] += count
                if isinstance(value, float):
                    self.counters["kriging.nll.penalties"] += value == kriging.PENALTY_NLL
                else:
                    self.counters["kriging.nll.penalties"] += int(
                        np.count_nonzero(np.asarray(value) == kriging.PENALTY_NLL)
                    )
            return value

        return callback

    def _traced_minimize(self, original):
        @functools.wraps(original)
        def minimize(*args, **kwargs):
            role = _SEARCH_ROLES.get(self._current_name())
            if role is None:
                return self._call("de.minimize", original, args, kwargs)
            used = [0]

            def wrap(value):
                return self._callback(role, value, used) if callable(value) else value

            args = tuple(wrap(a) for a in args)
            kwargs = {key: wrap(value) for key, value in kwargs.items()}
            result = self._call(f"de.{role}", original, args, kwargs)
            self.counters["de.evals"] += used[0]
            bounds = next(a for a in (*args, *kwargs.values()) if isinstance(a, BoxBounds))
            per_dimension = (
                self.mle_evals_per_param if role == "fit" else MODEL_EVALS_PER_DIMENSION
            )
            expected = per_dimension * bounds.dimension
            if used[0] != expected:
                self.violations.append(
                    (self._run_label, f"{role} search spent {used[0]} evaluations, expected {expected}")
                )
            return result

        return minimize

    def _patches(self):
        for name, targets in _PLAIN_SPANS.items():
            for module, attr in targets:
                yield module, attr, functools.partial(self._plain, name)
        yield campaign, "run", self._traced_run
        yield smbo, "fit", self._traced_fit
        yield infill, "predict_batch", self._traced_predict_batch
        yield de, "minimize", self._traced_minimize

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the ``with`` block."""
        self._owner_pid = os.getpid()
        self._start_recording()
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        originals = []
        try:
            for module, attr, make_wrapper in self._patches():
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, make_wrapper(original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def collect(self):
        """(totals, counters, violations) of the pass, parent and workers merged."""
        parts = [span_totals(self.spans.rows())]
        counters = Counter(self.counters)
        violations = list(self.violations)
        for path in sorted(self.spill_dir.glob("*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            parts.append(span_totals(Spans(**payload["spans"]).rows()))
            counters.update(payload["counters"])
            violations.extend(tuple(v) for v in payload["violations"])
        return merge_totals(parts), counters, violations


def layer_metrics(totals: dict[str, SpanTotals], counters: Counter, workers: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Times are summed over every process of the pass, so on a campaign with
    several workers they can exceed the pass's wall time.
    """

    def get(name):
        return totals.get(name, SpanTotals(0, 0.0, 0.0))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    nll = get("kriging.nll")
    nll_count = counters["kriging.nll.count"]
    kernel_elems = counters["kriging.nll.kernel_elems"]
    predict = get("kriging.predict_batch")
    points = counters["kriging.predict_batch.points"]
    run = get("smbo.run")
    run_campaign = get("campaign.run_campaign")
    covered = get("kriging.fit").total_s + get("infill.propose").total_s + get("testbed.evaluate").total_s
    normal = get("numerics.normal")
    return {
        "kriging.fit.calls": (get("kriging.fit").calls, "count"),
        "kriging.fit.s": (get("kriging.fit").total_s, "s"),
        "kriging.fit.self_s": (get("kriging.fit").self_s, "s"),
        "kriging.nll.count": (nll_count, "count"),
        "kriging.nll.us_mean": (ratio(nll.total_s, nll_count) * 1e6, "us"),
        "kriging.nll.penalty_frac": (ratio(counters["kriging.nll.penalties"], nll_count), "frac"),
        "kriging.nll.kernel_elems": (kernel_elems, "count"),
        "kriging.nll.ns_per_elem": (ratio(nll.total_s, kernel_elems) * 1e9, "ns"),
        "kriging.predict_batch.calls": (predict.calls, "count"),
        "kriging.predict_batch.points": (points, "count"),
        "kriging.predict_batch.us_per_point": (ratio(predict.total_s, points) * 1e6, "us"),
        "de.fit.self_s": (get("de.fit").self_s, "s"),
        "de.propose.self_s": (get("de.propose").self_s, "s"),
        "de.evals": (counters["de.evals"], "count"),
        "infill.propose.calls": (get("infill.propose").calls, "count"),
        "infill.propose.s": (get("infill.propose").total_s, "s"),
        "infill.criterion.self_s": (get("infill.criterion").self_s, "s"),
        "numerics.solve_triangular.calls": (get("numerics.solve_triangular").calls, "count"),
        "numerics.solve_triangular.s": (get("numerics.solve_triangular").total_s, "s"),
        "numerics.normal.s": (normal.total_s, "s"),
        "testbed.evaluate.s": (get("testbed.evaluate").total_s, "s"),
        "testbed.make_instance.s": (get("testbed.make_instance").total_s, "s"),
        "design.latin_hypercube.s": (get("design.latin_hypercube").total_s, "s"),
        "design.uniform_random.calls": (get("design.uniform_random").calls, "count"),
        "smbo.run.s": (run.total_s, "s"),
        "smbo.run.covered_frac": (ratio(covered, run.total_s), "frac"),
        "smbo.nearest_neighbor_distance.s": (get("smbo.nearest_neighbor_distance").total_s, "s"),
        "smbo.write_run_log.s": (get("smbo.write_run_log").total_s, "s"),
        "smbo.read_run_log.s": (get("smbo.read_run_log").total_s, "s"),
        "campaign.run_campaign.s": (run_campaign.total_s, "s"),
        "campaign.worker_util": (ratio(run.total_s, workers * run_campaign.total_s), "frac"),
        "analysis.domination_matrix.s": (get("analysis.domination_matrix").total_s, "s"),
        "analysis.quartile_curves.s": (get("analysis.quartile_curves").total_s, "s"),
        "cli.main.s": (get("cli.main").total_s, "s"),
    }
