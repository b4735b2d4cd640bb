"""Tests of the benchmark itself, on a workload small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

import bench
import tracer as tracer_module
from infillbench import campaign
from infillbench.smbo import run_log_filename
from tracer import SpanTotals, Tracer, span_totals
from workloads import CheckFailed, Workload, check_run_log, fingerprint, prepare_study, run_pass

ROOT = Path(__file__).resolve().parent.parent

TINY = Workload(
    name="tiny",
    workers=1,
    campaign={
        "functions": [3],
        "dimensions": [2],
        "instances": [1, 2],
        "criteria": ["ei", "pm"],
        "total_budget": 12,
        "initial_design_size": 10,
        "mle_evals_per_param": 10,
    },
)


def tiny_study(tmp_path, workers=1, seed=3):
    return prepare_study(dataclasses.replace(TINY, workers=workers), seed, ROOT, tmp_path)


def write_log(directory, wall_times, y_last):
    """A two-row run log whose timing column is not the last one."""
    directory.mkdir()
    path = directory / "f3_d2_i1_ei_s1.csv"
    path.write_text(
        "iteration,x_1,wall_time_ms,y\n"
        f"1,0.5,{wall_times[0]},1.5\n"
        f"2,0.25,{wall_times[1]},{y_last}\n"
    )
    return path


def test_fingerprint_ignores_timing_values_by_column_name(tmp_path):
    first = write_log(tmp_path / "a", ["1.0", "2.0"], y_last="2.5")
    retimed = write_log(tmp_path / "b", ["7.25", "9e3"], y_last="2.5")
    changed = write_log(tmp_path / "c", ["1.0", "2.0"], y_last="2.75")
    assert fingerprint([first]) == fingerprint([retimed])
    assert fingerprint([first]) != fingerprint([changed])


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, None),
        ("child", 1.0, 4.0, 0),
        ("child", 3.0, 6.0, 0),  # overlaps its sibling: [1, 6] is covered once
        ("leaf", 2.0, 3.0, 1),
        ("root", 20.0, 21.0, None),
    ]
    totals = span_totals(spans)
    assert totals["root"] == SpanTotals(calls=2, total_s=11.0, self_s=6.0)
    assert totals["child"] == SpanTotals(calls=2, total_s=6.0, self_s=5.0)
    assert totals["leaf"] == SpanTotals(calls=1, total_s=1.0, self_s=1.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_and_untraced_passes_leave_the_same_logs(tmp_path, workers):
    study = tiny_study(tmp_path, workers)
    untraced = run_pass(study, tmp_path / "untraced")
    traced = run_pass(study, tmp_path / "traced", Tracer(10, tmp_path / "spill"))
    for result in (untraced, traced):
        assert result.errors == []
        assert (result.attempted, result.failed) == (4, 0)
    assert traced.fingerprint == untraced.fingerprint

    totals, counters = traced.trace
    assert totals["smbo.run"].calls == 4
    assert totals["kriging.fit"].calls == 8
    # Each fit spends 10 * (2d + 1) likelihood evaluations, each proposal 1000 * d.
    assert counters["kriging.nll.count"] == 8 * 10 * 5
    assert counters["de.evals"] == 8 * 10 * 5 + 8 * 1000 * 2
    assert 0.0 < totals["kriging.fit"].self_s < totals["kriging.fit"].total_s


def test_a_budget_violation_fails_the_traced_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer_module, "MODEL_EVALS_PER_DIMENSION", 999)
    result = run_pass(tiny_study(tmp_path), tmp_path / "out", Tracer(10, tmp_path / "spill"))
    assert result.failed == 4
    assert any("propose search spent 2000 evaluations, expected 1998" in e for e in result.errors)


def test_a_run_that_raises_counts_as_failed_without_aborting_the_pass(tmp_path, monkeypatch):
    original = campaign.run

    def run_or_raise(config):
        if config.infill.value == "pm":
            raise RuntimeError("injected failure")
        return original(config)

    monkeypatch.setattr(campaign, "run", run_or_raise)
    result = run_pass(tiny_study(tmp_path), tmp_path / "out")
    assert result.attempted == 4
    assert result.failed == 4  # the campaign command failed, so none of its runs count
    assert any("injected failure" in e for e in result.errors)


def test_run_log_check_catches_a_best_gap_that_increases(tmp_path):
    study = tiny_study(tmp_path)
    out = tmp_path / "out"
    assert run_pass(study, out).errors == []
    config = study.plan[0]
    path = out / run_log_filename(config)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    column = header.index("best_gap")
    last = lines[-1].split(",")
    last[column] = repr(float(last[column]) + 1.0)
    path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    with pytest.raises(CheckFailed, match="best_gap increased"):
        check_run_log(path, config)


def test_a_run_reports_exactly_the_metrics_benchmark_json_declares(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = bench.PassRunner([tiny_study(tmp_path)], tmp_path)
    for mode, (passes, metrics, _) in {
        "end_to_end": bench.end_to_end(runner, 0, ROOT),
        "per_layer": bench.per_layer(runner, 0),
    }.items():
        assert all(p.errors == [] for p in passes)
        assert {name: unit for name, (_, unit) in metrics.items()} == {
            m["name"]: m["unit"] for m in declared[mode]
        }


def test_runs_cycle_through_disjoint_blocks_of_base_seeds(tmp_path):
    assert set(bench.pass_seeds(0)).isdisjoint(bench.pass_seeds(1))
    studies = [tiny_study(tmp_path, seed=s) for s in (5, 6)]
    runner = bench.PassRunner(studies, tmp_path)
    seeds = [runner.run(runner.next_study()).seed for _ in range(3)]
    assert seeds == [5, 6, 5]
