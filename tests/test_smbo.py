import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import infillbench.smbo as smbo_module
from infillbench.analysis import write_curves_csv, write_domination_csv
from infillbench.campaign import CampaignConfig, run_campaign
from infillbench.cli import EXIT_IO
from infillbench.cli import main as cli_main
from infillbench.infill import InfillCriterion
from infillbench.smbo import (
    EmptyArchive,
    MalformedRunLog,
    MANIFEST_NAME,
    RunConfig,
    manifest_entry,
    nearest_neighbor_distance,
    read_run_log,
    read_run_logs,
    run,
    run_log_filename,
    write_manifest,
    write_run_log,
    write_text_atomic,
)
from infillbench.testbed import UnknownFunction

CACHE_DIR = Path(__file__).resolve().parent.parent / ".acceptance_cache"


def write_listed_log(log, directory):
    """Write a run's log and a manifest beside it that lists just that run."""
    path = write_run_log(log, directory)
    write_manifest(directory, {}, [log.config])
    return path


def records_equal(a, b):
    """Record-by-record equality ignoring wall-clock timing."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.iteration != rb.iteration or not np.array_equal(ra.x, rb.x):
            return False
        if (ra.y, ra.gap, ra.best_gap, ra.nn_distance, ra.model_nll) != (
            rb.y, rb.gap, rb.best_gap, rb.nn_distance, rb.model_nll,
        ):
            return False
    return True


class TestNearestNeighborDistance:
    def test_known_point_is_zero(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert nearest_neighbor_distance(pts, np.array([3.0, 4.0])) == 0.0

    def test_three_four_five(self):
        assert nearest_neighbor_distance(np.array([[0.0, 0.0]]), np.array([3.0, 4.0])) == 5.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        archive = rng.uniform(-5.0, 5.0, (50, 3))
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, 3)
            expected = min(float(np.linalg.norm(x - row)) for row in archive)
            np.testing.assert_allclose(nearest_neighbor_distance(archive, x), expected, rtol=1e-12)

    def test_empty_archive(self):
        with pytest.raises(EmptyArchive):
            nearest_neighbor_distance(np.empty((0, 2)), np.array([0.0, 0.0]))


class TestRunConfig:
    def test_design_must_fit_in_budget(self):
        with pytest.raises(ValueError):
            RunConfig(1, 2, 1, InfillCriterion.PREDICTED_VALUE, total_budget=10,
                      initial_design_size=10)

    def test_criterion_coerced_from_string(self):
        cfg = RunConfig(1, 2, 1, "ei", total_budget=12)
        assert cfg.infill is InfillCriterion.EXPECTED_IMPROVEMENT

    def test_unknown_function_rejected_at_construction(self):
        with pytest.raises(UnknownFunction, match="function id 4"):
            RunConfig(4, 2, 1, "ei", total_budget=12)

    @pytest.mark.parametrize("setting", ["total_budget", "seed"])
    @pytest.mark.parametrize("value", [12.0, 12.5, True, "12"])
    def test_integer_setting_must_be_an_int(self, setting, value):
        with pytest.raises(ValueError, match=f"{setting} must be an integer"):
            RunConfig(1, 2, 1, "ei", **{setting: value})


@pytest.fixture(scope="module")
def small_pm_log():
    cfg = RunConfig(1, 2, 1, InfillCriterion.PREDICTED_VALUE,
                    total_budget=14, initial_design_size=10, seed=5)
    return run(cfg)


class TestRun:

    def test_exact_record_count(self, small_pm_log):
        assert len(small_pm_log.records) == 14
        assert [r.iteration for r in small_pm_log.records] == list(range(1, 15))

    def test_model_proposal_count(self, small_pm_log):
        # budget 14 with a 10-point design leaves exactly 4 model proposals
        assert sum(r.model_nll is not None for r in small_pm_log.records) == 4

    def test_best_gap_non_increasing(self, small_pm_log):
        gaps = [r.best_gap for r in small_pm_log.records]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_nn_distance_present_after_first(self, small_pm_log):
        assert small_pm_log.records[0].nn_distance is None
        assert all(r.nn_distance is not None for r in small_pm_log.records[1:])

    def test_nn_distance_matches_brute_force(self, small_pm_log):
        xs = np.array([r.x for r in small_pm_log.records])
        for k in range(1, len(xs)):
            expected = min(float(np.linalg.norm(xs[k] - xs[j])) for j in range(k))
            np.testing.assert_allclose(small_pm_log.records[k].nn_distance, expected, rtol=1e-12)

    def test_objective_evaluation_accounting(self, monkeypatch):
        calls = {"n": 0}
        real_evaluate = smbo_module.evaluate

        def counting(func, x):
            calls["n"] += 1
            return real_evaluate(func, x)

        monkeypatch.setattr(smbo_module, "evaluate", counting)
        cfg = RunConfig(1, 2, 1, InfillCriterion.RANDOM_SEARCH, total_budget=17, seed=0)
        log = run(cfg)
        assert calls["n"] == 17
        assert len(log.records) == 17

    def test_deterministic_replay(self):
        cfg = RunConfig(3, 2, 2, InfillCriterion.EXPECTED_IMPROVEMENT,
                        total_budget=13, initial_design_size=10, seed=9)
        assert records_equal(run(cfg).records, run(cfg).records)

    def test_random_search_never_fits(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("random search must not fit models")

        monkeypatch.setattr(smbo_module, "fit", forbidden)
        cfg = RunConfig(1, 2, 1, InfillCriterion.RANDOM_SEARCH, total_budget=15, seed=1)
        log = run(cfg)
        assert all(r.model_nll is None for r in log.records)

    def test_pm_improves_on_sphere(self):
        cfg = RunConfig(1, 2, 1, InfillCriterion.PREDICTED_VALUE,
                        total_budget=60, initial_design_size=10, seed=3)
        log = run(cfg)
        design_best = min(r.gap for r in log.records[:10])
        assert log.records[-1].best_gap < design_best

    def test_degenerate_design_falls_back_to_random(self, monkeypatch):
        # constant objective -> constant design values -> no model possible
        monkeypatch.setattr(smbo_module, "evaluate", lambda func, x: 7.5)
        cfg = RunConfig(1, 2, 1, InfillCriterion.PREDICTED_VALUE, total_budget=13, seed=2)
        log = run(cfg)
        assert len(log.records) == 13
        assert all(r.model_nll is None for r in log.records)

    def test_duplicate_proposal_is_evaluated_and_recorded(self, monkeypatch):
        # force every model proposal onto an already-evaluated point: the run
        # must keep evaluating/logging it, and the next fit must still succeed
        real_propose = smbo_module.propose

        def pinning(model, criterion, bounds, y_best, seed):
            if model is None:
                return real_propose(model, criterion, bounds, y_best, seed)
            return model.data.X[0].copy()

        monkeypatch.setattr(smbo_module, "propose", pinning)
        cfg = RunConfig(1, 2, 1, InfillCriterion.PREDICTED_VALUE,
                        total_budget=13, initial_design_size=10, seed=4)
        log = run(cfg)
        assert len(log.records) == 13
        dup_records = log.records[10:]
        assert all(r.nn_distance < 1e-8 for r in dup_records)
        # stagnation is observable: no improvement at duplicated proposals
        for k in range(10, 13):
            assert log.records[k].best_gap == log.records[k - 1].best_gap


class TestSerialization:
    def test_filename_encoding(self):
        cfg = RunConfig(3, 5, 7, InfillCriterion.EXPECTED_IMPROVEMENT,
                        total_budget=12, seed=42)
        assert run_log_filename(cfg) == "f3_d5_i7_ei_s42.csv"

    def test_round_trip_is_lossless(self, tmp_path):
        cfg = RunConfig(3, 2, 1, InfillCriterion.PREDICTED_VALUE,
                        total_budget=13, initial_design_size=10, seed=8)
        log = run(cfg)
        restored = read_run_log(write_listed_log(log, tmp_path))
        assert restored.config == cfg
        for original, parsed in zip(log.records, restored.records):
            assert np.array_equal(original.x, parsed.x)
            assert original.y == parsed.y
            assert original.gap == parsed.gap
            assert original.best_gap == parsed.best_gap
            assert original.nn_distance == parsed.nn_distance
            assert original.model_nll == parsed.model_nll
            assert original.wall_time_ms == parsed.wall_time_ms

    def test_header_schema(self, tmp_path):
        cfg = RunConfig(1, 3, 1, InfillCriterion.RANDOM_SEARCH, total_budget=11, seed=1)
        path = write_run_log(run(cfg), tmp_path)
        header = path.read_text().splitlines()[0]
        assert header == "iteration,x_1,x_2,x_3,y,gap,best_gap,nn_distance,model_nll,wall_time_ms"

    def test_log_bytes_stable_apart_from_timing(self, tmp_path):
        cfg = RunConfig(1, 2, 1, InfillCriterion.RANDOM_SEARCH, total_budget=12, seed=3)
        first = write_run_log(run(cfg), tmp_path / "a").read_text()
        second = write_run_log(run(cfg), tmp_path / "b").read_text()
        assert without_timing(first) == without_timing(second)

    # sha256 of whole f3 d=2 run logs without their timing column, recorded
    # on conftest.GOLDEN_HOST before smbo.run became one loop over evaluations.
    GOLDEN_LOGS = {
        "pm": "f0f5212f63e03f0983af23f87e889fc41ec9ab6d8b1252378d94f35d2e3d5858",
        "ei": "98cfdda49ae02c2dddf94cc17c8f62b01b0349e01b95e45a8d2c9e3f0b7b3f0e",
        "random": "1132e3eca9e15c89abd6d74daf079245f13eeae2f4a3cd533300261ea3ebb958",
    }

    @pytest.mark.parametrize("criterion", sorted(GOLDEN_LOGS))
    def test_golden_run_log(self, criterion, tmp_path, golden_host):
        cfg = RunConfig(3, 2, 1, InfillCriterion(criterion), total_budget=14,
                        initial_design_size=10, seed=0, mle_evals_per_param=20)
        text = without_timing(write_run_log(run(cfg), tmp_path).read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_LOGS[criterion]


def without_timing(text):
    """A run log's text with its wall_time_ms column, found by its header name, cut out."""
    rows = [line.split(",") for line in text.splitlines()]
    timing = rows[0].index("wall_time_ms")
    return "".join(",".join(row[:timing] + row[timing + 1:]) + "\n" for row in rows)


def rewrite_log(path, edit):
    """Apply edit(header_fields, rows_of_fields) to a run CSV in place."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(header, rows)
    path.write_text("\n".join(",".join(fields) for fields in [header, *rows]) + "\n")


def reverse_columns(header, rows):
    for fields in [header, *rows]:
        fields.reverse()


def append_column(header, rows):
    header.append("note")
    for fields in rows:
        fields.append("0")


class TestReadRunLog:
    @pytest.fixture
    def log_path(self, tmp_path):
        cfg = RunConfig(3, 2, 1, InfillCriterion.PREDICTED_VALUE,
                        total_budget=12, initial_design_size=10, seed=8,
                        mle_evals_per_param=20)
        return write_listed_log(run(cfg), tmp_path)

    @pytest.mark.parametrize("edit", [reverse_columns, append_column], ids=["reordered", "extended"])
    def test_header_other_than_the_writers_raises(self, log_path, edit):
        # Every field still parses; only the header differs from the writer's.
        rewrite_log(log_path, edit)
        with pytest.raises(MalformedRunLog, match="header"):
            read_run_log(log_path)

    @pytest.mark.parametrize("column", ["y", "gap", "best_gap", "wall_time_ms"])
    def test_blank_required_field_raises(self, log_path, column):
        def blank(header, rows):
            rows[3][header.index(column)] = ""

        rewrite_log(log_path, blank)
        with pytest.raises(MalformedRunLog):
            read_run_log(log_path)

    @pytest.mark.parametrize("column", ["x_2", "gap", "model_nll"])
    def test_missing_column_raises(self, log_path, column):
        def drop(header, rows):
            i = header.index(column)
            for fields in [header, *rows]:
                del fields[i]

        rewrite_log(log_path, drop)
        with pytest.raises(MalformedRunLog):
            read_run_log(log_path)

    def test_short_row_raises(self, log_path):
        rewrite_log(log_path, lambda header, rows: rows[-1].pop())
        with pytest.raises(MalformedRunLog):
            read_run_log(log_path)

    def test_number_cut_short_raises(self, log_path):
        def cut(header, rows):
            rows[2][header.index("y")] = "1.5e"

        rewrite_log(log_path, cut)
        with pytest.raises(MalformedRunLog):
            read_run_log(log_path)

    @pytest.mark.parametrize("column,text", [
        ("y", "nan"), ("best_gap", "nan"), ("x_1", "inf"), ("gap", "-inf"),
        ("model_nll", "nan"), ("nn_distance", "inf"), ("wall_time_ms", "nan"),
        ("iteration", "11"), ("iteration", "13"), ("iteration", "12.0"),
    ])
    def test_non_finite_number_or_misnumbered_iteration_raises(self, log_path, column, text):
        # the last of the 12 rows must be numbered 12
        def poison(header, rows):
            rows[-1][header.index(column)] = text

        rewrite_log(log_path, poison)
        with pytest.raises(MalformedRunLog):
            read_run_log(log_path)

    def test_record_count_other_than_the_entry_budget_raises(self, log_path):
        rewrite_log(log_path, lambda header, rows: rows.pop())
        with pytest.raises(MalformedRunLog, match="12 records"):
            read_run_log(log_path)

    def test_log_without_a_manifest_raises(self, log_path):
        (log_path.parent / MANIFEST_NAME).unlink()
        with pytest.raises(MalformedRunLog, match="no manifest.json"):
            read_run_log(log_path)

    def test_log_its_manifest_does_not_list_raises(self, log_path, tmp_path):
        other = RunConfig(3, 2, 1, InfillCriterion.RANDOM_SEARCH, total_budget=12, seed=8)
        write_manifest(tmp_path, {}, [other])
        with pytest.raises(MalformedRunLog, match="not listed"):
            read_run_log(log_path)

    def test_lone_cached_log_reads_its_manifest_settings(self):
        # this campaign ran with 100 likelihood evaluations per parameter, not the default 500
        directory = CACHE_DIR / "high_dim_10d"
        entry = json.loads((directory / MANIFEST_NAME).read_text())["runs"][0]
        log = read_run_log(directory / entry["file"])
        assert log.config.mle_evals_per_param == 100
        assert manifest_entry(log.config) == entry


class TestReadRunLogs:
    @pytest.fixture
    def campaign_dir(self, tmp_path):
        config = CampaignConfig(
            functions=(3,), dimensions=(2,), criteria=("random",), instances=(1, 2, 3),
            total_budget=12, initial_design_size=4, mle_evals_per_param=7,
            output_dir=str(tmp_path),
        )
        run_campaign(config)
        return tmp_path

    def edit_manifest(self, directory, edit):
        path = directory / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        edit(manifest["runs"])
        path.write_text(json.dumps(manifest))

    def test_cached_logs_read_back_their_manifest_settings(self):
        # this campaign ran with 100 likelihood evaluations per parameter, not the default 500
        directory = CACHE_DIR / "high_dim_10d"
        entries = json.loads((directory / MANIFEST_NAME).read_text())["runs"]
        logs = read_run_logs(directory)
        assert len(logs) == len(entries) == 40
        assert {log.config.mle_evals_per_param for log in logs} == {100}
        by_file = {entry["file"]: entry for entry in entries}
        for log in logs:
            entry = by_file[run_log_filename(log.config)]
            assert manifest_entry(log.config) == entry

    def test_fallback_runs_read_back_blank_likelihoods_and_manifest_settings(
        self, tmp_path, monkeypatch
    ):
        # a constant objective identifies no model: each PM run falls back to
        # random proposals, and its log shows it only by blank model_nll cells
        monkeypatch.setattr(smbo_module, "evaluate", lambda func, x: 7.5)
        run_campaign(CampaignConfig(
            functions=(3,), dimensions=(2,), criteria=("pm",), instances=(1, 2, 3),
            total_budget=12, initial_design_size=4, mle_evals_per_param=7,
            output_dir=str(tmp_path),
        ))
        self.edit_manifest(tmp_path, lambda runs: runs.pop())
        first, second = read_run_logs(tmp_path)
        for listed in (first, second):
            assert listed.config.infill is InfillCriterion.PREDICTED_VALUE
            assert (listed.config.initial_design_size, listed.config.mle_evals_per_param) == (4, 7)
            assert len(listed.records) == 12
            assert all(r.model_nll is None for r in listed.records)
        # the log the manifest no longer lists is not read, and cannot be read on its own
        unlisted = sorted(tmp_path.glob("*.csv"))[-1]
        assert run_log_filename(first.config) < run_log_filename(second.config) < unlisted.name
        with pytest.raises(MalformedRunLog, match="not listed"):
            read_run_log(unlisted)

    def test_entry_contradicting_its_log_raises(self, campaign_dir):
        def claim_longer_budget(runs):
            runs[1]["total_budget"] = 13

        self.edit_manifest(campaign_dir, claim_longer_budget)
        with pytest.raises(MalformedRunLog):
            read_run_logs(campaign_dir)

    @pytest.mark.parametrize("edit", [
        # without the check, a missing setting would read back as its default (500 here)
        lambda entry: entry.pop("mle_evals_per_param"),
        lambda entry: entry.pop("initial_design_size"),
        lambda entry: entry.pop("seed"),
        lambda entry: entry.update(note="extra"),
        # the fallback flag every entry held before it was deleted
        lambda entry: entry.update(degenerate_fallback=False),
    ], ids=["no_mle_evals_per_param", "no_initial_design_size", "no_seed", "unknown_key",
            "retired_degenerate_fallback"])
    def test_entry_not_recording_exactly_its_settings_raises(self, campaign_dir, edit):
        self.edit_manifest(campaign_dir, lambda runs: edit(runs[0]))
        with pytest.raises(MalformedRunLog):
            read_run_logs(campaign_dir)

    @pytest.mark.parametrize("edit", [
        lambda entry: entry.update(function_id=4),
        # 12.0 == 12, so only the type check tells this entry from the one written
        lambda entry: entry.update(total_budget=float(entry["total_budget"])),
    ], ids=["unknown_function", "float_budget"])
    def test_entry_no_run_config_can_hold_raises(self, campaign_dir, edit):
        self.edit_manifest(campaign_dir, lambda runs: edit(runs[0]))
        with pytest.raises(MalformedRunLog):
            read_run_logs(campaign_dir)

    def test_directory_read_parses_its_manifest_once(self, campaign_dir, manifest_reads):
        assert len(read_run_logs(campaign_dir)) == 3
        assert manifest_reads == [campaign_dir / MANIFEST_NAME]

    def test_lone_read_rejects_a_manifest_with_any_entry_not_recording_its_settings(
        self, campaign_dir
    ):
        # the entry of the log being read is intact; another one leaves a setting out
        runs = json.loads((campaign_dir / MANIFEST_NAME).read_text())["runs"]
        self.edit_manifest(campaign_dir, lambda edited: edited[1].pop("mle_evals_per_param"))
        with pytest.raises(MalformedRunLog, match="does not record exactly its run settings"):
            read_run_log(campaign_dir / runs[0]["file"])

    def test_unparsable_manifest_raises(self, campaign_dir):
        path = campaign_dir / MANIFEST_NAME
        path.write_text(path.read_text()[:-40])
        with pytest.raises(MalformedRunLog):
            read_run_logs(campaign_dir)


class TestAtomicWrites:
    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):  # fails inside the write itself
            write_text_atomic(path, "new\n\udc80")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_new_text_replaces_old(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        write_text_atomic(path, "new\n")
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "writer", ["run_log", "domination_csv", "curves_csv", "manifest", "suite_manifest"])
    def test_every_writer_survives_a_failed_replace(self, writer, tmp_path, monkeypatch, capsys):
        # the temp file is fully written, then the final rename fails
        random_run = RunConfig(1, 2, 1, InfillCriterion.RANDOM_SEARCH, total_budget=12)
        campaign = CampaignConfig(
            functions=(1,), dimensions=(2,), criteria=("random",), instances=(1,),
            total_budget=12, output_dir=str(tmp_path),
        )

        def list_suite_to(path):
            # the CLI reports an OSError by its exit code; raise it again with the message
            if cli_main(["list", "--output", str(path)]) == EXIT_IO:
                raise OSError(capsys.readouterr().err)

        write, path = {
            "run_log": (lambda: write_run_log(run(random_run), tmp_path),
                        tmp_path / run_log_filename(random_run)),
            "domination_csv": (lambda: write_domination_csv([], tmp_path / "d.csv"), tmp_path / "d.csv"),
            "curves_csv": (lambda: write_curves_csv({}, tmp_path / "c.csv"), tmp_path / "c.csv"),
            # the rerun skips the complete log, so only the manifest is written
            "manifest": (lambda: run_campaign(campaign), tmp_path / "manifest.json"),
            "suite_manifest": (lambda: list_suite_to(tmp_path / "s.json"), tmp_path / "s.json"),
        }[writer]
        write()
        before = sorted(tmp_path.iterdir())
        old = path.read_bytes()
        path.write_bytes(old + b"\n")  # trailing whitespace: the manifest stays valid JSON
        replaced = []

        def failing_replace(src, dst):
            replaced.append(Path(dst))
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write()
        assert replaced == [path]
        assert path.read_bytes() == old + b"\n"
        assert sorted(tmp_path.iterdir()) == before
