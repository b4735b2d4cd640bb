import json
from concurrent.futures import Future

import pytest

import infillbench.campaign as campaign_module
from infillbench.campaign import (
    CampaignConfig,
    ConfigParseError,
    derive_run_seed,
    load_campaign_config,
    run_campaign,
)
from infillbench.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from infillbench.infill import InfillCriterion
from infillbench.smbo import read_run_log, run_log_filename
from infillbench.testbed import UnknownFunction


def small_campaign(tmp_path, **overrides):
    mapping = {
        "functions": [3],
        "dimensions": [2],
        "instances": [1, 2],
        "criteria": ["ei", "pm"],
        "repeats": 1,
        "total_budget": 14,
        "initial_design_size": 10,
        "base_seed": 7,
        "workers": 1,
        "output_dir": str(tmp_path / "runs"),
        "mle_evals_per_param": 40,
    }
    mapping.update(overrides)
    return mapping


def write_config(tmp_path, mapping):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(mapping))
    return path


class TestCampaignConfig:
    def test_unknown_function_rejected_before_any_io(self, tmp_path):
        with pytest.raises(UnknownFunction):
            CampaignConfig(functions=(4,), dimensions=(2,), criteria=("ei",))
        assert not (tmp_path / "runs").exists()

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigParseError, match="bogus"):
            load_campaign_config(write_config(tmp_path, small_campaign(tmp_path, bogus=1)))

    def test_seed_derivation_is_stable_and_distinct(self):
        seed = derive_run_seed(7, 3, 2, 1, InfillCriterion.EXPECTED_IMPROVEMENT, 0)
        again = derive_run_seed(7, 3, 2, 1, InfillCriterion.EXPECTED_IMPROVEMENT, 0)
        other = derive_run_seed(7, 3, 2, 1, InfillCriterion.PREDICTED_VALUE, 0)
        assert seed == again
        assert seed != other


class TestRunCommand:
    def test_campaign_cardinality_and_manifest(self, tmp_path):
        config = write_config(tmp_path, small_campaign(tmp_path))
        assert main(["run", str(config)]) == EXIT_OK
        run_dir = tmp_path / "runs"
        csvs = sorted(p.name for p in run_dir.glob("f*.csv"))
        assert len(csvs) == 4  # 1 function x 1 dim x 2 instances x 2 criteria
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(entry["file"] for entry in manifest["runs"]) == csvs
        assert all((run_dir / entry["file"]).is_file() for entry in manifest["runs"])
        # every RunConfig field, the criterion under its manifest name
        assert all(set(entry) == {
            "file", "function_id", "dimension", "instance_id", "criterion", "total_budget",
            "initial_design_size", "seed", "mle_evals_per_param", "degenerate_fallback",
        } for entry in manifest["runs"])

    def test_rerun_is_idempotent(self, tmp_path, capsys):
        config = write_config(tmp_path, small_campaign(tmp_path))
        main(["run", str(config)])
        capsys.readouterr()
        assert main(["run", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "executed 0 run(s), skipped 4" in out

    def test_changed_run_settings_reexecute_and_manifest_is_truthful(self, tmp_path, capsys):
        first = small_campaign(tmp_path, mle_evals_per_param=20, initial_design_size=10)
        main(["run", str(write_config(tmp_path, first))])
        capsys.readouterr()
        second = small_campaign(tmp_path, mle_evals_per_param=50, initial_design_size=5)
        assert main(["run", str(write_config(tmp_path, second))]) == EXIT_OK
        assert "executed 4 run(s), skipped 0" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
        for entry in manifest["runs"]:
            assert (entry["mle_evals_per_param"], entry["initial_design_size"]) == (50, 5)
        assert manifest["campaign"]["mle_evals_per_param"] == 50
        assert manifest["campaign"]["initial_design_size"] == 5

    def test_interrupted_campaign_resumes_after_its_finished_runs(self, tmp_path, capsys, monkeypatch):
        original, calls = campaign_module.run, []

        def run_until_interrupted(config):
            calls.append(config)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return original(config)

        monkeypatch.setattr(campaign_module, "run", run_until_interrupted)
        config = write_config(tmp_path, small_campaign(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(config)])
        manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
        finished = [run_log_filename(c) for c in calls[:2]]
        assert [entry["file"] for entry in manifest["runs"]] == finished
        monkeypatch.setattr(campaign_module, "run", original)
        capsys.readouterr()
        assert main(["run", str(config)]) == EXIT_OK
        assert "executed 2 run(s), skipped 2" in capsys.readouterr().out

    def test_manifest_entry_without_a_setting_vouches_for_no_log(self, tmp_path, capsys):
        config = write_config(tmp_path, small_campaign(tmp_path))
        main(["run", str(config)])
        path = tmp_path / "runs" / "manifest.json"
        written = path.read_bytes()
        manifest = json.loads(written)
        del manifest["runs"][0]["mle_evals_per_param"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["run", str(config)]) == EXIT_OK
        assert "executed 4 run(s), skipped 0" in capsys.readouterr().out
        assert path.read_bytes() == written

    def test_listed_log_that_does_not_read_back_is_rerun(self, tmp_path, capsys):
        config = write_config(tmp_path, small_campaign(tmp_path))
        main(["run", str(config)])
        victim = sorted((tmp_path / "runs").glob("*.csv"))[0]
        text = victim.read_text()
        # the last row ends mid-write; the row count is intact
        victim.write_text(text[: text.rindex(",")] + "\n")
        assert main(["analyze", str(tmp_path / "runs")]) == EXIT_DATA
        capsys.readouterr()
        assert main(["run", str(config)]) == EXIT_OK
        assert "executed 1 run(s), skipped 3" in capsys.readouterr().out
        assert victim.read_text().count("\n") == text.count("\n")
        assert main(["analyze", str(tmp_path / "runs")]) == EXIT_OK

    def test_force_reruns(self, tmp_path, capsys):
        config = write_config(tmp_path, small_campaign(tmp_path))
        main(["run", str(config)])
        capsys.readouterr()
        main(["run", str(config), "--force"])
        assert "executed 4 run(s)" in capsys.readouterr().out

    def test_unknown_function_exit_code(self, tmp_path):
        config = write_config(tmp_path, small_campaign(tmp_path, functions=[4]))
        assert main(["run", str(config)]) == EXIT_DATA
        assert not (tmp_path / "runs").exists()

    def test_malformed_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_zero_workers_override_is_config_error(self, tmp_path):
        config = write_config(tmp_path, small_campaign(tmp_path))
        assert main(["run", str(config), "--workers", "0"]) == EXIT_CONFIG
        assert not (tmp_path / "runs").exists()

    def test_budget_below_design_is_config_error_before_any_io(self, tmp_path):
        config = write_config(tmp_path, small_campaign(tmp_path))
        out_dir = tmp_path / "X"
        argv = ["run", str(config), "--total-budget", "5", "--output-dir", str(out_dir)]
        assert main(argv) == EXIT_CONFIG
        assert not out_dir.exists()

    def test_fit_budget_below_de_population_completes(self, tmp_path):
        # 2 * (2d + 1) = 10 likelihood evaluations per fit, below DE's population of 50
        mapping = small_campaign(tmp_path, total_budget=12, mle_evals_per_param=2)
        assert main(["run", str(write_config(tmp_path, mapping))]) == EXIT_OK
        runs = json.loads((tmp_path / "runs" / "manifest.json").read_text())["runs"]
        assert len(runs) == 4
        for entry in runs:
            log = read_run_log(tmp_path / "runs" / entry["file"])
            assert len(log.records) == 12

    def test_overrides_reach_runs_and_manifest(self, tmp_path):
        config = write_config(tmp_path, small_campaign(tmp_path, criteria=["pm", "random"]))
        out_dir = tmp_path / "overridden"
        argv = ["run", str(config), "--base-seed", "11", "--total-budget", "12",
                "--repeats", "2", "--output-dir", str(out_dir)]
        assert main(argv) == EXIT_OK
        assert not (tmp_path / "runs").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        runs = manifest["runs"]
        # 2 instances x 2 criteria, doubled by --repeats 2
        assert len(runs) == 2 * 4
        expected_seeds = sorted(
            derive_run_seed(11, 3, 2, instance, criterion, repeat)
            for instance in (1, 2)
            for criterion in (InfillCriterion.PREDICTED_VALUE, InfillCriterion.RANDOM_SEARCH)
            for repeat in (0, 1)
        )
        assert sorted(entry["seed"] for entry in runs) == expected_seeds
        assert all(entry["total_budget"] == 12 for entry in runs)
        assert manifest["campaign"] == {
            "functions": [3],
            "dimensions": [2],
            "criteria": ["pm", "random"],
            "instances": [1, 2],
            "repeats": 2,
            "total_budget": 12,
            "initial_design_size": 10,
            "base_seed": 11,
            "mle_evals_per_param": 40,
        }

    def test_worker_pool_matches_serial_execution(self, tmp_path):
        pool_dir, serial_dir = tmp_path / "pool", tmp_path / "serial"
        for workers, out_dir in ((2, pool_dir), (1, serial_dir)):
            mapping = small_campaign(tmp_path, criteria=["random"], workers=workers,
                                     total_budget=12, output_dir=str(out_dir))
            assert main(["run", str(write_config(tmp_path, mapping))]) == EXIT_OK
        names = sorted(p.name for p in pool_dir.glob("f*.csv"))
        assert len(names) == 2
        assert names == sorted(p.name for p in serial_dir.glob("f*.csv"))

        def without_timing(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        for name in names:
            assert without_timing(pool_dir / name) == without_timing(serial_dir / name)
        assert (pool_dir / "manifest.json").read_bytes() == (serial_dir / "manifest.json").read_bytes()

    def test_pool_records_each_run_as_it_finishes_in_plan_order(self, tmp_path, monkeypatch):
        submitted, listed_after_each_run = [], []

        class DeferredPool:
            """Stands in for a process pool: work runs in this process when its future finishes."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                submitted.append((future, fn, args))
                return future

        def in_reverse_plan_order(futures):
            assert set(futures) == {future for future, _, _ in submitted}
            for future, fn, args in reversed(submitted):
                future.set_result(fn(*args))
                yield future
                manifest = json.loads((tmp_path / "pool" / "manifest.json").read_text())
                listed_after_each_run.append([entry["file"] for entry in manifest["runs"]])

        monkeypatch.setattr(campaign_module, "ProcessPoolExecutor", DeferredPool)
        monkeypatch.setattr(campaign_module, "as_completed", in_reverse_plan_order)
        manifests = []
        for workers, out_dir in ((2, "pool"), (1, "serial")):
            mapping = small_campaign(tmp_path, dimensions=[2, 3], instances=[1],
                                     criteria=["random", "ei"], total_budget=12,
                                     mle_evals_per_param=10, workers=workers,
                                     output_dir=str(tmp_path / out_dir))
            result = run_campaign(CampaignConfig(**mapping))
            manifests.append(result.manifest_path.read_bytes())
        plan = [run_log_filename(c) for c in CampaignConfig(**mapping).run_configs()]
        # runs finish last-planned first; after each, the manifest lists the finished runs in plan order
        assert listed_after_each_run == [plan[3:], plan[2:], plan[1:], plan]
        assert manifests[0] == manifests[1]


def copy_campaign(source, target):
    """Copy a campaign's run logs and manifest, and nothing else, into target."""
    for path in [*source.glob("f*.csv"), source / "manifest.json"]:
        (target / path.name).write_bytes(path.read_bytes())


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("campaign")
    config = write_config(tmp_path, small_campaign(tmp_path))
    main(["run", str(config)])
    return tmp_path / "runs"


class TestAnalyzeCommand:

    def test_emits_expected_rows(self, campaign_dir, capsys):
        assert main(["analyze", str(campaign_dir)]) == EXIT_OK
        capsys.readouterr()
        domination = (campaign_dir / "domination.csv").read_text().splitlines()
        # header plus one row per checkpoint of the budget-14 grid (10, 13, 14)
        assert domination[0] == "function_id,dimension,checkpoint,winner,p_value"
        assert len(domination) == 1 + 3
        curves = (campaign_dir / "curves.csv").read_text().splitlines()
        assert curves[0] == "group,checkpoint,median,q1,q3"
        # two criteria x two fields x three checkpoints
        assert len(curves) == 1 + 12

    def test_byte_identical_outputs_across_invocations(self, campaign_dir):
        main(["analyze", str(campaign_dir)])
        first = (campaign_dir / "domination.csv").read_bytes()
        first_curves = (campaign_dir / "curves.csv").read_bytes()
        main(["analyze", str(campaign_dir)])
        assert (campaign_dir / "domination.csv").read_bytes() == first
        assert (campaign_dir / "curves.csv").read_bytes() == first_curves

    def test_prints_summary(self, campaign_dir, capsys):
        main(["analyze", str(campaign_dir)])
        out = capsys.readouterr().out
        assert "d=2" in out

    def test_stray_csv_names_are_skipped(self, campaign_dir, tmp_path):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        copy_campaign(campaign_dir, mixed)
        for stray in ("f1_d5__ei_s1.csv", "d2_f3_i1_ei_s5.csv"):
            (mixed / stray).write_text("not a run log\n")
        assert main(["analyze", str(mixed)]) == EXIT_OK
        main(["analyze", str(campaign_dir)])
        assert (mixed / "domination.csv").read_bytes() == (campaign_dir / "domination.csv").read_bytes()

    def test_truncated_log_is_data_error(self, campaign_dir, tmp_path, capsys):
        cut = tmp_path / "cut"
        cut.mkdir()
        copy_campaign(campaign_dir, cut)
        victim = sorted(cut.glob("*.csv"))[0]
        text = victim.read_text()
        victim.write_text(text[: text.rindex(",")])  # the last row ends mid-field
        capsys.readouterr()
        assert main(["analyze", str(cut)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_truncated_manifest_is_data_error(self, campaign_dir, tmp_path, capsys):
        cut = tmp_path / "cut"
        cut.mkdir()
        for path in campaign_dir.glob("f*.csv"):
            (cut / path.name).write_bytes(path.read_bytes())
        manifest = (campaign_dir / "manifest.json").read_text()
        (cut / "manifest.json").write_text(manifest[: len(manifest) // 2])
        capsys.readouterr()
        assert main(["analyze", str(cut)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_logs_without_a_manifest_are_data_error(self, campaign_dir, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        copy_campaign(campaign_dir, bare)
        (bare / "manifest.json").unlink()
        capsys.readouterr()
        assert main(["analyze", str(bare)]) == EXIT_DATA
        assert "no manifest.json" in capsys.readouterr().err

    def test_listed_log_deleted_is_data_error(self, campaign_dir, tmp_path, capsys):
        gone = tmp_path / "gone"
        gone.mkdir()
        copy_campaign(campaign_dir, gone)
        sorted(gone.glob("*.csv"))[-1].unlink()
        capsys.readouterr()
        assert main(["analyze", str(gone)]) == EXIT_DATA
        assert "missing" in capsys.readouterr().err

    def test_empty_directory_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["analyze", str(empty)]) == EXIT_DATA


class TestListCommand:
    def test_prints_all_functions(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for token in ("Sphere", "Rastrigin", "Sharp Ridge", "Schwefel"):
            assert token in out

    def test_writes_manifest_file(self, tmp_path, capsys):
        target = tmp_path / "suite.json"
        assert main(["list", "--output", str(target)]) == EXIT_OK
        manifest = json.loads(target.read_text())
        assert {entry["function_id"] for entry in manifest} == {1, 2, 3, 5, 8, 9, 11, 12, 13, 14, 17, 20}


class TestRecommendCommand:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["recommend", "-d", "10", "-b", "300"], "PM"),
            (["recommend", "-d", "2", "-b", "300", "--modality", "multimodal"], "EI"),
            (["recommend", "-d", "2", "-b", "50"], "PM"),
        ],
    )
    def test_paper_scenarios(self, argv, expected, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith(expected)

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["recommend", "-d", "2"]) == EXIT_CONFIG
