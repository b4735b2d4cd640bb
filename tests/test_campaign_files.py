"""The committed campaign files: each loads and plans, and each acceptance
campaign reproduces its committed cache without running a run."""

import shutil
from pathlib import Path

import pytest

import infillbench.campaign as campaign_module
from infillbench.campaign import load_campaign_config
from infillbench.cli import main
from infillbench.smbo import MANIFEST_NAME

CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"


@pytest.mark.parametrize("path", sorted(CAMPAIGNS.glob("*.json")), ids=lambda path: path.name)
def test_campaign_file_loads_and_plans_its_grid(path):
    config = load_campaign_config(path)
    cells = (len(config.functions) * len(config.dimensions)
             * len(config.instances) * len(config.criteria))
    assert len(config.run_configs()) == cells


@pytest.mark.parametrize("study, runs", [("rastrigin_2d", 30), ("high_dim_10d", 40), ("sphere_5d", 30)])
def test_acceptance_campaign_reproduces_its_cache_without_running(
    study, runs, tmp_path, monkeypatch, capsys
):
    def refuse(config):
        raise AssertionError(f"the committed cache should hold {config}")

    monkeypatch.setattr(campaign_module, "run", refuse)
    campaign_file = CAMPAIGNS / f"acceptance_{study}.json"
    cache = CAMPAIGNS.parent / load_campaign_config(campaign_file).output_dir
    copy = tmp_path / study
    shutil.copytree(cache, copy)
    assert main(["run", str(campaign_file), "--output-dir", str(copy)]) == 0
    assert f"executed 0 run(s), skipped {runs} existing" in capsys.readouterr().out
    assert (copy / MANIFEST_NAME).read_bytes() == (cache / MANIFEST_NAME).read_bytes()
