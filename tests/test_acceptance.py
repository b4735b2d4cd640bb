"""Acceptance suite: one test per criterion, each printing its own verdict line.

Criteria 1-5 are fast deterministic property checks. Criteria 6-9 replay the
benchmark study at desk scale (budget 150, 10-15 runs per criterion) and take
on the order of an hour single-core; criterion 11 checks the criterion advice
against the same campaigns. Their outputs land in
``.acceptance_cache/`` at the repository root; re-runs reuse completed logs,
so a second invocation of this module is cheap. Delete the cache directory to
force full recomputation.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import infillbench.smbo as smbo_module
from infillbench.analysis import domination_matrix, recommend_criterion, wilcoxon_rank_sum
from infillbench.campaign import CampaignConfig, run_campaign
from infillbench.design import BoxBounds, latin_hypercube
from infillbench.infill import InfillCriterion, improvement_from_moments
from infillbench.kriging import (
    Dataset,
    KrigingHyperparameters,
    Query,
    fit,
    model_at,
    predict_batch,
)
from infillbench.smbo import RunConfig, read_run_logs, run
from infillbench.testbed import list_suite

from conftest import dense_oracle

CACHE_DIR = Path(__file__).resolve().parent.parent / ".acceptance_cache"
BASE_SEED = 1


def report(criterion, passed, detail):
    print(f"\ncriterion {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")


def cached_campaign(name, **kwargs):
    config = CampaignConfig(
        base_seed=BASE_SEED,
        workers=os.cpu_count() or 1,
        output_dir=str(CACHE_DIR / name),
        **kwargs,
    )
    run_campaign(config)  # completed logs are reused
    return read_run_logs(CACHE_DIR / name)


def final_gaps(logs, criterion):
    return np.array(
        [log.records[-1].best_gap for log in logs if log.config.infill is criterion]
    )


def tail_nn_distances(logs, criterion, tail=50):
    values = []
    for log in logs:
        if log.config.infill is criterion:
            values.extend(r.nn_distance for r in log.records[-tail:])
    return np.array(values)


# ---------------------------------------------------------------------------
# Criterion 1: closed-form expected improvement against Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_1_expected_improvement_monte_carlo():
    rng = np.random.default_rng(0)
    n_samples = 10_000_000
    worst_ratio = 0.0
    for _ in range(100):
        mean = rng.uniform(-2.0, 2.0)
        spread = rng.uniform(0.1, 3.0)
        # keep the improvement probability above ~3e-5 so the Monte Carlo
        # standard error stays meaningful
        y_best = mean + rng.uniform(-3.5, 3.5) * spread
        closed = improvement_from_moments(mean, spread**2, y_best)
        draws = rng.standard_normal(n_samples)
        improvements = np.maximum(y_best - (mean + spread * draws), 0.0)
        estimate = float(improvements.mean())
        std_err = float(improvements.std()) / np.sqrt(n_samples)
        deviation = abs(closed - estimate)
        assert deviation <= 3.0 * std_err + 1e-12, (mean, spread, y_best)
        if std_err > 0:
            worst_ratio = max(worst_ratio, deviation / std_err)
    report(1, True, f"100 triples within 3 standard errors (worst {worst_ratio:.2f} SE)")


# ---------------------------------------------------------------------------
# Criterion 2: Cholesky likelihood/predictions against dense inversion
# ---------------------------------------------------------------------------


def test_criterion_2_kriging_dense_inverse_oracle():
    worst_nll = worst_pred = worst_interp = 0.0
    for case in range(50):
        # smooth but structured targets: enough variation at the sampled scale
        # that the likelihood-optimal model interpolates rather than smooths
        rng = np.random.default_rng((7, case))
        n = int(rng.integers(5, 21))
        d = int(rng.integers(1, 4))
        x = rng.uniform(-3.0, 3.0, (n, d))
        coeffs = rng.uniform(0.8, 1.8, d) * rng.choice([-1.0, 1.0], d)
        y = 2.0 * np.sin(x @ coeffs) + 0.3 * (x**2).sum(axis=1) + rng.uniform(-5.0, 5.0)
        data = Dataset(x, y).deduplicated()
        # keep the correlation matrix condition number around 1e6 or better:
        # both float64 routes drift past 1e-8 when conditioning nears 1e8
        params = KrigingHyperparameters(
            theta=10.0 ** rng.uniform(-1.0, 1.0, d),
            power=rng.uniform(1.0, 2.0, d),
            nugget=float(10.0 ** rng.uniform(-6.0, -4.0)),
        )

        _, nll_ref, predict_ref = dense_oracle(data, params)
        model = model_at(data, params)
        worst_nll = max(worst_nll, abs(model.neg_log_likelihood - nll_ref))
        assert worst_nll <= 1e-8

        queries = rng.uniform(-3.0, 3.0, (5, d))
        for q, mean, variance in zip(queries, *predict_batch(model, queries)):
            mean_ref, var_ref = predict_ref(q)
            worst_pred = max(worst_pred, abs(mean - mean_ref), abs(variance - var_ref))
            assert worst_pred <= 1e-8

        fitted = fit(data, seed=1000 + case)
        assert fitted.params.nugget <= 1e-4
        spread = float(np.ptp(data.y))
        for mean, y in zip(predict_batch(fitted, data.X)[0], data.y):
            err = abs(mean - y)
            worst_interp = max(worst_interp, err / spread)
            assert err <= 1e-3 * spread

    report(
        2,
        True,
        f"50 datasets: nll/pred within 1e-8 of dense inverse (worst {max(worst_nll, worst_pred):.2e}); "
        f"worst interpolation error {worst_interp:.2e} of range",
    )


# ---------------------------------------------------------------------------
# Criterion 3: exact Wilcoxon p-values against full enumeration
# ---------------------------------------------------------------------------


def enumerated_two_sided_p(a, b):
    pooled = np.concatenate([a, b])
    m = len(a)
    order = np.argsort(pooled)
    ranks = np.empty(len(pooled))
    ranks[order] = np.arange(1, len(pooled) + 1)
    u_obs = ranks[:m].sum() - m * (m + 1) / 2
    center = m * len(b) / 2
    total = extreme_low = extreme_high = 0
    all_ranks = np.arange(1, len(pooled) + 1)
    for chosen in combinations(range(len(pooled)), m):
        u = all_ranks[list(chosen)].sum() - m * (m + 1) / 2
        total += 1
        extreme_low += u <= u_obs
        extreme_high += u >= u_obs
    return min(1.0, 2.0 * min(extreme_low / total, extreme_high / total))


def test_criterion_3_wilcoxon_exact_enumeration():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(500):
        size = int(rng.integers(1, 9))
        values = rng.choice(10_000, size=2 * size, replace=False).astype(float)
        a, b = values[:size], values[size:]
        got = wilcoxon_rank_sum(a, b).p_value
        expected = enumerated_two_sided_p(a, b)
        worst = max(worst, abs(got - expected))
        assert worst <= 1e-10
    report(3, True, f"500 tie-free cases, worst |p - enumeration| = {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: Latin hypercube stratification sweep
# ---------------------------------------------------------------------------


def test_criterion_4_lhs_stratification_sweep():
    rng = np.random.default_rng(13)
    checked = 0
    for n in range(2, 51):
        for d in range(1, 11):
            bounds = BoxBounds.cube(d, -5.0, 5.0)
            pts = latin_hypercube(n, bounds, seed=int(rng.integers(1 << 30)))
            assert np.all(pts >= bounds.lower) and np.all(pts <= bounds.upper)
            unit = (pts - bounds.lower) / bounds.span
            strata = np.floor(unit * n).astype(int)
            for dim in range(d):
                assert sorted(strata[:, dim]) == list(range(n)), (n, d)
            checked += 1
    report(4, True, f"stratification held for all {checked} (n, d) designs")


# ---------------------------------------------------------------------------
# Criterion 5: exact budget accounting through a whole run
# ---------------------------------------------------------------------------


def test_criterion_5_budget_accounting(monkeypatch, search_rows):
    objective_calls = {"n": 0}
    real_evaluate = smbo_module.evaluate

    def counting_evaluate(func, x):
        objective_calls["n"] += 1
        return real_evaluate(func, x)

    fit_budgets = []
    real_fit = smbo_module.fit

    def tracking_fit(data, seed, evals_per_param):
        # Proposals search with de.minimize too; keep the searches this fit ran.
        searches_before = len(search_rows)
        model = real_fit(data, seed, evals_per_param=evals_per_param)
        fit_budgets.extend(search_rows[searches_before:])
        return model

    proposal_rows = []
    real_propose = smbo_module.propose
    row_counter = {"n": 0}

    def counting(query_method):
        # Proposals query the model only through Query.means and Query.moments.
        def counted(query, points):
            row_counter["n"] += np.atleast_2d(points).shape[0]
            return query_method(query, points)

        return counted

    def tracking_propose(model, criterion, bounds, y_best, seed):
        row_counter["n"] = 0
        result = real_propose(model, criterion, bounds, y_best, seed)
        if criterion.model_based:
            proposal_rows.append(row_counter["n"])
        return result

    monkeypatch.setattr(smbo_module, "evaluate", counting_evaluate)
    monkeypatch.setattr(smbo_module, "fit", tracking_fit)
    monkeypatch.setattr(smbo_module, "propose", tracking_propose)
    monkeypatch.setattr(Query, "means", counting(Query.means))
    monkeypatch.setattr(Query, "moments", counting(Query.moments))

    total_budget, d = 25, 2
    for criterion in (InfillCriterion.EXPECTED_IMPROVEMENT, InfillCriterion.PREDICTED_VALUE):
        objective_calls["n"] = 0
        fit_budgets.clear()
        proposal_rows.clear()
        config = RunConfig(3, d, 1, criterion, total_budget=total_budget,
                           initial_design_size=10, seed=2)
        log = run(config)
        assert objective_calls["n"] == total_budget
        assert len(log.records) == total_budget
        assert fit_budgets == [500 * (2 * d + 1)] * (total_budget - 10)
        assert proposal_rows == [1000 * d] * (total_budget - 10)

    report(
        5, True,
        f"each run spent exactly {total_budget} objective evaluations, "
        f"{500 * (2 * d + 1)} likelihood evaluations per fit, "
        f"{1000 * d} model evaluations per proposal",
    )


# ---------------------------------------------------------------------------
# Criteria 6-9: desk-scale reproduction of the study's headline trends
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rastrigin_2d_logs():
    return cached_campaign(
        "rastrigin_2d",
        functions=(3,),
        dimensions=(2,),
        instances=tuple(range(1, 16)),
        criteria=(InfillCriterion.EXPECTED_IMPROVEMENT, InfillCriterion.PREDICTED_VALUE),
        total_budget=150,
    )


@pytest.fixture(scope="module")
def high_dim_logs():
    # desk-scale fit budget: 100 likelihood evaluations per model parameter
    return cached_campaign(
        "high_dim_10d",
        functions=(3, 13),
        dimensions=(10,),
        instances=tuple(range(1, 11)),
        criteria=(InfillCriterion.EXPECTED_IMPROVEMENT, InfillCriterion.PREDICTED_VALUE),
        total_budget=150,
        mle_evals_per_param=100,
    )


@pytest.fixture(scope="module")
def sphere_5d_logs():
    return cached_campaign(
        "sphere_5d",
        functions=(1,),
        dimensions=(5,),
        instances=tuple(range(1, 11)),
        criteria=(
            InfillCriterion.EXPECTED_IMPROVEMENT,
            InfillCriterion.PREDICTED_VALUE,
            InfillCriterion.RANDOM_SEARCH,
        ),
        total_budget=100,
    )


def test_criterion_6_low_dimensional_ei_advantage(rastrigin_2d_logs):
    ei = final_gaps(rastrigin_2d_logs, InfillCriterion.EXPECTED_IMPROVEMENT)
    pm = final_gaps(rastrigin_2d_logs, InfillCriterion.PREDICTED_VALUE)
    assert len(ei) == 15 and len(pm) == 15
    p_value = wilcoxon_rank_sum(ei, pm, alternative="less").p_value
    detail = (
        f"2-d multimodal, budget 150: median final gap ei={np.median(ei):.3g} "
        f"pm={np.median(pm):.3g}, one-sided p={p_value:.4f}"
    )
    report(6, p_value < 0.05, detail)
    assert p_value < 0.05


def test_criterion_7_high_dimensional_pm_advantage(high_dim_logs):
    summaries = []
    pm_at_least_as_good = []
    pm_significantly_worse = []
    for function_id in (3, 13):
        logs = [log for log in high_dim_logs if log.config.function_id == function_id]
        ei = final_gaps(logs, InfillCriterion.EXPECTED_IMPROVEMENT)
        pm = final_gaps(logs, InfillCriterion.PREDICTED_VALUE)
        assert len(ei) == 10 and len(pm) == 10
        ei_median, pm_median = float(np.median(ei)), float(np.median(pm))
        p_value = wilcoxon_rank_sum(pm, ei).p_value
        pm_at_least_as_good.append(pm_median <= ei_median)
        pm_significantly_worse.append(p_value < 0.05 and pm_median > ei_median)
        summaries.append(
            f"f{function_id}: median pm={pm_median:.4g} ei={ei_median:.4g} (p={p_value:.3f})"
        )
    passed = any(pm_at_least_as_good) and not any(pm_significantly_worse)
    report(7, passed, "10-d, budget 150: " + "; ".join(summaries))
    assert any(pm_at_least_as_good)
    assert not any(pm_significantly_worse)


def test_criterion_8_exploration_distance_trend(rastrigin_2d_logs, high_dim_logs):
    pm_2d = np.median(tail_nn_distances(rastrigin_2d_logs, InfillCriterion.PREDICTED_VALUE))
    ei_2d = np.median(tail_nn_distances(rastrigin_2d_logs, InfillCriterion.EXPECTED_IMPROVEMENT))
    rastrigin_10d = [log for log in high_dim_logs if log.config.function_id == 3]
    pm_10d = np.median(tail_nn_distances(rastrigin_10d, InfillCriterion.PREDICTED_VALUE))
    ei_10d = np.median(tail_nn_distances(rastrigin_10d, InfillCriterion.EXPECTED_IMPROVEMENT))
    ratio_2d = pm_2d / ei_2d
    ratio_10d = pm_10d / ei_10d
    detail = (
        f"median step distance over last 50 iterations: 2-d pm={pm_2d:.3g} ei={ei_2d:.3g} "
        f"(ratio {ratio_2d:.3g}); 10-d pm={pm_10d:.3g} ei={ei_10d:.3g} (ratio {ratio_10d:.3g})"
    )
    passed = pm_2d < ei_2d and ratio_10d > ratio_2d
    report(8, passed, detail)
    assert pm_2d < ei_2d
    assert ratio_10d > ratio_2d


def test_criterion_9_random_search_baseline(sphere_5d_logs):
    ei = np.median(final_gaps(sphere_5d_logs, InfillCriterion.EXPECTED_IMPROVEMENT))
    pm = np.median(final_gaps(sphere_5d_logs, InfillCriterion.PREDICTED_VALUE))
    rs = np.median(final_gaps(sphere_5d_logs, InfillCriterion.RANDOM_SEARCH))
    detail = f"5-d sphere, budget 100: median final gap ei={ei:.3g} pm={pm:.3g} random={rs:.3g}"
    passed = ei * 10 <= rs and pm * 10 <= rs
    report(9, passed, detail)
    assert ei * 10 <= rs
    assert pm * 10 <= rs


# ---------------------------------------------------------------------------
# Criterion 11: the criterion advice against the cached campaigns' verdicts
# ---------------------------------------------------------------------------

# Share of significant domination cells whose winner the advice must name,
# fixed before the check was first run.
ADVICE_AGREEMENT_MIN = 0.8


def suite_modality_hint(function_id):
    """``unimodal`` or ``multimodal`` where the suite tags say so, else ``unknown``."""
    tags = {entry.function_id: entry.tags for entry in list_suite()}[function_id]
    for hint in ("unimodal", "multimodal"):
        if hint in tags:
            return hint
    return "unknown"


def test_criterion_11_advice_names_the_significant_winners(
    rastrigin_2d_logs, sphere_5d_logs, high_dim_logs
):
    cells = [
        cell
        for logs in (rastrigin_2d_logs, sphere_5d_logs, high_dim_logs)
        for cell in domination_matrix(logs)
        if cell.winner != "none"
    ]
    disagreements = []
    for cell in cells:
        advice = recommend_criterion(
            cell.dimension, cell.checkpoint, suite_modality_hint(cell.function_id)
        )
        if advice.criterion.value != cell.winner:
            disagreements.append(
                f"f{cell.function_id} d={cell.dimension} at {cell.checkpoint}: "
                f"{cell.winner} won, advice {advice.criterion.value} ({advice.rationale})"
            )
    agreed = len(cells) - len(disagreements)
    share = agreed / len(cells) if cells else 0.0
    detail = (
        f"advice names the winner in {agreed} of {len(cells)} significant cells "
        f"(at least {ADVICE_AGREEMENT_MIN:.0%} needed); disagreements: "
        + ("; ".join(disagreements) or "none")
    )
    report(11, share >= ADVICE_AGREEMENT_MIN, detail)
    assert share >= ADVICE_AGREEMENT_MIN
