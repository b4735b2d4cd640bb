from itertools import combinations

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from infillbench.analysis import (
    DominationCell,
    EmptySample,
    InsufficientRuns,
    checkpoint_grid,
    domination_matrix,
    format_domination_summary,
    quartile_curves,
    recommend_criterion,
    wilcoxon_rank_sum,
)
from infillbench.infill import InfillCriterion
from infillbench.smbo import IterationRecord, RunConfig, RunLog


def permutation_p_value(a, b):
    """Two-sided p by exhausting every assignment of the pooled values."""
    pooled = list(a) + list(b)
    m = len(a)

    def u_stat(a_vals, b_vals):
        return sum(
            1.0 if x > y else 0.5 if x == y else 0.0 for x in a_vals for y in b_vals
        )

    obs = u_stat(a, b)
    center = 0.5 * m * len(b)
    total = 0
    extreme = 0
    for a_idx in combinations(range(len(pooled)), m):
        b_idx = [i for i in range(len(pooled)) if i not in a_idx]
        u = u_stat([pooled[i] for i in a_idx], [pooled[i] for i in b_idx])
        total += 1
        extreme += abs(u - center) >= abs(obs - center) - 1e-12
    return extreme / total


def synthetic_log(function_id, dimension, criterion, gaps, seed, nn=1.0, design_size=10):
    """RunLog of budget 30 whose best-gap curve is a constant per-run value."""
    records = tuple(
        IterationRecord(
            iteration=k,
            x=np.zeros(dimension),
            y=float(gaps),
            gap=float(gaps),
            best_gap=float(gaps),
            nn_distance=None if k == 1 else nn,
            model_nll=None,
            wall_time_ms=0.0,
        )
        for k in range(1, 31)
    )
    config = RunConfig(function_id, dimension, 1, criterion, total_budget=30,
                       initial_design_size=design_size, seed=seed)
    return RunLog(config=config, records=records)


class TestWilcoxon:
    def test_identical_samples(self):
        assert wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).p_value == 1.0

    def test_complete_separation_exact(self):
        # all C(6,3)=20 rank splits; the two fully separated ones are extreme
        result = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        np.testing.assert_allclose(result.p_value, 0.1, atol=1e-12)
        assert result.statistic == 0.0

    def test_tied_samples_near_permutation_oracle(self):
        # permutation oracle gives 0.4 here; the tie-corrected normal
        # approximation (same value R and scipy report) lands at 0.3458
        a, b = [1.0, 1.0, 2.0], [1.0, 3.0, 3.0]
        oracle = permutation_p_value(a, b)
        np.testing.assert_allclose(oracle, 0.4, atol=1e-12)
        approx = wilcoxon_rank_sum(a, b).p_value
        assert abs(approx - oracle) <= 0.06

    def test_tied_samples_match_scipy_asymptotic(self):
        assert wilcoxon_rank_sum([1.0, 1.0, 2.0], [1.0, 3.0, 3.0]).p_value == pytest.approx(
            0.3457785861511603, abs=1e-12
        )
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.integers(0, 6, rng.integers(2, 30)).astype(float)
            b = rng.integers(0, 6, rng.integers(2, 30)).astype(float)
            for alternative in ("two-sided", "less", "greater"):
                got = wilcoxon_rank_sum(a, b, alternative=alternative)
                expected = mannwhitneyu(a, b, alternative=alternative, method="asymptotic")
                assert got.statistic == expected.statistic
                assert abs(got.p_value - expected.pvalue) <= 1e-12

    def test_greater_mirrors_less(self):
        # One pair of tails: "greater" for (a, b) is "less" for (b, a), to the
        # bit, on the normal path (tied samples) and the exact one (tie-free).
        rng = np.random.default_rng(8)
        for _ in range(300):
            tied = [rng.integers(0, 6, rng.integers(1, 20)).astype(float) for _ in range(2)]
            distinct = rng.permutation(100)[: rng.integers(2, 17)].astype(float)
            split = int(rng.integers(1, distinct.size))
            for a, b in (tied, (distinct[:split], distinct[split:])):
                assert (wilcoxon_rank_sum(a, b, "greater").p_value
                        == wilcoxon_rank_sum(b, a, "less").p_value)

    @pytest.mark.parametrize(
        "a, b, two_sided, less",
        [
            ([1.0, 1.0, 2.0], [1.0, 3.0, 3.0], "0x1.6213c81cb495ap-2", "0x1.6213c81cb495ap-3"),
            ([0.0, 1.0, 1.0, 2.0, 5.0], [1.0, 2.0, 2.0, 3.0, 4.0, 4.0],
             "0x1.3885d4f0e85bap-2", "0x1.3885d4f0e85bap-3"),
            ([3.0, 3.0, 1.0, 0.0], [3.0, 7.0, 7.0, 8.0, 2.0], "0x1.a96b257ca0089p-4", "0x1.a96b257ca0089p-5"),
            # 18 distinct values: past the exact-enumeration limit
            ([float(v) for v in range(9)], [v + 4.5 for v in range(9)],
             "0x1.087c8b42c3d5bp-7", "0x1.087c8b42c3d5bp-8"),
        ],
    )
    def test_normal_path_p_values_pinned(self, a, b, two_sided, less):
        assert wilcoxon_rank_sum(a, b).p_value.hex() == two_sided
        assert wilcoxon_rank_sum(a, b, "less").p_value.hex() == less

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = rng.normal(size=rng.integers(2, 10))
            b = rng.normal(size=rng.integers(2, 10))
            p_ab = wilcoxon_rank_sum(a, b).p_value
            p_ba = wilcoxon_rank_sum(b, a).p_value
            assert abs(p_ab - p_ba) <= 1e-12

    def test_exact_matches_enumeration_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            size = int(rng.integers(1, 9))
            values = rng.choice(200, size=2 * size, replace=False).astype(float)
            a, b = values[:size], values[size:]
            expected = permutation_p_value(a, b)
            got = wilcoxon_rank_sum(a, b).p_value
            assert abs(got - expected) <= 1e-10

    def test_one_sided_alternatives(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        less = wilcoxon_rank_sum(a, b, alternative="less").p_value
        greater = wilcoxon_rank_sum(a, b, alternative="greater").p_value
        np.testing.assert_allclose(less, 0.05, atol=1e-12)
        assert greater == 1.0

    def test_large_sample_approximation_close_to_enumeration(self):
        # 9v9 exceeds the enumeration limit, so the approximation path runs;
        # measured worst deviation from full enumeration is under 0.01
        rng = np.random.default_rng(4)
        for _ in range(30):
            values = rng.choice(1000, size=18, replace=False).astype(float)
            a, b = values[:9], values[9:]
            approx = wilcoxon_rank_sum(a, b).p_value
            assert abs(approx - permutation_p_value(a, b)) <= 0.02

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            wilcoxon_rank_sum([], [1.0])

    def test_unknown_alternative(self):
        with pytest.raises(ValueError, match="alternative"):
            wilcoxon_rank_sum([1.0], [2.0], "smaller")


class TestCheckpointGrid:
    def test_default_budget_ladder(self):
        assert checkpoint_grid(300) == (10, 13, 18, 24, 32, 43, 57, 76, 101, 135, 180, 240, 300)

    def test_truncates_to_budget(self):
        assert checkpoint_grid(150) == (10, 13, 18, 24, 32, 43, 57, 76, 101, 135, 150)
        assert checkpoint_grid(30) == (10, 13, 18, 24, 30)

    def test_tiny_budget(self):
        assert checkpoint_grid(10) == (10,)
        assert checkpoint_grid(5) == (5,)

    def test_extends_beyond_ladder(self):
        grid = checkpoint_grid(600)
        assert grid[-1] == 600
        assert 400 in grid

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be positive"):
            checkpoint_grid(budget)


class TestDominationMatrix:
    def test_identical_runs_yield_no_winner(self):
        logs = [synthetic_log(1, 2, InfillCriterion.EXPECTED_IMPROVEMENT, 5.0, s) for s in range(4)]
        logs += [synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, 5.0, s) for s in range(4)]
        cells = domination_matrix(logs)
        # checkpoint_grid(30) is (10, 13, 18, 24, 30); 10 is the design size
        assert [c.checkpoint for c in cells] == [13, 18, 24, 30]
        assert all(c.winner == "none" for c in cells)

    def test_tests_only_checkpoints_past_each_groups_design(self):
        logs = []
        for function_id, design_size in ((1, 10), (3, 20)):
            for criterion in (InfillCriterion.EXPECTED_IMPROVEMENT, InfillCriterion.PREDICTED_VALUE):
                logs += [
                    synthetic_log(function_id, 2, criterion, 1.0, s, design_size=design_size)
                    for s in range(3)
                ]
        checkpoints = {}
        for cell in domination_matrix(logs):
            checkpoints.setdefault(cell.function_id, []).append(cell.checkpoint)
        assert checkpoints == {1: [13, 18, 24, 30], 3: [24, 30]}

    def test_group_with_mixed_design_sizes_rejected(self):
        logs = [synthetic_log(1, 2, InfillCriterion.EXPECTED_IMPROVEMENT, 1.0, s) for s in range(3)]
        logs += [
            synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, 2.0, s, design_size=12)
            for s in range(3)
        ]
        with pytest.raises(InsufficientRuns, match="initial design size"):
            domination_matrix(logs)

    def test_uniformly_better_ei_wins_everywhere(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(1.0, 2.0, 15)
        logs = [
            synthetic_log(3, 2, InfillCriterion.EXPECTED_IMPROVEMENT, g / 10.0, s)
            for s, g in enumerate(base)
        ]
        logs += [
            synthetic_log(3, 2, InfillCriterion.PREDICTED_VALUE, g, 100 + s)
            for s, g in enumerate(base)
        ]
        cells = domination_matrix(logs)
        assert all(c.winner == "ei" for c in cells)
        # rank test: winners are invariant under a monotone transform of gaps
        log_logs = [
            synthetic_log(3, 2, InfillCriterion.EXPECTED_IMPROVEMENT, np.log(g / 10.0), s)
            for s, g in enumerate(base)
        ]
        log_logs += [
            synthetic_log(3, 2, InfillCriterion.PREDICTED_VALUE, np.log(g), 100 + s)
            for s, g in enumerate(base)
        ]
        log_cells = domination_matrix(log_logs)
        assert [c.winner for c in log_cells] == [c.winner for c in cells]
        np.testing.assert_allclose(
            [c.p_value for c in log_cells], [c.p_value for c in cells], atol=1e-12
        )

    def test_uniformly_better_pm_wins_everywhere(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(1.0, 2.0, 15)
        logs = [
            synthetic_log(3, 2, InfillCriterion.EXPECTED_IMPROVEMENT, g, s)
            for s, g in enumerate(base)
        ]
        logs += [
            synthetic_log(3, 2, InfillCriterion.PREDICTED_VALUE, g / 10.0, 100 + s)
            for s, g in enumerate(base)
        ]
        cells = domination_matrix(logs)
        assert cells and all(c.winner == "pm" for c in cells)

    def test_requires_two_runs_per_criterion(self):
        logs = [synthetic_log(1, 2, InfillCriterion.EXPECTED_IMPROVEMENT, 1.0, 0)]
        logs += [synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, 2.0, s) for s in range(3)]
        with pytest.raises(InsufficientRuns):
            domination_matrix(logs)

    def test_summary_mentions_each_dimension(self):
        logs = [synthetic_log(1, 2, InfillCriterion.EXPECTED_IMPROVEMENT, 1.0, s) for s in range(3)]
        logs += [synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, 1.0, s) for s in range(3)]
        summary = format_domination_summary(domination_matrix(logs))
        assert "d=2" in summary

    def test_summary_lists_ids_only_for_a_side_that_wins(self):
        cells = [DominationCell(13, 10, 150, "pm", 0.01), DominationCell(3, 10, 150, "none", 0.5),
                 DominationCell(13, 10, 100, "ei", 0.01)]
        assert format_domination_summary(cells) == (
            "d=10 at 150 evaluations: ei better on 0 function(s), "
            "pm better on 1 function(s) [13], no significant difference on 1"
        )


class TestQuartileCurves:
    def test_hand_computed_quartiles(self):
        logs = [
            synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, g, s)
            for s, g in enumerate((1.0, 2.0, 3.0))
        ]
        curves = quartile_curves(logs)
        curve = curves[(1, 2, InfillCriterion.PREDICTED_VALUE)]
        # linear interpolation of order statistics: quartiles of {1,2,3}
        assert np.all(curve.median == 2.0)
        assert np.all(curve.lower_quartile == 1.5)
        assert np.all(curve.upper_quartile == 2.5)
        assert curve.checkpoints == checkpoint_grid(30)

    def test_identical_runs_collapse(self):
        logs = [synthetic_log(1, 2, InfillCriterion.RANDOM_SEARCH, 4.0, s) for s in range(3)]
        curve = quartile_curves(logs)[(1, 2, InfillCriterion.RANDOM_SEARCH)]
        assert np.all(curve.median == curve.lower_quartile)
        assert np.all(curve.median == curve.upper_quartile)

    def test_quartile_ordering_invariant(self):
        rng = np.random.default_rng(5)
        logs = [
            synthetic_log(3, 2, InfillCriterion.EXPECTED_IMPROVEMENT, rng.uniform(0, 5), s)
            for s in range(9)
        ]
        for curve in quartile_curves(logs).values():
            assert np.all(curve.lower_quartile <= curve.median)
            assert np.all(curve.median <= curve.upper_quartile)

    def test_nn_distance_field(self):
        logs = [
            synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, 1.0, s, nn=0.5 + s)
            for s in range(3)
        ]
        curve = quartile_curves(logs, field="nn_distance")[(1, 2, InfillCriterion.PREDICTED_VALUE)]
        assert np.all(curve.median == 1.5)

    def test_single_run_rejected(self):
        with pytest.raises(InsufficientRuns):
            quartile_curves([synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, 1.0, 0)])

    def test_unknown_field_rejected(self):
        logs = [synthetic_log(1, 2, InfillCriterion.PREDICTED_VALUE, 1.0, s) for s in range(3)]
        with pytest.raises(ValueError, match="unknown field"):
            quartile_curves(logs, field="gap")


class TestRecommendation:
    def test_low_dimension_generous_budget_multimodal(self):
        assert recommend_criterion(2, 300, "multimodal").criterion is InfillCriterion.EXPECTED_IMPROVEMENT

    def test_high_dimension(self):
        assert recommend_criterion(10, 300, "unknown").criterion is InfillCriterion.PREDICTED_VALUE

    def test_small_budget(self):
        assert recommend_criterion(2, 50, "unknown").criterion is InfillCriterion.PREDICTED_VALUE

    def test_unimodal_always_greedy(self):
        assert recommend_criterion(2, 300, "unimodal").criterion is InfillCriterion.PREDICTED_VALUE

    def test_dimension_four_interpolates_by_modality(self):
        assert recommend_criterion(4, 300, "multimodal").criterion is InfillCriterion.EXPECTED_IMPROVEMENT
        assert recommend_criterion(4, 300, "unknown").criterion is InfillCriterion.PREDICTED_VALUE

    def test_rationale_is_informative(self):
        rec = recommend_criterion(2, 300, "unknown")
        assert rec.rationale and "dimension" in rec.rationale

    def test_validation(self):
        with pytest.raises(ValueError):
            recommend_criterion(0, 300)
        with pytest.raises(ValueError):
            recommend_criterion(2, 300, "bumpy")
