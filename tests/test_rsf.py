import pickle

import numpy as np
import pytest

import helpers
from helpers import walk_tree
from carepath.errors import DataError
from carepath.survival import (
    SurvivalRecord,
    logrank_statistic,
    record_covariates,
    rsf_fit,
    rsf_predict,
    rsf_risk_scores,
    scenario_curves,
)
from test_survival import make_records

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def eval_step_slowly(times, values, grid):
    out = []
    for g in grid:
        reached = [v for t, v in zip(times, values) if t <= g]
        out.append(reached[-1] if reached else 0.0)
    return np.array(out)


def collect_leaves(node):
    if "feature" not in node:
        return [node]
    return collect_leaves(node["left"]) + collect_leaves(node["right"])


@pytest.fixture(scope="module")
def fitted(midsize_cohort):
    records = midsize_cohort[1]
    forest = rsf_fit(records, n_estimators=12, seed=3)
    return forest, records


class TestLogRank:
    def test_identical_outcomes_score_zero(self):
        T = np.array([5.0] * 10)
        E = np.ones(10, dtype=int)
        group = np.array([True] * 5 + [False] * 5)
        assert logrank_statistic(T, E, group) == 0.0

    def test_separated_groups_score_high(self):
        T = np.array([1.0, 2.0, 3.0, 4.0, 50.0, 60.0, 70.0, 80.0])
        E = np.ones(8, dtype=int)
        group = np.array([True] * 4 + [False] * 4)
        assert logrank_statistic(T, E, group) > 2.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            T = rng.integers(1, 12, size=n).astype(float)
            E = rng.integers(0, 2, size=n)
            group = rng.integers(0, 2, size=n).astype(bool)
            want = self._oracle(T, E, group)
            assert logrank_statistic(T, E, group) == pytest.approx(want, abs=1e-10)

    @staticmethod
    def _oracle(T, E, g):
        times = sorted({t for t, e in zip(T, E) if e == 1})
        num = var = 0.0
        for t in times:
            d = sum(1 for tt, ee in zip(T, E) if tt == t and ee == 1)
            at_risk = sum(1 for tt in T if tt >= t)
            d1 = sum(1 for tt, ee, gg in zip(T, E, g) if tt == t and ee == 1 and gg)
            at_risk1 = sum(1 for tt, gg in zip(T, g) if tt >= t and gg)
            frac = at_risk1 / at_risk
            num += d1 - d * frac
            if at_risk > 1:
                var += d * frac * (1 - frac) * (at_risk - d) / (at_risk - 1)
        return abs(num) / np.sqrt(var) if var > 0 else 0.0


class TestForestFit:
    def test_deterministic_per_seed(self, midsize_cohort):
        records = midsize_cohort[1][:120]
        a = rsf_fit(records, n_estimators=6, seed=9)
        b = rsf_fit(records, n_estimators=6, seed=9)
        assert pickle.dumps(a.trees) == pickle.dumps(b.trees)
        assert pickle.dumps(a.bootstrap_indices) == pickle.dumps(b.bootstrap_indices)

    def test_seeds_change_the_forest(self, midsize_cohort):
        records = midsize_cohort[1][:120]
        a = rsf_fit(records, n_estimators=6, seed=9)
        b = rsf_fit(records, n_estimators=6, seed=10)
        assert pickle.dumps(a.trees) != pickle.dumps(b.trees)

    def test_bootstrap_shapes(self, fitted):
        forest, records = fitted
        assert len(forest.bootstrap_indices) == forest.n_estimators
        for idx in forest.bootstrap_indices:
            assert idx.shape == (len(records),)
            assert idx.min() >= 0
            assert idx.max() < len(records)

    def test_default_mtry_is_sqrt_of_features(self, fitted):
        forest, _ = fitted
        assert forest.mtry == 3  # ceil(sqrt(5))

    def test_leaf_hazards_are_nondecreasing(self, fitted):
        forest, _ = fitted
        for tree in forest.trees:
            for leaf in collect_leaves(tree):
                times, chf = leaf["times"], leaf["chf"]
                assert np.all(np.diff(times) > 0)
                assert np.all(np.diff(chf) >= 0)
                if chf.size:
                    assert chf[0] > 0

    def test_small_node_stops_splitting(self):
        records = make_records([1.0, 2, 3, 4, 5, 6, 7, 8], [1] * 8)
        forest = rsf_fit(records, n_estimators=3, seed=0)
        assert all("feature" not in t for t in forest.trees)

    def test_validation(self, midsize_cohort):
        with pytest.raises(DataError):
            rsf_fit(midsize_cohort[1][:30], n_estimators=0)
        with pytest.raises(DataError):
            rsf_fit([], n_estimators=2)
        with pytest.raises(DataError):
            rsf_fit(midsize_cohort[1][:30], n_estimators=2, mtry=0)


class TestForestPrediction:
    def test_single_leaf_forest_reproduces_in_bag_hazard(self, midsize_cohort):
        records = midsize_cohort[1][:60]
        n = len(records)
        forest = rsf_fit(
            records, n_estimators=5, seed=2, min_samples_split=2 * n, min_samples_leaf=n
        )
        times = np.array([r.time for r in records])
        events = np.array([r.event for r in records])

        surv, _ = rsf_predict(forest, record_covariates(records[0]))
        grid = surv.times
        acc = np.zeros(grid.shape)
        for idx in forest.bootstrap_indices:
            o_times, o_vals = helpers.oracle_nelson_aalen(times[idx], events[idx])
            acc += eval_step_slowly(o_times, o_vals, grid)
        want_chf = acc / forest.n_estimators
        assert np.allclose(-np.log(surv.values), want_chf, atol=1e-12)

    def test_single_leaf_forest_ignores_covariates(self, midsize_cohort):
        records = midsize_cohort[1][:60]
        n = len(records)
        forest = rsf_fit(
            records, n_estimators=4, seed=5, min_samples_split=2 * n, min_samples_leaf=n
        )
        a, risk_a = rsf_predict(forest, record_covariates(records[0]))
        b, risk_b = rsf_predict(forest, record_covariates(records[-1]))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
        assert risk_a == risk_b

    def test_prediction_averages_reached_leaves(self, fitted):
        forest, records = fitted
        x = record_covariates(records[7])
        surv, risk = rsf_predict(forest, x)

        leaves = [walk_tree(tree, x) for tree in forest.trees]
        grid = np.unique(np.concatenate([l["times"] for l in leaves if l["times"].size]))
        mean_chf = np.mean(
            [eval_step_slowly(l["times"], l["chf"], grid) for l in leaves], axis=0
        )
        assert np.array_equal(surv.times, grid)
        assert np.allclose(surv.values, np.exp(-mean_chf), atol=1e-12)
        want_risk = eval_step_slowly(grid, mean_chf, forest.event_times).sum()
        assert risk == pytest.approx(want_risk, abs=1e-9)

    def test_survival_curves_are_valid(self, fitted):
        forest, records = fitted
        for r in records[:10]:
            surv, risk = rsf_predict(forest, record_covariates(r))
            assert np.all(surv.values > 0)
            assert np.all(surv.values <= 1)
            assert np.all(np.diff(surv.values) <= 0)
            assert risk >= 0

    def test_batch_risks_match_single_predictions(self, fitted):
        forest, records = fitted
        batch = rsf_risk_scores(forest, records[:40])
        singles = [
            rsf_predict(forest, record_covariates(r))[1] for r in records[:40]
        ]
        assert np.allclose(batch, singles, rtol=1e-10, atol=1e-10)


class TestScenarioCurves:
    def test_best_has_larger_area(self, fitted):
        forest, records = fitted
        best, worst = scenario_curves(forest, records[:30])
        assert best.times[0] == 0.0
        assert np.array_equal(best.times, worst.times)
        area_best = _trapezoid(best.values, best.times)
        area_worst = _trapezoid(worst.values, worst.times)
        assert area_best >= area_worst

    def test_identical_members_tie_to_same_curve(self, fitted):
        forest, records = fitted
        twins = [records[0]] * 4
        best, worst = scenario_curves(forest, twins)
        assert np.array_equal(best.values, worst.values)

    def test_empty_group_rejected(self, fitted):
        forest, _ = fitted
        with pytest.raises(DataError):
            scenario_curves(forest, [])


def assert_same_curve(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.values, b.values)


class TestBatchedEvaluatorsMatchOracles:
    """The batched descent must reproduce the per-record tree walks bit for bit."""

    @staticmethod
    def check(forest, group):
        best, worst = scenario_curves(forest, group)
        want_best, want_worst = helpers.oracle_scenario_curves(forest, group)
        assert_same_curve(best, want_best)
        assert_same_curve(worst, want_worst)
        risks = rsf_risk_scores(forest, group)
        assert np.array_equal(risks, helpers.oracle_rsf_risk_scores(forest, group))
        for r in group[:12]:
            surv, risk = rsf_predict(forest, record_covariates(r))
            want_surv, want_risk = helpers.oracle_rsf_predict(forest, record_covariates(r))
            assert_same_curve(surv, want_surv)
            assert risk == want_risk

    @pytest.mark.parametrize("use_age", [False, True], ids=["birth-year", "age"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_groups_of_several_sizes(self, midsize_cohort, seed, use_age):
        records = midsize_cohort[1]
        forest = rsf_fit(
            records[:120], n_estimators=8, seed=seed, use_age=use_age, reference_year=2020
        )
        for start, size in ((0, 1), (5, 7), (60, 40), (40, 160)):
            self.check(forest, records[start : start + size])

    @pytest.mark.parametrize("use_age", [False, True], ids=["birth-year", "age"])
    def test_tied_twins(self, fitted, use_age):
        records = fitted[1]
        forest = rsf_fit(records[:100], n_estimators=6, seed=4, use_age=use_age)
        twins = [records[3], records[3], records[8], records[3], records[8]]
        self.check(forest, twins)

    @pytest.mark.parametrize("use_age", [False, True], ids=["birth-year", "age"])
    def test_single_leaf_forest(self, midsize_cohort, use_age):
        records = midsize_cohort[1][:60]
        n = len(records)
        forest = rsf_fit(
            records,
            n_estimators=4,
            seed=1,
            min_samples_split=2 * n,
            min_samples_leaf=n,
            use_age=use_age,
        )
        assert all("feature" not in tree for tree in forest.trees)
        self.check(forest, records[:25])

    def test_age_forest_splits_on_age(self, midsize_cohort):
        records = midsize_cohort[1]
        forest = rsf_fit(records[:120], n_estimators=8, seed=0, use_age=True)
        thresholds = []
        stack = list(forest.trees)
        while stack:
            node = stack.pop()
            if "feature" in node:
                if node["feature"] == 0:
                    thresholds.append(node["threshold"])
                stack += [node["left"], node["right"]]
        ages = 2016 - np.array([r.birth_year for r in records])
        assert thresholds
        assert all(ages.min() < t < ages.max() for t in thresholds)

    def test_no_records_score_nothing(self, midsize_cohort):
        forest = rsf_fit(midsize_cohort[1][:60], n_estimators=2, seed=0, use_age=True)
        assert rsf_risk_scores(forest, []).shape == (0,)
