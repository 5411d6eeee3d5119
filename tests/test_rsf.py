import hashlib
import pickle
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import logrank_statistic, walk_tree
from carepath import survival
from carepath.errors import DataError
from carepath.survival import (
    SurvivalRecord,
    _best_split,
    _fill_leaves,
    _forest_ranks,
    record_covariates,
    rsf_fit,
    rsf_predict,
    rsf_risk_scores,
    scenario_curves,
)
from carepath.synthetic import generate_cohort
from test_survival import make_records

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def eval_step_slowly(times, values, grid, initial=0.0):
    out = []
    for g in grid:
        reached = [v for t, v in zip(times, values) if t <= g]
        out.append(reached[-1] if reached else initial)
    return np.array(out)


class TestStepFunctionMatchesLoop:
    @pytest.mark.parametrize("initial", [0.0, 1.0])
    @pytest.mark.parametrize(
        "times, values, points",
        [
            ([1.0, 3.0], [0.5, 0.2], 2.0),
            ([1.0, 3.0, 7.0], [0.1, 0.4, 0.9], [0.0, 1.0, 2.0, 3.0, 7.0, 9.0]),
            ([4.0, 5.0], [0.3, 0.6], [-1.0, 0.0, 3.9]),
            ([], [], [0.0, 5.0]),
            ([], [], 5.0),
        ],
        ids=["scalar", "array", "before-first-jump", "no-jumps", "no-jumps-scalar"],
    )
    def test_equals_loop(self, times, values, points, initial):
        f = survival.StepFunction(np.array(times), np.array(values), initial=initial)
        got = f(points)
        want = eval_step_slowly(times, values, np.atleast_1d(points), initial)
        if np.ndim(points) == 0:
            assert type(got) is float
            assert got == want[0]
        else:
            assert got.dtype == np.float64
            assert np.array_equal(got, want)


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
    """The reference statistic of ``helpers``, which ``oracle_best_split`` scores with."""

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


def _draw_ints(draw, n, lo, hi):
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)))


def _column(draw, kind, n):
    if kind == "constant":
        return np.full(n, draw(st.sampled_from([0.0, 2.0, 1950.0])))
    if kind == "few":
        values = [1.0, 2.0, 3.0]
    elif kind == "adjacent":
        # neighbouring floats, whose midpoints round onto one of the two
        values = [1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)]
    else:
        values = np.arange(40.0) * 0.25 - 3.0
    return np.array(draw(st.lists(st.sampled_from(list(values)), min_size=n, max_size=n)))


@st.composite
def _split_nodes(draw):
    """One node of a growing tree: covariates, times, events and settings."""
    min_leaf = draw(st.integers(1, 8))
    n = max(2, 2 * min_leaf + draw(st.integers(-2, 30)))
    p = draw(st.integers(1, 5))
    kinds = st.sampled_from(["constant", "few", "adjacent", "many"])
    X = np.column_stack([_column(draw, draw(kinds), n) for _ in range(p)])
    n_times = draw(st.sampled_from([1, 3, 12, 60]))
    T = _draw_ints(draw, n, 1, n_times).astype(float)
    # event rate in tenths: 0 censors every record, 10 none
    E = (_draw_ints(draw, n, 0, 9) < draw(st.integers(0, 10))).astype(int)
    mtry = draw(st.integers(1, p + 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return X, T, E, mtry, min_leaf, seed


@st.composite
def _mirrored_nodes(draw):
    """A feature and its negation, both drawn: every split is offered as a
    group and as its complement, whose statistics agree up to the last bits."""
    n = draw(st.integers(20, 60))
    x = _draw_ints(draw, n, 0, 5).astype(float)
    T = _draw_ints(draw, n, 1, 40).astype(float)
    E = (_draw_ints(draw, n, 0, 9) < 7).astype(int)
    return np.column_stack([x, -x]), T, E, 2, draw(st.integers(1, 7)), 0


@st.composite
def _nodes_of_larger_samples(draw):
    """A node of bootstrap rows and the larger sample the forest ranks: the
    sample's levels and times that the node lacks fall between its own."""
    sample = draw(_split_nodes())
    n = len(sample[1])
    rows = draw(st.lists(st.integers(0, n - 1), min_size=max(1, n // 2), max_size=n))
    return sample, np.array(rows)


def _node(n, min_leaf, events):
    rng = np.random.default_rng(n)
    X = np.column_stack([np.arange(n) >= n // 2, rng.integers(0, 3, n), np.zeros(n)]).astype(float)
    T = np.repeat(np.arange(1.0, n), 2)[:n]
    return X, T, np.asarray(events)[:n], 3, min_leaf, 1


def _node_without_middle_levels():
    """Levels 2 and 1 + 2**-52 of the sample are missing from the node, so
    the midpoints between the node's levels are exactly those levels; the
    sample's deaths at times 2, 8, 14 and 20 are on rows the node lacks."""
    step = np.nextafter(1.0, 2.0)
    levels = np.array([[1.0, 1.0], [2.0, step], [3.0, np.nextafter(step, 2.0)]])
    X = np.tile(levels, (8, 1))
    T = np.arange(1.0, 25.0)
    E = (np.arange(24) % 2).astype(int)
    return (X, T, E, 2, 2, 0), np.flatnonzero(np.arange(24) % 3 != 1)


def split_of(X, T, E, rng, mtry, min_leaf, rows=None):
    """``_best_split`` on ``rows`` of a sample ranked as a forest's (all rows
    by default)."""
    rows = np.arange(len(T)) if rows is None else rows
    codes, t, scale = _forest_ranks(X, T)
    return _best_split(codes[rows], t[rows], E[rows], scale, rng, mtry, min_leaf)


def assert_split_matches_oracle(node, rows=None):
    X, T, E, mtry, min_leaf, seed = node
    rows = np.arange(len(T)) if rows is None else rows
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = split_of(X, T, E, rng, mtry, min_leaf, rows)
    want = helpers.oracle_best_split(X[rows], T[rows], E[rows], oracle_rng, mtry, min_leaf)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if want is None:
        assert got is None
    else:
        assert got[:2] == want[:2]
        assert type(got[0]) is int and type(got[1]) is float
        assert np.array_equal(got[2], want[2])


class TestSplitSearchMatchesOracle:
    """The one-pass split search must pick the per-threshold loop's split
    and leave the generator exactly where the loop leaves it."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_split_nodes())
    @example(_node(9, 5, [1] * 9))  # below 2 * min_leaf: no split, still draws
    @example(_node(10, 5, [1] * 10))  # exactly 2 * min_leaf
    @example(_node(40, 5, [0] * 40))  # all censored
    def test_same_split_and_generator_state(self, node):
        assert_split_matches_oracle(node)

    @settings(max_examples=150, deadline=None, database=None)
    @given(_mirrored_nodes())
    def test_complement_ties_break_like_the_oracle(self, node):
        # which one wins depends on every row sum adding in the oracle's order
        assert_split_matches_oracle(node)

    @settings(max_examples=300, deadline=None, database=None)
    @given(_nodes_of_larger_samples())
    @example(_node_without_middle_levels())
    def test_node_ranked_within_a_larger_sample(self, sample_and_rows):
        assert_split_matches_oracle(*sample_and_rows)

    def test_boundary_examples_split_as_expected(self):
        below, at = _node(9, 5, [1] * 9), _node(10, 5, [1] * 10)
        assert split_of(*below[:3], np.random.default_rng(1), 3, 5) is None
        assert split_of(*at[:3], np.random.default_rng(1), 3, 5) is not None


_BLOCK_SIZES = [1, 7, 64, survival._BLOCK_CELLS]


@st.composite
def _leaf_samples(draw):
    """Times and events of a sample, the bootstrap rows of several leaves
    and a block size for the leaf pass."""
    n = draw(st.integers(1, 40))
    T = _draw_ints(draw, n, 1, draw(st.sampled_from([1, 3, 12, 60]))).astype(float)
    E = (_draw_ints(draw, n, 0, 9) < draw(st.integers(0, 10))).astype(int)
    rows = st.lists(st.integers(0, n - 1), min_size=1, max_size=n).map(np.array)
    leaves = draw(st.lists(rows, min_size=1, max_size=6))
    return T, E, leaves, draw(st.sampled_from(_BLOCK_SIZES))


def _many_deaths():
    # 30 deaths at distinct times: long rows of rates that pairwise and
    # left-to-right sums round apart
    T = np.arange(1.0, 31.0)
    return T, np.ones(30, dtype=int), [np.arange(30), np.arange(3, 30, 2)], 64


def _sparse_leaves():
    # leaves of 1-3 records over 2,400 distinct times, a leaf with 40
    # distinct death times and a leaf without a death
    n = 2400
    T = np.random.default_rng(0).permutation(n) + 1.0
    E = (np.arange(n) % 3 > 0).astype(int)
    small = [np.arange(i, n, 800)[: 1 + i % 3] for i in range(800)]
    return T, E, small + [np.flatnonzero(E)[:40], np.flatnonzero(E == 0)[:5]], 64


class TestLeafMatchesNelsonAalen:
    """Leaves filled in one pass on the forest's time ranks must each hold
    the plain-loop Nelson-Aalen estimate of their own records, bit for bit."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(_leaf_samples())
    @example(
        (
            np.array([3.0, 1.0, 3.0, 2.0, 3.0, 5.0, 7.0, 9.0]),
            np.array([1, 0, 1, 1, 0, 0, 0, 1]),
            [
                np.arange(5),  # tied times, with a death and a censoring at the same time
                np.array([5, 6]),  # all censored
                np.array([7]),  # one record
                np.array([3, 7, 7]),  # deaths at ranks 1 and 5 only
                np.array([0, 2]),  # deaths at rank 2 only, between those
            ],
            7,
        )
    )
    @example((np.array([5.0, 2.0, 7.0]), np.array([0, 0, 0]), [np.array([0, 2])], 1))
    @example(
        (np.array([4.0, 6.0, 8.0]), np.array([1, 1, 1]), [np.array([2, 0, 2]), np.array([1])], 1)
    )
    @example(_many_deaths())
    @example(_sparse_leaves())
    def test_same_times_and_hazards(self, sample):
        T, E, leaf_rows, cells = sample
        _, t, scale = _forest_ranks(np.zeros((len(T), 1)), T)
        leaves = [({}, t[rows], E[rows]) for rows in leaf_rows]
        with mock.patch.object(survival, "_BLOCK_CELLS", cells):
            _fill_leaves(leaves, scale[-1])
        for (leaf, _, _), rows in zip(leaves, leaf_rows):
            times, chf = helpers.oracle_nelson_aalen(T[rows], E[rows])
            assert set(leaf) == {"times", "chf"}
            assert leaf["times"].dtype == leaf["chf"].dtype == np.float64
            assert np.array_equal(leaf["times"], times)
            assert np.array_equal(leaf["chf"], chf)


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

    @pytest.mark.parametrize("length", [2, 7])
    def test_wrong_vector_length_is_a_data_error(self, fitted, length):
        forest, _ = fitted
        with pytest.raises(DataError, match=f"5 columns, got {length}"):
            rsf_predict(forest, [1950.0, 1.0, 3.0, 0.0, 20.0, 1.0, 1.0][:length])

    def test_covariate_matrix_is_a_data_error(self, fitted):
        forest, records = fitted
        with pytest.raises(DataError, match="flat vector"):
            rsf_predict(forest, [record_covariates(records[0])])

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

    def test_each_evaluator_descends_once(self, fitted):
        forest, records = fitted
        calls = [
            lambda: rsf_predict(forest, record_covariates(records[0])),
            lambda: rsf_risk_scores(forest, records[:9]),
            lambda: scenario_curves(forest, records[:9]),
        ]
        for call in calls:
            with mock.patch.object(
                survival, "_reached_leaves", wraps=survival._reached_leaves
            ) as descent:
                call()
            assert descent.call_count == 1

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


def forest_digest(trees) -> str:
    """sha256 over every bit of a forest's trees, walked in pre-order.

    Splits contribute their feature index and threshold, leaves their jump
    times and cumulative hazards, all as little-endian fixed-width fields.
    Unlike a pickle, the bytes do not depend on the pickle protocol or on
    numpy's module layout.
    """
    h = hashlib.sha256()
    stack = list(reversed(trees))
    while stack:
        node = stack.pop()
        if "feature" in node:
            assert set(node) == {"feature", "threshold", "left", "right"}
            assert type(node["feature"]) is int and type(node["threshold"]) is float
            h.update(b"S" + struct.pack("<qd", node["feature"], node["threshold"]))
            stack += [node["right"], node["left"]]
        else:
            assert set(node) == {"times", "chf"}
            times, chf = node["times"], node["chf"]
            assert times.dtype == chf.dtype == np.float64 and times.shape == chf.shape
            h.update(b"L" + struct.pack("<q", times.size))
            h.update(times.astype("<f8").tobytes() + chf.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pinned_cohort():
    records = generate_cohort(n_patients=400, seed=5)[1]
    return {400: records, 30: records[::13][:30]}


class TestPinnedTrees:
    """Seeded forests must keep these exact trees: a faster split search
    may change how the best split is found, never which split it is."""

    # (records, use_age, min_samples_leaf) -> forest_digest, recorded with the
    # per-threshold split search
    PINNED = {
        (30, False, 5): "81efff0a15089d0f98a877bc260cb818234377d5161508e4b8342a623ec2af59",
        (30, False, 15): "6fd5433ec1e86fd777dfea24a617821e1552526d1ee65c0ee40f6f52b7b64f84",
        (30, True, 5): "e6e0a19133ce2326c18c975e0576602c0f03c0045c4e37e3b0bcbdb9341c6972",
        (30, True, 15): "c957dfc64e6635971fc169a148d994a12e133df73dbe102354b1eea012fdc61a",
        (400, False, 5): "bceece4a8177d8ba02a95cc5e5204e727d1d8ca93b547687815717ef964ffc42",
        (400, False, 15): "0124fd2471a0182187233caeadb1043eb034ef2e7fe77e89a37b1878a0393910",
        (400, True, 5): "22574b7e360a9c59f51b0b49da25c5eaa2cfa96730239fada3a8ffa9987070c8",
        (400, True, 15): "952720d54770b03f68d1dcfdb576896e90d0aaeb3b32e420590914197cad7db9",
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_trees_are_unchanged(self, pinned_cohort, key):
        size, use_age, leaf = key
        forest = rsf_fit(
            pinned_cohort[size],
            n_estimators=10,
            seed=21,
            min_samples_leaf=leaf,
            use_age=use_age,
        )
        assert forest_digest(forest.trees) == self.PINNED[key]


class TestBlockSizes:
    """The leaf pass and the leaf-value tables work in blocks; any block
    size must give the same trees and the same predictions."""

    @pytest.mark.parametrize("cells", _BLOCK_SIZES)
    @pytest.mark.parametrize("key", sorted(TestPinnedTrees.PINNED))
    def test_pinned_trees(self, pinned_cohort, key, cells):
        size, use_age, leaf = key
        with mock.patch.object(survival, "_BLOCK_CELLS", cells):
            forest = rsf_fit(
                pinned_cohort[size],
                n_estimators=10,
                seed=21,
                min_samples_leaf=leaf,
                use_age=use_age,
            )
        assert forest_digest(forest.trees) == TestPinnedTrees.PINNED[key]

    @pytest.mark.parametrize("cells", _BLOCK_SIZES)
    def test_small_group_forest_of_leaves(self, midsize_cohort, cells):
        # a cluster's training split below 2 * min_leaf: every tree is one leaf
        records = midsize_cohort[1][40:54]
        with mock.patch.object(survival, "_BLOCK_CELLS", cells):
            forest = rsf_fit(records, n_estimators=24, seed=7)
            assert all("feature" not in tree for tree in forest.trees)
            for start, size in ((0, 1), (3, 5), (0, 14)):
                TestBatchedEvaluatorsMatchOracles.check(forest, records[start : start + size])

    @pytest.mark.parametrize("cells", _BLOCK_SIZES)
    def test_mixed_forest(self, midsize_cohort, cells):
        # 30 records at the default min_leaf: some bootstrap samples split
        records = midsize_cohort[1][:30]
        with mock.patch.object(survival, "_BLOCK_CELLS", cells):
            forest = rsf_fit(records, n_estimators=30, seed=3)
            kinds = {"feature" in tree for tree in forest.trees}
            assert kinds == {True, False}
            # the scenario grid starts at 0, before every leaf's first jump
            assert 0.0 < forest.event_times[0]
            for start, size in ((0, 1), (10, 9), (0, 30)):
                TestBatchedEvaluatorsMatchOracles.check(forest, records[start : start + size])
