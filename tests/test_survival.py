import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from carepath import survival
from carepath.errors import DataError, NumericError
from carepath.pipeline import cohort_cox_aic
from carepath.survival import (
    DegenerateCovariatesError,
    SeparationError,
    StepFunction,
    SurvivalRecord,
    c_index,
    covariate_matrix,
    cox_aic,
    cox_fit,
    kaplan_meier,
    nelson_aalen,
    record_covariates,
    times_events,
)


def make_records(times, events, shocks=None):
    shocks = shocks if shocks is not None else [0] * len(times)
    return [
        SurvivalRecord(
            patient_id=f"P{i}",
            birth_year=1950,
            sex=1,
            n_hospitalizations=2,
            shock_flag=int(s),
            total_stay_days=7,
            time=float(t),
            event=int(e),
        )
        for i, (t, e, s) in enumerate(zip(times, events, shocks))
    ]


class TestRecord:
    def test_validation(self):
        with pytest.raises(DataError):
            make_records([-1.0], [1])
        with pytest.raises(DataError):
            make_records([1.0], [2])
        with pytest.raises(DataError):
            SurvivalRecord("P", 1950, 0, 1, 0, 5, 1.0, 1)
        with pytest.raises(DataError):
            SurvivalRecord("P", 1950, 1, 1, 5, 5, 1.0, 1)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
    def test_time_must_be_finite_and_non_negative(self, time):
        with pytest.raises(DataError, match="follow-up time"):
            make_records([time], [1])

    def test_time_zero_accepted(self):
        assert make_records([0.0], [1])[0].time == 0.0

    def test_covariate_vector_order(self):
        r = SurvivalRecord("P", 1941, 2, 3, 1, 22, 9.0, 0)
        assert record_covariates(r).tolist() == [1941.0, 2.0, 3.0, 1.0, 22.0]

    def test_covariate_matrix_age_transform(self):
        rs = make_records([1.0, 2.0], [1, 1])
        X = covariate_matrix(rs, use_age=True, reference_year=2016)
        assert X[:, 0].tolist() == [66.0, 66.0]

    @pytest.mark.parametrize("use_age", [False, True], ids=["birth-year", "age"])
    def test_covariate_matrix_of_no_records(self, use_age):
        X = covariate_matrix([], use_age=use_age)
        assert X.shape == (0, 5)
        assert X.dtype == np.float64

    def test_times_events(self):
        T, E = times_events(make_records([1.0, 2.0], [1, 0]))
        assert T.tolist() == [1.0, 2.0]
        assert E.tolist() == [1, 0]


class TestStepFunction:
    def test_right_continuous_evaluation(self):
        f = StepFunction(np.array([1.0, 3.0]), np.array([0.5, 0.2]))
        assert f(0.0) == 1.0
        assert f(1.0) == 0.5
        assert f(2.9) == 0.5
        assert f(3.0) == 0.2
        assert f(100.0) == 0.2

    def test_vector_evaluation(self):
        f = StepFunction(np.array([1.0]), np.array([0.5]))
        out = f(np.array([0.0, 1.0, 2.0]))
        assert out.tolist() == [1.0, 0.5, 0.5]

    def test_empty_function_is_flat(self):
        f = StepFunction(np.empty(0), np.empty(0), initial=1.0)
        assert f(5.0) == 1.0

    def test_validation(self):
        with pytest.raises(DataError):
            StepFunction(np.array([1.0, 1.0]), np.array([0.5, 0.2]))
        with pytest.raises(DataError):
            StepFunction(np.array([2.0, 1.0]), np.array([0.5, 0.2]))
        with pytest.raises(DataError):
            StepFunction(np.array([1.0]), np.array([0.5, 0.2]))


class TestKaplanMeier:
    def test_worked_example(self):
        # events at 1 and 3, censored at 2: S = 2/3 on [1, 3), then 0
        km = kaplan_meier(make_records([1.0, 2.0, 3.0], [1, 0, 1]))
        assert km.times.tolist() == [1.0, 3.0]
        assert km.values.tolist() == [2.0 / 3.0, 0.0]
        assert km(0.5) == 1.0
        assert km(1.0) == 2.0 / 3.0
        assert km(3.0) == 0.0

    def test_matches_empirical_survivor_without_censoring(self):
        rng = np.random.default_rng(4)
        times = rng.integers(1, 40, size=200).astype(float)
        km = kaplan_meier(make_records(times, [1] * 200))
        for t in np.unique(times):
            empirical = float((times > t).mean())
            assert km(t) == pytest.approx(empirical, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        times = rng.integers(1, 15, size=60).astype(float)
        events = rng.integers(0, 2, size=60)
        base = kaplan_meier(make_records(times, events))
        perm = rng.permutation(60)
        shuffled = kaplan_meier(make_records(times[perm], events[perm]))
        assert np.array_equal(base.times, shuffled.times)
        assert np.array_equal(base.values, shuffled.values)

    def test_all_censored_stays_at_one(self):
        km = kaplan_meier(make_records([1.0, 2.0], [0, 0]))
        assert km.times.size == 0
        assert km(10.0) == 1.0

    def test_no_records_rejected(self):
        with pytest.raises(DataError):
            kaplan_meier([])


class TestNelsonAalen:
    def test_worked_example(self):
        na = nelson_aalen(make_records([1.0, 2.0, 3.0], [1, 0, 1]))
        assert na.times.tolist() == [1.0, 3.0]
        assert na.values.tolist() == [1.0 / 3.0, 1.0 / 3.0 + 1.0]
        assert na(0.0) == 0.0

    def test_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(12)
        times = rng.integers(1, 10, size=50).astype(float)
        events = rng.integers(0, 2, size=50)
        na = nelson_aalen(make_records(times, events))
        o_times, o_vals = helpers.oracle_nelson_aalen(times, events)
        assert na.times.tolist() == o_times
        assert np.allclose(na.values, o_vals, atol=1e-12)


@st.composite
def _follow_ups(draw):
    """Times and events: tied, zero and fractional times, any event rate."""
    n = draw(st.integers(1, 40))
    pool = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.25, 7.0, 30.0])
    wide = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
    T = draw(st.lists(st.one_of(pool, wide), min_size=n, max_size=n))
    rate = draw(st.integers(0, 10))  # in tenths: 0 censors every record
    E = [int(draw(st.integers(0, 9)) < rate) for _ in range(n)]
    return T, E


class TestEstimatorsMatchLoopOracles:
    """Kaplan-Meier and Nelson-Aalen equal their plain loops bit for bit."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_follow_ups())
    @example(([2.0, 1.0, 2.0, 2.0], [1, 0, 0, 1]))  # a death and a censoring at one time
    @example(([3.0, 1.0, 8.5], [0, 0, 0]))  # all censored
    @example(([4.0], [1]))  # one record
    @example(([0.0, 0.0, 5.0, 0.0], [1, 0, 1, 1]))  # time 0
    def test_equal_to_plain_loops(self, sample):
        T, E = sample
        records = make_records(T, E)
        for estimate, oracle in (
            (kaplan_meier, helpers.oracle_kaplan_meier),
            (nelson_aalen, helpers.oracle_nelson_aalen),
        ):
            got = estimate(records)
            times, values = oracle(T, E)
            assert got.times.dtype == got.values.dtype == np.float64
            assert np.array_equal(got.times, times)
            assert np.array_equal(got.values, values)


class TestCIndex:
    def test_perfectly_anti_ranked_risks(self):
        records = make_records([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert c_index([4.0, 3.0, 2.0, 1.0], records) == 1.0
        assert c_index([1.0, 2.0, 3.0, 4.0], records) == 0.0

    def test_constant_risks_are_coin_flips(self):
        records = make_records([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
        assert c_index([7.0, 7.0, 7.0, 7.0], records) == 0.5

    def test_no_comparable_pairs_rejected(self):
        records = make_records([1.0, 2.0], [0, 0])
        with pytest.raises(NumericError):
            c_index([1.0, 2.0], records)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        times = rng.integers(1, 12, size=60).astype(float)
        events = rng.integers(0, 2, size=60)
        events[0] = 1
        risks = np.round(rng.random(60), 1)  # force some risk ties
        records = make_records(times, events)
        assert c_index(risks, records) == helpers.oracle_c_index(risks, times, events)

    def test_complement_and_transform_identities(self):
        rng = np.random.default_rng(5)
        times = rng.random(50) * 100
        events = rng.integers(0, 2, size=50)
        events[:5] = 1
        risks = rng.random(50)
        records = make_records(times, events)
        c = c_index(risks, records)
        assert c + c_index(-risks, records) == pytest.approx(1.0, abs=1e-12)
        assert c_index(2.0 * risks + 5.0, records) == c


class TestCox:
    def test_null_covariate_reproduces_null_likelihood(self):
        times = [5.0, 5.0, 8.0, 8.0, 10.0, 12.0]
        events = [1, 1, 1, 0, 1, 1]
        records = make_records(times, events)
        model = cox_fit(records, covariates=np.zeros((6, 1)))
        assert model.beta.tolist() == [0.0]
        assert model.n_iter == 0 and model.converged is True
        want = helpers.oracle_cox_logpl(0.0, np.zeros(6), times, events)
        assert model.log_partial_likelihood == pytest.approx(want, abs=1e-10)

    def test_null_baseline_equals_nelson_aalen(self):
        times = [5.0, 5.0, 8.0, 8.0, 10.0, 12.0]
        events = [1, 1, 1, 0, 1, 1]
        records = make_records(times, events)
        model = cox_fit(records, covariates=np.zeros((6, 1)))
        na = nelson_aalen(records)
        assert np.array_equal(model.baseline_cumhaz.times, na.times)
        assert np.allclose(model.baseline_cumhaz.values, na.values, atol=1e-12)

    def test_baseline_is_breslow_at_fitted_coefficients(self, midsize_cohort):
        records = midsize_cohort[1][:150]
        model = cox_fit(records, use_age=True)
        assert model.n_iter > 0 and np.any(model.beta != 0.0)
        X = covariate_matrix(records, use_age=True) - model.covariate_means
        T, E = times_events(records)
        want_t, want_h = helpers.oracle_breslow_baseline(X, T, E, model.beta)
        assert np.array_equal(model.baseline_cumhaz.times, want_t)
        assert np.allclose(model.baseline_cumhaz.values, want_h, rtol=1e-12, atol=0)

    def test_recovers_known_coefficient(self):
        rng = np.random.default_rng(0)
        n = 2000
        x = rng.integers(0, 2, size=n).astype(float)
        times = rng.exponential(1.0 / np.exp(0.5 * x))
        records = make_records(times, [1] * n, shocks=x)
        model = cox_fit(records, covariates=x)
        assert abs(float(model.beta[0]) - 0.5) < 0.1

    def test_fitted_likelihood_beats_null(self):
        rng = np.random.default_rng(1)
        n = 300
        x = rng.integers(0, 2, size=n).astype(float)
        times = rng.exponential(1.0 / np.exp(0.8 * x))
        records = make_records(times, [1] * n)
        model = cox_fit(records, covariates=x)
        T, E = times_events(records)
        null_ll = helpers.oracle_cox_logpl(0.0, x - x.mean(), T, E)
        assert model.log_partial_likelihood > null_ll

    def test_separation_detected(self):
        # all events in one group and a small covariate scale: the monotone
        # likelihood pushes the coefficient far past the runaway bound
        times = list(range(1, 11)) + [100.0] * 10
        events = [1] * 10 + [0] * 10
        x = np.array([0.02] * 10 + [0.0] * 10)
        records = make_records(times, events)
        with pytest.raises(SeparationError):
            cox_fit(records, covariates=x)

    @pytest.mark.parametrize(
        "times, events, x",
        [
            # a candidate's exp(eta) overflows: its risk-set means are inf / inf
            ([1, 2, 10, 10], [1, 1, 0, 0], [[9, 1], [3, 18], [19, 19], [0, 18]]),
            # a candidate's exp(eta) underflows over a whole risk set: log(0)
            (
                [3, 2, 3, 3, 2],
                [1, 1, 0, 0, 0],
                [[1945, 2, 0, 0, 20], [1945, 2, 0, 1, 20], [1948, 2, 4, 0, 33],
                 [1945, 1, 4, 0, 33], [1945, 1, 4, 0, 33]],
            ),
        ],
        ids=["overflow", "underflow"],
    )
    def test_runaway_fit_through_non_finite_candidates_does_not_warn(self, times, events, x):
        # the fit still runs away, and numpy warns about none of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeparationError):
                cox_fit(make_records(times, events), covariates=np.array(x, dtype=float))

    def test_duplicated_covariates_detected(self):
        rng = np.random.default_rng(2)
        n = 100
        x = rng.integers(0, 2, size=n).astype(float)
        times = rng.exponential(1.0 / np.exp(0.5 * x))
        records = make_records(times, [1] * n)
        X = np.column_stack([x, x])
        with pytest.raises(DegenerateCovariatesError):
            cox_fit(records, covariates=X)

    def test_needs_two_events(self):
        with pytest.raises(DataError):
            cox_fit(make_records([1.0, 2.0, 3.0], [1, 0, 0]), covariates=np.ones((3, 1)))

    def test_covariate_row_mismatch(self):
        with pytest.raises(DataError):
            cox_fit(make_records([1.0, 2.0], [1, 1]), covariates=np.zeros((3, 1)))

    def test_default_fit_converges(self, midsize_cohort):
        model = cox_fit(midsize_cohort[1])
        assert model.converged is True
        assert model.n_iter == 5
        assert repr(cox_aic(model, 5)) == "1475.642980589387"

    def test_reaching_tol_on_the_last_iteration_converges(self, midsize_cohort):
        model = cox_fit(midsize_cohort[1], max_iter=5)
        assert model.converged is True and model.n_iter == 5

    def test_max_iter_cut_is_not_converged(self, midsize_cohort):
        model = cox_fit(midsize_cohort[1], max_iter=1)
        assert model.converged is False
        assert model.n_iter == 1
        assert repr(cox_aic(model, 5)) == "1483.558486572998"

    def test_aic_arithmetic(self):
        rng = np.random.default_rng(9)
        n = 120
        x = rng.integers(0, 2, size=n).astype(float)
        times = rng.exponential(1.0 / np.exp(0.4 * x))
        model = cox_fit(make_records(times, [1] * n), covariates=x)
        assert cox_aic(model, 1) == 2.0 - 2.0 * model.log_partial_likelihood
        assert cox_aic(model, 5) == 10.0 - 2.0 * model.log_partial_likelihood


class TestBreslowSweep:
    """The fitter's one sweep per step equals the per-block loop of
    ``helpers.oracle_breslow_stats`` bit for bit."""

    @staticmethod
    def assert_matches_oracle(Xc, T, E, beta):
        ll, grad, hess, steps = helpers.oracle_breslow_stats(Xc, T, E, beta)
        rs = survival._risk_sets(Xc, T, E)
        got_ll, got_grad, got_hess, increments = survival._breslow_sweep(rs, beta)
        assert got_ll == ll
        assert np.array_equal(got_grad, grad) and np.array_equal(got_hess, hess)
        assert rs.times.tolist() == [t for t, _ in steps]
        assert increments.tolist() == [inc for _, inc in steps]

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        p=st.integers(1, 5),
        distinct=st.one_of(st.none(), st.integers(1, 12)),
        censored_tail=st.integers(0, 12),
        beta_scale=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
    )
    def test_equals_oracle(self, seed, n, p, distinct, censored_tail, beta_scale):
        rng = np.random.default_rng(seed)
        # distinct=None draws untied times; a few distinct values give ties,
        # and blocks of 8 or more, which numpy sums pairwise
        if distinct is None:
            T = rng.exponential(300.0, size=n)
        else:
            T = rng.integers(0, distinct, size=n) * 30.0
        E = rng.integers(0, 2, size=n)
        order = np.argsort(-T, kind="stable")
        E[order[: min(censored_tail, n - 1)]] = 0  # an all-censored tail
        E[order[-1]] = 1  # the sweep needs an event
        X = np.column_stack(
            [rng.integers(1920, 2000, size=n), rng.normal(0.0, 3.0, size=(n, 4))]
        )[:, :p].astype(float)
        Xc = X - X.mean(axis=0)
        beta = rng.normal(0.0, beta_scale, size=p) if beta_scale else np.zeros(p)
        self.assert_matches_oracle(Xc, T, E, beta)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_mixed_tied_block_and_censored_tail(self, beta):
        # nine tied records at 8 mixing events and censorings, then a tied,
        # all-censored tail at 12
        T = np.array([8.0] * 9 + [3.0, 3.0, 5.0, 1.0] + [12.0] * 3)
        E = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1] + [1, 0, 1, 1] + [0] * 3)
        X = np.arange(32.0).reshape(16, 2) % 7
        Xc = X - X.mean(axis=0)
        self.assert_matches_oracle(Xc, T, E, np.array([beta, -beta / 2]))

    def test_single_record(self):
        self.assert_matches_oracle(np.zeros((1, 3)), np.array([4.0]), np.array([1]), np.ones(3))


class TestPinnedCoxAic:
    """``cohort_cox_aic`` of seeded groups the size of a k=5 and a k=20
    cluster of 400 patients, by ``repr``: a change in the sweep's order of
    addition, or a vectorised ``np.log`` that rounds unlike the scalar one,
    moves the last digits."""

    @pytest.mark.parametrize(
        "size, seed, use_age, want",
        [
            (80, 0, False, "468.78716402990995"),
            (80, 1, False, "477.60394734393293"),
            (80, 1, True, "477.603947343933"),
            (20, 1, False, "86.61569025158416"),
            (20, 1, True, "86.61569025158414"),
            (20, 3, False, "81.12122512004848"),
            (20, 3, True, "81.12122512004849"),
        ],
    )
    def test_aic(self, midsize_cohort, size, seed, use_age, want):
        records = midsize_cohort[1]
        rows = np.random.default_rng(seed).choice(len(records), size=size, replace=False)
        group = [records[i] for i in rows]
        assert repr(cohort_cox_aic(group, use_age=use_age)) == want
