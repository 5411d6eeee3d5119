import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carepath.errors import DataError
from carepath.kmedoids import fit_kmedoids
from carepath.metric import PatientTrajectory, distance_matrix
from carepath.tuning import (
    K_MAX,
    K_MIN,
    TRIAL_LOG_HEADER,
    ScoreConfig,
    cluster_score,
    sample_cluster_count,
    sample_weights,
    tune_search,
    write_trial_log,
)
from helpers import oracle_cluster_score


class TestClusterScore:
    def test_single_cluster_scores_zero(self):
        db = [["a", "b"], ["a"], ["c", "a"]]
        assert cluster_score(db, [0, 0, 0]) == 0.0

    def test_two_pure_clusters_score_half(self):
        db = [["x", "x"], ["x", "x"], ["y", "y"], ["y", "y"]]
        assert cluster_score(db, [0, 0, 1, 1]) == 0.5

    def test_lengths_without_patterns_drop_out(self):
        # all sequences are singletons, so only length-1 patterns exist and
        # the pure split still averages to the length-1 lift alone
        db = [["x"], ["x"], ["y"], ["y"]]
        assert cluster_score(db, [0, 0, 1, 1]) == 0.5

    def test_tied_top_patterns_resolve_lexicographically(self):
        # cluster 0 ties 'a' and 'b' at 1/2; picking 'a' (lexicographic)
        # gives diffs -1/4 and +1/4 which cancel exactly
        db = [["a"], ["b"], ["a"], ["a"]]
        cfg = ScoreConfig(top_per_length=1, lengths=(1,))
        assert cluster_score(db, [0, 0, 1, 1], cfg) == 0.0

    def test_empty_cluster_detected(self):
        db = [["a"], ["b"]]
        with pytest.raises(DataError):
            cluster_score(db, [0, 0], n_clusters=2)

    def test_label_length_mismatch(self):
        with pytest.raises(DataError):
            cluster_score([["a"]], [0, 1])

    def test_empty_database_rejected(self):
        with pytest.raises(DataError):
            cluster_score([], [])

    def test_config_validation(self):
        with pytest.raises(DataError):
            ScoreConfig(top_per_length=0)
        with pytest.raises(DataError):
            ScoreConfig(lengths=())


def _outcome(score, *args):
    try:
        return repr(score(*args))
    except DataError:
        return "DataError"


@st.composite
def _scoring_cases(draw):
    """A database, labels over arbitrary cluster ids, and a score config."""
    seqs = st.lists(st.sampled_from("abcd"), min_size=1, max_size=7)
    db = draw(st.lists(seqs, min_size=1, max_size=30))
    if draw(st.integers(0, 5)) == 3:
        db.insert(draw(st.integers(0, len(db))), [])
    ids = draw(
        st.integers(1, 6).map(lambda m: list(range(m)))
        | st.lists(st.integers(-2, 9), min_size=1, max_size=6, unique=True)
    )
    labels = draw(st.lists(st.sampled_from(ids), min_size=len(db), max_size=len(db)))
    if draw(st.booleans()):
        labels = np.array(labels)
    cfg = ScoreConfig(
        top_per_length=draw(st.integers(1, 5)),
        lengths=draw(st.sampled_from([(1, 2, 3), (1, 3), (2,)])),
    )
    n_clusters = draw(st.none() | st.integers(1, 11))
    return db, labels, cfg, n_clusters


class TestClusterScoreMatchesOracle:
    @settings(deadline=None, database=None, max_examples=300)
    @given(_scoring_cases())
    def test_random_databases(self, case):
        got = _outcome(cluster_score, *case)
        assert got == _outcome(oracle_cluster_score, *case)
        if got != "DataError":
            assert cluster_score(*case) == oracle_cluster_score(*case)

    def test_empty_sequence_rejected(self):
        db = [["a", "b"], [], ["b"]]
        with pytest.raises(DataError):
            oracle_cluster_score(db, [0, 1, 1])
        with pytest.raises(DataError, match="empty sequence"):
            cluster_score(db, [0, 1, 1])

    def test_empty_cluster_among_noncontiguous_ids(self):
        db = [["a", "b"], ["b"], ["a"]]
        labels = np.array([4, 2, 4])
        assert cluster_score(db, labels, n_clusters=None) == oracle_cluster_score(db, labels)
        with pytest.raises(DataError, match=r"empty clusters: \[0, 1, 3\]"):
            cluster_score(db, labels, n_clusters=5)


class TestSampling:
    def test_weights_respect_ordering_constraint(self):
        for seed in range(500):
            w = sample_weights(np.random.default_rng(seed))
            w1, w2, w3, w4 = w.as_tuple()
            assert 0 <= w4 <= w3 <= w2 <= w1 <= 100

    def test_cluster_count_range(self):
        rng = np.random.default_rng(0)
        ks = {sample_cluster_count(rng) for _ in range(2000)}
        assert min(ks) >= K_MIN
        assert max(ks) <= K_MAX
        assert ks == set(range(K_MIN, K_MAX + 1))


@pytest.fixture(scope="module")
def cohort(midsize_cohort):
    trajectories = midsize_cohort[0][:40]
    db = [list(t.renderings()) for t in trajectories]
    return trajectories, db


class TestTuneSearch:
    @pytest.mark.parametrize(
        "score_cfg",
        [ScoreConfig(), ScoreConfig(top_per_length=1, lengths=(2,)), ScoreConfig(5, (1, 3))],
    )
    def test_trials_match_a_loop_over_the_oracle(self, cohort, score_cfg):
        patients, db = cohort
        seed, budget = 13, 4
        _, log = tune_search(patients, db, budget=budget, seed=seed, score_cfg=score_cfg)
        for trial, rec in zip(range(budget), log, strict=True):
            rng = np.random.default_rng([seed, trial])
            weights = sample_weights(rng)
            k = sample_cluster_count(rng)
            fit = fit_kmedoids(
                distance_matrix(patients, weights), k, seed=int(rng.integers(0, 2**31 - 1))
            )
            score = oracle_cluster_score(db, fit.assignment, score_cfg, n_clusters=fit.k)
            assert (rec.weights, rec.k, rec.seed) == (weights, k, fit.seed)
            assert rec.td_history == fit.td_history
            assert rec.score == score and repr(rec.score) == repr(score)

    def test_deterministic_per_seed(self, cohort):
        patients, db = cohort
        best_a, log_a = tune_search(patients, db, budget=3, seed=5)
        best_b, log_b = tune_search(patients, db, budget=3, seed=5)
        for a, b in zip(log_a, log_b):
            assert a.weights == b.weights
            assert a.k == b.k
            assert a.score == b.score
            assert a.seed == b.seed
            assert a.td_history == b.td_history
        assert best_a.trial_index == best_b.trial_index

    def test_best_is_earliest_maximum(self, cohort):
        patients, db = cohort
        best, log = tune_search(patients, db, budget=4, seed=9)
        top = max(r.score for r in log)
        assert best.score == top
        assert best.trial_index == min(r.trial_index for r in log if r.score == top)

    def test_each_trial_descends(self, cohort):
        patients, db = cohort
        _, log = tune_search(patients, db, budget=3, seed=2)
        for rec in log:
            assert all(b < a for a, b in zip(rec.td_history, rec.td_history[1:]))

    def test_budget_validation(self, cohort):
        patients, db = cohort
        with pytest.raises(DataError):
            tune_search(patients, db, budget=0, seed=0)
        with pytest.raises(DataError):
            tune_search(patients, db[:-1], budget=1, seed=0)

    def test_duplicate_patient_ids_rejected(self, cohort):
        patients, db = cohort
        twin = PatientTrajectory(patients[0].patient_id, patients[1].codes)
        with pytest.raises(DataError, match="duplicate patient ids"):
            tune_search([*patients[:-1], twin], db, budget=1, seed=0)

    def test_cohort_smaller_than_k_max_rejected_up_front(self, cohort):
        patients, db = cohort
        small = K_MAX - 8
        # every seed fails the same way, before any trial is drawn
        for seed in range(5):
            with pytest.raises(DataError, match=f"at least {K_MAX} patients, got {small}"):
                tune_search(patients[:small], db[:small], budget=4, seed=seed)
        _, log = tune_search(patients[:K_MAX], db[:K_MAX], budget=2, seed=0)
        assert len(log) == 2

    def test_trial_log_round_trip(self, cohort, tmp_path):
        patients, db = cohort
        _, log = tune_search(patients, db, budget=2, seed=3)
        path = tmp_path / "trials.csv"
        write_trial_log(path, log)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRIAL_LOG_HEADER
        assert len(rows) == 3
        for row, rec in zip(rows[1:], log):
            assert int(row[0]) == rec.trial_index
            assert tuple(int(x) for x in row[1:5]) == rec.weights.as_tuple()
            assert int(row[5]) == rec.k
            assert float(row[6]) == rec.score
