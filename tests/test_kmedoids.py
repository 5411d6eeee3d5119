import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from carepath.errors import DataError
from carepath.kmedoids import fit_kmedoids, medoid_profile
from carepath.metric import MetricWeights, PatientTrajectory, distance_matrix
from carepath.codes import DEATH, StayCode, parse_code
from carepath.synthetic import generate_cohort

WEIGHTS = MetricWeights(85, 75, 55, 40)


def _random_matrix(rng, n):
    raw = rng.random((n, n)) * 10
    m = (raw + raw.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def test_single_medoid_is_row_sum_argmin():
    rng = np.random.default_rng(31)
    for seed in range(5):
        m = _random_matrix(rng, 20)
        fitted = fit_kmedoids(m, k=1, seed=seed)
        sums = m.sum(axis=1)
        assert fitted.medoid_indices == (int(sums.argmin()),)
        assert fitted.total_distance == pytest.approx(sums.min())
        assert np.all(fitted.assignment == 0)


def test_k_equals_n_puts_every_point_on_its_own():
    m = _random_matrix(np.random.default_rng(2), 8)
    fitted = fit_kmedoids(m, k=8, seed=0)
    assert fitted.medoid_indices == tuple(range(8))
    assert fitted.total_distance == 0.0
    assert np.array_equal(fitted.assignment, np.arange(8))


def test_fit_invariants_on_random_matrix():
    m = _random_matrix(np.random.default_rng(7), 40)
    fitted = fit_kmedoids(m, k=5, seed=3)

    medoids = np.array(fitted.medoid_indices)
    assert np.array_equal(medoids, np.sort(medoids))
    assert len(set(fitted.medoid_indices)) == 5
    assert fitted.assignment.min() >= 0 and fitted.assignment.max() < 5

    for cid, mi in enumerate(fitted.medoid_indices):
        assert fitted.assignment[mi] == cid
        assert fitted.distance_to_medoid[mi] == 0.0

    expected_dist = m[:, medoids].min(axis=1)
    assert np.array_equal(fitted.distance_to_medoid, expected_dist)
    assert fitted.total_distance == pytest.approx(expected_dist.sum())
    assert fitted.converged


def test_history_strictly_decreases_from_initial():
    m = _random_matrix(np.random.default_rng(13), 60)
    fitted = fit_kmedoids(m, k=4, seed=1)
    trace = (fitted.initial_total,) + fitted.td_history
    assert all(b < a for a, b in zip(trace, trace[1:]))
    if fitted.td_history:
        assert fitted.td_history[-1] == pytest.approx(fitted.total_distance)


def test_same_seed_reproduces_fit():
    m = _random_matrix(np.random.default_rng(19), 30)
    a = fit_kmedoids(m, k=3, seed=42)
    b = fit_kmedoids(m, k=3, seed=42)
    assert a.medoid_indices == b.medoid_indices
    assert np.array_equal(a.assignment, b.assignment)
    assert a.td_history == b.td_history
    assert a.total_distance == b.total_distance


def test_assignment_tie_goes_to_lower_medoid_index():
    # two tight pairs and a bridge point equidistant from all four;
    # the optimum always keeps one medoid per pair, so the bridge ties
    m = np.array(
        [
            [0.0, 2.0, 5.0, 20.0, 20.0],
            [2.0, 0.0, 5.0, 20.0, 20.0],
            [5.0, 5.0, 0.0, 5.0, 5.0],
            [20.0, 20.0, 5.0, 0.0, 2.0],
            [20.0, 20.0, 5.0, 2.0, 0.0],
        ]
    )
    for seed in range(8):
        fitted = fit_kmedoids(m, k=2, seed=seed)
        assert fitted.total_distance == pytest.approx(9.0)
        assert fitted.medoid_indices[0] in (0, 1)
        assert fitted.medoid_indices[1] in (3, 4)
        assert fitted.assignment[2] == 0
        assert fitted.distance_to_medoid[2] == 5.0


def _assert_same_fit(got, want):
    assert got.medoid_indices == want.medoid_indices
    assert got.td_history == want.td_history
    assert got.converged == want.converged
    assert got.initial_total == want.initial_total
    assert got.total_distance == want.total_distance
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.distance_to_medoid, want.distance_to_medoid)


@pytest.mark.parametrize("cohort_seed", [3, 8])
def test_matches_plain_pam_oracle_on_synthetic_cohorts(cohort_seed):
    trajectories, _, _ = generate_cohort(n_patients=90, seed=cohort_seed)
    m = distance_matrix(trajectories, WEIGHTS)
    n = m.shape[0]
    for k in (1, 2, 5, 20, n):
        for seed in range(3):
            _assert_same_fit(
                fit_kmedoids(m, k, seed=seed), helpers.oracle_fit_kmedoids(m, k, seed=seed)
            )


def test_matches_plain_pam_oracle_with_duplicate_points():
    # every point appears at least twice at distance zero, so many swaps
    # tie; n is larger than one screen block so ties also straddle block edges
    rng = np.random.default_rng(5)
    base = np.round(_random_matrix(rng, 150))
    copies = np.concatenate([np.arange(150), np.arange(150), rng.integers(0, 150, size=60)])
    rng.shuffle(copies)
    m = base[np.ix_(copies, copies)]
    assert np.any(m[~np.eye(len(copies), dtype=bool)] == 0.0)
    for k in (1, 2, 5, 20, len(copies)):
        for seed in range(3):
            _assert_same_fit(
                fit_kmedoids(m, k, seed=seed), helpers.oracle_fit_kmedoids(m, k, seed=seed)
            )


def test_validation_errors():
    m = _random_matrix(np.random.default_rng(1), 5)
    with pytest.raises(DataError):
        fit_kmedoids(m, k=0, seed=0)
    with pytest.raises(DataError):
        fit_kmedoids(m, k=6, seed=0)
    with pytest.raises(DataError):
        fit_kmedoids(np.zeros((3, 4)), k=1, seed=0)


def test_medoid_profile_minimizes_over_medoid_stays():
    traj = PatientTrajectory("A", (parse_code("05M091"),))
    medoid = PatientTrajectory("M", (parse_code("05M092"), parse_code("04M052")))
    assert medoid_profile(traj, medoid, WEIGHTS) == [40.0]


def test_medoid_profile_death_stay():
    traj = PatientTrajectory("A", (parse_code("05M092"), parse_code("Death")))
    medoid = PatientTrajectory("M", (parse_code("04M052"),))
    assert medoid_profile(traj, medoid, WEIGHTS) == [70.0, 255.0]


# a small code alphabet, so the two trajectories share codes and tie often
_codes = st.builds(
    StayCode,
    category=st.sampled_from(["05", "04", "50"]),
    care_type=st.sampled_from(list(helpers.CARE_TYPES)),
    counter=st.sampled_from(["09", "90"]),
    severity=st.sampled_from(list(helpers.SEVERITIES)),
)
# zeros and equal components come up often
_weights = st.lists(
    st.integers(0, 100) | st.sampled_from([0, 40]), min_size=4, max_size=4
).map(lambda w: MetricWeights(*sorted(w, reverse=True)))


@st.composite
def _trajectories(draw, patient_id):
    codes = draw(st.lists(_codes, min_size=1, max_size=6))
    if draw(st.booleans()):
        codes = codes[:-1] + [DEATH]  # a terminal death, or death alone
    return PatientTrajectory(patient_id, tuple(codes))


@settings(deadline=None, database=None)
@given(_trajectories("A"), _trajectories("M"), st.booleans(), _weights)
def test_medoid_profile_matches_the_per_pair_oracle(traj, other, own_medoid, weights):
    medoid = traj if own_medoid else other
    got = medoid_profile(traj, medoid, weights)
    assert repr(got) == repr(helpers.oracle_medoid_profile(traj, medoid, weights))
    if own_medoid:
        assert got == [0.0] * len(traj)
