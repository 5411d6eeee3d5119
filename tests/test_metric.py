import csv
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from carepath import metric
from carepath.codes import DEATH, StayCode, parse_code
from carepath.errors import DataError
from carepath.kmedoids import fit_kmedoids, medoid_profile
from carepath.metric import (
    MetricWeights,
    PatientTrajectory,
    code_distance,
    distance_matrix,
    save_matrix_binary,
    save_matrix_csv,
    trajectory_distance,
)
from carepath.patterns import _incidence
from carepath.pipeline import PipelineConfig, run_pipeline
from carepath.synthetic import generate_cohort

WEIGHTS = MetricWeights(85, 75, 55, 40)


def _traj(patient_id, *raw_codes):
    return PatientTrajectory(patient_id, tuple(parse_code(r) for r in raw_codes))


class TestWeights:
    def test_default_style_weights_accepted(self):
        assert WEIGHTS.as_tuple() == (85, 75, 55, 40)
        assert WEIGHTS.total == 255

    def test_unordered_weights_rejected(self):
        with pytest.raises(DataError):
            MetricWeights(40, 55, 75, 85)

    def test_out_of_range_weights_rejected(self):
        with pytest.raises(DataError):
            MetricWeights(120, 75, 55, 40)
        with pytest.raises(DataError):
            MetricWeights(85, 75, 55, -1)

    def test_non_integer_weights_rejected(self):
        with pytest.raises(DataError):
            MetricWeights(85.5, 75, 55, 40)

    def test_constructor_alone_owns_the_integer_rule(self):
        # a bool would reach manifest.ini as True, which no parser reads back
        for values in [(True, False, False, False), (np.int64(85), 75, 55, 40)]:
            with pytest.raises(DataError, match="weights must be integers"):
                MetricWeights(*values)
        got = MetricWeights.from_sequence([np.int64(5), 4, 3, 2])
        assert got.as_tuple() == (5, 4, 3, 2)
        assert type(got.category) is int

    def test_from_sequence(self):
        assert MetricWeights.from_sequence([85, 75, 55, 40]) == WEIGHTS
        with pytest.raises(DataError):
            MetricWeights.from_sequence([85, 75, 55])

    def test_from_sequence_takes_numpy_integers(self):
        got = MetricWeights.from_sequence(np.array([85, 75, 55, 40], dtype=np.int32))
        assert got == WEIGHTS
        assert all(type(w) is int for w in got.as_tuple())

    @pytest.mark.parametrize(
        "values",
        [[85.9, 75, 55, 40.2], [85.0, 75, 55, 40], ["85", 75, 55, 40], [85, 75, 55, True]],
    )
    def test_from_sequence_rejects_non_integers(self, values):
        with pytest.raises(DataError, match="weights must be integers"):
            MetricWeights.from_sequence(values)


class TestCodeDistance:
    def test_adjacent_severity_costs_one_severity_third(self):
        d = code_distance(parse_code("05M092"), parse_code("05M091"), WEIGHTS)
        assert d == 40.0

    def test_cross_category_example(self):
        d = code_distance(parse_code("05M092"), parse_code("04M052"), WEIGHTS)
        assert d == 70.0

    def test_identical_codes_are_zero(self):
        d = code_distance(parse_code("05M092"), parse_code("05M092"), WEIGHTS)
        assert d == 0.0

    def test_death_to_death_is_zero(self):
        assert code_distance(DEATH, DEATH, WEIGHTS) == 0.0

    def test_death_to_any_code_is_total_weight(self):
        assert code_distance(DEATH, parse_code("05M092"), WEIGHTS) == 255.0
        assert code_distance(parse_code("05M092"), DEATH, WEIGHTS) == 255.0

    def test_matches_oracle_on_random_codes(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            a, b = helpers.random_code(rng), helpers.random_code(rng)
            w = helpers.random_weights(rng)
            got = code_distance(a, b, w)
            want = helpers.oracle_code_distance(a, b, w)
            assert got == pytest.approx(want, abs=1e-12)
            assert got == code_distance(b, a, w)


class TestTrajectoryValidation:
    def test_empty_trajectory_rejected(self):
        with pytest.raises(DataError):
            PatientTrajectory("P0", ())

    def test_death_must_be_terminal(self):
        with pytest.raises(DataError):
            PatientTrajectory("P0", (DEATH, parse_code("05M092")))

    def test_death_must_be_unique(self):
        with pytest.raises(DataError):
            PatientTrajectory("P0", (DEATH, DEATH))

    def test_terminal_death_accepted(self):
        t = _traj("P0", "05M092", "Death")
        assert t.ends_in_death
        assert len(t) == 2
        assert t.renderings() == ("05M092", "Death")


class TestTrajectoryDistance:
    def test_length_mismatch_example(self):
        a = _traj("A", "05M092")
        b = _traj("B", "05M092", "04M052")
        assert trajectory_distance(a, b, WEIGHTS) == 35.0

    def test_identical_trajectories_are_zero(self):
        a = _traj("A", "05M092", "04M052", "Death")
        b = _traj("B", "05M092", "04M052", "Death")
        assert trajectory_distance(a, b, WEIGHTS) == 0.0

    def test_window_allows_one_position_slack(self):
        # shifted copy: every code finds its twin one position away
        a = _traj("A", "05M092", "04M052", "02C051")
        b = _traj("B", "04M052", "02C051", "05M092")
        got = trajectory_distance(a, b, WEIGHTS)
        want = helpers.oracle_trajectory_distance(a, b, WEIGHTS)
        assert got == want

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            a = helpers.random_trajectory(rng, "A")
            b = helpers.random_trajectory(rng, "B")
            w = helpers.random_weights(rng)
            got = trajectory_distance(a, b, w)
            assert got == pytest.approx(helpers.oracle_trajectory_distance(a, b, w), abs=1e-9)
            assert got == trajectory_distance(b, a, w)
            assert trajectory_distance(a, a, w) == 0.0

    def test_weight_scaling_is_linear(self):
        a = _traj("A", "05M092", "11K041")
        b = _traj("B", "04M052", "Death")
        base = MetricWeights(20, 15, 10, 5)
        double = MetricWeights(40, 30, 20, 10)
        assert trajectory_distance(a, b, double) == 2 * trajectory_distance(a, b, base)


class TestDistanceMatrix:
    def test_matches_pairwise_calls(self, small_cohort):
        trajectories = small_cohort[0][:25]
        m = distance_matrix(trajectories, WEIGHTS)
        assert m.shape == (25, 25)
        for i in range(25):
            for j in range(25):
                want = trajectory_distance(trajectories[i], trajectories[j], WEIGHTS)
                assert m[i, j] == want

    def test_empty_cohort_rejected(self):
        with pytest.raises(DataError, match="cohort is empty"):
            distance_matrix([], WEIGHTS)

    def test_symmetric_zero_diagonal(self, small_cohort):
        trajectories = small_cohort[0][:30]
        m = distance_matrix(trajectories, WEIGHTS)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_single_trajectory(self):
        m = distance_matrix([_traj("A", "05M092")], WEIGHTS)
        assert m.shape == (1, 1)
        assert m[0, 0] == 0.0

    def test_duplicate_patient_ids_rejected(self):
        pair = [_traj("A", "05M092"), _traj("A", "04M052")]
        with pytest.raises(DataError):
            distance_matrix(pair, WEIGHTS)


# a small code alphabet, so cohorts share codes and windows tie often
_codes = st.builds(
    StayCode,
    category=st.sampled_from(["05", "04", "11", "50"]),
    care_type=st.sampled_from(list(helpers.CARE_TYPES)),
    counter=st.sampled_from(["09", "05", "90"]),
    severity=st.sampled_from(list(helpers.SEVERITIES)),
)
_weights = st.lists(st.integers(0, 100), min_size=4, max_size=4).map(
    lambda w: MetricWeights(*sorted(w, reverse=True))
)


@st.composite
def _cohorts(draw, lengths=st.integers(1, 6), sizes=st.integers(1, 12), alphabet=_codes):
    cohort = []
    for index in range(draw(sizes)):
        length = draw(lengths)
        codes = draw(st.lists(alphabet, min_size=length, max_size=length))
        if draw(st.booleans()):
            codes = codes[:-1] + [DEATH]  # a terminal death, or death alone
        cohort.append(PatientTrajectory(f"P{index}", tuple(codes)))
    return cohort


@st.composite
def _uniform_cohorts(draw):
    length = draw(st.integers(1, 6))
    return draw(_cohorts(lengths=st.just(length)))


@st.composite
def _cohorts_with_a_long_one(draw):
    """Short trajectories and one of 12 to 16 stays, so most rows are padded."""
    cohort = draw(_cohorts(lengths=st.integers(1, 3), sizes=st.integers(1, 8)))
    long = PatientTrajectory("L", tuple(draw(st.lists(_codes, min_size=12, max_size=16))))
    cohort.insert(draw(st.integers(0, len(cohort))), long)
    return cohort


# a wide alphabet, so that a cohort's vocabulary outgrows a small temporary
_wide_codes = st.builds(
    StayCode,
    category=st.sampled_from([f"{i:02d}" for i in range(28)]),
    care_type=st.sampled_from(list(helpers.CARE_TYPES)),
    counter=st.sampled_from([f"{i:02d}" for i in range(40)]),
    severity=st.sampled_from(list(helpers.SEVERITIES)),
)


@st.composite
def _wide_cohorts(draw):
    """Cohorts of at least eight distinct codes: one patient holds them all."""
    vocab = draw(st.lists(_wide_codes, min_size=8, max_size=30, unique=True))
    cohort = draw(_cohorts(sizes=st.integers(1, 10), alphabet=st.sampled_from(vocab)))
    return cohort + [PatientTrajectory("V", tuple(vocab))]


# temporary sizes for the matrix pass: one-cell chunks and one-column
# blocks, chunk edges inside the cohort, and the default where a small
# cohort is one block
_block_cells = st.sampled_from([1, 7, metric._BLOCK_CELLS])


def _assert_matches_pairwise(cohort, weights, cells):
    want = np.array([[trajectory_distance(a, b, weights) for b in cohort] for a in cohort])
    with mock.patch.object(metric, "_BLOCK_CELLS", cells):
        got = distance_matrix(cohort, weights)
    assert np.array_equal(got, want)


class TestDistanceMatrixProperties:
    """``distance_matrix`` against pairwise ``trajectory_distance``, exactly."""

    @settings(deadline=None, database=None)
    @given(_cohorts(), _weights, _block_cells)
    def test_mixed_lengths(self, cohort, weights, cells):
        _assert_matches_pairwise(cohort, weights, cells)

    @settings(deadline=None, database=None)
    @given(_uniform_cohorts(), _weights, _block_cells)
    def test_all_patients_the_same_length(self, cohort, weights, cells):
        _assert_matches_pairwise(cohort, weights, cells)

    @settings(deadline=None, database=None)
    @given(_cohorts(lengths=st.just(1)), _weights, _block_cells)
    def test_length_one_trajectories(self, cohort, weights, cells):
        _assert_matches_pairwise(cohort, weights, cells)

    @settings(deadline=None, database=None)
    @given(_cohorts(sizes=st.just(1)), _weights, _block_cells)
    def test_single_patient(self, cohort, weights, cells):
        _assert_matches_pairwise(cohort, weights, cells)

    @settings(deadline=None, database=None)
    @given(_cohorts_with_a_long_one(), _weights, _block_cells)
    def test_one_long_trajectory_among_short_ones(self, cohort, weights, cells):
        _assert_matches_pairwise(cohort, weights, cells)

    @settings(deadline=None, database=None)
    @given(_wide_cohorts(), _weights, _block_cells)
    def test_vocabulary_wider_than_a_block(self, cohort, weights, cells):
        vocab, _ = metric._encode([t.codes for t in cohort])
        assert len(vocab) + 1 > 7  # a block of 7 cells is one column wide
        _assert_matches_pairwise(cohort, weights, cells)

    def test_temporaries_stay_within_the_block_bound(self):
        # the output is the only n x n array; an unbounded temporary of the
        # cohort's size would overrun the allowance of eight blocks
        cohort = generate_cohort(n_patients=600, seed=3)[0]
        codes, rows = metric._encode_cohort(cohort)
        table = metric._code_table(codes, WEIGHTS)
        tracemalloc.start()
        try:
            metric._matrix(table, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= len(rows) ** 2 * 8 + 8 * metric._BLOCK_CELLS * 8


# components that tie, differ in one character or are swapped ("AB" against
# "BA", Levenshtein 2), both kinds of severity, and the death marker
_table_codes = st.one_of(
    st.just(DEATH),
    st.builds(
        StayCode,
        category=st.sampled_from(["AB", "BA", "AA", "A0", "0A", "05", "50"]),
        care_type=st.sampled_from(list(helpers.CARE_TYPES)),
        counter=st.sampled_from(["09", "90", "05", "AB", "BA"]),
        severity=st.sampled_from(list(helpers.SEVERITIES)),
    ),
)
_table_weights = st.lists(
    st.one_of(st.sampled_from([0, 100]), st.integers(0, 100)), min_size=4, max_size=4
).map(lambda w: MetricWeights(*sorted(w, reverse=True)))


class TestCodeTable:
    @settings(deadline=None, database=None)
    @given(st.lists(_table_codes, min_size=1, max_size=60, unique=True), _table_weights)
    def test_matches_a_loop_over_the_oracle(self, codes, weights):
        want = np.array(
            [[helpers.oracle_code_distance(a, b, weights) for b in codes] for a in codes]
        )
        got = metric._code_table(codes, weights)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_stays_near_one_table(self):
        # 1000 distinct codes and Death: the pass may hold a byte or two per
        # cell beside the float table, but no second table-sized float array
        codes = [DEATH] + [
            StayCode(f"{i % 25:02d}", "CKM"[i % 3], f"{i // 25:02d}", "1234_"[i % 5])
            for i in range(1000)
        ]
        tracemalloc.start()
        try:
            table = metric._code_table(codes, WEIGHTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * table.nbytes


class TestNoPerPairCodeDistance:
    """The product builds code tables from arrays, never one pair at a time."""

    def test_tuned_run_and_medoid_profile(self, tmp_path):
        a, b = _traj("A", "05M092", "04M052"), _traj("B", "05M091", "Death")
        want = helpers.oracle_medoid_profile(a, b, WEIGHTS)
        with mock.patch.object(metric, "code_distance", side_effect=AssertionError):
            run_pipeline(
                PipelineConfig(
                    seed=2, out_dir=str(tmp_path / "run"), synth_patients=40,
                    tune_budget=2, trees=4,
                )
            )
            assert medoid_profile(a, b, WEIGHTS) == want


# categories that start with a digit or a letter, and both kinds of severity,
# so that first-seen order and rendering order disagree
_mixed_codes = st.builds(
    StayCode,
    category=st.sampled_from(["05", "0A", "A5", "AB", "Z0"]),
    care_type=st.sampled_from(["C", "M", "0"]),
    counter=st.sampled_from(["09", "A0"]),
    severity=st.sampled_from(["1", "A", "_"]),
)


class TestEncodingOrder:
    """Code ids rank renderings, so mining the id rows is mining the renderings."""

    @settings(deadline=None, database=None)
    @given(_cohorts(sizes=st.integers(1, 20), alphabet=_mixed_codes), st.integers(1, 4))
    def test_mining_ids_is_mining_renderings(self, cohort, max_len):
        codes, rows = metric._encode([t.codes for t in cohort])
        assert [c.render() for c in codes] == sorted(c.render() for c in set(codes))
        by_id = _incidence(rows, max_len)
        by_text = _incidence([t.renderings() for t in cohort], max_len)
        assert [tuple(codes[i].render() for i in p) for p in by_id.patterns] == by_text.patterns
        for name in ("lengths", "counts", "pid", "sid"):
            assert np.array_equal(getattr(by_id, name), getattr(by_text, name))


class TestMatrixSerialization:
    @pytest.fixture()
    def matrix_and_ids(self, small_cohort):
        trajectories = small_cohort[0][:12]
        ids = [t.patient_id for t in trajectories]
        return distance_matrix(trajectories, WEIGHTS), ids

    def test_csv_round_trip(self, matrix_and_ids, tmp_path):
        m, ids = matrix_and_ids
        path = tmp_path / "m.csv"
        save_matrix_csv(path, m, ids)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(ids)
        assert np.array_equal(np.array(rows, dtype=float), m)

    def test_binary_round_trip(self, matrix_and_ids, tmp_path):
        m, _ = matrix_and_ids
        path = tmp_path / "m.bin"
        save_matrix_binary(path, m)
        data = path.read_bytes()
        assert struct.unpack("<q", data[:8]) == (len(m),)
        assert np.array_equal(np.frombuffer(data[8:], dtype="<f8").reshape(m.shape), m)


# cells the writers must keep apart or format exactly: both zeros, both
# infinities, NaNs of either sign, the smallest subnormal and a huge value
_CELL_POOL = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e308, 0.1, 130.8, 1 / 3]
_ids = st.text(alphabet=st.sampled_from(list('aZ0 ,;"\'\n\r\té')), max_size=4)


@st.composite
def _matrices(draw):
    # 0x0 and 1x1, small, and sizes whose rows span several default blocks
    # with a partial last one
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 12), st.integers(130, 200)))
    pool = _CELL_POOL + draw(st.lists(st.floats(), max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    matrix = np.random.default_rng(seed).choice(np.array(pool), size=(n, n))
    return matrix, draw(st.lists(_ids, min_size=n, max_size=n))


class TestMatrixWritersMatchOracles:
    """Both writers are byte-equal to the plain per-cell writers."""

    @staticmethod
    def _assert_csv_matches(tmp_path, matrix, ids):
        save_matrix_csv(tmp_path / "got.csv", matrix, ids)
        helpers.oracle_save_matrix_csv(tmp_path / "want.csv", matrix, ids)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @settings(deadline=None, database=None, max_examples=60)
    @given(_matrices(), _block_cells)
    def test_csv(self, tmp_path_factory, matrix_and_ids, cells):
        with mock.patch.object(metric, "_BLOCK_CELLS", cells):
            self._assert_csv_matches(tmp_path_factory.mktemp("csv"), *matrix_and_ids)

    def test_csv_of_a_cohort_matrix(self, midsize_cohort, tmp_path):
        trajectories = midsize_cohort[0]
        matrix = distance_matrix(trajectories, WEIGHTS)
        self._assert_csv_matches(tmp_path, matrix, [t.patient_id for t in trajectories])

    _layouts = pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((0, 0)),
            np.arange(12.0).reshape(3, 4)[:, :3].T,
            np.array([[0.0, -0.0, np.inf], [np.nan, 5e-324, 1e308], [0.1, 2.0, 3.0]], ">f8"),
        ],
        ids=["empty", "transposed-view", "big-endian"],
    )

    @_layouts
    def test_csv_of_any_layout(self, tmp_path, matrix):
        self._assert_csv_matches(tmp_path, matrix, [f"P{i}" for i in range(len(matrix))])

    @_layouts
    def test_binary(self, tmp_path, matrix):
        save_matrix_binary(tmp_path / "m.bin", matrix)
        assert (tmp_path / "m.bin").read_bytes() == helpers.oracle_matrix_binary(matrix)

    @pytest.mark.parametrize(
        "matrix", [np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2)), np.float64(1.0)],
        ids=["1-d", "2x3", "3-d", "scalar"],
    )
    def test_non_square_matrix_rejected(self, tmp_path, matrix):
        ids = [f"P{i}" for i in range(len(np.atleast_1d(matrix)))]
        calls = [
            lambda: save_matrix_csv(tmp_path / "m.csv", matrix, ids),
            lambda: save_matrix_binary(tmp_path / "m.bin", matrix),
            lambda: fit_kmedoids(matrix, 1, seed=0),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(DataError, match="must be square") as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1  # the writers and PAM share one check
        assert list(tmp_path.iterdir()) == []

    def test_id_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError, match="patient id count"):
            save_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2)), ["P0"])
