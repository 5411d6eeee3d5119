import numpy as np
import pytest

from carepath.codes import DEATH, StayCode
from carepath.dataio import (
    COVARIATE_HEADER,
    TRAJECTORY_HEADER,
    DatasetError,
    load_dataset,
    load_trajectories,
    write_covariates_csv,
    write_trajectories_csv,
)
from carepath.metric import PatientTrajectory
from carepath.survival import SurvivalRecord


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


TRAJ_HEADER = ",".join(TRAJECTORY_HEADER)
COV_HEADER = ",".join(COVARIATE_HEADER)


class TestLoadTrajectories:
    def test_groups_and_orders_rows(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv",
            [
                TRAJ_HEADER,
                "B,0,04M052",
                "A,0,05M092",
                "A,1,Death",
            ],
        )
        out = load_trajectories(path)
        assert [t.patient_id for t in out] == ["B", "A"]  # first appearance wins
        assert out[1].renderings() == ("05M092", "Death")

    def test_sorts_by_seq_index(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv",
            [TRAJ_HEADER, "A,2,Death", "A,0,05M092", "A,1,04M052"],
        )
        out = load_trajectories(path)
        assert out[0].renderings() == ("05M092", "04M052", "Death")

    def test_gappy_seq_index_is_fine(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv", [TRAJ_HEADER, "A,10,05M092", "A,40,04M052"]
        )
        assert load_trajectories(path)[0].renderings() == ("05M092", "04M052")

    def test_duplicate_position_rejected_with_row(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv",
            [TRAJ_HEADER, "A,0,05M092", "A,0,04M052"],
        )
        with pytest.raises(DatasetError, match="row 3"):
            load_trajectories(path)

    def test_bad_code_names_physical_row(self, tmp_path):
        rows = [TRAJ_HEADER] + [f"P{i},0,05M092" for i in range(5)] + ["PX,0,5M09"]
        path = write_lines(tmp_path / "t.csv", rows)
        with pytest.raises(DatasetError, match="row 7"):
            load_trajectories(path)

    def test_bad_seq_index_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,first,05M092"])
        with pytest.raises(DatasetError, match="bad seq_index"):
            load_trajectories(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", ["pid,idx,code", "A,0,05M092"])
        with pytest.raises(DatasetError, match="expected header"):
            load_trajectories(path)

    def test_empty_and_header_only_files_rejected(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(DatasetError, match="empty file"):
            load_trajectories(empty)
        header_only = write_lines(tmp_path / "h.csv", [TRAJ_HEADER])
        with pytest.raises(DatasetError, match="no trajectory rows"):
            load_trajectories(header_only)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0"])
        with pytest.raises(DatasetError, match="expected 3 fields"):
            load_trajectories(path)


class TestWriteTrajectories:
    def test_canonical_codes_round_trip(self, tmp_path):
        trajectories = [PatientTrajectory("A", (StayCode("05", "M", "09", "_"), DEATH))]
        path = tmp_path / "t.csv"
        write_trajectories_csv(path, trajectories)
        assert load_trajectories(path) == trajectories


class TestLoadDataset:
    def cohort_files(self, tmp_path, small_cohort):
        trajectories, records, _ = small_cohort
        tpath = tmp_path / "trajectories.csv"
        cpath = tmp_path / "covariates.csv"
        write_trajectories_csv(tpath, trajectories)
        write_covariates_csv(cpath, records)
        return tpath, cpath

    def test_round_trip(self, tmp_path, small_cohort):
        tpath, cpath = self.cohort_files(tmp_path, small_cohort)
        trajectories, records = load_dataset(tpath, cpath)
        assert trajectories == small_cohort[0]
        assert records == small_cohort[1]

    def test_blank_rows_are_skipped(self, tmp_path, small_cohort):
        tpath, cpath = self.cohort_files(tmp_path, small_cohort)
        want = load_dataset(tpath, cpath)
        for path in (tpath, cpath):
            path.write_text("\n\n".join(path.read_text().splitlines()) + "\n\n")
        assert load_dataset(tpath, cpath) == want

    def test_missing_covariate_row_names_patient(self, tmp_path):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        cpath = write_lines(
            tmp_path / "c.csv", [COV_HEADER, "B,1940,1,0,5,1,100.0"]
        )
        with pytest.raises(DatasetError, match="no covariate row for patient 'A'"):
            load_dataset(tpath, cpath)

    def test_duplicate_covariate_row_rejected(self, tmp_path):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        cpath = write_lines(
            tmp_path / "c.csv",
            [COV_HEADER, "A,1940,1,0,5,1,100.0", "A,1941,1,0,5,1,100.0"],
        )
        with pytest.raises(DatasetError, match="row 3: duplicate patient 'A'"):
            load_dataset(tpath, cpath)

    def test_invalid_field_value_names_row(self, tmp_path):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        cpath = write_lines(
            tmp_path / "c.csv", [COV_HEADER, "A,1940,9,0,5,1,100.0"]
        )
        with pytest.raises(DatasetError, match="row 2.*sex"):
            load_dataset(tpath, cpath)

    def test_unparseable_number_names_field(self, tmp_path):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        cpath = write_lines(
            tmp_path / "c.csv", [COV_HEADER, "A,1940,1,0,5,1,soon"]
        )
        with pytest.raises(DatasetError, match="bad time_days 'soon'"):
            load_dataset(tpath, cpath)

    def test_first_bad_column_is_named(self, tmp_path):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        cpath = write_lines(
            tmp_path / "c.csv", [COV_HEADER, "A,early,1,0,5,1,soon"]
        )
        with pytest.raises(DatasetError, match="row 2: bad birth_year 'early'"):
            load_dataset(tpath, cpath)

    @pytest.mark.parametrize(
        "row, width",
        [("A,1940,1,0,5,1", 6), ("A,1940,1,0,5,1,100.0,extra", 8)],
        ids=["short", "long"],
    )
    def test_wrong_covariate_width_names_row(self, tmp_path, row, width):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        cpath = write_lines(
            tmp_path / "c.csv", [COV_HEADER, "B,1950,2,1,9,0,1825.0", row]
        )
        with pytest.raises(DatasetError, match=f"row 3: expected 7 fields, got {width}$"):
            load_dataset(tpath, cpath)

    def test_extra_covariate_rows_are_ignored(self, tmp_path):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        cpath = write_lines(
            tmp_path / "c.csv",
            [COV_HEADER, "A,1940,1,0,5,1,100.0", "Z,1950,2,1,9,0,1825.0"],
        )
        trajectories, records = load_dataset(tpath, cpath)
        assert len(trajectories) == len(records) == 1

    def test_hospitalization_count_is_derived(self, tmp_path):
        tpath = write_lines(
            tmp_path / "t.csv",
            [TRAJ_HEADER, "A,0,05M092", "A,1,04M052", "A,2,Death"],
        )
        cpath = write_lines(
            tmp_path / "c.csv", [COV_HEADER, "A,1940,1,0,5,1,100.0"]
        )
        _, records = load_dataset(tpath, cpath)
        assert records[0].n_hospitalizations == 2

    def test_time_round_trips_exactly(self, tmp_path, small_cohort):
        tpath, cpath = self.cohort_files(tmp_path, small_cohort)
        _, records = load_dataset(tpath, cpath)
        for got, want in zip(records, small_cohort[1]):
            assert got.time == want.time

    def test_numpy_scalars_round_trip(self, tmp_path):
        tpath = write_lines(tmp_path / "t.csv", [TRAJ_HEADER, "A,0,05M092"])
        record = SurvivalRecord(
            patient_id="A",
            birth_year=np.int64(1940),
            sex=1,
            n_hospitalizations=1,
            shock_flag=0,
            total_stay_days=5,
            time=np.float64(100.5),
            event=1,
        )
        cpath = tmp_path / "c.csv"
        write_covariates_csv(cpath, [record])
        assert load_dataset(tpath, cpath)[1] == [record]
