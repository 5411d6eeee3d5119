"""CSV ingestion and export for trajectory and covariate tables, and
:func:`write_csv`, the one writer of every CSV table the program saves; only
the distance matrix, whose rows are formatted in bulk, and ``mine``'s output,
which can go to stdout, are written another way.

The trajectory table holds one row per hospitalization
(``patient_id, seq_index, code``); the covariate table holds one row per
patient (``patient_id, birth_year, sex, shock_flag, total_stay_days,
event, time_days``).  Hospitalization counts are always re-derived from the
trajectory, never read from input.  Error messages cite 1-based physical
row numbers, header included.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

from .codes import CodeError, parse_code
from .errors import DataError
from .metric import PatientTrajectory
from .survival import SurvivalRecord

TRAJECTORY_HEADER = ("patient_id", "seq_index", "code")
COVARIATE_HEADER = (
    "patient_id",
    "birth_year",
    "sex",
    "shock_flag",
    "total_stay_days",
    "event",
    "time_days",
)


class DatasetError(DataError):
    pass


def _check_header(path, row, expected) -> None:
    if tuple(row) != expected:
        raise DatasetError(
            f"{path}: expected header {','.join(expected)}, got {','.join(row)}"
        )


def _field(path, row_no, name, raw, parse):
    """``parse(raw)``, with a :class:`DatasetError` naming the row and field."""
    try:
        return parse(raw)
    except ValueError:
        raise DatasetError(f"{path} row {row_no}: bad {name} {raw!r}") from None


def _rows(path, expected):
    """The non-blank rows after the header, with their row numbers.  Bytes
    that do not decode and csv's own errors (such as a field over its size
    limit) raise :class:`DatasetError` naming the file."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path}: empty file")
            _check_header(path, header, expected)
            for row_no, row in enumerate(reader, start=2):
                if row:
                    yield row_no, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def load_trajectories(path) -> list[PatientTrajectory]:
    """Read and group the trajectory table; patients keep first-appearance order."""
    stays: dict[str, list[tuple[int, object]]] = {}
    seen: set[tuple[str, int]] = set()
    for row_no, row in _rows(path, TRAJECTORY_HEADER):
        if len(row) != 3:
            raise DatasetError(f"{path} row {row_no}: expected 3 fields, got {len(row)}")
        patient_id, seq_raw, code_raw = row
        seq_index = _field(path, row_no, "seq_index", seq_raw, int)
        try:
            code = parse_code(code_raw)
        except CodeError as exc:
            raise DatasetError(f"{path} row {row_no}: {exc}") from exc
        key = (patient_id, seq_index)
        if key in seen:
            raise DatasetError(
                f"{path} row {row_no}: duplicate seq_index {seq_index} "
                f"for patient {patient_id!r}"
            )
        seen.add(key)
        stays.setdefault(patient_id, []).append((seq_index, code))
    if not stays:
        raise DatasetError(f"{path}: no trajectory rows")
    out = []
    for patient_id, rows in stays.items():
        rows.sort(key=lambda x: x[0])
        out.append(PatientTrajectory(patient_id, tuple(code for _, code in rows)))
    return out


def load_dataset(
    trajectory_csv, covariate_csv
) -> tuple[list[PatientTrajectory], list[SurvivalRecord]]:
    """Load and join both tables; every trajectory must have a covariate row."""
    trajectories = load_trajectories(trajectory_csv)
    raw: dict[str, tuple[int, list[str]]] = {}
    for row_no, row in _rows(covariate_csv, COVARIATE_HEADER):
        if len(row) != len(COVARIATE_HEADER):
            raise DatasetError(
                f"{covariate_csv} row {row_no}: expected "
                f"{len(COVARIATE_HEADER)} fields, got {len(row)}"
            )
        if row[0] in raw:
            raise DatasetError(f"{covariate_csv} row {row_no}: duplicate patient {row[0]!r}")
        raw[row[0]] = (row_no, row)

    records = []
    for traj in trajectories:
        if traj.patient_id not in raw:
            raise DatasetError(
                f"{covariate_csv}: no covariate row for patient {traj.patient_id!r}"
            )
        row_no, row = raw[traj.patient_id]
        n_hosp = sum(1 for c in traj.codes if not c.is_death)
        try:
            records.append(
                SurvivalRecord(
                    patient_id=traj.patient_id,
                    birth_year=_field(covariate_csv, row_no, "birth_year", row[1], int),
                    sex=_field(covariate_csv, row_no, "sex", row[2], int),
                    n_hospitalizations=n_hosp,
                    shock_flag=_field(covariate_csv, row_no, "shock_flag", row[3], int),
                    total_stay_days=_field(
                        covariate_csv, row_no, "total_stay_days", row[4], int
                    ),
                    event=_field(covariate_csv, row_no, "event", row[5], int),
                    time=_field(covariate_csv, row_no, "time_days", row[6], float),
                )
            )
        except DataError as exc:
            if isinstance(exc, DatasetError):
                raise
            raise DatasetError(f"{covariate_csv} row {row_no}: {exc}") from exc
    return trajectories, records


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as CSV with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectories_csv(path, trajectories: Sequence[PatientTrajectory]) -> None:
    """Write one row per stay, each code as its rendering, which
    :func:`load_trajectories` reads back as the same code."""
    write_csv(
        path,
        TRAJECTORY_HEADER,
        (
            [traj.patient_id, seq_index, code.render()]
            for traj in trajectories
            for seq_index, code in enumerate(traj.codes)
        ),
    )


def write_covariates_csv(path, records: Sequence[SurvivalRecord]) -> None:
    write_csv(
        path,
        COVARIATE_HEADER,
        (
            [
                rec.patient_id,
                rec.birth_year,
                rec.sex,
                rec.shock_flag,
                rec.total_stay_days,
                rec.event,
                repr(rec.time),
            ]
            for rec in records
        ),
    )
