"""CSV ingestion and export for trajectory and covariate tables, and
:func:`write_csv`, the one writer of every CSV table the program saves; only
the distance matrix, whose rows are formatted in bulk, and ``mine``'s output,
which can go to stdout, are written another way.

The trajectory table holds one row per hospitalization
(``patient_id, seq_index, code``); the covariate table holds one row per
patient, with the columns of ``_COVARIATE_COLUMNS``, which names each
column's :class:`SurvivalRecord` field and parser; the header, the loader
and the writer all read that one table.  Hospitalization counts are always
re-derived from the trajectory, never read from input.

:func:`_rows` owns the rules both tables share: the exact header, and a row
width equal to the header's.  Error messages cite 1-based physical row
numbers, header included.  Writers hand floats and ``None`` to
:func:`write_csv` as they are; the csv module writes a float as its
shortest round-trip text and ``None`` as an empty cell.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

from .codes import CodeError, parse_code
from .errors import DataError
from .metric import PatientTrajectory
from .survival import SurvivalRecord

TRAJECTORY_HEADER = ("patient_id", "seq_index", "code")
# (column, SurvivalRecord field, parser), in file order
_COVARIATE_COLUMNS = (
    ("patient_id", "patient_id", str),
    ("birth_year", "birth_year", int),
    ("sex", "sex", int),
    ("shock_flag", "shock_flag", int),
    ("total_stay_days", "total_stay_days", int),
    ("event", "event", int),
    ("time_days", "time", float),
)
COVARIATE_HEADER = tuple(column for column, _, _ in _COVARIATE_COLUMNS)


class DatasetError(DataError):
    pass


def _field(path, row_no, name, raw, parse):
    """``parse(raw)``, with a :class:`DatasetError` naming the row and field."""
    try:
        return parse(raw)
    except ValueError:
        raise DatasetError(f"{path} row {row_no}: bad {name} {raw!r}") from None


def _rows(path, header):
    """The non-blank rows after ``header``, with their row numbers; each must
    be as wide as ``header``.  Bytes that do not decode and csv's own errors
    (such as a field over its size limit) raise :class:`DatasetError` naming
    the file."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise DatasetError(f"{path}: empty file")
            if tuple(first) != header:
                raise DatasetError(
                    f"{path}: expected header {','.join(header)}, got {','.join(first)}"
                )
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DatasetError(
                        f"{path} row {row_no}: expected {len(header)} fields, got {len(row)}"
                    )
                yield row_no, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def load_trajectories(path) -> list[PatientTrajectory]:
    """Read and group the trajectory table; patients keep first-appearance order."""
    stays: dict[str, dict[int, object]] = {}
    for row_no, (patient_id, seq_raw, code_raw) in _rows(path, TRAJECTORY_HEADER):
        seq_index = _field(path, row_no, "seq_index", seq_raw, int)
        try:
            code = parse_code(code_raw)
        except CodeError as exc:
            raise DatasetError(f"{path} row {row_no}: {exc}") from exc
        codes = stays.setdefault(patient_id, {})
        if seq_index in codes:
            raise DatasetError(
                f"{path} row {row_no}: duplicate seq_index {seq_index} "
                f"for patient {patient_id!r}"
            )
        codes[seq_index] = code
    if not stays:
        raise DatasetError(f"{path}: no trajectory rows")
    return [
        PatientTrajectory(patient_id, tuple(codes[i] for i in sorted(codes)))
        for patient_id, codes in stays.items()
    ]


def load_dataset(
    trajectory_csv, covariate_csv
) -> tuple[list[PatientTrajectory], list[SurvivalRecord]]:
    """Load and join both tables; every trajectory must have a covariate row."""
    trajectories = load_trajectories(trajectory_csv)
    raw: dict[str, tuple[int, list[str]]] = {}
    for row_no, row in _rows(covariate_csv, COVARIATE_HEADER):
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
        fields = {
            name: _field(covariate_csv, row_no, column, cell, parse)
            for (column, name, parse), cell in zip(_COVARIATE_COLUMNS, row)
        }
        fields["n_hospitalizations"] = sum(1 for c in traj.codes if not c.is_death)
        try:
            records.append(SurvivalRecord(**fields))
        except DataError as exc:
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
        ([getattr(rec, name) for _, name, _ in _COVARIATE_COLUMNS] for rec in records),
    )
