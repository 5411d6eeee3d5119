import configparser
import csv
import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carepath
import helpers
from carepath import cli, pipeline
from carepath.codes import parse_code
from carepath.errors import DataError
from carepath.dataio import write_covariates_csv, write_trajectories_csv
from carepath.metric import MetricWeights, PatientTrajectory
from carepath.pipeline import (
    NONE_TOKEN,
    PipelineConfig,
    StageError,
    cohort_cox_aic,
    frequency_table,
    holdout_rsf,
    run_pipeline,
    sankey_flows,
    write_frequency_csv,
    _pattern_report_rows,
    _split_indices,
)
from carepath.survival import SurvivalRecord, covariate_matrix, cox_fit
from carepath.synthetic import default_archetypes, generate_cohort
from carepath.tuning import K_MAX


def _traj(pid, *raw):
    return PatientTrajectory(pid, tuple(parse_code(r) for r in raw))


CORE_ARTIFACTS = {
    "trajectories.csv",
    "covariates.csv",
    "distance_matrix.csv",
    "distance_matrix.bin",
    "assignments.csv",
    "patterns.csv",
    "frequency_global.csv",
    "medoid_profiles.csv",
    "metrics.csv",
    "manifest.ini",
}


class TestFrequencyTable:
    def test_hand_worked_columns(self):
        trajectories = [
            _traj("A", "05M092", "04M052"),
            _traj("B", "05M092"),
            _traj("C", "05M092", "02C051"),
        ]
        table = frequency_table(trajectories, positions=3, top_k=3)
        assert table.denominators == (3, 2, 0)
        assert table.columns[0] == (("05M092", 1.0),)
        assert table.columns[1] == (("02C051", 0.5), ("04M052", 0.5))
        assert table.columns[2] == ()

    def test_top_k_keeps_most_frequent(self):
        trajectories = [
            _traj("A", "05M092"),
            _traj("B", "05M092"),
            _traj("C", "04M052"),
            _traj("D", "02C051"),
        ]
        table = frequency_table(trajectories, positions=1, top_k=2)
        assert table.columns[0] == (("05M092", 0.5), ("02C051", 0.25))

    def test_validation(self):
        with pytest.raises(DataError):
            frequency_table([], positions=0, top_k=3)
        with pytest.raises(DataError):
            frequency_table([], positions=1, top_k=0)

    def test_csv_layout(self, tmp_path):
        trajectories = [_traj("A", "05M092", "04M052"), _traj("B", "05M092")]
        table = frequency_table(trajectories, positions=2, top_k=3)
        path = tmp_path / "freq.csv"
        write_frequency_csv(path, table)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "code,p0,p1"
        assert "04M052,,1.000000" in lines
        assert "05M092,1.000000," in lines


class TestSankeyFlows:
    def test_missing_successor_becomes_none_token(self):
        trajectories = [
            _traj("A", "05M092", "04M052"),
            _traj("B", "05M092"),
            _traj("C", "05M092", "04M052"),
        ]
        edges = sankey_flows(trajectories, [(0, 1)], top_k=5)
        got = {(e.source_code, e.target_code): e.count for e in edges}
        assert got == {("05M092", "04M052"): 2, ("05M092", NONE_TOKEN): 1}
        assert all(e.source_pos == 0 and e.target_pos == 1 for e in edges)

    def test_members_without_source_position_are_skipped(self):
        trajectories = [_traj("A", "05M092"), _traj("B", "05M092", "04M052", "Death")]
        edges = sankey_flows(trajectories, [(1, 2)], top_k=5)
        got = {(e.source_code, e.target_code): e.count for e in edges}
        assert got == {("04M052", "Death"): 1}

    def test_top_k_caps_each_pair(self):
        trajectories = [
            _traj("A", "05M092", "04M052"),
            _traj("B", "05M091", "04M051"),
            _traj("C", "05M093", "04M133"),
        ]
        edges = sankey_flows(trajectories, [(0, 1)], top_k=2)
        assert len(edges) == 2

    def test_ties_rank_by_source_then_target(self):
        trajectories = [
            _traj("A1", "05M092", "04M052"),
            _traj("A2", "05M092", "04M052"),
            _traj("B1", "05M091", "04M051"),
            _traj("B2", "05M091", "04M051"),
            _traj("C1", "05M091", "04M133"),
            _traj("C2", "05M091", "04M133"),
            _traj("D", "05M093"),
            _traj("E", "04M052", "Death"),
        ]
        edges = sankey_flows(trajectories, [(0, 1), (1, 2)], top_k=2)
        assert [
            (e.source_pos, e.source_code, e.target_pos, e.target_code, e.count)
            for e in edges
        ] == [
            (0, "05M091", 1, "04M051", 2),
            (0, "05M091", 1, "04M133", 2),
            (1, "04M051", 2, NONE_TOKEN, 2),
            (1, "04M052", 2, NONE_TOKEN, 2),
        ]
        singles = sankey_flows(trajectories, [(0, 1)], top_k=5)[3:]
        assert [(e.source_code, e.target_code, e.count) for e in singles] == [
            ("04M052", "Death", 1),
            ("05M093", NONE_TOKEN, 1),
        ]
        assert sankey_flows(trajectories, [(0, 1)], top_k=0) == []
        with pytest.raises(DataError):
            sankey_flows(trajectories, [(0, 1)], top_k=-1)

    def test_non_consecutive_pair_rejected(self):
        with pytest.raises(DataError):
            sankey_flows([], [(0, 2)], top_k=3)
        with pytest.raises(DataError):
            sankey_flows([], [(-1, 0)], top_k=3)

    def test_counts_match_bigram_tallies(self, midsize_cohort):
        rng = np.random.default_rng(2)
        trajectories = midsize_cohort[0]
        for _ in range(20):
            take = rng.choice(len(trajectories), size=30, replace=False)
            sample = [trajectories[i] for i in take]
            edges = sankey_flows(sample, [(0, 1), (1, 2)], top_k=10_000)
            got = {
                (e.source_pos, e.source_code, e.target_code): e.count for e in edges
            }
            want: Counter = Counter()
            for t in sample:
                rendered = t.renderings()
                for pos in (0, 1):
                    if len(rendered) > pos:
                        target = rendered[pos + 1] if len(rendered) > pos + 1 else NONE_TOKEN
                        want[(pos, rendered[pos], target)] += 1
            assert got == dict(want)


_sequences = st.lists(st.sampled_from("abcd"), min_size=1, max_size=6)


class TestPatternReport:
    @settings(deadline=None, database=None, max_examples=150)
    @given(st.lists(_sequences, min_size=1, max_size=30), st.data())
    def test_rows_match_mining_each_scope(self, db, data):
        k = data.draw(st.integers(1, 5))
        n = len(db)
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        cfg = PipelineConfig(
            synth_patients=1,
            min_support=data.draw(st.integers(1, 4)),
            mining_max_len=data.draw(st.integers(1, 4)),
            top_k=data.draw(st.integers(0, 6)),
        )
        want = helpers.oracle_pattern_report_rows(
            db, labels, k, cfg.min_support, cfg.mining_max_len, cfg.top_k
        )
        codes = sorted({item for seq in db for item in seq})
        rows = [[codes.index(item) for item in seq] for seq in db]
        assert _pattern_report_rows(codes, rows, labels, k, cfg) == want


class TestSplitIndices:
    def test_partition_properties(self):
        train, test = _split_indices(10, 0.25, seed=3)
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))
        assert len(test) == 2
        again = _split_indices(10, 0.25, seed=3)
        assert np.array_equal(train, again[0]) and np.array_equal(test, again[1])

    def test_extreme_sizes_keep_both_sides_nonempty(self):
        train, test = _split_indices(3, 0.9, seed=0)
        assert len(train) >= 1 and len(test) >= 1


class TestSurvivalHelpers:
    def test_cox_aic_none_on_constant_covariates(self, midsize_cohort):
        records = [midsize_cohort[1][0]] * 30
        assert cohort_cox_aic(records) is None

    def test_cox_aic_on_varied_cohort(self, midsize_cohort):
        value = cohort_cox_aic(midsize_cohort[1])
        assert value is not None and np.isfinite(value)

    @settings(deadline=None, database=None)
    @given(st.data(), st.integers(0, 12), st.booleans())
    def test_cox_aic_fits_the_columns_np_unique_finds_varying(self, data, n, use_age):
        # each covariate takes one or two values, so constant columns come up often
        def field(values):
            pool = data.draw(st.lists(values, min_size=1, max_size=2, unique=True))
            return [data.draw(st.sampled_from(pool)) for _ in range(n)]

        columns = zip(
            field(st.integers(1930, 2000)),
            field(st.sampled_from([1, 2])),
            field(st.integers(0, 4)),
            field(st.sampled_from([0, 1])),
            field(st.integers(0, 60)),
            field(st.integers(1, 400)),
            field(st.sampled_from([0, 1])),
        )
        records = [SurvivalRecord(f"P{i}", *row) for i, row in enumerate(columns)]
        X = covariate_matrix(records, use_age=use_age)
        keep = np.array([np.unique(X[:, j]).size > 1 for j in range(X.shape[1])])
        with mock.patch("carepath.pipeline.cox_fit", wraps=cox_fit) as fit:
            aic = cohort_cox_aic(records, use_age=use_age)
        if keep.any():
            assert np.array_equal(fit.call_args.kwargs["covariates"], X[:, keep])
        else:
            assert aic is None and not fit.called

    def test_cox_aic_of_an_unconverged_fit_is_none(self, midsize_cohort):
        records = midsize_cohort[1]

        def one_step(*args, **kwargs):
            return cox_fit(*args, max_iter=1, **kwargs)

        with mock.patch("carepath.pipeline.cox_fit", one_step):
            assert cohort_cox_aic(records) is None
        assert cohort_cox_aic(records) is not None

    def test_holdout_rsf_tiny_group(self, midsize_cohort):
        assert holdout_rsf(midsize_cohort[1][:3], trees=5, mtry=None, seed=0) == (None, None)

    def test_holdout_rsf_returns_forest(self, midsize_cohort):
        cidx, forest = holdout_rsf(midsize_cohort[1], trees=10, mtry=None, seed=1)
        assert forest is not None
        assert 0.0 <= cidx <= 1.0


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(DataError):
            PipelineConfig().validate()
        with pytest.raises(DataError):
            PipelineConfig(
                synth_patients=10, trajectory_csv="t.csv", covariate_csv="c.csv"
            ).validate()
        # a negative size is its own error, even next to both CSV paths
        with pytest.raises(DataError, match="synth_patients must be >= 0"):
            PipelineConfig(
                synth_patients=-5, trajectory_csv="t.csv", covariate_csv="c.csv"
            ).validate()
        with pytest.raises(DataError, match="synth_patients must be >= 0"):
            PipelineConfig(synth_patients=-5).validate()
        # below one patient per archetype, which generate_cohort needs
        minimum = len(default_archetypes())
        for size in (1, minimum - 1):
            with pytest.raises(DataError, match=f"synth_patients must be >= {minimum}"):
                PipelineConfig(synth_patients=size, k=1).validate()
        PipelineConfig(synth_patients=minimum, k=1).validate()
        PipelineConfig(synth_patients=10).validate()
        PipelineConfig(trajectory_csv="t.csv", covariate_csv="c.csv").validate()

    def test_rejects_bad_geometry(self):
        with pytest.raises(DataError):
            PipelineConfig(synth_patients=10, k=0).validate()
        with pytest.raises(DataError):
            PipelineConfig(synth_patients=10, test_size=1.5).validate()
        with pytest.raises(DataError):
            PipelineConfig(synth_patients=10, trees=0).validate()
        with pytest.raises(DataError):
            PipelineConfig(synth_patients=10, mtry=0).validate()
        PipelineConfig(synth_patients=10, mtry=1).validate()

    def test_settings_are_the_fields_in_order(self):
        names = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert [name for name, _, _ in pipeline.SETTINGS.values()] == names

    @pytest.mark.parametrize(
        "name, least",
        [(name, least) for name, _, least in pipeline.SETTINGS.values() if least is not None],
    )
    def test_each_bounded_setting_is_checked_at_its_bound(self, name, least):
        # checked whether or not the run uses it: a CSV run draws no cohort
        source = dict(trajectory_csv="t.csv", covariate_csv="c.csv")
        with pytest.raises(DataError, match=f"^{name} must be >= {least}$"):
            PipelineConfig(**source, **{name: least - 1}).validate()
        PipelineConfig(**source, **{name: least}).validate()

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_horizon_for_any_source(self, horizon):
        for source in (
            dict(synth_patients=10),
            dict(trajectory_csv="t.csv", covariate_csv="c.csv"),
        ):
            with pytest.raises(DataError, match="horizon_days must be positive"):
                PipelineConfig(**source, horizon_days=horizon).validate()

    def test_k_above_synthetic_cohort_size(self):
        with pytest.raises(DataError, match="k=11 exceeds point count 10"):
            PipelineConfig(synth_patients=10, k=11).validate()
        PipelineConfig(synth_patients=10, k=10).validate()
        # a tuned run picks its own k, up to K_MAX; a CSV cohort's size is not known yet
        with pytest.raises(DataError, match=f"synth_patients >= {K_MAX}"):
            PipelineConfig(synth_patients=K_MAX - 1, k=11, tune_budget=2).validate()
        PipelineConfig(synth_patients=K_MAX, k=K_MAX + 1, tune_budget=2).validate()
        PipelineConfig(trajectory_csv="t.csv", covariate_csv="c.csv", k=11).validate()


class TestRunPipeline:
    def config(self, tmp_path, **overrides):
        base = dict(
            seed=5,
            out_dir=str(tmp_path / "run"),
            synth_patients=60,
            k=4,
            trees=8,
            top_k=3,
        )
        base.update(overrides)
        return PipelineConfig(**base)

    def test_synth_run_produces_artifacts(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        produced = {p.name for p in result.out_dir.iterdir()}
        assert CORE_ARTIFACTS <= produced
        assert {f"sankey_cluster_{c}.csv" for c in range(4)} <= produced
        assert result.k == 4
        assert not result.tuned
        assert result.weights == MetricWeights(85, 75, 55, 40)
        assert len(result.records) == 60
        assert len(result.metrics) == 4
        assert [m.cluster for m in result.metrics] == [0, 1, 2, 3]
        assert sorted(m.size for m in result.metrics) == sorted(
            np.bincount(result.clustering.assignment, minlength=4).tolist()
        )
        assert result._matrix is None  # the n x n matrix is not kept past clustering

    def test_reruns_are_byte_identical(self, tmp_path):
        a = run_pipeline(self.config(tmp_path, out_dir=str(tmp_path / "a")))
        b = run_pipeline(self.config(tmp_path, out_dir=str(tmp_path / "b")))
        names_a = sorted(p.name for p in a.out_dir.iterdir())
        names_b = sorted(p.name for p in b.out_dir.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()

    def test_seed_changes_the_run(self, tmp_path):
        a = run_pipeline(self.config(tmp_path, out_dir=str(tmp_path / "a"), seed=1))
        b = run_pipeline(self.config(tmp_path, out_dir=str(tmp_path / "b"), seed=2))
        assert (a.out_dir / "trajectories.csv").read_bytes() != (
            b.out_dir / "trajectories.csv"
        ).read_bytes()

    def test_metrics_csv_has_one_row_per_cluster(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        lines = (result.out_dir / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "cluster,size,aic,c_index"
        assert len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_manifest_pins_the_run(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        parser = configparser.ConfigParser()
        parser.read(result.out_dir / "manifest.ini")
        assert parser["run"]["seed"] == "5"
        assert parser["metric"]["weights"] == "85,75,55,40"
        assert parser["metric"]["tuned"] == "false"
        assert parser["cluster"]["k"] == "4"
        assert parser["data"]["synth_patients"] == "60"
        assert set(parser["versions"]) == {"carepath", "python", "numpy"}

    def test_tuned_run_logs_trials(self, tmp_path):
        cfg = self.config(tmp_path, synth_patients=40, tune_budget=2, trees=5)
        result = run_pipeline(cfg)
        assert result.tuned
        log = (result.out_dir / "trial_log.csv").read_text().strip().splitlines()
        assert log[0] == "trial_index,w1,w2,w3,w4,k,score,wall_ms"
        assert len(log) == 3
        parser = configparser.ConfigParser()
        parser.read(result.out_dir / "manifest.ini")
        assert parser["metric"]["tuned"] == "true"
        assert parser["metric"]["weights"] == ",".join(
            str(w) for w in result.weights.as_tuple()
        )

    def test_csv_source_run(self, tmp_path):
        trajectories, records, _ = generate_cohort(40, seed=3)
        tpath = tmp_path / "t.csv"
        cpath = tmp_path / "c.csv"
        write_trajectories_csv(tpath, trajectories)
        write_covariates_csv(cpath, records)
        cfg = self.config(
            tmp_path,
            synth_patients=0,
            trajectory_csv=str(tpath),
            covariate_csv=str(cpath),
            k=3,
        )
        result = run_pipeline(cfg)
        assert len(result.trajectories) == 40
        produced = {p.name for p in result.out_dir.iterdir()}
        assert "trajectories.csv" not in produced  # inputs are not re-written
        parser = configparser.ConfigParser()
        parser.read(result.out_dir / "manifest.ini")
        assert parser["data"]["trajectories"] == str(tpath)

    def test_negative_seed_rejected_up_front(self, tmp_path):
        with pytest.raises(DataError, match="seed must be >= 0"):
            run_pipeline(self.config(tmp_path, seed=-1))
        assert not (tmp_path / "run").exists()

    def test_non_empty_out_dir_rejected_up_front(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        with pytest.raises(DataError, match="not empty"):
            run_pipeline(self.config(tmp_path))
        assert (out / "keep.txt").read_text() == "precious"

    def test_failing_stage_is_named_and_cleaned_up(self, tmp_path):
        # a CSV cohort's size is known only once loaded, so k > n fails a stage
        tpath, cpath = _csv_inputs(tmp_path / "inputs")
        cfg = self.config(
            tmp_path, synth_patients=0, trajectory_csv=tpath, covariate_csv=cpath, k=50
        )
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == "clustering"
        assert isinstance(excinfo.value.cause, DataError)
        assert not (tmp_path / "run").exists()

    def test_missing_input_fails_in_data_stage(self, tmp_path):
        cfg = self.config(
            tmp_path,
            synth_patients=0,
            trajectory_csv=str(tmp_path / "missing.csv"),
            covariate_csv=str(tmp_path / "missing2.csv"),
        )
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == "data"
        assert isinstance(excinfo.value.cause, FileNotFoundError)
        assert not (tmp_path / "run").exists()

    def test_frequency_tables_cover_deceased_only(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        table = (result.out_dir / "frequency_global.csv").read_text().splitlines()
        n_dead = sum(1 for t in result.trajectories if t.ends_in_death)
        # column p0 proportions are over deceased trajectories only
        anchored = [line for line in table if line.startswith("05M092,")]
        assert anchored and anchored[0].split(",")[1] == "1.000000"
        assert n_dead > 0

    def test_medoid_profiles_match_the_per_pair_oracle(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        with open(result.out_dir / "assignments.csv", newline="") as fh:
            assigned = list(csv.DictReader(fh))
        by_id = {t.patient_id: t for t in result.trajectories}
        medoid_of = {
            row["cluster"]: by_id[row["patient_id"]]
            for row in assigned
            if row["is_medoid"] == "1"
        }
        want = []
        for row in assigned:
            pid, cid = row["patient_id"], row["cluster"]
            profile = helpers.oracle_medoid_profile(by_id[pid], medoid_of[cid], result.weights)
            want += [[pid, cid, str(pos), repr(d)] for pos, d in enumerate(profile)]
        with open(result.out_dir / "medoid_profiles.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["patient_id", "cluster", "position", "distance"]
        assert rows == want

    def test_assignments_cover_every_patient(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        lines = (result.out_dir / "assignments.csv").read_text().strip().splitlines()
        assert len(lines) == 61
        medoid_flags = [line.split(",")[3] for line in lines[1:]]
        assert medoid_flags.count("1") == 4

    def test_artifact_bytes_are_pinned(self, tmp_path):
        cfg = PipelineConfig(
            seed=13, out_dir=str(tmp_path / "run"), synth_patients=120, k=3, trees=10
        )
        assert _artifact_digests(run_pipeline(cfg).out_dir) == PINNED_DIGESTS

    def test_tuned_artifact_bytes_are_pinned(self, tmp_path):
        cfg = PipelineConfig(
            seed=13, out_dir=str(tmp_path / "run"), synth_patients=120, tune_budget=3, trees=10
        )
        result = run_pipeline(cfg)
        assert (result.k, result.weights) == (13, MetricWeights(38, 15, 12, 5))
        assert _artifact_digests(result.out_dir) == PINNED_TUNED_DIGESTS


# a call made inside each step, in step order; write_csv is shared by several
# steps, so it fails only on the profiles step's file
STEP_CALLS = [
    ("data", "generate_cohort"),
    ("tuning", "tune_search"),
    ("distance", "_matrix"),
    ("clustering", "fit_kmedoids"),
    ("patterns", "_pattern_report_rows"),
    ("frequency", "frequency_table"),
    ("sankey", "sankey_flows"),
    ("profiles", "write_csv"),
    ("survival", "cohort_cox_aic"),
    ("manifest", "setting_text"),
]


class TestStageErrors:
    def test_calls_cover_every_step(self):
        assert [stage for stage, _ in STEP_CALLS] == [name for name, _ in pipeline._STEPS]

    @pytest.mark.parametrize("stage, call", STEP_CALLS, ids=[s for s, _ in STEP_CALLS])
    def test_failure_is_named_and_cleaned_up(self, tmp_path, monkeypatch, stage, call):
        real = getattr(pipeline, call)
        fault = RuntimeError(f"{call} broke")

        def failing(*args, **kwargs):
            if call == "write_csv" and args[0].name != "medoid_profiles.csv":
                return real(*args, **kwargs)
            raise fault

        monkeypatch.setattr(pipeline, call, failing)
        cfg = PipelineConfig(
            seed=5, out_dir=str(tmp_path / "run"), synth_patients=40, tune_budget=2, trees=4
        )
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == stage
        assert excinfo.value.cause is fault
        assert str(excinfo.value) == f"stage {stage!r} failed: {call} broke"
        assert not (tmp_path / "run").exists()


def _artifact_digests(out) -> dict[str, str]:
    """sha256 of every file of a run but manifest.ini, whose text
    TestManifestText pins; trial_log.csv is hashed without its last column,
    the wall-clock ``wall_ms``."""
    digests = {}
    for path in out.iterdir():
        data = path.read_bytes()
        if path.name == "trial_log.csv":
            data = b"\r\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\r\n"))
        if path.name != "manifest.ini":
            digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


# the digests of the two 120-patient runs, other settings at their defaults;
# recorded under Python 3.11 and numpy 2.4 on x86-64
PINNED_DIGESTS = {
    "assignments.csv": "863c611eb7353eeade060e45881039e22eeff8eb6b9b893fcc3cb3f567fad3d6",
    "covariates.csv": "414a5239cbc6c8411fcf9e8f578674aa105ceb500d35a1e77512b9b55c4b02cb",
    "distance_matrix.bin": "6c1a58e32c79efabfe655325422979d93ab5c7edc02ec2b28e56f3861130fdb0",
    "distance_matrix.csv": "c77daca9b7d44cadacb644f636099dfb9a81ca63bb12eaa9299d4c2b4de17f48",
    "frequency_cluster_0.csv": "1dcb1f3328bbbe380719833af997f2dae8f843d3f89afd972daf003b131d2098",
    "frequency_cluster_1.csv": "c28b85eadf8ba340c67f3b5f7f64544c3009df23363c85018b7f8f1d98e56fcc",
    "frequency_cluster_2.csv": "2b734bbf92dce72de10a5a486bc0a4d845ecd36bfcf076fd6752bcd8e00dc111",
    "frequency_global.csv": "d24d82b8aac8ce5635cc3da1aab73dce5a1de210011cc5f54431f5fa990466b7",
    "medoid_profiles.csv": "bb1ac80df3972c68c85237c80dd67bb64a3b35f7fcae2cc6acab3764fd2fa1d1",
    "metrics.csv": "5b85fe445da4f84363bbd98a02c2afe4c44447bdd0b656505f8272d0a555618b",
    "patterns.csv": "6e8decab63ecdb033ac188e3a1e8513e534d45c848d7f2fd144107ef3043903e",
    "sankey_cluster_0.csv": "9161cfc96a4ef5a66c4fc27ca98764ed399b54df2fe7b8c1f26a19203768e937",
    "sankey_cluster_1.csv": "5c155b70bfde7254524a7485d23cd7dbeee4b4e00026716618d87a0c9537ce96",
    "sankey_cluster_2.csv": "d92e97a86b6e9309ef6299ea4d82394c0e0a6ed53939ce4498c3b13a15e6ed4c",
    "scenarios_cluster_0.csv": "7f9daf6805f6c8100b6deb6a017ec992a1414590124bdeadecfbf234f2caaa7a",
    "scenarios_cluster_1.csv": "b7d3e947c8c81f6c8b80e39d15bc566633847a9f7261287ef8f18058f225d440",
    "scenarios_cluster_2.csv": "0c327f0706868f02cb0ea4ae719ba1c168ced7170114fea6bb4d371867e59683",
    "trajectories.csv": "6aa1694003db5810b284ebc5c542f32cc084dddc4626a622f84e5ba6307d33d6",
}

PINNED_TUNED_DIGESTS = {
    "assignments.csv": "559d1858bb1d3c6b268a36cfa9daabfe1fe95626de1ad8b0b2a9c6e9b5a4287f",
    "covariates.csv": "414a5239cbc6c8411fcf9e8f578674aa105ceb500d35a1e77512b9b55c4b02cb",
    "distance_matrix.bin": "3a2eb7d2da621dc230c2e9254530fd90e2d4055e4262a2e4c970c54010e8ab0e",
    "distance_matrix.csv": "afa43d7708bdc46094ebe2ec5c0dec5672b92a9ff33a5dd541d3d4122a979edf",
    "frequency_cluster_0.csv": "893b759f95518ea468ea3a432e4344ea35a1d0f55e05c3a3b1c58489d3d456d7",
    "frequency_cluster_1.csv": "3f5af5acac2561b732bcda57bcf8d6ce67b862a4274f23e8c53d202a1368fd03",
    "frequency_cluster_10.csv": "2b178ce456195279a4372eb924688f1402f42d0beb0ae1b0ab8d38f448b221f5",
    "frequency_cluster_11.csv": "9ff170b259af552a84b7bcf9b434f631d091720969afa65afee57a297495a70f",
    "frequency_cluster_12.csv": "5eb1968b399a806a9365d6f485f9fd3b5ce2e87912e675f7011e8ecf0a4ea419",
    "frequency_cluster_2.csv": "78db20309d645ad62a96afbe65326153cdb3831e20c415ec5b14e2a80537452e",
    "frequency_cluster_3.csv": "c14abf1f3097f453910469c6ca5748efbf15b861fba8d8b9edf096e7204c62d1",
    "frequency_cluster_4.csv": "30bfd82858c0ec5a98f16edd9977a7029889cb51905d3d31d75121d517fac632",
    "frequency_cluster_6.csv": "c28b85eadf8ba340c67f3b5f7f64544c3009df23363c85018b7f8f1d98e56fcc",
    "frequency_cluster_7.csv": "5eb6bf510ad2820ca54cae230abfca0c201a2f94b0ac675f8894d6c8864b8b13",
    "frequency_cluster_8.csv": "42bf1604ec752b3e25df39dd70fc1fa9515fd059bfaf9db8415d4f7570da862d",
    "frequency_cluster_9.csv": "e55d0f1ab0f1b7914ee7b8e25bbbb18320fe440545cf45625d0f9bc83bc89603",
    "frequency_global.csv": "d24d82b8aac8ce5635cc3da1aab73dce5a1de210011cc5f54431f5fa990466b7",
    "medoid_profiles.csv": "7de682cc1c279ab1f11fb5746f05cc268ec8af9dba0cf1be074a8d7c51d17c93",
    "metrics.csv": "c89256af633bd6572e8f3a521fb0ea3404911d63e8e4f88fd912d680e336fad5",
    "patterns.csv": "47d9ae51155598c205c562182c40f3598ab1b03ae065b98ea04e12a5774ccb9e",
    "sankey_cluster_0.csv": "d864cc0803241f6d5ef49e54eef69306c10cdf76c545eb342a2de2532530875f",
    "sankey_cluster_1.csv": "06b7096b43b188a8a089de393af2e2a4fe54e115a7345587a4fa053f76d9cee5",
    "sankey_cluster_10.csv": "30174785d9ece2f5a54a4f5cb4725f4cab820ffcb36d2d0f92ff1c0ace6701f3",
    "sankey_cluster_11.csv": "581303c6fc217d6d97988b7a1dc9bf9a4824301b355cef778c786cc9267ab6b9",
    "sankey_cluster_12.csv": "67eff481ccbd9405c9446c8976cf991ec64313929067b2e366ee0ea3ad85019f",
    "sankey_cluster_2.csv": "63081360fc941769e26509210a45b747e635ca7643616ce62e9baa04c5626313",
    "sankey_cluster_3.csv": "48e730d742575d6c82154e149e1da716b476d91f9f4fffa9ab419ba048777605",
    "sankey_cluster_4.csv": "2901b901c7a9bb1deacbac363acd86a3048179274593db5a9c0824bf0c41a8b4",
    "sankey_cluster_5.csv": "edc68fb9abfde9cf7a93fe09e5df0d7c45726ecb0b3778b5aabef47a27cd6aef",
    "sankey_cluster_6.csv": "dc6f83560bd255cf284b8cfd4de9741a5d57724887f1382907fe345615c39545",
    "sankey_cluster_7.csv": "3b6de64e3ec6fd0f950fc10d89abfeecb66f685df9b408262dc177a582279b52",
    "sankey_cluster_8.csv": "dec1fc583ac2867fd984e4b5d04c686b095dc181d3e23eeda3c5e202b681016b",
    "sankey_cluster_9.csv": "a85e4ed731729b55d35cf4a1f477183645a90b3cb02fccba3672d5a37cf60b0f",
    "scenarios_cluster_0.csv": "461ff0ffc800638c13bdcafb9c6e2ee9dfb4d22f814a29ce6686fc147f64e980",
    "scenarios_cluster_10.csv": "db9a4d6f758a6c58404700ae7a55c2186811dfa7a67cfcdaed842637491270e1",
    "scenarios_cluster_2.csv": "d7635431c623477289164455fbafb366cbc7ceec904a19c544c2ee19563e18b8",
    "scenarios_cluster_3.csv": "6da0f5df99a0c7b514d639a5dd0e1ce242b087d7985615d863575bd2abb961f4",
    "scenarios_cluster_4.csv": "f8dff9ae809a9701788feeceff71ef1c82599aa7898e823f289cbb2b691e12d0",
    "scenarios_cluster_6.csv": "0d57bf0fd1e9b21315d12a4dfe1094cd1b2df98886e4e149b74959e58ee0470b",
    "scenarios_cluster_7.csv": "18a4730384f8da41e5f1424164805860630a63d615c590056597a7fde558eb6f",
    "scenarios_cluster_9.csv": "d5f0a3d27ba8d28424d5faa6d4ad6e47867f1fc4531591fd08be5afaebd5a3f2",
    "trajectories.csv": "6aa1694003db5810b284ebc5c542f32cc084dddc4626a622f84e5ba6307d33d6",
    "trial_log.csv": "ae1f69ed12d4463632af11b6ec3568d2d946e3d914e74f80f5dd5e1ff442e0f6",
}


def _versions_section() -> str:
    return (
        "[versions]\n"
        f"carepath = {carepath.__version__}\n"
        f"python = {platform.python_version()}\n"
        f"numpy = {np.__version__}\n\n"
    )


def _csv_inputs(directory) -> tuple[str, str]:
    trajectories, records, _ = generate_cohort(40, seed=3)
    directory.mkdir()
    write_trajectories_csv(directory / "t.csv", trajectories)
    write_covariates_csv(directory / "c.csv", records)
    return str(directory / "t.csv"), str(directory / "c.csv")


class TestManifestText:
    """``manifest.ini`` byte for byte: section and key order, value spelling,
    and which keys are left out."""

    def test_synthetic_run(self, tmp_path):
        cfg = PipelineConfig(
            seed=5,
            out_dir=str(tmp_path / "run"),
            synth_patients=40,
            synth_max_len=6,
            horizon_days=900.0,
            weights=MetricWeights(90, 70, 50, 30),
            k=3,
            min_support=3,
            mining_max_len=2,
            top_k=2,
            trees=5,
            test_size=0.3,
            positions=4,
            sankey_pairs=1,
        )
        run_pipeline(cfg)
        assert (tmp_path / "run" / "manifest.ini").read_text() == _versions_section() + (
            "[run]\nseed = 5\n\n"
            "[data]\nsynth_patients = 40\nsynth_max_len = 6\nhorizon_days = 900.0\n\n"
            "[metric]\nweights = 90,70,50,30\ntune_budget = 0\ntuned = false\n\n"
            "[cluster]\nk = 3\n\n"
            "[mining]\nmin_support = 3\nmax_len = 2\ntop_k = 2\n\n"
            "[survival]\ntrees = 5\nmtry = \ntest_size = 0.3\nuse_age = false\n"
            "reference_year = 2016\n\n"
            "[report]\npositions = 4\nsankey_pairs = 1\n\n"
        )

    def test_csv_source_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _csv_inputs(tmp_path / "in%put")
        cfg = PipelineConfig(
            seed=8,
            out_dir="run",
            trajectory_csv="in%put/t.csv",
            covariate_csv="in%put/c.csv",
            k=2,
            trees=4,
            mtry=2,
            use_age=True,
            reference_year=2020,
        )
        run_pipeline(cfg)
        assert (tmp_path / "run" / "manifest.ini").read_text() == _versions_section() + (
            "[run]\nseed = 8\n\n"
            "[data]\ntrajectories = in%put/t.csv\ncovariates = in%put/c.csv\n\n"
            "[metric]\nweights = 85,75,55,40\ntune_budget = 0\ntuned = false\n\n"
            "[cluster]\nk = 2\n\n"
            "[mining]\nmin_support = 2\nmax_len = 3\ntop_k = 3\n\n"
            "[survival]\ntrees = 4\nmtry = 2\ntest_size = 0.25\nuse_age = true\n"
            "reference_year = 2020\n\n"
            "[report]\npositions = 10\nsankey_pairs = 2\n\n"
        )


class TestManifestRoundTrip:
    """A manifest read back as a config file gives the run's resolved config."""

    @staticmethod
    def read_back(result, tmp_path) -> PipelineConfig:
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(result.out_dir / "manifest.ini")
        # the two entries that record the run rather than configure it
        manifest.remove_section("versions")
        manifest.remove_option("metric", "tuned")
        path = tmp_path / "again.ini"
        with open(path, "w") as fh:
            manifest.write(fh)
        cfg = PipelineConfig()
        cli.apply_config_file(cfg, str(path))
        return cfg

    @pytest.mark.parametrize(
        "settings",
        [
            dict(synth_patients=40, synth_max_len=5, horizon_days=700.5, seed=2),
            dict(synth_patients=40, tune_budget=2, mtry=1, test_size=0.4),
            dict(csv_dir="pct%dir", mtry=3, use_age=True, reference_year=2019),
            dict(csv_dir="plain", min_support=3, mining_max_len=2, top_k=4, positions=3),
        ],
        ids=["synth", "synth-tuned-mtry", "csv-percent-age", "csv-mining"],
    )
    def test_read_back_gives_the_resolved_config(self, tmp_path, settings):
        settings = dict(settings)
        csv_dir = settings.pop("csv_dir", None)
        if csv_dir is not None:
            tpath, cpath = _csv_inputs(tmp_path / csv_dir)
            settings.update(trajectory_csv=tpath, covariate_csv=cpath)
        cfg = PipelineConfig(out_dir=str(tmp_path / "run"), k=3, trees=4, **settings)
        result = run_pipeline(cfg)
        want = dataclasses.replace(
            cfg, out_dir=PipelineConfig.out_dir, weights=result.weights, k=result.k
        )
        assert self.read_back(result, tmp_path) == want


def test_cli_child_runs_with_warnings_as_errors_and_without_numpy_ma(tmp_path):
    # pytest's RuntimeWarning filter does not reach a child process; the
    # import log shows every module the run loads
    proc = subprocess.run(
        [
            sys.executable, "-X", "importtime", "-W", "error::RuntimeWarning",
            "-m", "carepath.cli", "run", "--synth", "120", "--k", "3", "--trees", "10",
            "--seed", "4", "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(carepath.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "numpy" in imported
    # numpy 1.x imports numpy.ma with numpy itself, 2.x only on demand
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    if bare.stdout.strip() == "False":
        assert "numpy.ma" not in imported
