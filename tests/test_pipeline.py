import configparser
import csv
import dataclasses
import hashlib
import platform
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carepath
import helpers
from carepath import cli
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
from carepath.synthetic import generate_cohort


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
        assert _pattern_report_rows(db, labels, k, cfg) == want


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

    def test_k_above_synthetic_cohort_size(self):
        with pytest.raises(DataError, match="k=11 exceeds point count 10"):
            PipelineConfig(synth_patients=10, k=11).validate()
        PipelineConfig(synth_patients=10, k=10).validate()
        # a tuned run picks its own k; a CSV cohort's size is not known yet
        PipelineConfig(synth_patients=10, k=11, tune_budget=2).validate()
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
        # every file but manifest.ini, whose text TestManifestText pins
        cfg = PipelineConfig(
            seed=13, out_dir=str(tmp_path / "run"), synth_patients=120, k=3, trees=10
        )
        out = run_pipeline(cfg).out_dir
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()
            if p.name != "manifest.ini"
        }
        assert digests == PINNED_DIGESTS


# sha256 of every file of that 120-patient run, other settings at their
# defaults; recorded under Python 3.11 and numpy 2.4 on x86-64
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
