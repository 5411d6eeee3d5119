import configparser
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import carepath
from carepath import cli
from carepath.errors import DataError, NumericError
from carepath.metric import MetricWeights
from carepath.pipeline import PipelineConfig, StageError


def synth_dir(tmp_path, n=40, seed=1):
    out = tmp_path / "cohort"
    assert cli.main(["synth", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    return out


class TestExitCodes:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 1

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_malformed_weights_flag_is_a_usage_error(self, tmp_path):
        for bad in ("1,2", "a,b,c,d", "40,55,75,85"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(
                    ["dist", "--trajectories", "x.csv", "--weights", bad, "--out", "y.csv"]
                )
            assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--n", "20", "--out", "c"],
            ["cluster", "--trajectories", "t.csv", "--k", "2", "--out", "a.csv"],
            ["tune", "--trajectories", "t.csv", "--budget", "2"],
            ["survival", "--trajectories", "t.csv", "--covariates", "c.csv"],
            ["run", "--synth", "30"],
            ["run", "--trajectories", "t.csv", "--covariates", "c.csv"],
        ],
        ids=["synth", "cluster", "tune", "survival", "run-synth", "run-csv"],
    )
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, seed):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--seed", seed])
        assert excinfo.value.code == 1
        assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--horizon", "nan", "horizon_days must be positive"),
            ("--max-len", "0", "max_len must be >= 1"),
            ("--n", "0", "need at least 4 patients"),
        ],
        ids=["nan-horizon", "max-len", "n"],
    )
    def test_bad_synth_setting_is_a_data_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "c"
        argv = ["synth", "--n", "20", "--out", str(out), flag, value]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file_is_a_data_error(self, tmp_path):
        assert cli.main(["mine", "--trajectories", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("code", ["05_092", "05m0#2", "05M0_", "05Mß2", "05mı92"])
    def test_non_canonical_code_is_a_data_error(self, tmp_path, capsys, code):
        bad = tmp_path / "t.csv"
        bad.write_text(f"patient_id,seq_index,code\r\nA,0,05M092\r\nA,1,{code}\r\n")
        assert cli.main(["mine", "--trajectories", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} row 3: code ")
        assert "outside A-Z0-9" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "--trajectories", "{bad}"],
            ["dist", "--trajectories", "{bad}", "--out", "m.csv"],
            ["cluster", "--trajectories", "{bad}", "--k", "2", "--out", "a.csv"],
            ["tune", "--trajectories", "{bad}", "--budget", "2"],
            ["survival", "--trajectories", "{bad}", "--covariates", "{cohort}/covariates.csv"],
            ["export-sankey", "--trajectories", "{bad}", "--out", "s.csv"],
            ["survival", "--trajectories", "{cohort}/trajectories.csv", "--covariates", "{bad}"],
        ],
        ids=["mine", "dist", "cluster", "tune", "survival", "export-sankey", "covariates"],
    )
    @pytest.mark.parametrize(
        "tail",
        [b"P1,0,05M09\xff\r\n", b"P1,0," + b"x" * 200_000 + b"\r\n"],
        ids=["undecodable-byte", "oversized-field"],
    )
    def test_unreadable_input_is_a_data_error(self, tmp_path, monkeypatch, capsys, argv, tail):
        cohort = synth_dir(tmp_path, n=20)
        capsys.readouterr()  # drop the synth chatter
        # a valid table of the kind the flag names, with one bad row appended
        table = argv[argv.index("{bad}") - 1].removeprefix("--")
        bad = tmp_path / "bad.csv"
        bad.write_bytes((cohort / f"{table}.csv").read_bytes() + tail)
        monkeypatch.chdir(tmp_path)
        assert cli.main([arg.format(bad=bad, cohort=cohort) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["survival", "run"])
    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_follow_up_time_is_a_data_error(self, tmp_path, command, time):
        cohort = synth_dir(tmp_path, n=20)
        covariates = cohort / "covariates.csv"
        header, first, *rest = covariates.read_text().splitlines(keepends=True)
        fields = first.rstrip("\r\n").split(",")
        fields[-1] = time
        covariates.write_text("".join([header, ",".join(fields) + "\r\n", *rest]))
        argv = ["--trajectories", str(cohort / "trajectories.csv"), "--covariates", str(covariates)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        # a separate process with a timeout, so a hang fails the test
        proc = subprocess.run(
            [sys.executable, "-m", "carepath.cli", command, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(carepath.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert f"{covariates} row 2: patient 'P00000': follow-up time" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_run_into_an_existing_file_is_a_data_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        assert cli.main(["run", "--synth", "30", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_dist_into_an_existing_directory_is_a_data_error(self, tmp_path, capsys):
        out = synth_dir(tmp_path, n=20)
        code = cli.main(
            ["dist", "--trajectories", str(out / "trajectories.csv"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_numeric_failures_map_to_exit_3(self, monkeypatch):
        def boom(args):
            raise NumericError("unstable")

        monkeypatch.setitem(cli._COMMANDS, "mine", boom)
        assert cli.main(["mine", "--trajectories", "x"]) == 3

    def test_stage_errors_keep_their_cause_code(self, monkeypatch, capsys):
        cases = [
            (StageError("clustering", DataError("bad k")), 2),
            (StageError("survival", NumericError("diverged")), 3),
            (StageError("distance", OSError("disk full")), 2),
            (OSError("disk full"), 2),
        ]
        for error, code in cases:

            def fail(args, error=error):
                raise error

            monkeypatch.setitem(cli._COMMANDS, "mine", fail)
            assert cli.main(["mine", "--trajectories", "x"]) == code
            assert capsys.readouterr().err == f"error: {error}\n"


class TestCommands:
    def test_synth_writes_cohort_files(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        assert (out / "trajectories.csv").exists()
        assert (out / "covariates.csv").exists()
        assert "wrote 40 patients" in capsys.readouterr().out

    def test_mine_prints_pattern_rows(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        capsys.readouterr()  # drop the synth chatter
        code = cli.main(
            ["mine", "--trajectories", str(out / "trajectories.csv"), "--min-support", "5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "count,frequency,pattern"
        assert len(lines) > 1

    def test_mine_writes_csv_when_asked(self, tmp_path):
        out = synth_dir(tmp_path)
        target = tmp_path / "patterns.csv"
        code = cli.main(
            [
                "mine",
                "--trajectories",
                str(out / "trajectories.csv"),
                "--out",
                str(target),
            ]
        )
        assert code == 0
        assert target.read_text().startswith("count,frequency,pattern")

    def test_dist_writes_matrix_and_binary(self, tmp_path):
        out = synth_dir(tmp_path, n=20)
        mpath = tmp_path / "m.csv"
        bpath = tmp_path / "m.bin"
        code = cli.main(
            [
                "dist",
                "--trajectories",
                str(out / "trajectories.csv"),
                "--out",
                str(mpath),
                "--binary",
                str(bpath),
            ]
        )
        assert code == 0
        assert mpath.exists() and bpath.exists()

    def test_cluster_writes_assignments(self, tmp_path, capsys):
        out = synth_dir(tmp_path, n=20)
        apath = tmp_path / "assign.csv"
        code = cli.main(
            [
                "cluster",
                "--trajectories",
                str(out / "trajectories.csv"),
                "--k",
                "3",
                "--out",
                str(apath),
            ]
        )
        assert code == 0
        lines = apath.read_text().strip().splitlines()
        assert lines[0] == "patient_id,cluster,distance_to_medoid,is_medoid"
        assert len(lines) == 21
        assert "total distance" in capsys.readouterr().out

    def test_tune_reports_best_trial(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        log = tmp_path / "trials.csv"
        code = cli.main(
            [
                "tune",
                "--trajectories",
                str(out / "trajectories.csv"),
                "--budget",
                "1",
                "--out",
                str(log),
            ]
        )
        assert code == 0
        assert "best trial 0" in capsys.readouterr().out
        assert log.read_text().startswith("trial_index,")

    def test_survival_reports_cohort_metrics(self, tmp_path, capsys):
        out = synth_dir(tmp_path, n=60)
        code = cli.main(
            [
                "survival",
                "--trajectories",
                str(out / "trajectories.csv"),
                "--covariates",
                str(out / "covariates.csv"),
                "--trees",
                "10",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "cox_aic" in text
        assert "rsf_c_index" in text

    @pytest.mark.parametrize(
        "flags", [["--trees", "0"], ["--mtry", "0"], ["--test-size", "1.5"]]
    )
    def test_survival_rejects_bad_forest_settings(self, tmp_path, capsys, flags):
        out = synth_dir(tmp_path, n=60)
        code = cli.main(
            [
                "survival",
                "--trajectories",
                str(out / "trajectories.csv"),
                "--covariates",
                str(out / "covariates.csv"),
            ]
            + flags
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_export_sankey(self, tmp_path):
        out = synth_dir(tmp_path)
        target = tmp_path / "sankey.csv"
        code = cli.main(
            [
                "export-sankey",
                "--trajectories",
                str(out / "trajectories.csv"),
                "--out",
                str(target),
            ]
        )
        assert code == 0
        assert target.read_text().startswith(
            "source_pos,source_code,target_pos,target_code,count"
        )

    def test_export_sankey_rejects_negative_pairs(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        capsys.readouterr()  # drop the synth chatter
        target = tmp_path / "sankey.csv"
        argv = ["export-sankey", "--trajectories", str(out / "trajectories.csv")]
        code = cli.main(argv + ["--pairs", "-1", "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()


class TestRunCommand:
    def test_flag_driven_run(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = cli.main(
            [
                "run",
                "--synth",
                "40",
                "--seed",
                "3",
                "--k",
                "3",
                "--trees",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "manifest.ini").exists()
        text = capsys.readouterr().out
        assert "wrote artifacts" in text
        assert text.count("cluster ") == 3

    def test_config_file_run_with_flag_override(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\nseed = 9\n\n[data]\nsynth_patients = 40\n\n"
            "[cluster]\nk = 3\n\n[survival]\ntrees = 5\n"
        )
        out = tmp_path / "artifacts"
        code = cli.main(
            ["run", "--config", str(config), "--k", "2", "--out", str(out)]
        )
        assert code == 0
        manifest = configparser.ConfigParser()
        manifest.read(out / "manifest.ini")
        assert manifest["run"]["seed"] == "9"
        assert manifest["cluster"]["k"] == "2"  # flag beats the file

    def test_run_records_input_paths_with_percent_signs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cohort = synth_dir(tmp_path)
        shutil.copytree(cohort, tmp_path / "pct%dir")
        code = cli.main(
            [
                "run",
                "--trajectories",
                "pct%dir/trajectories.csv",
                "--covariates",
                "pct%dir/covariates.csv",
                "--k",
                "2",
                "--trees",
                "3",
                "--out",
                "R",
            ]
        )
        assert code == 0
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(tmp_path / "R" / "manifest.ini")
        assert manifest["data"]["trajectories"] == "pct%dir/trajectories.csv"
        assert manifest["data"]["covariates"] == "pct%dir/covariates.csv"

    def test_unknown_config_key_is_a_data_error(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 1\n\n[cluster]\nsize = 3\n")
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_unreadable_config_is_a_data_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "none.ini")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            b"[metric]\nweights = a,b,c,d\n",
            b"seed = 1\n",
            b"[run]\nseed = 1\nseed = 2\n",
            b"\xff\xfe[run]\n",
        ],
        ids=["weights", "no-section", "duplicate-key", "not-utf8"],
    )
    def test_malformed_config_is_a_data_error(self, tmp_path, capsys, text):
        config = tmp_path / "run.ini"
        config.write_bytes(text)
        assert cli.main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["100%done", "100%%done"], ids=["single", "double"])
    def test_percent_in_config_is_literal(self, tmp_path, value):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nout = {value}\n\n[data]\ntrajectories = {value}/t.csv\n")
        cfg = PipelineConfig()
        cli.apply_config_file(cfg, str(config))
        assert cfg.out_dir == value
        assert cfg.trajectory_csv == f"{value}/t.csv"

    def test_zero_mtry_fails_before_writing(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[data]\nsynth_patients = 30\n\n[survival]\nmtry = 0\n")
        out = tmp_path / "artifacts"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "mtry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["synth", "csv"])
    def test_negative_seed_in_config_fails_before_writing(self, tmp_path, capsys, source):
        cohort = synth_dir(tmp_path)
        data = (
            "synth_patients = 30"
            if source == "synth"
            else f"trajectories = {cohort}/trajectories.csv\ncovariates = {cohort}/covariates.csv"
        )
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nseed = -1\n\n[data]\n{data}\n")
        out = tmp_path / "artifacts"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "stage" not in err
        assert not out.exists()

    def test_nan_horizon_in_config_is_a_data_error(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[data]\nsynth_patients = 30\nhorizon_days = nan\n")
        out = tmp_path / "artifacts"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "horizon_days must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_every_flag_sets_its_config_field(self, tmp_path, monkeypatch):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 9\nout = from-file\n\n[mining]\ntop_k = 7\n")
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise DataError("captured")

        monkeypatch.setattr(cli, "run_pipeline", capture)
        argv = [
            "run", "--config", str(config), "--seed", "4", "--out", "o",
            "--weights", "90,80,70,60", "--k", "6", "--min-support", "3",
            "--trees", "11", "--synth", "50", "--tune-budget", "2",
            "--trajectories", "t.csv", "--covariates", "c.csv",
        ]
        assert cli.main(argv) == 2
        assert seen == [
            PipelineConfig(
                seed=4, out_dir="o", weights=MetricWeights(90, 80, 70, 60), k=6,
                min_support=3, top_k=7, trees=11, synth_patients=50, tune_budget=2,
                trajectory_csv="t.csv", covariate_csv="c.csv",
            )
        ]

    def test_k_above_synthetic_count_fails_before_any_stage(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        argv = ["run", "--synth", "30", "--k", "40", "--trees", "2", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "k=40 exceeds point count 30" in err and "stage" not in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["top_k", "max_len"])
    def test_bad_mining_setting_fails_before_any_stage(self, tmp_path, capsys, setting):
        config = tmp_path / "run.ini"
        config.write_text(f"[data]\nsynth_patients = 30\n\n[mining]\n{setting} = 0\n")
        out = tmp_path / "artifacts"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert setting in err and "stage" not in err
        assert not out.exists()

    def test_conflicting_sources_fail(self, tmp_path):
        code = cli.main(
            [
                "run",
                "--synth",
                "40",
                "--trajectories",
                "t.csv",
                "--covariates",
                "c.csv",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("carepath")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run(
        [exe, "synth", "--n", "8", "--seed", "0", "--out", str(tmp_path / "c")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "c" / "trajectories.csv").exists()
