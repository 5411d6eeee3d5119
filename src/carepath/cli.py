"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (including any file
system error), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import sys
from pathlib import Path

from .dataio import load_dataset, load_trajectories, write_covariates_csv, write_trajectories_csv
from .errors import DataError, NumericError
from .kmedoids import fit_kmedoids
from .metric import MetricWeights, distance_matrix, save_matrix_binary, save_matrix_csv
from .patterns import MiningConfig, frequent_patterns, render_pattern
from .pipeline import (
    DEFAULT_WEIGHTS,
    PipelineConfig,
    StageError,
    cohort_cox_aic,
    holdout_rsf,
    run_pipeline,
    sankey_flows,
    write_assignments_csv,
    write_sankey_csv,
)
from .synthetic import generate_cohort
from .tuning import tune_search, write_trial_log

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _weights_flag(text: str) -> MetricWeights:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated weights")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("weights must be integers") from None
    try:
        return MetricWeights.from_sequence(values)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="carepath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort as CSV files")
    p.add_argument("--n", type=int, required=True, help="total patients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--horizon", type=float, default=1825.0)
    p.add_argument("--no-anchor", action="store_true", help="skip the anchor first code")

    p = sub.add_parser("mine", help="mine frequent code patterns")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("dist", help="compute the trajectory distance matrix")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--weights", type=_weights_flag, default=DEFAULT_WEIGHTS)
    p.add_argument("--out", required=True, help="matrix CSV path")
    p.add_argument("--binary", default=None, help="also write this compact binary file")

    p = sub.add_parser("cluster", help="cluster patients around medoids")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--weights", type=_weights_flag, default=DEFAULT_WEIGHTS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="assignments CSV path")

    p = sub.add_parser("tune", help="random search over weights and cluster count")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="trial log CSV path")

    p = sub.add_parser("survival", help="whole-cohort survival metrics")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--covariates", required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--mtry", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-size", type=float, default=0.25)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", default=None, help="INI configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--weights", type=_weights_flag, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--min-support", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--synth", type=int, default=None, help="synthesize this many patients")
    p.add_argument("--tune-budget", type=int, default=None)
    p.add_argument("--trajectories", default=None)
    p.add_argument("--covariates", default=None)

    p = sub.add_parser("export-sankey", help="transition flows between stay positions")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--pairs", type=int, default=2, help="consecutive position pairs")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--out", required=True)

    return parser


_CONFIG_FIELDS = {
    ("run", "seed"): ("seed", int),
    ("run", "out"): ("out_dir", str),
    ("data", "trajectories"): ("trajectory_csv", str),
    ("data", "covariates"): ("covariate_csv", str),
    ("data", "synth_patients"): ("synth_patients", int),
    ("data", "synth_max_len"): ("synth_max_len", int),
    ("data", "horizon_days"): ("horizon_days", float),
    ("metric", "weights"): (
        "weights",
        lambda raw: MetricWeights.from_sequence([int(p) for p in raw.split(",")]),
    ),
    ("metric", "tune_budget"): ("tune_budget", int),
    ("cluster", "k"): ("k", int),
    ("mining", "min_support"): ("min_support", int),
    ("mining", "max_len"): ("mining_max_len", int),
    ("mining", "top_k"): ("top_k", int),
    ("survival", "trees"): ("trees", int),
    ("survival", "mtry"): ("mtry", int),
    ("survival", "test_size"): ("test_size", float),
    ("survival", "use_age"): ("use_age", bool),
    ("survival", "reference_year"): ("reference_year", int),
    ("report", "positions"): ("positions", int),
    ("report", "sankey_pairs"): ("sankey_pairs", int),
}


def apply_config_file(cfg: PipelineConfig, path: str) -> None:
    # no interpolation, like the manifest writer: '%' is literal
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
        entries = [
            (section, key, raw)
            for section in parser.sections()
            for key, raw in parser.items(section)
        ]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataError(f"cannot parse config file {path!r}: {exc}") from None
    if not read:
        raise DataError(f"cannot read config file {path!r}")
    for section, key, raw in entries:
        spec = _CONFIG_FIELDS.get((section, key))
        if spec is None:
            raise DataError(f"{path}: unknown config key [{section}] {key}")
        field, kind = spec
        raw = raw.strip()
        if raw == "":
            continue
        if kind is bool:
            if raw.lower() not in ("true", "false"):
                raise DataError(f"{path}: [{section}] {key} must be true or false")
            value = raw.lower() == "true"
        else:
            try:
                value = kind(raw)
            except ValueError:
                raise DataError(f"{path}: bad value {raw!r} for [{section}] {key}") from None
        setattr(cfg, field, value)


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trajectories, records, _ = generate_cohort(
        args.n,
        seed=args.seed,
        max_len=args.max_len,
        horizon_days=args.horizon,
        anchored=not args.no_anchor,
    )
    write_trajectories_csv(out / "trajectories.csv", trajectories)
    write_covariates_csv(out / "covariates.csv", records)
    print(f"wrote {len(trajectories)} patients to {out}")
    return 0


def _cmd_mine(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    db = [t.renderings() for t in trajectories]
    cfg = MiningConfig(
        min_support=args.min_support,
        min_len=1,
        max_len=args.max_len,
        top_k=args.top_k,
    )
    mined = frequent_patterns(db, cfg)
    rows = [
        [m.support, f"{m.support / len(db):.6f}", render_pattern(m.pattern)]
        for m in mined
    ]
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(("count", "frequency", "pattern"))
        writer.writerows(rows)
    return 0


def _cmd_dist(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    matrix = distance_matrix(trajectories, args.weights)
    save_matrix_csv(args.out, matrix, [t.patient_id for t in trajectories])
    if args.binary:
        save_matrix_binary(args.binary, matrix)
    return 0


def _cmd_cluster(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    matrix = distance_matrix(trajectories, args.weights)
    fit = fit_kmedoids(matrix, args.k, seed=args.seed)
    write_assignments_csv(args.out, [t.patient_id for t in trajectories], fit)
    print(f"total distance {fit.total_distance!r} over {fit.k} clusters")
    return 0


def _cmd_tune(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    db = [t.renderings() for t in trajectories]
    best, log = tune_search(trajectories, db, budget=args.budget, seed=args.seed)
    if args.out:
        write_trial_log(args.out, log)
    w = ",".join(str(x) for x in best.weights.as_tuple())
    print(f"best trial {best.trial_index}: weights {w} k {best.k} score {best.score!r}")
    return 0


def _cmd_survival(args) -> int:
    _, records = load_dataset(args.trajectories, args.covariates)
    aic = cohort_cox_aic(records)
    cidx, _ = holdout_rsf(
        records,
        trees=args.trees,
        mtry=args.mtry,
        seed=args.seed,
        test_size=args.test_size,
    )
    print(f"cox_aic {'NA' if aic is None else repr(aic)}")
    print(f"rsf_c_index {'NA' if cidx is None else repr(cidx)}")
    return 0


def _cmd_run(args) -> int:
    cfg = PipelineConfig()
    if args.config:
        apply_config_file(cfg, args.config)
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "weights": args.weights,
        "k": args.k,
        "min_support": args.min_support,
        "top_k": args.top_k,
        "trees": args.trees,
        "synth_patients": args.synth,
        "tune_budget": args.tune_budget,
        "trajectory_csv": args.trajectories,
        "covariate_csv": args.covariates,
    }
    for field, value in overrides.items():
        if value is not None:
            setattr(cfg, field, value)
    result = run_pipeline(cfg)
    print(f"wrote artifacts to {result.out_dir}")
    for m in result.metrics:
        aic = "NA" if m.aic is None else f"{m.aic:.3f}"
        cidx = "NA" if m.c_index is None else f"{m.c_index:.3f}"
        print(f"cluster {m.cluster}: size {m.size} aic {aic} c_index {cidx}")
    return 0


def _cmd_export_sankey(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    pairs = [(i, i + 1) for i in range(args.pairs)]
    write_sankey_csv(args.out, sankey_flows(trajectories, pairs, args.top_k))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "mine": _cmd_mine,
    "dist": _cmd_dist,
    "cluster": _cmd_cluster,
    "tune": _cmd_tune,
    "survival": _cmd_survival,
    "run": _cmd_run,
    "export-sankey": _cmd_export_sankey,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, NumericError):
            return NUMERIC_EXIT
        return DATA_EXIT
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
