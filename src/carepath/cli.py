"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (including any file
system error), 3 numeric failure.
"""

from __future__ import annotations

import argparse
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
    apply_config_file,
    cohort_cox_aic,
    holdout_rsf,
    parse_weights,
    run_pipeline,
    sankey_flows,
    setting_text,
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
    try:
        return parse_weights(text)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_flag(text: str) -> int:
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="carepath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort as CSV files")
    p.add_argument("--n", type=int, required=True, help="total patients")
    p.add_argument("--seed", type=_seed_flag, default=0)
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
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", required=True, help="assignments CSV path")

    p = sub.add_parser("tune", help="random search over weights and cluster count")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", default=None, help="trial log CSV path")

    p = sub.add_parser("survival", help="whole-cohort survival metrics")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--covariates", required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--mtry", type=int, default=None)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--test-size", type=float, default=0.25)

    p = sub.add_parser("run", help="run the full pipeline")
    # dest is the PipelineConfig field each flag sets
    p.add_argument("--config", default=None, help="INI configuration file")
    p.add_argument("--seed", type=_seed_flag)
    p.add_argument("--out", dest="out_dir", metavar="OUT")
    p.add_argument("--weights", type=_weights_flag)
    p.add_argument("--k", type=int)
    p.add_argument("--min-support", type=int)
    p.add_argument("--top-k", type=int)
    p.add_argument("--trees", type=int)
    p.add_argument("--synth", type=int, dest="synth_patients", metavar="SYNTH",
                   help="synthesize this many patients")
    p.add_argument("--tune-budget", type=int)
    p.add_argument("--trajectories", dest="trajectory_csv", metavar="TRAJECTORIES")
    p.add_argument("--covariates", dest="covariate_csv", metavar="COVARIATES")

    p = sub.add_parser("export-sankey", help="transition flows between stay positions")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--pairs", type=int, default=2, help="consecutive position pairs")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--out", required=True)

    return parser


def _cmd_synth(args) -> int:
    trajectories, records, _ = generate_cohort(
        args.n,
        seed=args.seed,
        max_len=args.max_len,
        horizon_days=args.horizon,
        anchored=not args.no_anchor,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    best, log = tune_search(trajectories, budget=args.budget, seed=args.seed)
    if args.out:
        write_trial_log(args.out, log)
    w = setting_text(best.weights)
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
    for field, value in vars(args).items():
        if value is not None and field not in ("command", "config"):
            setattr(cfg, field, value)
    result = run_pipeline(cfg)
    print(f"wrote artifacts to {result.out_dir}")
    for m in result.metrics:
        aic = "NA" if m.aic is None else f"{m.aic:.3f}"
        cidx = "NA" if m.c_index is None else f"{m.c_index:.3f}"
        print(f"cluster {m.cluster}: size {m.size} aic {aic} c_index {cidx}")
    return 0


def _cmd_export_sankey(args) -> int:
    if args.pairs < 0:
        raise DataError("--pairs must be >= 0")
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
    except (StageError, DataError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc
        return NUMERIC_EXIT if isinstance(cause, NumericError) else DATA_EXIT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
