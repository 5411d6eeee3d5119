"""End-to-end orchestration: cohort in, analysis artifacts out.

A run is the ordered list ``_STEPS`` of named steps, from loading the cohort
to writing ``manifest.ini``, over one :class:`RunResult` that each step reads
and extends.  All randomness derives from one master seed, so a fixed
configuration reproduces its artifact directory byte for byte.  A failing
step removes the partial output directory and raises :class:`StageError`
under its name.
"""

from __future__ import annotations

import configparser
import platform
import shutil
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .codes import StayCode
from .dataio import load_dataset, write_covariates_csv, write_csv, write_trajectories_csv
from .errors import DataError, NumericError
from .kmedoids import Clustering, fit_kmedoids
from .metric import (
    MetricWeights,
    PatientTrajectory,
    _code_table,
    _encode_cohort,
    _matrix,
    save_matrix_binary,
    save_matrix_csv,
)
from .patterns import MiningConfig, _incidence, render_pattern
from .survival import (
    DEFAULT_REFERENCE_YEAR,
    SurvivalRecord,
    c_index,
    covariate_matrix,
    cox_aic,
    cox_fit,
    rsf_fit,
    rsf_risk_scores,
    scenario_curves,
)
from .synthetic import _derived_seed, default_archetypes, generate_cohort
from .tuning import ScoreConfig, tune_search, write_trial_log

NONE_TOKEN = "none"

DEFAULT_WEIGHTS = MetricWeights(85, 75, 55, 40)


class StageError(RuntimeError):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    seed: int = 0
    out_dir: str = "artifacts"
    trajectory_csv: str | None = None
    covariate_csv: str | None = None
    synth_patients: int = 0
    synth_max_len: int = 8
    horizon_days: float = 1825.0
    weights: MetricWeights = DEFAULT_WEIGHTS
    tune_budget: int = 0
    k: int = 5
    min_support: int = 2
    mining_max_len: int = 3
    top_k: int = 3
    trees: int = 100
    mtry: int | None = None
    test_size: float = 0.25
    use_age: bool = False
    reference_year: int = DEFAULT_REFERENCE_YEAR
    positions: int = 10
    sankey_pairs: int = 2

    def validate(self) -> None:
        if self.synth_patients < 0:
            raise DataError("synth_patients must be >= 0")
        synth = self.synth_patients > 0
        files = self.trajectory_csv is not None and self.covariate_csv is not None
        if synth == files:
            raise DataError(
                "configure exactly one data source: synth_patients or both CSV paths"
            )
        minimum = len(default_archetypes())  # generate_cohort's smallest cohort
        if synth and self.synth_patients < minimum:
            raise DataError(f"synth_patients must be >= {minimum}, one per archetype")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if self.k < 1:
            raise DataError("k must be >= 1")
        if self.tune_budget < 0:
            raise DataError("tune_budget must be >= 0")
        if synth and self.tune_budget == 0 and self.k > self.synth_patients:
            raise DataError(f"k={self.k} exceeds point count {self.synth_patients}")
        if not 0.0 < self.test_size < 1.0:
            raise DataError("test_size must be in (0, 1)")
        if self.trees < 1:
            raise DataError("trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise DataError("mtry must be >= 1")
        MiningConfig(self.min_support, 1, self.mining_max_len)
        if self.top_k < 1:
            raise DataError("top_k must be >= 1")
        if self.positions < 1 or self.sankey_pairs < 0:
            raise DataError("bad report geometry")


def parse_weights(text: str) -> MetricWeights:
    """Weights from their ``category,care_type,counter,severity`` text."""
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise DataError("weights must be integers") from None
    return MetricWeights.from_sequence(values)


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


# The one schema of run settings, read from config files and written to
# manifest.ini in this order: [section] key -> (PipelineConfig field, parser).
SETTINGS = {
    ("run", "seed"): ("seed", int),
    ("run", "out"): ("out_dir", str),
    ("data", "trajectories"): ("trajectory_csv", str),
    ("data", "covariates"): ("covariate_csv", str),
    ("data", "synth_patients"): ("synth_patients", int),
    ("data", "synth_max_len"): ("synth_max_len", int),
    ("data", "horizon_days"): ("horizon_days", float),
    ("metric", "weights"): ("weights", parse_weights),
    ("metric", "tune_budget"): ("tune_budget", int),
    ("cluster", "k"): ("k", int),
    ("mining", "min_support"): ("min_support", int),
    ("mining", "max_len"): ("mining_max_len", int),
    ("mining", "top_k"): ("top_k", int),
    ("survival", "trees"): ("trees", int),
    ("survival", "mtry"): ("mtry", int),
    ("survival", "test_size"): ("test_size", float),
    ("survival", "use_age"): ("use_age", _parse_bool),
    ("survival", "reference_year"): ("reference_year", int),
    ("report", "positions"): ("positions", int),
    ("report", "sankey_pairs"): ("sankey_pairs", int),
}


def setting_text(value) -> str:
    """A setting as config-file text; the ``SETTINGS`` parsers read it back."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, MetricWeights):
        return ",".join(str(w) for w in value.as_tuple())
    return str(value)


def _ini() -> configparser.ConfigParser:
    # no interpolation: '%' in a value, such as an input path, is literal
    return configparser.ConfigParser(interpolation=None)


def apply_config_file(cfg: PipelineConfig, path) -> None:
    """Set ``cfg`` from an INI file of ``SETTINGS`` keys; blank values are skipped."""
    parser = _ini()
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
        spec = SETTINGS.get((section, key))
        if spec is None:
            raise DataError(f"{path}: unknown config key [{section}] {key}")
        name, parse = spec
        raw = raw.strip()
        if raw == "":
            continue
        try:
            value = parse(raw)
        except ValueError:
            raise DataError(f"{path}: bad value {raw!r} for [{section}] {key}") from None
        setattr(cfg, name, value)


@dataclass(frozen=True)
class FrequencyTable:
    """Per-position code proportions, one column per trajectory position."""

    positions: int
    columns: tuple[tuple[tuple[str, float], ...], ...]
    denominators: tuple[int, ...]


def _top_k(counts: Counter, top_k: int) -> list[tuple]:
    """The ``top_k`` items of ``counts`` by descending count, ties by ascending key."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]


def frequency_table(
    trajectories: Sequence[PatientTrajectory], positions: int, top_k: int
) -> FrequencyTable:
    """Most frequent codes at each position among trajectories reaching it.

    Proportions divide by the number of trajectories with that position, so
    an anchored cohort reports its anchor at proportion 1.0 in column 0.
    """
    if positions < 1:
        raise DataError("positions must be >= 1")
    if top_k < 1:
        raise DataError("top_k must be >= 1")
    columns = []
    denominators = []
    for pos in range(positions):
        holders = [t for t in trajectories if len(t.codes) > pos]
        denominators.append(len(holders))
        counts = Counter(t.codes[pos].render() for t in holders)
        ranked = _top_k(counts, top_k)
        columns.append(
            tuple((code, count / len(holders)) for code, count in ranked)
        )
    return FrequencyTable(positions, tuple(columns), tuple(denominators))


@dataclass(frozen=True)
class SankeyEdge:
    source_pos: int
    source_code: str
    target_pos: int
    target_code: str
    count: int


def sankey_flows(
    trajectories: Sequence[PatientTrajectory],
    position_pairs: Sequence[tuple[int, int]],
    top_k: int,
) -> list[SankeyEdge]:
    """Top transition bigrams between consecutive positions.

    For each (i, i+1) pair, every trajectory with an i-th stay contributes
    the ordered pair of renderings, with a missing successor encoded as the
    ``none`` token; the ``top_k`` bigrams by count are kept per pair, ties
    broken by ascending ``(source, target)``.
    """
    if top_k < 0:
        raise DataError("top_k must be >= 0")
    edges: list[SankeyEdge] = []
    for source_pos, target_pos in position_pairs:
        if target_pos != source_pos + 1 or source_pos < 0:
            raise DataError(f"position pair {(source_pos, target_pos)} is not consecutive")
        counts = Counter(
            (
                t.codes[source_pos].render(),
                t.codes[target_pos].render() if len(t.codes) > target_pos else NONE_TOKEN,
            )
            for t in trajectories
            if len(t.codes) > source_pos
        )
        ranked = _top_k(counts, top_k)
        edges.extend(
            SankeyEdge(source_pos, source, target_pos, target, count)
            for (source, target), count in ranked
        )
    return edges


@dataclass
class ClusterMetrics:
    cluster: int
    size: int
    aic: float | None
    c_index: float | None


@dataclass
class RunResult:
    """A run's results and, while the steps of ``_STEPS`` run, its state.  The private
    fields are for later steps; ``_codes`` and ``_rows`` are the run's one encoding
    of the cohort, and the matrix is dropped after clustering."""

    config: PipelineConfig
    out_dir: Path
    weights: MetricWeights
    k: int
    tuned: bool
    trajectories: list[PatientTrajectory] = field(default_factory=list)
    records: list[SurvivalRecord] = field(default_factory=list)
    clustering: Clustering | None = None
    metrics: list[ClusterMetrics] = field(default_factory=list)
    _codes: list[StayCode] = field(default_factory=list, repr=False)
    _rows: list[list[int]] = field(default_factory=list, repr=False)
    _table: np.ndarray | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _members: list[np.ndarray] = field(default_factory=list, repr=False)


def write_assignments_csv(path, patient_ids: Sequence[str], clustering: Clustering) -> None:
    medoids = set(clustering.medoid_indices)
    write_csv(
        path,
        ("patient_id", "cluster", "distance_to_medoid", "is_medoid"),
        (
            [
                pid,
                int(clustering.assignment[i]),
                clustering.distance_to_medoid[i],
                1 if i in medoids else 0,
            ]
            for i, pid in enumerate(patient_ids)
        ),
    )


def write_sankey_csv(path, edges: Sequence[SankeyEdge]) -> None:
    write_csv(
        path,
        ("source_pos", "source_code", "target_pos", "target_code", "count"),
        (
            [e.source_pos, e.source_code, e.target_pos, e.target_code, e.count]
            for e in edges
        ),
    )


def write_frequency_csv(path: Path, table: FrequencyTable) -> None:
    codes = sorted({code for column in table.columns for code, _ in column})
    by_column = [dict(column) for column in table.columns]
    write_csv(
        path,
        ["code"] + [f"p{i}" for i in range(table.positions)],
        (
            [code] + [f"{col[code]:.6f}" if code in col else "" for col in by_column]
            for code in codes
        ),
    )


def _pattern_report_rows(
    codes: list[StayCode], rows: list[list[int]], labels: np.ndarray, k: int, cfg: PipelineConfig
) -> list[list]:
    """``patterns.csv`` rows: the top patterns of each length in the whole
    cohort, then in each of the ``k`` clusters, all from one mining pass over
    the id ``rows``; ids rank ``codes``' renderings, so patterns rank alike."""
    # a pattern below min_support in the cohort is below it in every cluster
    incidence = _incidence(rows, cfg.mining_max_len, cfg.min_support)
    scopes = ["all"] + [f"cluster_{cid}" for cid in range(k)]
    sizes = [len(rows)] + np.bincount(labels, minlength=k).tolist()
    supports = np.column_stack([incidence.counts, incidence.supports(labels, k)])
    tops = [
        incidence.top(supports, length, cfg.top_k, floor=cfg.min_support)
        for length in range(1, cfg.mining_max_len + 1)
    ]
    out = []
    for g, scope in enumerate(scopes):
        for length, top in enumerate(tops, start=1):
            for rank, (pid, count) in enumerate(top[g], start=1):
                out.append(
                    [
                        scope,
                        length,
                        rank,
                        count,
                        f"{count / sizes[g]:.6f}",
                        render_pattern([codes[i] for i in incidence.patterns[pid]]),
                    ]
                )
    return out


def _split_indices(m: int, test_size: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_test = max(1, int(round(m * test_size)))
    if n_test >= m:
        n_test = m - 1
    return perm[n_test:], perm[:n_test]


def _data(run: RunResult) -> None:
    cfg = run.config
    paths = (cfg.trajectory_csv, cfg.covariate_csv)
    if cfg.synth_patients > 0:
        trajectories, records, _ = generate_cohort(
            cfg.synth_patients,
            seed=_derived_seed(cfg.seed, 0),
            max_len=cfg.synth_max_len,
            horizon_days=cfg.horizon_days,
        )
        # written, then loaded through the ingestion path so both sources behave alike
        paths = (run.out_dir / "trajectories.csv", run.out_dir / "covariates.csv")
        write_trajectories_csv(paths[0], trajectories)
        write_covariates_csv(paths[1], records)
    run.trajectories, run.records = load_dataset(*paths)
    run._codes, run._rows = _encode_cohort(run.trajectories)


def _tuning(run: RunResult) -> None:
    if run.tuned:
        best, log = tune_search(
            run.trajectories,
            budget=run.config.tune_budget,
            seed=_derived_seed(run.config.seed, 4),
            score_cfg=ScoreConfig(top_per_length=run.config.top_k),
        )
        run.weights, run.k = best.weights, best.k
        write_trial_log(run.out_dir / "trial_log.csv", log)


def _distance(run: RunResult) -> None:
    run._table = _code_table(run._codes, run.weights)
    run._matrix = _matrix(run._table, run._rows)
    patient_ids = [t.patient_id for t in run.trajectories]
    save_matrix_csv(run.out_dir / "distance_matrix.csv", run._matrix, patient_ids)
    save_matrix_binary(run.out_dir / "distance_matrix.bin", run._matrix)


def _clustering(run: RunResult) -> None:
    run.clustering = fit_kmedoids(run._matrix, run.k, seed=_derived_seed(run.config.seed, 1))
    run._matrix = None
    patient_ids = [t.patient_id for t in run.trajectories]
    write_assignments_csv(run.out_dir / "assignments.csv", patient_ids, run.clustering)
    run._members = [np.flatnonzero(run.clustering.assignment == c) for c in range(run.k)]


def _patterns(run: RunResult) -> None:
    write_csv(
        run.out_dir / "patterns.csv",
        ("scope", "length", "rank", "count", "frequency", "pattern"),
        _pattern_report_rows(run._codes, run._rows, run.clustering.assignment, run.k, run.config),
    )


def _frequency(run: RunResult) -> None:
    scopes = [("global", range(len(run.trajectories)))]
    scopes += [(f"cluster_{cid}", members) for cid, members in enumerate(run._members)]
    for scope, indices in scopes:
        dead = [run.trajectories[i] for i in indices if run.trajectories[i].ends_in_death]
        if dead:
            write_frequency_csv(
                run.out_dir / f"frequency_{scope}.csv",
                frequency_table(dead, run.config.positions, run.config.top_k),
            )


def _sankey(run: RunResult) -> None:
    pairs = [(i, i + 1) for i in range(run.config.sankey_pairs)]
    for cid, members in enumerate(run._members):
        write_sankey_csv(
            run.out_dir / f"sankey_cluster_{cid}.csv",
            sankey_flows([run.trajectories[i] for i in members], pairs, run.config.top_k),
        )


def _profiles(run: RunResult) -> None:
    medoid_rows = [run._rows[m] for m in run.clustering.medoid_indices]
    profile_rows = []
    for traj, row, cid in zip(run.trajectories, run._rows, run.clustering.assignment.tolist()):
        # exact: min only selects a table entry
        profile = run._table[row][:, medoid_rows[cid]].min(axis=1).tolist()
        for pos, dist in enumerate(profile):
            profile_rows.append([traj.patient_id, cid, pos, dist])
    write_csv(
        run.out_dir / "medoid_profiles.csv",
        ("patient_id", "cluster", "position", "distance"),
        profile_rows,
    )


def _survival(run: RunResult) -> None:
    cfg = run.config
    for cid, members in enumerate(run._members):
        cluster_records = [run.records[i] for i in members]
        aic = cohort_cox_aic(cluster_records, cfg.use_age, cfg.reference_year)
        cidx, forest = holdout_rsf(
            cluster_records,
            trees=cfg.trees,
            mtry=cfg.mtry,
            seed=_derived_seed(cfg.seed, 3, cid),
            test_size=cfg.test_size,
            use_age=cfg.use_age,
            reference_year=cfg.reference_year,
        )
        run.metrics.append(ClusterMetrics(cid, len(cluster_records), aic, cidx))
        if forest is not None:
            best, worst = scenario_curves(forest, cluster_records)
            write_csv(
                run.out_dir / f"scenarios_cluster_{cid}.csv",
                ("scenario", "time", "survival"),
                (
                    [label, t, s]
                    for label, curve in (("best", best), ("worst", worst))
                    for t, s in zip(curve.times.tolist(), curve.values.tolist())
                ),
            )
    write_csv(
        run.out_dir / "metrics.csv",
        ("cluster", "size", "aic", "c_index"),
        ([m.cluster, m.size, m.aic, m.c_index] for m in run.metrics),
    )


def _manifest(run: RunResult) -> None:
    cfg = run.config
    chosen = replace(cfg, weights=run.weights, k=run.k)
    unused = {"out_dir"} | (
        {"trajectory_csv", "covariate_csv"}
        if cfg.synth_patients > 0
        else {"synth_patients", "synth_max_len", "horizon_days"}
    )
    python = platform.python_version()
    sections = {"versions": {"carepath": __version__, "python": python, "numpy": np.__version__}}
    for (section, key), (name, _) in SETTINGS.items():
        if name not in unused:
            sections.setdefault(section, {})[key] = setting_text(getattr(chosen, name))
    sections["metric"]["tuned"] = setting_text(run.tuned)  # after tune_budget, the last key
    parser = _ini()
    parser.read_dict(sections)
    with open(run.out_dir / "manifest.ini", "w") as fh:
        parser.write(fh)


_STEPS = (
    ("data", _data),
    ("tuning", _tuning),
    ("distance", _distance),
    ("clustering", _clustering),
    ("patterns", _patterns),
    ("frequency", _frequency),
    ("sankey", _sankey),
    ("profiles", _profiles),
    ("survival", _survival),
    ("manifest", _manifest),
)


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Run the steps of ``_STEPS`` in order, writing into ``cfg.out_dir``."""
    cfg.validate()
    out = Path(cfg.out_dir)
    if out.exists() and any(out.iterdir()):
        raise DataError(f"output directory {out} exists and is not empty")
    out.mkdir(parents=True, exist_ok=True)
    run = RunResult(cfg, out, cfg.weights, cfg.k, tuned=cfg.tune_budget > 0)
    for name, step in _STEPS:
        try:
            step(run)
        except Exception as exc:
            shutil.rmtree(out, ignore_errors=True)
            raise StageError(name, exc) from exc
    return run


def cohort_cox_aic(
    records: Sequence[SurvivalRecord],
    use_age: bool = False,
    reference_year: int = DEFAULT_REFERENCE_YEAR,
) -> float | None:
    """AIC of a proportional-hazards fit on the non-constant covariates.

    Returns ``None`` when no covariate varies, the fit degenerates, or the
    fit does not converge.
    """
    X = covariate_matrix(records, use_age=use_age, reference_year=reference_year)
    keep = (X != X[:1]).any(axis=0)
    if not keep.any():
        return None
    try:
        model = cox_fit(records, covariates=X[:, keep])
    except (DataError, NumericError):
        return None
    return cox_aic(model, int(keep.sum())) if model.converged else None


def holdout_rsf(
    records: Sequence[SurvivalRecord],
    trees: int,
    mtry: int | None,
    seed: int,
    test_size: float = 0.25,
    use_age: bool = False,
    reference_year: int = DEFAULT_REFERENCE_YEAR,
):
    """Forest on a seeded train split, concordance on the held-out rest.

    Returns ``(c_index, forest)``, or ``(None, None)`` when the group is
    too small or the statistic is undefined on the holdout.  Bad forest
    settings raise :class:`DataError`.
    """
    if not 0.0 < test_size < 1.0:
        raise DataError("test_size must be in (0, 1)")
    if trees < 1:
        raise DataError("trees must be >= 1")
    if mtry is not None and mtry < 1:
        raise DataError("mtry must be >= 1")
    m = len(records)
    if m < 4:
        return None, None
    train_idx, test_idx = _split_indices(m, test_size, seed)
    train = [records[i] for i in train_idx]
    test = [records[i] for i in test_idx]
    try:
        forest = rsf_fit(
            train,
            n_estimators=trees,
            mtry=mtry,
            seed=seed,
            use_age=use_age,
            reference_year=reference_year,
        )
        risks = rsf_risk_scores(forest, test)
        value = c_index(risks, test)
    except NumericError:
        return None, None
    return value, forest
