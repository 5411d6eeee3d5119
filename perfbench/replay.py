"""Traced replay of one `carepath run` through the public functions of each module.

The replay calls the same functions in the same order as
``carepath.pipeline.run_pipeline`` and wraps every call in a span, so the
per-layer numbers come from outside the program.  It writes only the
distance-matrix CSV (to time that writer); everything else it keeps in
memory and returns, so the caller can compare it with the artifacts of an
untraced run on the same inputs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from carepath.dataio import load_dataset
from carepath.errors import DataError, NumericError
from carepath.kmedoids import fit_kmedoids, medoid_profile
from carepath.metric import distance_matrix, save_matrix_csv
from carepath.patterns import MiningConfig, frequent_patterns
from carepath.pipeline import PipelineConfig, cohort_cox_aic, frequency_table, sankey_flows
from carepath.survival import c_index, rsf_fit, rsf_risk_scores, scenario_curves
from carepath.tuning import (
    ScoreConfig,
    cluster_score,
    sample_cluster_count,
    sample_weights,
)


@dataclass(frozen=True)
class Span:
    name: str
    parent: int | None  # index of the enclosing span, None for a root span
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory spans and counters for one replay."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, 0.0, 0.0))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, parent, start, end)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def seconds(self, name: str) -> float:
        """Total time of every span with this name."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def root_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)


@dataclass
class ReplayResult:
    """The replay's counterparts of assignments.csv, metrics.csv and trial_log.csv."""

    assignments: list[list[str]]
    metrics: list[list[str]]
    trials: list[list[str]]
    wall_s: float


def derived_seed(*parts: int) -> int:
    """The pipeline's per-stage seed: one draw from a generator seeded by ``parts``."""
    return int(np.random.default_rng(list(parts)).integers(0, 2**31 - 1))


def split_indices(m: int, test_size: float, seed: int):
    """The pipeline's seeded train/holdout split of ``m`` records."""
    perm = np.random.default_rng(seed).permutation(m)
    n_test = max(1, int(round(m * test_size)))
    if n_test >= m:
        n_test = m - 1
    return perm[n_test:], perm[:n_test]


def tree_nodes(tree) -> int:
    """Node count of one forest tree (nested dicts, or an object with ``node_count``)."""
    if isinstance(tree, dict):
        if "feature" not in tree:
            return 1
        return 1 + tree_nodes(tree["left"]) + tree_nodes(tree["right"])
    return int(tree.node_count)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _tune(tr: Tracer, trajectories, db, cfg: PipelineConfig):
    """Replay ``tune_search`` trial by trial; returns (weights, k, trial rows)."""
    seed = derived_seed(cfg.seed, 4)
    score_cfg = ScoreConfig(top_per_length=cfg.top_k)
    trials = []
    best = None
    for trial in range(cfg.tune_budget):
        rng = np.random.default_rng([seed, trial])
        weights = sample_weights(rng)
        k = sample_cluster_count(rng)
        fit_seed = int(rng.integers(0, 2**31 - 1))
        with tr.span("tuning.trial.distance_matrix"):
            matrix = distance_matrix(trajectories, weights)
        with tr.span("tuning.trial.fit_kmedoids"):
            fit = fit_kmedoids(matrix, k, seed=fit_seed)
        with tr.span("tuning.trial.cluster_score"):
            score = cluster_score(db, fit.assignment, score_cfg, n_clusters=fit.k)
        tr.count("tuning.trials", 1)
        trials.append([str(trial), *map(str, weights.as_tuple()), str(k), repr(score)])
        if best is None or score > best[0]:
            best = (score, weights, k)
    return best[1], best[2], trials


def replay(cfg: PipelineConfig, matrix_csv: str, tr: Tracer) -> ReplayResult:
    """Run the stages of ``run_pipeline`` for CSV inputs under ``tr``'s spans."""
    started = time.perf_counter()
    with tr.span("dataio.load_dataset"):
        trajectories, records = load_dataset(cfg.trajectory_csv, cfg.covariate_csv)
    tr.count("dataio.rows", sum(len(t.codes) for t in trajectories) + len(records))
    db = [t.renderings() for t in trajectories]

    weights, k, trials = cfg.weights, cfg.k, []
    if cfg.tune_budget > 0:
        with tr.span("tuning.tune_search"):
            weights, k, trials = _tune(tr, trajectories, db, cfg)

    n = len(trajectories)
    with tr.span("metric.distance_matrix"):
        matrix = distance_matrix(trajectories, weights)
    tr.count("metric.pairs", n * (n - 1) // 2)
    tr.count("metric.vocab", len({c.render() for t in trajectories for c in t.codes}))
    patient_ids = [t.patient_id for t in trajectories]
    with tr.span("metric.save_matrix_csv"):
        save_matrix_csv(matrix_csv, matrix, patient_ids)
    tr.count("metric.matrix_csv_bytes", os.path.getsize(matrix_csv))

    with tr.span("kmedoids.fit_kmedoids"):
        clustering = fit_kmedoids(matrix, k, seed=derived_seed(cfg.seed, 1))
    tr.count("kmedoids.swaps", len(clustering.td_history))
    tr.count("kmedoids.converged", int(clustering.converged))
    medoid_set = set(clustering.medoid_indices)
    assignments = [
        [
            patient_ids[i],
            str(int(clustering.assignment[i])),
            repr(float(clustering.distance_to_medoid[i])),
            "1" if i in medoid_set else "0",
        ]
        for i in range(n)
    ]
    members: dict[int, list[int]] = {c: [] for c in range(k)}
    for i, label in enumerate(clustering.assignment):
        members[int(label)].append(i)

    mining = MiningConfig(min_support=cfg.min_support, min_len=1, max_len=cfg.mining_max_len)
    for scope_db in [db] + [[db[i] for i in members[cid]] for cid in range(k)]:
        with tr.span("patterns.frequent_patterns"):
            mined = frequent_patterns(scope_db, mining)
        tr.count("patterns.mined", len(mined))

    deceased = [t for t in trajectories if t.ends_in_death]
    groups = [deceased] + [
        [trajectories[i] for i in members[cid] if trajectories[i].ends_in_death]
        for cid in range(k)
    ]
    for dead in groups:
        if dead:
            with tr.span("pipeline.frequency_table"):
                frequency_table(dead, cfg.positions, cfg.top_k)

    pairs = [(i, i + 1) for i in range(cfg.sankey_pairs)]
    for cid in range(k):
        cluster_traj = [trajectories[i] for i in members[cid]]
        with tr.span("pipeline.sankey_flows"):
            sankey_flows(cluster_traj, pairs, cfg.top_k)

    with tr.span("kmedoids.medoid_profile"):
        for i, traj in enumerate(trajectories):
            medoid = trajectories[clustering.medoid_indices[int(clustering.assignment[i])]]
            medoid_profile(traj, medoid, weights)

    metrics = []
    for cid in range(k):
        group = [records[i] for i in members[cid]]
        with tr.span("survival.cohort_cox_aic"):
            aic = cohort_cox_aic(group, cfg.use_age, cfg.reference_year)
        cidx, forest = _holdout_rsf(tr, group, cfg, derived_seed(cfg.seed, 3, cid))
        metrics.append([str(cid), str(len(group)), _fmt(aic), _fmt(cidx)])
        if forest is not None:
            with tr.span("survival.scenario_curves"):
                scenario_curves(forest, group)
            tr.count("survival.records_scored", len(group))
    return ReplayResult(assignments, metrics, trials, time.perf_counter() - started)


def _holdout_rsf(tr: Tracer, group, cfg: PipelineConfig, seed: int):
    """Replay ``holdout_rsf`` with a span around each of its three calls."""
    if len(group) < 4:
        return None, None
    train_idx, test_idx = split_indices(len(group), cfg.test_size, seed)
    train = [group[i] for i in train_idx]
    test = [group[i] for i in test_idx]
    try:
        with tr.span("survival.rsf_fit"):
            forest = rsf_fit(
                train,
                n_estimators=cfg.trees,
                mtry=cfg.mtry,
                seed=seed,
                use_age=cfg.use_age,
                reference_year=cfg.reference_year,
            )
        tr.count("survival.trees", len(forest.trees))
        tr.count("survival.tree_nodes", sum(tree_nodes(t) for t in forest.trees))
        with tr.span("survival.rsf_risk_scores"):
            risks = rsf_risk_scores(forest, test)
        tr.count("survival.records_scored", len(test))
        with tr.span("survival.c_index"):
            value = c_index(risks, test)
    except (DataError, NumericError):
        return None, None
    return value, forest
