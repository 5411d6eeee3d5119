"""Cluster quality scoring and constrained random hyperparameter search.

The score rewards clusterings whose members share frequent code patterns
that are rare in the cohort at large: for each cluster and each pattern
length, the top patterns' within-cluster frequencies are compared against
their whole-dataset frequencies and the differences averaged.

Both frequencies come from one incidence of the cohort.  A single
prefix-projected mining pass (PrefixSpan, Pei et al., ICDE 2001) records,
for every pattern up to the longest scored length, the ids of the
sequences that contain it (the id-lists of SPADE, Zaki, Machine Learning
2001).  One ``np.bincount`` over those (pattern, sequence) pairs then gives
every pattern's support in every cluster, and the id count over the cohort
size gives its whole-dataset frequency, both from exact integer counts.
``cluster_score`` mines once per call; ``tune_search`` encodes the cohort and
mines its code-id rows once per search, and builds only a code table per trial.

The search samples component weights and the cluster count uniformly at
random under the ordering constraint, re-clusters, and keeps the
best-scoring trial.  Every trial derives its own generator from the master
seed and the trial index, so trials are reproducible in isolation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import write_csv
from .errors import DataError
from .kmedoids import fit_kmedoids
from .metric import MAX_WEIGHT, MetricWeights, PatientTrajectory
from .metric import _code_table, _encode_cohort, _matrix
from .patterns import _check_db, _incidence, _Incidence

K_MIN = 2
K_MAX = 20


@dataclass(frozen=True)
class ScoreConfig:
    top_per_length: int = 3
    lengths: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self) -> None:
        if self.top_per_length < 1:
            raise DataError("top_per_length must be >= 1")
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise DataError("lengths must be positive")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    weights: MetricWeights
    k: int
    score: float
    seed: int
    wall_ms: float
    td_history: tuple[float, ...]


def cluster_score(
    db: Sequence[Sequence[str]],
    labels: Sequence[int],
    cfg: ScoreConfig = ScoreConfig(),
    n_clusters: int | None = None,
) -> float:
    """Mean lift of cluster-local top-pattern frequencies over the whole dataset.

    ``labels`` assigns a cluster id to each sequence of ``db``.  Per cluster
    and per pattern length, the ``cfg.top_per_length`` most frequent
    patterns of exactly that length contribute the difference between their
    within-cluster and whole-dataset relative frequencies; lengths with no
    patterns at all drop out of that cluster's average.
    """
    seqs = _check_db(db)
    if len(labels) != len(seqs):
        raise DataError("labels and database must have the same length")
    if not seqs:
        raise DataError("sequence database is empty")
    return _score(_incidence(seqs, max(cfg.lengths)), labels, cfg, n_clusters)


def _score(
    incidence: _Incidence,
    labels: Sequence[int],
    cfg: ScoreConfig,
    n_clusters: int | None,
) -> float:
    """:func:`cluster_score` of ``labels`` over an incidence of the whole cohort."""
    # sorted(set()) like the reference: np.unique's argsort of the labels
    # alone raised a tuned run's peak RSS by about 0.2 MB
    present = sorted(set(labels))
    index = {cid: c for c, cid in enumerate(present)}
    dense = np.array([index[label] for label in labels], dtype=np.intp)
    if n_clusters is not None:
        missing = sorted(set(range(n_clusters)) - set(present))
        if missing:
            raise DataError(f"empty clusters: {missing}")
    n_total = len(dense)
    sizes = np.bincount(dense, minlength=len(present)).tolist()
    supports = incidence.supports(dense, len(present))
    tops = [incidence.top(supports, length, cfg.top_per_length) for length in cfg.lengths]
    counts = incidence.counts.tolist()

    per_cluster: list[float] = []
    for c, (cid, size) in enumerate(zip(present, sizes)):
        length_means: list[float] = []
        for top in tops:
            # Python ints and the reference's operation order keep scores bit-exact
            diffs = [sup / size - counts[pid] / n_total for pid, sup in top[c]]
            if diffs:
                length_means.append(sum(diffs) / len(diffs))
        if not length_means:
            raise DataError(f"cluster {cid} yields no patterns")
        per_cluster.append(sum(length_means) / len(length_means))
    return sum(per_cluster) / len(per_cluster)


def sample_weights(rng: np.random.Generator) -> MetricWeights:
    """Four uniform integer draws in [0, 100], sorted into the ordering constraint."""
    draws = sorted((int(x) for x in rng.integers(0, MAX_WEIGHT + 1, size=4)), reverse=True)
    return MetricWeights(*draws)


def sample_cluster_count(rng: np.random.Generator) -> int:
    return int(rng.integers(K_MIN, K_MAX + 1))


def tune_search(
    patients: Sequence[PatientTrajectory],
    budget: int,
    seed: int,
    score_cfg: ScoreConfig = ScoreConfig(),
) -> tuple[TrialRecord, list[TrialRecord]]:
    """Random search over weights and cluster count; returns (best, full log).

    The cohort needs at least ``K_MAX`` patients, so that every sampled
    cluster count fits.  Ties on the score go to the earliest trial.
    """
    if budget < 1:
        raise DataError("budget must be >= 1")
    if len(patients) < K_MAX:
        raise DataError(
            f"tuning samples up to k={K_MAX} clusters and needs at least "
            f"{K_MAX} patients, got {len(patients)}"
        )
    # the cohort is the same in every trial, so it is encoded and mined once
    reps, rows = _encode_cohort(patients)
    incidence = _incidence(rows, max(score_cfg.lengths))
    log: list[TrialRecord] = []
    for trial in range(budget):
        rng = np.random.default_rng([seed, trial])
        weights = sample_weights(rng)
        k = sample_cluster_count(rng)
        fit_seed = int(rng.integers(0, 2**31 - 1))
        started = time.perf_counter()
        fit = fit_kmedoids(_matrix(_code_table(reps, weights), rows), k, seed=fit_seed)
        score = _score(incidence, fit.assignment, score_cfg, n_clusters=fit.k)
        wall_ms = (time.perf_counter() - started) * 1000.0
        log.append(
            TrialRecord(
                trial_index=trial,
                weights=weights,
                k=k,
                score=score,
                seed=fit_seed,
                wall_ms=wall_ms,
                td_history=fit.td_history,
            )
        )
    best = max(log, key=lambda r: r.score)
    return best, log


TRIAL_LOG_HEADER = ("trial_index", "w1", "w2", "w3", "w4", "k", "score", "wall_ms")


def write_trial_log(path, log: Sequence[TrialRecord]) -> None:
    write_csv(
        path,
        TRIAL_LOG_HEADER,
        (
            [
                rec.trial_index,
                *rec.weights.as_tuple(),
                rec.k,
                rec.score,
                f"{rec.wall_ms:.3f}",
            ]
            for rec in log
        ),
    )
