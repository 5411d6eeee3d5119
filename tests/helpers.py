"""Shared test utilities: random domain objects and independent reference
implementations used to cross-check the package ("oracles")."""

from __future__ import annotations

import csv
import struct
from functools import lru_cache
from itertools import combinations

import numpy as np

from carepath.codes import DEATH, StayCode
from carepath.errors import DataError
from carepath.kmedoids import Clustering
from carepath.metric import MetricWeights, PatientTrajectory, code_distance
from carepath.patterns import MiningConfig, frequent_patterns, render_pattern, support
from carepath.survival import StepFunction, record_covariates
from carepath.synthetic import ArchetypeSpec
from carepath.tuning import ScoreConfig

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

CARE_TYPES = "CKM"
SEVERITIES = "1234_"


def random_code(rng: np.random.Generator) -> StayCode:
    return StayCode(
        category=f"{int(rng.integers(0, 28)):02d}",
        care_type=CARE_TYPES[int(rng.integers(0, len(CARE_TYPES)))],
        counter=f"{int(rng.integers(0, 40)):02d}",
        severity=SEVERITIES[int(rng.integers(0, len(SEVERITIES)))],
    )


def random_trajectory(
    rng: np.random.Generator,
    patient_id: str,
    max_len: int = 6,
    death_prob: float = 0.3,
) -> PatientTrajectory:
    length = int(rng.integers(1, max_len + 1))
    codes = [random_code(rng) for _ in range(length)]
    if rng.random() < death_prob:
        codes.append(DEATH)
    return PatientTrajectory(patient_id, tuple(codes))


def random_weights(rng: np.random.Generator, cap: int = 100) -> MetricWeights:
    draws = sorted((int(x) for x in rng.integers(0, cap + 1, size=4)), reverse=True)
    return MetricWeights(*draws)


# ---------------------------------------------------------------------------
# reference implementations


def oracle_levenshtein(a: str, b: str) -> int:
    """Memoized recursive edit distance, the textbook definition."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

    return rec(len(a), len(b))


def oracle_code_distance(a: StayCode, b: StayCode, w: MetricWeights) -> float:
    if a.is_death and b.is_death:
        return 0.0
    if a.is_death or b.is_death:
        return float(w.category + w.care_type + w.counter + w.severity)

    def ratio(x: str, y: str) -> float:
        return oracle_levenshtein(x, y) / max(len(x), len(y))

    return (
        w.category * ratio(a.category, b.category)
        + w.care_type * ratio(a.care_type, b.care_type)
        + w.counter * ratio(a.counter, b.counter)
        + w.severity * ratio(a.severity, b.severity)
    )


def oracle_trajectory_distance(
    a: PatientTrajectory, b: PatientTrajectory, w: MetricWeights
) -> float:
    def directed(xs, ys) -> float:
        total = 0.0
        for i in range(len(xs)):
            window = sorted({min(max(j, 0), len(ys) - 1) for j in (i - 1, i, i + 1)})
            total += min(oracle_code_distance(xs[i], ys[j], w) for j in window)
        return total

    return (directed(a.codes, b.codes) + directed(b.codes, a.codes)) / 2.0


def oracle_save_matrix_csv(path, matrix, patient_ids) -> None:
    """The matrix CSV written cell by cell through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(patient_ids)
        for row in np.asarray(matrix, dtype=float):
            writer.writerow([repr(float(v)) for v in row])


def oracle_matrix_binary(matrix) -> bytes:
    """The matrix binary: int64 size, then row-major float64, little-endian."""
    matrix = np.asarray(matrix)
    return struct.pack("<q", matrix.shape[0]) + np.ascontiguousarray(matrix, "<f8").tobytes()


def oracle_medoid_profile(
    trajectory: PatientTrajectory, medoid: PatientTrajectory, w: MetricWeights
) -> list[float]:
    """Per-stay minimum code distance to any medoid stay, pair by pair."""
    return [min(code_distance(c, mc, w) for mc in medoid.codes) for c in trajectory.codes]


def oracle_fit_kmedoids(matrix, k: int, seed: int, max_iter: int = 100) -> Clustering:
    """Plain first-improvement PAM: every candidate swap is scored in full.

    Same seeding, scan order and tie rules as ``fit_kmedoids``, so the two
    must agree exactly, including ``td_history``.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]

    def total_distance(medoids) -> float:
        return float(m[:, medoids].min(axis=1).sum())

    rng = np.random.default_rng(seed)
    medoids = np.sort(rng.choice(n, size=k, replace=False))
    td = total_distance(medoids)
    initial_total = td
    history: list[float] = []

    converged = False
    for _ in range(max_iter):
        improved = False
        medoids = np.sort(medoids)
        for slot in range(k):
            current = set(medoids.tolist())
            for p in range(n):
                if p in current:
                    continue
                candidate = medoids.copy()
                candidate[slot] = p
                cand_td = total_distance(candidate)
                if cand_td < td:
                    medoids = candidate
                    td = cand_td
                    history.append(td)
                    current = set(medoids.tolist())
                    improved = True
        if not improved:
            converged = True
            break

    medoids = np.sort(medoids)
    cols = m[:, medoids]
    assignment = cols.argmin(axis=1)
    for cid, mi in enumerate(medoids):
        assignment[mi] = cid
    dist = cols[np.arange(n), assignment]
    return Clustering(
        k=k,
        medoid_indices=tuple(int(x) for x in medoids),
        assignment=assignment.astype(int),
        distance_to_medoid=dist,
        total_distance=float(dist.sum()),
        initial_total=initial_total,
        td_history=tuple(history),
        converged=converged,
        seed=seed,
    )


def oracle_pattern_supports(db, max_len: int) -> dict[tuple[str, ...], int]:
    """Brute force: enumerate every distinct subsequence, count containment."""

    def subsequences(seq):
        out = set()
        for r in range(1, min(max_len, len(seq)) + 1):
            for picks in combinations(range(len(seq)), r):
                out.add(tuple(seq[i] for i in picks))
        return out

    candidates: set[tuple[str, ...]] = set()
    for seq in db:
        candidates |= subsequences(seq)

    def contains(seq, pattern) -> bool:
        it = iter(seq)
        return all(any(item == want for item in it) for want in pattern)

    return {
        pattern: sum(1 for seq in db if contains(seq, pattern))
        for pattern in candidates
    }


def oracle_cluster_score(db, labels, cfg=None, n_clusters=None) -> float:
    """Per-cluster mining plus a whole-cohort ``support`` scan per top pattern."""
    cfg = ScoreConfig() if cfg is None else cfg
    seqs = [list(s) for s in db]
    if len(labels) != len(seqs):
        raise DataError("labels and database must have the same length")
    if not seqs:
        raise DataError("sequence database is empty")
    present = sorted(set(labels))
    if n_clusters is not None:
        missing = sorted(set(range(n_clusters)) - set(present))
        if missing:
            raise DataError(f"empty clusters: {missing}")
    n_total = len(seqs)
    mining = MiningConfig(min_support=1, min_len=min(cfg.lengths), max_len=max(cfg.lengths))

    dataset_freq: dict[tuple[str, ...], float] = {}
    per_cluster: list[float] = []
    for cid in present:
        members = [seqs[i] for i, l in enumerate(labels) if l == cid]
        size = len(members)
        by_len: dict[int, list] = {}
        for mined in frequent_patterns(members, mining):
            by_len.setdefault(len(mined.pattern), []).append(mined)
        length_means: list[float] = []
        for length in cfg.lengths:
            # already in (support desc, pattern asc) order, so the head is the top
            top = by_len.get(length, [])[: cfg.top_per_length]
            if not top:
                continue
            diffs = []
            for mined in top:
                freq = dataset_freq.get(mined.pattern)
                if freq is None:
                    freq = support(seqs, mined.pattern) / n_total
                    dataset_freq[mined.pattern] = freq
                diffs.append(mined.support / size - freq)
            length_means.append(sum(diffs) / len(diffs))
        if not length_means:
            raise DataError(f"cluster {cid} yields no patterns")
        per_cluster.append(sum(length_means) / len(length_means))
    return sum(per_cluster) / len(per_cluster)


def oracle_pattern_report_rows(db, labels, k: int, min_support: int, max_len: int, top_k: int):
    """``patterns.csv`` rows from one ``frequent_patterns`` pass per scope."""
    mining = MiningConfig(min_support=min_support, min_len=1, max_len=max_len)
    scopes = [("all", db)] + [
        (f"cluster_{cid}", [seq for seq, label in zip(db, labels) if label == cid])
        for cid in range(k)
    ]
    rows = []
    for scope, scope_db in scopes:
        by_len: dict[int, list] = {}
        for mined in frequent_patterns(scope_db, mining):
            by_len.setdefault(len(mined.pattern), []).append(mined)
        for length in range(1, max_len + 1):
            for rank, mined in enumerate(by_len.get(length, [])[:top_k], start=1):
                rows.append(
                    [
                        scope,
                        length,
                        rank,
                        mined.support,
                        f"{mined.support / len(scope_db):.6f}",
                        render_pattern(mined.pattern),
                    ]
                )
    return rows


def _death_table(times, events):
    # (time, deaths, at risk) at each distinct event time, one count at a time
    times = list(times)
    events = list(events)
    for t in sorted({t for t, e in zip(times, events) if e == 1}):
        d = sum(1 for tt, ee in zip(times, events) if tt == t and ee == 1)
        n = sum(1 for tt in times if tt >= t)
        yield t, d, n


def oracle_kaplan_meier(times, events):
    """Plain-loop product-limit estimate: times (n - d) / n at event times."""
    out_t, out_v = [], []
    acc = 1.0
    for t, d, n in _death_table(times, events):
        acc *= (n - d) / n
        out_t.append(t)
        out_v.append(acc)
    return out_t, out_v


def oracle_nelson_aalen(times, events):
    """Plain-loop cumulative hazard estimate: sum of d/n at event times."""
    out_t, out_v = [], []
    acc = 0.0
    for t, d, n in _death_table(times, events):
        acc += d / n
        out_t.append(t)
        out_v.append(acc)
    return out_t, out_v


def oracle_c_index(risks, times, events) -> float:
    mass = 0.0
    pairs = 0
    n = len(risks)
    for i in range(n):
        for j in range(n):
            if i == j or events[i] != 1 or not times[i] < times[j]:
                continue
            pairs += 1
            if risks[i] > risks[j]:
                mass += 1.0
            elif risks[i] == risks[j]:
                mass += 0.5
    if pairs == 0:
        raise ZeroDivisionError("no comparable pairs")
    return mass / pairs


def oracle_cox_logpl(beta: float, x, T, E) -> float:
    """Single-covariate Breslow log partial likelihood."""
    x = np.asarray(x, dtype=float)
    T = np.asarray(T, dtype=float)
    E = np.asarray(E, dtype=int)
    order = np.argsort(-T, kind="stable")
    xs, ts, es = x[order], T[order], E[order]
    cw = np.cumsum(np.exp(beta * xs))
    block_end = np.searchsorted(-ts, -ts, side="right")
    ll = 0.0
    for i in np.nonzero(es == 1)[0]:
        ll += beta * xs[i] - np.log(cw[block_end[i] - 1])
    return float(ll)


def oracle_breslow_baseline(X, T, E, beta):
    """Breslow baseline cumulative hazard at ``beta``, one event time at a time.

    ``X`` is the centered design the model was fitted on.
    """
    w = np.exp(X @ beta)
    times = np.unique(T[E == 1])
    steps = [np.sum((T == t) & (E == 1)) / w[T >= t].sum() for t in times]
    return times, np.cumsum(steps)


def oracle_breslow_stats(Xc, T, E, beta):
    """Breslow log partial likelihood, gradient, Hessian and baseline steps
    ``(time, d / s0)`` at ``beta``, one descending-time block at a time.

    ``Xc`` is the centered design.  Its running sums and its ``+=`` order
    fix what the fitter's vectorised sweep must reproduce bit for bit.
    """
    order = np.argsort(-T, kind="stable")
    x = Xc[order]
    t = T[order]
    e = E[order]
    eta = x @ beta
    w = np.exp(eta)
    p = Xc.shape[1]
    ll = 0.0
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    steps: list[tuple[float, float]] = []
    s0 = 0.0
    s1 = np.zeros(p)
    s2 = np.zeros((p, p))
    n = len(t)
    i = 0
    while i < n:
        j = i
        while j < n and t[j] == t[i]:
            j += 1
        xb = x[i:j]
        wb = w[i:j]
        s0 += float(wb.sum())
        s1 += wb @ xb
        s2 += (xb * wb[:, None]).T @ xb
        ev = e[i:j] == 1
        d = int(ev.sum())
        if d:
            mean = s1 / s0
            ll += float(eta[i:j][ev].sum()) - d * np.log(s0)
            grad += xb[ev].sum(axis=0) - d * mean
            hess -= d * (s2 / s0 - np.outer(mean, mean))
            steps.append((float(t[i]), d / s0))
        i = j
    return ll, grad, hess, steps


def logrank_statistic(T: np.ndarray, E: np.ndarray, group: np.ndarray) -> float:
    """Absolute standardized two-sample log-rank statistic.

    ``group`` flags membership of the first sample.  Zero when the split
    separates nothing (or the variance vanishes).  Its 1-D sums fix the
    order in which the forest's one-pass split search must add.
    """
    T = np.asarray(T, dtype=float)
    E = np.asarray(E, dtype=int)
    group = np.asarray(group, dtype=bool)
    uniq, ranks = np.unique(T, return_inverse=True)
    u = uniq.size
    d = np.bincount(ranks[E == 1], minlength=u)
    at_risk = np.cumsum(np.bincount(ranks, minlength=u)[::-1])[::-1]
    at_risk1 = np.cumsum(np.bincount(ranks[group], minlength=u)[::-1])[::-1]
    d1 = np.bincount(ranks[group & (E == 1)], minlength=u)
    has_events = d > 0
    d_e, y_e = d[has_events], at_risk[has_events]
    frac = at_risk1[has_events] / y_e
    num = float(np.sum(d1[has_events] - d_e * frac))
    ok = y_e > 1
    d_ok, y_ok, frac_ok = d_e[ok], y_e[ok], frac[ok]
    var = float(np.sum(d_ok * frac_ok * (1.0 - frac_ok) * (y_ok - d_ok) / (y_ok - 1.0)))
    if var <= 0.0:
        return 0.0
    return abs(num) / np.sqrt(var)


def oracle_best_split(X, T, E, rng, mtry, min_leaf):
    """Per-threshold log-rank split search: every midpoint of every drawn
    feature is scored on its own, and the first strict maximum wins."""
    n, p = X.shape
    feats = np.sort(rng.choice(p, size=min(mtry, p), replace=False))
    best_stat = 0.0
    best = None
    for f in feats:
        vals = X[:, f]
        levels = np.unique(vals)
        for thr in (levels[:-1] + levels[1:]) / 2.0:
            mask = vals <= thr
            n_left = int(mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            stat = logrank_statistic(T, E, mask)
            if stat > best_stat:
                best_stat = stat
                best = (int(f), float(thr), mask)
    return best


def walk_tree(node, x):
    while "feature" in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


def _steps_at(times, values, grid):
    return StepFunction(times, values, initial=0.0)(grid)


def _forest_input(forest, covariates):
    x = np.array(covariates, dtype=float)
    if forest.use_age:
        x[0] = forest.reference_year - x[0]
    return x


def oracle_rsf_predict(forest, covariates):
    """One record, every tree walked on its own; the curve lives on the
    union of the reached leaves' jump times."""
    x = _forest_input(forest, covariates)
    leaves = [walk_tree(tree, x) for tree in forest.trees]
    parts = [leaf["times"] for leaf in leaves if leaf["times"].size]
    if not parts:
        return StepFunction(np.empty(0), np.empty(0), initial=1.0), 0.0
    grid = np.unique(np.concatenate(parts))
    acc = np.zeros(grid.shape)
    for leaf in leaves:
        acc += _steps_at(leaf["times"], leaf["chf"], grid)
    chf = acc / len(leaves)
    risk = float(_steps_at(grid, chf, forest.event_times).sum())
    return StepFunction(grid, np.exp(-chf), initial=1.0), risk


def oracle_rsf_risk_scores(forest, records) -> np.ndarray:
    """Per record, the tree average of the reached leaf's hazard summed
    over the training event times, added tree by tree."""
    out = np.empty(len(records))
    for i, rec in enumerate(records):
        x = _forest_input(forest, record_covariates(rec))
        total = 0.0
        for tree in forest.trees:
            leaf = walk_tree(tree, x)
            total += float(_steps_at(leaf["times"], leaf["chf"], forest.event_times).sum())
        out[i] = total / len(forest.trees)
    return out


def oracle_scenario_curves(forest, records):
    """Each member predicted on its own, re-evaluated on zero plus the
    event times and ranked by trapezoidal area; ties keep the earliest."""
    grid = np.unique(np.concatenate([[0.0], forest.event_times]))
    curves = []
    areas = []
    for rec in records:
        surv, _ = oracle_rsf_predict(forest, record_covariates(rec))
        vals = surv(grid)
        curves.append(StepFunction(grid, vals, initial=1.0))
        areas.append(float(_trapezoid(vals, grid)))
    return curves[int(np.argmax(areas))], curves[int(np.argmin(areas))]


# ---------------------------------------------------------------------------
# synthetic batteries for specific scenarios


def blob_archetypes() -> list[ArchetypeSpec]:
    """Two subpopulations with disjoint code categories, easy to separate."""
    shared = dict(
        stickiness=0.5,
        death_hazard=0.05,
        p_female=0.5,
        p_shock=0.1,
        mean_stay_days=5.0,
        base_rate=1.0 / 2000.0,
        beta_age=1.0,
        beta_sex=0.1,
        beta_shock=0.5,
    )
    return [
        ArchetypeSpec(
            name="cardiac",
            code_pool=(("05M091", 2.0), ("05M092", 3.0), ("05M093", 1.0)),
            birth_year_range=(1930, 1950),
            **shared,
        ),
        ArchetypeSpec(
            name="renal",
            code_pool=(("11M041", 2.0), ("11M042", 3.0), ("11M043", 1.0)),
            birth_year_range=(1935, 1955),
            **shared,
        ),
    ]


def strong_signal_archetypes() -> list[ArchetypeSpec]:
    """One population whose hazard leans hard on age and shock."""
    return [
        ArchetypeSpec(
            name="gradient",
            code_pool=(("05M091", 1.0), ("05M092", 1.0)),
            stickiness=0.5,
            death_hazard=0.0,
            birth_year_range=(1920, 1960),
            p_female=0.5,
            p_shock=0.3,
            mean_stay_days=5.0,
            base_rate=1.0 / 3000.0,
            beta_age=2.5,
            beta_sex=0.1,
            beta_shock=1.5,
        )
    ]
