"""Censored survival estimation on hospitalization cohorts.

Covers the product-limit survival curve, Harrell concordance, proportional
hazards regression with Breslow tie handling, and a random survival forest
whose leaves hold Nelson-Aalen cumulative hazards.  All estimators consume
:class:`SurvivalRecord` rows carrying the five cohort covariates plus
follow-up time and an event indicator.

A Cox fit lays out its risk sets once: the records in descending time, the
blocks of equal times, and each event block's event count and covariate
sum over its events.  Each Newton or line-search step is then one sweep.
An untied block's sums of ``w``, ``w x`` and ``w x x'`` are single
products; a tied block's are the expressions of the per-block reference
loop (``oracle_breslow_stats`` in ``tests/helpers.py``).  The running
risk-set sums and the event blocks' likelihood, gradient and Hessian terms
are added with ``np.add.accumulate``, which adds left to right as the
loop's ``+=`` does, so every number equals the loop's bit for bit and fits
and AICs do not move.

Forest trees stay nested dicts.  The three forest evaluators (one-record
prediction, batch risk scores, scenario curves) share one batched descent
that routes all rows through each tree with one comparison per split node,
then add the reached leaves' hazards tree by tree in tree order.

A forest ranks its covariates and follow-up times once; bootstrap rows
index those ranks, so trees grow on integers.  A node's split search scores
every threshold of all drawn covariates in one pass (the log-rank split
rule of Ishwaran et al., 2008).  The node's levels are the forest levels
present in it, so its midpoint thresholds are the same floats; its columns
are its death times, and each record falls in the last one at or before its
time.  One ``bincount`` over (level, column) counts records and deaths;
cumulative sums over each covariate's levels and then over columns give the
left group's deaths and risk sets for every threshold.  The statistic's
numerator and variance are row sums that add in the order of the 1-D sums
of the per-threshold reference (``oracle_best_split`` in
``tests/helpers.py``), and the first maximum in (covariate, threshold) order
wins, so the trees equal those of a per-threshold search.  A node with fewer
than ``2 * min_leaf`` records still draws its covariates, then stays a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError

DEFAULT_REFERENCE_YEAR = 2016
SEPARATION_BOUND = 50.0
DEFAULT_MIN_SAMPLES_SPLIT = 10
DEFAULT_MIN_SAMPLES_LEAF = 15
_N_COVARIATES = 5  # the columns of record_covariates

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class SeparationError(NumericError):
    """Monotone partial likelihood: a coefficient ran away during fitting."""


class DegenerateCovariatesError(NumericError):
    """The information matrix is singular; covariates carry no usable signal."""


@dataclass(frozen=True)
class SurvivalRecord:
    """Follow-up of one patient: covariates, time in days, event indicator."""

    patient_id: str
    birth_year: int
    sex: int
    n_hospitalizations: int
    shock_flag: int
    total_stay_days: int
    time: float
    event: int

    def __post_init__(self) -> None:
        if not 0 <= self.time < np.inf:
            raise DataError(
                f"patient {self.patient_id!r}: follow-up time must be finite and "
                f"non-negative, got {self.time!r}"
            )
        if self.event not in (0, 1):
            raise DataError(f"patient {self.patient_id!r}: event must be 0 or 1")
        if self.sex not in (1, 2):
            raise DataError(f"patient {self.patient_id!r}: sex must be 1 or 2")
        if self.shock_flag not in (0, 1):
            raise DataError(f"patient {self.patient_id!r}: shock_flag must be 0 or 1")


def record_covariates(record: SurvivalRecord) -> np.ndarray:
    return np.array(
        [
            record.birth_year,
            record.sex,
            record.n_hospitalizations,
            record.shock_flag,
            record.total_stay_days,
        ],
        dtype=float,
    )


def covariate_matrix(
    records: Sequence[SurvivalRecord],
    use_age: bool = False,
    reference_year: int = DEFAULT_REFERENCE_YEAR,
) -> np.ndarray:
    """Design matrix over the five cohort covariates.

    With ``use_age`` the birth year column is replaced by
    ``reference_year - birth_year``.
    """
    # reshape keeps the five columns when there are no records
    X = np.array([record_covariates(r) for r in records], dtype=float)
    X = X.reshape(-1, _N_COVARIATES)
    if use_age:
        X[:, 0] = reference_year - X[:, 0]
    return X


def times_events(records: Sequence[SurvivalRecord]) -> tuple[np.ndarray, np.ndarray]:
    T = np.array([r.time for r in records], dtype=float)
    E = np.array([r.event for r in records], dtype=int)
    return T, E


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function given by jump times and post-jump values."""

    times: np.ndarray
    values: np.ndarray
    initial: float = 1.0

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise DataError("times and values must be equal-length vectors")
        if t.size and np.any(np.diff(t) <= 0):
            raise DataError("jump times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = _eval_steps(self.times, self.values, arr, self.initial)
        if arr.ndim == 0:
            return float(out)
        return out


def _eval_steps(times, values, grid, initial: float = 0.0) -> np.ndarray:
    # the value of the last jump at or before each grid point, else ``initial``
    if times.size == 0:
        return np.full(grid.shape, initial)
    idx = np.searchsorted(times, grid, side="right") - 1
    return np.where(idx >= 0, values[np.maximum(idx, 0)], initial)


def _risk_table(t, E):
    """Of time ranks ``t``: the ranks holding a death, the deaths there, and
    the records at risk there (those at that rank or later)."""
    counts = np.bincount(t)
    d = np.bincount(t[E == 1], minlength=counts.size)
    has = np.flatnonzero(d)
    at_risk = len(t) - np.cumsum(counts) + counts
    return has, d[has], at_risk[has]


def kaplan_meier(records: Sequence[SurvivalRecord]) -> StepFunction:
    """Product-limit estimate of the survival function.

    Starts at 1, multiplies by ``1 - d/n`` at each distinct event time, and
    is constant between events.  Censored times only shrink the risk sets.
    """
    if not records:
        raise DataError("no records")
    T, E = times_events(records)
    times, t = np.unique(T, return_inverse=True)
    has, d, n_risk = _risk_table(t, E)
    # (n - d) / n rather than 1 - d/n keeps single-event factors exact
    surv = np.cumprod((n_risk - d) / n_risk)
    return StepFunction(times[has], surv, initial=1.0)


def nelson_aalen(records: Sequence[SurvivalRecord]) -> StepFunction:
    """Cumulative hazard estimate: sum of ``d/n`` increments at event times."""
    if not records:
        raise DataError("no records")
    T, E = times_events(records)
    times, t = np.unique(T, return_inverse=True)
    leaf = _leaf(t, E, times)
    return StepFunction(leaf["times"], leaf["chf"], initial=0.0)


def c_index(risks: Sequence[float], records: Sequence[SurvivalRecord]) -> float:
    """Harrell concordance of risk scores against observed outcomes.

    A pair is comparable when the earlier time belongs to an observed event;
    the pair counts 1 when the earlier failure carries the higher risk, 0.5
    on tied risks.
    """
    risks = np.asarray(risks, dtype=float)
    T, E = times_events(records)
    if risks.shape != T.shape:
        raise DataError("risks and records must align")
    comparable = (T[:, None] < T[None, :]) & (E[:, None] == 1)
    n_comparable = int(comparable.sum())
    if n_comparable == 0:
        raise NumericError("no comparable pairs; concordance is undefined")
    ri, rj = risks[:, None], risks[None, :]
    concordant = int((comparable & (ri > rj)).sum())
    tied = int((comparable & (ri == rj)).sum())
    return (concordant + 0.5 * tied) / n_comparable


@dataclass(frozen=True, eq=False)
class CoxModel:
    """Fitted proportional-hazards model on centered covariates."""

    beta: np.ndarray
    log_partial_likelihood: float
    baseline_cumhaz: StepFunction
    covariate_means: np.ndarray
    n_iter: int
    converged: bool


@dataclass(frozen=True, eq=False)
class _RiskSets:
    """What the Breslow sums need that does not depend on ``beta``.

    Records run in descending time; a block is a run of equal times.
    """

    x: np.ndarray  # centered covariates in descending time
    x_first: np.ndarray  # each block's first row
    first: np.ndarray  # each block's first record
    tied: list  # (block, start, stop, event mask, event-block position or -1)
    events: np.ndarray  # the blocks holding an event
    deaths: np.ndarray  # each event block's event count
    event_x: np.ndarray  # each event block's covariate sum over its events
    times: np.ndarray  # each event block's time


def _risk_sets(Xc, T, E) -> _RiskSets:
    order = np.argsort(-T, kind="stable")
    x = Xc[order]
    t = T[order]
    e = E[order]
    first = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    stop = np.r_[first[1:], len(t)]
    deaths = np.add.reduceat(e, first)
    events = np.flatnonzero(deaths)
    position = np.full(len(first), -1)
    position[events] = np.arange(len(events))
    event_x = x[first[events]]
    tied = []
    for block in np.flatnonzero(stop - first > 1):
        i, j = first[block], stop[block]
        ev = e[i:j] == 1
        k = position[block]
        if k >= 0:
            event_x[k] = x[i:j][ev].sum(axis=0)
        tied.append((block, i, j, ev, k))
    return _RiskSets(
        x=x,
        x_first=x[first],
        first=first,
        tied=tied,
        events=events,
        deaths=deaths[events],
        event_x=event_x,
        times=t[first[events]],
    )


def _in_order(terms: np.ndarray) -> np.ndarray:
    # the sum over the first axis, added left to right like ``acc += term``
    # (``sum`` may add pairwise)
    return np.add.accumulate(terms)[-1]


def _breslow_sweep(rs: _RiskSets, beta):
    """Breslow log partial likelihood, its gradient and Hessian at ``beta``,
    and each event block's baseline hazard increment ``d / s0``.

    Needs at least one event.
    """
    eta = rs.x @ beta
    w = np.exp(eta)
    # each block's sums; an untied block's are single products
    b0 = w[rs.first]
    b1 = rs.x_first * b0[:, None]
    b2 = b1[:, :, None] * rs.x_first[:, None, :]
    eta_e = eta[rs.first[rs.events]]
    for block, i, j, ev, k in rs.tied:
        xb = rs.x[i:j]
        wb = w[i:j]
        b0[block] = wb.sum()
        b1[block] = wb @ xb
        b2[block] = (xb * wb[:, None]).T @ xb
        if k >= 0:
            eta_e[k] = eta[i:j][ev].sum()
    # risk-set sums at the event blocks
    s0 = np.add.accumulate(b0)[rs.events]
    s1 = np.add.accumulate(b1)[rs.events]
    s2 = np.add.accumulate(b2)[rs.events]
    d = rs.deaths
    mean = s1 / s0[:, None]
    ll = _in_order(eta_e - d * np.log(s0))
    grad = _in_order(rs.event_x - d[:, None] * mean)
    # d * (m m' - s2 / s0) is exactly -(d * (s2 / s0 - m m')), so adding
    # these terms equals the reference loop's subtracting of those
    outer = mean[:, :, None] * mean[:, None, :]
    hess = _in_order(d[:, None, None] * (outer - s2 / s0[:, None, None]))
    return ll, grad, hess, d / s0


def cox_fit(
    records: Sequence[SurvivalRecord],
    covariates: np.ndarray | None = None,
    use_age: bool = False,
    reference_year: int = DEFAULT_REFERENCE_YEAR,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> CoxModel:
    """Fit a proportional-hazards model by damped Newton iterations.

    Ties use the Breslow approximation.  Covariates are centered before
    fitting; ``covariates`` overrides the default five-column design.
    Convergence means the gradient max-norm drops below ``tol``; a fit that
    stops before (``max_iter`` reached or the line search stalled) has
    ``converged`` false.  A coefficient passing +-50 raises
    :class:`SeparationError` and a singular information matrix raises
    :class:`DegenerateCovariatesError`.
    """
    if covariates is None:
        X = covariate_matrix(records, use_age=use_age, reference_year=reference_year)
    else:
        X = np.asarray(covariates, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
    T, E = times_events(records)
    if X.shape[0] != len(T):
        raise DataError("covariate rows and records must align")
    if int(E.sum()) < 2:
        raise DataError("need at least two events to fit")

    means = X.mean(axis=0)
    Xc = X - means
    beta = np.zeros(X.shape[1])
    rs = _risk_sets(Xc, T, E)
    ll, grad, hess, steps = _breslow_sweep(rs, beta)
    n_iter = 0
    for _ in range(max_iter):
        if float(np.max(np.abs(grad))) < tol:
            break
        n_iter += 1
        try:
            delta = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovariatesError("singular information matrix") from exc
        step = 1.0
        improved = False
        for _ in range(45):
            cand = beta + step * delta
            # where exp(eta) overflows, or underflows over a whole risk set, the
            # likelihood is -inf, nan or +inf; the test below decides, unwarned
            # (the first two fail it, +inf passes it)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                ll_new, grad_new, hess_new, steps_new = _breslow_sweep(rs, cand)
            if ll_new >= ll - 1e-12:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        beta, ll, grad, hess, steps = cand, ll_new, grad_new, hess_new, steps_new
        if float(np.max(np.abs(beta))) > SEPARATION_BOUND:
            raise SeparationError(
                f"coefficient magnitude exceeded {SEPARATION_BOUND}; likely separation"
            )
    return CoxModel(
        beta=beta,
        log_partial_likelihood=float(ll),
        baseline_cumhaz=StepFunction(rs.times[::-1], np.cumsum(steps[::-1]), initial=0.0),
        covariate_means=means,
        n_iter=n_iter,
        converged=float(np.max(np.abs(grad))) < tol,
    )


def cox_aic(model: CoxModel, p: int) -> float:
    """Akaike information criterion: ``2 p - 2 log PL``."""
    return 2.0 * p - 2.0 * model.log_partial_likelihood


@dataclass(eq=False)
class SurvivalForest:
    """Bagged survival trees splitting on the log-rank statistic."""

    trees: list[dict]
    bootstrap_indices: list[np.ndarray]
    event_times: np.ndarray
    n_estimators: int
    mtry: int
    min_samples_split: int
    min_samples_leaf: int
    seed: int
    use_age: bool = False
    reference_year: int = DEFAULT_REFERENCE_YEAR


def _forest_ranks(X: np.ndarray, T: np.ndarray):
    """Each row's codes into the forest's levels (every column's sorted distinct
    values, column after column), its time's rank among the sorted distinct
    times, and ``(levels, column of each level, first level of that column,
    times)``."""
    columns = [np.unique(column, return_inverse=True) for column in X.T]
    sizes = [levels.size for levels, _ in columns]
    starts = np.cumsum([0] + sizes[:-1])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    codes = np.column_stack([inverse for _, inverse in columns]) + starts
    times, t = np.unique(T, return_inverse=True)
    levels = np.concatenate([levels for levels, _ in columns])
    return codes, t, (levels, owner, starts[owner], times)


def _leaf(t, E, times) -> dict:
    # Nelson-Aalen on time ranks into the sorted distinct ``times``
    has, d, at_risk = _risk_table(t, E)
    return {"times": times[has], "chf": np.cumsum(d / at_risk)}


def _best_split(codes, t, E, scale, rng, mtry, min_leaf):
    n, p = codes.shape
    feats = np.sort(rng.choice(p, size=min(mtry, p), replace=False))
    if n < 2 * min_leaf:
        return None
    levels, owner, first, _ = scale
    events = E == 1
    # the node's event times are its columns; a record's column is one past
    # the last event time at or before its time, so column 0 is never at risk
    cols, d_e, y_e = _risk_table(t, E)
    m = cols.size + 1
    col = cols.searchsorted(t, side="right")
    ok = y_e > 1
    d_ok, y_ok = d_e[ok], y_e[ok]

    # (records, deaths) x level x column counts over the drawn covariates'
    # levels; the other covariates' levels stay empty
    cells = codes[:, feats] * m + col[:, None]
    size = levels.size * m
    both = np.concatenate((cells.ravel(), cells[events].ravel() + size))
    counts = np.bincount(both, minlength=2 * size).reshape(2, levels.size, m)
    per_level = counts[0].sum(axis=1)
    present = per_level.nonzero()[0]
    pairs = (owner[present[:-1]] == owner[present[1:]]).nonzero()[0]
    lo, hi = present[pairs], present[pairs + 1]
    thresholds = (levels[lo] + levels[hi]) / 2.0
    # last level <= each threshold (adjacent floats' midpoint may be the upper one)
    rows = np.where(thresholds < levels[hi], lo, hi)
    # cumulated over levels, less the levels of earlier covariates: row i
    # counts the node's records at or below level i of its covariate
    below = per_level.cumsum()
    n_left = below[rows] - below[first[rows]] + per_level[first[rows]]
    valid = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    if not valid.any():
        return None
    rows, thresholds = rows[valid], thresholds[valid]
    cum = counts.cumsum(axis=1)
    left = cum[:, rows] - cum[:, first[rows]] + counts[:, first[rows]]
    in1 = left[0].cumsum(axis=1)
    frac = (in1[:, -1:] - in1[:, :-1]) / y_e
    num = (left[1][:, 1:] - d_e * frac).sum(axis=1)
    # a column mask yields a Fortran-ordered copy, whose rows would sum in
    # another order than the 1-D sums of the per-threshold log-rank statistic
    frac = np.ascontiguousarray(frac[:, ok])
    var = (d_ok * frac * (1.0 - frac) * (y_ok - d_ok) / (y_ok - 1.0)).sum(axis=1)
    stat = np.abs(num) / np.sqrt(np.where(var > 0.0, var, np.inf))
    j = int(stat.argmax())
    if not stat[j] > 0.0:
        return None
    feature = int(owner[rows[j]])
    return feature, float(thresholds[j]), codes[:, feature] <= rows[j]


def _grow(codes, t, E, scale, rng, mtry, min_split, min_leaf) -> dict:
    if len(t) < min_split:
        return _leaf(t, E, scale[-1])
    split = _best_split(codes, t, E, scale, rng, mtry, min_leaf)
    if split is None:
        return _leaf(t, E, scale[-1])
    feature, threshold, mask = split
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow(codes[mask], t[mask], E[mask], scale, rng, mtry, min_split, min_leaf),
        "right": _grow(codes[~mask], t[~mask], E[~mask], scale, rng, mtry, min_split, min_leaf),
    }


def rsf_fit(
    records: Sequence[SurvivalRecord],
    n_estimators: int,
    mtry: int | None = None,
    seed: int = 0,
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT,
    min_samples_leaf: int = DEFAULT_MIN_SAMPLES_LEAF,
    use_age: bool = False,
    reference_year: int = DEFAULT_REFERENCE_YEAR,
) -> SurvivalForest:
    """Grow a random survival forest on bootstrap samples of ``records``.

    Each tree draws its own generator from ``(seed, tree_index)``, takes a
    with-replacement bootstrap of size n, and recursively picks the
    (feature, midpoint-threshold) split maximizing the two-sample log-rank
    statistic among ``mtry`` randomly chosen covariates.  Leaves keep the
    Nelson-Aalen cumulative hazard of the records that reached them.
    """
    if n_estimators < 1:
        raise DataError("n_estimators must be >= 1")
    if not records:
        raise DataError("no records")
    X = covariate_matrix(records, use_age=use_age, reference_year=reference_year)
    T, E = times_events(records)
    n, p = X.shape
    if mtry is None:
        mtry = int(np.ceil(np.sqrt(p)))
    if mtry < 1:
        raise DataError("mtry must be >= 1")

    codes, t, scale = _forest_ranks(X, T)
    trees: list[dict] = []
    boots: list[np.ndarray] = []
    for tree_index in range(n_estimators):
        rng = np.random.default_rng([seed, tree_index])
        idx = rng.integers(0, n, size=n)
        boots.append(idx)
        grown = _grow(
            codes[idx], t[idx], E[idx], scale, rng, mtry, min_samples_split, min_samples_leaf
        )
        trees.append(grown)
    return SurvivalForest(
        trees=trees,
        bootstrap_indices=boots,
        event_times=scale[-1][_risk_table(t, E)[0]],
        n_estimators=n_estimators,
        mtry=mtry,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        seed=seed,
        use_age=use_age,
        reference_year=reference_year,
    )


def _reached_leaves(forest: SurvivalForest, X: np.ndarray):
    # batched descent: yields (leaf, row indices reaching it), tree by tree
    columns = np.array(X, dtype=float).T.copy()
    if forest.use_age:
        columns[0] = forest.reference_year - columns[0]
    all_rows = np.arange(len(X))
    for tree in forest.trees:
        stack = [(tree, all_rows)]
        while stack:
            node, rows = stack.pop()
            if not rows.size:
                continue
            if "feature" in node:
                left = columns[node["feature"]][rows] <= node["threshold"]
                stack.append((node["right"], rows[~left]))
                stack.append((node["left"], rows[left]))
            else:
                yield node, rows


def _hazard_sums(
    forest: SurvivalForest, X: np.ndarray, grid: np.ndarray, summed: bool = False
) -> np.ndarray:
    """Per raw covariate row, the reached leaves' cumulative hazards on
    ``grid``, added tree by tree in tree order.

    With ``summed`` each leaf's hazard is first summed over ``grid``, once
    per leaf, and every row gets one number.
    """
    acc = np.zeros(len(X) if summed else (len(X), grid.size))
    for leaf, rows in _reached_leaves(forest, X):
        hazard = _eval_steps(leaf["times"], leaf["chf"], grid)
        acc[rows] += float(hazard.sum()) if summed else hazard
    return acc


def rsf_predict(forest: SurvivalForest, covariates) -> tuple[StepFunction, float]:
    """Ensemble survival curve and risk score for one covariate vector.

    The cumulative hazard is the tree average evaluated on the union of the
    reached leaves' jump times; survival is its exponential decay, and the
    risk score sums the cumulative hazard over the training event-time grid.
    """
    x = np.array(covariates, dtype=float)
    if x.ndim != 1:
        raise DataError("covariates must be a flat vector")
    if x.size != _N_COVARIATES:
        raise DataError(f"covariates must have {_N_COVARIATES} columns, got {x.size}")
    X = x[None, :]
    parts = [leaf["times"] for leaf, _ in _reached_leaves(forest, X)]
    grid = np.unique(np.concatenate([np.empty(0), *parts]))
    chf = _hazard_sums(forest, X, grid)[0] / len(forest.trees)
    risk = float(_eval_steps(grid, chf, forest.event_times).sum())
    return StepFunction(grid, np.exp(-chf), initial=1.0), risk


def rsf_risk_scores(
    forest: SurvivalForest, records: Sequence[SurvivalRecord]
) -> np.ndarray:
    """Risk scores of many records, one batched descent per tree.

    A record's score is the tree average of its reached leaf's cumulative
    hazard summed over the training event times; each leaf's sum is
    computed once.  Equals the risk of :func:`rsf_predict` up to rounding.
    """
    sums = _hazard_sums(forest, covariate_matrix(records), forest.event_times, summed=True)
    return sums / len(forest.trees)


def scenario_curves(
    forest: SurvivalForest, records: Sequence[SurvivalRecord]
) -> tuple[StepFunction, StepFunction]:
    """Most and least favorable member survival curves of a patient group.

    Every record's predicted survival is evaluated on a shared grid (zero
    plus the training event times) and ranked by trapezoidal area under the
    curve; ties keep the earliest record.
    """
    if not records:
        raise DataError("no records")
    grid = np.unique(np.concatenate([[0.0], forest.event_times]))
    chf = _hazard_sums(forest, covariate_matrix(records), grid) / len(forest.trees)
    surv = np.exp(-chf)
    areas = _trapezoid(surv, grid, axis=1)
    best = StepFunction(grid, surv[int(np.argmax(areas))], initial=1.0)
    worst = StepFunction(grid, surv[int(np.argmin(areas))], initial=1.0)
    return best, worst
