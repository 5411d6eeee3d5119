"""Acceptance gate: one test per release criterion.

Each test checks an end-to-end guarantee against an independent reference
implementation or a frozen fixture, enforces the runtime budget where one
applies, and prints a single ``criterion N PASS`` line (visible under
``pytest -v -s``).
"""

import pickle
import time
from collections import Counter

import numpy as np
import pytest

import helpers
from carepath.codes import parse_code
from carepath.kmedoids import fit_kmedoids
from carepath.levenshtein import levenshtein
from carepath.metric import (
    MetricWeights,
    PatientTrajectory,
    code_distance,
    distance_matrix,
    trajectory_distance,
)
from carepath.patterns import MiningConfig, frequent_patterns
from carepath.pipeline import (
    NONE_TOKEN,
    PipelineConfig,
    holdout_rsf,
    run_pipeline,
    sankey_flows,
)
from carepath.survival import (
    SurvivalRecord,
    c_index,
    cox_aic,
    cox_fit,
    kaplan_meier,
    record_covariates,
    rsf_fit,
    rsf_predict,
)
from carepath.synthetic import generate, generate_cohort
from carepath.tuning import (
    cluster_score,
    sample_cluster_count,
    sample_weights,
    tune_search,
)

PAPER_WEIGHTS = MetricWeights(85, 75, 55, 40)


def _records(times, events, shocks=None):
    shocks = shocks if shocks is not None else [0] * len(times)
    return [
        SurvivalRecord(f"P{i}", 1950, 1, 2, int(s), 7, float(t), int(e))
        for i, (t, e, s) in enumerate(zip(times, events, shocks))
    ]


def test_criterion_01_mining_matches_brute_force():
    """Mined patterns and supports equal exhaustive subsequence enumeration."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        db = [
            [alphabet[j] for j in rng.integers(0, 5, size=rng.integers(1, 7))]
            for _ in range(rng.integers(1, 9))
        ]
        want_all = helpers.oracle_pattern_supports(db, max_len=6)
        for sigma in range(1, 9):
            mined = frequent_patterns(
                db, MiningConfig(min_support=sigma, min_len=1, max_len=6)
            )
            got = {m.pattern: m.support for m in mined}
            want = {p: s for p, s in want_all.items() if s >= sigma}
            assert got == want
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"criterion 1 PASS: mining equals brute force on 200 databases x 8 "
        f"thresholds in {elapsed:.2f}s"
    )


def test_criterion_02_edit_distance_matches_recursive_oracle():
    """Iterative edit distance equals the memoized recursion; triangle holds."""
    rng = np.random.default_rng(202)
    alphabet = "abcd"

    def random_string(max_len=10):
        size = int(rng.integers(0, max_len + 1))
        return "".join(alphabet[i] for i in rng.integers(0, 4, size=size))

    for _ in range(1000):
        a, b = random_string(), random_string()
        assert levenshtein(a, b) == helpers.oracle_levenshtein(a, b)
    for _ in range(1000):
        a, b, c = random_string(8), random_string(8), random_string(8)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
    print(
        "criterion 2 PASS: 1000 random pairs equal the recursive oracle, "
        "1000 triples satisfy the triangle inequality"
    )


def test_criterion_03_metric_invariants():
    """Symmetry, zero self-distance, weight-scaling linearity, matrix parity."""
    rng = np.random.default_rng(303)
    weight_pairs = []
    for _ in range(20):
        base = sorted((int(v) for v in rng.integers(0, 51, size=4)), reverse=True)
        weight_pairs.append(
            (MetricWeights(*base), MetricWeights(*[2 * b for b in base]))
        )
    pairs = [
        (helpers.random_trajectory(rng, "A"), helpers.random_trajectory(rng, "B"))
        for _ in range(100)
    ]
    for a, b in pairs:
        for w, w2 in weight_pairs:
            d = trajectory_distance(a, b, w)
            assert trajectory_distance(b, a, w) == d
            assert trajectory_distance(a, a, w) == 0.0
            assert trajectory_distance(b, b, w) == 0.0
            assert trajectory_distance(a, b, w2) == 2.0 * d

    trajectories = [helpers.random_trajectory(rng, f"P{i}") for i in range(20)]
    for w, _ in weight_pairs[:3]:
        m = distance_matrix(trajectories, w)
        for i in range(20):
            for j in range(20):
                assert m[i, j] == trajectory_distance(
                    trajectories[i], trajectories[j], w
                )
    print(
        "criterion 3 PASS: metric invariants exact over 100 pairs x 20 weight "
        "vectors; matrix equals pairwise calls"
    )


def test_criterion_04_frozen_distance_fixtures():
    """Hand-computed distances under the reference weight vector."""
    assert code_distance(parse_code("05M092"), parse_code("05M091"), PAPER_WEIGHTS) == 40.0
    assert code_distance(parse_code("05M092"), parse_code("04M052"), PAPER_WEIGHTS) == 70.0
    a = PatientTrajectory("A", (parse_code("05M092"),))
    b = PatientTrajectory("B", (parse_code("05M092"), parse_code("04M052")))
    assert trajectory_distance(a, b, PAPER_WEIGHTS) == 35.0
    print("criterion 4 PASS: frozen fixtures 40 / 70 / 35 hold exactly")


def test_criterion_05_clustering_descends_and_recovers():
    """Swap search monotonicity, exact k=1 optimum, archetype recovery."""
    started = time.perf_counter()

    trajectories, _, _ = generate_cohort(200, seed=0)
    _, log = tune_search(trajectories, budget=5, seed=0)
    assert len(log) == 5
    for rec in log:
        assert all(b < a for a, b in zip(rec.td_history, rec.td_history[1:]))

    matrix = distance_matrix(trajectories, PAPER_WEIGHTS)
    single = fit_kmedoids(matrix, k=1, seed=0)
    row_sums = matrix.sum(axis=1)
    assert single.medoid_indices == (int(row_sums.argmin()),)
    assert single.total_distance == pytest.approx(float(row_sums.min()))

    worst = 1.0
    for seed in range(10):
        blobs, _, labels = generate(helpers.blob_archetypes(), 30, max_len=6, seed=seed)
        m = distance_matrix(blobs, PAPER_WEIGHTS)
        fit = fit_kmedoids(m, k=2, seed=seed)
        labels = np.array(labels)
        agreement = max(
            float((fit.assignment == labels).mean()),
            float((fit.assignment != labels).mean()),
        )
        worst = min(worst, agreement)
    assert worst >= 0.95

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 5 PASS: every tuner trial descends, k=1 is the row-sum "
        f"argmin, archetype agreement >= {worst:.2f} over 10 seeds in {elapsed:.1f}s"
    )


def test_criterion_06_cluster_score_fixtures_and_discrimination():
    """Score fixtures hold exactly; truth labels beat random assignments."""
    any_db = [["a", "b"], ["b"], ["a", "c"], ["c"]]
    assert cluster_score(any_db, [0, 0, 0, 0]) == 0.0

    fixture_db = [["x", "x"], ["x", "x"], ["y", "y"], ["y", "y"]]
    assert cluster_score(fixture_db, [0, 0, 1, 1]) == 0.5

    trajectories, _, labels = generate_cohort(160, seed=3)
    db = [list(t.renderings()) for t in trajectories]
    s_truth = cluster_score(db, labels)
    rng = np.random.default_rng(0)
    for _ in range(20):
        random_labels = rng.integers(0, 4, size=len(db)).tolist()
        assert s_truth > cluster_score(db, random_labels)
    print(
        f"criterion 6 PASS: one-cluster score 0, fixture score 1/2, truth "
        f"({s_truth:.3f}) beats 20 random assignments"
    )


def test_criterion_07_sampler_constraints():
    """Weight draws respect the ordering chain; cluster counts stay in range."""
    for i in range(10_000):
        rng = np.random.default_rng([11, i])
        w1, w2, w3, w4 = sample_weights(rng).as_tuple()
        assert 0 <= w4 <= w3 <= w2 <= w1 <= 100
        assert 2 <= sample_cluster_count(rng) <= 20
    print("criterion 7 PASS: 10,000 draws satisfy the weight and k constraints")


def test_criterion_08_survival_estimators():
    """Product-limit, concordance, and regression agree with references."""
    started = time.perf_counter()

    km = kaplan_meier(_records([1.0, 2.0, 3.0], [1, 0, 1]))
    assert km.times.tolist() == [1.0, 3.0]
    assert km.values.tolist() == [2.0 / 3.0, 0.0]

    rng = np.random.default_rng(808)
    times = rng.integers(1, 50, size=300).astype(float)
    km_full = kaplan_meier(_records(times, [1] * 300))
    for t in np.unique(times):
        assert km_full(t) == pytest.approx(float((times > t).mean()), abs=1e-12)

    ordered = _records([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
    assert c_index([4.0, 3.0, 2.0, 1.0], ordered) == 1.0
    assert c_index([9.0, 9.0, 9.0, 9.0], ordered) == 0.5
    noise_records = _records(rng.exponential(100.0, size=1000), [1] * 1000)
    noise = c_index(rng.random(1000), noise_records)
    assert 0.45 <= noise <= 0.55

    def logpl_grid(betas, x, T, E):
        # vectorized single-covariate log partial likelihood (no tied times)
        order = np.argsort(-np.asarray(T), kind="stable")
        xs = np.asarray(x, float)[order]
        ev = np.asarray(E, int)[order] == 1
        out = np.empty(len(betas))
        for i, beta in enumerate(betas):
            cw = np.cumsum(np.exp(beta * xs))
            out[i] = beta * xs[ev].sum() - np.log(cw[ev]).sum()
        return out

    for seed in range(5):
        seeded = np.random.default_rng(seed)
        n = 2000
        x = seeded.integers(0, 2, size=n).astype(float)
        T = seeded.exponential(np.exp(-0.5 * x))
        E = np.ones(n, dtype=int)
        model = cox_fit(_records(T, E, x), covariates=x)
        beta_hat = float(model.beta[0])
        assert abs(beta_hat - 0.5) <= 0.1

        coarse = np.arange(-1.0, 2.0001, 0.01)
        b0 = coarse[np.argmax(logpl_grid(coarse, x, T, E))]
        fine = np.arange(b0 - 0.02, b0 + 0.02 + 1e-9, 1e-5)
        b_grid = float(fine[np.argmax(logpl_grid(fine, x, T, E))])
        assert abs(beta_hat - b_grid) <= 1e-3

    assert cox_aic(model, 1) == 2.0 - 2.0 * model.log_partial_likelihood
    assert cox_aic(model, 4) == 8.0 - 2.0 * model.log_partial_likelihood

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"criterion 8 PASS: survival fixtures, concordance bounds, coefficient "
        f"recovery and grid agreement over 5 seeds in {elapsed:.1f}s"
    )


def test_criterion_09_forest_determinism_and_skill():
    """Byte-identical refits, degenerate-hazard parity, holdout concordance."""
    started = time.perf_counter()

    _, records500, _ = generate_cohort(500, seed=4)
    assert pickle.dumps(rsf_fit(records500, 20, seed=7).trees) == pickle.dumps(
        rsf_fit(records500, 20, seed=7).trees
    )

    base = records500[:80]
    n = len(base)
    degenerate = rsf_fit(
        base, n_estimators=6, seed=2, min_samples_split=2 * n, min_samples_leaf=n
    )
    times = np.array([r.time for r in base])
    events = np.array([r.event for r in base])
    surv, _ = rsf_predict(degenerate, record_covariates(base[0]))
    acc = np.zeros(surv.times.shape)
    for idx in degenerate.bootstrap_indices:
        o_times, o_vals = helpers.oracle_nelson_aalen(times[idx], events[idx])
        step = np.zeros(surv.times.shape)
        for k, t in enumerate(surv.times):
            held = [v for ot, v in zip(o_times, o_vals) if ot <= t]
            step[k] = held[-1] if held else 0.0
        acc += step
    assert np.allclose(-np.log(surv.values), acc / 6.0, atol=1e-12)

    worst = 1.0
    for seed in range(5):
        _, records, _ = generate_cohort(1000, seed=seed)
        cidx, _ = holdout_rsf(records, trees=100, mtry=None, seed=seed)
        worst = min(worst, cidx)
    assert worst >= 0.65

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"criterion 9 PASS: forests refit byte-identically, single-leaf "
        f"ensembles average the in-bag hazards, holdout concordance >= "
        f"{worst:.3f} over 5 seeds in {elapsed:.1f}s"
    )


def test_criterion_10_pipeline_run(tmp_path):
    """Default full run: complete artifacts, anchored column, reproducibility."""
    results = []
    for name in ("a", "b"):
        cfg = PipelineConfig(
            seed=0,
            out_dir=str(tmp_path / name),
            synth_patients=500,
            weights=PAPER_WEIGHTS,
            k=5,
            trees=100,
        )
        started = time.perf_counter()
        results.append(run_pipeline(cfg))
        assert time.perf_counter() - started < 300.0

    first, second = results
    declared = {
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
    } | {f"sankey_cluster_{c}.csv" for c in range(5)}
    produced = {p.name for p in first.out_dir.iterdir()}
    assert declared <= produced

    freq = (first.out_dir / "frequency_global.csv").read_text().splitlines()
    anchor_rows = [line for line in freq if line.startswith("05M092,")]
    assert anchor_rows and anchor_rows[0].split(",")[1] == "1.000000"

    metrics = (first.out_dir / "metrics.csv").read_text().strip().splitlines()
    assert len(metrics) == 6
    assert [line.split(",")[0] for line in metrics[1:]] == ["0", "1", "2", "3", "4"]

    names_a = sorted(p.name for p in first.out_dir.iterdir())
    names_b = sorted(p.name for p in second.out_dir.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (first.out_dir / name).read_bytes() == (
            second.out_dir / name
        ).read_bytes()
    print(
        f"criterion 10 PASS: 500-patient run wrote {len(produced)} artifacts, "
        f"anchored column reads 1.000000, reruns byte-identical"
    )


def test_criterion_11_sankey_counts_are_exact():
    """Flow counts equal brute-force bigram tallies on random clusters."""
    trajectories, _, _ = generate_cohort(200, seed=2)
    rng = np.random.default_rng(1111)
    for _ in range(50):
        size = int(rng.integers(10, 41))
        take = rng.choice(len(trajectories), size=size, replace=False)
        cluster = [trajectories[i] for i in take]
        edges = sankey_flows(cluster, [(0, 1), (1, 2)], top_k=100_000)
        got = {(e.source_pos, e.source_code, e.target_code): e.count for e in edges}
        want: Counter = Counter()
        for t in cluster:
            rendered = t.renderings()
            for pos in (0, 1):
                if len(rendered) > pos:
                    target = (
                        rendered[pos + 1] if len(rendered) > pos + 1 else NONE_TOKEN
                    )
                    want[(pos, rendered[pos], target)] += 1
        assert got == dict(want)
    print("criterion 11 PASS: flow counts exact on 50 random clusters")
