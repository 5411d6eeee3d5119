import numpy as np
import pytest

from carepath.codes import parse_code
from carepath.errors import DataError
from carepath.metric import MetricWeights, trajectory_distance
from carepath.synthetic import (
    ANCHOR_CODE,
    ArchetypeSpec,
    default_archetypes,
    generate,
    generate_cohort,
)
from helpers import blob_archetypes

WEIGHTS = MetricWeights(85, 75, 55, 40)


def test_generate_is_deterministic():
    args = dict(archetypes=blob_archetypes(), n_per_archetype=15, max_len=6, seed=12)
    a = generate(**args)
    b = generate(**args)
    assert a == b


def test_different_seeds_differ():
    base = dict(archetypes=blob_archetypes(), n_per_archetype=15, max_len=6)
    assert generate(seed=1, **base) != generate(seed=2, **base)


def test_cohort_shapes_and_labels(small_cohort):
    trajectories, records, labels = small_cohort
    assert len(trajectories) == len(records) == len(labels) == 80
    assert sorted(set(labels)) == [0, 1, 2, 3]
    assert [l for l in labels] == sorted(labels)
    assert len({t.patient_id for t in trajectories}) == 80
    for t, r in zip(trajectories, records):
        assert t.patient_id == r.patient_id


def test_anchored_cohort_opens_on_anchor(small_cohort):
    anchor = parse_code(ANCHOR_CODE)
    for t in small_cohort[0]:
        assert t.codes[0] == anchor


def test_unanchored_cohort_opens_on_pool_draws():
    trajectories, _, labels = generate_cohort(40, seed=3, anchored=False)
    pools = [
        {text for text, _ in arch.code_pool} for arch in default_archetypes()
    ]
    for t, l in zip(trajectories, labels):
        assert t.codes[0].render() in pools[l]


def test_trajectories_draw_from_archetype_pool(small_cohort):
    trajectories, _, labels = small_cohort
    pools = [
        {text for text, _ in arch.code_pool} | {ANCHOR_CODE}
        for arch in default_archetypes()
    ]
    for t, l in zip(trajectories, labels):
        for code in t.codes:
            if not code.is_death:
                assert code.render() in pools[l]


def test_death_marker_is_terminal_and_unique(small_cohort):
    for t in small_cohort[0]:
        flags = [c.is_death for c in t.codes]
        assert sum(flags) <= 1
        if any(flags):
            assert flags[-1]


def test_event_flags_follow_the_horizon(small_cohort):
    horizon = 1825.0
    for r in small_cohort[1]:
        assert 0.0 <= r.time <= horizon
        assert (r.event == 0) == (r.time == horizon)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan")])
def test_horizon_must_be_positive(horizon):
    with pytest.raises(DataError, match="horizon_days"):
        generate(blob_archetypes(), 5, max_len=4, seed=0, horizon_days=horizon)


def test_infinite_horizon_censors_nothing():
    _, records, _ = generate(
        blob_archetypes(), 10, max_len=4, seed=0, horizon_days=float("inf")
    )
    assert all(r.event == 1 and np.isfinite(r.time) for r in records)


def test_certain_death_hazard_cuts_trajectories_short():
    spec = blob_archetypes()[0]
    certain = ArchetypeSpec(**{**spec.__dict__, "death_hazard": 1.0})
    trajectories, _, _ = generate([certain], 20, max_len=8, seed=4)
    for t in trajectories:
        assert len(t.codes) == 2
        assert t.codes[1].is_death


def test_hospitalization_and_stay_counts(small_cohort):
    for t, r in zip(small_cohort[0], small_cohort[1]):
        n_codes = sum(1 for c in t.codes if not c.is_death)
        assert r.n_hospitalizations == n_codes
        assert r.total_stay_days >= n_codes  # every stay lasts at least a day

    birth_ranges = [a.birth_year_range for a in default_archetypes()]
    for r, l in zip(small_cohort[1], small_cohort[2]):
        lo, hi = birth_ranges[l]
        assert lo <= r.birth_year <= hi
        assert r.sex in (1, 2)
        assert r.shock_flag in (0, 1)


def test_archetypes_are_metrically_separated():
    trajectories, _, labels = generate(
        blob_archetypes(), n_per_archetype=20, max_len=6, seed=9
    )
    within, cross = [], []
    for i in range(len(trajectories)):
        for j in range(i + 1, len(trajectories)):
            d = trajectory_distance(trajectories[i], trajectories[j], WEIGHTS)
            (within if labels[i] == labels[j] else cross).append(d)
    # disjoint categories put a floor of the category weight under cross pairs
    assert min(cross) >= 85.0
    assert float(np.mean(cross)) > float(np.mean(within))


def test_spec_validation():
    spec = blob_archetypes()[0]
    with pytest.raises(DataError):
        ArchetypeSpec(**{**spec.__dict__, "code_pool": ()})
    with pytest.raises(DataError):
        ArchetypeSpec(**{**spec.__dict__, "stickiness": 1.5})
    with pytest.raises(DataError):
        ArchetypeSpec(**{**spec.__dict__, "base_rate": 0.0})
    with pytest.raises(DataError):
        ArchetypeSpec(**{**spec.__dict__, "birth_year_range": (1980, 1960)})


def test_spec_rejects_zero_pool_weight_and_negative_stay():
    spec = blob_archetypes()[0]
    (code, _), *rest = spec.code_pool
    with pytest.raises(DataError, match="pool weights must be positive"):
        ArchetypeSpec(**{**spec.__dict__, "code_pool": ((code, 0.0), *rest)})
    with pytest.raises(DataError, match="mean_stay_days must be >= 0"):
        ArchetypeSpec(**{**spec.__dict__, "mean_stay_days": -1.0})


def test_death_cannot_be_pooled_or_anchor():
    spec = blob_archetypes()[0]
    pooled = ArchetypeSpec(**{**spec.__dict__, "code_pool": (("Death", 1.0),)})
    with pytest.raises(DataError):
        generate([pooled], 5, max_len=4, seed=0)
    with pytest.raises(DataError):
        generate([spec], 5, max_len=4, seed=0, anchor_code="Death")


def test_generate_argument_validation():
    spec = blob_archetypes()[0]
    with pytest.raises(DataError):
        generate([], 5, max_len=4, seed=0)
    with pytest.raises(DataError):
        generate([spec], 0, max_len=4, seed=0)
    with pytest.raises(DataError):
        generate([spec], 5, max_len=0, seed=0)
    with pytest.raises(DataError):
        generate_cohort(3, seed=0)
