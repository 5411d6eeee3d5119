"""Seeded synthetic cohorts with known cluster and hazard structure.

Each archetype owns a pool of stay codes, a stickiness (chance of repeating
the previous code), a per-step death hazard for the trajectory, covariate
draws, and an exponential survival-time model whose rate scales
log-linearly with normalized age, sex and the shock flag.  Everything is
drawn from one generator, so a (archetypes, sizes, seed) triple pins the
cohort exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .codes import DEATH, StayCode, parse_code
from .errors import DataError
from .metric import PatientTrajectory
from .survival import SurvivalRecord


@dataclass(frozen=True)
class ArchetypeSpec:
    """Generative profile of one patient subpopulation.

    ``code_pool`` pairs code text with a sampling weight.  ``base_rate`` is
    the exponential event rate per day before covariate effects; sex is
    coded 1/2 with ``p_female`` the probability of 2.
    """

    name: str
    code_pool: tuple[tuple[str, float], ...]
    stickiness: float
    death_hazard: float
    birth_year_range: tuple[int, int]
    p_female: float
    p_shock: float
    mean_stay_days: float
    base_rate: float
    beta_age: float
    beta_sex: float
    beta_shock: float

    def __post_init__(self) -> None:
        if not self.code_pool:
            raise DataError(f"archetype {self.name!r}: empty code pool")
        if any(w <= 0 for _, w in self.code_pool):
            raise DataError(f"archetype {self.name!r}: pool weights must be positive")
        for prob, label in (
            (self.stickiness, "stickiness"),
            (self.death_hazard, "death_hazard"),
            (self.p_female, "p_female"),
            (self.p_shock, "p_shock"),
        ):
            if not 0.0 <= prob <= 1.0:
                raise DataError(f"archetype {self.name!r}: {label} must be in [0, 1]")
        lo, hi = self.birth_year_range
        if lo > hi:
            raise DataError(f"archetype {self.name!r}: bad birth year range")
        if self.base_rate <= 0:
            raise DataError(f"archetype {self.name!r}: base_rate must be positive")
        if self.mean_stay_days < 0:
            raise DataError(f"archetype {self.name!r}: mean_stay_days must be >= 0")


def generate(
    archetypes: Sequence[ArchetypeSpec],
    n_per_archetype: int,
    max_len: int,
    seed: int,
    horizon_days: float = 1825.0,
    anchor_code: str | StayCode | None = None,
) -> tuple[list[PatientTrajectory], list[SurvivalRecord], list[int]]:
    """Draw one cohort; returns (trajectories, records, archetype labels).

    ``max_len`` caps the number of hospitalizations; the death marker may
    extend a trajectory by one position.  With ``anchor_code`` every
    trajectory opens on that code instead of a pool draw.  Follow-up is
    censored at ``horizon_days`` (``inf`` censors nothing), and the event
    indicator is 0 exactly when the drawn survival time exceeds the horizon.
    """
    if not archetypes:
        raise DataError("no archetypes")
    if n_per_archetype < 1:
        raise DataError("n_per_archetype must be >= 1")
    if max_len < 1:
        raise DataError("max_len must be >= 1")
    if not horizon_days > 0:  # NaN fails this too
        raise DataError("horizon_days must be positive")
    anchor = None
    if anchor_code is not None:
        anchor = anchor_code if isinstance(anchor_code, StayCode) else parse_code(anchor_code)
        if anchor.is_death:
            raise DataError("anchor code cannot be the death marker")

    rng = np.random.default_rng(seed)
    trajectories: list[PatientTrajectory] = []
    records: list[SurvivalRecord] = []
    labels: list[int] = []
    pid = 0
    for label, arch in enumerate(archetypes):
        pool = [parse_code(text) for text, _ in arch.code_pool]
        if any(c.is_death for c in pool):
            raise DataError(f"archetype {arch.name!r}: death marker cannot be pooled")
        pool_w = np.array([w for _, w in arch.code_pool], dtype=float)
        pool_w = pool_w / pool_w.sum()
        lo, hi = arch.birth_year_range
        for _ in range(n_per_archetype):
            patient_id = f"P{pid:05d}"
            pid += 1
            birth_year = int(rng.integers(lo, hi + 1))
            sex = 2 if rng.random() < arch.p_female else 1
            shock = 1 if rng.random() < arch.p_shock else 0
            age_norm = (hi - birth_year) / (hi - lo) if hi > lo else 0.0
            rate = arch.base_rate * np.exp(
                arch.beta_age * age_norm + arch.beta_sex * sex + arch.beta_shock * shock
            )
            drawn_time = float(rng.exponential(1.0 / rate))
            event = 1 if drawn_time <= horizon_days else 0
            time_days = min(drawn_time, horizon_days)

            first = anchor if anchor is not None else pool[int(rng.choice(len(pool), p=pool_w))]
            codes: list[StayCode] = [first]
            died = False
            while len(codes) < max_len:
                if rng.random() < arch.death_hazard:
                    codes.append(DEATH)
                    died = True
                    break
                if rng.random() < arch.stickiness:
                    codes.append(codes[-1])
                else:
                    codes.append(pool[int(rng.choice(len(pool), p=pool_w))])
            if event and not died:
                codes.append(DEATH)

            n_hosp = sum(1 for c in codes if not c.is_death)
            total_stay = int(sum(1 + rng.poisson(arch.mean_stay_days) for _ in range(n_hosp)))
            trajectories.append(PatientTrajectory(patient_id, tuple(codes)))
            records.append(
                SurvivalRecord(
                    patient_id=patient_id,
                    birth_year=birth_year,
                    sex=sex,
                    n_hospitalizations=n_hosp,
                    shock_flag=shock,
                    total_stay_days=total_stay,
                    time=time_days,
                    event=event,
                )
            )
            labels.append(label)
    return trajectories, records, labels


ANCHOR_CODE = "05M092"


def default_archetypes() -> list[ArchetypeSpec]:
    """Four contrasting heart-failure-flavored subpopulations.

    Pools use disjoint-leaning code categories so the cluster structure is
    recoverable, and hazards range from indolent to frail.
    """
    return [
        ArchetypeSpec(
            name="recurrent_cardiac",
            code_pool=(("05M092", 3.0), ("05M091", 2.0), ("05M093", 1.0), ("05K101", 1.0)),
            stickiness=0.55,
            death_hazard=0.05,
            birth_year_range=(1930, 1950),
            p_female=0.45,
            p_shock=0.10,
            mean_stay_days=6.0,
            base_rate=1.0 / 2400.0,
            beta_age=1.2,
            beta_sex=0.15,
            beta_shock=0.9,
        ),
        ArchetypeSpec(
            name="respiratory",
            code_pool=(("04M052", 3.0), ("04M051", 2.0), ("04M133", 1.0), ("04M201", 1.0)),
            stickiness=0.45,
            death_hazard=0.08,
            birth_year_range=(1925, 1945),
            p_female=0.50,
            p_shock=0.15,
            mean_stay_days=8.0,
            base_rate=1.0 / 1600.0,
            beta_age=1.0,
            beta_sex=0.10,
            beta_shock=1.1,
        ),
        ArchetypeSpec(
            name="procedural",
            code_pool=(("02C051", 3.0), ("02C052", 2.0), ("02K021", 1.0), ("02M071", 1.0)),
            stickiness=0.35,
            death_hazard=0.02,
            birth_year_range=(1940, 1960),
            p_female=0.40,
            p_shock=0.05,
            mean_stay_days=4.0,
            base_rate=1.0 / 4000.0,
            beta_age=0.8,
            beta_sex=0.05,
            beta_shock=0.6,
        ),
        ArchetypeSpec(
            name="frail_multimorbid",
            code_pool=(("23M201", 3.0), ("23M202", 2.0), ("16M111", 1.0), ("23K021", 1.0)),
            stickiness=0.40,
            death_hazard=0.15,
            birth_year_range=(1920, 1938),
            p_female=0.55,
            p_shock=0.25,
            mean_stay_days=10.0,
            base_rate=1.0 / 900.0,
            beta_age=1.5,
            beta_sex=0.20,
            beta_shock=1.3,
        ),
    ]


def generate_cohort(
    n_patients: int,
    seed: int,
    max_len: int = 8,
    horizon_days: float = 1825.0,
    anchored: bool = True,
) -> tuple[list[PatientTrajectory], list[SurvivalRecord], list[int]]:
    """Convenience draw over the default archetypes, split as evenly as possible."""
    archetypes = default_archetypes()
    if n_patients < len(archetypes):
        raise DataError(f"need at least {len(archetypes)} patients")
    base, extra = divmod(n_patients, len(archetypes))
    anchor = ANCHOR_CODE if anchored else None
    trajectories: list[PatientTrajectory] = []
    records: list[SurvivalRecord] = []
    labels: list[int] = []
    offset = 0
    for i, arch in enumerate(archetypes):
        size = base + (1 if i < extra else 0)
        t, r, _ = generate(
            [arch], size, max_len, seed=_derived_seed(seed, i),
            horizon_days=horizon_days, anchor_code=anchor,
        )
        # re-id patients so the cohort stays unique and ordered
        for traj, rec in zip(t, r):
            patient_id = f"P{offset:05d}"
            offset += 1
            trajectories.append(replace(traj, patient_id=patient_id))
            records.append(replace(rec, patient_id=patient_id))
            labels.append(i)
    return trajectories, records, labels


def _derived_seed(*parts: int) -> int:
    """A seed drawn from a generator seeded with ``parts`` (a base seed and
    the indices of a sub-task), so sub-tasks get independent streams."""
    return int(np.random.default_rng(list(parts)).integers(0, 2**31 - 1))
