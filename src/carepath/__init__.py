"""Hospitalization-trajectory mining, clustering and survival analysis."""

__version__ = "0.1.0"

from .codes import DEATH, StayCode, parse_code
from .errors import DataError, NumericError
from .kmedoids import Clustering, fit_kmedoids, medoid_profile
from .metric import (
    MetricWeights,
    PatientTrajectory,
    code_distance,
    distance_matrix,
    levenshtein,
    levenshtein_ratio,
    trajectory_distance,
)
from .patterns import MinedPattern, MiningConfig, frequent_patterns, support
from .pipeline import PipelineConfig, run_pipeline
from .survival import (
    CoxModel,
    StepFunction,
    SurvivalForest,
    SurvivalRecord,
    c_index,
    cox_aic,
    cox_fit,
    kaplan_meier,
    nelson_aalen,
    rsf_fit,
    rsf_predict,
    scenario_curves,
)
from .synthetic import ArchetypeSpec, default_archetypes, generate, generate_cohort
from .tuning import ScoreConfig, TrialRecord, cluster_score, tune_search

__all__ = [
    "ArchetypeSpec",
    "Clustering",
    "CoxModel",
    "DEATH",
    "DataError",
    "MetricWeights",
    "MinedPattern",
    "MiningConfig",
    "NumericError",
    "PatientTrajectory",
    "PipelineConfig",
    "ScoreConfig",
    "StayCode",
    "StepFunction",
    "SurvivalForest",
    "SurvivalRecord",
    "TrialRecord",
    "c_index",
    "cluster_score",
    "code_distance",
    "cox_aic",
    "cox_fit",
    "default_archetypes",
    "distance_matrix",
    "fit_kmedoids",
    "frequent_patterns",
    "generate",
    "generate_cohort",
    "kaplan_meier",
    "levenshtein",
    "levenshtein_ratio",
    "medoid_profile",
    "nelson_aalen",
    "parse_code",
    "rsf_fit",
    "rsf_predict",
    "run_pipeline",
    "scenario_curves",
    "support",
    "trajectory_distance",
    "tune_search",
]
