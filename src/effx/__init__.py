"""Two-stage efficiency analysis: input-oriented DEA frontiers with a
two-limit censored-regression second stage."""

from .dataset import (
    Dataset,
    DmuRecord,
    SummaryStats,
    bundled_fixture,
    parse_dataset,
    serialize_dataset,
    summarize,
)
from .dea import (
    DeaOptions,
    EfficiencyResult,
    FrontierReport,
    Rts,
    RtsClass,
    build_envelopment_lp,
    efficiency,
    run_frontier,
    scale_efficiency,
)
from .lp import LpOptions, LpProblem, LpSolution, LpStatus, check_solution, solve_lp
from .tobit import (
    CensoredSample,
    InferenceReport,
    TobitFit,
    fit,
    inference_report,
    log_likelihood,
    lr_test,
    marginal_effects,
    pseudo_r2,
    robust_covariance,
    score_and_hessian,
    wald_test,
)

__version__ = "0.1.0"

__all__ = [
    "CensoredSample",
    "Dataset",
    "DeaOptions",
    "DmuRecord",
    "EfficiencyResult",
    "FrontierReport",
    "InferenceReport",
    "LpOptions",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "Rts",
    "RtsClass",
    "SummaryStats",
    "TobitFit",
    "build_envelopment_lp",
    "bundled_fixture",
    "check_solution",
    "efficiency",
    "fit",
    "inference_report",
    "log_likelihood",
    "lr_test",
    "marginal_effects",
    "parse_dataset",
    "pseudo_r2",
    "robust_covariance",
    "run_frontier",
    "scale_efficiency",
    "score_and_hessian",
    "serialize_dataset",
    "solve_lp",
    "summarize",
    "wald_test",
]
