"""Approximate full conformal prediction for kernel regression.

Full conformal prediction refits a regularized kernel model at every
candidate output; this package replaces those refits with a single fit
plus stability envelopes, producing upper and lower regions that sandwich
the exact one, with diagnostics quantifying the gap.
"""

from .approx import (APPROX_KINDS, ApproxCurveResult, ApproxMethod,
                     TauProfile, ThicknessBound, approx_pvalue_curves,
                     base_fit, if_error_bound, if_predictor,
                     influence_direction, influence_vector, rho1, rho2,
                     rho_tilde1, tau_profile, thickness_bound, thickness_gap)
from .conformal import (CoverageResult, PredictionRegion, PValueCurve, YGrid,
                        conformal_pvalue, cross_pvalues, empirical_coverage,
                        full_conformal_pvalues, full_region_bruteforce,
                        oracle_pvalues, oracle_region, region_from_curve,
                        split_pvalues, split_region, write_region_csv,
                        write_region_json)
from .data_io import Dataset, friedman1, load_csv, save_csv
from .kernels import (KERNEL_FAMILIES, GramMatrix, KernelSpec, eval_kernel,
                      gram, gram_between, pseudo_inverse_apply)
from .losses import (LOSS_FAMILIES, LossSpec, SmoothnessConstants, loss_d,
                     loss_value, score, smoothness_constants)
from .solver import (Predictor, SolverError, WeightedProblem,
                     anchor_y_weights, anchor_z_weights, augmented_problem,
                     fit, gradient, hessian, predict, rkhs_norm_diff, risk)

__all__ = [
    "APPROX_KINDS", "ApproxCurveResult", "ApproxMethod", "CoverageResult",
    "Dataset", "GramMatrix", "KERNEL_FAMILIES", "KernelSpec", "LOSS_FAMILIES",
    "LossSpec", "PredictionRegion", "Predictor", "PValueCurve",
    "SmoothnessConstants", "SolverError", "TauProfile", "ThicknessBound",
    "WeightedProblem", "YGrid", "anchor_y_weights", "anchor_z_weights",
    "approx_pvalue_curves", "augmented_problem", "base_fit",
    "conformal_pvalue", "cross_pvalues", "empirical_coverage", "eval_kernel", "fit", "friedman1",
    "full_conformal_pvalues", "full_region_bruteforce", "gradient", "gram",
    "gram_between", "hessian", "if_error_bound", "if_predictor",
    "influence_direction", "influence_vector", "load_csv", "loss_d",
    "loss_value", "oracle_pvalues", "oracle_region", "predict",
    "pseudo_inverse_apply", "region_from_curve", "rho1", "rho2",
    "rho_tilde1", "risk", "rkhs_norm_diff", "save_csv",
    "score", "smoothness_constants", "split_pvalues", "split_region",
    "tau_profile", "thickness_bound", "thickness_gap",
    "write_region_csv", "write_region_json",
]
