"""Online primal-dual allocation under Gaussian consumption risk.

The pipeline: build or generate an :class:`Instance`, derive safety
coefficients with :func:`to_soc`, build pricing columns with
:func:`linearize`, run an online variant with :func:`run_online`,
benchmark against :func:`minimize_dual`, and score with
:func:`build_report`.
"""

from .baseline import DualCertificate, dual_value_and_subgradient, minimize_dual
from .errors import (ConfigError, ConvergenceError, DomainError,
                     SocAllocError, StructuralError)
from .experiment import ExperimentPlan, run_experiment, run_trial, trial_seed
from .gaussian import mean_excess, safety_coefficient, std_normal_cdf
from .generate import GeneratorConfig, generate, request_fields, stream_requests
from .metrics import (MetricsReport, aggregate, build_report, ce_violation,
                      optimality_gap_and_ratio, probability_deviation,
                      scaling_slope, soc_violation)
from .model import (Decision, Instance, RiskSpec, SolutionTrace,
                    load_instance, load_trace, save_instance, save_trace, soc_lhs)
from .online import VARIANTS, OnlineSolver, VariantConfig, run_online
from .transform import LinearizedInstance, linearize, to_soc

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "Decision", "DomainError",
    "DualCertificate", "ExperimentPlan", "GeneratorConfig",
    "Instance", "LinearizedInstance", "MetricsReport",
    "OnlineSolver", "RiskSpec", "SocAllocError", "SolutionTrace",
    "StructuralError", "VARIANTS", "VariantConfig", "aggregate",
    "build_report", "ce_violation", "dual_value_and_subgradient", "generate",
    "linearize", "load_instance", "load_trace", "mean_excess",
    "minimize_dual", "optimality_gap_and_ratio",
    "probability_deviation", "request_fields",
    "run_experiment", "run_online", "run_trial", "safety_coefficient",
    "save_instance", "save_trace", "scaling_slope", "soc_lhs",
    "soc_violation", "std_normal_cdf", "stream_requests",
    "to_soc", "trial_seed",
]
