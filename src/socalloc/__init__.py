"""Online primal-dual allocation under Gaussian consumption risk.

The pipeline: build or generate an :class:`Instance`, derive safety
coefficients with :func:`to_soc`, build pricing columns with
:func:`linearize`, run an online variant with :func:`run_online`,
benchmark against :func:`minimize_dual`, and score with
:func:`build_report`.
"""

from .baseline import (DualCertificate, dual_value,
                       dual_value_and_subgradient, minimize_dual)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     SocAllocError, StructuralError)
from .experiment import ExperimentPlan, run_experiment, run_trial, trial_seed
from .gaussian import (MEAN_EXCESS_AT_ZERO, mean_excess, mean_excess_inverse,
                       safety_coefficient, std_normal_cdf, std_normal_pdf,
                       std_normal_quantile, std_normal_sf)
from .generate import GeneratorConfig, generate, request_fields, stream_requests
from .metrics import (MetricsReport, aggregate, build_report, ce_violation,
                      optimality_gap_and_ratio, probability_deviation,
                      scaling_slope, soc_violation)
from .model import (Decision, Instance, Request, RiskSpec, SolutionTrace,
                    instance_from_dict, instance_to_dict, load_instance,
                    load_trace, save_instance, save_trace, soc_lhs,
                    trace_from_dict, trace_to_dict, validate_instance)
from .online import VARIANTS, OnlineSolver, VariantConfig, run_online
from .transform import LinearizedInstance, linearize, to_soc

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "Decision", "DomainError",
    "DualCertificate", "ExperimentPlan", "GeneratorConfig",
    "Instance", "LinearizedInstance", "MEAN_EXCESS_AT_ZERO", "MetricsReport",
    "OnlineSolver", "Request", "RiskSpec", "SocAllocError", "SolutionTrace",
    "StructuralError", "VARIANTS", "VariantConfig", "aggregate",
    "build_report", "ce_violation", "dual_value",
    "dual_value_and_subgradient", "generate",
    "instance_from_dict", "instance_to_dict", "linearize",
    "load_instance", "load_trace", "mean_excess",
    "mean_excess_inverse", "minimize_dual", "optimality_gap_and_ratio",
    "probability_deviation", "request_fields",
    "run_experiment", "run_online", "run_trial", "safety_coefficient",
    "save_instance", "save_trace", "scaling_slope", "soc_lhs",
    "soc_violation", "std_normal_cdf", "std_normal_pdf",
    "std_normal_quantile", "std_normal_sf", "stream_requests",
    "to_soc", "trace_from_dict", "trace_to_dict", "trial_seed",
    "validate_instance",
]
