"""Protection policies and insurance contract design for discounted Markov risk models.

The package has five layers:

- :mod:`cyins.model`: the risk process, coverage functions and exact policy
  evaluation;
- :mod:`cyins.solvers`: optimal policies by value iteration, linear
  programming (self-contained simplex) and brute-force enumeration;
- :mod:`cyins.contracts`: contract sweeps (premium, insurer profit and
  coverage paid per row) and zero-profit region extraction;
- :mod:`cyins.analytic`: exact closed forms for the two-state / two-action
  case under linear coverage;
- :mod:`cyins.montecarlo` / :mod:`cyins.harness`: a statistical oracle,
  model/CSV serialization, bundled studies and the CLI.
"""

from .analytic import (
    CaseClassification,
    OptimalContract,
    TwoStateModel,
    classify_case,
    closed_form_policy,
    closed_form_value,
    optimal_contract,
    peltzman_regions,
)
from .contracts import (
    CertificateError,
    ContractSweepRow,
    RegionReport,
    optimal_region,
    sweep_linear,
    sweep_threshold,
)
from .harness import bundled_model, load_model, policy_label, reproduce, save_model
from .model import (
    Action,
    LinearCoverage,
    MdpModel,
    ModelValidationError,
    ProtectionPolicy,
    State,
    ThresholdCoverage,
    ZeroCoverage,
    apply_coverage,
    decompose_value,
    effective_loss,
    evaluate_policy,
    validate_model,
)
from .montecarlo import SimulationConfig, config_for, simulate_coverage_paid, simulate_value
from .solvers import (
    LpProblem,
    SolveResult,
    build_lp,
    policy_from_values,
    solve_lp_dual,
    solve_policy_enumeration,
    solve_value_iteration,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CaseClassification",
    "CertificateError",
    "ContractSweepRow",
    "LinearCoverage",
    "LpProblem",
    "MdpModel",
    "ModelValidationError",
    "OptimalContract",
    "ProtectionPolicy",
    "RegionReport",
    "SimulationConfig",
    "SolveResult",
    "State",
    "ThresholdCoverage",
    "TwoStateModel",
    "ZeroCoverage",
    "apply_coverage",
    "build_lp",
    "bundled_model",
    "classify_case",
    "closed_form_policy",
    "closed_form_value",
    "config_for",
    "decompose_value",
    "effective_loss",
    "evaluate_policy",
    "load_model",
    "optimal_contract",
    "optimal_region",
    "peltzman_regions",
    "policy_from_values",
    "policy_label",
    "reproduce",
    "save_model",
    "simulate_coverage_paid",
    "simulate_value",
    "solve_lp_dual",
    "solve_policy_enumeration",
    "solve_value_iteration",
    "sweep_linear",
    "sweep_threshold",
    "validate_model",
]
