"""Protection policies and insurance contract design for discounted Markov risk models.

The package has five layers:

- :mod:`cyins.model`: the risk process, coverage functions and exact policy
  evaluation;
- :mod:`cyins.solvers`: every policy production finds, uncertified (a
  policy walk for linear coverage, value iteration for two-tier, and the
  region ends at a policy switch), and the oracles: linear programming
  (self-contained simplex) and brute-force enumeration;
- :mod:`cyins.contracts`: the certificate gate and pricing: the certified
  optimal response to a coverage (:func:`solve`), contract sweeps as
  tables (:class:`Sweep`: premium, insurer profit and coverage paid per
  distinct problem) and zero-profit regions;
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
    Sweep,
    optimal_region,
    solve,
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
    decompose_value,
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
    "Sweep",
    "ThresholdCoverage",
    "TwoStateModel",
    "ZeroCoverage",
    "build_lp",
    "bundled_model",
    "classify_case",
    "closed_form_policy",
    "closed_form_value",
    "config_for",
    "decompose_value",
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
    "solve",
    "solve_lp_dual",
    "solve_policy_enumeration",
    "solve_value_iteration",
    "sweep_linear",
    "sweep_threshold",
    "validate_model",
]
