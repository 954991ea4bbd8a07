"""Protection policies and insurance contract design for discounted Markov risk models.

The package has five layers:

- :mod:`cyins.model`: the risk process, coverage functions and exact policy
  evaluation;
- :mod:`cyins.solvers`: every policy production finds, uncertified (a
  policy walk for linear coverage, value iteration over a stack of
  two-tier problems, and the region ends at a policy switch);
- :mod:`cyins.contracts`: the certificate gate and pricing: the certified
  optimal response to a coverage (:func:`solve`), contract sweeps as
  tables (:class:`Sweep`: premium, insurer profit and coverage paid per
  distinct problem) and zero-profit regions;
- :mod:`cyins.analytic`: exact closed forms for the two-state / two-action
  case under linear coverage;
- :mod:`cyins.montecarlo` / :mod:`cyins.harness`: a statistical oracle,
  model/CSV serialization, bundled studies and the CLI.

Only the production path ships here, and :func:`solve` is its one solve, so
every result it returns is certified.  The test suite's independent oracles
live in ``tests/oracles.py``: the paper's other solution methods (the MDP
linear program and brute-force policy enumeration), the uncertified
one-problem value iteration, and the closed forms' identity self-check.
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
    evaluate_policy,
    validate_model,
)
from .montecarlo import SimulationConfig, config_for, simulate_coverage_paid, simulate_value
from .solvers import SolveResult

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CaseClassification",
    "CertificateError",
    "ContractSweepRow",
    "LinearCoverage",
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
    "bundled_model",
    "classify_case",
    "closed_form_policy",
    "closed_form_value",
    "config_for",
    "evaluate_policy",
    "load_model",
    "optimal_contract",
    "optimal_region",
    "peltzman_regions",
    "policy_label",
    "reproduce",
    "save_model",
    "simulate_coverage_paid",
    "simulate_value",
    "solve",
    "sweep_linear",
    "sweep_threshold",
    "validate_model",
]
