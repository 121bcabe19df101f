"""Optimal switching of delayed jump diffusions by regression Monte Carlo.

The package simulates mode-controlled stochastic delay equations with
compensated finite-mark jumps, evaluates and validates switching
controls, fits the iterated value family by per-mode regression Monte
Carlo, certifies extracted policies by resimulation, and cross-checks
everything against an exact backward-induction oracle on quantized
scenario lattices.  A two-plant hydropower cascade with delayed water
routing serves as the worked example; the ``switchmc`` console script
exposes the same pipeline from the command line.
"""

from .controls import (
    JumpMapFamily,
    ModeSet,
    RewardSpec,
    SwitchingControl,
    SwitchingCostModel,
    SwitchingProblem,
    ValidationReport,
    evaluate_reward,
    validate_control,
    validate_cycle_reduction,
    validate_no_free_loop,
    validate_target_only,
    validate_terminal_no_switch,
)
from .oracle import (
    EnumerationResult,
    OracleInstance,
    OracleValues,
    build_lattice,
    enumerate_controls,
    exact_dp,
)
from .sdde import (
    DivergedError,
    MarkDistribution,
    NoiseDraw,
    OffGridError,
    Path,
    SddeSpec,
    SimulationError,
    TimeGrid,
    estimate_moment,
    euler_increment,
    path_to_csv,
    sample_noise,
    sample_noise_batch,
    simulate_batch,
    simulate_path,
)
from .snell import (
    ScenarioTree,
    envelope_limit_check,
    optimal_stopping_rule,
    random_dominating_supermartingale,
    rule_value,
    snell_envelope,
    tree_from_json,
    tree_to_json,
)
from .solver import (
    CertifyReport,
    FeatureMap,
    Policy,
    SolveDiagnostics,
    ValueSurface,
    certify,
    extract_policy,
    solve,
    surface_to_csv,
)
from .hydro import (
    HydroParams,
    build_hydro_problem,
    mass_balance_residuals,
    mode_label,
    mode_levels,
    reservoir_marginals,
    water_value_curve,
)
from .config import ConfigError, RunConfig, SolverSettings, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "MarkDistribution",
    "SddeSpec",
    "NoiseDraw",
    "Path",
    "SimulationError",
    "OffGridError",
    "DivergedError",
    "sample_noise",
    "sample_noise_batch",
    "euler_increment",
    "simulate_path",
    "simulate_batch",
    "estimate_moment",
    "path_to_csv",
    "ModeSet",
    "SwitchingControl",
    "SwitchingCostModel",
    "JumpMapFamily",
    "RewardSpec",
    "SwitchingProblem",
    "ValidationReport",
    "validate_control",
    "validate_no_free_loop",
    "validate_terminal_no_switch",
    "validate_cycle_reduction",
    "validate_target_only",
    "evaluate_reward",
    "ScenarioTree",
    "snell_envelope",
    "optimal_stopping_rule",
    "rule_value",
    "envelope_limit_check",
    "random_dominating_supermartingale",
    "tree_to_json",
    "tree_from_json",
    "OracleInstance",
    "OracleValues",
    "EnumerationResult",
    "build_lattice",
    "exact_dp",
    "enumerate_controls",
    "FeatureMap",
    "ValueSurface",
    "SolveDiagnostics",
    "Policy",
    "CertifyReport",
    "solve",
    "extract_policy",
    "certify",
    "surface_to_csv",
    "HydroParams",
    "build_hydro_problem",
    "mass_balance_residuals",
    "mode_label",
    "mode_levels",
    "water_value_curve",
    "reservoir_marginals",
    "ConfigError",
    "RunConfig",
    "SolverSettings",
    "load_config",
    "parse_config",
    "__version__",
]
