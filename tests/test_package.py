"""The package's public surface: one list per module, re-exported once."""

import switchmc
from switchmc import config, controls, hydro, oracle, sdde, snell, solver

# The names the package exported before the module lists became the only source,
# less the single-path simulation API (REMOVED), which the batch replaces.
EXPORTED = [
    "TimeGrid", "MarkDistribution", "SddeSpec", "Path", "SimulationError", "OffGridError",
    "DivergedError", "sample_noise_batch", "euler_increment", "simulate_batch", "path_to_csv",
    "ModeSet",
    "SwitchingControl", "SwitchingCostModel", "JumpMapFamily", "RewardSpec", "SwitchingProblem",
    "ValidationReport", "validate_control", "validate_no_free_loop", "validate_terminal_no_switch",
    "validate_cycle_reduction", "validate_target_only", "evaluate_reward", "ScenarioTree",
    "snell_envelope", "optimal_stopping_rule", "rule_value", "envelope_limit_check",
    "random_dominating_supermartingale", "tree_to_json", "tree_from_json", "OracleInstance",
    "OracleValues", "EnumerationResult", "build_lattice", "exact_dp", "enumerate_controls",
    "FeatureMap", "ValueSurface", "SolveDiagnostics", "Policy", "CertifyReport", "solve",
    "extract_policy", "certify", "surface_to_csv", "HydroParams", "build_hydro_problem",
    "mass_balance_residuals", "mode_label", "mode_levels", "water_value_curve",
    "reservoir_marginals", "ConfigError", "RunConfig", "SolverSettings", "load_config",
    "parse_config", "__version__",
]
REMOVED = ["NoiseDraw", "sample_noise", "simulate_path", "estimate_moment"]


def test_public_names_are_the_module_lists():
    modules = (sdde, controls, snell, oracle, solver, hydro, config)
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert switchmc.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(switchmc, name) is getattr(module, name)
    assert len(EXPORTED) == 60
    assert set(EXPORTED) <= set(switchmc.__all__)
    for name in REMOVED:
        assert not hasattr(switchmc, name) and not hasattr(sdde, name)
