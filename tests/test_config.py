"""Config parsing: key validation, solver settings, family dispatch."""

import json

import pytest

from switchmc.config import ConfigError, load_config, parse_config


def test_minimal_two_mode_config():
    cfg = parse_config({"family": "two_mode_deterministic", "params": {"n_steps": 8}})
    problem, grid = cfg.build_problem()
    assert grid.n_steps == 8
    assert problem.modes.n_modes == 2
    assert cfg.solver.n_paths == 4000
    assert cfg.control is None


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        parse_config({"family": "heat_equation"})
    with pytest.raises(ConfigError):
        parse_config({"family": "affine", "params": {"n_steps": 4}, "notakey": 1})


def test_unknown_param_key_rejected():
    for raw in (
        {"family": "gbm", "params": {"mu": 0.1, "volatility": 0.2}},
        {"family": "pure_cost", "params": {}, "solver": {"probe_paths": 48}},
    ):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(raw)


def test_solver_settings_validated():
    base = {"family": "pure_cost", "params": {}}
    cfg = parse_config({**base, "solver": {"n_paths": 256, "degree": 3, "quantization": 2}})
    assert cfg.solver.n_paths == 256
    assert cfg.solver.feature_map().degree == 3
    for bad in (
        {"n_paths": 1},
        {"degree": 0},
        {"quantization": 5},
        {"k_max": -1},
        {"basis": "chebyshev"},
    ):
        with pytest.raises(ConfigError):
            parse_config({**base, "solver": bad})


def test_certify_section_is_unknown():
    with pytest.raises(ConfigError, match="unknown top-level key"):
        parse_config({"family": "pure_cost", "params": {}, "certify": {"n_paths": 512}})


def test_control_section():
    cfg = parse_config(
        {
            "family": "two_mode_deterministic",
            "params": {"n_steps": 4},
            "control": {"times": [0.0, 0.5], "modes": [2, 1]},
        }
    )
    assert cfg.control.n_switches == 2
    with pytest.raises(ConfigError):
        parse_config(
            {"family": "pure_cost", "params": {}, "control": {"times": [0.0], "modes": []}}
        )


def test_gbm_has_no_switching_problem():
    cfg = parse_config({"family": "gbm", "params": {"mu": 0.05}})
    spec, grid, problem = cfg.build_dynamics()
    assert problem is None
    assert grid.n_steps == 64
    with pytest.raises(ConfigError):
        cfg.build_problem()


def test_tree_random_seed_key():
    cfg = parse_config({"family": "tree_random", "params": {"instance_seed": 5, "levels": 3}})
    problem, grid = cfg.build_problem()
    assert grid.n_steps == 3


def test_hydro_params_checked_at_parse_time():
    with pytest.raises(ConfigError):
        parse_config({"family": "hydro", "params": {"w1": 0.1, "w2": 0.5}})
    cfg = parse_config({"family": "hydro", "params": {"n_steps": 16}})
    assert cfg.hydro_params().n_steps == 16


def test_load_config_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"family": "pure_cost", "params": {"n_modes": 3}}), encoding="utf-8")
    cfg = load_config(str(good))
    assert cfg.family == "pure_cost"
