"""Command line driver: exit codes, artifacts, determinism."""

import dataclasses
import json
import warnings

import pytest

from switchmc import cli, families
from switchmc.cli import main
from switchmc.controls import JumpMapFamily


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(argv)


def test_validate_two_mode_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, "tm.json", {"family": "two_mode_deterministic", "params": {"n_steps": 8}})
    code = run_cli(["validate", "--config", cfg, "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no-free-loop: ok" in out
    assert "terminal-no-switch: ok" in out
    assert "target-only: ok" in out


def test_validate_flags_misdeclared_target_only(tmp_path, capsys, monkeypatch):
    pure_cost = families.pure_cost_problem

    def twisted(**params):
        problem, grid = pure_cost(**params)
        maps = JumpMapFamily(apply=lambda bf, bt, t, x: x + float(bf), target_only=True)
        return dataclasses.replace(problem, jump_maps=maps), grid

    monkeypatch.setattr(families, "pure_cost_problem", twisted)
    cfg = write_config(tmp_path, "pc.json", {"family": "pure_cost", "params": {"n_modes": 3}})
    assert run_cli(["validate", "--config", cfg, "--seed", "1"]) == 1
    assert "target-only: FAIL" in capsys.readouterr().out


def test_validate_flags_bad_control(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "family": "two_mode_deterministic",
            "params": {"n_steps": 8},
            "control": {"times": [0.25], "modes": [1]},
        },
    )
    code = run_cli(["validate", "--config", cfg, "--seed", "1"])
    assert code == 1
    assert "control: FAIL" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "nope.json", {"family": "pde"})
    assert run_cli(["validate", "--config", cfg, "--seed", "1"]) == 2
    assert run_cli(["validate", "--config", str(tmp_path / "missing.json"), "--seed", "1"]) == 2


def test_missing_seed_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, "tm.json", {"family": "two_mode_deterministic", "params": {}})
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["validate", "--config", cfg])
    assert excinfo.value.code == 2


def test_simulate_writes_deterministic_artifacts(tmp_path):
    cfg = write_config(
        tmp_path, "gbm.json", {"family": "gbm", "params": {"mu": 0.1, "sigma": 0.2, "n_steps": 16}}
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli(
            ["simulate", "--config", cfg, "--seed", "5", "--paths", "2", "--out", str(out)]
        )
        assert code == 0
    for name in ("simulate_summary.json", "path_0000.csv", "path_0001.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "simulate_summary.json").read_text())
    assert summary["n_paths"] == 2
    assert summary["seed"] == 5


def test_simulate_checks_paths_first(tmp_path, capsys):
    cfg = write_config(tmp_path, "gbm.json", {"family": "gbm", "params": {"n_steps": 4}})
    for paths in ("0", "-1"):
        out = tmp_path / f"paths{paths}"
        argv = ["simulate", "--config", cfg, "--seed", "1", "--paths", paths, "--out", str(out)]
        assert run_cli(argv) == 1
        assert "--paths must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_rejects_off_grid_control(tmp_path):
    cfg = write_config(
        tmp_path,
        "offgrid.json",
        {
            "family": "two_mode_deterministic",
            "params": {"n_steps": 4},
            "control": {"times": [0.33], "modes": [2]},
        },
    )
    assert run_cli(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "x")]) == 1


def test_solve_two_mode_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        "tm.json",
        {
            "family": "two_mode_deterministic",
            "params": {"n_steps": 8},
            "solver": {"n_paths": 500},
        },
    )
    out = tmp_path / "run"
    code = run_cli(["solve", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert code == 0
    solution = json.loads((out / "solution.json").read_text())
    assert abs(solution["root_value"] - 0.7) <= 1e-9
    assert solution["converged"] is True
    assert (out / "surface.csv").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["k_max_requested"] == 4


def test_zero_paths_override_is_an_error(tmp_path):
    cfg = write_config(tmp_path, "tm.json", {"family": "two_mode_deterministic", "params": {"n_steps": 4}})
    for command in ("solve", "compare-oracle"):
        argv = [command, "--config", cfg, "--seed", "3", "--paths", "0", "--out", str(tmp_path / command)]
        assert run_cli(argv) == 1


def test_compare_oracle_small_affine(tmp_path):
    cfg = write_config(
        tmp_path,
        "affine.json",
        {
            "family": "affine",
            "params": {
                "n_steps": 4,
                "x0": 0.5,
                "drift_const": [0.3, -0.5],
                "vol_const": 0.4,
                "run_const": [0.0, 0.4],
                "run_lin": [0.3, -0.4],
                "cost_table": [[0.0, 0.06], [0.05, 0.0]],
            },
            "solver": {"n_paths": 4000, "degree": 3, "k_max": 3},
        },
    )
    out = tmp_path / "cmp"
    code = run_cli(["compare-oracle", "--config", cfg, "--seed", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "compare_oracle.json").read_text())
    assert payload["branching"] == 2
    assert len(payload["rows"]) >= 2
    for row in payload["rows"]:
        assert row["abs_diff"] <= 0.05


def test_water_value_cli(tmp_path):
    cfg = write_config(tmp_path, "hydro.json", {"family": "hydro", "params": {"n_steps": 16}})
    out = tmp_path / "wv"
    code = run_cli(
        [
            "water-value",
            "--config", cfg,
            "--seed", "7",
            "--paths", "300",
            "--k-max", "2",
            "--levels", "0.4,0.9",
            "--bump", "0.2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "water_value.json").read_text())
    assert payload["monotone"] is True
    assert payload["upstream_marginal"] >= payload["downstream_marginal"] - 1e-6
    assert len(payload["values"]) == 2


def test_hydro_demo_checks_certify_paths_first(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve must not run")

    monkeypatch.setattr(cli, "solve", no_solve)
    argv = ["hydro-demo", "--seed", "3", "--certify-paths", "1", "--out", str(tmp_path / "demo")]
    assert run_cli(argv) == 1
    assert not (tmp_path / "demo").exists()


def test_water_value_checks_bump_first(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("no water value may be computed")

    monkeypatch.setattr(cli, "water_value_curve", no_solve)
    monkeypatch.setattr(cli, "reservoir_marginals", no_solve)
    for bump in ("0", "-0.1"):
        out = tmp_path / f"bump{bump}"
        argv = ["water-value", "--seed", "3", "--bump", bump, "--out", str(out)]
        assert run_cli(argv) == 1
        assert not out.exists()


def test_hydro_demo_cli(tmp_path):
    cfg = write_config(tmp_path, "hydro.json", {"family": "hydro", "params": {"n_steps": 16}})
    out = tmp_path / "demo"
    code = run_cli(
        [
            "hydro-demo",
            "--config", cfg,
            "--seed", "3",
            "--paths", "300",
            "--certify-paths", "300",
            "--k-max", "6",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in (
        "hydro_sample_path.csv",
        "hydro_surface.csv",
        "hydro_diagnostics.json",
        "hydro_certify.json",
    ):
        assert (out / name).exists()
    certify = json.loads((out / "hydro_certify.json").read_text())
    assert certify["terminal_switches"] == 0
    assert certify["switch_bound_ok"] is True
