"""Cascade model: mode labelling, water balance, validators, value diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from switchmc.controls import (
    SwitchingControl,
    validate_no_free_loop,
    validate_terminal_no_switch,
)
from switchmc.hydro import (
    HydroParams,
    build_hydro_problem,
    mass_balance_residuals,
    mode_label,
    mode_levels,
    reservoir_marginals,
    water_value_curve,
)
from switchmc.sdde import Path, sample_noise_batch, simulate_batch


def small_params(**kw):
    base = dict(n_steps=16, delay=0.125)
    base.update(kw)
    return HydroParams(**base)


def test_mode_labels_roundtrip():
    p = HydroParams()
    assert p.n_modes == 6
    seen = set()
    for xi1 in range(p.kappa1 + 1):
        for xi2 in range(p.kappa2 + 1):
            label = mode_label(xi1, xi2, p)
            assert mode_levels(label, p) == (xi1, xi2)
            seen.add(label)
    assert seen == set(range(1, 7))
    with pytest.raises(ValueError):
        mode_label(3, 0, p)
    with pytest.raises(ValueError):
        mode_levels(0, p)


def test_params_validation():
    with pytest.raises(ValueError):
        HydroParams(w1=0.1, w2=0.3)
    with pytest.raises(ValueError):
        HydroParams(switch_base=0.0)
    with pytest.raises(ValueError):
        HydroParams(kappa1=0)
    with pytest.raises(ValueError):
        HydroParams(delay=-0.1)


def test_problem_shape():
    p = small_params()
    problem, grid = build_hydro_problem(p)
    assert problem.dynamics.dim == 6
    assert problem.modes.n_modes == 6
    assert grid.n_steps == p.n_steps
    assert problem.dynamics.delay == pytest.approx(p.delay)
    assert problem.jump_maps.target_only


def test_switch_costs_are_level_distances():
    p = HydroParams()
    problem, _ = build_hydro_problem(p)
    a = mode_label(0, 0, p)
    b = mode_label(2, 1, p)
    assert problem.costs(a, b, 0.0) == pytest.approx(0.05 * 3)
    assert problem.costs(b, a, 0.5) == pytest.approx(0.05 * 3)
    c = mode_label(0, 1, p)
    assert problem.costs(a, c, 0.0) == pytest.approx(0.05)


def test_no_free_loop_and_terminal_validators():
    p = small_params()
    problem, grid = build_hydro_problem(p)
    loop = validate_no_free_loop(problem.costs, problem.modes, [0.0, 0.5, 1.0])
    assert loop.ok
    probes = np.abs(np.random.default_rng(0).normal(size=(32, 6)))
    term = validate_terminal_no_switch(
        problem.reward, problem.costs, problem.jump_maps, problem.modes, grid.horizon, probes
    )
    assert term.ok


def test_jump_map_rewrites_upstream_level_only():
    p = HydroParams()
    problem, _ = build_hydro_problem(p)
    x = np.random.default_rng(1).normal(size=(8, 6))
    target = mode_label(2, 0, p)
    moved = problem.switch_map(1, target, 0.3, x)
    assert np.all(moved[:, 5] == 2.0)
    assert np.array_equal(moved[:, :5], x[:, :5])


def test_jump_map_nonexpansive_in_sup_norm():
    p = HydroParams()
    problem, _ = build_hydro_problem(p)
    c = float(p.kappa1)
    x = np.random.default_rng(2).normal(size=(64, 6)) * 3.0
    for b2 in range(1, p.n_modes + 1):
        moved = problem.switch_map(1, b2, 0.1, x)
        lhs = np.abs(moved).max(axis=1)
        rhs = np.maximum(c, np.abs(x).max(axis=1))
        assert np.all(lhs <= rhs + 1e-12)


def test_mass_balance_exact_on_simulated_paths():
    p = small_params()
    problem, grid = build_hydro_problem(p)
    control = SwitchingControl(
        times=(0.0, 0.25, 0.5), modes=(mode_label(2, 1, p), mode_label(1, 0, p), mode_label(0, 1, p))
    )
    dw, counts = sample_noise_batch(problem.dynamics, grid, seed=3, n_paths=64)
    states, modes = simulate_batch(
        problem.dynamics, grid, control, dw, counts,
        switch_map=problem.switch_map, initial_mode=problem.modes.initial,
    )
    pres = problem.dynamics.presegment(grid)
    for q in range(states.shape[0]):
        path = Path(grid=grid, states=states[q], presegment=pres, modes=modes)
        r1, r2 = mass_balance_residuals(p, path)
        assert r1 <= 1e-9
        assert r2 <= 1e-9


def test_delayed_release_feeds_downstream():
    """Water released upstream shows up downstream exactly one delay later."""
    p = small_params(rain_intensity=0.0, sigma1=0.0, sigma2=0.0, sigma_r=0.0)
    problem, grid = build_hydro_problem(p)
    on = mode_label(2, 0, p)
    control = SwitchingControl(times=(0.0,), modes=(on,))
    dw, counts = sample_noise_batch(problem.dynamics, grid, seed=0, n_paths=1)
    states, modes = simulate_batch(
        problem.dynamics, grid, control, dw, counts,
        switch_map=problem.switch_map, initial_mode=problem.modes.initial,
    )
    d = problem.dynamics.delay_steps(grid)
    assert d == 2
    x = states[0]
    dt = grid.step
    i = 6
    xi1_then = x[i - d][5]
    z1_then = x[i - d][2]
    expected = x[i][3] + dt * (x[i][1] + p.alpha1 * xi1_then * (z1_then > 0))
    assert x[i + 1][3] == pytest.approx(expected, abs=1e-12)


def test_water_value_curve_monotone_small():
    p = small_params()
    with pytest.warns(RuntimeWarning):
        levels, values = water_value_curve(p, [0.4, 0.9], n_paths=600, seed=7, k_max=2)
    assert values[1] >= values[0] - 1e-6 * (1.0 + abs(values[1]))
    with pytest.raises(ValueError):
        water_value_curve(p, [0.5], n_paths=600, seed=7)


def test_reservoir_marginals_ordering_small():
    p = small_params()
    with pytest.warns(RuntimeWarning):
        out = reservoir_marginals(p, bump=0.2, n_paths=600, seed=7, k_max=2)
    assert out["upstream_marginal"] >= out["downstream_marginal"] - 1e-6
    assert np.isfinite(out["base_value"])
    with pytest.raises(ValueError):
        reservoir_marginals(p, bump=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: HydroParams(switch_base=np.nan), "switch_base"),
        (lambda: HydroParams(delay=np.nan), "delay"),
        (lambda: build_hydro_problem(HydroParams(rain_intensity=np.nan)), "jump_intensity"),
        (lambda: reservoir_marginals(small_params(n_steps=8), bump=np.nan, n_paths=50, k_max=1),
         "bump"),
    ],
    ids=["switch_base", "delay", "rain_intensity", "bump"],
)
def test_nan_parameters_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_params_replace_is_cheap():
    p = HydroParams()
    q = replace(p, z1_0=0.9)
    assert q.z1_0 == 0.9
    assert q.n_modes == p.n_modes
