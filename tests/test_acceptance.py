"""Acceptance gate.

One test per shipped criterion, each printing a single pass or fail line
with the measured numbers, so a verbose test run reads as a checklist.
Tolerances and budgets are stated inline next to each check.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import delay_instance, jumps_instance, random_scenario_tree
from switchmc.cli import main as cli_main
from switchmc.controls import SwitchingControl
from switchmc.families import (
    gbm_spec,
    pure_cost_problem,
    random_tree_problem,
    two_mode_flow_problem,
)
from switchmc.hydro import (
    HydroParams,
    build_hydro_problem,
    mass_balance_residuals,
    mode_label,
    reservoir_marginals,
    water_value_curve,
)
from switchmc.oracle import build_lattice, enumerate_controls, exact_dp
from switchmc.sdde import Path, TimeGrid, sample_noise_batch, simulate_batch
from switchmc.snell import (
    optimal_stopping_rule,
    random_dominating_supermartingale,
    rule_value,
    snell_envelope,
)
from switchmc.solver import FeatureMap, certify, extract_policy, solve


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


SMALL_INSTANCES = [
    ("m2_plain", 101, 2, 4, 0, False),
    ("m2_delay", 102, 2, 5, 2, False),
    ("m2_jumps", 103, 2, 4, 0, True),
    ("m3_plain", 104, 3, 3, 0, False),
    ("m3_delay", 105, 3, 3, 1, False),
    ("m3_jumps", 106, 3, 3, 0, True),
]


def build_small(entry):
    _, seed, m, levels, delay, jumps = entry
    return random_tree_problem(
        seed=seed, n_modes=m, levels=levels, delay_steps=delay, with_jumps=jumps
    )


@pytest.fixture(scope="module")
def small_exact():
    """Exact root values of the small random instances at budget 4."""
    out = {}
    for entry in SMALL_INSTANCES:
        problem, grid = build_small(entry)
        inst = build_lattice(problem, grid, branching=2)
        out[entry[0]] = (problem, grid, inst, exact_dp(inst, k_max=4, with_table=False))
    return out


@pytest.fixture(scope="module")
def packaged():
    """The shipped instance suite, solved once and certified on 10^4 paths."""
    entries = []

    problem, grid = two_mode_flow_problem(n_steps=8)
    surf = solve(problem, grid, n_paths=2000, seed=0)
    entries.append(("two_mode", surf, certify(extract_policy(surf), n_paths=10_000, seed=901)))

    problem, grid = pure_cost_problem(n_modes=3, cost=0.2)
    surf = solve(problem, grid, n_paths=2000, seed=0)
    entries.append(("pure_cost", surf, certify(extract_policy(surf), n_paths=10_000, seed=902)))

    problem, grid = delay_instance()
    surf = solve(
        problem, grid, feature_map=FeatureMap(degree=3), k_max=4,
        n_paths=10_000, seed=5, quantization=2,
    )
    entries.append(
        (
            "affine_delay",
            surf,
            certify(extract_policy(surf), n_paths=10_000, seed=905, quantization=2),
        )
    )

    problem, grid = jumps_instance()
    surf = solve(
        problem, grid, feature_map=FeatureMap(degree=3), k_max=4,
        n_paths=10_000, seed=6, quantization=2,
    )
    entries.append(
        (
            "affine_jumps",
            surf,
            certify(extract_policy(surf), n_paths=10_000, seed=906, quantization=2),
        )
    )

    params = HydroParams(n_steps=32)
    problem, grid = build_hydro_problem(params)
    surf = solve(
        problem, grid, feature_map=FeatureMap(degree=2, cross_terms=False),
        n_paths=8000, seed=11,
    )
    entries.append(("hydro", surf, certify(extract_policy(surf), n_paths=10_000, seed=911)))
    return entries


def test_criterion_01_oracle_cross_validation(small_exact):
    """Backward induction equals exhaustive enumeration on small instances."""
    t0 = time.perf_counter()
    worst = 0.0
    for entry in SMALL_INSTANCES:
        name = entry[0]
        problem, grid, inst, vals = small_exact[name]
        en = enumerate_controls(inst, k_max=4)
        diff = abs(vals.root_value(4, problem.modes.initial) - en.value)
        worst = max(worst, diff)
        assert diff <= 1e-12, f"{name}: dp {vals.root_value(4, 1)} vs enum {en.value}"
    elapsed = time.perf_counter() - t0
    report(
        1,
        "oracle cross-validation",
        worst <= 1e-12 and elapsed < 10.0,
        f"{len(SMALL_INSTANCES)} instances, max |dp - enum| {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_solver_oracle_agreement(small_exact):
    """Regression values track the exact lattice values on matched noise."""
    worst_ratio = 0.0
    details = []
    for entry in SMALL_INSTANCES:
        name = entry[0]
        problem, grid, inst, vals = small_exact[name]
        exact = vals.root_value(4, problem.modes.initial)
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            surf = solve(
                problem,
                grid,
                feature_map=FeatureMap(degree=3),
                k_max=4,
                n_paths=10_000,
                seed=400 + entry[1],
                quantization=2,
            )
        elapsed = time.perf_counter() - t0
        err = abs(surf.y0 - exact)
        tol = 3.0 * surf.y0_se + 0.02 * abs(exact)
        worst_ratio = max(worst_ratio, err / tol if tol > 0 else np.inf)
        details.append(f"{name} err {err:.1e}/tol {tol:.1e}")
        assert err <= tol, f"{name}: fitted {surf.y0} exact {exact} tol {tol}"
        assert elapsed < 60.0, f"{name}: solve took {elapsed:.1f} s"
    report(2, "solver-oracle agreement", True, "; ".join(details))


def test_criterion_03_deterministic_closed_form():
    """Solver, oracle, and certification all land on the known flat-flow value."""
    problem, grid = two_mode_flow_problem(rate_low=0.0, rate_high=1.0, cost=0.3, n_steps=8)
    surf = solve(problem, grid, n_paths=2000, seed=0)
    inst = build_lattice(problem, grid, branching=2)
    oracle_val = exact_dp(inst, k_max=3, with_table=False).root_value(3, 1)
    rep = certify(extract_policy(surf), n_paths=10_000, seed=31)
    errs = {
        "solver": abs(surf.y0 - 0.7),
        "oracle": abs(oracle_val - 0.7),
        "certify": abs(rep.lower_bound - 0.7),
    }
    ok = all(v <= 1e-9 for v in errs.values())
    ok &= rep.switch_histogram == {1: 10_000}
    ok &= rep.terminal_switches == 0
    report(
        3,
        "deterministic closed form",
        ok,
        "errors " + ", ".join(f"{k} {v:.1e}" for k, v in errs.items()) + "; one switch at t=0",
    )


def test_criterion_04_budget_monotonicity(packaged):
    """Adding switch budget never lowers the value beyond resolvable noise."""
    details = []
    for name, surf, _ in packaged:
        diag = surf.diagnostics
        b0 = surf.problem.modes.initial
        ks = sorted(k for (k, b) in surf.root_value if b == b0)
        worst = 0.0
        for k in ks[:-1]:
            inc = surf.root_value[(k + 1, b0)] - surf.root_value[(k, b0)]
            se = float(np.hypot(surf.root_se[(k + 1, b0)], surf.root_se[(k, b0)]))
            worst = min(worst, inc + 3.0 * se)
            assert inc >= -3.0 * se - 1e-12, f"{name}: root value drops {-inc} from k={k} to {k + 1}"
            probe_inc = diag.probe_values[k + 1] - diag.probe_values[k]
            probe_se = np.hypot(diag.probe_se[k + 1], diag.probe_se[k])
            bad = probe_inc + 3.0 * probe_se + 1e-12
            assert np.all(bad >= 0.0), f"{name}: probe dip {probe_inc.min():.2e} at k={k + 1}"
        assert diag.converged, f"{name}: value family did not settle by k={surf.k_levels}"
        details.append(f"{name} settled at k={surf.k_levels}")
    report(4, "budget monotonicity", True, "; ".join(details))


def test_criterion_05_certified_gap(packaged):
    """The resimulated policy value brackets the fitted root value."""
    details = []
    ok = True
    for name, surf, rep in packaged:
        lo = -3.0 * rep.se_combined - 1e-9
        hi = 0.02 * abs(rep.y0) + 3.0 * rep.se_combined + 1e-9
        inside = lo <= rep.gap <= hi
        ok &= inside
        details.append(f"{name} gap {rep.gap:+.4f} in [{lo:.4f}, {hi:.4f}]")
        assert inside, f"{name}: gap {rep.gap} outside [{lo}, {hi}]"
    report(5, "certified value gap", ok, "; ".join(details))


def test_criterion_06_no_terminal_switching(packaged):
    """No policy intervention at the horizon across 10^4 certified paths."""
    counts = {name: rep.terminal_switches for name, _, rep in packaged}
    ok = all(v == 0 for v in counts.values())
    report(6, "no terminal switching", ok, ", ".join(f"{k}={v}" for k, v in counts.items()))


def test_criterion_07_switch_count_bound(packaged):
    """Empirical switch counts respect the cycle-cost bound."""
    details = []
    ok = True
    for name, surf, rep in packaged:
        ok &= rep.switch_bound_ok
        m = surf.problem.modes.n_modes
        floor = surf.problem.costs.loop_floor
        bound = m * (rep.j_max - rep.j_min) / floor + m
        ok &= rep.max_switches <= bound + 1e-9
        details.append(f"{name} max {rep.max_switches} <= {bound:.1f}")
        assert ok, f"{name}: {rep.max_switches} switches exceeds bound {bound}"
    report(7, "switch count bound", ok, "; ".join(details))


def gbm_strong_errors(n_paths: int = 1000, levels=(32, 64, 128, 256)):
    """Terminal strong error of the package's Euler scheme under shared Brownian noise."""
    mu, sigma, x0, horizon = 0.1, 0.2, 1.0, 1.0
    rng = np.random.default_rng(77)
    n_fine = levels[-1]
    fine = rng.standard_normal((n_paths, n_fine)) * np.sqrt(horizon / n_fine)
    w_total = fine.sum(axis=1)
    exact = x0 * np.exp((mu - 0.5 * sigma**2) * horizon + sigma * w_total)
    spec = gbm_spec(mu, sigma, x0)
    errs = []
    for n in levels:
        ratio = n_fine // n
        dw = fine.reshape(n_paths, n, ratio).sum(axis=2)
        no_jumps = np.zeros((n_paths, n, 0), dtype=np.int64)
        states, _ = simulate_batch(spec, TimeGrid(horizon, n), None, dw[:, :, None], no_jumps)
        errs.append(float(np.mean(np.abs(states[:, n, 0] - exact))))
    return np.array([horizon / n for n in levels]), np.array(errs)


def delayed_ode_errors(levels=(50, 100, 200)):
    from test_sdde import delayed_ode_max_error

    return np.array([2.0 / n for n in levels]), np.array(
        [delayed_ode_max_error(n) for n in levels]
    )


def test_criterion_08_integrator_order():
    """Strong order one half with noise, order one on the delayed drift test."""
    t0 = time.perf_counter()
    dts, errs = gbm_strong_errors()
    slope = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0])
    d_dts, d_errs = delayed_ode_errors()
    d_slopes = [float(np.log2(d_errs[j] / d_errs[j + 1])) for j in range(len(d_errs) - 1)]
    elapsed = time.perf_counter() - t0
    ok = 0.4 <= slope <= 0.6 and all(0.9 <= s <= 1.1 for s in d_slopes) and elapsed < 30.0
    report(
        8,
        "integrator order",
        ok,
        f"gbm slope {slope:.3f}, delay slopes "
        + ", ".join(f"{s:.3f}" for s in d_slopes)
        + f", {elapsed:.1f} s",
    )


def test_criterion_09_envelope_properties():
    """Dominance, supermartingale, minimality and attainment on random trees."""
    rng = np.random.default_rng(2024)
    tol = 1e-12
    worst = 0.0
    for _ in range(100):
        tree = random_scenario_tree(rng)
        payoff = rng.normal(size=tree.n_nodes)
        z = snell_envelope(tree, payoff)
        worst = max(worst, float(np.max(payoff - z)))
        for i in range(tree.n_nodes):
            kids = tree.children[i]
            if kids:
                worst = max(worst, float(np.dot(tree.probs[kids], z[kids])) - z[i])
        w = random_dominating_supermartingale(tree, payoff, rng)
        worst = max(worst, float(np.max(z - w)))
        stop = optimal_stopping_rule(tree, payoff, z)
        worst = max(worst, abs(rule_value(tree, payoff, stop) - z[0]))
    report(9, "envelope properties", worst <= tol, f"100 trees, worst violation {worst:.2e}")


def test_criterion_10_hydro_sanity(tmp_path):
    """Water bookkeeping, value monotonicity, marginal ordering, demo runtime."""
    params = HydroParams()
    problem, grid = build_hydro_problem(params)
    control = SwitchingControl(
        times=(0.0, 0.25, 0.5),
        modes=(
            mode_label(2, 1, params),
            mode_label(1, 0, params),
            mode_label(0, 1, params),
        ),
    )
    dw, counts = sample_noise_batch(problem.dynamics, grid, seed=13, n_paths=100)
    states, modes = simulate_batch(
        problem.dynamics, grid, control, dw, counts,
        switch_map=problem.switch_map, initial_mode=problem.modes.initial,
    )
    pres = problem.dynamics.presegment(grid)
    mass_worst = 0.0
    for q in range(states.shape[0]):
        path = Path(grid=grid, states=states[q], presegment=pres, modes=modes)
        mass_worst = max(mass_worst, *mass_balance_residuals(params, path))
    assert mass_worst <= 1e-9, f"mass balance residual {mass_worst}"

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        levels, values = water_value_curve(params, [0.3, 0.6, 0.9, 1.2], n_paths=2000, seed=7)
        marg = reservoir_marginals(params, n_paths=2000, seed=7)
    slack = 1e-6 * (1.0 + float(np.max(np.abs(values))))
    monotone = bool(np.all(np.diff(values) >= -slack))
    assert monotone, f"water values {values} not nondecreasing"

    ordered = marg["upstream_marginal"] >= marg["downstream_marginal"] - 1e-6
    assert ordered, f"marginals {marg}"

    t0 = time.perf_counter()
    code = cli_main(
        [
            "hydro-demo",
            "--seed", "3",
            "--paths", "10000",
            "--certify-paths", "10000",
            "--out", str(tmp_path / "demo"),
        ]
    )
    demo_s = time.perf_counter() - t0
    assert code == 0
    assert demo_s < 300.0, f"hydro demo took {demo_s:.0f} s"
    report(
        10,
        "hydro sanity",
        True,
        f"mass residual {mass_worst:.1e}; values {np.round(values, 3).tolist()}; "
        f"marginals up {marg['upstream_marginal']:.3f} >= down {marg['downstream_marginal']:.3f}; "
        f"demo {demo_s:.0f} s",
    )
