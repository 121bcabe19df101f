"""Command line interface.

Subcommands:

    validate        structural checks on a configured instance
    simulate        simulate paths under a fixed control, write CSV
    solve           fit the value family, write surface and diagnostics
    compare-oracle  fitted root values against the exact lattice values
    hydro-demo      cascade pipeline: validate, solve, certify, report
    water-value     water value curve and reservoir marginals

Every command takes an explicit --seed (there is no wall-clock default),
writes only into --out, and produces byte-identical artifacts for
identical arguments.

Exit codes: 0 success, 1 failed run or failed check, 2 bad usage or bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, SolverSettings, load_config
from .controls import (
    SwitchingControl,
    validate_control,
    validate_cycle_reduction,
    validate_no_free_loop,
    validate_target_only,
    validate_terminal_no_switch,
)
from .hydro import (
    HydroParams,
    build_hydro_problem,
    mass_balance_residuals,
    reservoir_marginals,
    water_value_curve,
)
from .oracle import build_lattice, exact_dp
from .sdde import Path, SimulationError, path_to_csv, sample_noise_batch, simulate_batch
from .solver import certify, diagnostics_to_json, extract_policy, solve, surface_to_csv

__all__ = ["main"]

MASS_BALANCE_TOL = 1e-9
CURVE_SLACK_SCALE = 1e-6


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ensure_out(directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return directory


def _probe_states(problem, grid, seed: int, n_paths: int = 16, cap: int = 256) -> np.ndarray:
    """States visited by a small uncontrolled batch, used as check probes."""
    dw, counts = sample_noise_batch(problem.dynamics, grid, seed, n_paths)
    states, _ = simulate_batch(
        problem.dynamics,
        grid,
        SwitchingControl.empty(),
        dw,
        counts,
        switch_map=problem.switch_map,
        initial_mode=problem.modes.initial,
    )
    flat = states.reshape(-1, states.shape[2])
    stride = max(1, flat.shape[0] // cap)
    return flat[::stride]


def _solve(problem, grid, base: SolverSettings, args, quantization):
    """Solve with ``base``, where --paths and --k-max override it when given.

    Returns the surface and the path count used.
    """
    n_paths = base.n_paths if args.paths is None else args.paths
    surface = solve(
        problem,
        grid,
        feature_map=base.feature_map(),
        k_max=base.k_max if args.k_max is None else args.k_max,
        n_paths=n_paths,
        seed=args.seed,
        quantization=quantization,
    )
    return surface, n_paths


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problem, grid = cfg.build_problem()
    modes = problem.modes
    probes = _probe_states(problem, grid, args.seed)
    ts = [float(t) for t in grid.times[:: max(1, grid.n_steps // 8)]]
    ok = True

    loop = validate_no_free_loop(problem.costs, modes, ts)
    ok &= loop.ok
    print(f"no-free-loop: {'ok' if loop.ok else 'FAIL'} ({loop.detail})")

    term = validate_terminal_no_switch(
        problem.reward, problem.costs, problem.jump_maps, modes, grid.horizon, probes
    )
    ok &= term.ok
    print(f"terminal-no-switch: {'ok' if term.ok else 'FAIL'} ({term.detail})")

    if modes.n_modes <= 5:
        red = validate_cycle_reduction(problem.jump_maps, modes, probes[:32], seed=args.seed)
        ok &= red.ok
        print(f"cycle-reduction: {'ok' if red.ok else 'FAIL'} ({red.detail})")
    else:
        print("cycle-reduction: skipped (exhaustive check supports at most 5 modes)")

    if problem.jump_maps.target_only:
        tgt = validate_target_only(problem.jump_maps, modes, probes, ts)
        ok &= tgt.ok
        print(f"target-only: {'ok' if tgt.ok else 'FAIL'} ({tgt.detail})")

    if cfg.control is not None:
        complaints = validate_control(cfg.control, modes, grid)
        if complaints:
            ok = False
            for line in complaints:
                print(f"control: FAIL ({line})")
        else:
            print(f"control: ok ({cfg.control.n_switches} switches)")
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    if args.paths < 1:
        raise ValueError("--paths must be at least 1")
    cfg = load_config(args.config)
    spec, grid, problem = cfg.build_dynamics()
    control = cfg.control or SwitchingControl.empty()
    if problem is None:
        if control.n_switches:
            raise ConfigError(f"family {cfg.family!r} has no switching structure to control")
        switch_map, initial_mode = None, 1
    else:
        complaints = validate_control(control, problem.modes, grid)
        if complaints:
            raise ValueError("; ".join(complaints))
        switch_map, initial_mode = problem.switch_map, problem.modes.initial
    out = _ensure_out(args.out)
    dw, counts = sample_noise_batch(spec, grid, args.seed, args.paths)
    states, path_modes = simulate_batch(
        spec, grid, control, dw, counts, switch_map=switch_map, initial_mode=initial_mode
    )
    pres = spec.presegment(grid)
    for p in range(args.paths):
        path = Path(grid=grid, states=states[p], presegment=pres, modes=path_modes)
        with open(os.path.join(out, f"path_{p:04d}.csv"), "w", encoding="utf-8") as fh:
            path_to_csv(path, fh)
    sup = np.linalg.norm(states, axis=2).max(axis=1)
    summary = {
        "family": cfg.family,
        "n_paths": args.paths,
        "n_steps": grid.n_steps,
        "seed": args.seed,
        "terminal_mean": [float(v) for v in states[:, -1].mean(axis=0)],
        "sup_norm_mean": float(sup.mean()),
        "sup_norm_max": float(sup.max()),
    }
    _write_json(os.path.join(out, "simulate_summary.json"), summary)
    print(
        f"simulated {args.paths} path(s), {grid.n_steps} steps; "
        f"mean sup-norm {summary['sup_norm_mean']:.6g}; wrote {out}"
    )
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem, grid = cfg.build_problem()
    surface, n_paths = _solve(problem, grid, cfg.solver, args, cfg.solver.quantization)
    out = _ensure_out(args.out)
    with open(os.path.join(out, "surface.csv"), "w", encoding="utf-8") as fh:
        surface_to_csv(surface, fh)
    with open(os.path.join(out, "diagnostics.json"), "w", encoding="utf-8") as fh:
        fh.write(diagnostics_to_json(surface.diagnostics))
        fh.write("\n")
    _write_json(
        os.path.join(out, "solution.json"),
        {
            "family": cfg.family,
            "seed": args.seed,
            "n_paths": n_paths,
            "k_levels": surface.k_levels,
            "converged": surface.diagnostics.converged,
            "root_value": surface.y0,
            "root_se": surface.y0_se,
        },
    )
    print(
        f"root value {surface.y0:.10g} (se {surface.y0_se:.3g}) "
        f"after {surface.k_levels} budget levels; converged={surface.diagnostics.converged}"
    )
    return 0


def cmd_compare_oracle(args) -> int:
    cfg = load_config(args.config)
    problem, grid = cfg.build_problem()
    surface, n_paths = _solve(problem, grid, cfg.solver, args, args.branching)
    instance = build_lattice(problem, grid, branching=args.branching)
    values = exact_dp(instance, k_max=surface.k_levels, with_table=False)
    b0 = problem.modes.initial
    rows = []
    print(" k  exact          fitted         |diff|")
    for k in range(surface.k_levels + 1):
        exact = values.root_value(k, b0)
        fitted = surface.root_value[(k, b0)]
        rows.append({"k": k, "exact": exact, "fitted": fitted, "abs_diff": abs(exact - fitted)})
        print(f"{k:2d}  {exact:<13.8g}  {fitted:<13.8g}  {abs(exact - fitted):.3e}")
    out = _ensure_out(args.out)
    _write_json(
        os.path.join(out, "compare_oracle.json"),
        {
            "family": cfg.family,
            "branching": args.branching,
            "seed": args.seed,
            "n_paths": n_paths,
            "rows": rows,
        },
    )
    return 0


def cmd_hydro_demo(args) -> int:
    if args.certify_paths < 2:
        raise ValueError("--certify-paths must be at least 2")
    if args.config:
        cfg = load_config(args.config)
        params = cfg.hydro_params()
        base = cfg.solver
    else:
        params = HydroParams()
        base = SolverSettings(n_paths=10000, cross_terms=False)
    problem, grid = build_hydro_problem(params)
    out = _ensure_out(args.out)

    probes = _probe_states(problem, grid, args.seed)
    loop = validate_no_free_loop(problem.costs, problem.modes, [0.0, grid.horizon / 2, grid.horizon])
    term = validate_terminal_no_switch(
        problem.reward, problem.costs, problem.jump_maps, problem.modes, grid.horizon, probes
    )
    print(f"no-free-loop: {'ok' if loop.ok else 'FAIL'} ({loop.detail})")
    print(f"terminal-no-switch: {'ok' if term.ok else 'FAIL'} ({term.detail})")
    if not (loop.ok and term.ok):
        return 1

    surface, _ = _solve(problem, grid, base, args, None)
    policy = extract_policy(surface)
    report = certify(policy, n_paths=args.certify_paths, seed=args.seed + 1)

    dw, counts = sample_noise_batch(problem.dynamics, grid, args.seed + 2, 1)
    states, path_modes = simulate_batch(
        problem.dynamics,
        grid,
        SwitchingControl.empty(),
        dw,
        counts,
        switch_map=problem.switch_map,
        initial_mode=problem.modes.initial,
    )
    sample = Path(grid=grid, states=states[0], presegment=problem.dynamics.presegment(grid), modes=path_modes)
    res1, res2 = mass_balance_residuals(params, sample)
    with open(os.path.join(out, "hydro_sample_path.csv"), "w", encoding="utf-8") as fh:
        path_to_csv(sample, fh)
    with open(os.path.join(out, "hydro_surface.csv"), "w", encoding="utf-8") as fh:
        surface_to_csv(surface, fh)
    with open(os.path.join(out, "hydro_diagnostics.json"), "w", encoding="utf-8") as fh:
        fh.write(diagnostics_to_json(surface.diagnostics))
        fh.write("\n")
    _write_json(
        os.path.join(out, "hydro_certify.json"),
        {**report.to_dict(), "train_seed": args.seed, "certify_seed": args.seed + 1},
    )
    print(
        f"surface value {surface.y0:.8g} (se {surface.y0_se:.3g}); "
        f"certified lower bound {report.lower_bound:.8g} (se {report.lower_bound_se:.3g})"
    )
    print(
        f"gap {report.gap:.4g}; max switches {report.max_switches} "
        f"(bound {report.switch_bound:.4g}); terminal temptations {report.terminal_switches}"
    )
    print(f"mass balance residuals {res1:.3e} / {res2:.3e}")
    if res1 > MASS_BALANCE_TOL or res2 > MASS_BALANCE_TOL:
        print("mass balance: FAIL")
        return 1
    return 0


def cmd_water_value(args) -> int:
    if not args.bump > 0.0:
        raise ValueError("--bump must be strictly positive")
    if args.config:
        params = load_config(args.config).hydro_params()
    else:
        params = HydroParams()
    levels = np.array([float(v) for v in args.levels.split(",")])
    lv, values = water_value_curve(
        params, levels, n_paths=args.paths, seed=args.seed, k_max=args.k_max
    )
    marg = reservoir_marginals(
        params, bump=args.bump, n_paths=args.paths, seed=args.seed, k_max=args.k_max
    )
    slack = CURVE_SLACK_SCALE * (1.0 + float(np.max(np.abs(values))))
    monotone = bool(np.all(np.diff(values) >= -slack))
    out = _ensure_out(args.out)
    _write_json(
        os.path.join(out, "water_value.json"),
        {
            "levels": [float(v) for v in lv],
            "values": [float(v) for v in values],
            "monotone": monotone,
            "upstream_marginal": marg["upstream_marginal"],
            "downstream_marginal": marg["downstream_marginal"],
            "base_value": marg["base_value"],
            "seed": args.seed,
            "n_paths": args.paths,
        },
    )
    print("initial level   value")
    for z, v in zip(lv, values):
        print(f"{z:13.6g}   {v:.8g}")
    print(
        f"upstream marginal {marg['upstream_marginal']:.6g}, "
        f"downstream marginal {marg['downstream_marginal']:.6g}"
    )
    if not monotone:
        print("water value curve: FAIL (not nondecreasing)")
        return 1
    print("water value curve: nondecreasing")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchmc",
        description="Optimal switching of delayed jump diffusions by regression Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config file")
        else:
            p.add_argument("--config", default=None, help="JSON config file (optional)")
        p.add_argument("--seed", type=int, required=True, help="root random seed")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate", help="structural checks on a configured instance")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="simulate paths under a fixed control")
    common(p)
    p.add_argument("--paths", type=int, default=1, help="number of paths")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="fit the value family")
    common(p)
    p.add_argument("--paths", type=int, default=None, help="override solver path count")
    p.add_argument("--k-max", type=int, default=None, help="override budget cap")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare-oracle", help="fitted values against the exact lattice")
    common(p)
    p.add_argument("--paths", type=int, default=None, help="override solver path count")
    p.add_argument("--k-max", type=int, default=None, help="override budget cap")
    p.add_argument("--branching", type=int, choices=(2, 3), default=2, help="lattice branching")
    p.set_defaults(func=cmd_compare_oracle)

    p = sub.add_parser("hydro-demo", help="cascade pipeline: validate, solve, certify")
    common(p, config_required=False)
    p.add_argument("--paths", type=int, default=None, help="solver path count")
    p.add_argument("--certify-paths", type=int, default=10000, help="certification path count")
    p.add_argument("--k-max", type=int, default=None, help="override budget cap")
    p.set_defaults(func=cmd_hydro_demo)

    p = sub.add_parser("water-value", help="water value curve and marginals")
    common(p, config_required=False)
    p.add_argument("--paths", type=int, default=2000, help="solver path count per level")
    p.add_argument("--k-max", type=int, default=None, help="override budget cap")
    p.add_argument("--levels", default="0.2,0.45,0.7,0.95,1.2", help="initial levels, comma separated")
    p.add_argument("--bump", type=float, default=0.1, help="marginal value bump size")
    p.set_defaults(func=cmd_water_value)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
