"""Built-in problem families.

Everything here is expressible in a JSON config (see the config module):
an affine family with per-mode constants, a geometric (multiplicative)
one-dimensional spec, a deterministic two-mode flow instance and a
pure-cost instance (both affine, with the state fixed at 0) and a seeded
random generator of small affine instances used for oracle cross-checks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .controls import (
    JumpMapFamily,
    ModeSet,
    RewardSpec,
    SwitchingCostModel,
    SwitchingProblem,
    validate_no_free_loop,
)
from .sdde import MarkDistribution, SddeSpec, TimeGrid

__all__ = [
    "affine_problem",
    "gbm_spec",
    "two_mode_flow_problem",
    "pure_cost_problem",
    "random_tree_problem",
]


def affine_problem(
    n_modes: int = 2,
    horizon: float = 1.0,
    n_steps: int = 4,
    x0: float = 1.0,
    drift_const: Sequence[float] = (0.0, 0.0),
    drift_lin: float = 0.0,
    drift_delay: float = 0.0,
    vol_const: float = 0.3,
    vol_lin: float = 0.0,
    delay_steps: int = 0,
    jump_intensity: float = 0.0,
    jump_scale: float = 0.0,
    jump_atoms: Sequence[float] = (0.6,),
    jump_weights: Sequence[float] = (1.0,),
    run_const: Sequence[float] = (0.0, 0.0),
    run_lin: Sequence[float] = (0.0, 0.0),
    term_const: float = 0.0,
    term_lin: float = 0.0,
    cost_table: Optional[Sequence[Sequence[float]]] = None,
    loop_floor: Optional[float] = None,
    initial_mode: int = 1,
):
    """One-dimensional affine instance with per-mode drift and reward constants.

    Dynamics: dX = (a0[b] + a1 X + a2 X_delayed) dt + (s0 + s1 X) dW + jumps,
    running reward r0[b] + r1[b] X, terminal reward w0 + w1 X, identity jump
    maps, constant switch costs.  ``loop_floor`` defaults to the exact
    minimum cycle cost of ``cost_table``.  Returns (problem, grid).
    """
    a0 = np.asarray(drift_const, dtype=float)
    r0 = np.asarray(run_const, dtype=float)
    r1 = np.asarray(run_lin, dtype=float)
    if not (len(a0) == len(r0) == len(r1) == n_modes):
        raise ValueError("per-mode coefficient arrays must have length n_modes")
    grid = TimeGrid(horizon, n_steps)
    delay = delay_steps * grid.step
    if cost_table is None:
        cost_table = 0.3 * (np.ones((n_modes, n_modes)) - np.eye(n_modes))
    table = np.asarray(cost_table, dtype=float)
    if table.shape != (n_modes, n_modes):
        raise ValueError("cost_table must be n_modes x n_modes")
    modes = ModeSet(n_modes, initial_mode)
    if loop_floor is None:
        # Only the enumerated minimum is read; the placeholder floor is never checked.
        unfloored = SwitchingCostModel.from_table(table, loop_floor=np.inf)
        loop_floor = validate_no_free_loop(unfloored, modes, (0.0,)).margin

    def drift(t, x, y, mode):
        return a0[mode - 1] + drift_lin * x + drift_delay * y

    def diffusion(t, x, y, mode):
        return (vol_const + vol_lin * x)[..., None]

    marks = None
    jump_coeff = None
    if jump_intensity > 0.0:
        marks = MarkDistribution(
            atoms=np.asarray(jump_atoms, dtype=float).reshape(-1, 1),
            weights=np.asarray(jump_weights, dtype=float),
        )

        def jump_coeff(t, x, y, z, mode):
            return np.full_like(x, jump_scale * z[0])

    spec = SddeSpec(
        dim=1,
        drift=drift,
        diffusion=diffusion,
        brownian_dim=1,
        jump_coeff=jump_coeff,
        jump_intensity=jump_intensity,
        marks=marks,
        delay=delay,
        initial_segment=lambda s: np.array([x0]),
    )
    problem = SwitchingProblem(
        dynamics=spec,
        modes=modes,
        costs=SwitchingCostModel.from_table(table, loop_floor=float(loop_floor)),
        jump_maps=JumpMapFamily.identity(),
        reward=RewardSpec(
            running=lambda t, x, mode: r0[mode - 1] + r1[mode - 1] * x[:, 0],
            terminal=lambda x: term_const + term_lin * x[:, 0],
        ),
    )
    return problem, grid


def gbm_spec(mu: float = 0.1, sigma: float = 0.2, x0: float = 1.0) -> SddeSpec:
    """Geometric one-dimensional spec dX = mu X dt + sigma X dW."""
    return SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: mu * x,
        diffusion=lambda t, x, y, mode: (sigma * x)[..., None],
        initial_segment=lambda s: np.array([x0]),
    )


def two_mode_flow_problem(
    rate_low: float = 0.0,
    rate_high: float = 1.0,
    cost: float = 0.3,
    horizon: float = 1.0,
    n_steps: int = 64,
):
    """Deterministic two-mode instance: flat state, per-mode reward rates.

    Mode 1 earns rate_low per unit time, mode 2 rate_high; every switch
    costs the same constant.  With the defaults the best control switches
    once at t = 0 for a total reward of rate_high * horizon - cost.
    """
    return affine_problem(
        horizon=horizon,
        n_steps=n_steps,
        x0=0.0,
        vol_const=0.0,
        run_const=(rate_low, rate_high),
        cost_table=cost * (np.ones((2, 2)) - np.eye(2)),
        loop_floor=2 * cost,
    )


def pure_cost_problem(n_modes: int = 3, cost: float = 0.2, horizon: float = 1.0, n_steps: int = 8):
    """Zero rewards, flat state: every control is worth minus its cost."""
    return affine_problem(
        n_modes=n_modes,
        horizon=horizon,
        n_steps=n_steps,
        x0=0.0,
        drift_const=(0.0,) * n_modes,
        vol_const=0.0,
        run_const=(0.0,) * n_modes,
        run_lin=(0.0,) * n_modes,
        cost_table=cost * (np.ones((n_modes, n_modes)) - np.eye(n_modes)),
        loop_floor=2 * cost,
    )


def random_tree_problem(
    seed: int,
    n_modes: int = 2,
    levels: int = 4,
    delay_steps: int = 0,
    mode_drift: bool = True,
    with_jumps: bool = False,
):
    """Seeded small affine instance sized for the exact tree oracle.

    Per-mode reward rates always differ across modes; the drift constants
    differ too when mode_drift is set, which makes the state depend on the
    full control history.  Returns (problem, grid) with grid.n_steps ==
    levels.
    """
    rng = np.random.default_rng(seed)
    m = n_modes
    a0 = rng.uniform(-0.4, 0.4, size=m) if mode_drift else np.full(m, rng.uniform(-0.4, 0.4))
    table = rng.uniform(0.08, 0.3, size=(m, m))
    np.fill_diagonal(table, 0.0)
    return affine_problem(
        n_modes=m,
        horizon=1.0,
        n_steps=levels,
        x0=float(rng.uniform(0.6, 1.4)),
        drift_const=a0,
        drift_lin=float(rng.uniform(-0.3, 0.3)),
        drift_delay=float(rng.uniform(-0.3, 0.3)) if delay_steps > 0 else 0.0,
        vol_const=float(rng.uniform(0.25, 0.5)),
        delay_steps=delay_steps,
        jump_intensity=0.4 if with_jumps else 0.0,
        jump_scale=float(rng.uniform(-0.3, 0.3)) if with_jumps else 0.0,
        run_const=rng.uniform(-0.5, 0.5, size=m),
        run_lin=rng.uniform(-0.6, 0.6, size=m),
        term_const=float(rng.uniform(-0.2, 0.2)),
        term_lin=float(rng.uniform(-0.5, 0.5)),
        cost_table=table,
    )
