"""Two-plant hydropower cascade with delayed water routing.

Plant 1 sits upstream of plant 2; water released through the upstream
turbines reaches the downstream reservoir after a fixed travel time.
The operator picks a discrete turbine level per plant, so the mode is a
pair (xi1, xi2) with xi1 in 0..kappa1 and xi2 in 0..kappa2, flattened to
labels 1..(kappa1+1)*(kappa2+1).

State vector (dimension six):

    0: V1  inflow rate into reservoir 1 (mean reverting, rain jumps)
    1: V2  inflow rate into reservoir 2 (mean reverting)
    2: Z1  upstream reservoir level
    3: Z2  downstream reservoir level
    4: R   electricity price
    5: xi1 upstream turbine level, copied into the state

The upstream level is duplicated as state component five so the
downstream balance can read the release that happened one travel time
ago from the path buffer: the delayed inflow into reservoir 2 is
alpha1 * xi1(t - delay) * 1[Z1(t - delay) > 0], evaluated on the delayed
state.  The switch map writes the new xi1 into that component and leaves
everything else alone.

Releases stop when a reservoir is empty (drift indicator on Z > 0) and
production ramps down linearly below the reference head, so running the
turbines on an empty reservoir earns nothing.  Rain jumps enter in
compensated form, so they add bursts without shifting the long-run
inflow level vbar1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .controls import (
    JumpMapFamily,
    ModeSet,
    RewardSpec,
    SwitchingCostModel,
    SwitchingProblem,
)
from .sdde import MarkDistribution, Path, SddeSpec, TimeGrid
from .solver import FeatureMap, ValueSurface, solve

__all__ = [
    "HydroParams",
    "mode_label",
    "mode_levels",
    "build_hydro_problem",
    "mass_balance_residuals",
    "water_value_curve",
    "reservoir_marginals",
]


@dataclass(frozen=True)
class HydroParams:
    """Physical and market parameters of the cascade.

    Volumes, rates and prices are in normalized units; the horizon is one
    planning season.
    """

    kappa1: int = 2
    kappa2: int = 1
    theta1: float = 2.0
    vbar1: float = 1.0
    sigma1: float = 0.3
    theta2: float = 2.0
    vbar2: float = 0.5
    sigma2: float = 0.2
    rain_intensity: float = 4.0
    rain_size: float = 0.25
    alpha1: float = 1.2
    alpha2: float = 1.5
    mu_r: float = 0.0
    sigma_r: float = 0.25
    p1_unit: float = 1.0
    p2_unit: float = 0.8
    z1_ref: float = 0.5
    z2_ref: float = 0.4
    w1: float = 0.5
    w2: float = 0.3
    switch_base: float = 0.05
    v1_0: float = 1.0
    v2_0: float = 0.5
    z1_0: float = 0.6
    z2_0: float = 0.4
    r_0: float = 1.0
    delay: float = 0.125
    horizon: float = 1.0
    n_steps: int = 64

    def __post_init__(self):
        if self.kappa1 < 1 or self.kappa2 < 1:
            raise ValueError("each plant needs at least one positive turbine level")
        if not self.w1 >= self.w2:
            raise ValueError("upstream terminal water value must be >= downstream")
        for name in ("switch_base", "alpha1", "alpha2", "z1_ref", "z2_ref", "horizon"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.delay >= 0.0:
            raise ValueError("delay must be nonnegative")

    @property
    def n_modes(self) -> int:
        return (self.kappa1 + 1) * (self.kappa2 + 1)


def mode_label(xi1: int, xi2: int, params: HydroParams) -> int:
    """Flattened mode label of a (upstream, downstream) turbine pair."""
    if not (0 <= xi1 <= params.kappa1 and 0 <= xi2 <= params.kappa2):
        raise ValueError(f"turbine pair ({xi1},{xi2}) out of range")
    return 1 + xi1 * (params.kappa2 + 1) + xi2


def mode_levels(label: int, params: HydroParams):
    """Inverse of :func:`mode_label`."""
    if not 1 <= label <= params.n_modes:
        raise ValueError(f"mode label {label} out of range")
    q, r = divmod(label - 1, params.kappa2 + 1)
    return q, r


def _ramp(z: np.ndarray, ref: float) -> np.ndarray:
    return np.minimum(np.maximum(z, 0.0) / ref, 1.0)


def build_hydro_problem(params: HydroParams):
    """Assemble the cascade as a switching problem on its time grid."""
    p = params
    dim = 6

    def drift(t, x, y, mode):
        xi1, xi2 = mode_levels(mode, p)
        out = np.zeros_like(x)
        out[:, 0] = p.theta1 * (p.vbar1 - x[:, 0])
        out[:, 1] = p.theta2 * (p.vbar2 - x[:, 1])
        out[:, 2] = x[:, 0] - p.alpha1 * xi1 * (x[:, 2] > 0.0)
        out[:, 3] = (
            x[:, 1]
            - p.alpha2 * xi2 * (x[:, 3] > 0.0)
            + p.alpha1 * y[:, 5] * (y[:, 2] > 0.0)
        )
        out[:, 4] = p.mu_r * x[:, 4]
        return out

    def diffusion(t, x, y, mode):
        out = np.zeros((x.shape[0], dim, 3))
        out[:, 0, 0] = p.sigma1
        out[:, 1, 1] = p.sigma2
        out[:, 4, 2] = p.sigma_r * x[:, 4]
        return out

    def jump_coeff(t, x, y, z, mode):
        out = np.zeros_like(x)
        out[:, 0] = p.rain_size * z[0]
        return out

    def segment(s):
        return np.array([p.v1_0, p.v2_0, p.z1_0, p.z2_0, p.r_0, 0.0])

    spec = SddeSpec(
        dim=dim,
        drift=drift,
        diffusion=diffusion,
        brownian_dim=3,
        jump_coeff=jump_coeff,
        jump_intensity=p.rain_intensity,
        marks=MarkDistribution(atoms=np.array([[1.0]]), weights=np.array([1.0])),
        delay=p.delay,
        initial_segment=segment,
    )
    grid = TimeGrid(horizon=p.horizon, n_steps=p.n_steps)
    spec.delay_steps(grid)

    modes = ModeSet(n_modes=p.n_modes, initial=mode_label(0, 0, p))

    def cost(bf, bt, t):
        x1f, x2f = mode_levels(bf, p)
        x1t, x2t = mode_levels(bt, p)
        return p.switch_base * (abs(x1f - x1t) + abs(x2f - x2t))

    costs = SwitchingCostModel(cost=cost, loop_floor=2.0 * p.switch_base)

    def apply_map(bf, bt, t, x):
        xi1, _ = mode_levels(bt, p)
        out = np.array(x, dtype=float, copy=True)
        out[:, 5] = float(xi1)
        return out

    jump_maps = JumpMapFamily(apply=apply_map, reduction_length=2, target_only=True)

    def running(t, x, mode):
        xi1, xi2 = mode_levels(mode, p)
        power = xi1 * p.p1_unit * _ramp(x[:, 2], p.z1_ref) + xi2 * p.p2_unit * _ramp(
            x[:, 3], p.z2_ref
        )
        return x[:, 4] * power

    def terminal(x):
        return p.w1 * x[:, 2] + p.w2 * x[:, 3]

    reward = RewardSpec(running=running, terminal=terminal)

    problem = SwitchingProblem(
        dynamics=spec, modes=modes, costs=costs, jump_maps=jump_maps, reward=reward
    )
    return problem, grid


def mass_balance_residuals(params: HydroParams, path: Path):
    """Worst discrete water-balance violation along one simulated path.

    Recomputes both reservoir updates step by step from the recorded
    states, modes and delayed lookbacks; the result should sit at
    round-off level because levels carry no direct noise.
    """
    p = params
    grid = path.grid
    dt = grid.step
    res1 = 0.0
    res2 = 0.0
    for i in range(grid.n_steps):
        x = path.states[i]
        y = path.lookback(i)
        xi1, xi2 = mode_levels(int(path.modes[i]), p)
        z1_next = x[2] + dt * (x[0] - p.alpha1 * xi1 * (x[2] > 0.0))
        z2_next = x[3] + dt * (
            x[1] - p.alpha2 * xi2 * (x[3] > 0.0) + p.alpha1 * y[5] * (y[2] > 0.0)
        )
        res1 = max(res1, abs(float(path.states[i + 1][2] - z1_next)))
        res2 = max(res2, abs(float(path.states[i + 1][3] - z2_next)))
    return res1, res2


def _hydro_surface(params: HydroParams, n_paths: int, seed: int, k_max: Optional[int]) -> ValueSurface:
    problem, grid = build_hydro_problem(params)
    fm = FeatureMap(degree=2, cross_terms=False)
    return solve(
        problem,
        grid,
        feature_map=fm,
        k_max=k_max,
        n_paths=n_paths,
        seed=seed,
    )


def water_value_curve(
    params: HydroParams,
    levels,
    n_paths: int = 2000,
    seed: int = 7,
    k_max: Optional[int] = None,
):
    """Root value as a function of the initial upstream reservoir level.

    Every level is solved with the same seed, so the curves share their
    random numbers and the comparison is not washed out by Monte Carlo
    noise.  Returns (levels, values) as float arrays.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size < 2:
        raise ValueError("need at least two initial levels")
    values = np.empty(levels.size)
    for j, z in enumerate(levels):
        surf = _hydro_surface(replace(params, z1_0=float(z)), n_paths, seed, k_max)
        values[j] = surf.y0
    return levels, values


def reservoir_marginals(
    params: HydroParams,
    bump: float = 0.1,
    n_paths: int = 2000,
    seed: int = 7,
    k_max: Optional[int] = None,
) -> dict:
    """Value of one extra unit of water upstream versus downstream.

    All three solves share the seed.  Upstream water can run through both
    plants (and carries the larger terminal weight), so its marginal
    should come out at least as large as the downstream one.
    """
    if not bump > 0.0:
        raise ValueError("bump must be strictly positive")
    base = _hydro_surface(params, n_paths, seed, k_max).y0
    up = _hydro_surface(replace(params, z1_0=params.z1_0 + bump), n_paths, seed, k_max).y0
    down = _hydro_surface(replace(params, z2_0=params.z2_0 + bump), n_paths, seed, k_max).y0
    return {
        "base_value": base,
        "upstream_marginal": (up - base) / bump,
        "downstream_marginal": (down - base) / bump,
    }
