"""Shared builders for the test suite.

Kept as plain functions (imported with ``from conftest import ...``) so
every test stays an ordinary seeded script; no fixtures carry hidden
state between files.
"""

import dataclasses

import numpy as np

from switchmc.families import affine_problem, two_mode_flow_problem
from switchmc.snell import ScenarioTree


def random_scenario_tree(rng: np.random.Generator, max_levels: int = 5, dim: int = 1) -> ScenarioTree:
    """Random rooted tree with 1 to 3 children per node and exact child masses."""
    n_levels = int(rng.integers(2, max_levels + 1))
    parents = [-1]
    probs = [1.0]
    levels = [0]
    frontier = [0]
    for lev in range(1, n_levels + 1):
        nxt = []
        for node in frontier:
            n_kids = int(rng.integers(1, 4))
            raw = rng.uniform(0.2, 1.0, size=n_kids)
            w = raw / raw.sum()
            w[-1] = 1.0 - w[:-1].sum()
            for j in range(n_kids):
                parents.append(node)
                probs.append(float(w[j]))
                levels.append(lev)
                nxt.append(len(parents) - 1)
        frontier = nxt
    n = len(parents)
    states = rng.normal(size=(n, dim))
    times = np.linspace(0.0, 1.0, n_levels + 1)
    return ScenarioTree(
        parents=np.array(parents, dtype=np.int64),
        probs=np.array(probs, dtype=float),
        levels=np.array(levels, dtype=np.int64),
        states=states,
        times=times,
    )


def delay_instance(n_steps: int = 6):
    """Two-mode affine instance with a real delay term and cheap switches.

    Starts in the wrong mode on purpose, so the switch budget levels
    separate and the policy has something to do.
    """
    return affine_problem(
        n_modes=2,
        horizon=1.0,
        n_steps=n_steps,
        x0=0.5,
        drift_const=(0.3, -0.5),
        drift_delay=0.5,
        vol_const=0.4,
        delay_steps=2,
        run_const=(0.0, 0.4),
        run_lin=(0.3, -0.4),
        cost_table=[[0.0, 0.06], [0.05, 0.0]],
    )


def jumps_instance(n_steps: int = 6):
    """Two-mode affine instance with compensated jumps and cheap switches."""
    return affine_problem(
        n_modes=2,
        horizon=1.0,
        n_steps=n_steps,
        x0=0.8,
        drift_const=(0.3, -0.5),
        vol_const=0.35,
        jump_intensity=1.5,
        jump_scale=0.35,
        run_const=(0.0, 0.45),
        run_lin=(0.3, -0.35),
        cost_table=[[0.0, 0.06], [0.05, 0.0]],
    )


NAN_REWARD_CASES = ["running-nan-at-t0", "running-nan", "terminal-nan"]


def nan_reward_flow(case: str, n_steps: int = 4):
    """The two-mode flow instance with one reward made NaN, as named in ``NAN_REWARD_CASES``."""
    problem, grid = two_mode_flow_problem(n_steps=n_steps)
    running, terminal = problem.reward.running, problem.reward.terminal
    if case == "running-nan-at-t0":
        reward = dict(running=lambda t, x, b: running(t, x, b) + (np.nan if t == 0.0 else 0.0))
    elif case == "running-nan":
        reward = dict(running=lambda t, x, b: running(t, x, b) + np.nan)
    else:
        reward = dict(terminal=lambda x: terminal(x) + np.nan)
    return dataclasses.replace(problem, reward=dataclasses.replace(problem.reward, **reward)), grid
