"""Exact lattice oracle: node counts, backward induction, exhaustive enumeration."""

import dataclasses
import sys

import numpy as np
import pytest

from switchmc.families import (
    pure_cost_problem,
    random_tree_problem,
    two_mode_flow_problem,
)
from switchmc import oracle
from switchmc.oracle import build_lattice, enumerate_controls, exact_dp
from switchmc.sdde import sample_noise, sample_noise_batch
from switchmc.solver import solve


def test_lattice_node_count_branching_two():
    problem, grid = two_mode_flow_problem(n_steps=4)
    inst = build_lattice(problem, grid, branching=2)
    assert inst.tree.n_nodes == 31
    assert inst.tree.n_levels == 4
    assert np.all(inst.edge_mark == -1)


def test_lattice_with_jump_branch():
    problem, grid = random_tree_problem(seed=0, levels=3, with_jumps=True)
    inst = build_lattice(problem, grid, branching=2)
    assert problem.dynamics.jump_intensity > 0.0
    inner = [kids for kids in inst.tree.children if kids]
    assert len(inner) == 1 + 3 + 9
    for kids in inner:
        assert sorted(inst.edge_mark[kids]) == [-1, -1, 0]
    assert inst.tree.n_nodes == 1 + 3 + 9 + 27
    probs = inst.tree.probs
    kids = inst.tree.children[0]
    assert np.isclose(probs[kids].sum(), 1.0)


def test_lattice_rejects_heavy_jump_rate():
    problem, grid = random_tree_problem(seed=0, levels=3, with_jumps=True)
    heavy = problem.dynamics.__class__(
        **{**problem.dynamics.__dict__, "jump_intensity": 4.0}
    )
    fat = problem.__class__(**{**problem.__dict__, "dynamics": heavy})
    with pytest.raises(ValueError):
        build_lattice(fat, grid, branching=2)


@pytest.mark.parametrize("case", ["brownian_dim_2", "jump_rate_over_one"])
def test_sampler_and_lattice_reject_the_same_inputs(case):
    # Both draw from one quantized law, so they must refuse the same
    # specs with the same error, even for an empty batch.
    if case == "brownian_dim_2":
        problem, grid = two_mode_flow_problem(n_steps=4)
        changes = {"brownian_dim": 2, "diffusion": lambda t, x, y, mode: np.zeros(x.shape + (2,))}
    else:
        problem, grid = random_tree_problem(seed=0, levels=3, with_jumps=True)
        changes = {"jump_intensity": 4.0}
    bad = dataclasses.replace(problem, dynamics=dataclasses.replace(problem.dynamics, **changes))
    calls = [
        lambda: sample_noise_batch(bad.dynamics, grid, seed=0, n_paths=0, quantization=2),
        lambda: sample_noise_batch(bad.dynamics, grid, seed=0, n_paths=5, quantization=3),
        lambda: sample_noise(bad.dynamics, grid, seed=0, quantization=2),
        lambda: solve(bad, grid, n_paths=50, seed=0, quantization=2),
        lambda: build_lattice(bad, grid, branching=2),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_node_budget_guard():
    problem, grid = two_mode_flow_problem(n_steps=16)
    with pytest.raises(ValueError):
        build_lattice(problem, grid, branching=2)


def test_two_mode_exact_values():
    problem, grid = two_mode_flow_problem(n_steps=4)
    inst = build_lattice(problem, grid, branching=2)
    vals = exact_dp(inst, k_max=3)
    assert vals.root_value(0, 1) == pytest.approx(0.0, abs=1e-12)
    for k in (1, 2, 3):
        assert vals.root_value(k, 1) == pytest.approx(0.7, abs=1e-12)
    assert vals.root_value(0, 2) == pytest.approx(1.0, abs=1e-12)


def test_pure_cost_never_switches():
    problem, grid = pure_cost_problem(n_modes=3, cost=0.2, n_steps=4)
    inst = build_lattice(problem, grid, branching=2)
    vals = exact_dp(inst, k_max=4)
    for k in range(5):
        for b in (1, 2, 3):
            assert vals.root_value(k, b) == pytest.approx(0.0, abs=1e-12)
    en = enumerate_controls(inst, k_max=2)
    assert en.value == pytest.approx(0.0, abs=1e-12)
    assert en.root_chain == ()


def test_dp_matches_enumeration_small_instances():
    for seed, m, levels, delay, jumps in [(11, 2, 4, 0, False), (12, 3, 3, 1, False), (13, 2, 3, 0, True)]:
        problem, grid = random_tree_problem(
            seed=seed, n_modes=m, levels=levels, delay_steps=delay, with_jumps=jumps
        )
        inst = build_lattice(problem, grid, branching=2)
        vals = exact_dp(inst, k_max=3)
        en = enumerate_controls(inst, k_max=3)
        assert abs(vals.root_value(3, 1) - en.value) <= 1e-12
        assert en.contexts > 0


def test_dp_monotone_in_budget():
    rng_seeds = [21, 22, 23, 24]
    for seed in rng_seeds:
        problem, grid = random_tree_problem(seed=seed, n_modes=2, levels=4)
        inst = build_lattice(problem, grid, branching=2)
        vals = exact_dp(inst, k_max=5)
        roots = [vals.root_value(k, 1) for k in range(6)]
        for a, b in zip(roots[:-1], roots[1:]):
            assert b >= a - 1e-12


def test_branching_three_lattice():
    problem, grid = random_tree_problem(seed=31, n_modes=2, levels=3)
    inst2 = build_lattice(problem, grid, branching=2)
    inst3 = build_lattice(problem, grid, branching=3)
    assert inst3.tree.n_nodes == 1 + 3 + 9 + 27
    v2 = exact_dp(inst2, k_max=2).root_value(2, 1)
    v3 = exact_dp(inst3, k_max=2).root_value(2, 1)
    assert abs(v2 - v3) < 0.2


def test_delay_windows_respected():
    problem, grid = random_tree_problem(seed=41, n_modes=2, levels=4, delay_steps=2)
    inst = build_lattice(problem, grid, branching=2)
    vals = exact_dp(inst, k_max=2)
    en = enumerate_controls(inst, k_max=2)
    assert abs(vals.root_value(2, 1) - en.value) <= 1e-12


def test_oracle_table_values_finite():
    problem, grid = random_tree_problem(seed=51, n_modes=2, levels=3)
    inst = build_lattice(problem, grid, branching=2)
    vals = exact_dp(inst, k_max=2, with_table=True)
    assert len(vals.table) > 0
    assert all(np.isfinite(v) for v in vals.table.values())


def test_oracle_restores_the_recursion_limit(monkeypatch):
    # Both recursions need more room than the default limit; they must
    # hand it back, also when the enumeration gives up.
    problem, grid = random_tree_problem(seed=0, levels=3)
    inst = build_lattice(problem, grid, branching=2)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        exact = exact_dp(inst, k_max=2).root_value(2, problem.modes.initial)
        assert sys.getrecursionlimit() == 1000
        assert enumerate_controls(inst, k_max=2).value == pytest.approx(exact, abs=1e-12)
        assert sys.getrecursionlimit() == 1000
        monkeypatch.setattr(oracle, "MAX_CONTEXTS", 5)
        with pytest.raises(RuntimeError, match="contexts"):
            enumerate_controls(inst, k_max=2)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)
