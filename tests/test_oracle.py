"""Exact lattice oracle: node counts, backward induction, exhaustive enumeration."""

import dataclasses
import gc
import sys

import numpy as np
import pytest

from conftest import delay_instance, jumps_instance
from switchmc.families import (
    pure_cost_problem,
    random_tree_problem,
    two_mode_flow_problem,
)
from switchmc import oracle
from switchmc.oracle import build_lattice, enumerate_controls, exact_dp
from switchmc.sdde import euler_increment, sample_noise_batch
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


@pytest.mark.parametrize("branching", [2, 3])
@pytest.mark.parametrize("build", [delay_instance, jumps_instance], ids=["delay", "jumps"])
def test_lattice_layout_is_the_complete_tree_in_breadth_first_order(build, branching):
    inst = build_lattice(*build(n_steps=3), branching=branching)
    tree = inst.tree
    root_edges = [(inst.edge_dw[c], inst.edge_mark[c], tree.probs[c]) for c in tree.children[0]]
    b = len(root_edges)
    assert tree.n_nodes == (b**4 - 1) // (b - 1)
    for i in range(1, tree.n_nodes):
        assert tree.parents[i] == (i - 1) // b
        assert tree.levels[i] == tree.levels[tree.parents[i]] + 1
    for kids in tree.children:
        if kids:
            assert [(inst.edge_dw[c], inst.edge_mark[c], tree.probs[c]) for c in kids] == root_edges


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


# ``float.hex`` of exact_dp's root[k, b - 1] at k_max 4 and of the
# enumerated value, recorded before the oracle cached its model calls and
# batched its Euler steps: two acceptance instances (criterion 1's
# m2_delay and m3_jumps) and the packaged affine ones, whose drift
# depends on the mode.
ORACLE_PINS = {
    "m2_delay": (
        lambda: random_tree_problem(seed=102, n_modes=2, levels=5, delay_steps=2),
        [["0x1.f4c0389a59373p-1", "0x1.003e6014f2209p+0"]] * 5,
        "0x1.f4c0389a59373p-1",
    ),
    "m3_jumps": (
        lambda: random_tree_problem(seed=106, n_modes=3, levels=3, with_jumps=True),
        [["-0x1.8369bef32b033p-4", "-0x1.15a0e5e7d1991p+0", "-0x1.62d3f4557b04ap-1"]]
        + [["-0x1.8369bef32b033p-4", "-0x1.f8404efffe7dep-3", "-0x1.7e705fa7331a8p-3"]] * 4,
        "-0x1.8369bef32b033p-4",
    ),
    "affine_delay": (
        lambda: delay_instance(n_steps=5),
        [["0x1.bbb83cf2cf95ep-3", "0x1.ec56d5cfaacdcp-3"]]
        + [["0x1.c67c710e130ecp-3", "0x1.ffba4a8d75c58p-3"]] * 4,
        "0x1.c67c710e130ecp-3",
    ),
    "affine_jumps": (
        lambda: jumps_instance(n_steps=4),
        [["0x1.1851eb851eb85p-2", "0x1.e28f5c28f5c29p-3"]]
        + [["0x1.1af851eb851ecp-2", "0x1.e28f5c28f5c29p-3"]] * 4,
        "0x1.1af851eb851ecp-2",
    ),
}


@pytest.mark.parametrize("name", list(ORACLE_PINS))
def test_oracle_values_match_their_pins(name):
    build, roots, enumerated = ORACLE_PINS[name]
    inst = build_lattice(*build(), branching=2)
    assert [[v.hex() for v in row] for row in exact_dp(inst, k_max=4).root.tolist()] == roots
    assert enumerate_controls(inst, k_max=4).value.hex() == enumerated


def _counting(problem):
    """``problem`` with every reward, reset and cost call logged by its argument."""
    calls = {"terminal": [], "running": [], "reset": [], "cost": []}
    reward, jumps, costs = problem.reward, problem.jump_maps, problem.costs

    def terminal(x):
        calls["terminal"].append(tuple(x[0]))
        return reward.terminal(x)

    def running(t, x, mode):
        calls["running"].append((t, tuple(x[0]), mode))
        return reward.running(t, x, mode)

    def apply(b, b2, t, x):
        calls["reset"].append((b, b2, t, tuple(x[0])))
        return jumps.apply(b, b2, t, x)

    def cost(b, b2, t):
        calls["cost"].append((b, b2, t))
        return costs.cost(b, b2, t)

    return dataclasses.replace(
        problem,
        reward=dataclasses.replace(reward, terminal=terminal, running=running),
        jump_maps=dataclasses.replace(jumps, apply=apply),
        costs=dataclasses.replace(costs, cost=cost),
    ), calls


def test_each_model_call_is_made_once_per_oracle_call():
    problem, grid = delay_instance(n_steps=5)
    counted, calls = _counting(problem)
    inst = build_lattice(counted, grid, branching=2)
    for run in (lambda: exact_dp(inst, k_max=3), lambda: enumerate_controls(inst, k_max=3)):
        seen = {}
        for _ in range(2):
            for log in calls.values():
                log.clear()
            run()
            for part, log in calls.items():
                assert log, part
                assert len(set(log)) == len(log), part
                # A second call evaluates everything anew: no cache outlives a call.
                assert seen.setdefault(part, sorted(log)) == sorted(log), part


def test_oracle_calls_leave_no_garbage_cycles(monkeypatch):
    problem, grid = random_tree_problem(seed=105, n_modes=3, levels=3, delay_steps=1)
    inst = build_lattice(problem, grid, branching=2)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        exact_dp(inst, k_max=4, with_table=False)
        assert gc.collect() == 0
        exact_dp(inst, k_max=2)
        assert gc.collect() == 0
        enumerate_controls(inst, k_max=4)
        assert gc.collect() == 0
        monkeypatch.setattr(oracle, "MAX_CONTEXTS", 50)
        try:
            enumerate_controls(inst, k_max=4)
        except RuntimeError:
            pass
        else:
            pytest.fail("the enumeration should give up")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("build", [delay_instance, jumps_instance], ids=["delay", "jumps"])
def test_a_nodes_batched_children_equal_one_row_steps(build):
    problem, grid = build(n_steps=3)
    inst = build_lattice(problem, grid, branching=2)
    spec = problem.dynamics
    stepper = oracle._EdgeStepper.of(inst)
    for node in range(inst.tree.n_nodes):
        kids = inst.tree.children[node]
        if not kids:
            continue
        window = inst.windows[node]
        level = int(inst.tree.levels[node])
        for mode in problem.modes.labels:
            batched = stepper.children(level, window, mode)
            assert len(batched) == len(kids)
            for child, child_window in zip(kids, batched):
                counts = np.zeros((1, spec.n_marks))
                if inst.edge_mark[child] >= 0:
                    counts[0, inst.edge_mark[child]] = 1.0
                x, y = np.array([window[-1]]), np.array([window[0]])
                dw = np.array([[inst.edge_dw[child]]])
                one = x + euler_increment(spec, grid.step, grid.times[level], x, y, mode, dw, counts)
                assert child_window[:-1] == window[1:]
                assert [v.hex() for v in child_window[-1]] == [v.hex() for v in one[0].tolist()]
                if mode == problem.modes.initial:
                    assert child_window == inst.windows[child]
