"""Regression solver: feature maps, fitting, budget iteration, policy, certification."""

import dataclasses
import hashlib
import io
import json
import os
import warnings

import numpy as np
import pytest

from conftest import delay_instance, jumps_instance
from switchmc.controls import JumpMapFamily, SwitchingProblem, validate_target_only
from switchmc.families import pure_cost_problem, two_mode_flow_problem
from switchmc.hydro import HydroParams, build_hydro_problem
from switchmc.oracle import build_lattice, exact_dp
from switchmc import solver as solver_module
from switchmc.sdde import DivergedError, _lookback
from switchmc.solver import (
    SE_BLOCKS,
    FeatureMap,
    Policy,
    ValueSurface,
    certify,
    diagnostics_to_json,
    extract_policy,
    solve,
    surface_to_csv,
    _backward_pass,
    _fit,
    _fit_rows,
    _level_values,
    _randomized_ensemble,
    _switch_costs,
)


def test_feature_map_design_shapes():
    fm = FeatureMap(degree=2, cross_terms=True)
    x = np.random.default_rng(0).normal(size=(40, 2))
    a = fm.design(x)
    assert a.shape == (40, fm.n_features(2, use_delay=False))
    assert np.all(a[:, 0] == 1.0)
    y = np.random.default_rng(1).normal(size=(40, 2))
    b = fm.design(x, y)
    assert b.shape == (40, fm.n_features(2, use_delay=True))
    assert b.shape[1] > a.shape[1]
    fm3 = FeatureMap(degree=3, cross_terms=False)
    c = fm3.design(x)
    assert c.shape == (40, fm3.n_features(2, use_delay=False))
    # Column by column, the columns are the same numbers bit for bit.
    for fmap in (fm, fm3, FeatureMap(degree=3)):
        v = np.concatenate([x, y], axis=1)
        cols = [np.ones(40)] + [v[:, j] for j in range(4)]
        cols += [v[:, j] ** deg for deg in range(2, fmap.degree + 1) for j in range(4)]
        if fmap.cross_terms:
            cols += [v[:, j] * v[:, l] for j in range(4) for l in range(j + 1, 4)]
        assert np.array_equal(fmap.design(x, y), np.column_stack(cols))


def test_fit_recovers_linear_model_and_prunes_constants():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 1))
    design = np.column_stack([np.ones(200), x[:, 0], np.full(200, 3.7)])
    target = 2.0 + 0.5 * x[:, 0]
    coef, info = _fit(design, target)
    assert coef[2] == 0.0
    assert np.allclose(design @ coef, target, atol=1e-10)
    assert info.resid_std < 1e-10


@pytest.mark.parametrize("rows", [200, 9])
def test_fit_two_dimensional_target_matches_column_fits(rows):
    # 9 rows against 11 features is the shape of a standard-error block fit.
    rng = np.random.default_rng(3)
    design = np.column_stack([np.ones(rows), rng.normal(size=(rows, 9)), np.full(rows, 0.4)])
    target = rng.normal(size=(rows, 5)) + design[:, 1:2]
    coef, info = _fit(design, target)
    assert coef.shape == (11, 5) and info.resid_std.shape == (5,)
    for j in range(5):
        coef_j, info_j = _fit(design, target[:, j])
        assert np.allclose(coef[:, j], coef_j, rtol=0.0, atol=1e-12)
        assert abs(info.resid_std[j] - info_j.resid_std) <= 1e-12
        assert (info.rank, info.n_features, info.used_ridge) == (
            info_j.rank, info_j.n_features, info_j.used_ridge
        )
    assert np.all(coef[10] == 0.0)


# Values recorded with the level-by-level solver that the one-kernel
# pass replaced.  The coefficients are pinned through the CSV's digest.
PINNED = {
    "hydro": dict(
        y0=2.983783819612753, y0_se=0.03431010765284233, lower_bound=1.1177012161567832,
        k_levels=8, converged=False,
        histogram={6: 2, 7: 4, 8: 23, 9: 29, 10: 41, 11: 23, 12: 2, 13: 1, 14: 35, 15: 111,
                   16: 330, 17: 304, 18: 73, 19: 17, 20: 5},
        csv_sha256="4b843235d5e9ed5fa13683ef703b5970ae0898596ed03a31ffb8bd69026f9372",
    ),
    "flow": dict(
        y0=0.7, y0_se=7.799805020102231e-17, lower_bound=0.6999999999999998,
        k_levels=2, converged=True, histogram={1: 2000},
        csv_sha256="0667cf9dac5ee05c547228c012f15c5ffcd7508be7417eb614556ab45490e051",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_solve_and_certify(name):
    if name == "hydro":
        problem, grid = build_hydro_problem(HydroParams(n_steps=8))
        fm, n_paths, seed, certify_paths = FeatureMap(cross_terms=False), 300, 3, 1000
    else:
        problem, grid = two_mode_flow_problem(n_steps=8)
        fm, n_paths, seed, certify_paths = None, 2000, 0, 2000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, feature_map=fm, n_paths=n_paths, seed=seed)
    report = certify(extract_policy(surf), n_paths=certify_paths, seed=seed + 1)
    buf = io.StringIO()
    surface_to_csv(surf, buf)
    pin = PINNED[name]
    assert surf.y0 == pytest.approx(pin["y0"], rel=1e-9, abs=0.0)
    assert surf.y0_se == pytest.approx(pin["y0_se"], rel=1e-9, abs=1e-15)
    assert report.lower_bound == pytest.approx(pin["lower_bound"], rel=1e-9, abs=0.0)
    assert surf.k_levels == pin["k_levels"]
    assert surf.diagnostics.converged == pin["converged"]
    assert report.switch_histogram == pin["histogram"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == pin["csv_sha256"]


def _grouped_and_per_block_passes(problem, grid, fm, n_paths, seed, quantization, levels):
    """Step records of the grouped standard-error pass and of the per-block loop it replaced."""
    pre, post, mode_of_step, _ = _randomized_ensemble(
        problem, grid, n_paths, seed, quantization, 0.15
    )
    n = grid.n_steps
    labels = problem.modes.labels
    g_pre = np.asarray(problem.reward.terminal(pre[:, n]), dtype=float)
    cost = np.stack([_switch_costs(problem, t) for t in grid.times[:n]])
    edges = np.linspace(0, n_paths, SE_BLOCKS + 1).astype(int)
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    grouped = []
    ens = (pre, post, _fit_rows(mode_of_step, labels, blocks), g_pre)
    _backward_pass(problem, grid, fm, ens, blocks, levels, None, cost, grouped.append)
    # The reference copies each block's rows, maps its fit rows and runs
    # one pass per block, as solve did before the blocks became groups.
    per_block = []
    for blk in blocks:
        rows = np.arange(blk.start, blk.stop)
        fit_rows = {
            (0, b, i): np.flatnonzero(mode_of_step[rows, i] == b) for b in labels for i in range(n)
        }
        steps = []
        ens_blk = (pre[rows], post[rows], fit_rows, g_pre[rows])
        _backward_pass(problem, grid, fm, ens_blk, [slice(0, rows.size)], levels, None, cost,
                       steps.append)
        per_block.append(steps)
    return blocks, grouped, per_block


@pytest.mark.parametrize("name", ["hydro", "delay", "jumps"])
def test_grouped_pass_equals_the_per_block_loop(name):
    if name == "hydro":
        problem, grid = build_hydro_problem(HydroParams(n_steps=8))
        args = (FeatureMap(cross_terms=False), 300, 3, None, 9)
    elif name == "delay":
        problem, grid = delay_instance()
        args = (FeatureMap(degree=3), 800, 5, 2, 4)
    else:
        problem, grid = jumps_instance()
        args = (FeatureMap(), 800, 6, 2, 4)
    blocks, grouped, per_block = _grouped_and_per_block_passes(problem, grid, *args)
    assert any(step.n_empty for step in grouped) == (name == "hydro")
    for g, (blk, steps) in enumerate(zip(blocks, per_block)):
        # The block roots solve reads.
        assert np.array_equal(grouped[-1].tab[:, :, blk.start], steps[-1].tab[:, :, 0])
        for mine, ref in zip(grouped, steps):
            assert mine.i == ref.i
            assert np.array_equal(mine.tab[:, :, blk], ref.tab)
            assert np.array_equal(mine.moved[:, :, blk], ref.moved)
            assert np.array_equal(mine.coef[g], ref.coef[0])
            assert np.array_equal(mine.target_range[g], ref.target_range[0])


@pytest.mark.parametrize("name", ["hydro", "identity"])
def test_level_values_builds_each_distinct_design_once(name, monkeypatch):
    # Hydro's reset writes only the upstream turbine level, so its six
    # targets share three post-switch states; identity resets share the
    # pre-switch design.
    if name == "hydro":
        problem, grid = build_hydro_problem(HydroParams(n_steps=8))
        fm, extra = FeatureMap(cross_terms=False), 3
    else:
        problem, grid = delay_instance()
        fm, extra = FeatureMap(), 0
    pre, post, _, _ = _randomized_ensemble(problem, grid, 200, 1, None, 0.15)
    i = 3
    x, yv = pre[:, i], _lookback(post, problem.dynamics.presegment(grid), i)
    A = fm.design(x, yv)
    m, p = problem.modes.n_modes, A.shape[1]
    args = (np.zeros((1, m, 2, p)), np.zeros((1, m, 2, 2)), None,
            _switch_costs(problem, grid.times[i]))
    built = []
    design = FeatureMap.design

    def counting(self, *args):
        built.append(args[0])
        return design(self, *args)

    monkeypatch.setattr(FeatureMap, "design", counting)
    for A_in, moved_only, want in ((A, False, extra), (A, True, extra), (None, False, extra + 1)):
        built.clear()
        _level_values(problem, fm, grid.times[i], grid.step, x, yv, A_in, *args,
                      moved_only=moved_only)
        assert len(built) == want


def _forcing_fork(monkeypatch, fork):
    """Force the solver's fork predicate; returns the children the solves start."""
    monkeypatch.setattr(solver_module, "_may_fork", lambda: fork)
    children = []

    class Spy(solver_module._Child):
        def __init__(self, *args):
            super().__init__(*args)
            self.used = False
            children.append(self)

        def result(self):
            self.used = True
            return super().result()

    monkeypatch.setattr(solver_module, "_Child", Spy)
    return children


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_running(problem, running):
    return dataclasses.replace(problem, reward=dataclasses.replace(problem.reward, running=running))


def test_level_values_computes_each_running_reward_once(monkeypatch):
    # Identity resets leave the states unchanged, so each mode's running
    # reward at the moved states is the pre-switch one.
    _forcing_fork(monkeypatch, False)
    problem, grid = delay_instance()
    calls = []
    running = problem.reward.running

    def counting(t, x, b):
        calls[-1].append(b)
        return running(t, x, b)

    level_values = solver_module._level_values

    def per_call(*args, **kwargs):
        calls.append([])
        return level_values(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_level_values", per_call)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(_with_running(problem, counting), grid, k_max=3, n_paths=800, seed=5,
                     quantization=2)
    assert surf.k_levels == 3
    # 4 main-pass levels and one block pass, over 6 steps, once per mode.
    assert sum(map(len, calls)) == (4 + 1) * 6 * 2 == 60
    assert all(sorted(modes) == [1, 2] for modes in calls)


def _pinned_problem(name):
    if name == "hydro":
        problem, grid = build_hydro_problem(HydroParams(n_steps=8))
        return problem, grid, dict(feature_map=FeatureMap(cross_terms=False), n_paths=300, seed=3)
    problem, grid = two_mode_flow_problem(n_steps=8)
    return problem, grid, dict(n_paths=2000, seed=0)


@pytest.mark.parametrize("name", ["hydro", "flow"])
def test_forked_blocks_give_the_inline_outputs(name, monkeypatch):
    # Hydro stops unconverged at k_max, so its block roots come from the
    # child; flow converges early, so its child is killed.
    problem, grid, kwargs = _pinned_problem(name)
    outputs = []
    for fork in (True, False):
        children = _forcing_fork(monkeypatch, fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            surf = solve(problem, grid, **kwargs)
        assert [child.used for child in children] == ([name == "hydro"] if fork else [])
        _assert_no_child_left()
        buf = io.StringIO()
        surface_to_csv(surf, buf)
        outputs.append((surf.root_se, surf.y0_se, diagnostics_to_json(surf.diagnostics),
                        buf.getvalue(), [(w.category, str(w.message)) for w in caught]))
    assert outputs[0] == outputs[1]


class BlockPassError(Exception):
    pass


@pytest.mark.parametrize("fork", [True, False])
def test_block_pass_exception_reaches_the_caller(fork, monkeypatch):
    children = _forcing_fork(monkeypatch, fork)
    backward_pass = solver_module._backward_pass
    raised_here = []  # a forked child's appends stay in the child

    def failing(problem, grid, fm, ens, groups, *args):
        if len(groups) > 1:
            raised_here.append(True)
            raise BlockPassError(f"no fit on {len(groups)} blocks")
        return backward_pass(problem, grid, fm, ens, groups, *args)

    monkeypatch.setattr(solver_module, "_backward_pass", failing)
    problem, grid, kwargs = _pinned_problem("hydro")
    with pytest.raises(BlockPassError) as info:
        solve(problem, grid, **kwargs)
    assert str(info.value) == "no fit on 8 blocks"
    assert (len(children), len(raised_here)) == ((1, 0) if fork else (0, 1))
    _assert_no_child_left()


class TwoArgumentError(Exception):
    def __init__(self, what, n_blocks):
        super().__init__(f"{what} on {n_blocks} blocks")


def test_an_exception_that_does_not_unpickle_is_raised_by_the_inline_rerun(monkeypatch):
    # It pickles in the child, but unpickling calls TwoArgumentError(message)
    # and fails; the parent then reruns the block pass and raises it itself.
    children = _forcing_fork(monkeypatch, True)
    backward_pass = solver_module._backward_pass
    raised_here = []

    def failing(problem, grid, fm, ens, groups, *args):
        if len(groups) > 1:
            raised_here.append(True)
            raise TwoArgumentError("no fit", len(groups))
        return backward_pass(problem, grid, fm, ens, groups, *args)

    monkeypatch.setattr(solver_module, "_backward_pass", failing)
    problem, grid, kwargs = _pinned_problem("hydro")
    with pytest.raises(TwoArgumentError) as info:
        solve(problem, grid, **kwargs)
    assert str(info.value) == "no fit on 8 blocks"
    assert [child.used for child in children] == [True] and raised_here == [True]
    _assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_raising_main_pass_reaps_the_child(error, monkeypatch):
    children = _forcing_fork(monkeypatch, True)
    backward_pass = solver_module._backward_pass

    def failing(problem, grid, fm, ens, groups, n_levels, below, *args):
        if below is not None:
            raise error("main pass failed at level 1")
        return backward_pass(problem, grid, fm, ens, groups, n_levels, below, *args)

    monkeypatch.setattr(solver_module, "_backward_pass", failing)
    problem, grid, kwargs = _pinned_problem("hydro")
    with pytest.raises(error, match="at level 1"):
        solve(problem, grid, **kwargs)
    assert len(children) == 1 and not children[0].used
    _assert_no_child_left()


@pytest.mark.parametrize("action", ["always", "default"])
def test_problem_warnings_issued_as_often_as_inline(action, monkeypatch):
    # Under "default" each warning location shows once, so the child's
    # warnings must meet the registry the main pass already filled.
    problem, grid, kwargs = _pinned_problem("hydro")
    running = problem.reward.running

    def warning(t, x, b):
        warnings.warn(f"running reward of mode {b}", UserWarning)
        return running(t, x, b)

    problem = _with_running(problem, warning)
    seen = []
    for fork in (True, False):
        children = _forcing_fork(monkeypatch, fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            solve(problem, grid, **kwargs)
        assert [child.used for child in children] == ([True] if fork else [])
        seen.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert seen[0] == seen[1]
    # One per mode and the unsettled-family warning, or one per call.
    n_shown = problem.modes.n_modes + 1
    assert len(seen[0]) == n_shown if action == "default" else len(seen[0]) > 100 * n_shown


def test_two_mode_deterministic_exact():
    problem, grid = two_mode_flow_problem(n_steps=8)
    surf = solve(problem, grid, n_paths=2000, seed=0)
    assert abs(surf.y0 - 0.7) <= 1e-9
    assert surf.diagnostics.converged
    assert surf.y0_se <= 1e-9
    report = certify(extract_policy(surf), n_paths=2000, seed=1)
    assert abs(report.lower_bound - 0.7) <= 1e-9
    assert abs(report.gap) <= 1e-9
    assert report.max_switches == 1
    assert report.terminal_switches == 0


def test_two_mode_quantized_noise_still_exact():
    problem, grid = two_mode_flow_problem(n_steps=8)
    for q in (2, 3):
        surf = solve(problem, grid, n_paths=500, seed=0, quantization=q)
        assert abs(surf.y0 - 0.7) <= 1e-9


def test_pure_cost_never_switches():
    problem, grid = pure_cost_problem(n_modes=3, cost=0.2)
    surf = solve(problem, grid, n_paths=1000, seed=0)
    assert abs(surf.y0) <= 1e-9
    report = certify(extract_policy(surf), n_paths=1000, seed=3)
    assert abs(report.lower_bound) <= 1e-9
    assert report.max_switches == 0


def test_solver_matches_oracle_on_delay_instance():
    problem, grid = delay_instance()
    inst = build_lattice(problem, grid, branching=2)
    exact = exact_dp(inst, k_max=3).root_value(3, 1)
    surf = solve(
        problem,
        grid,
        feature_map=FeatureMap(degree=3),
        k_max=3,
        n_paths=8000,
        seed=5,
        quantization=2,
    )
    tol = 3.0 * surf.y0_se + 0.02 * (1.0 + abs(exact))
    assert abs(surf.y0 - exact) <= tol


def test_budget_levels_monotone_within_noise():
    problem, grid = jumps_instance()
    surf = solve(problem, grid, k_max=3, n_paths=6000, seed=6, quantization=2)
    b0 = problem.modes.initial
    ks = sorted(k for (k, b) in surf.root_value if b == b0)
    for k in ks[:-1]:
        lo = surf.root_value[(k, b0)]
        hi = surf.root_value[(k + 1, b0)]
        slack = 3.0 * float(np.hypot(surf.root_se[(k, b0)], surf.root_se[(k + 1, b0)]))
        assert hi >= lo - slack - 1e-12


def test_unconverged_surface_warns():
    problem, grid = two_mode_flow_problem(n_steps=8)
    with pytest.warns(RuntimeWarning):
        surf = solve(problem, grid, n_paths=400, seed=0, k_max=1)
    assert not surf.diagnostics.converged


def test_input_validation():
    problem, grid = two_mode_flow_problem(n_steps=4)
    with pytest.raises(ValueError):
        solve(problem, grid, n_paths=1)
    with pytest.raises(ValueError):
        solve(problem, grid, n_paths=100, k_max=-1)


def test_source_dependent_resets_rejected():
    # Undeclared, and declared target-only although the reset reads the
    # source: the solver must refuse both.
    base, grid = pure_cost_problem(n_modes=3)
    for declared, message in ((False, "needs target-only"), (True, "declared target_only")):
        twisted = SwitchingProblem(
            dynamics=base.dynamics,
            modes=base.modes,
            costs=base.costs,
            jump_maps=JumpMapFamily(apply=lambda bf, bt, t, x: x + float(bf), target_only=declared),
            reward=base.reward,
        )
        with pytest.raises(ValueError, match=message):
            solve(twisted, grid, n_paths=100)
    report = validate_target_only(twisted.jump_maps, twisted.modes, np.zeros((4, 1)), [0.0, 0.5])
    assert not report.ok
    assert report.witness == (2, 3, 1, 0.0)


def test_certify_guards():
    problem, grid = two_mode_flow_problem(n_steps=4)
    surf = solve(problem, grid, n_paths=400, seed=9)
    policy = extract_policy(surf)
    with pytest.raises(ValueError):
        certify(policy, n_paths=400, seed=9)
    with pytest.raises(ValueError):
        certify(policy, n_paths=1, seed=10)


def test_certify_raises_when_the_state_diverges():
    problem, grid = two_mode_flow_problem(n_steps=4)
    surf = solve(problem, grid, n_paths=400, seed=9)
    exploding = dataclasses.replace(
        problem.dynamics, drift=lambda t, x, y, mode: np.full_like(x, 1e13)
    )
    surf = dataclasses.replace(surf, problem=dataclasses.replace(problem, dynamics=exploding))
    with pytest.raises(DivergedError) as err:
        certify(extract_policy(surf), n_paths=50, seed=10)
    assert err.value.step == 1


def test_empty_mode_subset_warns_with_its_count():
    problem, grid = pure_cost_problem(n_modes=6)
    with pytest.warns(RuntimeWarning, match="regressions had no training path") as caught:
        surf = solve(problem, grid, n_paths=4, seed=0, k_max=1)
    count = surf.diagnostics.empty_subset_fits
    assert count > 0
    assert any(str(w.message).startswith(f"{count} regressions") for w in caught)


def test_history_reward_rejected_where_ignored():
    base, grid = two_mode_flow_problem(n_steps=4)
    problem = dataclasses.replace(
        base, history_reward=lambda times, modes, states: np.zeros(states.shape[0])
    )
    with pytest.raises(ValueError, match="history_reward"):
        solve(problem, grid, n_paths=100)
    surf = dataclasses.replace(solve(base, grid, n_paths=100, seed=0), problem=problem)
    with pytest.raises(ValueError, match="history_reward"):
        certify(extract_policy(surf), n_paths=100, seed=1)
    with pytest.raises(ValueError, match="history_reward"):
        exact_dp(build_lattice(problem, grid, branching=2), k_max=2)


def test_extract_policy_needs_mode_count_budget():
    problem, grid = pure_cost_problem(n_modes=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        surf = solve(problem, grid, n_paths=300, seed=0, k_max=2)
    with pytest.raises(ValueError):
        extract_policy(surf)


def test_surface_evaluation_api():
    problem, grid = two_mode_flow_problem(n_steps=8)
    surf = solve(problem, grid, n_paths=500, seed=0)
    x = np.zeros((5, 1))
    y = np.zeros((5, 1))
    k = surf.k_levels
    v = surf.value_at(k, 1, 3, x, y)
    assert v.shape == (5,)
    assert np.allclose(v, 0.625 - 0.3)
    vT = surf.value_at(k, 2, grid.n_steps, x, y)
    assert np.allclose(vT, 0.0)
    c = surf.continuation_at(k, 2, 3, x, y)
    assert np.allclose(c, 0.625)
    with pytest.raises(ValueError):
        surf._tab_eval(grid.n_steps, x, y)


def test_policy_decisions_batch_and_single():
    problem, grid = two_mode_flow_problem(n_steps=8)
    surf = solve(problem, grid, n_paths=500, seed=0)
    policy = extract_policy(surf)
    x = np.zeros((3, 1))
    first = policy.decide_batch(0, 1, x, x)
    assert np.all(first == 2)
    hold = policy.decide_batch(2, 2, x, x)
    assert np.all(hold == 0)
    assert policy.decide(0, 1, np.zeros(1), np.zeros(1)) == 2
    assert policy.decide(grid.n_steps, 1, np.zeros(1), np.zeros(1)) == 0


def _full_table_decide(surf, i, b, x, y):
    """The policy's decision from ``continuation_at`` and both value tables."""
    k = surf.k_levels
    cont = surf.continuation_at(k, b, i, x, y)
    moved = surf._tab_eval(i, x, y, k_hi=k - 1)[1]
    out = np.zeros(x.shape[0], dtype=np.int64)
    best = np.full(x.shape[0], -np.inf)
    for b2 in surf.problem.modes.others(b):
        cand = moved[k - 1, b2 - 1] - surf.switch_cost[i, b - 1, b2 - 1]
        better = cand > best
        out = np.where(better, b2, out)
        best = np.where(better, cand, best)
    out[~(best > cont)] = 0
    return out, cont, moved


@pytest.mark.parametrize("name", ["hydro", "flow"])
def test_policy_values_equal_the_full_table_formula(name, monkeypatch):
    # Hydro has target-only resets, the flow instance identity resets.
    if name == "hydro":
        problem, grid = build_hydro_problem(HydroParams(n_steps=8))
        fm = FeatureMap(cross_terms=False)
    else:
        problem, grid = two_mode_flow_problem(n_steps=8)
        fm = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, feature_map=fm, n_paths=300, seed=3)
    policy = extract_policy(surf)
    pre, post, _, d = _randomized_ensemble(problem, grid, 300, 11, None, 0.15)
    pres = problem.dynamics.presegment(grid)
    seen = {}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            seen[key] = fn(*args, **kwargs)
            return seen[key]
        return wrapped

    monkeypatch.setattr(ValueSurface, "_tab_eval", spy("tables", ValueSurface._tab_eval))
    monkeypatch.setattr(ValueSurface, "_continuation", spy("cont", ValueSurface._continuation))
    rng = np.random.default_rng(5)
    switched = 0
    for i in range(0, grid.n_steps, 3):
        for b in problem.modes.labels:
            for size in (1, 37, 300):
                rows = rng.choice(300, size=size, replace=False)
                x = pre[rows, i]
                if d == 0:
                    y = x
                elif i >= d:
                    y = post[rows, i - d]
                else:
                    y = np.broadcast_to(pres[i], x.shape)
                targets = policy.decide_batch(i, b, x, y)
                cont, moved = seen["cont"], seen["tables"][1]
                want_targets, want_cont, want_moved = _full_table_decide(surf, i, b, x, y)
                assert np.array_equal(targets, want_targets)
                assert np.array_equal(cont, want_cont)
                assert np.array_equal(moved, want_moved)
                switched += int(np.count_nonzero(targets))
    assert switched > 0


def test_certify_never_repeats_a_decision(monkeypatch):
    problem, grid = build_hydro_problem(HydroParams(n_steps=8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, feature_map=FeatureMap(cross_terms=False), n_paths=300, seed=3)
    decide = Policy.decide_batch
    last = {}
    calls = []

    def spy(self, i, b, x, y):
        # A call on the same states as that mode's previous call at this
        # instant would return that call's targets again.
        states = (x.tobytes(), np.ascontiguousarray(y).tobytes())
        assert last.get((i, b)) != states
        last[(i, b)] = states
        calls.append((i, b))
        return decide(self, i, b, x, y)

    monkeypatch.setattr(Policy, "decide_batch", spy)
    report = certify(extract_policy(surf), n_paths=1000, seed=4)
    assert report.switch_histogram == PINNED["hydro"]["histogram"]
    assert report.lower_bound == pytest.approx(PINNED["hydro"]["lower_bound"], rel=1e-9, abs=0.0)
    assert len(calls) == 100


def test_ensemble_resets_each_explored_path_once():
    # Resets add the target label, so a path reset twice at t_0 would end
    # at twice its mode's label.
    problem, grid = pure_cost_problem(n_modes=3)
    shifting = JumpMapFamily(apply=lambda bf, bt, t, x: x + float(bt), target_only=True)
    problem = dataclasses.replace(problem, jump_maps=shifting)
    _, post, mode_of_step, _ = _randomized_ensemble(problem, grid, 300, 3, None, 0.15)
    start = mode_of_step[:, 0]
    assert set(start) == {1, 2, 3}
    assert np.array_equal(post[:, 0, 0], np.where(start == 1, 0.0, start))


def test_certify_decides_again_when_a_mode_gets_new_states():
    # Resets add the target label, so a path that leaves mode 1 and comes
    # back within the instant returns with a new state: 0 -> 2 -> 3.
    problem, grid = pure_cost_problem(n_modes=4)
    surf = solve(problem, grid, n_paths=100, seed=0)
    shifting = JumpMapFamily(apply=lambda bf, bt, t, x: x + float(bt), target_only=True)
    surf = dataclasses.replace(surf, problem=dataclasses.replace(problem, jump_maps=shifting))

    class Scripted(Policy):
        def decide_batch(self, i, b, x, y):
            out = np.zeros(x.shape[0], dtype=np.int64)
            if i == 0 and b == 1:
                out[x[:, 0] < 1.0] = 2
            elif i == 0 and b == 2:
                out[:] = 1
            return out

    report = certify(Scripted(surface=surf), n_paths=50, seed=1)
    assert report.switch_histogram == {2: 50}


def test_surface_csv_and_diagnostics_json():
    problem, grid = two_mode_flow_problem(n_steps=4)
    surf = solve(problem, grid, n_paths=300, seed=0)
    buf = io.StringIO()
    surface_to_csv(surf, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) > 1
    assert lines[0].startswith("k,b,i")
    payload = json.loads(diagnostics_to_json(surf.diagnostics))
    assert payload["converged"] is True
    assert payload["empty_subset_fits"] >= 0
    assert isinstance(payload["gap_by_k"], list)


def test_certify_report_serializes():
    problem, grid = two_mode_flow_problem(n_steps=8)
    report = certify(extract_policy(solve(problem, grid, n_paths=400, seed=0)), n_paths=500, seed=4)
    payload = report.to_dict()
    assert set(payload["switch_histogram"].keys()) == {"1"}
    assert payload["switch_bound_ok"] is True
    assert payload["n_paths"] == 500
