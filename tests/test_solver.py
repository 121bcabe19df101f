"""Regression solver: feature maps, fitting, budget iteration, policy, certification."""

import dataclasses
import hashlib
import io
import json
import os
import warnings

import numpy as np
import pytest

from conftest import NAN_REWARD_CASES, delay_instance, jumps_instance, nan_reward_flow
from switchmc.controls import JumpMapFamily, SwitchingControl, SwitchingProblem, validate_target_only
from switchmc.families import pure_cost_problem, two_mode_flow_problem
from switchmc.hydro import HydroParams, build_hydro_problem
from switchmc.oracle import build_lattice, exact_dp
from switchmc import solver as solver_module
from switchmc.sdde import DivergedError, _lookback, sample_noise_batch, simulate_batch
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
    target = (2.0 + 0.5 * x[:, 0])[:, None]
    factor = solver_module._Factor()
    coef = _fit(design, target, factor)
    assert coef[2, 0] == 0.0
    assert np.allclose(design @ coef, target, atol=1e-10)
    assert solver_module._resid_std(design, target, coef, factor)[0] < 1e-10


@pytest.mark.parametrize("rows", [200, 9])
def test_fit_two_dimensional_target_matches_column_fits(rows):
    # 9 rows against 11 features is the shape of a standard-error block fit.
    rng = np.random.default_rng(3)
    design = np.column_stack([np.ones(rows), rng.normal(size=(rows, 9)), np.full(rows, 0.4)])
    target = rng.normal(size=(rows, 5)) + design[:, 1:2]
    factor = solver_module._Factor()
    coef = _fit(design, target, factor)
    resid_std = solver_module._resid_std(design, target, coef, factor)
    assert coef.shape == (11, 5) and resid_std.shape == (5,)
    for j in range(5):
        factor_j = solver_module._Factor()
        coef_j = _fit(design, target[:, j:j + 1], factor_j)
        assert np.allclose(coef[:, j], coef_j[:, 0], rtol=0.0, atol=1e-12)
        resid_std_j = solver_module._resid_std(design, target[:, j:j + 1], coef_j, factor_j)
        assert abs(resid_std[j] - resid_std_j[0]) <= 1e-12
        assert factor.rank == factor_j.rank and np.array_equal(factor.keep, factor_j.keep)
    assert np.all(coef[10] == 0.0)


def _factor_designs():
    rng = np.random.default_rng(5)
    tall = np.column_stack([np.ones(200), rng.normal(size=(200, 6))])
    return {
        "tall": tall,
        "duplicated column": np.column_stack([tall, tall[:, 2]]),
        "constant column": np.column_stack([tall, np.full(200, 0.4)]),
        # The shape of a standard-error block fit.
        "9 x 11": np.column_stack([np.ones(9), rng.normal(size=(9, 10))]),
        # Condition number about 2e9, past _SEMINORMAL_MAX_COND: lstsq at every fit.
        "ill-conditioned": np.column_stack([tall, tall[:, 2] + 1e-9 * rng.normal(size=200)]),
    }


@pytest.mark.parametrize("name", sorted(_factor_designs()))
def test_a_reused_factor_solves_new_targets_as_lstsq_does(name):
    design = _factor_designs()[name]
    rows = design.shape[0]
    rng = np.random.default_rng(6)
    factor = solver_module._Factor()
    first = rng.normal(size=(rows, 1))
    coef = _fit(design, first, factor)
    # The fit that fills the factor is lstsq's own.
    assert np.array_equal(coef, _fit(design, first))
    assert factor.keep[-1] == (name != "constant column")
    assert factor.seminormal == (name != "ill-conditioned")
    for scale in (1.0, 1e3):
        target = scale * (rng.normal(size=(rows, 3)) + design[:, 1:2])
        coef = _fit(design, target, factor)
        if not factor.seminormal:
            assert np.array_equal(coef, _fit(design, target))
        sol, _, rank, _ = np.linalg.lstsq(design[:, factor.keep], target, rcond=None)
        assert factor.rank == rank
        assert (factor.rank < factor.keep.sum()) == (name in ("duplicated column", "9 x 11"))
        assert np.all(coef[~factor.keep] == 0.0)
        assert np.max(np.abs(coef[factor.keep] - sol)) <= 1e-10 * np.max(np.abs(target))


@pytest.mark.parametrize("name", sorted(_factor_designs()))
def test_the_probe_se_reads_the_leverages_from_the_factor(name):
    design = _factor_designs()[name]
    factor = solver_module._Factor()
    _fit(design, np.random.default_rng(7).normal(size=(design.shape[0], 1)), factor)
    evals = np.random.default_rng(8).normal(size=(12, design.shape[1]))
    evals[:, 0] = 1.0
    se = solver_module._prediction_se(factor, 0.5, evals)
    R, E = design[:, factor.keep], evals[:, factor.keep]
    if factor.seminormal:
        # Leverages against the pseudo-inverse of R itself, at lstsq's rank.
        lev = ((E @ np.linalg.pinv(R, rcond=max(R.shape) * np.finfo(float).eps)) ** 2).sum(1)
        assert np.allclose(se, 0.5 * np.sqrt(lev), rtol=1e-12, atol=0.0)
    else:
        lev = np.einsum("ij,jk,ik->i", E, np.linalg.pinv(R.T @ R), E)
        assert np.array_equal(se, 0.5 * np.sqrt(np.maximum(lev, 0.0)))


def test_the_main_pass_factorizes_each_design_once(monkeypatch):
    problem, grid, kwargs = _pinned_problem("hydro")
    _forcing_fork(monkeypatch, False)
    fit, factorize = solver_module._fit, solver_module._factorize
    main_fits, factorizations = [], []

    def fit_spy(design, target, factor=None):
        if factor is not None:
            main_fits.append(design.shape)
        return fit(design, target, factor)

    def factorize_spy(reduced, rank):
        factorizations.append(reduced.shape)
        return factorize(reduced, rank)

    monkeypatch.setattr(solver_module, "_fit", fit_spy)
    monkeypatch.setattr(solver_module, "_factorize", factorize_spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, **kwargs)
    cells = problem.modes.n_modes * grid.n_steps
    assert len(factorizations) == cells
    assert len(main_fits) == cells * (surf.k_levels + 1)


# Values recorded with the level-by-level solver that the one-kernel
# pass replaced.  The coefficients are pinned through the CSV's digest.
# The digests and hydro's histogram were recorded again once the main
# pass reused each design's factor across levels, and again once every
# value product became row-exact: each time the coefficients moved at
# round-off, and hydro's exactly tied switch chains broke differently.
# The probe tables (values, then standard errors) and the diagnostics JSON,
# whose ``gap_by_k`` reads the probe standard errors, have their own digests.
PINNED = {
    "hydro": dict(
        y0=2.983783819612753, y0_se=0.03431010765284233, lower_bound=1.1177012161567832,
        k_levels=8, converged=False,
        histogram={6: 2, 7: 3, 8: 22, 9: 29, 10: 41, 11: 23, 12: 4, 13: 1, 14: 18, 15: 74,
                   16: 323, 17: 325, 18: 97, 19: 31, 20: 7},
        csv_sha256="93ee8a40a20c969ee76a088cdba094d3304f2747151118887486d9177b04732f",
        probe_sha256="c82abbf0a4f4b89aeea832b20d720a47f6aa36c224d8183934ca7475ba9066ea",
        diagnostics_sha256="80581584ac29d2e267309328665efe7ccd0ed85a63a3bdd69b8fa56112dcc88b",
    ),
    "flow": dict(
        y0=0.7, y0_se=7.799805020102231e-17, lower_bound=0.6999999999999998,
        k_levels=2, converged=True, histogram={1: 2000},
        csv_sha256="02847d506a73c6c8e415f933a8c32093cf2c161b6569a9f662930f6ca607fea0",
        probe_sha256="a9b499cf36c8d12dbc8a9c035df12deac0c32cfcb6ab7be24e47237202ce6fc7",
        diagnostics_sha256="1d389eb0d7d1a64e7194a73613244b9795091854e7fc05664f13f39afe5a73fe",
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
    diag = surf.diagnostics
    probes = diag.probe_values.tobytes() + diag.probe_se.tobytes()
    assert hashlib.sha256(probes).hexdigest() == pin["probe_sha256"]
    diag_json = diagnostics_to_json(diag).encode()
    assert hashlib.sha256(diag_json).hexdigest() == pin["diagnostics_sha256"]


def _grouped_and_per_block_passes(problem, grid, fm, n_paths, seed, quantization, levels):
    """Step records of the grouped standard-error pass and of the per-block loop it replaced."""
    pre, post, mode_of_step, _ = _randomized_ensemble(problem, grid, n_paths, seed, quantization)
    n = grid.n_steps
    g_pre = np.asarray(problem.reward.terminal(pre[:, n]), dtype=float)
    cost = np.stack([_switch_costs(problem, t) for t in grid.times[:n]])
    edges = np.linspace(0, n_paths, SE_BLOCKS + 1).astype(int)
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    ens = (pre, post, mode_of_step, g_pre)
    grouped = list(_backward_pass(problem, grid, fm, ens, blocks, levels, None, cost))
    # The reference copies each block's rows and runs one pass per block,
    # as solve did before the blocks became groups.
    per_block = []
    for blk in blocks:
        rows = np.arange(blk.start, blk.stop)
        ens_blk = (pre[rows], post[rows], mode_of_step[rows], g_pre[rows])
        per_block.append(list(_backward_pass(problem, grid, fm, ens_blk, [slice(0, rows.size)],
                                             levels, None, cost)))
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
    pre, post, _, _ = _randomized_ensemble(problem, grid, 200, 1, None)
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
    # Level 0 of the main pass and the block pass, over 6 steps, once per
    # mode; the main pass's levels above read the rewards level 0 recorded.
    assert sum(map(len, calls)) == (1 + 1) * 6 * 2 == 24
    assert all(sorted(modes) in ([1, 2], []) for modes in calls)


# Main-pass instances: problem, grid, then feature map, paths, seed and
# quantization.  Hydro's six targets share three post-switch batches,
# the delay instance's resets are the identity, the jumps instance has
# compensated jumps, and the shift instance is the delay instance with a
# reset that moves the state by its target mode, so each mode's running
# reward differs between its pre- and post-switch states.
MAIN_PASS_INSTANCES = ["hydro", "delay", "jumps", "shift"]


def _main_pass_instance(name):
    if name == "hydro":
        return (*build_hydro_problem(HydroParams(n_steps=8)), FeatureMap(cross_terms=False),
                300, 3, None)
    if name == "jumps":
        return (*jumps_instance(), FeatureMap(), 800, 6, 2)
    problem, grid = delay_instance()
    if name == "shift":
        shift = JumpMapFamily(apply=lambda b_from, b_to, t, x: x + 0.1 * b_to, target_only=True)
        problem = dataclasses.replace(problem, jump_maps=shift)
    return problem, grid, FeatureMap(degree=3), 800, 5, 2


@pytest.mark.parametrize("name", MAIN_PASS_INSTANCES)
def test_main_pass_records_give_what_every_level_recomputes(name):
    # Levels 0-3 of the main pass, as solve runs them with the per-solve
    # records and one post-switch table, against a reference that
    # recomputes rows, rewards and resets at every level and keeps each
    # level's table apart.  Both share the factors, as solve's levels do.
    problem, grid, fm, n_paths, seed, quantization = _main_pass_instance(name)
    pre, post, mode_of_step, _ = _randomized_ensemble(problem, grid, n_paths, seed, quantization)
    n, m = grid.n_steps, problem.modes.n_modes
    g_pre = np.asarray(problem.reward.terminal(pre[:, n]), dtype=float)
    ens = (pre, post, mode_of_step, g_pre)
    cost = np.stack([_switch_costs(problem, t) for t in grid.times[:n]])
    probe_times = sorted({0, n // 4, n // 2, (3 * n) // 4} - {n})
    runs = []
    for records in (solver_module._Records(mode_of_step, m), None):
        factors = [[solver_module._Factor() for _ in range(m)] for _ in range(n)]
        steps, below = [], np.empty((n, m, n_paths))
        for k in range(4):
            moved = below if records is not None else np.empty((n, m, n_paths))
            for step in _backward_pass(problem, grid, fm, ens, [slice(0, n_paths)], 1,
                                       below if k else None, cost, factors, probe_times, 48,
                                       records):
                moved[step.i] = step.moved[0]
                steps.append(step)
            below = moved
        runs.append((steps, below))
    (mine, below), (ref, ref_below) = runs
    assert len(mine) == len(ref) == 4 * n
    for a, b in zip(mine, ref):
        assert a.i == b.i and a.n_empty == b.n_empty
        for field in ("tab", "moved", "coef", "target_range"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.probe_se is None) == (b.probe_se is None) == (a.i not in probe_times)
        assert a.probe_se is None or np.array_equal(a.probe_se, b.probe_se)
    assert np.array_equal(below, ref_below)


@pytest.mark.parametrize("name", MAIN_PASS_INSTANCES)
def test_levels_above_the_first_call_no_reward_and_one_reset_per_batch(name, monkeypatch):
    _forcing_fork(monkeypatch, False)
    problem, grid, fm, n_paths, seed, quantization = _main_pass_instance(name)
    n, labels = grid.n_steps, problem.modes.labels
    # The distinct post-switch batches other than the pre-switch states, per step.
    pre = _randomized_ensemble(problem, grid, n_paths, seed, quantization)[0]
    n_batches = 0
    for i in range(n):
        x, batches = pre[:, i], []
        for b in labels:
            xs = solver_module._moved_state(problem, b, grid.times[i], x)
            if not any(np.array_equal(xs, seen) for seen in [x] + batches):
                batches.append(xs)
        n_batches += len(batches)
    assert n_batches == {"hydro": 23, "shift": 2 * n}.get(name, 0)

    counts = []  # per _backward_pass call: [groups, running calls, reset calls]
    backward_pass = solver_module._backward_pass

    def tagging(problem, grid, fm, ens, groups, *args):
        counts.append([len(groups), 0, 0])
        return backward_pass(problem, grid, fm, ens, groups, *args)

    running, apply = problem.reward.running, problem.jump_maps.apply

    def counting_running(t, x, b):
        if counts:
            counts[-1][1] += 1
        return running(t, x, b)

    def counting_apply(b_from, b_to, t, x):
        if counts:
            counts[-1][2] += 1
        return apply(b_from, b_to, t, x)

    problem = dataclasses.replace(
        _with_running(problem, counting_running),
        jump_maps=dataclasses.replace(problem.jump_maps, apply=counting_apply),
    )
    monkeypatch.setattr(solver_module, "_backward_pass", tagging)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, feature_map=fm, k_max=3, n_paths=n_paths, seed=seed,
                     quantization=quantization)
    main = [c[1:] for c in counts if c[0] == 1]
    assert len(main) == surf.k_levels + 1 >= 2 and len(counts) == len(main) + 1
    # Level 0 resets into every target mode at every step.
    assert main[0][1] == len(labels) * n
    assert main[1:] == [[0, n_batches]] * surf.k_levels


def _pinned_problem(name):
    if name == "hydro":
        problem, grid = build_hydro_problem(HydroParams(n_steps=8))
        return problem, grid, dict(feature_map=FeatureMap(cross_terms=False), n_paths=300, seed=3)
    problem, grid = two_mode_flow_problem(n_steps=8)
    return problem, grid, dict(n_paths=2000, seed=0)


@pytest.mark.parametrize("name, count", [("hydro", 243), ("flow", 0)])
def test_rank_deficient_fits_are_counted_over_every_level_run(name, count):
    # Counted fit by fit when first recorded; every main-pass level refits
    # the same designs with the same rank, so the factors give the count.
    problem, grid, kwargs = _pinned_problem(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        diag = solve(problem, grid, **kwargs).diagnostics
    assert diag.rank_deficient_fits == count and type(diag.rank_deficient_fits) is int


@pytest.mark.parametrize("name", ["hydro", "flow"])
def test_forked_blocks_give_the_inline_outputs(name, monkeypatch):
    # The child's block pass covers every level up to k_max, so its roots
    # are read whether the main pass stops at k_max (hydro) or below (flow).
    problem, grid, kwargs = _pinned_problem(name)
    outputs = []
    for fork in (True, False):
        children = _forcing_fork(monkeypatch, fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            surf = solve(problem, grid, **kwargs)
        assert [child.used for child in children] == ([True] if fork else [])
        _assert_no_child_left()
        buf = io.StringIO()
        surface_to_csv(surf, buf)
        outputs.append((surf.root_se, surf.y0_se, diagnostics_to_json(surf.diagnostics),
                        buf.getvalue(), [(w.category, str(w.message)) for w in caught]))
    assert outputs[0] == outputs[1]


def test_a_clean_childs_block_roots_are_used_without_a_rerun(monkeypatch):
    children = _forcing_fork(monkeypatch, True)
    backward_pass = solver_module._backward_pass
    grouped_here = []  # a forked child's appends stay in the child

    def counting(problem, grid, fm, ens, groups, *args):
        if len(groups) > 1:
            grouped_here.append(len(groups))
        return backward_pass(problem, grid, fm, ens, groups, *args)

    monkeypatch.setattr(solver_module, "_backward_pass", counting)
    problem, grid, kwargs = _pinned_problem("hydro")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, **kwargs)
    # The main pass ends at k_max, so the child's roots are read.
    assert surf.k_levels == surf.diagnostics.k_max_requested
    assert [child.used for child in children] == [True] and grouped_here == []
    _assert_no_child_left()


def test_a_warning_the_caller_ignores_does_not_rerun_the_block_pass(monkeypatch):
    children = _forcing_fork(monkeypatch, True)
    backward_pass = solver_module._backward_pass
    grouped_here = []  # a forked child's appends stay in the child

    def counting(problem, grid, fm, ens, groups, *args):
        if len(groups) > 1:
            grouped_here.append(len(groups))
        return backward_pass(problem, grid, fm, ens, groups, *args)

    monkeypatch.setattr(solver_module, "_backward_pass", counting)
    problem, grid, kwargs = _pinned_problem("hydro")
    running = problem.reward.running

    def warning(t, x, b):
        warnings.warn(f"running reward of mode {b}", UserWarning)
        return running(t, x, b)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("ignore")
        surf = solve(_with_running(problem, warning), grid, **kwargs)
    assert surf.k_levels == surf.diagnostics.k_max_requested
    assert [child.used for child in children] == [True] and grouped_here == []
    assert caught == []
    _assert_no_child_left()


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
    assert (len(children), len(raised_here)) == ((1, 1) if fork else (0, 1))
    _assert_no_child_left()


class TwoArgumentError(Exception):
    def __init__(self, what, n_blocks):
        super().__init__(f"{what} on {n_blocks} blocks")


def test_an_exception_with_other_init_arguments_is_raised_by_the_inline_rerun(monkeypatch):
    # The child exits nonzero on it; the parent then reruns the block pass
    # and raises the exception itself, built with its own arguments.
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
    calls = []  # per solve, the calls made in this process

    def warning(t, x, b):
        calls[-1] += 1
        warnings.warn(f"running reward of mode {b}", UserWarning)
        return running(t, x, b)

    problem = _with_running(problem, warning)
    seen = []
    for fork in (True, False):
        calls.append(0)
        children = _forcing_fork(monkeypatch, fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            solve(problem, grid, **kwargs)
        assert [child.used for child in children] == ([True] if fork else [])
        seen.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert seen[0] == seen[1]
    # One per mode, or one per call of the inline solve, and the
    # unsettled-family warning.
    n_shown = (problem.modes.n_modes if action == "default" else calls[1]) + 1
    assert len(seen[0]) == n_shown


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


@pytest.mark.parametrize("caller, switch_step", [("simulate_batch", 2), ("solve", 0)])
def test_a_bad_reset_is_caught_at_the_switch_instant(caller, switch_step):
    # A target-only reset into mode 2 that returns NaN.  The scheduled
    # switch is at t = 0.5 (index 2); the training ensemble re-rolls about
    # half its paths into mode 2 at time zero.
    problem, grid = two_mode_flow_problem(n_steps=4)
    bad = JumpMapFamily(
        apply=lambda bf, bt, t, x: np.full_like(x, np.nan) if bt == 2 else x, target_only=True
    )
    problem = dataclasses.replace(problem, jump_maps=bad)
    with pytest.raises(DivergedError) as err:
        if caller == "simulate_batch":
            dw, counts = sample_noise_batch(problem.dynamics, grid, 0, 8)
            simulate_batch(problem.dynamics, grid, SwitchingControl((0.5,), (2,)), dw, counts,
                           switch_map=problem.switch_map)
        else:
            solve(problem, grid, n_paths=50, seed=0)
    assert err.value.step == switch_step


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
    xs = np.linspace(-1.0, 1.0, 5)[:, None]
    assert np.array_equal(surf.continuation_at(k, 2, grid.n_steps, xs, y), problem.reward.terminal(xs))
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
    pre, post, _, d = _randomized_ensemble(problem, grid, 300, 11, None)
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


def test_a_decision_depends_only_on_its_row():
    # Deciding a batch whole, in two halves or row by row gives the same
    # targets; a BLAS product rounds a row by the rows beside it.
    problem, grid, kwargs = _pinned_problem("hydro")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        policy = extract_policy(solve(problem, grid, **kwargs))
    pre, post, _, _ = _randomized_ensemble(problem, grid, 400, 11, None)
    pres = problem.dynamics.presegment(grid)
    mismatches = switched = 0
    for i in range(grid.n_steps):
        x, y = pre[:, i], _lookback(post, pres, i)
        for b in problem.modes.labels:
            whole = policy.decide_batch(i, b, x, y)
            halves = np.concatenate([policy.decide_batch(i, b, x[s], y[s])
                                     for s in (slice(0, 200), slice(200, 400))])
            rows = [policy.decide(i, b, xr, yr) for xr, yr in zip(x, y)]
            mismatches += np.count_nonzero(halves != whole) + np.count_nonzero(rows != whole)
            switched += np.count_nonzero(whole)
    assert mismatches == 0
    assert switched > 0


@pytest.mark.parametrize("cross_terms", [False, True])
def test_level_values_of_a_row_do_not_depend_on_the_batch(cross_terms):
    problem, grid = build_hydro_problem(HydroParams(n_steps=8))
    fm = FeatureMap(cross_terms=cross_terms)
    pre, post, _, _ = _randomized_ensemble(problem, grid, 300, 1, None)
    i = 3
    x, yv = pre[:, i], _lookback(post, problem.dynamics.presegment(grid), i)
    m, p, levels = problem.modes.n_modes, fm.n_features(problem.dynamics.dim, True), 3
    rng = np.random.default_rng(7)
    coef = rng.normal(size=(1, m, levels, p)) / p
    target_range = np.broadcast_to([-np.inf, np.inf], (1, m, levels, 2))
    below = rng.normal(size=(m, 300))
    cost = _switch_costs(problem, grid.times[i])

    def values(x, yv, A, below):
        return _level_values(problem, fm, grid.times[i], grid.step, x, yv, A, coef,
                             target_range, below, cost)

    tab, moved = values(x, yv, None, below)
    for size in (1, 2, 37, 150):
        rows = np.sort(rng.choice(300, size=size, replace=False))
        sub = values(x[rows], yv[rows], None, below[:, rows])
        # The same rows copied to an address one float off the allocation's.
        A = fm.design(x[rows], yv[rows])
        shifted = np.empty(A.size + 1)[1:].reshape(A.shape)
        shifted[:] = A
        for got in (sub, values(x[rows], yv[rows], shifted, below[:, rows])):
            assert np.array_equal(got[0], tab[:, :, rows])
            assert np.array_equal(got[1], moved[:, :, rows])


def test_certify_never_repeats_a_decision(monkeypatch):
    problem, grid = build_hydro_problem(HydroParams(n_steps=8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, feature_map=FeatureMap(cross_terms=False), n_paths=300, seed=3)
    decide = Policy.decide_batch
    seen = {}
    calls = []

    def spy(self, i, b, x, y):
        # A decision is a function of its row, so a path decided again in
        # the same mode with the same state at this instant would get the
        # same target.  Distinct paths share a state only at t_0, where
        # every path starts from the initial state and they move together.
        rows = {xr.tobytes() + yr.tobytes() for xr, yr in zip(x, np.asarray(y))}
        decided = seen.setdefault((i, b), set())
        assert not rows & decided
        decided |= rows
        calls.append((i, b))
        return decide(self, i, b, x, y)

    monkeypatch.setattr(Policy, "decide_batch", spy)
    report = certify(extract_policy(surf), n_paths=1000, seed=4)
    assert report.switch_histogram == PINNED["hydro"]["histogram"]
    assert report.lower_bound == pytest.approx(PINNED["hydro"]["lower_bound"], rel=1e-9, abs=0.0)
    assert len(calls) == 83


def test_certify_evaluates_the_terminal_reward_once(monkeypatch):
    # The switch-then-stop count reads the terminal reward at post-switch
    # states; every other call is at the horizon states themselves.
    problem, grid = two_mode_flow_problem(n_steps=8)
    terminal, switch_then_stop = problem.reward.terminal, solver_module._switch_then_stop
    calls, inside = [], []

    def counting(x):
        if not inside:
            calls.append(x.shape[0])
        return terminal(x)

    def switch_then_stop_spy(*args):
        inside.append(True)
        try:
            return switch_then_stop(*args)
        finally:
            inside.pop()

    problem = dataclasses.replace(
        problem, reward=dataclasses.replace(problem.reward, terminal=counting)
    )
    surf = solve(problem, grid, n_paths=200, seed=0)
    monkeypatch.setattr(solver_module, "_switch_then_stop", switch_then_stop_spy)
    calls.clear()
    certify(extract_policy(surf), n_paths=300, seed=1)
    assert calls == [300]


def test_ensemble_resets_each_explored_path_once():
    # Resets add the target label, so a path reset twice at t_0 would end
    # at twice its mode's label.
    problem, grid = pure_cost_problem(n_modes=3)
    shifting = JumpMapFamily(apply=lambda bf, bt, t, x: x + float(bt), target_only=True)
    problem = dataclasses.replace(problem, jump_maps=shifting)
    _, post, mode_of_step, _ = _randomized_ensemble(problem, grid, 300, 3, None)
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


@pytest.mark.parametrize("name", ["hydro", "flow"])
def test_roots_are_the_time_zero_probe_entries(name):
    problem, grid, kwargs = _pinned_problem(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surf = solve(problem, grid, **kwargs)
    diag = surf.diagnostics
    levels, m = surf.k_levels + 1, problem.modes.n_modes
    # Probe columns run by mode, probe time and path; time 0 comes first.
    values = diag.probe_values.reshape(levels, m, -1)
    design_se = diag.probe_se.reshape(levels, m, -1)
    assert sorted(surf.root_value) == [(k, b) for k in range(levels) for b in range(1, m + 1)]
    for (k, b), value in surf.root_value.items():
        assert value == values[k, b - 1, 0] == diag.root_values[f"{k},{b}"]
        assert surf.root_se[k, b] >= design_se[k, b - 1, 0]
    fields = {f.name for f in dataclasses.fields(diag)} - {"probe_values", "probe_se"}
    assert set(json.loads(diagnostics_to_json(diag))) == fields


def test_a_nan_switch_cost_is_refused():
    problem, grid = two_mode_flow_problem(n_steps=4)
    costs = dataclasses.replace(problem.costs, cost=lambda bf, bt, t: float("nan"))
    with pytest.raises(ValueError, match="switch cost"):
        solve(dataclasses.replace(problem, costs=costs), grid, n_paths=100, seed=0)


@pytest.mark.parametrize("case", NAN_REWARD_CASES)
def test_solve_refuses_non_finite_rewards(case, monkeypatch):
    # Every case is non-finite at level 0's time-0 probes, so the main
    # pass stops there, and the forked block pass is killed.
    children = _forcing_fork(monkeypatch, True)
    problem, grid = nan_reward_flow(case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="level 0 values are not finite"):
            solve(problem, grid, n_paths=200, seed=0)
    assert len(children) == 1 and not children[0].used
    _assert_no_child_left()


@pytest.mark.parametrize("case", NAN_REWARD_CASES)
def test_certify_refuses_non_finite_rewards(case):
    problem, grid = two_mode_flow_problem(n_steps=4)
    surf = solve(problem, grid, n_paths=200, seed=0)
    nan_problem, _ = nan_reward_flow(case)
    policy = extract_policy(dataclasses.replace(surf, problem=nan_problem))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="not finite"):
            certify(policy, n_paths=50, seed=1)


@pytest.mark.parametrize("degree", [0, -3, True, 2.0])
def test_feature_map_refuses_a_degree_that_is_not_an_integer_of_at_least_one(degree):
    with pytest.raises(ValueError, match="degree"):
        FeatureMap(degree=degree)


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
