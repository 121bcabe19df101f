"""Simulator tests: grid mechanics, noise draws, Euler stepping, delay handling."""

import copy
import dataclasses
import io
import os
import pickle
import warnings

import numpy as np
import pytest

from switchmc import sdde as sdde_module
from switchmc import solver as solver_module
from switchmc.controls import SwitchingControl
from switchmc.families import gbm_spec, random_tree_problem, two_mode_flow_problem
from switchmc.sdde import (
    DivergedError,
    MarkDistribution,
    OffGridError,
    Path,
    SddeSpec,
    TimeGrid,
    path_to_csv,
    sample_noise_batch,
    simulate_batch,
    _noise_batch,
)


def flat_spec(x0=1.0, dim=1):
    x0_arr = np.full(dim, float(x0))
    return SddeSpec(
        dim=dim,
        drift=lambda t, x, y, mode: np.zeros_like(x),
        diffusion=lambda t, x, y, mode: np.zeros_like(x)[..., None],
        initial_segment=lambda s: x0_arr,
    )


def simulate_one(spec, grid, control, noise, **kwargs) -> Path:
    """The path of a one-path batch, built as the CLI builds its sample paths."""
    states, modes = simulate_batch(spec, grid, control, *noise, **kwargs)
    return Path(grid=grid, states=states[0], presegment=spec.presegment(grid), modes=modes)


def test_grid_basics():
    grid = TimeGrid(2.0, 8)
    assert grid.step == 0.25
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 2.0
    assert len(grid.times) == 9
    assert grid.index_of(0.75) == 3
    with pytest.raises(OffGridError):
        grid.index_of(0.33)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)


def test_grid_times_are_computed_once_and_read_only():
    grid = TimeGrid(2.0, 8)
    times = grid.times
    assert grid.times is times
    assert np.array_equal(times, np.linspace(0.0, 2.0, 9))
    assert not times.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 1.0
    for copied in (copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
        assert copied == grid and not copied.times.flags.writeable


@pytest.mark.parametrize("name", ["jump_intensity", "delay"])
def test_spec_refuses_nan(name):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(flat_spec(), **{name: float("nan")})


def test_spec_checks_its_initial_segment_against_dim():
    # The default segment is a single zero, so a 2-d spec must bring its own.
    coeffs = dict(drift=lambda t, x, y, mode: np.zeros_like(x),
                  diffusion=lambda t, x, y, mode: np.zeros_like(x)[..., None])
    with pytest.raises(ValueError, match="initial_segment"):
        SddeSpec(dim=2, **coeffs)
    with pytest.raises(ValueError, match="initial_segment"):
        SddeSpec(dim=1, initial_segment=lambda s: np.zeros(2), **coeffs)
    assert SddeSpec(dim=1, **coeffs).initial_state().shape == (1,)
    assert flat_spec(dim=2).initial_state().shape == (2,)


def test_mark_distribution_validation():
    MarkDistribution(atoms=np.array([[0.5], [1.0]]), weights=np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        MarkDistribution(atoms=np.array([[0.5], [1.0]]), weights=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        MarkDistribution(atoms=np.array([[0.5]]), weights=np.array([-1.0]))


def test_mark_distribution_rejects_non_finite():
    for atoms, weights in [
        ([[0.5]], [np.nan]),
        ([[0.5], [1.0]], [0.5, np.nan]),
        ([[np.inf]], [1.0]),
        ([[0.5], [np.nan]], [0.5, 0.5]),
    ]:
        with pytest.raises(ValueError, match="finite"):
            MarkDistribution(atoms=np.array(atoms), weights=np.array(weights))


def two_mark_spec():
    return SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: np.zeros_like(x),
        diffusion=lambda t, x, y, mode: np.ones_like(x)[..., None],
        jump_coeff=lambda t, x, y, z, mode: np.full_like(x, z[0]),
        jump_intensity=3.0,
        marks=MarkDistribution(atoms=np.array([[-0.5], [1.0]]), weights=np.array([0.3, 0.7])),
        initial_segment=lambda s: np.zeros(1),
    )


def choice_reference(spec, grid, rng, quantization):
    """One path of quantized noise written with Generator.choice."""
    n, dt = grid.n_steps, grid.step
    if quantization == 2:
        vals, probs = np.array([-np.sqrt(dt), np.sqrt(dt)]), [0.5, 0.5]
    else:
        r = np.sqrt(3.0 * dt)
        vals, probs = np.array([-r, 0.0, r]), [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]
    dw = vals[rng.choice(quantization, size=n, p=probs)]
    jumped = rng.random(n) < spec.jump_intensity * dt
    mark = rng.choice(spec.n_marks, size=n, p=spec.marks.weights)
    dw[jumped] = 0.0
    counts = np.zeros((n, spec.n_marks), dtype=np.int64)
    counts[np.flatnonzero(jumped), mark[jumped]] = 1
    return dw[:, None], counts


@pytest.mark.parametrize("quantization", [2, 3])
def test_quantized_stream_matches_generator_choice(quantization):
    spec = two_mark_spec()
    grid = TimeGrid(1.0, 8)
    assert spec.jump_intensity * grid.step <= 1.0
    dw, counts = sample_noise_batch(spec, grid, seed=17, n_paths=200, quantization=quantization)
    for p, child in enumerate(np.random.SeedSequence(17).spawn(200)):
        ref_dw, ref_counts = choice_reference(spec, grid, np.random.default_rng(child), quantization)
        assert np.array_equal(dw[p], ref_dw)
        assert np.array_equal(counts[p], ref_counts)
    assert counts.sum() > 0 and np.all(counts.sum(axis=2) <= 1)


@pytest.mark.parametrize("quantization", [None, 2])
def test_batch_prefix_equals_smaller_batch(quantization):
    spec = two_mark_spec()
    grid = TimeGrid(1.0, 8)
    big = sample_noise_batch(spec, grid, seed=9, n_paths=100, quantization=quantization)
    small = sample_noise_batch(spec, grid, seed=9, n_paths=40, quantization=quantization)
    assert big[1].sum() > 0
    for whole, part in zip(big, small):
        assert np.array_equal(whole[:40], part)


def per_path_recipe(rng, spec, grid, quantization):
    """One path of noise, drawn and shaped one call at a time as a path's own stream would be."""
    n, dt = grid.n_steps, grid.step
    counts = np.zeros((n, spec.n_marks), dtype=np.int64)
    if quantization is None:
        dw = rng.standard_normal((n, spec.brownian_dim)) * np.sqrt(dt)
        if spec.jump_intensity > 0.0:
            for k, w in enumerate(spec.marks.weights):
                counts[:, k] = rng.poisson(spec.jump_intensity * w * dt, size=n)
        return dw, counts
    if quantization == 2:
        vals, probs = np.array([-1.0, 1.0]) * np.sqrt(dt), np.array([0.5, 0.5])
    else:
        vals, probs = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 * dt), np.array([1.0, 4.0, 1.0]) / 6.0
    cdf = np.cumsum(probs) / np.cumsum(probs)[-1]
    dw = vals[cdf.searchsorted(rng.random(n), side="right")][:, None]
    if spec.jump_intensity > 0.0:
        w = spec.marks.weights
        jumped = rng.random(n) < spec.jump_intensity * dt
        mark = (np.cumsum(w) / np.cumsum(w)[-1]).searchsorted(rng.random(n), side="right")
        counts[np.flatnonzero(jumped), mark[jumped]] = 1
        dw[jumped] = 0.0
    return dw, counts


STREAM_CASES = [
    pytest.param(two_mark_spec(), None, id="None"),
    pytest.param(two_mark_spec(), 2, id="2"),
    pytest.param(two_mark_spec(), 3, id="3"),
    # Marks declared but no jump clock: the counts keep their columns, all zero.
    pytest.param(dataclasses.replace(two_mark_spec(), jump_intensity=0.0), None, id="None-jump-free"),
    pytest.param(dataclasses.replace(two_mark_spec(), jump_intensity=0.0), 2, id="2-jump-free"),
    pytest.param(dataclasses.replace(two_mark_spec(), jump_intensity=0.0), 3, id="3-jump-free"),
]


@pytest.mark.parametrize("spec, quantization", STREAM_CASES)
def test_batch_streams_are_the_spawned_children(spec, quantization):
    # Path p draws from child p of SeedSequence(seed).spawn(n_paths): its
    # noise first, then whatever the hook reads from the same stream.
    grid = TimeGrid(1.0, 8)
    seen = {}  # 50 paths stay below FORK_MIN_PATHS, so the hook runs here

    def then(p, rng):
        seen[p] = rng.bit_generator.seed_seq
        return (rng.random(3),)

    dw, counts, extras = _noise_batch(spec, grid, 23, 50, quantization, then=then)
    assert (dw.dtype, counts.dtype, counts.shape) == (float, np.int64, (50, 8, 2))
    assert (counts.sum() > 0) == (spec.jump_intensity > 0.0)
    for p, child in enumerate(np.random.SeedSequence(23).spawn(50)):
        rng = np.random.default_rng(child)
        ref_dw, ref_counts = per_path_recipe(rng, spec, grid, quantization)
        seq = seen[p]
        assert (seq.entropy, seq.spawn_key, seq.pool_size) == (
            child.entropy, child.spawn_key, child.pool_size
        )
        assert np.array_equal(dw[p], ref_dw)
        assert np.array_equal(counts[p], ref_counts)
        assert np.array_equal(extras[p], rng.random(3))


def _forcing_fork(monkeypatch, fork):
    """Force the sampler's fork predicate; returns the children the batches start."""
    monkeypatch.setattr(sdde_module, "_may_fork", lambda: fork)
    children = []

    class Spy(sdde_module._Child):
        def __init__(self, *args):
            super().__init__(*args)
            children.append(self)

    monkeypatch.setattr(sdde_module, "_Child", Spy)
    return children


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _mode_draws(p, rng):
    return rng.random(), rng.integers(0, 3), rng.random(8), rng.integers(0, 2, size=8)


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("n_modes, quantization", [(2, 2), (3, 3)])
def test_ensemble_draws_each_path_from_its_own_stream(n_modes, quantization, fork, monkeypatch):
    # Each path's noise by the per-path recipe, then its mode draws as
    # one call each, the pick of another mode included (with two modes
    # that pick reads nothing from the stream).
    problem, grid = random_tree_problem(seed=101 + n_modes, n_modes=n_modes, levels=4, with_jumps=True)
    n, m = grid.n_steps, n_modes
    n_paths = sdde_module.FORK_MIN_PATHS + 1
    children = _forcing_fork(monkeypatch, fork)
    ensemble = solver_module._randomized_ensemble(problem, grid, n_paths, 7, quantization)
    assert len(children) == int(fork)
    _assert_no_child_left()

    def recipe_batch(spec, grid, seed, n_paths, quantization, then):
        per_path = []
        for child in np.random.SeedSequence(seed).spawn(n_paths):
            rng = np.random.default_rng(child)
            per_path.append(per_path_recipe(rng, spec, grid, quantization) + (
                rng.random(), rng.integers(0, m), rng.random(n),
                rng.integers(0, max(m - 1, 1), size=n)))
        return tuple(np.array(v) for v in zip(*per_path))

    monkeypatch.setattr(solver_module, "_noise_batch", recipe_batch)
    reference = solver_module._randomized_ensemble(problem, grid, n_paths, 7, quantization)
    pre, post, mode_of_step, delay = ensemble
    assert len(np.unique(mode_of_step)) == m and np.any(mode_of_step[:, 1:] != mode_of_step[:, :-1])
    for got, ref in zip((pre, post, mode_of_step), reference[:3]):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert delay == reference[3]


@pytest.mark.parametrize(
    "spec, quantization",
    [(two_mark_spec(), None), (two_mark_spec(), 2), (flat_spec(), None)],
    ids=["None", "2", "jump-free"],
)
def test_forked_half_gives_the_inline_batch(spec, quantization, monkeypatch):
    # The jump-free counts array has no bytes, so it is not shared.
    grid = TimeGrid(1.0, 8)
    n_paths = sdde_module.FORK_MIN_PATHS + 1
    outputs = []
    for fork in (True, False):
        children = _forcing_fork(monkeypatch, fork)
        plain = sample_noise_batch(spec, grid, 41, n_paths, quantization)
        hooked = _noise_batch(spec, grid, 41, n_paths, quantization, then=_mode_draws)
        assert len(children) == (2 if fork else 0)
        _assert_no_child_left()
        outputs.append(plain + hooked)
    assert outputs[0][0][:, :, 0].std() > 0
    assert outputs[0][1].sum() > 0 if spec.n_marks else outputs[0][1].shape == (n_paths, 8, 0)
    assert len(outputs[0]) == len(outputs[1]) == 8
    for forked, inline in zip(*outputs):
        assert forked.dtype == inline.dtype
        assert np.array_equal(forked, inline)


class HookError(Exception):
    pass


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("error, last_half", [(HookError, True), (KeyboardInterrupt, False)])
def test_hook_exception_reaches_the_caller_and_reaps_the_child(error, last_half, fork, monkeypatch):
    # The last path is in the child's half, path 1 in this process's
    # (path 0 is drawn before the fork).  A child's exception is raised
    # again by this process's rerun of its half.
    children = _forcing_fork(monkeypatch, fork)
    n_paths = sdde_module.FORK_MIN_PATHS + 1
    failing = n_paths - 1 if last_half else 1
    raised_here = []  # a forked child's appends stay in the child

    def then(p, rng):
        if p == failing:
            raised_here.append(p)
            raise error(f"no draw for path {p}")
        return (rng.random(),)

    with pytest.raises(error, match=f"no draw for path {failing}"):
        _noise_batch(two_mark_spec(), TimeGrid(1.0, 8), 41, n_paths, None, then=then)
    assert len(children) == int(fork)
    assert len(raised_here) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("action", ["always", "default"])
def test_hook_warning_in_the_child_half_is_issued_by_this_process(action, monkeypatch):
    # Two paths of the child's half warn from one location with one
    # message: "default" shows it once, "always" twice.
    n_paths = sdde_module.FORK_MIN_PATHS + 1
    warning_paths = [n_paths - 2, n_paths - 1]
    warned_here = []  # a forked child's appends stay in the child

    def then(p, rng):
        if p in warning_paths:
            warned_here.append(p)
            warnings.warn("thin draw in the second half", UserWarning)
        return (rng.random(),)

    seen = []
    for fork in (True, False):
        children = _forcing_fork(monkeypatch, fork)
        warned_here.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            out = _noise_batch(two_mark_spec(), TimeGrid(1.0, 8), 41, n_paths, None, then=then)
        assert len(children) == int(fork) and warned_here == warning_paths
        _assert_no_child_left()
        seen.append((out, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]))
    (forked, forked_shown), (inline, inline_shown) = seen
    assert forked_shown == inline_shown
    assert len(inline_shown) == (2 if action == "always" else 1)
    assert all(np.array_equal(a, b) for a, b in zip(forked, inline))


def test_a_child_that_dies_before_sending_leaves_its_half_to_this_process(monkeypatch):
    n_paths = sdde_module.FORK_MIN_PATHS + 1
    parent = os.getpid()

    def dying(p, rng):
        if p == n_paths - 1 and os.getpid() != parent:
            os._exit(3)
        return _mode_draws(p, rng)

    outputs = []
    for fork, then in ((True, dying), (False, _mode_draws)):
        children = _forcing_fork(monkeypatch, fork)
        outputs.append(_noise_batch(two_mark_spec(), TimeGrid(1.0, 8), 41, n_paths, None, then=then))
        assert len(children) == int(fork)
        _assert_no_child_left()
    for forked, inline in zip(*outputs):
        assert forked.dtype == inline.dtype
        assert np.array_equal(forked, inline)


def test_diverged_error_survives_pickling():
    for err in (DivergedError(5), DivergedError(3, "custom message")):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergedError
        assert (back.step, str(back)) == (err.step, str(err))
    assert str(pickle.loads(pickle.dumps(DivergedError(5)))) == "state diverged at step 5"


def test_noise_determinism_and_zero_intensity():
    spec = gbm_spec()
    grid = TimeGrid(1.0, 16)
    a_dw, a_counts = sample_noise_batch(spec, grid, seed=42, n_paths=1)
    b_dw, b_counts = sample_noise_batch(spec, grid, seed=42, n_paths=1)
    assert np.array_equal(a_dw, b_dw)
    assert np.array_equal(a_counts, b_counts)
    assert a_dw.shape == (1, 16, 1)
    assert a_counts.shape[:2] == (1, 16)
    assert np.all(a_counts == 0)
    c_dw, _ = sample_noise_batch(spec, grid, seed=43, n_paths=1)
    assert not np.array_equal(a_dw, c_dw)


def test_poisson_count_mean():
    marks = MarkDistribution(atoms=np.array([[1.0]]), weights=np.array([1.0]))
    spec = SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: np.zeros_like(x),
        diffusion=lambda t, x, y, mode: np.zeros_like(x)[..., None],
        jump_coeff=lambda t, x, y, z, mode: np.zeros_like(x),
        jump_intensity=2.0,
        marks=marks,
        initial_segment=lambda s: np.zeros(1),
    )
    grid = TimeGrid(1.0, 8)
    _, counts = sample_noise_batch(spec, grid, seed=0, n_paths=100_000)
    mean_total = counts.sum(axis=(1, 2)).mean()
    assert 1.97 <= mean_total <= 2.03


def test_an_empty_gaussian_batch_has_the_layout_of_a_full_one():
    grid = TimeGrid(1.0, 8)
    spec = two_mark_spec()
    empty = sample_noise_batch(spec, grid, seed=0, n_paths=0)
    full = sample_noise_batch(spec, grid, seed=0, n_paths=3)
    for none, some in zip(empty, full):
        assert none.shape == (0,) + some.shape[1:]
        assert none.dtype == some.dtype
    assert [a.dtype for a in empty] == [np.float64, np.int64]


def test_quantized_noise_support():
    spec = gbm_spec()
    grid = TimeGrid(1.0, 10)
    dw2, _ = sample_noise_batch(spec, grid, seed=1, n_paths=500, quantization=2)
    root = np.sqrt(grid.step)
    assert set(np.round(np.unique(dw2), 12)) <= {round(-root, 12), round(root, 12)}
    dw3, _ = sample_noise_batch(spec, grid, seed=1, n_paths=500, quantization=3)
    assert np.unique(np.round(dw3, 12)).size == 3
    assert abs(dw3.mean()) < 5e-3


def test_constant_path_zero_coefficients():
    spec = flat_spec(x0=1.5)
    grid = TimeGrid(1.0, 12)
    noise = sample_noise_batch(spec, grid, seed=7, n_paths=1)
    path = simulate_one(spec, grid, SwitchingControl.empty(), noise)
    assert np.all(path.states == 1.5)
    assert np.all(path.modes == 1)


def delayed_ode_spec():
    return SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: -y,
        diffusion=lambda t, x, y, mode: np.zeros_like(x)[..., None],
        delay=1.0,
        initial_segment=lambda s: np.ones(1),
    )


def delayed_ode_closed_form(t: np.ndarray) -> np.ndarray:
    out = 1.0 - t
    late = t > 1.0
    out = np.where(late, 1.0 - t + 0.5 * (t - 1.0) ** 2, out)
    return out


def delayed_ode_max_error(n_steps: int) -> float:
    spec = delayed_ode_spec()
    grid = TimeGrid(2.0, n_steps)
    noise = sample_noise_batch(spec, grid, seed=0, n_paths=1)
    path = simulate_one(spec, grid, SwitchingControl.empty(), noise)
    exact = delayed_ode_closed_form(grid.times)
    return float(np.max(np.abs(path.states[:, 0] - exact)))


def test_delayed_ode_closed_form():
    n = 200
    err = delayed_ode_max_error(n)
    assert err <= 5.0 * (2.0 / n)
    grid = TimeGrid(2.0, n)
    spec = delayed_ode_spec()
    path = simulate_one(spec, grid, SwitchingControl.empty(), sample_noise_batch(spec, grid, 0, 1))
    assert abs(path.states[-1, 0] - (-0.5)) < 0.02


def test_delayed_ode_first_order():
    errs = [delayed_ode_max_error(n) for n in (50, 100, 200)]
    slopes = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
    for s in slopes:
        assert 0.9 <= s <= 1.1


def test_switch_jump_map_halves_state():
    spec = flat_spec(x0=2.0)
    grid = TimeGrid(1.0, 4)
    control = SwitchingControl(times=(0.5,), modes=(2,))
    noise = sample_noise_batch(spec, grid, seed=0, n_paths=1)
    path = simulate_one(
        spec, grid, control, noise, switch_map=lambda bf, bt, t, x: 0.5 * x, initial_mode=1
    )
    assert np.all(path.states[:2, 0] == 2.0)
    assert np.all(path.states[2:, 0] == 1.0)
    assert list(path.modes) == [1, 1, 2, 2, 2]


def test_composed_switches_at_one_instant():
    spec = flat_spec(x0=1.0)
    grid = TimeGrid(1.0, 4)
    control = SwitchingControl(times=(0.25, 0.25), modes=(2, 3))

    def switch_map(bf, bt, t, x):
        return x + 10.0 ** (bt - 1)

    path = simulate_one(spec, grid, control, sample_noise_batch(spec, grid, 0, 1), switch_map=switch_map)
    assert path.states[1, 0] == 1.0 + 10.0 + 100.0
    assert path.modes[1] == 3


def test_decreasing_switch_times_rejected():
    # validate_control refuses this control; the simulator must not run it.
    problem, grid = two_mode_flow_problem(n_steps=4)
    spec = problem.dynamics
    control = SwitchingControl((0.5, 0.25), (2, 1))
    dw, counts = sample_noise_batch(spec, grid, 0, 2)
    with pytest.raises(ValueError, match="switch times must not decrease"):
        simulate_batch(spec, grid, control, dw, counts)


def test_off_grid_switch_rejected():
    spec = flat_spec()
    grid = TimeGrid(1.0, 4)
    control = SwitchingControl(times=(0.33,), modes=(2,))
    with pytest.raises(OffGridError):
        simulate_one(spec, grid, control, sample_noise_batch(spec, grid, 0, 1))


def test_zero_delay_reads_current_state():
    grid = TimeGrid(1.0, 32)
    seg = np.array([0.7])
    spec_y = SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: -0.8 * y,
        diffusion=lambda t, x, y, mode: (0.2 * np.ones_like(x))[..., None],
        initial_segment=lambda s: seg,
    )
    spec_x = SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: -0.8 * x,
        diffusion=lambda t, x, y, mode: (0.2 * np.ones_like(x))[..., None],
        initial_segment=lambda s: seg,
    )
    noise = sample_noise_batch(spec_y, grid, seed=11, n_paths=1)
    pa = simulate_one(spec_y, grid, SwitchingControl.empty(), noise)
    pb = simulate_one(spec_x, grid, SwitchingControl.empty(), noise)
    assert np.array_equal(pa.states, pb.states)


def test_divergence_guard_reports_step():
    spec = SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: np.full_like(x, 1e13),
        diffusion=lambda t, x, y, mode: np.zeros_like(x)[..., None],
        initial_segment=lambda s: np.ones(1),
    )
    grid = TimeGrid(1.0, 4)
    with pytest.raises(DivergedError) as excinfo:
        simulate_one(spec, grid, SwitchingControl.empty(), sample_noise_batch(spec, grid, 0, 1))
    assert excinfo.value.step == 1


def test_batch_matches_single_paths():
    # A path does not depend on its batch: with a delay, Gaussian noise
    # with jump marks and scheduled switches through a state reset, each
    # row of a batch equals the one-path batch of its own noise.
    spec = dataclasses.replace(
        two_mark_spec(), drift=lambda t, x, y, mode: 0.3 * mode - 0.5 * x + 0.2 * y, delay=0.25
    )
    grid = TimeGrid(1.0, 16)
    control = SwitchingControl(times=(0.25, 0.75), modes=(2, 3))

    def switch_map(bf, bt, t, x):
        return 0.5 * x + bt - bf

    dw, counts = sample_noise_batch(spec, grid, seed=3, n_paths=5)
    assert counts.sum() > 0
    states, modes = simulate_batch(spec, grid, control, dw, counts, switch_map=switch_map)
    assert list(modes) == [1] * 4 + [2] * 8 + [3] * 5
    for p in range(5):
        single, single_modes = simulate_batch(
            spec, grid, control, dw[p:p + 1], counts[p:p + 1], switch_map=switch_map
        )
        assert np.array_equal(single[0], states[p])
        assert np.array_equal(single_modes, modes)


def test_the_mode_record_owns_its_data():
    # A view of the per-path record would keep every path's modes alive.
    spec = flat_spec()
    grid = TimeGrid(1.0, 4)
    dw, counts = sample_noise_batch(spec, grid, seed=0, n_paths=3)
    _, modes = simulate_batch(spec, grid, SwitchingControl(times=(0.5,), modes=(2,)), dw, counts)
    assert modes.base is None
    assert list(modes) == [1, 1, 2, 2, 2]


def test_an_empty_batch_is_refused_before_the_loop():
    spec = flat_spec()
    grid = TimeGrid(1.0, 4)
    dw, counts = sample_noise_batch(spec, grid, seed=0, n_paths=0)
    with pytest.raises(ValueError, match="n_paths = 0"):
        simulate_batch(spec, grid, SwitchingControl.empty(), dw, counts)


def test_compensated_jumps_are_mean_neutral():
    """With zero drift the compensated jump integral should average near zero."""
    marks = MarkDistribution(atoms=np.array([[1.0], [2.0]]), weights=np.array([0.5, 0.5]))
    spec = SddeSpec(
        dim=1,
        drift=lambda t, x, y, mode: np.zeros_like(x),
        diffusion=lambda t, x, y, mode: np.zeros_like(x)[..., None],
        jump_coeff=lambda t, x, y, z, mode: np.full_like(x, 0.3 * z[0]),
        jump_intensity=2.0,
        marks=marks,
        initial_segment=lambda s: np.zeros(1),
    )
    grid = TimeGrid(1.0, 20)
    dw, counts = sample_noise_batch(spec, grid, seed=5, n_paths=40_000)
    states, _ = simulate_batch(spec, grid, SwitchingControl.empty(), dw, counts)
    terminal = states[:, -1, 0]
    se = terminal.std(ddof=1) / np.sqrt(terminal.size)
    assert abs(terminal.mean()) <= 4.0 * se + 1e-12


def sup_moment(spec, grid, p, n_paths, seed):
    """E[sup_t |X_t|^p] of uncontrolled paths, with its standard error."""
    dw, counts = sample_noise_batch(spec, grid, seed, n_paths)
    states, _ = simulate_batch(spec, grid, None, dw, counts)
    sup = np.linalg.norm(states, axis=2).max(axis=1) ** p
    return float(sup.mean()), float(sup.std(ddof=1) / np.sqrt(n_paths))


def test_estimate_moment_constant():
    est, se = sup_moment(flat_spec(x0=2.0), TimeGrid(1.0, 8), p=4.0, n_paths=100, seed=0)
    assert est == 16.0
    assert se == 0.0


def test_estimate_moment_refinement_stability():
    spec = gbm_spec()
    est_a, se_a = sup_moment(spec, TimeGrid(1.0, 64), p=2.0, n_paths=10_000, seed=1)
    est_b, se_b = sup_moment(spec, TimeGrid(1.0, 128), p=2.0, n_paths=10_000, seed=2)
    assert np.isfinite(est_a) and np.isfinite(est_b)
    assert abs(est_a - est_b) <= 3.0 * float(np.hypot(se_a, se_b))


def test_gbm_integrated_mean_matches_closed_form():
    """Time-integrated mean of GBM against (e^(mu T) - 1) / mu."""
    spec = gbm_spec(mu=0.1, sigma=0.2, x0=1.0)
    grid = TimeGrid(1.0, 64)
    dw, counts = sample_noise_batch(spec, grid, seed=21, n_paths=40_000)
    states, _ = simulate_batch(spec, grid, SwitchingControl.empty(), dw, counts)
    integral = states[:, :-1, 0].sum(axis=1) * grid.step
    exact = (np.exp(0.1) - 1.0) / 0.1
    se = integral.std(ddof=1) / np.sqrt(integral.size)
    assert abs(integral.mean() - exact) <= 3.0 * se + 5e-3


def test_stability_under_switching():
    """Segment perturbations stay linearly bounded however often the control switches."""
    eps = 1e-3
    grid = TimeGrid(1.0, 100)
    rng = np.random.default_rng(17)

    def make_spec(shift):
        seg = np.array([1.0 + shift])
        return SddeSpec(
            dim=1,
            drift=lambda t, x, y, mode: (0.4 if mode == 1 else -0.3) - 0.5 * x + 0.3 * y,
            diffusion=lambda t, x, y, mode: (0.2 * np.ones_like(x))[..., None],
            delay=0.1,
            initial_segment=lambda s: seg,
        )

    ratios = []
    for n_switches in (0, 5, 50):
        steps = sorted(rng.choice(np.arange(1, 100), size=n_switches, replace=False))
        times = tuple(float(i) * grid.step for i in steps)
        modes = tuple(2 if j % 2 == 0 else 1 for j in range(n_switches))
        control = SwitchingControl(times=times, modes=modes)
        base = make_spec(0.0)
        pert = make_spec(eps)
        noise = sample_noise_batch(base, grid, seed=4, n_paths=1)
        pa = simulate_one(base, grid, control, noise)
        pb = simulate_one(pert, grid, control, noise)
        ratios.append(float(np.max(np.abs(pa.states - pb.states))) / eps)
    assert all(r <= 5.0 for r in ratios)
    assert max(ratios) <= 2.0 * min(ratios) + 1e-9


def test_path_csv_layout():
    spec = delayed_ode_spec()
    grid = TimeGrid(2.0, 8)
    path = simulate_one(spec, grid, SwitchingControl.empty(), sample_noise_batch(spec, grid, 0, 1))
    buf = io.StringIO()
    path_to_csv(path, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "time,mode,x_1"
    assert len(lines) == 1 + path.delay_steps + grid.n_steps + 1
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    assert float(first[2]) == 1.0


def test_lookback_resolves_presegment():
    spec = delayed_ode_spec()
    grid = TimeGrid(2.0, 8)
    path = simulate_one(spec, grid, SwitchingControl.empty(), sample_noise_batch(spec, grid, 0, 1))
    assert path.delay_steps == 4
    assert np.all(path.lookback(0) == 1.0)
    assert np.array_equal(path.lookback(6), path.states[2])
