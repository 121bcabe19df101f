"""Simulator tests: grid mechanics, noise draws, Euler stepping, delay handling."""

import io
import os
import pickle

import numpy as np
import pytest

from switchmc import sdde as sdde_module
from switchmc.controls import SwitchingControl
from switchmc.families import gbm_spec
from switchmc.sdde import (
    DivergedError,
    MarkDistribution,
    NoiseDraw,
    OffGridError,
    Path,
    SddeSpec,
    TimeGrid,
    estimate_moment,
    path_to_csv,
    sample_noise,
    sample_noise_batch,
    simulate_batch,
    simulate_path,
    _draw_one,
    _draw_tables,
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
    one = sample_noise(spec, grid, seed=17, quantization=quantization)
    ref_dw, ref_counts = choice_reference(
        spec, grid, np.random.default_rng(np.random.SeedSequence(17)), quantization
    )
    assert np.array_equal(one.brownian, ref_dw)
    assert np.array_equal(one.jump_counts, ref_counts)


@pytest.mark.parametrize("quantization", [None, 2])
def test_batch_prefix_equals_smaller_batch(quantization):
    spec = two_mark_spec()
    grid = TimeGrid(1.0, 8)
    big = sample_noise_batch(spec, grid, seed=9, n_paths=100, quantization=quantization)
    small = sample_noise_batch(spec, grid, seed=9, n_paths=40, quantization=quantization)
    assert big[1].sum() > 0
    for whole, part in zip(big, small):
        assert np.array_equal(whole[:40], part)


@pytest.mark.parametrize("quantization", [None, 2])
def test_batch_streams_are_the_spawned_children(quantization):
    # Path p draws from child p of SeedSequence(seed).spawn(n_paths): its
    # noise first, then whatever the hook reads from the same stream.
    spec = two_mark_spec()
    grid = TimeGrid(1.0, 8)
    seen = {}  # 50 paths stay below FORK_MIN_PATHS, so the hook runs here

    def then(p, rng):
        seen[p] = rng.bit_generator.seed_seq
        return (rng.random(3),)

    dw, counts, extras = _noise_batch(spec, grid, 23, 50, quantization, then=then)
    tables = _draw_tables(spec, grid, quantization)
    for p, child in enumerate(np.random.SeedSequence(23).spawn(50)):
        rng = np.random.default_rng(child)
        ref_dw, ref_counts = _draw_one(rng, spec, grid, tables)
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
    # (path 0 is drawn before the fork).
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
    assert len(raised_here) == int(not (fork and last_half))
    _assert_no_child_left()


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
    a = sample_noise(spec, grid, seed=42)
    b = sample_noise(spec, grid, seed=42)
    assert np.array_equal(a.brownian, b.brownian)
    assert np.array_equal(a.jump_counts, b.jump_counts)
    assert a.brownian.shape == (16, 1)
    assert a.jump_counts.shape[0] == 16
    assert np.all(a.jump_counts == 0)
    c = sample_noise(spec, grid, seed=43)
    assert not np.array_equal(a.brownian, c.brownian)


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
    noise = sample_noise(spec, grid, seed=7)
    path = simulate_path(spec, grid, SwitchingControl.empty(), noise)
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
    noise = sample_noise(spec, grid, seed=0)
    path = simulate_path(spec, grid, SwitchingControl.empty(), noise)
    exact = delayed_ode_closed_form(grid.times)
    return float(np.max(np.abs(path.states[:, 0] - exact)))


def test_delayed_ode_closed_form():
    n = 200
    err = delayed_ode_max_error(n)
    assert err <= 5.0 * (2.0 / n)
    grid = TimeGrid(2.0, n)
    spec = delayed_ode_spec()
    path = simulate_path(spec, grid, SwitchingControl.empty(), sample_noise(spec, grid, seed=0))
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
    noise = sample_noise(spec, grid, seed=0)
    path = simulate_path(
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

    path = simulate_path(spec, grid, control, sample_noise(spec, grid, seed=0), switch_map=switch_map)
    assert path.states[1, 0] == 1.0 + 10.0 + 100.0
    assert path.modes[1] == 3


def test_off_grid_switch_rejected():
    spec = flat_spec()
    grid = TimeGrid(1.0, 4)
    control = SwitchingControl(times=(0.33,), modes=(2,))
    with pytest.raises(OffGridError):
        simulate_path(spec, grid, control, sample_noise(spec, grid, seed=0))


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
    noise = sample_noise(spec_y, grid, seed=11)
    pa = simulate_path(spec_y, grid, SwitchingControl.empty(), noise)
    pb = simulate_path(spec_x, grid, SwitchingControl.empty(), noise)
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
        simulate_path(spec, grid, SwitchingControl.empty(), sample_noise(spec, grid, seed=0))
    assert excinfo.value.step == 1


def test_batch_matches_single_paths():
    spec = gbm_spec()
    grid = TimeGrid(1.0, 16)
    dw, counts = sample_noise_batch(spec, grid, seed=3, n_paths=5)
    states, modes = simulate_batch(spec, grid, SwitchingControl.empty(), dw, counts)
    for p in range(5):
        noise = NoiseDraw(brownian=dw[p], jump_counts=counts[p], seed=3)
        single = simulate_path(spec, grid, SwitchingControl.empty(), noise)
        assert np.array_equal(single.states, states[p])
        assert np.array_equal(single.modes, modes)


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


def test_estimate_moment_constant():
    est, se = estimate_moment(flat_spec(x0=2.0), TimeGrid(1.0, 8), None, p=4.0, n_paths=100, seed=0)
    assert est == 16.0
    assert se == 0.0


def test_estimate_moment_refinement_stability():
    spec = gbm_spec()
    est_a, se_a = estimate_moment(spec, TimeGrid(1.0, 64), None, p=2.0, n_paths=10_000, seed=1)
    est_b, se_b = estimate_moment(spec, TimeGrid(1.0, 128), None, p=2.0, n_paths=10_000, seed=2)
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
        noise = sample_noise(base, grid, seed=4)
        pa = simulate_path(base, grid, control, noise)
        pb = simulate_path(pert, grid, control, noise)
        ratios.append(float(np.max(np.abs(pa.states - pb.states))) / eps)
    assert all(r <= 5.0 for r in ratios)
    assert max(ratios) <= 2.0 * min(ratios) + 1e-9


def test_path_csv_layout():
    spec = delayed_ode_spec()
    grid = TimeGrid(2.0, 8)
    path = simulate_path(spec, grid, SwitchingControl.empty(), sample_noise(spec, grid, seed=0))
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
    path = simulate_path(spec, grid, SwitchingControl.empty(), sample_noise(spec, grid, seed=0))
    assert path.delay_steps == 4
    assert np.all(path.lookback(0) == 1.0)
    assert np.array_equal(path.lookback(6), path.states[2])
