"""Euler simulation of mode-controlled jump diffusions with a fixed delay.

The state follows

    X_{i+1} = X_i + a(t_i, X_i, Y_i, b_i) dt
                  + sigma(t_i, X_i, Y_i, b_i) dW_i
                  + sum_{jumps in step} gamma(t_i, X_i, Y_i, z, b_i)
                  - dt * lam * sum_k w_k gamma(t_i, X_i, Y_i, z_k, b_i)

where Y_i = X(t_i - delay) is read from a path buffer (the initial segment
supplies values for t < delay) and b_i is the mode in force on
[t_i, t_{i+1}).  Jump marks have finite support, so the compensator is the
exact finite sum above.  Mode changes happen only at grid points: at a
switch time the state is passed through the supplied switch map and the
buffer keeps the post-switch value (the path is right continuous).

Coefficient callables are evaluated on batches: ``x`` and ``y`` have shape
``(n_paths, dim)`` and the return value must broadcast to ``(n_paths, dim)``
for the drift and jump coefficient and ``(n_paths, dim, brownian_dim)`` for
the diffusion.

The forward step is written once.  ``_lookback`` reads the delayed states
from a path buffer and ``_euler_step`` advances a batch whose paths may
run in different modes (one ``euler_increment`` call per mode group) and
guards against divergence.  ``simulate_batch`` (one mode at a time), the
solver's exploration ensemble and its certification all step through
them.

Per-path random streams are spawned from the root seed with
``numpy.random.SeedSequence``, so path p's noise depends only on the
seed and p: the first paths of a batch equal a smaller batch.  On Linux,
in a single-threaded process with a spare CPU, a batch of at least
``FORK_MIN_PATHS`` paths is drawn in two halves, the second by a forked
child straight into the batch's arrays, which are then in shared memory;
if no child runs or it sends nothing usable, the second half is drawn
here.  The outputs are identical either way.  A hook that draws more
from each stream (the solver's mode draws) may therefore run in the
child, so it returns its values rather than storing them.
"""

from __future__ import annotations

import io
import mmap
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._fork import _Child, _may_fork

STATE_BOUND = 1e12
# Batches from this many paths draw their second half in a forked child.
# A fork and the child's page faults on the shared arrays cost
# milliseconds, so smaller batches, which take about as long to draw,
# stay inline.
FORK_MIN_PATHS = 1000

__all__ = [
    "TimeGrid",
    "MarkDistribution",
    "SddeSpec",
    "NoiseDraw",
    "Path",
    "SimulationError",
    "OffGridError",
    "DivergedError",
    "sample_noise",
    "sample_noise_batch",
    "euler_increment",
    "simulate_path",
    "simulate_batch",
    "estimate_moment",
    "path_to_csv",
]


class SimulationError(Exception):
    """Base class for simulation failures."""


class OffGridError(SimulationError):
    """A requested time does not lie on the simulation grid."""


class DivergedError(SimulationError):
    """State left the admissible region (non-finite or above the bound)."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"state diverged at step {step}")

    def __reduce__(self):
        # Rebuild from (step, message): the default, type(self)(*self.args),
        # would pass the message as the step.
        return type(self), (self.step, str(self)), self.__dict__


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with n_steps intervals."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def step(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of time t; raises OffGridError if t is off the grid."""
        idx = int(round(t / self.step))
        if idx < 0 or idx > self.n_steps or abs(t - idx * self.step) > 1e-9 * max(self.step, 1.0):
            raise OffGridError(f"time {t!r} is not a grid point (step {self.step!r})")
        return idx


@dataclass(frozen=True)
class MarkDistribution:
    """Finite jump-mark distribution: atoms (n_marks, mark_dim), weights sum to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("atoms and weights must have matching length")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise ValueError("mark atoms and weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("mark weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mark weights must sum to one within 1e-12")

    @property
    def n_marks(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True)
class SddeSpec:
    """Coefficients and memory structure of the controlled equation.

    Parameters
    ----------
    dim : int
        State dimension.
    drift, diffusion : callable
        ``drift(t, x, y, mode) -> (n, dim)`` and
        ``diffusion(t, x, y, mode) -> (n, dim, brownian_dim)`` where ``y``
        is the state ``delay`` time units in the past.
    brownian_dim : int
        Number of driving Brownian components.
    jump_coeff : callable or None
        ``jump_coeff(t, x, y, z, mode) -> (n, dim)`` for a single mark
        vector ``z``.  Required when ``jump_intensity > 0``.
    jump_intensity : float
        Arrival rate of the jump clock (lambda >= 0).
    marks : MarkDistribution or None
        Finite mark distribution; required when ``jump_intensity > 0``.
    delay : float
        Lookback lag; must be a grid multiple (checked per grid).
    initial_segment : callable
        ``initial_segment(s) -> (dim,)`` for s in [-delay, 0].
    state_bound : float
        Divergence guard on the euclidean norm of the state.
    """

    dim: int
    drift: Callable
    diffusion: Callable
    brownian_dim: int = 1
    jump_coeff: Optional[Callable] = None
    jump_intensity: float = 0.0
    marks: Optional[MarkDistribution] = None
    delay: float = 0.0
    initial_segment: Callable = lambda s: np.zeros(1)
    state_bound: float = STATE_BOUND

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.brownian_dim < 1:
            raise ValueError("brownian_dim must be at least 1")
        if self.jump_intensity < 0.0:
            raise ValueError("jump_intensity must be nonnegative")
        if self.jump_intensity > 0.0 and (self.jump_coeff is None or self.marks is None):
            raise ValueError("jump_intensity > 0 requires jump_coeff and marks")
        if self.delay < 0.0:
            raise ValueError("delay must be nonnegative")

    def delay_steps(self, grid: TimeGrid) -> int:
        """Delay expressed in grid steps; errors if not a grid multiple."""
        d = self.delay / grid.step
        steps = int(round(d))
        if abs(d - steps) > 1e-9:
            raise OffGridError(
                f"delay {self.delay!r} is not an integer multiple of the step {grid.step!r}"
            )
        return steps

    def presegment(self, grid: TimeGrid) -> np.ndarray:
        """Initial-segment samples at times -delay .. -step, shape (d, dim)."""
        d = self.delay_steps(grid)
        out = np.empty((d, self.dim))
        for j in range(d):
            out[j] = np.asarray(self.initial_segment((j - d) * grid.step), dtype=float).reshape(self.dim)
        return out

    def initial_state(self) -> np.ndarray:
        return np.asarray(self.initial_segment(0.0), dtype=float).reshape(self.dim)

    @property
    def n_marks(self) -> int:
        return 0 if self.marks is None else self.marks.n_marks


@dataclass(frozen=True)
class NoiseDraw:
    """One path worth of driving noise.

    ``brownian`` has shape (n_steps, brownian_dim); ``jump_counts`` has
    shape (n_steps, n_marks) and counts arrivals of each mark per step.
    """

    brownian: np.ndarray
    jump_counts: np.ndarray
    seed: int


@dataclass(frozen=True)
class Path:
    """Simulated trajectory on the grid.

    ``states[i]`` is the post-switch state at t_i (right continuous),
    ``modes[i]`` the mode in force on [t_i, t_{i+1}) (``modes[-1]`` is the
    mode after any terminal switch), ``presegment`` holds the initial
    segment at times -delay .. -step.
    """

    grid: TimeGrid
    states: np.ndarray
    presegment: np.ndarray
    modes: np.ndarray

    @property
    def delay_steps(self) -> int:
        return self.presegment.shape[0]

    def lookback(self, i: int) -> np.ndarray:
        """State at t_i - delay (initial segment for early times)."""
        j = i - self.delay_steps
        return self.states[j] if j >= 0 else self.presegment[i]


def _quantized_law(spec: SddeSpec, grid: TimeGrid, branching: int):
    """The quantized law the sampler and the lattice share: increment support, weights, lam * dt."""
    if spec.brownian_dim != 1:
        raise ValueError("quantized noise supports brownian_dim == 1 only")
    dt = grid.step
    if branching == 2:
        vals, probs = np.array([-1.0, 1.0]) * np.sqrt(dt), np.array([0.5, 0.5])
    elif branching == 3:
        vals, probs = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 * dt), np.array([1.0, 4.0, 1.0]) / 6.0
    else:
        raise ValueError("quantization must be 2 or 3")
    p_jump = spec.jump_intensity * dt
    if p_jump > 1.0:
        raise ValueError("jump_intensity * step must be <= 1 for quantized noise")
    return vals, probs, p_jump


def _draw_tables(spec: SddeSpec, grid: TimeGrid, quantization: Optional[int]):
    """What ``_draw_one`` reads, checked and tabulated once per batch (None for Gaussian noise).

    ``Generator.choice(k, size=n, p=w)`` draws ``c.searchsorted(random(n), side="right")``
    with c = cumsum(w) / cumsum(w)[-1], so these cdfs give the streams ``choice`` gave.
    """
    if quantization is None:
        return None
    vals, probs, p_jump = _quantized_law(spec, grid, quantization)
    marks = spec.marks.weights if spec.jump_intensity > 0.0 else None
    cdfs = [None if w is None else np.cumsum(w) / np.cumsum(w)[-1] for w in (probs, marks)]
    return vals, p_jump, *cdfs


def _draw_one(rng: np.random.Generator, spec: SddeSpec, grid: TimeGrid, tables):
    n = grid.n_steps
    counts = np.zeros((n, spec.n_marks), dtype=np.int64)
    if tables is None:
        dw = rng.standard_normal((n, spec.brownian_dim)) * np.sqrt(grid.step)
        if spec.jump_intensity > 0.0:
            # Mark-wise thinning: independent Poisson(lam * w_k * dt) counts
            # per mark reproduce a Poisson(lam * dt) clock with i.i.d. marks.
            for k, w in enumerate(spec.marks.weights):
                counts[:, k] = rng.poisson(spec.jump_intensity * w * grid.step, size=n)
        return dw, counts
    vals, p_jump, cdf, mark_cdf = tables
    dw = vals[cdf.searchsorted(rng.random(n), side="right")][:, None]
    if mark_cdf is not None:
        jumped = rng.random(n) < p_jump
        mark = mark_cdf.searchsorted(rng.random(n), side="right")
        counts[np.flatnonzero(jumped), mark[jumped]] = 1
        dw[jumped] = 0.0
    return dw, counts


def sample_noise(spec: SddeSpec, grid: TimeGrid, seed: int, quantization: Optional[int] = None) -> NoiseDraw:
    """Draw the driving noise for one path.

    With ``quantization`` set to 2 or 3 the Brownian increments take the
    two-point (+-sqrt(dt)) or three-point Gauss-Hermite values and jumps
    become a single Bernoulli(lam*dt) arrival per step carrying one mark
    (the increment is zero on jump steps), matching the lattice used by the
    exact backward-induction oracle.  Identical arguments give identical
    draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dw, counts = _draw_one(rng, spec, grid, _draw_tables(spec, grid, quantization))
    return NoiseDraw(brownian=dw, jump_counts=counts, seed=seed)


def _path_values(spec: SddeSpec, grid: TimeGrid, seed: int, tables, then, p: int) -> tuple:
    """Path p's noise, then what the hook draws from the same stream."""
    # Child p of SeedSequence(seed).spawn(n_paths), built as the loop reaches it.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p,)))
    values = _draw_one(rng, spec, grid, tables)
    return values if then is None else values + tuple(then(p, rng))


def _draw_paths(spec: SddeSpec, grid: TimeGrid, seed: int, tables, then, lo: int, hi: int, out: list) -> None:
    """Draw paths [lo, hi) of a batch into those rows of the arrays in ``out``."""
    for p in range(lo, hi):
        for arr, v in zip(out, _path_values(spec, grid, seed, tables, then, p)):
            arr[p] = v


def _batch_array(n_paths: int, value, shared: bool) -> np.ndarray:
    """An array for ``value`` per path; in anonymous shared memory when ``shared``."""
    value = np.asarray(value)
    shape = (n_paths,) + value.shape
    nbytes = value.dtype.itemsize * int(np.prod(shape))
    if not (shared and nbytes):  # mmap rejects length 0
        return np.empty(shape, dtype=value.dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=value.dtype).reshape(shape)


def _noise_batch(spec: SddeSpec, grid: TimeGrid, seed: int, n_paths: int, quantization, then=None):
    """``sample_noise_batch`` with a hook that draws more from each path's stream.

    ``then(p, rng)`` runs after path p's noise and returns a tuple of
    values, each of one shape and dtype for every path; they come back
    stacked over the paths after the noise arrays.
    Path 0 is drawn first; its values shape the output arrays.  From
    ``FORK_MIN_PATHS`` paths on, when ``_may_fork()`` holds, those arrays
    are in shared memory and a forked child draws the second half of the
    batch into them while this process draws the first; without a usable
    child this process draws both.  Each path keeps its own stream, so
    the outputs are the same.
    """
    tables = _draw_tables(spec, grid, quantization)
    if n_paths == 0:
        return (np.empty((0, grid.n_steps, spec.brownian_dim)),
                np.empty((0, grid.n_steps, spec.n_marks), dtype=np.int64))
    first = _path_values(spec, grid, seed, tables, then, 0)
    fork = n_paths >= FORK_MIN_PATHS and _may_fork()
    out = [_batch_array(n_paths, v, fork) for v in first]
    for arr, v in zip(out, first):
        arr[0] = v
    half = max(n_paths // 2, 1)  # path 0 is drawn already
    with _Child.beside(fork, _draw_paths, spec, grid, seed, tables, then, half, n_paths, out) as second_half:
        _draw_paths(spec, grid, seed, tables, then, 1, half, out)
        second_half()
    return tuple(out)


def sample_noise_batch(spec: SddeSpec, grid: TimeGrid, seed: int, n_paths: int, quantization: Optional[int] = None):
    """Noise for a batch of paths, one spawned stream per path.

    Returns ``(brownian, counts)`` with shapes (n_paths, n_steps,
    brownian_dim) and (n_paths, n_steps, n_marks).  Path p's noise depends
    only on ``seed`` and p, so a batch's first paths equal a smaller batch.
    """
    return _noise_batch(spec, grid, seed, n_paths, quantization)


def _as_batch(value, shape):
    out = np.asarray(value, dtype=float)
    return np.broadcast_to(out, shape)


def euler_increment(
    spec: SddeSpec,
    dt: float,
    t: float,
    x: np.ndarray,
    y: np.ndarray,
    mode: int,
    dw: np.ndarray,
    jump_counts: Optional[np.ndarray],
) -> np.ndarray:
    """One Euler increment for a batch of states.

    ``x``, ``y`` have shape (n, dim), ``dw`` shape (n, brownian_dim) and
    ``jump_counts`` shape (n, n_marks) (ignored when the dynamics have
    no jumps).  The jump compensator is subtracted as an exact finite
    sum over the mark atoms.
    """
    n_paths = x.shape[0]
    a = _as_batch(spec.drift(t, x, y, mode), (n_paths, spec.dim))
    sig = _as_batch(spec.diffusion(t, x, y, mode), (n_paths, spec.dim, spec.brownian_dim))
    dx = a * dt + np.einsum("pdb,pb->pd", sig, dw)
    if spec.jump_intensity > 0.0:
        lam = spec.jump_intensity
        for k in range(spec.n_marks):
            g = _as_batch(spec.jump_coeff(t, x, y, spec.marks.atoms[k], mode), (n_paths, spec.dim))
            dx = dx + jump_counts[:, k, None] * g - dt * lam * spec.marks.weights[k] * g
    return dx


def _check_state(spec: SddeSpec, x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)) or np.linalg.norm(x, axis=1).max() > spec.state_bound:
        raise DivergedError(step)


def _lookback(buffer: np.ndarray, presegment: np.ndarray, i: int) -> np.ndarray:
    """States at t_i minus the delay, read from a (n_paths, n_steps + 1, dim) buffer.

    The delay in steps is ``presegment.shape[0]``; before the delay has
    elapsed the initial segment supplies the value.
    """
    j = i - presegment.shape[0]
    if j >= 0:
        return buffer[:, j]
    return np.broadcast_to(presegment[i], buffer[:, i].shape)


def _euler_step(
    spec: SddeSpec,
    grid: TimeGrid,
    i: int,
    x: np.ndarray,
    y: np.ndarray,
    mode: np.ndarray,
    brownian: np.ndarray,
    jump_counts: np.ndarray,
) -> np.ndarray:
    """States at t_{i+1} of a batch whose paths may run in different modes.

    ``mode`` holds each path's mode on [t_i, t_{i+1}); ``brownian`` and
    ``jump_counts`` are the whole batch's noise, as from
    :func:`sample_noise_batch`.  Raises DivergedError(i + 1) when a new
    state is non-finite or beyond ``state_bound``.
    """
    x_new = np.empty_like(x)
    for b in np.unique(mode):
        sel = mode == b
        counts = jump_counts[sel, i] if spec.jump_intensity > 0.0 else None
        x_new[sel] = x[sel] + euler_increment(
            spec, grid.step, grid.times[i], x[sel], y[sel], int(b), brownian[sel, i], counts
        )
    _check_state(spec, x_new, i + 1)
    return x_new


def _switch_schedule(grid: TimeGrid, control) -> list:
    """Control as a list of (grid index, target mode), validated on-grid."""
    if control is None:
        return []
    times = getattr(control, "times", None)
    modes = getattr(control, "modes", None)
    if times is None or modes is None:
        raise TypeError("control must expose .times and .modes")
    return [(grid.index_of(t), int(b)) for t, b in zip(times, modes)]


def simulate_batch(
    spec: SddeSpec,
    grid: TimeGrid,
    control,
    brownian: np.ndarray,
    jump_counts: np.ndarray,
    switch_map: Optional[Callable] = None,
    initial_mode: int = 1,
):
    """Euler-evolve a batch of paths under one switching control.

    Parameters
    ----------
    brownian, jump_counts : ndarray
        Shapes (n_paths, n_steps, brownian_dim) and (n_paths, n_steps,
        n_marks) as produced by :func:`sample_noise_batch`.
    switch_map : callable or None
        ``switch_map(b_from, b_to, t, x) -> x`` applied at each switch;
        identity when None.
    initial_mode : int
        Mode in force before the first switch.

    Returns
    -------
    states : ndarray, shape (n_paths, n_steps + 1, dim)
        Post-switch states at every grid point.
    modes : ndarray, shape (n_steps + 1,)
        Mode on [t_i, t_{i+1}); last entry is the mode at the horizon.
    """
    n = grid.n_steps
    n_paths = brownian.shape[0]
    pres = spec.presegment(grid)
    schedule = _switch_schedule(grid, control)

    states = np.empty((n_paths, n + 1, spec.dim))
    modes = np.empty(n + 1, dtype=np.int64)
    x = np.broadcast_to(spec.initial_state(), (n_paths, spec.dim)).copy()
    mode = int(initial_mode)
    pos = 0

    for i in range(n + 1):
        # The Euler step checks the states it makes; the initial state and
        # post-switch states are checked here, at their own step index.
        unchecked = i == 0
        while pos < len(schedule) and schedule[pos][0] == i:
            target = schedule[pos][1]
            if switch_map is not None:
                x = np.ascontiguousarray(_as_batch(switch_map(mode, target, grid.times[i], x), x.shape))
            mode = target
            pos += 1
            unchecked = True
        if unchecked:
            _check_state(spec, x, i)
        states[:, i] = x
        modes[i] = mode
        if i < n:
            x = _euler_step(
                spec, grid, i, x, _lookback(states, pres, i), np.full(n_paths, mode), brownian,
                jump_counts,
            )
    return states, modes


def simulate_path(
    spec: SddeSpec,
    grid: TimeGrid,
    control,
    noise: NoiseDraw,
    switch_map: Optional[Callable] = None,
    initial_mode: int = 1,
) -> Path:
    """Simulate a single path from an explicit noise draw.

    Pure function of its arguments: the same spec, grid, control and draw
    give the identical path.  Switch times must sit on the grid
    (OffGridError otherwise); a non-finite or out-of-bound state raises
    DivergedError carrying the step index.
    """
    states, modes = simulate_batch(
        spec,
        grid,
        control,
        noise.brownian[None, ...],
        noise.jump_counts[None, ...],
        switch_map=switch_map,
        initial_mode=initial_mode,
    )
    return Path(grid=grid, states=states[0], presegment=spec.presegment(grid), modes=modes)


def estimate_moment(
    spec: SddeSpec,
    grid: TimeGrid,
    control,
    p: float,
    n_paths: int,
    seed: int,
    switch_map: Optional[Callable] = None,
    initial_mode: int = 1,
    quantization: Optional[int] = None,
):
    """Monte Carlo estimate of E[sup_t |X_t|^p] with its standard error."""
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    dw, counts = sample_noise_batch(spec, grid, seed, n_paths, quantization)
    states, _ = simulate_batch(spec, grid, control, dw, counts, switch_map, initial_mode)
    sup = np.linalg.norm(states, axis=2).max(axis=1)
    vals = sup**p
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_paths))


def path_to_csv(path: Path, fileobj: io.TextIOBase) -> None:
    """Write a path as CSV with columns time, mode, x_1..x_dim."""
    dim = path.states.shape[1]
    header = "time,mode," + ",".join(f"x_{j + 1}" for j in range(dim))
    fileobj.write(header + "\n")
    d = path.delay_steps
    dt = path.grid.step
    for j in range(d):
        row = [repr((j - d) * dt), str(int(path.modes[0]))] + [
            repr(float(v)) for v in path.presegment[j]
        ]
        fileobj.write(",".join(row) + "\n")
    for i, t in enumerate(path.grid.times):
        row = [repr(float(t)), str(int(path.modes[i]))] + [
            repr(float(v)) for v in path.states[i]
        ]
        fileobj.write(",".join(row) + "\n")
