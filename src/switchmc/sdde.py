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

The forward loop is written once, in ``_simulate``.  It owns the path
and mode records, or writes into a window of the last instants that the
caller sizes, hands each instant's states, their lookback (read by
``_lookback``) and the per-path modes to a switch hook, and advances the
batch with one ``euler_increment`` call per mode group.  Every state a
path holds at t_i, after any switch there, is checked against divergence
at index i.  ``simulate_batch`` (a fixed schedule), the solver's
exploration ensemble (random re-rolls) and its certification (the
policy's decisions) are hooks on that loop.

Per-path random streams are spawned from the root seed with
``numpy.random.SeedSequence``, so path p's noise depends only on the
seed and p: the first paths of a batch equal a smaller batch.  The loop
over the paths makes only the calls that read each stream, into that
path's row of the batch's raw arrays: for quantized noise the uniforms
(increment pick, then jump flag and mark pick), for Gaussian noise the
standard normals and the per-mark Poisson counts.  One step then
applies the noise law to the whole batch: the cdf lookups, the jump
mask, the mark index and the sqrt(dt) scale.  On Linux, in a
single-threaded process with a spare CPU, a batch of at least
``FORK_MIN_PATHS`` paths is drawn in two halves, the second by a forked
child straight into the raw arrays, which are then in shared memory.
Unless the child exits cleanly, without an exception or a warning, the
second half is drawn again here, so the outputs, warnings and exceptions
are those of an inline draw.  A hook that draws more from each stream
(the solver's mode draws) may run in the child, so it returns its values
rather than storing them.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._fork import _Child, _empty, _may_fork

# Divergence guard on the euclidean norm of the state.
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
    "Path",
    "SimulationError",
    "OffGridError",
    "DivergedError",
    "sample_noise_batch",
    "euler_increment",
    "simulate_batch",
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

    @functools.cached_property
    def times(self) -> np.ndarray:
        """The n_steps + 1 grid times, read-only; computed on first read."""
        times = np.linspace(0.0, self.horizon, self.n_steps + 1)
        times.flags.writeable = False
        return times

    def __getstate__(self):
        # A copy or unpickled grid computes its own times, read-only too.
        return {k: v for k, v in self.__dict__.items() if k != "times"}

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
        ``initial_segment(s) -> (dim,)`` for s in [-delay, 0].  The
        default, a single zero, fits ``dim == 1`` only.
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

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.brownian_dim < 1:
            raise ValueError("brownian_dim must be at least 1")
        if not self.jump_intensity >= 0.0:
            raise ValueError("jump_intensity must be nonnegative")
        if self.jump_intensity > 0.0 and (self.jump_coeff is None or self.marks is None):
            raise ValueError("jump_intensity > 0 requires jump_coeff and marks")
        if not self.delay >= 0.0:
            raise ValueError("delay must be nonnegative")
        n_values = np.size(self.initial_segment(0.0))
        if n_values != self.dim:
            raise ValueError(f"initial_segment(0.0) has {n_values} values, not dim = {self.dim}")

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
        return _lookback(self.states[None], self.presegment, i)[0]


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
    """What ``_noise_law`` reads, checked and tabulated once per batch (None for Gaussian noise).

    ``Generator.choice(k, size=n, p=w)`` draws ``c.searchsorted(random(n), side="right")``
    with c = cumsum(w) / cumsum(w)[-1], so these cdfs give the streams ``choice`` gave.
    """
    if quantization is None:
        return None
    vals, probs, p_jump = _quantized_law(spec, grid, quantization)
    marks = spec.marks.weights if spec.jump_intensity > 0.0 else None
    cdfs = [None if w is None else np.cumsum(w) / np.cumsum(w)[-1] for w in (probs, marks)]
    return vals, p_jump, *cdfs


def _raw_arrays(spec: SddeSpec, grid: TimeGrid, n_paths: int, tables, shared: bool) -> tuple:
    """The arrays ``_draw_one`` fills, one row per path; in shared memory when ``shared``.

    Quantized noise: uniforms (n_paths, 1 or 3, n_steps).  Gaussian noise:
    standard normals (n_paths, n_steps, brownian_dim) and mark counts
    (n_paths, n_steps, n_marks), zeros without jumps.
    """
    n = grid.n_steps
    if tables is not None:
        return (_empty((n_paths, 1 if tables[3] is None else 3, n), float, shared),)
    counts_shape = (n_paths, n, spec.n_marks)
    counts = (_empty(counts_shape, np.int64, shared) if spec.jump_intensity > 0.0
              else np.zeros(counts_shape, dtype=np.int64))
    return _empty((n_paths, n, spec.brownian_dim), float, shared), counts


def _draw_one(rng: np.random.Generator, spec: SddeSpec, grid: TimeGrid, raw: np.ndarray,
              counts: Optional[np.ndarray] = None) -> None:
    """One path's draws from its stream into its rows of the ``_raw_arrays``.

    Quantized noise (no ``counts``): the uniforms that pick the increment
    and, with jumps, those that flag a jump and pick its mark, in that
    order.  Gaussian noise: the standard normals, then per mark a
    Poisson count per step.
    """
    if counts is None:
        rng.random(out=raw)
        return
    rng.standard_normal(out=raw)
    if spec.jump_intensity > 0.0:
        # Mark-wise thinning: independent Poisson(lam * w_k * dt) counts
        # per mark reproduce a Poisson(lam * dt) clock with i.i.d. marks.
        for k, w in enumerate(spec.marks.weights):
            counts[:, k] = rng.poisson(spec.jump_intensity * w * grid.step, size=grid.n_steps)


def _noise_law(spec: SddeSpec, grid: TimeGrid, tables, raw: np.ndarray,
               counts: Optional[np.ndarray] = None) -> tuple:
    """``(brownian, counts)`` of a whole batch from its ``_raw_arrays``.

    Gaussian increments are the normals scaled by sqrt(dt), in place.  A
    quantized increment is the support value its uniform picks; a step
    whose jump uniform falls below lam * dt carries one arrival of the
    mark its mark uniform picks, and no increment.
    """
    if tables is None:
        raw *= np.sqrt(grid.step)
        return raw, counts
    vals, p_jump, cdf, mark_cdf = tables
    dw = vals[cdf.searchsorted(raw[:, 0], side="right")]
    counts = np.zeros(dw.shape + (spec.n_marks,), dtype=np.int64)
    if mark_cdf is not None:
        jumped = raw[:, 1] < p_jump
        paths, steps = np.nonzero(jumped)
        counts[paths, steps, mark_cdf.searchsorted(raw[paths, 2, steps], side="right")] = 1
        dw[jumped] = 0.0
    return dw[..., None], counts


def _stream(seed: int, p: int) -> np.random.Generator:
    """Path p's stream: child p of ``SeedSequence(seed).spawn(n_paths)``, built on its own."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p,)))


def _draw_paths(spec: SddeSpec, grid: TimeGrid, seed: int, then, lo: int, hi: int,
                raw: tuple, extras: list) -> None:
    """Draw paths [lo, hi) of a batch into those rows of ``raw``, the hook's values into ``extras``."""
    for p, rows in zip(range(lo, hi), zip(*(a[lo:hi] for a in raw))):
        rng = _stream(seed, p)
        _draw_one(rng, spec, grid, *rows)
        if then is not None:
            for arr, v in zip(extras, then(p, rng)):
                arr[p] = v


def _noise_batch(spec: SddeSpec, grid: TimeGrid, seed: int, n_paths: int, quantization, then=None):
    """``sample_noise_batch`` with a hook that draws more from each path's stream.

    ``then(p, rng)`` runs after path p's noise and returns a tuple of
    values, each of one shape and dtype for every path; they come back
    stacked over the paths after the noise arrays.
    From ``FORK_MIN_PATHS`` paths on, when ``_may_fork()`` holds, the raw
    and hook arrays are in shared memory and a forked child draws the
    second half of the batch into them while this process draws the
    first; unless the child exits cleanly this process draws both.  Each
    path keeps its own stream, so the outputs are the same.
    ``_noise_law`` then makes the noise of the whole batch at once.
    """
    tables = _draw_tables(spec, grid, quantization)
    fork = n_paths >= FORK_MIN_PATHS and _may_fork()
    raw = _raw_arrays(spec, grid, n_paths, tables, fork)
    extras, lo = [], int(then is not None and n_paths > 0)
    if lo:  # path 0's hook values shape the arrays the other paths fill
        rng = _stream(seed, 0)
        _draw_one(rng, spec, grid, *(a[0] for a in raw))
        for v in map(np.asarray, then(0, rng)):
            extras.append(_empty((n_paths,) + v.shape, v.dtype, fork))
            extras[-1][0] = v
    half = max(n_paths // 2, lo)
    with _Child.beside(fork, _draw_paths, spec, grid, seed, then, half, n_paths, raw, extras) as second_half:
        _draw_paths(spec, grid, seed, then, lo, half, raw, extras)
        second_half()
    return _noise_law(spec, grid, tables, *raw) + tuple(extras)


def sample_noise_batch(spec: SddeSpec, grid: TimeGrid, seed: int, n_paths: int, quantization: Optional[int] = None):
    """Noise for a batch of paths, one spawned stream per path.

    Returns ``(brownian, counts)`` with shapes (n_paths, n_steps,
    brownian_dim) and (n_paths, n_steps, n_marks).  Path p's noise depends
    only on ``seed`` and p, so a batch's first paths equal a smaller batch.
    With ``quantization`` set to 2 or 3 the Brownian increments take the
    two-point (+-sqrt(dt)) or three-point Gauss-Hermite values and jumps
    become a single Bernoulli(lam*dt) arrival per step carrying one mark
    (the increment is zero on jump steps), the law of the exact oracle's
    lattice.
    """
    return _noise_batch(spec, grid, seed, n_paths, quantization)


def _as_batch(value, shape):
    out = np.asarray(value, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


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


def _check_state(x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)) or np.linalg.norm(x, axis=1).max() > STATE_BOUND:
        raise DivergedError(step)


def _lookback(buffer: np.ndarray, presegment: np.ndarray, i: int) -> np.ndarray:
    """States at t_i minus the delay, read from a (n_paths, r, dim) buffer whose row i % r holds t_i.

    The delay in steps is ``presegment.shape[0]``; before the delay has
    elapsed the initial segment supplies the value.
    """
    j = i - presegment.shape[0]
    if j >= 0:
        return buffer[:, j % buffer.shape[1]]
    return np.broadcast_to(presegment[i], buffer[:, 0].shape)


def _simulate(spec: SddeSpec, grid: TimeGrid, mode: np.ndarray, brownian: np.ndarray,
              jump_counts: np.ndarray, switch: Callable, window: Optional[np.ndarray] = None) -> tuple:
    """Post-switch states (n_paths, n_steps + 1, dim) and modes (n_paths, n_steps + 1).

    At each instant i = 0..n_steps, ``switch(i, x, y, mode)`` gets the
    view ``x`` of the states at t_i, their lookback ``y`` (None at the
    horizon) and the per-path ``mode``, and may reset rows of ``x`` and
    change ``mode`` in place; ``modes[:, i]`` records the mode it leaves.
    The states at t_i are then checked; before the horizon each mode group
    takes one ``euler_increment`` into t_{i+1}, checked too, so ``switch``
    never sees a state that failed.  A state that is non-finite or beyond
    ``STATE_BOUND`` raises DivergedError(i).

    A caller that reads only the last instants passes ``window``, a
    (n_paths, r, dim) buffer with r >= min(n_steps + 1, delay steps + 2):
    row i % r then holds the states at t_i, so when ``switch`` runs at t_i
    the rows of t_{i-1} and of the lookback are still there.  No modes are
    recorded then, and ``(window, None)`` is returned.
    """
    n = grid.n_steps
    pres = spec.presegment(grid)
    if window is None:
        states = np.empty((brownian.shape[0], n + 1, spec.dim))
        modes = np.empty((brownian.shape[0], n + 1), dtype=np.int64)
    else:
        states, modes = window, None
    r = states.shape[1]
    states[:, 0] = spec.initial_state()
    for i in range(n + 1):
        x = states[:, i % r]
        y = _lookback(states, pres, i) if i < n else None
        switch(i, x, y, mode)
        if modes is not None:
            modes[:, i] = mode
        _check_state(x, i)
        if i == n:
            break
        x_new = states[:, (i + 1) % r]
        for b in np.unique(mode):
            sel = mode == b
            counts = jump_counts[sel, i] if spec.jump_intensity > 0.0 else None
            x_new[sel] = x[sel] + euler_increment(
                spec, grid.step, grid.times[i], x[sel], y[sel], int(b), brownian[sel, i], counts
            )
        _check_state(x_new, i + 1)
    return states, modes


def _switch_schedule(grid: TimeGrid, control) -> list:
    """Control as a list of (grid index, target mode), validated on-grid and in time order."""
    if control is None:
        return []
    times = getattr(control, "times", None)
    modes = getattr(control, "modes", None)
    if times is None or modes is None:
        raise TypeError("control must expose .times and .modes")
    steps = [grid.index_of(t) for t in times]
    if steps != sorted(steps):
        raise ValueError("switch times must not decrease")
    return [(j, int(b)) for j, b in zip(steps, modes)]


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

    An empty batch raises ValueError, and so do switch times that
    decrease; a switch time off the grid raises OffGridError, and a
    non-finite or out-of-bound state DivergedError carrying the step index.
    """
    if brownian.shape[0] < 1:
        raise ValueError(f"simulate_batch needs at least one path, got n_paths = {brownian.shape[0]}")
    schedule = _switch_schedule(grid, control)

    def switch(i, x, y, mode):
        for j, target in schedule:
            if j == i:
                if switch_map is not None:
                    x[:] = switch_map(int(mode[0]), target, grid.times[i], x)
                mode[:] = target

    mode = np.full(brownian.shape[0], int(initial_mode), dtype=np.int64)
    states, modes = _simulate(spec, grid, mode, brownian, jump_counts, switch)
    return states, modes[0].copy()  # not a view that keeps every path's record alive


def _mean_se(values: np.ndarray) -> tuple:
    """Sample mean of per-path values and its standard error."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.shape[0]))


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
