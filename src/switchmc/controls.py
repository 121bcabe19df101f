"""Mode sets, switching controls, costs, jump maps, rewards, validators.

A control is a finite sequence of (time, target mode) pairs with
nondecreasing on-grid times and no self-switches.  The total reward of a
control is the expectation of accumulated running rewards plus the
terminal reward minus the switch costs paid along the way, with the
running term accumulated at left endpoints.  Structural
assumptions on the cost/jump-map family (loop-cost floor, terminal
no-switch margin, chain reduction) each get an exhaustive finite check
that either passes or returns a concrete witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .sdde import OffGridError, SddeSpec, TimeGrid, _mean_se, sample_noise_batch, simulate_batch

# Random chains drawn per chain length by validate_cycle_reduction.
REDUCTION_CHAINS = 25
# (cycle, time assignment) totals validate_no_free_loop holds at once:
# 64 KiB per temporary, so the check adds next to nothing to peak memory.
_LOOP_CELLS = 1 << 13

__all__ = [
    "ModeSet",
    "SwitchingControl",
    "SwitchingCostModel",
    "JumpMapFamily",
    "RewardSpec",
    "SwitchingProblem",
    "ValidationReport",
    "validate_control",
    "validate_no_free_loop",
    "validate_terminal_no_switch",
    "validate_cycle_reduction",
    "validate_target_only",
    "evaluate_reward",
]


@dataclass(frozen=True)
class ModeSet:
    """Operating modes labelled 1..n_modes with a designated initial mode."""

    n_modes: int
    initial: int = 1

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError("need at least two modes")
        if not 1 <= self.initial <= self.n_modes:
            raise ValueError("initial mode out of range")

    @property
    def labels(self) -> range:
        return range(1, self.n_modes + 1)

    def others(self, b: int):
        return [m for m in self.labels if m != b]


@dataclass(frozen=True)
class SwitchingControl:
    """Switch times and target modes, one entry per switch."""

    times: tuple = ()
    modes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "modes", tuple(int(b) for b in self.modes))
        if len(self.times) != len(self.modes):
            raise ValueError("times and modes must have equal length")

    @classmethod
    def empty(cls) -> "SwitchingControl":
        return cls((), ())

    @property
    def n_switches(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SwitchingCostModel:
    """Nonnegative switch costs c(b_from, b_to, t) with a loop-cost floor.

    ``loop_floor`` is the declared lower bound on the total cost of any
    mode cycle; :func:`validate_no_free_loop` checks it exhaustively.
    """

    cost: Callable
    loop_floor: float

    def __post_init__(self):
        if not self.loop_floor > 0.0:
            raise ValueError("loop_floor must be strictly positive")

    def __call__(self, b_from: int, b_to: int, t: float) -> float:
        c = float(self.cost(b_from, b_to, t))
        if not c >= 0.0:
            raise ValueError(f"negative switch cost c({b_from},{b_to},{t}) = {c}")
        return c

    @classmethod
    def from_table(cls, table, loop_floor: float) -> "SwitchingCostModel":
        """Constant costs from a matrix indexed by (b_from - 1, b_to - 1)."""
        arr = np.asarray(table, dtype=float)
        return cls(cost=lambda bf, bt, t: arr[bf - 1, bt - 1], loop_floor=loop_floor)

    @classmethod
    def affine(cls, base: float, slope: float, loop_floor: float) -> "SwitchingCostModel":
        """Pair-independent costs base + slope * t."""
        return cls(cost=lambda bf, bt, t: base + slope * t, loop_floor=loop_floor)


@dataclass(frozen=True)
class JumpMapFamily:
    """State resets h(b_from, b_to, t, x) applied at switches.

    ``apply`` must accept batched states (n, dim), row r of its output
    depending only on row r of ``x``.  ``reduction_length`` is the
    declared chain-reduction length checked by
    :func:`validate_cycle_reduction`.  ``target_only`` declares that
    ``apply`` ignores ``b_from`` (the reset depends on the target mode
    alone), which lets the regression solver close same-instant switch
    chains over one moved-state table per target mode;
    :func:`validate_target_only` checks the declaration on probe states.
    The regression solver may call ``apply`` in a forked child process
    (see :func:`switchmc.solver.solve`), so it must not rely on side
    effects.
    """

    apply: Callable
    reduction_length: int = 2
    target_only: bool = False

    @classmethod
    def identity(cls) -> "JumpMapFamily":
        return cls(apply=lambda bf, bt, t, x: x, target_only=True)

    def reset(self, b_from: int, b_to: int, t: float, x: np.ndarray) -> np.ndarray:
        """``apply`` on the batch ``x`` as a read-only float array of ``x``'s shape."""
        out = np.asarray(self.apply(b_from, b_to, t, x), dtype=float)
        if out.shape != x.shape:
            return np.broadcast_to(out, x.shape)
        out = out.view()
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class RewardSpec:
    """Running and terminal rewards.

    ``running(t, x, mode) -> (n,)`` and ``terminal(x) -> (n,)`` on batched
    states, row r of the output depending only on row r of ``x``.  The
    regression solver may call them in a forked child process (see
    :func:`switchmc.solver.solve`), so they must not rely on side effects.
    """

    running: Callable
    terminal: Callable


@dataclass(frozen=True)
class SwitchingProblem:
    """A complete instance: dynamics, modes, costs, jump maps, rewards."""

    dynamics: SddeSpec
    modes: ModeSet
    costs: SwitchingCostModel
    jump_maps: JumpMapFamily
    reward: RewardSpec
    history_reward: Optional[Callable] = None
    """Optional extra terminal reward of the control history itself:
    ``history_reward(times, modes, states) -> (n_paths,)``."""

    @property
    def switch_map(self) -> Callable:
        return self.jump_maps.apply

    def control_cost(self, control: SwitchingControl) -> float:
        total = 0.0
        prev = self.modes.initial
        for t, b in zip(control.times, control.modes):
            total += self.costs(prev, b, t)
            prev = b
        return total


def reject_history_reward(problem: SwitchingProblem, who: str) -> None:
    """Raise ValueError when ``problem`` carries a history reward ``who`` would ignore."""
    if problem.history_reward is not None:
        raise ValueError(f"{who} ignores history_reward; only evaluate_reward honours it")


def validate_control(control: SwitchingControl, mode_set: ModeSet, grid: TimeGrid) -> list:
    """Structural admissibility check; returns a list of complaints (empty = ok)."""
    complaints = []
    prev_t = 0.0
    prev_b = mode_set.initial
    for j, (t, b) in enumerate(zip(control.times, control.modes)):
        if t < prev_t:
            complaints.append(f"switch {j}: time {t} decreases below {prev_t}")
        if not (0.0 <= t <= grid.horizon):
            complaints.append(f"switch {j}: time {t} outside [0, {grid.horizon}]")
        else:
            try:
                grid.index_of(t)
            except OffGridError:
                complaints.append(f"switch {j}: time {t} is off the grid (step {grid.step})")
        if b == prev_b:
            complaints.append(f"switch {j}: target mode {b} equals the current mode")
        if not 1 <= b <= mode_set.n_modes:
            complaints.append(f"switch {j}: mode {b} outside 1..{mode_set.n_modes}")
        prev_t, prev_b = t, b
    return complaints


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    detail: str
    witness: Optional[tuple] = None
    margin: Optional[float] = None


def validate_no_free_loop(
    costs: SwitchingCostModel, mode_set: ModeSet, time_samples: Sequence[float]
) -> ValidationReport:
    """Exhaustively check that every mode cycle costs at least the floor.

    Enumerates every cycle through distinct modes (length 2..n_modes, all
    traversal orders) and every nondecreasing assignment of times from
    ``time_samples`` to its legs, including the closing leg.  Returns the
    minimum total found; a witness below the floor fails the report.
    Each cost c(b, b2, t) is read once, through ``costs`` so that a
    negative one still raises.
    """
    if mode_set.n_modes > 8:
        raise ValueError("exhaustive loop check supports at most 8 modes")
    ts = sorted(set(float(t) for t in time_samples))
    if not ts:
        raise ValueError("need at least one time sample")
    n_modes = mode_set.n_modes
    table = np.zeros((n_modes, n_modes, len(ts)))
    for bf in mode_set.labels:
        for bt in mode_set.others(bf):
            for i, t in enumerate(ts):
                table[bf - 1, bt - 1, i] = costs(bf, bt, t)
    # Per cycle length, every (cycle, assignment) total at once, in blocks of
    # cycles.  Legs are added in order, as a sequential sum would, and
    # argmin takes the first minimum in (cycle, assignment) order.
    best = None
    for length in range(2, n_modes + 1):
        assignments = list(itertools.combinations_with_replacement(range(len(ts)), length))
        when = np.array(assignments).T
        cycles = itertools.permutations(range(n_modes), length)
        while block := list(itertools.islice(cycles, max(1, _LOOP_CELLS // len(assignments)))):
            src = np.array(block).T
            dst = np.roll(src, -1, axis=0)
            totals = np.zeros((len(block), len(assignments)))
            for leg in range(length):
                totals += table[src[leg, :, None], dst[leg, :, None], when[leg]]
            c, a = divmod(int(np.argmin(totals)), len(assignments))
            if best is None or totals[c, a] < best[0]:
                cycle = tuple(b + 1 for b in block[c])
                best = (float(totals[c, a]), cycle, tuple(ts[i] for i in assignments[a]))
    total, cycle, assignment = best
    ok = total >= costs.loop_floor - 1e-12
    detail = f"minimum cycle cost {total} over floor {costs.loop_floor}"
    return ValidationReport(ok=ok, detail=detail, witness=(cycle, assignment), margin=total)


def _switch_then_stop(reward, costs, jump_maps, mode_set: ModeSet, b: int, t: float, x) -> np.ndarray:
    """Terminal reward at ``x`` after a switch from b into each other mode at t, minus its cost."""
    return np.array([np.asarray(reward.terminal(jump_maps.reset(b, b2, t, x)), dtype=float)
                     - costs(b, b2, t) for b2 in mode_set.others(b)])


def validate_terminal_no_switch(
    reward: RewardSpec,
    costs: SwitchingCostModel,
    jump_maps: JumpMapFamily,
    mode_set: ModeSet,
    horizon: float,
    probe_states: np.ndarray,
) -> ValidationReport:
    """Check that switching at the horizon strictly loses at every probe state."""
    probes = np.atleast_2d(np.asarray(probe_states, dtype=float))
    g_here = np.asarray(reward.terminal(probes), dtype=float)
    worst = None
    for b in mode_set.labels:
        candidates = _switch_then_stop(reward, costs, jump_maps, mode_set, b, horizon, probes)
        for b2, margin in zip(mode_set.others(b), g_here - candidates):
            i = int(np.argmin(margin))
            if worst is None or margin[i] < worst[0]:
                worst = (float(margin[i]), (b, b2, probes[i].copy()))
    ok = worst[0] > 0.0
    return ValidationReport(
        ok=ok,
        detail=f"minimum terminal margin {worst[0]}",
        witness=worst[1],
        margin=worst[0],
    )


def _compose_chain(jump_maps: JumpMapFamily, chain: Sequence[int], t: float, probes: np.ndarray) -> np.ndarray:
    x = probes
    for bf, bt in zip(chain[:-1], chain[1:]):
        x = jump_maps.reset(bf, bt, t, x)
    return x


def validate_cycle_reduction(
    jump_maps: JumpMapFamily,
    mode_set: ModeSet,
    probe_states: np.ndarray,
    times: Sequence[float] = (0.0,),
    seed: int = 0,
) -> ValidationReport:
    """Check that long switch chains reduce to short ones on the probes.

    With k the declared ``jump_maps.reduction_length``, for
    ``REDUCTION_CHAINS`` random mode chains of each length k+1 .. k+3 and
    every time in ``times``, the composed jump map must agree (within
    1e-9 at every probe) with the composition along some subsequence of
    at most k modes; the trivial subsequence composes to the identity.
    Returns the first offending chain as a witness.
    """
    if mode_set.n_modes > 5:
        raise ValueError("reduction check supports at most 5 modes")
    k = jump_maps.reduction_length
    probes = np.atleast_2d(np.asarray(probe_states, dtype=float))
    rng = np.random.default_rng(seed)
    for length in range(k + 1, k + 4):
        for _ in range(REDUCTION_CHAINS):
            chain = [int(rng.integers(1, mode_set.n_modes + 1))]
            while len(chain) < length:
                nxt = int(rng.integers(1, mode_set.n_modes + 1))
                if nxt != chain[-1]:
                    chain.append(nxt)
            for t in times:
                full = _compose_chain(jump_maps, chain, t, probes)
                if not _has_short_match(jump_maps, chain, k, t, probes, full):
                    return ValidationReport(
                        ok=False,
                        detail=f"chain {tuple(chain)} at t={t} has no reduction of length <= {k}",
                        witness=(tuple(chain), t),
                    )
    return ValidationReport(ok=True, detail=f"all sampled chains reduce to length <= {k}")


def _has_short_match(jump_maps, chain, k, t, probes, full) -> bool:
    n = len(chain)
    if np.max(np.abs(full - probes)) <= 1e-9:
        return True  # empty subsequence: identity
    for size in range(2, min(k, n) + 1):
        for idx in itertools.combinations(range(n), size):
            sub = [chain[i] for i in idx]
            if any(a == b for a, b in zip(sub[:-1], sub[1:])):
                continue
            if np.max(np.abs(_compose_chain(jump_maps, sub, t, probes) - full)) <= 1e-9:
                return True
    return False


def validate_target_only(
    jump_maps: JumpMapFamily,
    mode_set: ModeSet,
    probe_states: np.ndarray,
    times: Sequence[float],
) -> ValidationReport:
    """Check that the reset into each mode is the same from every source.

    At every probe state and time, the resets into a target must be
    exactly equal across source modes, since the regression solver reads
    them from one arbitrary source.  The witness is (source, other
    source, target, t) for the first pair that differs.
    """
    probes = np.atleast_2d(np.asarray(probe_states, dtype=float))
    for t in times:
        for b2 in mode_set.labels:
            first, *rest = mode_set.others(b2)
            ref = jump_maps.reset(first, b2, t, probes)
            for bf in rest:
                if not np.array_equal(jump_maps.reset(bf, b2, t, probes), ref):
                    return ValidationReport(
                        ok=False,
                        detail=f"resets {first}->{b2} and {bf}->{b2} differ at t={t}",
                        witness=(first, bf, b2, t),
                    )
    return ValidationReport(
        ok=True, detail=f"resets agree across sources at {probes.shape[0]} probes x {len(times)} times"
    )


def _add_running(problem: SwitchingProblem, grid: TimeGrid, i: int, x, mode, total) -> None:
    """Add each path's running reward over [t_i, t_{i+1}) at its states ``x`` and ``mode`` to ``total``.

    Mode groups come in ``np.unique`` order; a per-path total summed
    instant by instant, in ascending order, is the same float however the
    instants are spread over the caller's loop.
    """
    for b in np.unique(mode):
        sel = mode == b
        total[sel] += grid.step * np.asarray(
            problem.reward.running(grid.times[i], x[sel], int(b)), dtype=float
        )


def _path_totals(problem: SwitchingProblem, grid: TimeGrid, states, modes, costs) -> np.ndarray:
    """Each path's running rewards at left endpoints, plus its terminal reward, minus ``costs``.

    ``states`` and ``modes`` are whole records, (n_paths, n_steps + 1, dim)
    and (n_paths, n_steps + 1); the running rewards are added by
    ``_add_running``, as ``certify`` adds them during its forward loop.
    """
    n = grid.n_steps
    total = np.zeros(states.shape[0])
    for i in range(n):
        _add_running(problem, grid, i, states[:, i], modes[:, i], total)
    total += np.asarray(problem.reward.terminal(states[:, n]), dtype=float)
    return total - costs


def _simulate_control(problem: SwitchingProblem, grid: TimeGrid, control: SwitchingControl,
                      n_paths: int, seed: int, quantization: Optional[int] = None):
    """(states, modes) of ``n_paths`` paths of the problem under ``control``, drawn from ``seed``."""
    dw, counts = sample_noise_batch(problem.dynamics, grid, seed, n_paths, quantization)
    return simulate_batch(problem.dynamics, grid, control, dw, counts,
                          switch_map=problem.switch_map, initial_mode=problem.modes.initial)


def evaluate_reward(
    problem: SwitchingProblem,
    grid: TimeGrid,
    control: SwitchingControl,
    n_paths: int,
    seed: int,
    quantization: Optional[int] = None,
):
    """Monte Carlo estimate of a control's total reward and its standard error.

    Running rewards at left endpoints, the terminal reward at the
    post-switch horizon state and any history reward, less the exact
    switch costs, are summed per path by ``_path_totals`` from the whole
    record of states, which ``history_reward`` reads; ``certify`` adds
    the same running rewards, in the same order, as its forward loop goes.
    Inadmissible controls and non-finite totals raise ValueError.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    complaints = validate_control(control, problem.modes, grid)
    if complaints:
        raise ValueError("; ".join(complaints))
    states, modes = _simulate_control(problem, grid, control, n_paths, seed, quantization)
    totals = _path_totals(problem, grid, states, np.broadcast_to(modes, states.shape[:2]),
                          problem.control_cost(control))
    if problem.history_reward is not None:
        totals += np.asarray(problem.history_reward(control.times, control.modes, states), dtype=float)
    if not np.isfinite(totals).all():
        raise ValueError("path rewards are not finite: the rewards must be finite")
    return _mean_se(totals)
