"""Regression Monte Carlo solver for the switching value family.

The value of being in mode b at grid time t_i with at most k switches
left is approximated by per-(budget, mode, time) linear regressions on
polynomial features of the current and delayed state.

Training data come from one exploration ensemble: every path starts from
the common initial state, gets a randomized starting mode, and re-rolls
its mode at random grid instants (applying the switch reset map, but no
cost, since randomization is a sampling device rather than a control).
That way each per-mode regression is fitted on, and later evaluated at,
states the controlled system actually reaches under mixed mode
histories.  Mode-frozen ensembles would park every mode in its own
corner of the state space and turn each cross-mode evaluation into an
extrapolation.

The family is built by backward induction in the budget index:

* Per (k, b, i) a regression on the paths that ran in mode b across
  [t_i, t_{i+1}) fits the conditional expectation of the next-step
  level-k value.
* The level-k value at (i, b) is the larger of the fitted continuation
  (running reward plus that fit) and the best switch, whose value is
  read from the level-(k-1) table of the target mode at the post-switch
  state, at the same instant, so same-instant switch chains compose.
  Closing that recursion needs the switch reset to be a function of the
  target mode alone; the moved values then live in one table per target
  mode.  ``solve`` checks that on probe states before any fit.
* Every surface evaluation is clipped to the empirical range of its
  regression targets.  A conditional mean cannot leave the target range,
  so the clip only suppresses polynomial extrapolation far from the
  training cloud.

The recursion is written once.  ``_backward_pass`` runs a contiguous
range of levels k_lo..k_hi in one time-major pass: from the horizon
down, each step builds its designs once, makes one multi-column fit per
mode for all levels of the range, and hands the fitted coefficients to
``_level_values``, which evaluates continuation and best intervention
level by level on top of level k_lo-1's post-switch table.  The main
pass calls it once per level, because it is also the stopping search and
must not fit levels above the one where the family settles.  The
standard-error blocks run as the groups of one pass over all levels up to
that one: each group is fitted on its own rows, and only the fits and the
products with their coefficients are per group.  On Linux, in a
single-threaded process with a spare CPU, a forked child runs that block
pass for every level up to k_max beside the main pass; its block roots
are taken when the main pass also ends at k_max (and computed inline if
the child sent nothing usable), and otherwise the child is killed and
the blocks run inline.  The outputs are identical either way, and the
child's warnings and exception reach the caller where the inline pass
would have raised them.
``ValueSurface`` stores the coefficients stacked per (step, mode) and
evaluates value tables for the policy through the same
``_level_values``, so decisions compare exactly what training compared.
A decision builds the design at its states once, reads the level-k
continuation from it, and asks only for the post-switch table of the
levels below; the pre-switch table, which no decision reads, is never
computed.

Certification resimulates the extracted policy on a fresh seed and
reports the gap between the root value and the realized reward.
"""

from __future__ import annotations

import functools
import io
import json
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ._fork import _Child, _may_fork
from .controls import SwitchingProblem, reject_history_reward, validate_target_only
from .sdde import TimeGrid, _euler_step, _lookback, _noise_batch, sample_noise_batch

__all__ = [
    "FeatureMap",
    "FitInfo",
    "SolveDiagnostics",
    "ValueSurface",
    "Policy",
    "CertifyReport",
    "solve",
    "extract_policy",
    "certify",
    "surface_to_csv",
    "diagnostics_to_json",
]

GAP_TOL_SCALE = 1e-3
RIDGE_SCALE = 1e-8
SE_BLOCKS = 8
# Paths per probe point in the convergence diagnostics.
PROBE_PATHS = 48
# Per-instant mode re-roll probability of the training ensemble.
EXPLORE_PROB = 0.15


@dataclass(frozen=True)
class FeatureMap:
    """Polynomial features of (current state, delayed state).

    Columns: constant, each variable, each variable to powers 2..degree,
    and pairwise products when cross_terms is set.  The delayed state
    contributes variables only when the problem has a positive delay.
    """

    degree: int = 2
    cross_terms: bool = True

    def design(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        v = x if y is None else np.concatenate([x, y], axis=1)
        nv = v.shape[1]
        out = np.empty((v.shape[0], self.n_features(nv, use_delay=False)))
        out[:, 0] = 1.0
        out[:, 1 : nv + 1] = v
        col = nv + 1
        for deg in range(2, self.degree + 1):
            for j in range(nv):
                out[:, col + j] = v[:, j] ** deg
            col += nv
        if self.cross_terms and self.degree >= 2:
            left, right = np.triu_indices(nv, 1)
            out[:, col:] = v[:, left] * v[:, right]
        return out

    def n_features(self, dim: int, use_delay: bool) -> int:
        nv = dim * (2 if use_delay else 1)
        p = 1 + nv + nv * max(self.degree - 1, 0)
        if self.cross_terms and self.degree >= 2:
            p += nv * (nv - 1) // 2
        return p


@dataclass(frozen=True)
class FitInfo:
    rank: int
    n_features: int
    used_ridge: bool
    lsq: tuple = field(repr=False, compare=False)  # (design, kept columns, target, solution)

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.n_features

    @functools.cached_property
    def resid_std(self):
        """Residual std, one entry per column for a 2-D target; computed on first read."""
        design, keep, target, sol = self.lsq
        rhs = target[:, None] if target.ndim == 1 else target
        resid = np.ascontiguousarray((rhs - design[:, keep] @ sol).T)
        std = np.sqrt(np.array([r @ r for r in resid]) / max(design.shape[0] - self.rank, 1))
        return float(std[0]) if target.ndim == 1 else std

    @functools.cached_property
    def gram_pinv(self) -> np.ndarray:
        """Pseudo-inverse of the Gram matrix of the kept columns; computed on first read."""
        design, keep, _, _ = self.lsq
        reduced = design[:, keep]
        return np.linalg.pinv(reduced.T @ reduced)


def _fit(design: np.ndarray, target: np.ndarray):
    """Least squares with constant-column pruning and a ridge fallback.

    Feature columns that are exactly constant across the training batch
    (beyond the leading intercept) carry no information and would let the
    minimum-norm solution smear the fitted level across them; evaluating
    such a fit at a state whose constant components differ, as happens
    when a switch map rewrites part of the state, then extrapolates
    wildly.  Those columns are dropped (their effect lands in the
    intercept) and get zero coefficients.  ``numpy.linalg.lstsq``
    resolves remaining rank deficiency by the minimum-norm solution,
    which keeps degenerate (e.g. deterministic) fits exact; the ridge
    path only triggers for the target columns where that still produces
    non-finite coefficients.

    A 2-D target fits one column per right-hand side in a single solve;
    the coefficients then have one column per target column and
    ``resid_std`` is an array with one entry per column.
    """
    keep = np.ptp(design, axis=0) != 0.0
    keep[0] = True
    reduced = design[:, keep]
    rhs = target[:, None] if target.ndim == 1 else target
    sol, _, rank, _ = np.linalg.lstsq(reduced, rhs, rcond=None)
    bad = ~np.all(np.isfinite(sol), axis=0)
    if bad.any():
        gram = reduced.T @ reduced
        p = gram.shape[0]
        lam = RIDGE_SCALE * np.trace(gram) / p
        sol[:, bad] = np.linalg.solve(gram + lam * np.eye(p), reduced.T @ rhs[:, bad])
    coef = np.zeros((design.shape[1], rhs.shape[1]))
    coef[keep] = sol
    info = FitInfo(int(rank), int(keep.sum()), bool(bad.any()), (design, keep, target, sol))
    return (coef[:, 0] if target.ndim == 1 else coef), info


def _prediction_se(info: FitInfo, eval_design: np.ndarray) -> np.ndarray:
    """Prediction standard error of a fit's first target column, on the columns ``_fit`` kept."""
    rows = eval_design[:, info.lsq[1]]
    lev = np.einsum("ij,jk,ik->i", rows, info.gram_pinv, rows)
    return info.resid_std[0] * np.sqrt(np.maximum(lev, 0.0))


def _isotonic(seq: np.ndarray) -> np.ndarray:
    """Least-squares nondecreasing fit by pool adjacent violators.

    Monotone input comes back unchanged, so exact (noise-free) level
    sequences are never perturbed.  A decreasing run is replaced by its
    mean, which averages statistically tied levels instead of lifting
    them to their upper envelope.
    """
    out = []
    counts = []
    for v in seq:
        out.append(float(v))
        counts.append(1)
        while len(out) > 1 and out[-2] > out[-1]:
            v2, w2 = out.pop(), counts.pop()
            v1, w1 = out.pop(), counts.pop()
            out.append((v1 * w1 + v2 * w2) / (w1 + w2))
            counts.append(w1 + w2)
    return np.repeat(np.array(out, dtype=float), counts)


def _moved_state(problem: SwitchingProblem, b2: int, t: float, x: np.ndarray) -> np.ndarray:
    """State after a switch into mode b2 (reset maps must ignore the source)."""
    labels = problem.modes.labels
    b_from = labels[0] if labels[0] != b2 else labels[1]
    return problem.jump_maps.reset(b_from, b2, t, x)


def _apply_switches(problem: SwitchingProblem, t: float, x, mode, rows, targets) -> None:
    """Switch paths ``rows`` into ``targets`` at time t, resetting ``x`` and ``mode`` in place.

    Each path is reset once, from the mode it was in when the call began.
    """
    sources = mode[rows]
    for b in np.unique(sources):
        for b2 in np.unique(targets[sources == b]):
            sel = rows[(sources == b) & (targets == b2)]
            x[sel] = problem.jump_maps.reset(int(b), int(b2), t, x[sel])
            mode[sel] = b2


def _switch_costs(problem: SwitchingProblem, t: float) -> np.ndarray:
    """Costs c(b, b2, t) as an n_modes x n_modes matrix with a +inf diagonal."""
    labels = problem.modes.labels
    return np.array(
        [[np.inf if b2 == b else problem.costs(b, b2, t) for b2 in labels] for b in labels]
    )


def _level_values(problem, fm, t, dt, x, yv, A, coef, target_range, below, cost,
                  groups=(slice(None),), moved_only=False):
    """The backward formula at one instant for a contiguous range of levels.

    The rows of ``x`` (delayed states ``yv``) form contiguous ``groups``,
    each with its own continuation fits of levels k_lo..k_lo+L-1:
    ``coef`` (n_groups, n_modes, L, n_features) and ``target_range``
    (n_groups, n_modes, L, 2).  ``A`` is the design at ``x`` or None, and
    ``below`` is level k_lo-1's post-switch value per target mode at
    these states, None when k_lo is 0.  ``cost`` is the instant's switch
    cost matrix.  Returns (tab, moved), each (L, n_modes, n_rows): the
    value per mode at ``x`` and the value per target mode at the
    post-switch states.  Each level's best intervention is computed once
    and serves both.  ``moved_only`` skips the pre-switch side, which no
    level of ``moved`` reads, and returns None for ``tab``.  Resets,
    rewards and designs run once over all rows, and each distinct state
    batch gets one design and one running reward per mode, found by
    content (identity resets reuse ``A`` and the pre-switch rewards).
    """
    levels = coef.shape[2]
    shape = (levels, problem.modes.n_modes, x.shape[0])
    tab = None if moved_only else np.empty(shape)
    moved = np.empty(shape)
    sides = [moved] if tab is None else [tab, moved]
    # Per distinct state batch: its design and its running reward by mode.
    built = [] if A is None else [(x, A, {})]

    def at(xs):
        for entry in built:
            if xs is entry[0] or np.array_equal(xs, entry[0]):
                return entry
        built.append((xs, fm.design(xs, yv), {}))
        return built[-1]

    def fill(side, xs, b):
        # One matrix-vector product per group and level: a matrix-matrix
        # product rounds differently, and exact ties between same-instant
        # switch chains (additive switch costs) would then break
        # differently in the policy than in training.
        _, D, run = at(xs)
        for rows, c, r in zip(groups, coef[:, b - 1], target_range[:, b - 1]):
            Dg, out = D[rows], side[:, b - 1, rows]
            for lev in range(levels):
                out[lev] = Dg @ c[lev]
            np.clip(out, r[:, :1], r[:, 1:], out=out)
        if b not in run:
            run[b] = dt * np.asarray(problem.reward.running(t, xs, b), dtype=float)
        side[:, b - 1] += run[b]

    for b in problem.modes.labels:
        if tab is not None:
            fill(tab, x, b)
        fill(moved, _moved_state(problem, b, t, x), b)
    # Continuation values are in place; each level now takes the larger
    # of continuation and best intervention into the level below.
    for lev in range(levels):
        if below is not None:
            best = (below[None] - cost[:, :, None]).max(axis=1)
            for side in sides:
                np.maximum(side[lev], best, out=side[lev])
        below = moved[lev]
    return tab, moved


class _Step(NamedTuple):
    """What the backward pass computed at one grid index, for all its levels."""

    i: int
    tab: np.ndarray  # (L, n_modes, n_rows) pre-switch values
    moved: np.ndarray  # (L, n_modes, n_rows) post-switch values
    coef: np.ndarray  # (n_groups, n_modes, L, n_features)
    target_range: np.ndarray  # (n_groups, n_modes, L, 2)
    A_pre: np.ndarray
    fits: list  # FitInfo per group and mode
    n_empty: int  # (group, mode) fits with no path in the mode, fitted on the whole group


def _backward_pass(problem, grid, fm, ens, groups, n_levels, below, cost, on_step=None) -> _Step:
    """Fit ``n_levels`` consecutive budget levels in one time-major pass.

    ``ens`` is (pre-switch states, post-switch states, absolute fit rows
    per (group, mode, step), terminal reward at the pre-switch horizon
    states).  Each of the contiguous row slices ``groups`` is fitted on
    its own rows only.  From the horizon down, the regression targets of
    every level at step i are the pre-switch values at step i+1, so each
    step builds its designs once and makes one multi-column fit per group
    and mode.  ``below`` is the post-switch table (n_steps, n_modes,
    n_rows) of the level under the lowest one, None when the range starts
    at level 0; ``cost`` holds the switch cost matrix per step.  Only one
    step's tables are alive at a time; ``on_step`` sees each step's
    record and the step-0 record is returned.
    """
    pre, post, fit_rows, g_pre = ens
    pres = problem.dynamics.presegment(grid)
    n = grid.n_steps
    m = problem.modes.n_modes
    nxt = np.broadcast_to(g_pre, (n_levels, m, pre.shape[0]))
    for i in range(n - 1, -1, -1):
        y_del = _lookback(post, pres, i) if pres.shape[0] else None
        A_post = fm.design(post[:, i], y_del)
        A_pre = fm.design(pre[:, i], y_del)
        coef = np.empty((len(groups), m, n_levels, A_post.shape[1]))
        target_range = np.empty((len(groups), m, n_levels, 2))
        fits = []
        n_empty = 0
        for g, rows_g in enumerate(groups):
            for b in problem.modes.labels:
                rows = fit_rows[(g, b, i)]
                if not rows.size:
                    rows = rows_g
                    n_empty += 1
                target = nxt[:, b - 1, rows].T
                c, info = _fit(A_post[rows], target)
                coef[g, b - 1] = c.T
                target_range[g, b - 1, :, 0] = target.min(axis=0)
                target_range[g, b - 1, :, 1] = target.max(axis=0)
                fits.append(info)
        tab, moved = _level_values(
            problem, fm, grid.times[i], grid.step, pre[:, i], y_del, A_pre, coef, target_range,
            None if below is None else below[i], cost[i], groups,
        )
        step = _Step(i, tab, moved, coef, target_range, A_pre, fits, n_empty)
        if on_step is not None:
            on_step(step)
        nxt = tab
    return step


def _fit_rows(mode_of_step, labels, groups):
    """Absolute indices of each group's rows in mode b across step i, keyed (group, b, i)."""
    return {(g, b, i): rows.start + np.flatnonzero(mode_of_step[rows, i] == b)
            for g, rows in enumerate(groups) for b in labels for i in range(mode_of_step.shape[1] - 1)}


@dataclass
class SolveDiagnostics:
    k_levels: int = 0
    k_max_requested: int = 0
    converged: bool = False
    final_gap: float = float("nan")
    gap_by_k: list = field(default_factory=list)
    rank_deficient_fits: int = 0
    ridge_fits: int = 0
    empty_subset_fits: int = 0
    probe_values: dict = field(default_factory=dict)
    probe_se: dict = field(default_factory=dict)
    root_values: dict = field(default_factory=dict)
    root_se: dict = field(default_factory=dict)


@dataclass
class ValueSurface:
    """Fitted value family, one continuation regression per (k, b, i).

    ``coef`` stacks the continuation coefficients as (n_steps, n_modes,
    k_levels + 1, n_features) and ``target_range`` the empirical ranges
    of their regression targets as (n_steps, n_modes, k_levels + 1, 2);
    ``switch_cost`` is the cost matrix per step (+inf diagonal).  The
    value itself is not a stored regression but the backward formula
    replayed on top of the continuation fits: the larger of continuation
    and best intervention, where interventions read the level-(k-1)
    values of the target modes at the post-switch states.  Training,
    ``value_at`` and the policy all evaluate that formula through the
    same function, so decisions reproduce what the training pass
    compared.
    """

    problem: SwitchingProblem
    grid: TimeGrid
    feature_map: FeatureMap
    use_delay: bool
    k_levels: int
    train_seed: int
    coef: np.ndarray
    target_range: np.ndarray
    switch_cost: np.ndarray
    root_value: dict
    root_se: dict
    diagnostics: SolveDiagnostics

    def design(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.feature_map.design(x, y if self.use_delay else None)

    def _tab_eval(
        self, i: int, x: np.ndarray, y: np.ndarray, k_hi: Optional[int] = None, *,
        moved_only: bool = False, design: Optional[np.ndarray] = None,
    ):
        """Value tables at interior index i for budgets 0..k_hi.

        Returns (tab, moved), each of shape (k_hi + 1, n_modes, n_rows):
        the value per mode at the given states, and the value per target
        mode at the corresponding post-switch states.  Levels are the raw
        per-budget fits; only reported root and probe values are
        monotonized, never the surfaces decisions compare, since a
        running max would bias the intervention side upward.

        The policy reads only ``moved`` and passes ``moved_only``: the
        pre-switch side is then not computed and ``tab`` comes back as
        None.  ``design`` is the design at ``x`` if the caller has built it.
        """
        if not 0 <= i < self.grid.n_steps:
            raise ValueError("value tables live on interior grid indices")
        levels = (self.k_levels if k_hi is None else k_hi) + 1
        return _level_values(
            self.problem, self.feature_map, self.grid.times[i], self.grid.step, x,
            y if self.use_delay else None, design, self.coef[None, i, :, :levels],
            self.target_range[None, i, :, :levels], None, self.switch_cost[i],
            moved_only=moved_only,
        )

    def value_at(self, k: int, b: int, i: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Fitted value of mode b with budget k at grid index i."""
        if i == self.grid.n_steps:
            return np.asarray(self.problem.reward.terminal(x), dtype=float)
        tab, _ = self._tab_eval(i, x, y, k_hi=k)
        return tab[k, b - 1]

    def continuation_at(self, k: int, b: int, i: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Value of staying in b across [t_i, t_{i+1}): running reward plus fit."""
        if i == self.grid.n_steps:
            return np.asarray(self.problem.reward.terminal(x), dtype=float)
        return self._continuation(k, b, i, x, self.design(x, y))

    def _continuation(self, k: int, b: int, i: int, x: np.ndarray, A: np.ndarray) -> np.ndarray:
        lo, hi = self.target_range[i, b - 1, k]
        run = self.grid.step * np.asarray(
            self.problem.reward.running(self.grid.times[i], x, b), dtype=float
        )
        return run + np.clip(A @ self.coef[i, b - 1, k], lo, hi)

    @property
    def y0(self) -> float:
        return self.root_value[(self.k_levels, self.problem.modes.initial)]

    @property
    def y0_se(self) -> float:
        return self.root_se[(self.k_levels, self.problem.modes.initial)]


def _randomized_ensemble(
    problem: SwitchingProblem,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    quantization,
    explore_prob: float,
):
    """Paths whose mode re-rolls at random grid instants.

    At time zero half the paths keep the initial mode and half draw a
    uniform one, so every mode carries data from the first step on; at
    interior instants each path switches to a uniform other mode with
    probability ``explore_prob``.  Reset maps are applied, costs are not
    (the randomization samples states, it does not act).  Returns
    pre-switch states, post-switch states, the mode driving each step
    and the delay in steps.  Per-path noise and mode draws come from one
    spawned stream each, so results do not depend on batching.
    """
    spec = problem.dynamics
    modes = problem.modes
    m = modes.n_modes
    n = grid.n_steps
    pres = spec.presegment(grid)

    def mode_draws(p, rng):
        return (rng.random(), rng.integers(0, m), rng.random(n),
                rng.integers(0, max(m - 1, 1), size=n))

    dw, counts, u_start, pick_start, u_switch, pick_switch = _noise_batch(
        spec, grid, seed, n_paths, quantization, then=mode_draws
    )

    x = np.broadcast_to(spec.initial_state(), (n_paths, spec.dim)).copy()
    mode = np.full(n_paths, modes.initial, dtype=np.int64)
    pre = np.empty((n_paths, n + 1, spec.dim))
    post = np.empty_like(pre)
    mode_of_step = np.empty((n_paths, n + 1), dtype=np.int64)

    for i in range(n):
        pre[:, i] = x
        if i == 0:
            target = pick_start + 1
            explore = (u_start >= 0.5) & (target != mode)
        else:
            # The pick-th label other than the path's mode.
            target = pick_switch[:, i] + 1
            target += target >= mode
            explore = u_switch[:, i] < explore_prob
        rows = np.flatnonzero(explore)
        _apply_switches(problem, grid.times[i], x, mode, rows, target[rows])
        post[:, i] = x
        mode_of_step[:, i] = mode
        x = _euler_step(spec, grid, i, x, _lookback(post, pres, i), mode, dw, counts)
    pre[:, n] = post[:, n] = x
    mode_of_step[:, n] = mode
    return pre, post, mode_of_step, pres.shape[0]


def solve(
    problem: SwitchingProblem,
    grid: TimeGrid,
    feature_map: Optional[FeatureMap] = None,
    k_max: Optional[int] = None,
    n_paths: int = 4000,
    seed: int = 0,
    quantization: Optional[int] = None,
) -> ValueSurface:
    """Fit the budget-indexed value family for k = 0..k_max backward.

    Stops early at the first k where both the root move and every
    statistically resolvable probe move against k-1 (the change beyond
    three paired standard errors) fall below 1e-3 * (1 + |root value|);
    otherwise runs to k_max and flags the surface as unconverged (with a
    warning carrying the last gap).  The standard-error blocks may run in
    a forked child (see the module docstring), so the problem's callables
    must not rely on side effects.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be nonnegative")
    reject_history_reward(problem, "the regression solver")
    if not problem.jump_maps.target_only:
        raise ValueError(
            "the regression solver needs target-only switch resets (the identity is one); "
            "source-dependent resets are only supported by the exact oracle"
        )
    fm = feature_map or FeatureMap()
    modes = problem.modes
    m = modes.n_modes
    labels = list(modes.labels)
    if k_max is None:
        k_max = m + 2
    n = grid.n_steps

    pre, post, mode_of_step, d = _randomized_ensemble(
        problem, grid, n_paths, seed, quantization, EXPLORE_PROB
    )
    use_delay = d > 0
    P = n_paths
    p = fm.n_features(problem.dynamics.dim, use_delay)
    probe_times = sorted({0, n // 4, n // 2, (3 * n) // 4} - {n})
    q = min(PROBE_PATHS, P)
    check = validate_target_only(
        problem.jump_maps, modes, pre[:q, probe_times].reshape(-1, pre.shape[2]),
        grid.times[probe_times],
    )
    if not check.ok:
        raise ValueError(f"jump maps declared target_only are not: {check.detail}")

    whole = [slice(0, P)]
    g_pre = np.asarray(problem.reward.terminal(pre[:, n]), dtype=float)
    ens_full = (pre, post, _fit_rows(mode_of_step, labels, whole), g_pre)
    cost = np.stack([_switch_costs(problem, t) for t in grid.times[:n]])

    diag = SolveDiagnostics(k_max_requested=k_max)
    coef = np.zeros((n, m, k_max + 1, p))
    target_range = np.zeros((n, m, k_max + 1, 2))
    root_value = {}
    root_se = {}

    def main_level(k: int, below):
        """Level k on the full ensemble; returns its post-switch table.

        Records the level's fits, root values and probe values with
        their design-conditional standard errors.  Regression targets
        stay raw; root and probe values are projected onto the
        nondecreasing-in-k cone once the budget loop finishes, since that
        is a property of the quantity they estimate.  Clamping the
        training targets instead would rectify fit noise upward at every
        step and compound that bias through the backward recursion.
        """
        moved_k = np.empty((n, m, P))
        probe_vals = {}
        probe_ses = {}

        def record(step: _Step):
            i = step.i
            moved_k[i] = step.moved[0]
            coef[i, :, k] = step.coef[0, :, 0]
            target_range[i, :, k] = step.target_range[0, :, 0]
            diag.empty_subset_fits += step.n_empty
            for b, info in zip(labels, step.fits):
                if info.rank_deficient:
                    diag.rank_deficient_fits += 1
                if info.used_ridge:
                    diag.ridge_fits += 1
                if i in probe_times:
                    probe_vals[(b, i)] = step.tab[0, b - 1, :q]
                    probe_ses[(b, i)] = _prediction_se(info, step.A_pre[:q])

        first = _backward_pass(problem, grid, fm, ens_full, whole, 1, below, cost, record)
        for b, info in zip(labels, first.fits):
            root_value[(k, b)] = float(first.tab[0, b - 1, 0])
            root_se[(k, b)] = float(_prediction_se(info, first.A_pre[:1])[0])
        keys = [(b, i) for b in labels for i in probe_times]
        diag.probe_values[k] = np.concatenate([probe_vals[key] for key in keys])
        diag.probe_se[k] = np.concatenate([probe_ses[key] for key in keys])
        return moved_k

    # The design-conditional root SE treats the regression targets as
    # data, but they are themselves fitted, so it badly understates the
    # sampling error of the whole recursion.  Rerunning the pass on
    # independent path blocks and reading the spread of their roots
    # captures that propagated noise; the design SE stays as a floor.
    # The blocks are the groups of one time-major pass that fits all
    # their levels, so they need from the main pass only its stopping
    # level.
    n_blocks = min(SE_BLOCKS, P // 2)
    edges = np.linspace(0, P, n_blocks + 1).astype(int)
    blocks = [slice(lo_e, hi_e) for lo_e, hi_e in zip(edges[:-1], edges[1:])]

    def run_blocks(levels: int) -> np.ndarray:
        """Each block's raw root values, (levels, n_modes, n_blocks)."""
        ens_blk = (pre, post, _fit_rows(mode_of_step, labels, blocks), g_pre)
        first = _backward_pass(problem, grid, fm, ens_blk, blocks, levels, None, cost)
        return first.tab[:, :, edges[:-1]]

    # With a spare CPU, a forked child runs the blocks for every level up
    # to k_max beside the main pass.  Its roots are taken when the main
    # pass also ends at k_max; otherwise it is killed and the blocks run
    # here for the levels kept.  Either way the roots come from the same
    # call on the same inputs.
    with _Child.beside(n_blocks >= 2 and _may_fork(), run_blocks, k_max + 1) as all_levels:
        # The main pass runs level by level: it is the stopping search, and
        # no level above the stopping one gets fitted.
        moved_prev = main_level(0, None)
        k_final = 0
        for k in range(1, k_max + 1):
            moved_prev = main_level(k, moved_prev)
            root_gap = max(abs(root_value[(k, b)] - root_value[(k - 1, b)]) for b in labels)
            probe_diff = np.abs(diag.probe_values[k] - diag.probe_values[k - 1])
            probe_gap = float(np.max(probe_diff))
            # A probe only counts as unsettled when its change is resolvable:
            # larger than three paired standard errors.  Noise-free problems
            # have zero SE, so this nets out to the raw gap there.
            pair_se = np.hypot(diag.probe_se[k], diag.probe_se[k - 1])
            probe_gap_net = float(np.max(np.maximum(probe_diff - 3.0 * pair_se, 0.0)))
            gap = max(root_gap, probe_gap_net)
            diag.gap_by_k.append(
                {
                    "k": k,
                    "gap": gap,
                    "root_gap": root_gap,
                    "probe_gap": probe_gap,
                    "probe_gap_net": probe_gap_net,
                    "min_probe_increment": float(
                        np.min(diag.probe_values[k] - diag.probe_values[k - 1])
                    ),
                }
            )
            k_final = k
            y0_k = root_value[(k, modes.initial)]
            if gap < GAP_TOL_SCALE * (1.0 + abs(y0_k)):
                diag.converged = True
                break
        diag.k_levels = k_final
        diag.final_gap = diag.gap_by_k[-1]["gap"] if diag.gap_by_k else 0.0
        for b in labels:
            fitted = _isotonic(np.array([root_value[(k, b)] for k in range(k_final + 1)]))
            for k in range(k_final + 1):
                root_value[(k, b)] = float(fitted[k])
        probe_stack = np.vstack([diag.probe_values[k] for k in range(k_final + 1)])
        for col in range(probe_stack.shape[1]):
            probe_stack[:, col] = _isotonic(probe_stack[:, col])
        for k in range(k_final + 1):
            diag.probe_values[k] = probe_stack[k]
        if n_blocks >= 2 and k_final == k_max:
            roots = all_levels()
    if n_blocks >= 2:
        if k_final < k_max:
            roots = run_blocks(k_final + 1)
        block_roots = {key: [] for key in root_value}
        for j in range(n_blocks):
            for b in labels:
                fitted = _isotonic(roots[:, b - 1, j])
                for k in range(k_final + 1):
                    block_roots[(k, b)].append(float(fitted[k]))
        for key, vals_blk in block_roots.items():
            spread = float(np.std(vals_blk, ddof=1) / np.sqrt(n_blocks))
            root_se[key] = max(root_se[key], spread)
    diag.root_values = {f"{k},{b}": val for (k, b), val in root_value.items()}
    diag.root_se = {f"{k},{b}": val for (k, b), val in root_se.items()}
    if diag.empty_subset_fits:
        warnings.warn(
            f"{diag.empty_subset_fits} regressions had no training path in their mode "
            "and were fitted on every path instead",
            RuntimeWarning,
        )
    if not diag.converged and k_max >= 1:
        warnings.warn(
            f"value family not settled at k_max={k_max}: last gap {diag.final_gap:.3e}",
            RuntimeWarning,
        )
    return ValueSurface(
        problem=problem,
        grid=grid,
        feature_map=fm,
        use_delay=use_delay,
        k_levels=k_final,
        train_seed=seed,
        coef=coef[:, :, : k_final + 1],
        target_range=target_range[:, :, : k_final + 1],
        switch_cost=cost,
        root_value=root_value,
        root_se=root_se,
        diagnostics=diag,
    )


@dataclass(frozen=True)
class Policy:
    """Switching rule read off a solved value surface.

    At grid index i in mode b it switches to the best alternative when
    the intervention value strictly beats the continuation value (ties
    continue, the lowest mode label wins among equal alternatives) and
    never switches at the horizon.  Both sides of the comparison are the
    same expressions the training pass maximized.
    """

    surface: ValueSurface

    @property
    def k(self) -> int:
        return self.surface.k_levels

    def decide_batch(self, i: int, b: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Target modes per path; 0 means continue."""
        surf = self.surface
        if i >= surf.grid.n_steps or self.k < 1:
            return np.zeros(x.shape[0], dtype=np.int64)
        A = surf.design(x, y)
        cont = surf._continuation(self.k, b, i, x, A)
        _, moved = surf._tab_eval(i, x, y, k_hi=self.k - 1, moved_only=True, design=A)
        # The +inf diagonal rules out staying; argmax keeps the lowest
        # label among tied targets.
        cand = moved[self.k - 1] - surf.switch_cost[i, b - 1][:, None]
        target = cand.argmax(axis=0)
        return np.where(cand.max(axis=0) > cont, target + 1, 0)

    def decide(self, i: int, b: int, x: np.ndarray, y: np.ndarray) -> int:
        return int(self.decide_batch(i, b, np.atleast_2d(x), np.atleast_2d(y))[0])


def extract_policy(surface: ValueSurface) -> Policy:
    """Policy from a surface solved with budget at least the mode count."""
    m = surface.problem.modes.n_modes
    k_max = surface.diagnostics.k_max_requested
    if k_max < m:
        raise ValueError(f"policy extraction needs k_max >= {m} (got {k_max})")
    return Policy(surface=surface)


@dataclass
class CertifyReport:
    lower_bound: float
    lower_bound_se: float
    y0: float
    y0_se: float
    gap: float
    se_combined: float
    n_paths: int
    switch_histogram: dict
    max_switches: int
    terminal_switches: int
    j_min: float
    j_max: float
    switch_bound: float
    switch_bound_ok: bool

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["switch_histogram"] = {str(k): int(v) for k, v in self.switch_histogram.items()}
        return out


def certify(
    policy: Policy,
    n_paths: int,
    seed: int,
    quantization: Optional[int] = None,
) -> CertifyReport:
    """Resimulate the policy pathwise on a fresh seed and report the gap.

    The certified value is an expected-reward estimate of the adapted
    control the policy induces, so it lower-bounds the true value up to
    Monte Carlo error; ``gap`` is (surface root value) - (certified
    value).  The seed must differ from the training seed.  A state that
    turns non-finite or leaves ``state_bound`` raises DivergedError with
    the step index, as the simulator does.

    Switches at one instant are resolved in rounds, one decision per mode
    per round, so that same-instant chains compose.  A mode whose rows and
    states equal those of its previous decision at the instant (no path
    left or entered it, or the ones that left came back unchanged) reuses
    that decision's targets instead of deciding again: the call would see
    the same batch and return the same targets.  Each switch is charged
    from the surface's per-step cost matrix ``switch_cost``, the same
    floats the training pass and the decisions compared; the cost model
    is called only for the horizon check.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    surface = policy.surface
    if seed == surface.train_seed:
        raise ValueError("certification seed must differ from the training seed")
    problem = surface.problem
    reject_history_reward(problem, "certification")
    grid = surface.grid
    spec = problem.dynamics
    modes = problem.modes
    n = grid.n_steps
    pres = spec.presegment(grid)

    dw, counts = sample_noise_batch(spec, grid, seed, n_paths, quantization)
    mode = np.full(n_paths, modes.initial, dtype=np.int64)
    buffer = np.empty((n_paths, n + 1, spec.dim))
    buffer[:, 0] = spec.initial_state()
    run_acc = np.zeros(n_paths)
    cost_acc = np.zeros(n_paths)
    switch_count = np.zeros(n_paths, dtype=np.int64)

    for i in range(n):
        t = grid.times[i]
        # Switch resets write through this view into the buffer.  Without
        # a delay the lookback is the same view, so decisions and the step
        # both see the current states; otherwise it is fixed for the instant.
        x = buffer[:, i]
        y = _lookback(buffer, pres, i)
        # Per mode, the rows, states and targets of its last decision at
        # this instant; rows and states decide the call.
        last = {}
        for _ in range(modes.n_modes - 1):
            switched_any = False
            for b in np.unique(mode):
                sel = np.flatnonzero(mode == b)
                if sel.size == 0:
                    continue
                xs = x[sel]
                prev = last.get(b)
                if prev and np.array_equal(prev[0], sel) and np.array_equal(prev[1], xs):
                    targets = prev[2]
                else:
                    targets = policy.decide_batch(i, int(b), xs, y[sel])
                    last[b] = (sel, xs, targets)
                hit = np.flatnonzero(targets)
                if hit.size == 0:
                    continue
                switched_any = True
                rows = sel[hit]
                cost_acc[rows] += surface.switch_cost[i, b - 1, targets[hit] - 1]
                switch_count[rows] += 1
                _apply_switches(problem, t, x, mode, rows, targets[hit])
            if not switched_any:
                break
        for b in np.unique(mode):
            sel = mode == b
            run_acc[sel] += grid.step * np.asarray(
                problem.reward.running(t, x[sel], int(b)), dtype=float
            )
        buffer[:, i + 1] = _euler_step(spec, grid, i, x, y, mode, dw, counts)

    # No switch is applied at the horizon; count the paths where one would
    # have looked profitable (it should be none when the terminal reward
    # strictly dominates every switch-then-stop).
    t, x = grid.times[n], buffer[:, n]
    g = np.asarray(problem.reward.terminal(x), dtype=float)
    tempted = np.zeros(n_paths, dtype=bool)
    for b in np.unique(mode):
        sel = np.flatnonzero(mode == b)
        for b2 in modes.others(int(b)):
            xb = problem.jump_maps.reset(int(b), b2, t, x[sel])
            cand = np.asarray(problem.reward.terminal(xb), dtype=float) - problem.costs(int(b), b2, t)
            tempted[sel] |= cand > g[sel]
    terminal_switches = int(tempted.sum())
    j = run_acc + g - cost_acc
    lower = float(j.mean())
    lower_se = float(j.std(ddof=1) / np.sqrt(n_paths))
    y0 = surface.y0
    y0_se = surface.y0_se
    uniq, cnt = np.unique(switch_count, return_counts=True)
    hist = {int(u): int(c) for u, c in zip(uniq, cnt)}
    j_min, j_max = float(j.min()), float(j.max())
    m = modes.n_modes
    bound = m * (j_max - j_min) / problem.costs.loop_floor + m
    return CertifyReport(
        lower_bound=lower,
        lower_bound_se=lower_se,
        y0=y0,
        y0_se=y0_se,
        gap=y0 - lower,
        se_combined=float(np.hypot(lower_se, y0_se)),
        n_paths=n_paths,
        switch_histogram=hist,
        max_switches=int(switch_count.max()),
        terminal_switches=terminal_switches,
        j_min=j_min,
        j_max=j_max,
        switch_bound=bound,
        switch_bound_ok=bool(switch_count.max() <= bound),
    )


def surface_to_csv(surface: ValueSurface, fileobj: io.TextIOBase) -> None:
    """Write continuation-regression coefficients as CSV rows (k, b, i, c_0..)."""
    n, m, levels, p = surface.coef.shape
    fileobj.write("k,b,i," + ",".join(f"c_{j}" for j in range(p)) + "\n")
    for k in range(levels):
        for b in range(m):
            for i in range(n):
                coef = surface.coef[i, b, k]
                fileobj.write(f"{k},{b + 1},{i}," + ",".join(repr(float(c)) for c in coef) + "\n")


def diagnostics_to_json(diag: SolveDiagnostics) -> str:
    payload = {
        "k_levels": diag.k_levels,
        "k_max_requested": diag.k_max_requested,
        "converged": diag.converged,
        "final_gap": diag.final_gap,
        "gap_by_k": diag.gap_by_k,
        "rank_deficient_fits": diag.rank_deficient_fits,
        "ridge_fits": diag.ridge_fits,
        "empty_subset_fits": diag.empty_subset_fits,
        "root_values": diag.root_values,
        "root_se": diag.root_se,
    }
    return json.dumps(payload, sort_keys=True, indent=2)
