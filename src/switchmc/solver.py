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
range of levels k_lo..k_hi in one time-major pass and yields one record
per step: from the horizon down, each step builds its designs once,
makes one multi-column fit per mode for all levels of the range, and
hands the fitted coefficients to ``_level_values``, which evaluates
continuation and best intervention level by level on top of level
k_lo-1's post-switch table.  The main pass is one loop over the budget
levels, one pass per level, because it is also the stopping search and
must not fit levels above the one where the family settles.  Each level
refits the same (step, mode) designs with new targets, so the main pass
factorizes each design once per solve, beside its level-0 lstsq fit, and
solves the levels above from that factor (see ``_fit``); a design whose
condition number exceeds ``_SEMINORMAL_MAX_COND`` stays with lstsq.  Per
design the solve holds one record, ``_Factor``: the kept-column mask, the
rank and one p x p matrix, which also give the probe standard errors and
the count of rank-deficient fits: 1.9 MB at p = 25 and 25 MB at p = 91 on
a 64-step, 6-mode grid.  Levels above 0 therefore agree with lstsq at
round-off rather than bit for bit.  The rest of what a step reads is
the same at every level too, so the main pass computes it once per
solve, on its first level (``_Records``): each mode's rows, each mode's
running reward at the pre-switch states and at its post-switch states,
and which distinct post-switch batch each target mode's reset gives.
The levels above call no running reward, and call the reset once per
step and distinct batch, only to build that batch's design again.  The
main pass keeps one post-switch table: level k's row i replaces level
k-1's as soon as step i, its last reader, has been yielded.  For n
steps, m modes and P paths the records take 2nmP floats and nP indices
and the single table saves nmP floats, +1.8 MB in all at P = 500 and
+36 MB at P = 10,000 on a 64-step, 6-mode grid.  The standard-error
blocks run as the groups of one pass over every level up to k_max: each
group is fitted on its own rows, and only the fits and the products with
their coefficients are per group.  On Linux, in a single-threaded process
with a spare CPU, a forked child runs that block pass beside the main
pass and writes its block roots into shared memory.
Once the main pass ends they are taken if the child exited cleanly,
without an exception or a warning; otherwise the block pass runs again
inline.  The outputs, warnings and exceptions are those of an inline run.
``ValueSurface`` stores the coefficients stacked per (step, mode) and
evaluates value tables for the policy through the same
``_level_values``, so decisions compare exactly what training compared.
A decision builds the design at its states once, reads the level-k
continuation from it, and asks only for the post-switch table of the
levels below; the pre-switch table, which no decision reads, is never
computed.  The continuation values that tables and decisions read are
products of a design with coefficients taken by ``np.einsum``, whose
loops are numpy's own rather than BLAS's, so a value, and with it a
decision, depends only on its own row and not on the rows evaluated
beside it.

Certification resimulates the extracted policy on a fresh seed and
reports the gap between the root value and the realized reward.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from ._fork import _Child, _empty, _may_fork
from .controls import (SwitchingProblem, _path_totals, _switch_then_stop, reject_history_reward,
                       validate_target_only)
from .sdde import TimeGrid, _lookback, _mean_se, _noise_batch, _simulate, sample_noise_batch

__all__ = [
    "FeatureMap",
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
    ``degree`` is an integer of at least 1.
    """

    degree: int = 2
    cross_terms: bool = True

    def __post_init__(self):
        if type(self.degree) is not int or self.degree < 1:
            raise ValueError(f"degree must be an integer of at least 1, got {self.degree!r}")

    def design(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        v = x if y is None else np.concatenate([x, y], axis=1)
        nv = v.shape[1]
        out = np.empty((v.shape[0], self.n_features(nv, use_delay=False)))
        out[:, 0] = 1.0
        out[:, 1 : nv + 1] = v
        col = nv + 1
        for deg in range(2, self.degree + 1):
            np.power(v, deg, out=out[:, col : col + nv])
            col += nv
        if self.cross_terms and self.degree >= 2:
            for j in range(nv - 1):
                np.multiply(v[:, j : j + 1], v[:, j + 1 :], out=out[:, col : col + nv - 1 - j])
                col += nv - 1 - j
        return out

    def n_features(self, dim: int, use_delay: bool) -> int:
        nv = dim * (2 if use_delay else 1)
        p = 1 + nv * self.degree
        if self.cross_terms and self.degree >= 2:
            p += nv * (nv - 1) // 2
        return p


# Each refinement step of a semi-normal solve shrinks its error by about
# cond² * eps.  Up to cond = 1e6 that is at most 2e-4, and one step brings
# the fitted values of hydro's main-pass fits to lstsq's at 1e-11 of the
# largest target; a worse-conditioned design is fitted by lstsq at every level.
_SEMINORMAL_MAX_COND = 1e6


@dataclass
class _Factor:
    """One design's kept columns R, its rank and G = pinv(RᵀR) (``_factorize``).

    Empty (``keep`` None) until the design's first ``_fit`` fills it;
    later fits of the same design with other targets read it instead of
    factorizing again, and ``_prediction_se`` reads its leverages from G.
    ``seminormal`` is False for an ill-conditioned design, which is then
    fitted by lstsq at every level.
    """

    keep: Optional[np.ndarray] = None
    rank: int = 0
    gram: Optional[np.ndarray] = None
    seminormal: bool = False


def _factorize(reduced: np.ndarray, rank: int) -> tuple[np.ndarray, bool]:
    """(G, seminormal): G = V_r S_r⁻² V_rᵀ of ``reduced``, truncated at ``rank`` singular values.

    Both forms below start from the triangle T of a QR factorization, so
    the n x r left factor of ``reduced`` is never formed.  At full column
    rank G is T⁻¹T⁻ᵀ; below it, the SVD of T gives V and S.  When T's
    condition number over the kept singular values exceeds
    ``_SEMINORMAL_MAX_COND`` (at full rank its Frobenius-norm bound
    ``|T| |T⁻¹|`` stands in for it), G is ``pinv(reducedᵀ reduced)``,
    for the standard errors only, and ``seminormal`` is False.
    """
    tri = np.linalg.qr(reduced, mode="r")
    if rank == reduced.shape[1]:
        inv = np.linalg.inv(tri)
        cond = np.linalg.norm(tri) * np.linalg.norm(inv)
        gram = inv @ inv.T
    else:
        _, s, vt = np.linalg.svd(tri, full_matrices=False)
        cond = s[0] / s[rank - 1]
        v = vt[:rank].T
        gram = (v / s[:rank] ** 2) @ v.T
    if cond <= _SEMINORMAL_MAX_COND:
        return gram, True
    return np.linalg.pinv(reduced.T @ reduced), False


def _fit(design: np.ndarray, target: np.ndarray, factor: Optional[_Factor] = None):
    """Least squares with constant-column pruning.

    Feature columns that are exactly constant across the training batch
    (beyond the leading intercept) carry no information and would let the
    minimum-norm solution smear the fitted level across them; evaluating
    such a fit at a state whose constant components differ, as happens
    when a switch map rewrites part of the state, then extrapolates
    wildly.  Those columns are dropped (their effect lands in the
    intercept) and get zero coefficients.  ``numpy.linalg.lstsq``
    resolves remaining rank deficiency by the minimum-norm solution,
    which keeps degenerate (e.g. deterministic) fits exact.  The rank is
    lstsq's: the singular values of the kept columns R above
    eps * max(n_rows, n_kept) times the largest.

    The target is 2-D, one column per right-hand side, all fitted in a
    single solve.  Returns the coefficients, one column per target column.

    ``factor`` is a ``_Factor`` of this design, or None.  An empty one is
    filled beside the lstsq call: the kept columns, lstsq's rank, and
    G = V_r S_r⁻² V_rᵀ of R truncated at that rank (``_factorize``).  A
    ``seminormal`` one replaces lstsq by the corrected semi-normal equations
    c = G Rᵀy, then one refinement step c += G Rᵀ(y − Rc) (Björck 1996,
    *Numerical Methods for Least Squares Problems*).  That is the same
    minimum-norm solution, and it agrees with lstsq at round-off.
    """
    if factor is not None and factor.seminormal:
        keep, gram = factor.keep, factor.gram
        reduced = design[:, keep]
        sol = gram @ (reduced.T @ target)
        sol += gram @ (reduced.T @ (target - reduced @ sol))
    else:
        keep = (design != design[0]).any(axis=0)
        keep[0] = True
        reduced = design[:, keep]
        sol, _, rank, _ = np.linalg.lstsq(reduced, target, rcond=None)
        if factor is not None and factor.keep is None:
            factor.keep, factor.rank = keep, int(rank)
            factor.gram, factor.seminormal = _factorize(reduced, rank)
    coef = np.zeros((design.shape[1], target.shape[1]))
    coef[keep] = sol
    return coef


def _resid_std(design: np.ndarray, target: np.ndarray, coef: np.ndarray, factor: _Factor):
    """Residual std of a fit of ``design`` filled into ``factor``, one entry per target column."""
    resid = np.ascontiguousarray((target - design[:, factor.keep] @ coef[factor.keep]).T)
    return np.sqrt(np.array([r @ r for r in resid]) / max(design.shape[0] - factor.rank, 1))


def _prediction_se(factor: _Factor, resid_std: float, eval_design: np.ndarray) -> np.ndarray:
    """Prediction standard error at ``eval_design`` of a fit, with leverages read from G."""
    rows = eval_design[:, factor.keep]
    lev = np.einsum("ij,jk,ik->i", rows, factor.gram, rows)
    return resid_std * np.sqrt(np.maximum(lev, 0.0))


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
                  groups=(slice(None),), moved_only=False, record=None):
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

    ``record`` is one step's (batch, run) rows of the main pass's
    ``_Records``, for a call with ``A`` and both sides.  A call that finds
    them empty fills them; a later one reads the rewards and the batches
    from them, and calls the reset only to build each batch's design again.
    """
    levels = coef.shape[2]
    labels = problem.modes.labels
    shape = (levels, len(labels), x.shape[0])
    tab = None if moved_only else np.empty(shape)
    moved = np.empty(shape)
    sides = [moved] if tab is None else [tab, moved]
    if record is not None and record[0][0] >= 0:
        # Each batch other than ``x`` is the reset into the first target
        # mode that reached it.
        batch, run = record
        designs = [A]
        for b in labels:
            if batch[b - 1] == len(designs):
                designs.append(fm.design(_moved_state(problem, b, t, x), yv))
    else:
        # ``batch`` numbers each target mode's state batch, found by content.
        batch, run = record or (np.empty(len(labels), dtype=np.int64), np.empty((2, *shape[1:])))
        if A is None and tab is not None:
            A = fm.design(x, yv)
        states, designs = ([], []) if A is None else ([x], [A])

        def at(xs):
            for j, seen in enumerate(states):
                if xs is seen or np.array_equal(xs, seen):
                    return j
            states.append(xs)
            designs.append(fm.design(xs, yv))
            return len(states) - 1

        for b in labels:
            if tab is not None:
                run[0, b - 1] = dt * np.asarray(problem.reward.running(t, x, b), dtype=float)
            j = batch[b - 1] = at(_moved_state(problem, b, t, x))
            if j == 0 and tab is not None:  # the pre-switch states
                run[1, b - 1] = run[0, b - 1]
            else:
                run[1, b - 1] = dt * np.asarray(problem.reward.running(t, states[j], b), dtype=float)

    def fill(side, b, D, run_b):
        # One einsum per group for all its levels.  Its loops are numpy's
        # own, not BLAS, so each value depends only on its own row: a BLAS
        # product can round a row differently with other rows beside it,
        # and exact ties between same-instant switch chains (additive
        # switch costs) would then break differently in the policy than in
        # training, or with the batch a decision is made in.
        for rows, c, r in zip(groups, coef[:, b - 1], target_range[:, b - 1]):
            out = side[:, b - 1, rows]
            np.einsum("np,lp->ln", D[rows], c, out=out)
            np.maximum(out, r[:, :1], out=out)  # np.clip, without its Python wrappers
            np.minimum(out, r[:, 1:], out=out)
        side[:, b - 1] += run_b

    for b in labels:
        if tab is not None:
            fill(tab, b, designs[0], run[0, b - 1])
        fill(moved, b, designs[batch[b - 1]], run[1, b - 1])
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
    probe_se: Optional[np.ndarray]  # (n_modes, probe_rows) at a probe step, else None
    n_empty: int  # (group, mode) fits with no path in the mode, fitted on the whole group


class _Records:
    """What each budget level of the main pass reads at a step, kept per solve.

    Mode b's paths at step i are ``order[i, bounds[i, b - 1]:bounds[i, b]]``,
    sorted stably by mode and so in ``np.flatnonzero``'s order.  The first
    level's ``_level_values`` call at step i fills ``batch[i]`` (-1 until
    then), the state batch a switch into each mode lands in: 0 for the
    pre-switch states, then 1, 2, ... for the other distinct batches in
    order of first appearance; and ``run[i]``, each mode's running reward
    times dt at the pre-switch states and at its post-switch states.
    ``run`` and the main pass's post-switch table are mapped (``_empty``),
    not taken from the heap, so repeated solves leave no holes in it.
    """

    def __init__(self, mode_of_step: np.ndarray, n_modes: int):
        n_paths, n = mode_of_step.shape[0], mode_of_step.shape[1] - 1
        by_step = mode_of_step[:, :n].T
        self.order = np.argsort(by_step, axis=1, kind="stable")
        self.bounds = np.zeros((n, n_modes + 1), dtype=np.int64)
        for b in range(1, n_modes + 1):
            self.bounds[:, b] = self.bounds[:, b - 1] + (by_step == b).sum(axis=1)
        self.batch = np.full((n, n_modes), -1)
        self.run = _empty((n, 2, n_modes, n_paths), float, True)

    def rows(self, i: int, b: int) -> np.ndarray:
        return self.order[i, self.bounds[i, b - 1]:self.bounds[i, b]]


def _backward_pass(problem, grid, fm, ens, groups, n_levels, below, cost, factors=None,
                   probe_steps=(), probe_rows=0, records=None):
    """Fit ``n_levels`` consecutive budget levels in one time-major pass.

    ``ens`` is (pre-switch states, post-switch states, the mode driving
    each path's step, terminal reward at the pre-switch horizon states).
    Each of the contiguous row slices ``groups`` is fitted on its own
    rows: mode b's fit at step i on those in mode b across that step.
    From the horizon down, the regression targets of every level at step
    i are the pre-switch values at step i+1, so each step builds its
    designs once and makes one multi-column fit per group and mode.
    ``below`` is the post-switch table (n_steps, n_modes, n_rows) of the
    level under the lowest one, None when the range starts at level 0;
    ``cost`` holds the switch cost matrix per step.  Yields one ``_Step``
    per grid index, from the horizon down to 0; only one step's tables
    are alive at a time.  ``factors`` holds one ``_Factor`` per step and
    mode, kept across calls, when ``groups`` is the single group of the
    main pass: each design is then factorized by its first fit only.
    Without it every fit runs lstsq.  At the steps in ``probe_steps``,
    which need ``factors``, the record carries each fit's design standard
    error at the first ``probe_rows`` pre-switch states, for its first
    target column.  ``records``, a ``_Records`` of the main pass kept across
    calls, gives each mode's rows and each step's rewards and batches.
    """
    pre, post, mode_of_step, g_pre = ens
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
        probe_se = np.empty((m, probe_rows)) if i in probe_steps else None
        n_empty = 0
        for g, rows_g in enumerate(groups):
            for b in problem.modes.labels:
                if records is None:
                    rows = rows_g.start + np.flatnonzero(mode_of_step[rows_g, i] == b)
                else:
                    rows = records.rows(i, b)
                if not rows.size:
                    rows = rows_g
                    n_empty += 1
                target = nxt[:, b - 1, rows].T
                factor = None if factors is None else factors[i][b - 1]
                c = _fit(A_post[rows], target, factor)
                coef[g, b - 1] = c.T
                target_range[g, b - 1, :, 0] = target.min(axis=0)
                target_range[g, b - 1, :, 1] = target.max(axis=0)
                if probe_se is not None:
                    std = _resid_std(A_post[rows], target, c, factor)[0]
                    probe_se[b - 1] = _prediction_se(factor, std, A_pre[:probe_rows])
        tab, moved = _level_values(
            problem, fm, grid.times[i], grid.step, pre[:, i], y_del, A_pre, coef, target_range,
            None if below is None else below[i], cost[i], groups,
            record=None if records is None else (records.batch[i], records.run[i]),
        )
        yield _Step(i, tab, moved, coef, target_range, probe_se, n_empty)
        nxt = tab


@dataclass
class SolveDiagnostics:
    """``probe_values`` and ``probe_se`` are (k_levels + 1, n_probes) arrays.

    Row k holds level k at the probe states, ordered by mode, probe time
    and path: values projected nondecreasing in k, and raw design SEs.
    """

    k_levels: int
    k_max_requested: int
    converged: bool
    final_gap: float
    gap_by_k: list
    rank_deficient_fits: int
    empty_subset_fits: int
    probe_values: np.ndarray
    probe_se: np.ndarray
    root_values: dict
    root_se: dict


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
        fit = np.einsum("np,p->n", A, self.coef[i, b - 1, k])
        np.maximum(fit, lo, out=fit)
        return run + np.minimum(fit, hi, out=fit)

    @property
    def y0(self) -> float:
        return self.root_value[(self.k_levels, self.problem.modes.initial)]

    @property
    def y0_se(self) -> float:
        return self.root_se[(self.k_levels, self.problem.modes.initial)]


def _randomized_ensemble(problem: SwitchingProblem, grid: TimeGrid, n_paths: int, seed: int,
                         quantization):
    """Paths whose mode re-rolls at random grid instants.

    At time zero half the paths keep the initial mode and half draw a
    uniform one, so every mode carries data from the first step on; at
    interior instants each path switches to a uniform other mode with
    probability ``EXPLORE_PROB``.  Reset maps are applied, costs are not
    (the randomization samples states, it does not act).  Returns
    pre-switch states, post-switch states, the mode driving each step
    and the delay in steps.  Per-path noise and mode draws come from one
    spawned stream each, so results do not depend on batching.
    """
    spec = problem.dynamics
    modes = problem.modes
    m = modes.n_modes
    n = grid.n_steps

    # With two modes there is one other mode to pick, and
    # rng.integers(0, 1) reads nothing from the stream.
    no_pick = np.zeros(n, dtype=np.int64)

    def mode_draws(p, rng):
        return (rng.random(), rng.integers(0, m), rng.random(n),
                rng.integers(0, m - 1, size=n) if m > 2 else no_pick)

    dw, counts, u_start, pick_start, u_switch, pick_switch = _noise_batch(
        spec, grid, seed, n_paths, quantization, then=mode_draws
    )

    pre = np.empty((n_paths, n + 1, spec.dim))

    def explore(i, x, y, mode):
        pre[:, i] = x
        if i < n:
            if i == 0:
                target = pick_start + 1
                rolled = (u_start >= 0.5) & (target != mode)
            else:
                # The pick-th label other than the path's mode.
                target = pick_switch[:, i] + 1
                target += target >= mode
                rolled = u_switch[:, i] < EXPLORE_PROB
            rows = np.flatnonzero(rolled)
            _apply_switches(problem, grid.times[i], x, mode, rows, target[rows])

    post, mode_of_step = _simulate(spec, grid, np.full(n_paths, modes.initial, dtype=np.int64),
                                   dw, counts, explore)
    return pre, post, mode_of_step, spec.delay_steps(grid)


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
    warning carrying the last gap).  The main pass is one loop over k
    that copies what the stopping rule and the surface read from the
    steps each level's ``_backward_pass`` yields.  A level whose values
    at the probe states are not finite, as from a non-finite reward,
    raises ValueError.
    The standard-error blocks may run in a forked child (see the module
    docstring), so the problem's callables must not rely on side effects.
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

    pre, post, mode_of_step, d = _randomized_ensemble(problem, grid, n_paths, seed, quantization)
    use_delay = d > 0
    p = fm.n_features(problem.dynamics.dim, use_delay)
    probe_times = sorted({0, n // 4, n // 2, (3 * n) // 4} - {n})
    q = min(PROBE_PATHS, n_paths)
    check = validate_target_only(
        problem.jump_maps, modes, pre[:q, probe_times].reshape(-1, pre.shape[2]),
        grid.times[probe_times],
    )
    if not check.ok:
        raise ValueError(f"jump maps declared target_only are not: {check.detail}")

    g_pre = np.asarray(problem.reward.terminal(pre[:, n]), dtype=float)
    ens = (pre, post, mode_of_step, g_pre)
    cost = np.stack([_switch_costs(problem, t) for t in grid.times[:n]])

    n_empty = 0
    gap_by_k = []
    coef = np.zeros((n, m, k_max + 1, p))
    target_range = np.zeros((n, m, k_max + 1, 2))
    # Per (k, mode, probe time, path); time 0 is a probe time and every
    # path starts at the initial state, so [k, b - 1, 0, 0] is the root.
    probe = np.empty((k_max + 1, m, len(probe_times), q))
    probe_se = np.empty_like(probe)
    # Every level refits the same (step, mode) designs: level 0 factorizes
    # each one beside its lstsq call, and the levels above reuse the factor.
    factors = [[_Factor() for _ in labels] for _ in range(n)]
    # The rows, rewards and batches of each step are the same at every level too.
    records = _Records(mode_of_step, m)

    # The design-conditional root SE treats the regression targets as
    # data, but they are themselves fitted, so it badly understates the
    # sampling error of the whole recursion.  Rerunning the pass on
    # independent path blocks and reading the spread of their roots
    # captures that propagated noise; the design SE stays as a floor.
    # The blocks are the groups of one time-major pass that fits every
    # level up to k_max, so they need nothing from the main pass.
    n_blocks = min(SE_BLOCKS, n_paths // 2)
    edges = np.linspace(0, n_paths, n_blocks + 1).astype(int)
    blocks = [slice(lo_e, hi_e) for lo_e, hi_e in zip(edges[:-1], edges[1:])]

    fork = n_blocks >= 2 and _may_fork()
    roots = _empty((k_max + 1, m, n_blocks), float, fork)

    def run_blocks() -> None:
        """Writes each block's raw root values for levels 0..k_max into ``roots``."""
        for step in _backward_pass(problem, grid, fm, ens, blocks, k_max + 1, None, cost):
            pass
        roots[:] = step.tab[:, :, edges[:-1]]  # step 0's

    # With a spare CPU, a forked child runs the block pass beside the main
    # pass and is read once the main pass ends; otherwise the block pass
    # runs here at that point.  The child is killed if the main pass raises.
    with _Child.beside(fork, run_blocks) as block_pass:
        # The main pass runs level by level: it is the stopping search, and
        # no level above the stopping one gets fitted.  Regression targets
        # stay raw; probe values are projected onto the nondecreasing-in-k
        # cone once the budget loop finishes, since that is a property of
        # the quantity they estimate.  Clamping the training targets instead
        # would rectify fit noise upward at every step and compound that
        # bias through the backward recursion.
        # One post-switch table: level k's row i replaces level k-1's once
        # step i, its last reader, has been yielded.
        below = _empty((n, m, n_paths), float, True)
        converged = False
        for k in range(k_max + 1):
            for step in _backward_pass(problem, grid, fm, ens, [slice(0, n_paths)], 1,
                                       below if k else None, cost, factors, probe_times, q,
                                       records):
                i = step.i
                below[i] = step.moved[0]
                coef[i, :, k] = step.coef[0, :, 0]
                target_range[i, :, k] = step.target_range[0, :, 0]
                n_empty += step.n_empty
                if step.probe_se is not None:
                    j = probe_times.index(i)
                    probe[k, :, j] = step.tab[0, :, :q]
                    probe_se[k, :, j] = step.probe_se
            if not np.isfinite(probe[k]).all():
                raise ValueError(f"level {k} values are not finite: the rewards must be finite")
            k_final = k
            if k == 0:
                continue
            step_up = probe[k] - probe[k - 1]
            probe_diff = np.abs(step_up)
            root_gap = float(np.max(probe_diff[:, 0, 0]))
            # A probe only counts as unsettled when its change is resolvable:
            # larger than three paired standard errors.  Noise-free problems
            # have zero SE, so this nets out to the raw gap there.
            pair_se = np.hypot(probe_se[k], probe_se[k - 1])
            probe_gap_net = float(np.max(np.maximum(probe_diff - 3.0 * pair_se, 0.0)))
            gap = max(root_gap, probe_gap_net)
            gap_by_k.append(
                {
                    "k": k,
                    "gap": gap,
                    "root_gap": root_gap,
                    "probe_gap": float(np.max(probe_diff)),
                    "probe_gap_net": probe_gap_net,
                    "min_probe_increment": float(np.min(step_up)),
                }
            )
            if gap < GAP_TOL_SCALE * (1.0 + abs(probe[k, modes.initial - 1, 0, 0])):
                converged = True
                break
        levels = k_final + 1
        probe_values = probe[:levels].reshape(levels, -1)
        # The columns are views, so this projects ``probe``, roots included.
        for col in probe_values.T:
            col[:] = _isotonic(col)
        root_se_k = probe_se[:levels, :, 0, 0]
        if n_blocks >= 2:
            block_pass()
            for col in roots[:levels].reshape(levels, -1).T:
                col[:] = _isotonic(col)
            spread = roots[:levels].std(axis=2, ddof=1) / np.sqrt(n_blocks)
            root_se_k = np.maximum(root_se_k, spread)
    # Every level refits the same designs with the same rank.
    n_rank_deficient = levels * sum(f.rank < int(f.keep.sum()) for row in factors for f in row)
    keys = [(k, b) for k in range(levels) for b in labels]
    root_value = {(k, b): float(probe[k, b - 1, 0, 0]) for k, b in keys}
    root_se = {(k, b): float(root_se_k[k, b - 1]) for k, b in keys}
    final_gap = gap_by_k[-1]["gap"] if gap_by_k else 0.0
    if n_empty:
        warnings.warn(
            f"{n_empty} regressions had no training path in their mode "
            "and were fitted on every path instead",
            RuntimeWarning,
        )
    if not converged and k_max >= 1:
        warnings.warn(
            f"value family not settled at k_max={k_max}: last gap {final_gap:.3e}",
            RuntimeWarning,
        )
    return ValueSurface(
        problem=problem,
        grid=grid,
        feature_map=fm,
        use_delay=use_delay,
        k_levels=k_final,
        train_seed=seed,
        coef=coef[:, :, :levels],
        target_range=target_range[:, :, :levels],
        switch_cost=cost,
        root_value=root_value,
        root_se=root_se,
        diagnostics=SolveDiagnostics(
            k_levels=k_final, k_max_requested=k_max, converged=converged, final_gap=final_gap,
            gap_by_k=gap_by_k, rank_deficient_fits=n_rank_deficient, empty_subset_fits=n_empty,
            probe_values=probe_values, probe_se=probe_se[:levels].reshape(levels, -1),
            root_values={f"{k},{b}": root_value[k, b] for k, b in keys},
            root_se={f"{k},{b}": root_se[k, b] for k, b in keys},
        ),
    )


@dataclass(frozen=True)
class Policy:
    """Switching rule read off a solved value surface.

    At grid index i in mode b it switches to the best alternative when
    the intervention value strictly beats the continuation value (ties
    continue, the lowest mode label wins among equal alternatives) and
    never switches at the horizon.  Both sides of the comparison are the
    same expressions the training pass maximized.  A decision is a
    function of its row (i, b, x, y): it does not depend on the other
    states in the batch, so deciding a batch whole, in parts or row by
    row gives the same targets.
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
    value).  The seed must differ from the training seed.  The paths run
    through the simulator's forward loop, so a state that turns
    non-finite or leaves ``STATE_BOUND`` raises DivergedError with its
    step index, and a post-switch state is checked at the step of its
    switch.  Path rewards are summed from the recorded states and modes
    as in ``evaluate_reward``; a non-finite one raises ValueError.

    Switches at one instant are resolved in rounds, one decision per mode
    per round, so that same-instant chains compose.  A decision is a
    function of its row, so each path keeps, per mode, the state and the
    target of its last decision in that mode at the instant, and a path
    is decided only when its state differs from the one kept for its
    current mode: every path in the first round, then only paths that
    switched into a mode with a state they were not decided at there.
    Every other path reuses its kept target.  Each switch is charged from
    the surface's per-step cost matrix ``switch_cost``, the same floats
    the training pass and the decisions compared; the cost model is
    called only for the horizon check.
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

    dw, counts = sample_noise_batch(spec, grid, seed, n_paths, quantization)
    mode = np.full(n_paths, modes.initial, dtype=np.int64)
    cost_acc = np.zeros(n_paths)
    switch_count = np.zeros(n_paths, dtype=np.int64)
    # Per mode and path, the state and the target of the path's last
    # decision in that mode at the current instant.  The state is NaN
    # until there is one, and NaN equals no state.
    seen = np.empty((modes.n_modes, n_paths, spec.dim))
    seen_target = np.empty((modes.n_modes, n_paths), dtype=np.int64)

    def decide(i, x, y, mode):
        # Switch resets write through the view ``x``.  Without a delay the
        # lookback ``y`` is the same view, so decisions and the step both
        # see the current states; otherwise it is fixed for the instant.
        if i == n:
            return
        t = grid.times[i]
        seen.fill(np.nan)
        for _ in range(modes.n_modes - 1):
            switched_any = False
            for b in np.unique(mode):
                # A path that has not switched since its last decision was
                # decided in this mode at this state and told to stay, so
                # its state is in ``seen`` and its target is 0.
                sel = np.flatnonzero(mode == b)
                xs = x[sel]
                new = (seen[b - 1, sel] != xs).any(axis=1)
                if new.any():
                    fresh = sel[new]
                    seen[b - 1, fresh] = xs[new]
                    seen_target[b - 1, fresh] = policy.decide_batch(i, int(b), xs[new], y[fresh])
                targets = seen_target[b - 1, sel]
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

    states, path_modes = _simulate(spec, grid, mode, dw, counts, decide)

    # No switch is applied at the horizon; count the paths where one would
    # have looked profitable (it should be none when the terminal reward
    # strictly dominates every switch-then-stop).
    t, x = grid.times[n], states[:, n]
    g = np.asarray(problem.reward.terminal(x), dtype=float)
    terminal_switches = 0
    for b in np.unique(mode):
        sel = mode == b
        cand = _switch_then_stop(problem.reward, problem.costs, problem.jump_maps, modes, int(b), t, x[sel])
        terminal_switches += int((cand > g[sel]).any(axis=0).sum())
    j = _path_totals(problem, grid, states, path_modes, cost_acc, g)
    if not np.isfinite(j).all():
        raise ValueError("certified path rewards are not finite: the rewards must be finite")
    lower, lower_se = _mean_se(j)
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
    """Every diagnostics field but the two probe arrays, as JSON."""
    payload = {f.name: getattr(diag, f.name) for f in fields(diag)
               if f.name not in ("probe_values", "probe_se")}
    return json.dumps(payload, sort_keys=True, indent=2)
