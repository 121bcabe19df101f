"""Exact solver for small instances on quantized scenario lattices.

The lattice discretizes the driving noise: Brownian increments take
two-point (+-sqrt(dt)) or three-point Gauss-Hermite values, and when
lam > 0 jump arrivals occupy dedicated branches of probability lam*dt*w_k
carrying a zero Brownian increment.  This is the law the simulation
module samples with ``quantization`` set.  Nodes never recombine, so each
node is a full noise history.

Because the controlled state depends on the whole control history (mode
dependent drift, state resets at switches, delayed lookback), values are
computed by a memoized recursion over (node, mode, remaining switch
budget, recent state window) that replays the Euler transition of the
simulation module along tree edges.  ``enumerate_controls`` evaluates the
same instance by exhaustive recursion over every adapted control with no
value memoization, as an independent cross-check.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass

import numpy as np

from .controls import SwitchingProblem, reject_history_reward
from .sdde import TimeGrid, _quantized_law, euler_increment
from .snell import ScenarioTree

__all__ = [
    "OracleInstance",
    "OracleValues",
    "EnumerationResult",
    "build_lattice",
    "exact_dp",
    "enumerate_controls",
]

NODE_BUDGET = 100_000
MAX_CONTEXTS = 10_000_000


@dataclass(frozen=True)
class OracleInstance:
    """A problem bound to a scenario lattice.

    ``edge_dw[i]`` and ``edge_mark[i]`` label the edge from the parent of
    node i (mark -1 means no jump).  ``windows[i]`` is the recent-state
    window at node i when the initial mode is held throughout (the
    canonical build); the solvers replay windows for other mode
    histories.
    """

    problem: SwitchingProblem
    grid: TimeGrid
    tree: ScenarioTree
    edge_dw: np.ndarray
    edge_mark: np.ndarray
    windows: tuple


class _EdgeStepper:
    """Replays Euler transitions along tree edges with a transition cache."""

    def __init__(self, problem: SwitchingProblem, grid: TimeGrid):
        self.spec = problem.dynamics
        self.grid = grid
        self.cache = {}

    def step(self, level: int, window: tuple, mode: int, dw: float, mark: int) -> tuple:
        key = (level, window, mode, dw, mark)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        spec = self.spec
        t = self.grid.times[level]
        x = np.array([window[-1]])
        y = np.array([window[0]])
        counts = np.zeros((1, spec.n_marks))
        if mark >= 0:
            counts[0, mark] = 1.0
        dx = euler_increment(spec, self.grid.step, t, x, y, mode, np.array([[dw]]), counts)
        out = tuple((x + dx)[0])
        self.cache[key] = out
        return out


def _scalar_running(problem, t, state: tuple, mode: int) -> float:
    return float(np.asarray(problem.reward.running(t, np.array([state]), mode), dtype=float).reshape(-1)[0])


def _scalar_terminal(problem, state: tuple) -> float:
    return float(np.asarray(problem.reward.terminal(np.array([state])), dtype=float).reshape(-1)[0])


def _scalar_jump_map(problem, b_from: int, b_to: int, t: float, state: tuple) -> tuple:
    x = np.array([state])
    return tuple(problem.jump_maps.reset(b_from, b_to, t, x)[0])


def build_lattice(
    problem: SwitchingProblem,
    grid: TimeGrid,
    branching: int = 2,
) -> OracleInstance:
    """Build the scenario lattice for a problem.

    Levels equal grid.n_steps.  Node states are propagated by the same
    Euler step as the simulation module with the initial mode held fixed;
    with zero volatility all siblings carry equal states.  Errors if the
    node count would exceed ``NODE_BUDGET``.
    """
    spec = problem.dynamics
    vals, probs, p_jump = _quantized_law(spec, grid, branching)
    edges = [(float(v), -1, float(p) * (1.0 - p_jump)) for v, p in zip(vals, probs)]
    if spec.jump_intensity > 0.0:
        edges += [(0.0, k, p_jump * float(w)) for k, w in enumerate(spec.marks.weights)]
    b_count = len(edges)
    levels = grid.n_steps
    n_nodes = (b_count ** (levels + 1) - 1) // (b_count - 1)
    if n_nodes > NODE_BUDGET:
        raise ValueError(f"lattice needs {n_nodes} nodes, over the budget of {NODE_BUDGET}")

    pres = tuple(tuple(row) for row in spec.presegment(grid))
    root_window = pres + (tuple(spec.initial_state()),)
    stepper = _EdgeStepper(problem, grid)
    b0 = problem.modes.initial

    parents = [-1]
    eprobs = [1.0]
    node_levels = [0]
    edge_dw = [0.0]
    edge_mark = [-1]
    windows = [root_window]
    frontier = [0]
    for level in range(levels):
        nxt = []
        for node in frontier:
            w = windows[node]
            for dv, mk, pr in edges:
                child_state = stepper.step(level, w, b0, dv, mk)
                idx = len(parents)
                parents.append(node)
                eprobs.append(pr)
                node_levels.append(level + 1)
                edge_dw.append(dv)
                edge_mark.append(mk)
                windows.append((w + (child_state,))[1:])
                nxt.append(idx)
        frontier = nxt
    states = np.array([w[-1] for w in windows])
    tree = ScenarioTree(
        parents=np.array(parents, dtype=np.int64),
        probs=np.array(eprobs),
        levels=np.array(node_levels, dtype=np.int64),
        states=states,
        times=grid.times,
    )
    return OracleInstance(
        problem=problem,
        grid=grid,
        tree=tree,
        edge_dw=np.array(edge_dw),
        edge_mark=np.array(edge_mark, dtype=np.int64),
        windows=tuple(windows),
    )


@dataclass(frozen=True)
class OracleValues:
    """Backward-induction values.

    ``root[k, b-1]`` is the value at the root in mode b with at most k
    switches.  ``table[(node, b, k)]`` holds values at every node
    evaluated at its canonical (initial-mode) state window; for instances
    whose dynamics do not depend on the mode this is the value process
    itself.
    """

    root: np.ndarray
    table: dict

    def root_value(self, k: int, b: int) -> float:
        return float(self.root[k, b - 1])


@contextlib.contextmanager
def _recursion_room(grid: TimeGrid, n_modes: int, k_max: int):
    """Room for the oracle's recursions: a higher recursion limit, restored on exit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10 * (grid.n_steps + 2) * (n_modes * (k_max + 1) + 2) + 1000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def exact_dp(instance: OracleInstance, k_max: int, with_table: bool = True) -> OracleValues:
    """Exact value of the switching problem on the lattice.

    Backward induction over (node, mode, budget): leaves pay the terminal
    reward with no switch allowed; inside, the value is the larger of the
    continuation (running reward plus expected child value) and the best
    single switch, which re-enters the same node with one budget unit
    less, so multi-switch chains at one instant compose naturally.
    """
    problem = instance.problem
    reject_history_reward(problem, "the exact oracle")
    tree = instance.tree
    grid = instance.grid
    dt = grid.step
    labels = list(problem.modes.labels)
    stepper = _EdgeStepper(problem, grid)
    memo = {}

    def value(node: int, b: int, k: int, window: tuple) -> float:
        key = (node, b, k, window)
        hit = memo.get(key)
        if hit is not None:
            return hit
        kids = tree.children[node]
        if not kids:
            v = _scalar_terminal(problem, window[-1])
        else:
            level = int(tree.levels[node])
            t = grid.times[level]
            x = window[-1]
            v = _scalar_running(problem, t, x, b) * dt
            for child in kids:
                cw = stepper.step(level, window, b, float(instance.edge_dw[child]), int(instance.edge_mark[child]))
                v += float(tree.probs[child]) * value(child, b, k, (window + (cw,))[1:])
            if k > 0:
                for b2 in problem.modes.others(b):
                    x2 = _scalar_jump_map(problem, b, b2, t, x)
                    alt = -problem.costs(b, b2, t) + value(node, b2, k - 1, window[:-1] + (x2,))
                    if alt > v:
                        v = alt
        memo[key] = v
        return v

    root = np.empty((k_max + 1, len(labels)))
    table = {}
    with _recursion_room(grid, len(labels), k_max):
        for k in range(k_max + 1):
            for b in labels:
                root[k, b - 1] = value(0, b, k, instance.windows[0])
        if with_table:
            for node in range(tree.n_nodes):
                for b in labels:
                    for k in range(k_max + 1):
                        table[(node, b, k)] = value(node, b, k, instance.windows[node])
    return OracleValues(root=root, table=table)


@dataclass(frozen=True)
class EnumerationResult:
    value: float
    root_chain: tuple
    contexts: int


def enumerate_controls(instance: OracleInstance, k_max: int) -> EnumerationResult:
    """Maximize over every adapted control by exhaustive recursion.

    At each information node the recursion tries every switch chain the
    remaining budget allows (mode decisions per node, no self-switches)
    and averages child values under the branch probabilities, with no
    value memoization.  Raises RuntimeError beyond ``MAX_CONTEXTS``
    explored contexts.
    """
    problem = instance.problem
    reject_history_reward(problem, "the exact oracle")
    tree = instance.tree
    grid = instance.grid
    dt = grid.step
    stepper = _EdgeStepper(problem, grid)
    counter = [0]

    def instant_options(t: float, b: int, k: int, window: tuple):
        options = []

        def extend(chain, cost, cur, win):
            options.append((chain, cost, cur, win))
            if len(chain) == k:
                return
            for b2 in problem.modes.others(cur):
                w2 = win[:-1] + (_scalar_jump_map(problem, cur, b2, t, win[-1]),)
                extend(chain + (b2,), cost + problem.costs(cur, b2, t), b2, w2)

        extend((), 0.0, b, window)
        return options

    def explore(node: int, b: int, k: int, window: tuple):
        counter[0] += 1
        if counter[0] > MAX_CONTEXTS:
            raise RuntimeError(f"enumeration exceeded {MAX_CONTEXTS} contexts")
        kids = tree.children[node]
        if not kids:
            return _scalar_terminal(problem, window[-1]), ()
        level = int(tree.levels[node])
        t = grid.times[level]
        best = None
        best_chain = ()
        for chain, cost, b2, win2 in instant_options(t, b, k, window):
            total = _scalar_running(problem, t, win2[-1], b2) * dt - cost
            for child in kids:
                cw = stepper.step(level, win2, b2, float(instance.edge_dw[child]), int(instance.edge_mark[child]))
                v_child, _ = explore(child, b2, k - len(chain), (win2 + (cw,))[1:])
                total += float(tree.probs[child]) * v_child
            if best is None or total > best:
                best = total
                best_chain = chain
        return best, best_chain

    with _recursion_room(grid, problem.modes.n_modes, k_max):
        value, chain = explore(0, problem.modes.initial, k_max, instance.windows[0])
    return EnumerationResult(value=float(value), root_chain=chain, contexts=counter[0])
