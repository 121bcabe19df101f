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

Within one call of either solver nothing is computed twice: each node's
children come from one batched Euler step per (level, window, mode), and
each reward, reset and cost is evaluated once per distinct argument.
These caches belong to the call, share nothing with any other call and
are freed when it returns or raises.
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
    node i (mark -1 means no jump); every node's children carry the same
    labels in the same order.  ``windows[i]`` is the recent-state
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
    """Steps a state window along every edge of a lattice node at once.

    The lattice gives every node the same edges, (dw, mark) in the same
    order, so one ``euler_increment`` call over a batch of one row per
    edge yields all of a node's child windows.  Rows are independent in
    the Euler step, so each child equals the one-row step along its edge.
    The children are cached on (level, window, mode); a stepper serves one
    call and its cache dies with it.
    """

    def __init__(self, problem: SwitchingProblem, grid: TimeGrid, edge_dw, edge_mark):
        self.spec = problem.dynamics
        self.grid = grid
        self.dw = np.array(edge_dw, dtype=float).reshape(-1, 1)
        self.counts = np.zeros((len(self.dw), self.spec.n_marks))
        for row, mark in enumerate(edge_mark):
            if mark >= 0:
                self.counts[row, mark] = 1.0
        self.cache = {}

    @classmethod
    def of(cls, instance: "OracleInstance") -> "_EdgeStepper":
        """A stepper over the edges of ``instance``, read off its root."""
        kids = instance.tree.children[0]
        return cls(instance.problem, instance.grid, instance.edge_dw[kids], instance.edge_mark[kids])

    def children(self, level: int, window: tuple, mode: int) -> list:
        """The child windows of a node at ``level`` holding ``window`` in ``mode``, in edge order."""
        key = (level, window, mode)
        hit = self.cache.get(key)
        if hit is None:
            n = len(self.dw)
            x = np.array([window[-1]] * n)
            y = np.array([window[0]] * n)
            dx = euler_increment(self.spec, self.grid.step, self.grid.times[level], x, y, mode,
                                 self.dw, self.counts)
            tail = window[1:]
            hit = [tail + (tuple(row),) for row in (x + dx).tolist()]
            self.cache[key] = hit
        return hit


class _ModelCalls:
    """The problem's rewards, resets and costs on single states, each evaluated once per key.

    ``terminal`` is keyed by state, ``running`` by (level, state, mode),
    ``reset`` by (b, b2, level, state) and ``cost`` by (b, b2, level).
    One instance serves one oracle call and its caches die with it.
    """

    def __init__(self, problem: SwitchingProblem, grid: TimeGrid):
        self.problem = problem
        self.times = grid.times
        self._terminal = {}
        self._running = {}
        self._reset = {}
        self._cost = {}

    def terminal(self, state: tuple) -> float:
        v = self._terminal.get(state)
        if v is None:
            out = self.problem.reward.terminal(np.array([state]))
            v = self._terminal[state] = float(np.asarray(out, dtype=float).reshape(-1)[0])
        return v

    def running(self, level: int, state: tuple, mode: int) -> float:
        key = (level, state, mode)
        v = self._running.get(key)
        if v is None:
            out = self.problem.reward.running(self.times[level], np.array([state]), mode)
            v = self._running[key] = float(np.asarray(out, dtype=float).reshape(-1)[0])
        return v

    def reset(self, b: int, b2: int, level: int, state: tuple) -> tuple:
        key = (b, b2, level, state)
        v = self._reset.get(key)
        if v is None:
            out = self.problem.jump_maps.reset(b, b2, self.times[level], np.array([state]))
            v = self._reset[key] = tuple(out[0].tolist())
        return v

    def cost(self, b: int, b2: int, level: int) -> float:
        key = (b, b2, level)
        v = self._cost.get(key)
        if v is None:
            v = self._cost[key] = self.problem.costs(b, b2, self.times[level])
        return v


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
    stepper = _EdgeStepper(problem, grid, [e[0] for e in edges], [e[1] for e in edges])
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
            for (dv, mk, pr), child_window in zip(edges, stepper.children(level, windows[node], b0)):
                idx = len(parents)
                parents.append(node)
                eprobs.append(pr)
                node_levels.append(level + 1)
                edge_dw.append(dv)
                edge_mark.append(mk)
                windows.append(child_window)
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
    children = instance.tree.children
    levels = instance.tree.levels.tolist()
    probs = instance.tree.probs.tolist()
    dt = instance.grid.step
    labels = list(problem.modes.labels)
    others = {b: problem.modes.others(b) for b in labels}
    model = _ModelCalls(problem, instance.grid)
    stepper = _EdgeStepper.of(instance)
    memo = {}

    def value(node: int, b: int, k: int, window: tuple) -> float:
        key = (node, b, k, window)
        hit = memo.get(key)
        if hit is not None:
            return hit
        kids = children[node]
        if not kids:
            v = model.terminal(window[-1])
        else:
            level = levels[node]
            v = model.running(level, window[-1], b) * dt
            for child, child_window in zip(kids, stepper.children(level, window, b)):
                v += probs[child] * value(child, b, k, child_window)
            if k > 0:
                for b2 in others[b]:
                    x2 = model.reset(b, b2, level, window[-1])
                    alt = -model.cost(b, b2, level) + value(node, b2, k - 1, window[:-1] + (x2,))
                    if alt > v:
                        v = alt
        memo[key] = v
        return v

    root = np.empty((k_max + 1, len(labels)))
    table = {}
    try:
        with _recursion_room(instance.grid, len(labels), k_max):
            for k in range(k_max + 1):
                for b in labels:
                    root[k, b - 1] = value(0, b, k, instance.windows[0])
            if with_table:
                for node in range(instance.tree.n_nodes):
                    for b in labels:
                        for k in range(k_max + 1):
                            table[(node, b, k)] = value(node, b, k, instance.windows[node])
    finally:
        del value  # the recursion refers to itself; unbinding it frees the caches now
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
    children = instance.tree.children
    levels = instance.tree.levels.tolist()
    probs = instance.tree.probs.tolist()
    dt = instance.grid.step
    model = _ModelCalls(problem, instance.grid)
    stepper = _EdgeStepper.of(instance)
    counter = [0]

    def instant_options(level: int, b: int, k: int, window: tuple) -> list:
        """Every switch chain of at most k switches from b, depth first: (chain, cost, mode, window)."""
        options = []
        stack = [((), 0.0, b, window)]
        while stack:
            chain, cost, cur, win = option = stack.pop()
            options.append(option)
            if len(chain) < k:
                for b2 in reversed(problem.modes.others(cur)):
                    w2 = win[:-1] + (model.reset(cur, b2, level, win[-1]),)
                    stack.append((chain + (b2,), cost + model.cost(cur, b2, level), b2, w2))
        return options

    def explore(node: int, b: int, k: int, window: tuple):
        counter[0] += 1
        if counter[0] > MAX_CONTEXTS:
            raise RuntimeError(f"enumeration exceeded {MAX_CONTEXTS} contexts")
        kids = children[node]
        if not kids:
            return model.terminal(window[-1]), ()
        level = levels[node]
        best = None
        best_chain = ()
        for chain, cost, b2, win2 in instant_options(level, b, k, window):
            total = model.running(level, win2[-1], b2) * dt - cost
            for child, child_window in zip(kids, stepper.children(level, win2, b2)):
                v_child, _ = explore(child, b2, k - len(chain), child_window)
                total += probs[child] * v_child
            if best is None or total > best:
                best = total
                best_chain = chain
        return best, best_chain

    try:
        with _recursion_room(instance.grid, problem.modes.n_modes, k_max):
            value, chain = explore(0, problem.modes.initial, k_max, instance.windows[0])
    finally:
        del explore  # the recursion refers to itself; unbinding it frees the caches now
    return EnumerationResult(value=float(value), root_chain=chain, contexts=counter[0])
