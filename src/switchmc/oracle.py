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

The lattice is the complete tree over the quantized law's edges in
breadth-first order, so its layout is index arithmetic and only the
canonical state windows are stepped.  Within one call of either solver
nothing is computed twice: every reward, reset, cost and node expansion
(one batched Euler step over all of a node's edges) is a
``functools.cache``d closure made for that call, and so is ``exact_dp``'s
recursion.  These caches share nothing with any other call and are freed
when it returns or raises.
"""

from __future__ import annotations

import contextlib
import functools
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
    ``children`` is cached on (level, window, mode); a stepper serves one
    call and its cache dies with it.
    """

    def __init__(self, problem: SwitchingProblem, grid: TimeGrid, edge_dw, edge_mark):
        spec = problem.dynamics
        dw = np.array(edge_dw, dtype=float).reshape(-1, 1)
        counts = (np.asarray(edge_mark).reshape(-1, 1) == np.arange(spec.n_marks)).astype(float)

        @functools.cache
        def children(level: int, window: tuple, mode: int) -> list:
            """The child windows of a node at ``level`` holding ``window`` in ``mode``, in edge order."""
            x = np.array([window[-1]] * len(dw))
            y = np.array([window[0]] * len(dw))
            dx = euler_increment(spec, grid.step, grid.times[level], x, y, mode, dw, counts)
            return [window[1:] + (tuple(row),) for row in (x + dx).tolist()]

        self.children = children

    @classmethod
    def of(cls, instance: "OracleInstance") -> "_EdgeStepper":
        """A stepper over the edges of ``instance``, read off its root."""
        kids = instance.tree.children[0]
        return cls(instance.problem, instance.grid, instance.edge_dw[kids], instance.edge_mark[kids])


def build_lattice(
    problem: SwitchingProblem,
    grid: TimeGrid,
    branching: int = 2,
) -> OracleInstance:
    """Build the scenario lattice for a problem.

    Levels equal grid.n_steps.  The lattice is the complete tree over the
    edges of the quantized law, in breadth-first order: node i > 0 is
    child (i - 1) % b of node (i - 1) // b.  Node states are propagated by
    the same Euler step as the simulation module with the initial mode
    held fixed; with zero volatility all siblings carry equal states.
    Errors if the node count would exceed ``NODE_BUDGET``.
    """
    spec = problem.dynamics
    vals, probs, p_jump = _quantized_law(spec, grid, branching)
    dw, mark, prob = vals, np.full(len(vals), -1), probs * (1.0 - p_jump)
    if spec.jump_intensity > 0.0:
        weights = np.asarray(spec.marks.weights, dtype=float)
        dw = np.concatenate([dw, np.zeros(len(weights))])
        mark = np.concatenate([mark, np.arange(len(weights))])
        prob = np.concatenate([prob, p_jump * weights])
    b = len(dw)
    n_nodes = (b ** (grid.n_steps + 1) - 1) // (b - 1)
    if n_nodes > NODE_BUDGET:
        raise ValueError(f"lattice needs {n_nodes} nodes, over the budget of {NODE_BUDGET}")
    n_inner = (n_nodes - 1) // b
    levels = np.repeat(np.arange(grid.n_steps + 1), b ** np.arange(grid.n_steps + 1))

    pres = tuple(tuple(row) for row in spec.presegment(grid))
    windows = [pres + (tuple(spec.initial_state()),)]
    step = _EdgeStepper(problem, grid, dw, mark).children
    for node, level in enumerate(levels[:n_inner].tolist()):
        windows += step(level, windows[node], problem.modes.initial)
    tree = ScenarioTree(
        parents=np.arange(-1, n_nodes - 1) // b,  # (i - 1) // b, which is -1 at the root
        probs=np.concatenate([[1.0], np.tile(prob, n_inner)]),
        levels=levels,
        states=np.array([w[-1] for w in windows]),
        times=grid.times,
    )
    return OracleInstance(
        problem=problem,
        grid=grid,
        tree=tree,
        edge_dw=np.concatenate([[0.0], np.tile(dw, n_inner)]),
        edge_mark=np.concatenate([[-1], np.tile(mark, n_inner)]),
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


def _call_setup(instance: OracleInstance):
    """What one oracle call reads: the lattice as lists, then the model calls
    and the edge stepper, each cached on its arguments for this call only.

    ``terminal`` is keyed by state, ``running`` by (level, state, mode),
    ``reset`` by (b, b2, level, state), ``cost`` by (b, b2, level) and
    ``step`` by (level, window, mode).
    """
    problem = instance.problem
    reject_history_reward(problem, "the exact oracle")
    times = instance.grid.times

    @functools.cache
    def terminal(state: tuple) -> float:
        return float(np.ravel(problem.reward.terminal(np.array([state])))[0])

    @functools.cache
    def running(level: int, state: tuple, mode: int) -> float:
        return float(np.ravel(problem.reward.running(times[level], np.array([state]), mode))[0])

    @functools.cache
    def reset(b: int, b2: int, level: int, state: tuple) -> tuple:
        return tuple(problem.jump_maps.reset(b, b2, times[level], np.array([state]))[0].tolist())

    @functools.cache
    def cost(b: int, b2: int, level: int) -> float:
        return problem.costs(b, b2, times[level])

    tree = instance.tree
    step = _EdgeStepper.of(instance).children
    return tree.children, tree.levels.tolist(), tree.probs.tolist(), terminal, running, reset, cost, step


def exact_dp(instance: OracleInstance, k_max: int, with_table: bool = True) -> OracleValues:
    """Exact value of the switching problem on the lattice.

    Backward induction over (node, mode, budget): leaves pay the terminal
    reward with no switch allowed; inside, the value is the larger of the
    continuation (running reward plus expected child value) and the best
    single switch, which re-enters the same node with one budget unit
    less, so multi-switch chains at one instant compose naturally.
    """
    children, levels, probs, terminal, running, reset, cost, step = _call_setup(instance)
    dt = instance.grid.step
    labels = list(instance.problem.modes.labels)
    others = {b: instance.problem.modes.others(b) for b in labels}

    @functools.cache
    def value(node: int, b: int, k: int, window: tuple) -> float:
        kids = children[node]
        if not kids:
            return terminal(window[-1])
        level = levels[node]
        v = running(level, window[-1], b) * dt
        for child, child_window in zip(kids, step(level, window, b)):
            v += probs[child] * value(child, b, k, child_window)
        if k > 0:
            for b2 in others[b]:
                x2 = reset(b, b2, level, window[-1])
                alt = -cost(b, b2, level) + value(node, b2, k - 1, window[:-1] + (x2,))
                if alt > v:
                    v = alt
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
    children, levels, probs, terminal, running, reset, cost, step = _call_setup(instance)
    dt = instance.grid.step
    modes = instance.problem.modes
    counter = [0]

    def instant_options(level: int, b: int, k: int, window: tuple) -> list:
        """Every switch chain of at most k switches from b, depth first: (chain, cost, mode, window)."""
        options = []
        stack = [((), 0.0, b, window)]
        while stack:
            chain, paid, cur, win = option = stack.pop()
            options.append(option)
            if len(chain) < k:
                for b2 in reversed(modes.others(cur)):
                    w2 = win[:-1] + (reset(cur, b2, level, win[-1]),)
                    stack.append((chain + (b2,), paid + cost(cur, b2, level), b2, w2))
        return options

    def explore(node: int, b: int, k: int, window: tuple):
        counter[0] += 1
        if counter[0] > MAX_CONTEXTS:
            raise RuntimeError(f"enumeration exceeded {MAX_CONTEXTS} contexts")
        kids = children[node]
        if not kids:
            return terminal(window[-1]), ()
        level = levels[node]
        best = None
        best_chain = ()
        for chain, paid, b2, win2 in instant_options(level, b, k, window):
            total = running(level, win2[-1], b2) * dt - paid
            for child, child_window in zip(kids, step(level, win2, b2)):
                v_child, _ = explore(child, b2, k - len(chain), child_window)
                total += probs[child] * v_child
            if best is None or total > best:
                best = total
                best_chain = chain
        return best, best_chain

    try:
        with _recursion_room(instance.grid, modes.n_modes, k_max):
            value, chain = explore(0, modes.initial, k_max, instance.windows[0])
    finally:
        del explore  # the recursion refers to itself; unbinding it frees the caches now
    return EnumerationResult(value=float(value), root_chain=chain, contexts=counter[0])
