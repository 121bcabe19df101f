"""Non-recombining scenario trees and least dominating supermartingales.

A tree node carries the full path history by construction (no
recombining), so path functionals and delayed lookbacks are exact node
attributes.  For a payoff process U on the tree, the envelope computed
here is the smallest supermartingale dominating U; stopping at the first
node where the envelope touches the payoff attains it.  The envelope,
the value of a stopping rule and the random dominating supermartingale
are one leaves-up sweep (``_backward``) with different node rules.
Trees are validated when built, since ``tree_from_json`` reads outside
input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

TOUCH_TOL = 1e-12

__all__ = [
    "ScenarioTree",
    "snell_envelope",
    "optimal_stopping_rule",
    "rule_value",
    "envelope_limit_check",
    "random_dominating_supermartingale",
    "tree_to_json",
    "tree_from_json",
]


@dataclass(frozen=True)
class ScenarioTree:
    """Rooted tree with per-node states and child probabilities.

    ``parents[i]`` is the parent index (-1 for the root, which must be
    node 0), ``probs[i]`` the probability of reaching node i from its
    parent, ``levels[i]`` its depth, ``states`` the (n_nodes, dim) state
    array and ``times`` the per-level time stamps.  Nodes must be ordered
    so that parents precede children.
    """

    parents: np.ndarray
    probs: np.ndarray
    levels: np.ndarray
    states: np.ndarray
    times: np.ndarray
    children: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parents = np.asarray(self.parents, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=float)
        levels = np.asarray(self.levels, dtype=np.int64)
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        times = np.asarray(self.times, dtype=float)
        for name, val in (("parents", parents), ("probs", probs), ("levels", levels), ("states", states), ("times", times)):
            object.__setattr__(self, name, val)
        n = parents.shape[0]
        if parents.shape != (n,) or probs.shape != (n,) or levels.shape != (n,) or states.ndim != 2 or len(states) != n:
            raise ValueError("parents, probs, levels and states need one entry per node")
        if n == 0 or parents[0] != -1 or levels[0] != 0:
            raise ValueError("node 0 must be the root")
        if np.any(parents[1:] < 0) or np.any(parents[1:] >= np.arange(1, n)):
            raise ValueError("every node but the root needs a parent with a smaller index")
        if np.any(levels[1:] != levels[parents[1:]] + 1):
            raise ValueError("every node's level must be its parent's plus one")
        if times.ndim != 1 or len(times) < levels.max() + 1:
            raise ValueError("times needs an entry for every level")
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        children = [[] for _ in range(n)]
        for i in range(1, n):
            children[parents[i]].append(i)
        object.__setattr__(self, "children", children)
        n_kids = np.bincount(parents[1:], minlength=n)
        mass = np.bincount(parents[1:], probs[1:], minlength=n)
        off = np.flatnonzero((n_kids > 0) & (np.abs(mass - 1.0) > TOUCH_TOL))
        if off.size:
            raise ValueError(f"child probabilities of node {off[0]} sum to {mass[off[0]]}")

    @property
    def n_nodes(self) -> int:
        return self.parents.shape[0]

    @property
    def n_levels(self) -> int:
        return int(self.levels.max())

    def is_leaf(self, i: int) -> bool:
        return not self.children[i]

    @property
    def leaves(self) -> np.ndarray:
        return np.array([i for i in range(self.n_nodes) if self.is_leaf(i)], dtype=np.int64)

    def time_of(self, i: int) -> float:
        return float(self.times[self.levels[i]])

    def path_to(self, i: int) -> list:
        """Node indices from the root to node i inclusive."""
        path = [i]
        while self.parents[path[-1]] != -1:
            path.append(int(self.parents[path[-1]]))
        return path[::-1]

    def ancestor(self, i: int, steps_back: int) -> int:
        """Ancestor of node i exactly steps_back levels up (clamped at root)."""
        j = i
        for _ in range(steps_back):
            if self.parents[j] == -1:
                break
            j = int(self.parents[j])
        return j

    def reach_probabilities(self) -> np.ndarray:
        """Probability of reaching each node from the root."""
        reach = np.empty(self.n_nodes)
        reach[0] = 1.0
        for i in range(1, self.n_nodes):
            reach[i] = reach[self.parents[i]] * self.probs[i]
        return reach


def _per_node(tree: ScenarioTree, name: str, values, dtype=float) -> np.ndarray:
    """``values`` as an array with one entry per node of ``tree``."""
    out = np.asarray(values, dtype=dtype)
    if out.shape != (tree.n_nodes,):
        raise ValueError(f"{name} must have one value per node")
    return out


def _backward(tree: ScenarioTree, node_value: Callable) -> np.ndarray:
    """Node values from the leaves up: ``node_value(i, cont)`` at node i, where
    cont is the probability-weighted value of its children, None at a leaf."""
    v = np.empty(tree.n_nodes)
    for i in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[i]
        v[i] = node_value(i, float(np.dot(tree.probs[kids], v[kids])) if kids else None)
    return v


def snell_envelope(tree: ScenarioTree, payoff: np.ndarray) -> np.ndarray:
    """Smallest supermartingale dominating the payoff process.

    Backward recursion: the envelope equals the payoff at leaves and
    max(payoff, expected child envelope) inside.
    """
    u = _per_node(tree, "payoff", payoff)
    return _backward(tree, lambda i, cont: u[i] if cont is None else max(u[i], cont))


def optimal_stopping_rule(tree: ScenarioTree, payoff: np.ndarray, envelope: Optional[np.ndarray] = None) -> np.ndarray:
    """First-hitting stop set: stop where the envelope touches the payoff.

    Ties count as touching, so the rule stops there.  Leaves always stop.
    """
    u = _per_node(tree, "payoff", payoff)
    z = snell_envelope(tree, u) if envelope is None else _per_node(tree, "envelope", envelope)
    stop = (z - u) <= TOUCH_TOL
    stop[tree.leaves] = True
    return stop


def rule_value(tree: ScenarioTree, payoff: np.ndarray, stop: np.ndarray) -> float:
    """Expected payoff of the first-hitting rule defined by a stop set."""
    u = _per_node(tree, "payoff", payoff)
    stop = _per_node(tree, "stop", stop, dtype=bool)
    return float(_backward(tree, lambda i, cont: u[i] if cont is None or stop[i] else cont)[0])


@dataclass(frozen=True)
class LimitReport:
    deviations: tuple
    nonincreasing: bool
    final_deviation: float


def envelope_limit_check(tree: ScenarioTree, payoffs: Sequence[np.ndarray]) -> LimitReport:
    """Track envelope deviations along a payoff sequence.

    Computes max |Z(U_k) - Z(U_lim)| per element, where the limit payoff
    U_lim is the last element of the sequence.
    """
    z_lim = snell_envelope(tree, payoffs[-1])
    devs = tuple(float(np.max(np.abs(snell_envelope(tree, u) - z_lim))) for u in payoffs)
    noninc = all(a >= b - TOUCH_TOL for a, b in zip(devs[:-1], devs[1:]))
    return LimitReport(deviations=devs, nonincreasing=noninc, final_deviation=devs[-1])


def random_dominating_supermartingale(
    tree: ScenarioTree, payoff: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A random supermartingale dominating the payoff (for minimality checks).

    Built backward by adding nonnegative slack on top of the exact
    recursion, so dominance and the supermartingale property hold by
    construction.
    """
    u = _per_node(tree, "payoff", payoff)
    return _backward(tree, lambda i, cont: (u[i] if cont is None else max(u[i], cont)) + float(rng.random()))


def tree_to_json(tree: ScenarioTree) -> str:
    """Serialize a tree to JSON (schema: docs/tree_schema.md)."""
    payload = {
        "parents": [int(v) for v in tree.parents],
        "probs": [float(v) for v in tree.probs],
        "levels": [int(v) for v in tree.levels],
        "states": [[float(v) for v in row] for row in tree.states],
        "times": [float(v) for v in tree.times],
    }
    return json.dumps(payload, sort_keys=True)


def tree_from_json(text: str) -> ScenarioTree:
    """Inverse of :func:`tree_to_json`; float values round-trip exactly."""
    payload = json.loads(text)
    return ScenarioTree(
        parents=np.array(payload["parents"], dtype=np.int64),
        probs=np.array(payload["probs"], dtype=float),
        levels=np.array(payload["levels"], dtype=np.int64),
        states=np.array(payload["states"], dtype=float),
        times=np.array(payload["times"], dtype=float),
    )
