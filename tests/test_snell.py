"""Envelope recursion on scenario trees: dominance, minimality, attainment."""

import hashlib
import json

import numpy as np
import pytest

from conftest import random_scenario_tree
from switchmc.snell import (
    ScenarioTree,
    envelope_limit_check,
    optimal_stopping_rule,
    random_dominating_supermartingale,
    rule_value,
    snell_envelope,
    tree_from_json,
    tree_to_json,
)

TOL = 1e-12


def two_level_tree():
    """Root with two children, each child with two grandchildren."""
    parents = np.array([-1, 0, 0, 1, 1, 2, 2])
    probs = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.75])
    levels = np.array([0, 1, 1, 2, 2, 2, 2])
    states = np.zeros((7, 1))
    times = np.array([0.0, 0.5, 1.0])
    return ScenarioTree(parents=parents, probs=probs, levels=levels, states=states, times=times)


def test_envelope_by_hand():
    tree = two_level_tree()
    payoff = np.array([0.0, 1.0, 0.0, 4.0, 0.0, 8.0, 0.0])
    z = snell_envelope(tree, payoff)
    assert z[5] == 8.0 and z[6] == 0.0
    assert z[2] == pytest.approx(0.25 * 8.0)
    assert z[1] == pytest.approx(2.0)
    assert z[0] == pytest.approx(0.5 * 2.0 + 0.5 * 2.0)
    stop = optimal_stopping_rule(tree, payoff, z)
    assert not stop[0]
    assert not stop[1] and not stop[2]
    assert rule_value(tree, payoff, stop) == pytest.approx(z[0], abs=TOL)


def test_envelope_never_stops_on_zero_payoff_interior():
    tree = two_level_tree()
    payoff = np.array([0.5, 0.0, 0.0, 1.0, -1.0, 2.0, -2.0])
    z = snell_envelope(tree, payoff)
    assert z[0] == pytest.approx(max(0.5, 0.25))
    stop = optimal_stopping_rule(tree, payoff, z)
    assert stop[0]


def test_tree_validation_errors():
    with pytest.raises(ValueError):
        ScenarioTree(
            parents=np.array([0]),
            probs=np.array([1.0]),
            levels=np.array([0]),
            states=np.zeros((1, 1)),
            times=np.array([0.0]),
        )
    with pytest.raises(ValueError):
        ScenarioTree(
            parents=np.array([-1, 0, 0]),
            probs=np.array([1.0, 0.5, 0.6]),
            levels=np.array([0, 1, 1]),
            states=np.zeros((3, 1)),
            times=np.array([0.0, 1.0]),
        )
    # Nodes 1 and 2 both have children whose mass is off; the first is named.
    with pytest.raises(ValueError, match=r"of node 1 sum to 1\.1"):
        ScenarioTree(
            parents=np.array([-1, 0, 0, 1, 1, 2, 2]),
            probs=np.array([1.0, 0.5, 0.5, 0.5, 0.6, 0.5, 0.7]),
            levels=np.array([0, 1, 1, 2, 2, 2, 2]),
            states=np.zeros((7, 1)),
            times=np.array([0.0, 1.0, 2.0]),
        )
    # The schema's example, then one malformed change to it per case.
    example = {"parents": [-1, 0, 0], "probs": [1.0, 0.5, 0.5], "levels": [0, 1, 1],
               "states": [[1.0], [1.3], [0.7]], "times": [0.0, 1.0]}
    for change in (
        {"probs": [1.0, float("nan"), 0.5]},
        {"probs": [1.0, 1.5, -0.5]},
        {"parents": [-1, 0, -2], "probs": [1.0, 1.0, 1.0], "levels": [0, 1, 2], "times": [0.0, 1.0, 2.0]},
        {"parents": [-1, 0, -1], "probs": [1.0, 1.0, 1.0]},
        {"levels": [0, 1, 2], "times": [0.0, 1.0, 2.0]},
        {"probs": [1.0, 0.5, 0.5, 0.5]},
        {"levels": [0, 1, 1, 1]},
        {"states": [[1.0], [1.3]]},
        {"times": [0.0]},
    ):
        with pytest.raises(ValueError):
            tree_from_json(json.dumps({**example, **change}))
    tree = tree_from_json(json.dumps(example))
    payoff = np.array([0.2, 0.4, 0.1])
    with pytest.raises(ValueError):
        optimal_stopping_rule(tree, 0.5, snell_envelope(tree, payoff))
    with pytest.raises(ValueError):
        optimal_stopping_rule(tree, payoff, 0.0)
    with pytest.raises(ValueError):
        rule_value(tree, payoff, np.array([False, True, True, True]))


def test_snell_properties_random_trees():
    rng = np.random.default_rng(100)
    for _ in range(25):
        tree = random_scenario_tree(rng)
        payoff = rng.normal(size=tree.n_nodes)
        z = snell_envelope(tree, payoff)
        assert np.all(z >= payoff - TOL)
        for i in range(tree.n_nodes):
            kids = tree.children[i]
            if kids:
                assert z[i] >= float(np.dot(tree.probs[kids], z[kids])) - TOL
        for _ in range(3):
            w = random_dominating_supermartingale(tree, payoff, rng)
            assert np.all(w >= z - TOL)
        stop = optimal_stopping_rule(tree, payoff, z)
        assert rule_value(tree, payoff, stop) == pytest.approx(z[0], abs=TOL)


# Per tree seed: ``float.hex`` of the envelope's root, of the value of the
# first-hitting rule, of the random supermartingale's root and of the value
# of a random stop set, then the first 16 hex digits of the SHA-256 of the
# envelope, stop set and random supermartingale arrays' bytes, so every
# node is pinned bit for bit.  Recorded before the three recursions shared
# one backward sweep.
SNELL_PINS = {
    1: ("0x1.81261a58b55d4p-1", "0x1.81261a58b55d4p-1", "0x1.1ec33dc6ed312p+1", "-0x1.7d59ecf14c10ap-2",
        "afe0d02bee1e3b89"),
    7: ("0x1.63ed8c060e25ap+0", "0x1.63ed8c060e25ap+0", "0x1.d13fa2d40329ep+1", "-0x1.5e55a20cb8ff6p-1",
        "4e7c29e8999c6eb2"),
    13: ("0x1.eda7626ee21e7p-1", "0x1.eda7626ee21e7p-1", "0x1.4a5afd8f8acb4p+1", "-0x1.8b8d084af750cp-4",
         "28b828b6f5d6f48b"),
}


@pytest.mark.parametrize("seed", list(SNELL_PINS))
def test_envelope_rule_and_random_supermartingale_match_their_pins(seed):
    rng = np.random.default_rng(seed)
    tree = random_scenario_tree(rng, dim=2)
    payoff = rng.normal(size=tree.n_nodes)
    z = snell_envelope(tree, payoff)
    stop = optimal_stopping_rule(tree, payoff)
    w = random_dominating_supermartingale(tree, payoff, rng)
    anywhere = rule_value(tree, payoff, rng.random(tree.n_nodes) < 0.5)
    digest = hashlib.sha256(z.tobytes() + stop.tobytes() + w.tobytes()).hexdigest()[:16]
    pins = (z[0].hex(), rule_value(tree, payoff, stop).hex(), w[0].hex(), anywhere.hex(), digest)
    assert pins == SNELL_PINS[seed]


def test_reach_probabilities_sum_per_level():
    rng = np.random.default_rng(5)
    tree = random_scenario_tree(rng)
    reach = tree.reach_probabilities()
    for lev in range(tree.n_levels + 1):
        sel = tree.levels == lev
        assert reach[sel].sum() == pytest.approx(1.0, abs=1e-9)


def test_envelope_limit_tracking():
    rng = np.random.default_rng(8)
    tree = random_scenario_tree(rng)
    u = rng.normal(size=tree.n_nodes)
    bump = rng.normal(size=tree.n_nodes)
    payoffs = [u + bump * (0.5**j) for j in range(6)] + [u]
    rep = envelope_limit_check(tree, payoffs)
    assert rep.nonincreasing
    assert rep.final_deviation == 0.0
    assert rep.deviations[0] >= rep.deviations[-2]


def test_tree_json_roundtrip():
    rng = np.random.default_rng(3)
    tree = random_scenario_tree(rng, dim=2)
    clone = tree_from_json(tree_to_json(tree))
    assert np.array_equal(clone.parents, tree.parents)
    assert np.array_equal(clone.probs, tree.probs)
    assert np.array_equal(clone.states, tree.states)
    payoff = rng.normal(size=tree.n_nodes)
    assert np.array_equal(snell_envelope(clone, payoff), snell_envelope(tree, payoff))


def test_ancestor_and_path():
    tree = two_level_tree()
    assert tree.path_to(5) == [0, 2, 5]
    assert tree.ancestor(5, 1) == 2
    assert tree.ancestor(5, 5) == 0
    assert tree.time_of(5) == 1.0
    assert sorted(tree.leaves.tolist()) == [3, 4, 5, 6]
