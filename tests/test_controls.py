"""Mode sets, controls, costs, structural validators and reward evaluation."""

import itertools

import numpy as np
import pytest

from conftest import NAN_REWARD_CASES, nan_reward_flow
from switchmc import controls
from switchmc.controls import (
    JumpMapFamily,
    ModeSet,
    RewardSpec,
    SwitchingControl,
    SwitchingCostModel,
    SwitchingProblem,
    ValidationReport,
    evaluate_reward,
    validate_control,
    validate_cycle_reduction,
    validate_no_free_loop,
    validate_terminal_no_switch,
)
from switchmc.families import affine_problem, pure_cost_problem, two_mode_flow_problem
from switchmc.sdde import OffGridError, TimeGrid


def test_mode_set_basics():
    modes = ModeSet(3, initial=2)
    assert list(modes.labels) == [1, 2, 3]
    assert modes.others(2) == [1, 3]
    with pytest.raises(ValueError):
        ModeSet(1)
    with pytest.raises(ValueError):
        ModeSet(3, initial=4)


def test_switching_control_structure():
    c = SwitchingControl(times=(0.0, 0.5), modes=(2, 1))
    assert c.n_switches == 2
    assert SwitchingControl.empty().n_switches == 0
    with pytest.raises(ValueError):
        SwitchingControl(times=(0.0,), modes=(2, 1))


def test_cost_model_guards():
    table = np.array([[0.0, 0.2], [0.3, 0.0]])
    costs = SwitchingCostModel.from_table(table, loop_floor=0.5)
    assert costs(1, 2, 0.0) == 0.2
    assert costs(2, 1, 0.9) == 0.3
    with pytest.raises(ValueError):
        SwitchingCostModel.from_table(table, loop_floor=0.0)
    bad = SwitchingCostModel(cost=lambda bf, bt, t: -1.0, loop_floor=0.1)
    with pytest.raises(ValueError):
        bad(1, 2, 0.0)
    aff = SwitchingCostModel.affine(base=0.1, slope=0.2, loop_floor=0.2)
    assert aff(1, 2, 0.5) == pytest.approx(0.2)


def test_validate_control_complaints():
    modes = ModeSet(2)
    grid = TimeGrid(1.0, 4)
    ok = SwitchingControl(times=(0.25, 0.5), modes=(2, 1))
    assert validate_control(ok, modes, grid) == []
    bad = SwitchingControl(times=(0.5, 0.25, 0.3, 2.0), modes=(2, 2, 5, 1))
    complaints = validate_control(bad, modes, grid)
    text = " | ".join(complaints)
    assert "decreases" in text
    assert "equals the current mode" in text
    assert "off the grid" in text
    assert "outside" in text


@pytest.mark.parametrize("horizon", [1.0, 8.0])
def test_validate_control_uses_the_grid_tolerance(horizon):
    # The tolerance is 1e-9 * max(step, 1): 1e-9 on the 0.25 grid, 2e-9 on the 2.0 grid.
    grid = TimeGrid(horizon, 4)
    tol = 1e-9 * max(grid.step, 1.0)
    mid = 2 * grid.step
    for t, on_grid in ((mid + 0.5 * tol, True), (mid - 0.5 * tol, True),
                       (mid + 3.0 * tol, False), (mid - 3.0 * tol, False)):
        try:
            grid.index_of(t)
            indexed = True
        except OffGridError:
            indexed = False
        complaints = validate_control(SwitchingControl((t,), (2,)), ModeSet(2), grid)
        assert indexed == on_grid
        assert any("off the grid" in c for c in complaints) == (not on_grid)


def test_no_free_loop_detects_cheap_cycle():
    modes = ModeSet(3)
    good = SwitchingCostModel.from_table(
        0.2 * (np.ones((3, 3)) - np.eye(3)), loop_floor=0.4
    )
    rep = validate_no_free_loop(good, modes, time_samples=[0.0, 0.5, 1.0])
    assert rep.ok
    assert rep.margin == pytest.approx(0.4)
    table = np.array([[0.0, 0.01, 0.5], [0.01, 0.0, 0.5], [0.5, 0.5, 0.0]])
    cheap = SwitchingCostModel.from_table(table, loop_floor=0.4)
    rep2 = validate_no_free_loop(cheap, modes, time_samples=[0.0, 1.0])
    assert not rep2.ok
    assert rep2.margin == pytest.approx(0.02)
    assert set(rep2.witness[0]) == {1, 2}


def _loop_report_by_enumeration(model, modes, ts):
    """The enumeration that reads every leg's cost through the model anew, summing legs in order."""
    best = None
    for length in range(2, modes.n_modes + 1):
        for cycle in itertools.permutations(modes.labels, length):
            legs = [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
            for assignment in itertools.combinations_with_replacement(sorted(set(ts)), length):
                total = sum(model(bf, bt, t) for (bf, bt), t in zip(legs, assignment))
                if best is None or total < best[0]:
                    best = (total, cycle, assignment)
    return ValidationReport(
        ok=best[0] >= model.loop_floor - 1e-12,
        detail=f"minimum cycle cost {best[0]} over floor {model.loop_floor}",
        witness=(best[1], best[2]),
        margin=best[0],
    )


@pytest.mark.parametrize("cells", [None, 5], ids=["one-block", "small-blocks"])
def test_no_free_loop_equals_the_enumeration_on_tables_with_ties(monkeypatch, cells):
    # Costs on a coarse grid tie often, so the witness must be the first
    # minimum in (length, cycle, assignment) order, as the enumeration
    # finds it, also when the cycles are summed in several blocks.
    if cells is not None:
        monkeypatch.setattr(controls, "_LOOP_CELLS", cells)
    rng = np.random.default_rng(7)
    for _ in range(60):
        n_modes = int(rng.integers(2, 6))
        table = 0.1 * rng.integers(0, 4, size=(n_modes, n_modes, 3))
        ts = sorted(rng.choice([0.0, 0.5, 1.0], size=int(rng.integers(1, 4)), replace=False).tolist())
        model = SwitchingCostModel(
            cost=lambda bf, bt, t, table=table: table[bf - 1, bt - 1, int(2 * t)], loop_floor=0.2
        )
        rep = validate_no_free_loop(model, ModeSet(n_modes), ts)
        assert rep == _loop_report_by_enumeration(model, ModeSet(n_modes), ts)
        assert type(rep.margin) is float


def test_no_free_loop_reads_each_cost_once():
    rng = np.random.default_rng(4)
    table = rng.uniform(0.1, 0.5, size=(4, 4))
    calls = []

    def cost(bf, bt, t):
        calls.append((bf, bt, t))
        return table[bf - 1, bt - 1] * (1.0 + 0.3 * t)

    model = SwitchingCostModel(cost=cost, loop_floor=0.25)
    modes = ModeSet(4)
    ts = [0.0, 0.4, 1.0]
    rep = validate_no_free_loop(model, modes, ts)
    assert len(calls) <= 4 * 3 * len(ts)
    assert rep == _loop_report_by_enumeration(model, modes, ts)
    negative = SwitchingCostModel(cost=lambda bf, bt, t: -0.1 if bt == 4 else 0.2, loop_floor=0.2)
    with pytest.raises(ValueError, match="negative switch cost"):
        validate_no_free_loop(negative, modes, ts)


def test_terminal_no_switch_validator():
    problem, grid = two_mode_flow_problem(n_steps=8)
    probes = np.linspace(-1.0, 1.0, 9)[:, None]
    rep = validate_terminal_no_switch(
        problem.reward, problem.costs, problem.jump_maps, problem.modes, grid.horizon, probes
    )
    assert rep.ok
    tempting = JumpMapFamily(apply=lambda bf, bt, t, x: x + 10.0, target_only=True)
    reward = RewardSpec(running=lambda t, x, mode: x[:, 0] * 0.0, terminal=lambda x: x[:, 0])
    cheap = SwitchingCostModel.affine(base=0.1, slope=0.0, loop_floor=0.2)
    rep2 = validate_terminal_no_switch(
        reward, cheap, tempting, problem.modes, grid.horizon, probes
    )
    assert not rep2.ok


def test_cycle_reduction_identity_and_counterexample():
    modes = ModeSet(3)
    probes = np.linspace(-1.0, 1.0, 8)[:, None]
    rep = validate_cycle_reduction(JumpMapFamily.identity(), modes, probes, seed=0)
    assert rep.ok
    additive = JumpMapFamily(
        apply=lambda bf, bt, t, x: x + float(bt), reduction_length=2, target_only=True
    )
    rep2 = validate_cycle_reduction(additive, modes, probes, seed=0)
    assert not rep2.ok


@pytest.mark.parametrize("n_modes", [3, 5])
def test_an_overwriting_reset_reduces_to_its_last_two_switches(n_modes):
    # A chain of resets that overwrite the state lands where its last
    # switch sends it, so a two-switch subsequence ending there matches;
    # subsequences that repeat a mode back to back are not chains.
    overwrite = JumpMapFamily(
        apply=lambda bf, bt, t, x: np.full_like(x, float(bt)), reduction_length=2, target_only=True
    )
    probes = np.linspace(-1.0, 1.0, 8)[:, None]
    assert validate_cycle_reduction(overwrite, ModeSet(n_modes), probes, seed=0).ok


def test_affine_default_loop_floor_is_the_cycle_minimum():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(2, 6))
        table = rng.uniform(0.01, 1.0, size=(m, m))
        np.fill_diagonal(table, 0.0)
        best = min(
            sum(table[cycle[i] - 1, cycle[(i + 1) % n] - 1] for i in range(n))
            for n in range(2, m + 1)
            for cycle in itertools.permutations(range(1, m + 1), n)
        )
        zeros = np.zeros(m)
        problem, _ = affine_problem(
            n_modes=m, drift_const=zeros, run_const=zeros, run_lin=zeros, cost_table=table
        )
        assert problem.costs.loop_floor == best


def test_control_cost_tracks_mode_sequence():
    table = np.array([[0.0, 0.1, 0.2], [0.3, 0.0, 0.4], [0.5, 0.6, 0.0]])
    problem, grid = pure_cost_problem(n_modes=3)
    problem = SwitchingProblem(
        dynamics=problem.dynamics,
        modes=problem.modes,
        costs=SwitchingCostModel.from_table(table, loop_floor=0.3),
        jump_maps=problem.jump_maps,
        reward=problem.reward,
    )
    control = SwitchingControl(times=(0.0, 0.25, 0.5), modes=(2, 3, 1))
    assert problem.control_cost(control) == pytest.approx(0.1 + 0.4 + 0.5)


def test_evaluate_reward_two_mode_exact():
    problem, grid = two_mode_flow_problem(n_steps=16)
    est, se = evaluate_reward(
        problem, grid, SwitchingControl(times=(0.0,), modes=(2,)), n_paths=32, seed=0
    )
    assert est == pytest.approx(0.7, abs=1e-12)
    assert se == 0.0
    est0, se0 = evaluate_reward(problem, grid, SwitchingControl.empty(), n_paths=32, seed=0)
    assert est0 == pytest.approx(0.0, abs=1e-12)
    late, _ = evaluate_reward(
        problem, grid, SwitchingControl(times=(0.5,), modes=(2,)), n_paths=32, seed=0
    )
    assert late == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("case", NAN_REWARD_CASES)
def test_evaluate_reward_refuses_non_finite_rewards(case):
    problem, grid = nan_reward_flow(case)
    with pytest.raises(ValueError, match="not finite"):
        evaluate_reward(problem, grid, SwitchingControl(times=(0.0,), modes=(2,)), n_paths=8, seed=0)


def test_evaluate_reward_pure_cost_counts_switches():
    problem, grid = pure_cost_problem(n_modes=3, cost=0.2)
    est, _ = evaluate_reward(
        problem, grid, SwitchingControl(times=(0.25, 0.5), modes=(2, 3)), n_paths=16, seed=1
    )
    assert est == pytest.approx(-0.4, abs=1e-12)


def test_evaluate_reward_rejects_inadmissible():
    problem, grid = two_mode_flow_problem(n_steps=8)
    with pytest.raises(ValueError):
        evaluate_reward(
            problem, grid, SwitchingControl(times=(0.31,), modes=(2,)), n_paths=16, seed=0
        )


def test_history_reward_plugin():
    base, grid = pure_cost_problem(n_modes=3, cost=0.2)
    problem = SwitchingProblem(
        dynamics=base.dynamics,
        modes=base.modes,
        costs=base.costs,
        jump_maps=base.jump_maps,
        reward=base.reward,
        history_reward=lambda times, modes, states: np.full(states.shape[0], float(len(times))),
    )
    est, _ = evaluate_reward(
        problem, grid, SwitchingControl(times=(0.25, 0.5), modes=(2, 3)), n_paths=16, seed=1
    )
    assert est == pytest.approx(2.0 - 0.4, abs=1e-12)


def test_reset_returns_a_read_only_float_batch_of_the_states_shape():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    for apply in (lambda bf, bt, t, x: x, lambda bf, bt, t, x: np.array([5, 6]),
                  lambda bf, bt, t, x: x.astype(np.int64)):
        out = JumpMapFamily(apply=apply).reset(1, 2, 0.0, x)
        assert out.shape == x.shape and out.dtype == float
        assert not out.flags.writeable
    assert x.flags.writeable
    assert np.array_equal(JumpMapFamily.identity().reset(1, 2, 0.0, x), x)
