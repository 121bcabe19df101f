"""Tests of the benchmark itself: span arithmetic, patching, and a smoke run.

The smoke runs start ``run.py`` with ``--size smoke``, which makes the
same calls as the measured workloads on a few dozen paths and eight
time steps, so every workload finishes in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Layer metrics that must be positive on a workload, because the
# workload calls that layer.
MUST_MOVE = {
    "hydro_demo": [
        "sdde.noise_draw_calls", "sdde.euler_calls", "sdde.simulate_s", "solver.design_calls",
        "solver.fit_calls", "solver.se_reruns_s", "solver.tab_eval_calls", "solver.decide_calls",
        "solver.certify_sim_s", "controls.cost_calls", "controls.validate_s", "hydro.build_s",
        "hydro.mass_balance_s", "cli.self_s", "cli.artifact_s", "cli.artifact_bytes",
    ],
    "water_value": [
        "sdde.noise_draw_calls", "solver.design_calls", "solver.fit_calls",
        "solver.main_pass_s", "solver.levels_run", "controls.running_calls", "hydro.build_s",
    ],
    "oracle_xcheck": [
        "sdde.noise_draw_calls", "solver.ensemble_self_s", "solver.tab_eval_calls",
        "oracle.lattice_s", "oracle.lattice_nodes", "oracle.exact_dp_s", "oracle.enumerate_s",
        "oracle.enum_contexts",
    ],
}
# Reported above the JSON line, on the workloads they apply to.
REPORTED = {"certify_s": ("hydro_demo", "oracle_xcheck"), "oracle_s": ("oracle_xcheck",)}


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_arithmetic_on_a_synthetic_call_tree():
    clock = StepClock()
    tr = tracing.Tracer(clock)
    leaf = tr.wrap(lambda: clock.advance(2.0), "leaf", group="g")

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)

    mid = tr.wrap(mid_body, "mid", group="g")

    def root_body():
        clock.advance(3.0)
        mid()
        leaf()
        clock.advance(1.0)

    tr.wrap(root_body, "root")()
    assert tr.calls == {"leaf": 2, "mid": 1, "root": 1}
    assert tr.total["leaf"] == 4.0 and tr.self_time["leaf"] == 4.0
    assert tr.total["mid"] == 3.5 and tr.self_time["mid"] == 1.5
    assert tr.total["root"] == 9.5 and tr.self_time["root"] == 4.0
    # The leaf inside mid is covered once: 3.5 for mid plus 2 for the other leaf.
    assert tr.group_time["g"] == 5.5
    assert tr.stack == []


def test_a_raising_span_is_closed_and_charged_to_its_parent():
    clock = StepClock()
    tr = tracing.Tracer(clock)

    def fail():
        clock.advance(1.0)
        raise ValueError("boom")

    failing = tr.wrap(fail, "fail")

    def outer_body():
        clock.advance(2.0)
        with pytest.raises(ValueError):
            failing()

    tr.wrap(outer_body, "outer")()
    assert tr.total["fail"] == 1.0
    assert tr.self_time["outer"] == 2.0
    assert tr.stack == [] and tr.depth["fail"] == 0


def test_probe_wraps_every_alias_and_restores_the_package():
    import switchmc.cli as cli
    import switchmc.hydro as hydro
    import switchmc.solver as solver

    before = (solver.solve, cli.solve, hydro.solve, solver.FeatureMap.design, cli.main)
    probe = tracing.Probe(layers=True).install()
    try:
        assert solver.solve is cli.solve is hydro.solve
        assert solver.solve is not before[0]
        assert solver.FeatureMap.design is not before[3]
    finally:
        probe.remove()
    assert (solver.solve, cli.solve, hydro.solve, solver.FeatureMap.design, cli.main) == before


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    return result["metrics"]


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return result_of(proc.stdout.strip().splitlines())


def test_one_command_prints_every_end_to_end_metric_for_each_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run_all.py", "--seed", "0", "--seconds", "0", "--trace", "0",
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sections = proc.stdout.split("== workload ")[1:]
    assert [s.split("\n", 1)[0] for s in sections] == WORKLOADS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for workload, section in zip(WORKLOADS, sections):
        lines = section.strip().splitlines()
        metrics = result_of(lines)
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(v["value"] > 0 for v in metrics.values())
        printed = {line.split()[0]: line.split()[1:] for line in lines if len(line.split()) == 3}
        for name, unit in expected.items():
            assert printed[name] == [repr(metrics[name]["value"]), unit]
        assert printed["fail_rate"] == ["0.0", "ratio"]
        for name, applies in REPORTED.items():
            assert printed[name][1] == "s"
            assert (float(printed[name][0]) > 0) == (workload in applies), (workload, name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_layer_metric(workload):
    metrics = smoke(workload, 1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name in MUST_MOVE[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["solver.levels_useful_ratio"]["value"] == 1.0


def test_layer_counts_repeat_across_traced_runs():
    first = smoke("oracle_xcheck", 1)
    second = smoke("oracle_xcheck", 1)
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] not in ("s", "ratio")]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hydro_demo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
