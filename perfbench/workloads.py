"""The benchmark's workloads: what each one runs and how its outputs are checked.

Every workload reads its seeds as a default plus the benchmark seed, so
seed 0 reproduces the default run.  ``build`` makes the instances a
workload needs before its first timed call (this is what ``setup_s``
times); ``Workload.run_unit`` runs one timed repetition and returns its
outputs, its checks and its wall time.

Calls into the package go through module attributes (``solver.solve``,
not a local name), so the wrappers ``tracing.Probe`` installs see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import tempfile
import time

import numpy as np

import switchmc.cli as cli
import switchmc.hydro as hydro
import switchmc.oracle as oracle
import switchmc.solver as solver
from switchmc.families import random_tree_problem, two_mode_flow_problem

NAMES = ("hydro_demo", "water_value", "oracle_xcheck")

# The acceptance suite's oracle instances at seed 0:
# (instance seed, modes, levels, delay steps, jumps).
SMALL_INSTANCES = [
    (101, 2, 4, 0, False),
    (102, 2, 5, 2, False),
    (103, 2, 4, 0, True),
    (104, 3, 3, 0, False),
    (105, 3, 3, 1, False),
    (106, 3, 3, 0, True),
]

# Path counts per size.  "full" is the measured size; "smoke" is a
# seconds-long version of the same calls for the benchmark's own test.
# The hydro solves run on 500 paths rather than the README's 10,000: one
# 10,000-path hydro-demo takes about a minute, longer than a whole run.
# At 500 paths the hydro value family stays unconverged at k_max = 8 on
# every seed tried (last gap 3 to 7 times the tolerance), so each solve
# fits all nine budget levels and the work done does not vary with the
# seed.  Per-call overhead, not flops, dominates these solves.
SIZES = {
    "full": {
        "hydro_paths": 500,
        "hydro_certify_paths": 2000,
        "hydro_steps": None,
        "water_paths": 500,
        "xcheck_instances": len(SMALL_INSTANCES),
        "xcheck_paths": 10_000,
        "flow_paths": 2000,
        "flow_certify_paths": 10_000,
    },
    "smoke": {
        "hydro_paths": 64,
        "hydro_certify_paths": 64,
        "hydro_steps": 8,
        "water_paths": 64,
        "xcheck_instances": 2,
        "xcheck_paths": 1000,
        "flow_paths": 200,
        "flow_certify_paths": 1000,
    },
}

WATER_LEVELS = (0.3, 1.2)
FLOW_VALUE = 0.7
ORACLE_TOL = 1e-12
FLOW_TOL = 1e-9


def _hydro_params(size: str, **changes) -> hydro.HydroParams:
    steps = SIZES[size]["hydro_steps"]
    if steps is not None:
        changes["n_steps"] = steps
    return dataclasses.replace(hydro.HydroParams(), **changes)


def build(name: str, seed: int, size: str) -> dict:
    """Instances the workload needs, built before anything is timed.

    The hydro CLI run and ``water_value_curve`` build their problems
    again inside the timed call, as a user's call would; the copies built
    here only count toward set-up time.
    """
    if name == "hydro_demo":
        return {"hydro": hydro.build_hydro_problem(_hydro_params(size))}
    if name == "water_value":
        return {
            "levels": [
                hydro.build_hydro_problem(_hydro_params(size, z1_0=z)) for z in WATER_LEVELS
            ]
        }
    if name == "oracle_xcheck":
        count = SIZES[size]["xcheck_instances"]
        small = [
            random_tree_problem(
                seed=inst_seed + seed, n_modes=m, levels=levels, delay_steps=delay,
                with_jumps=jumps,
            )
            for inst_seed, m, levels, delay, jumps in SMALL_INSTANCES[:count]
        ]
        flow = two_mode_flow_problem(rate_low=0.0, rate_high=1.0, cost=0.3, n_steps=8)
        return {"small": small, "flow": flow}
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")


@dataclasses.dataclass
class UnitResult:
    wall_s: float
    outputs: list
    checks: list
    artifact_bytes: int = 0


class Workload:
    """One workload at one seed and size; ``run_unit`` is one repetition."""

    def __init__(self, name: str, seed: int, size: str, scratch: str):
        self.name = name
        self.seed = seed
        self.size = size
        self.sizes = SIZES[size]
        self.scratch = scratch
        self.instances = build(name, seed, size)

    def run_unit(self, probe) -> UnitResult:
        return getattr(self, f"_{self.name}")(probe)

    def _hydro_demo(self, probe) -> UnitResult:
        sz = self.sizes
        out = tempfile.mkdtemp(dir=self.scratch)
        argv = [
            "hydro-demo",
            "--seed", str(3 + self.seed),
            "--paths", str(sz["hydro_paths"]),
            "--certify-paths", str(sz["hydro_certify_paths"]),
            "--out", out,
        ]
        if sz["hydro_steps"] is not None:
            config = os.path.join(self.scratch, "hydro_smoke.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"family": "hydro", "params": {"n_steps": sz["hydro_steps"]},
                           "solver": {"cross_terms": False}}, fh)
            argv += ["--config", config]
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        checks = [("cli exit code 0", code == 0, f"exit {code}")]
        report_path = os.path.join(out, "hydro_certify.json")
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            checks.append(("no terminal switches", report["terminal_switches"] == 0,
                           f"{report['terminal_switches']} tempted paths"))
            checks.append(("switch bound holds", bool(report["switch_bound_ok"]),
                           f"max {report['max_switches']} <= {report['switch_bound']:.4g}"))
        else:
            checks.append(("hydro_certify.json written", False, "missing"))
        size = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        shutil.rmtree(out)
        return UnitResult(wall, [], checks, artifact_bytes=size)

    def _water_value(self, probe) -> UnitResult:
        start = time.perf_counter()
        levels, values = hydro.water_value_curve(
            _hydro_params(self.size),
            list(WATER_LEVELS),
            n_paths=self.sizes["water_paths"],
            seed=7 + self.seed,
        )
        wall = time.perf_counter() - start
        ok = bool(np.all(np.diff(values) >= 0.0))
        checks = [("values nondecreasing in level", ok, " <= ".join(f"{v:.6g}" for v in values))]
        return UnitResult(wall, [{"kind": "curve", "values": [float(v) for v in values]}], checks)

    def _oracle_xcheck(self, probe) -> UnitResult:
        sz = self.sizes
        checks = []
        outputs = []
        start = time.perf_counter()
        for (inst_seed, *_), (problem, grid) in zip(SMALL_INSTANCES, self.instances["small"]):
            problem = probe.problem(problem)
            inst = oracle.build_lattice(problem, grid, branching=2)
            exact = oracle.exact_dp(inst, k_max=4, with_table=False).root_value(
                4, problem.modes.initial
            )
            enum = oracle.enumerate_controls(inst, k_max=4).value
            surf = solver.solve(
                problem, grid, feature_map=solver.FeatureMap(degree=3), k_max=4,
                n_paths=sz["xcheck_paths"], seed=400 + inst_seed + self.seed, quantization=2,
            )
            outputs.append({"kind": "oracle", "exact": exact, "enumerated": enum})
            dp_diff = abs(exact - enum)
            checks.append((f"instance {inst_seed}: |dp - enum| <= {ORACLE_TOL:g}",
                           dp_diff <= ORACLE_TOL, f"{dp_diff:.2e}"))
            err = abs(surf.y0 - exact)
            tol = 3.0 * surf.y0_se + 0.02 * abs(exact)
            checks.append((f"instance {inst_seed}: |y0 - exact| <= 3 se + 2%",
                           err <= tol, f"{err:.2e} <= {tol:.2e}"))
        problem, grid = self.instances["flow"]
        problem = probe.problem(problem)
        surf = solver.solve(problem, grid, n_paths=sz["flow_paths"], seed=self.seed)
        inst = oracle.build_lattice(problem, grid, branching=2)
        exact = oracle.exact_dp(inst, k_max=3, with_table=False).root_value(3, 1)
        rep = solver.certify(
            solver.extract_policy(surf), n_paths=sz["flow_certify_paths"], seed=31 + self.seed
        )
        wall = time.perf_counter() - start
        outputs.append({"kind": "oracle", "exact": exact})
        for label, value in (("solver", surf.y0), ("oracle", exact), ("certify", rep.lower_bound)):
            err = abs(value - FLOW_VALUE)
            checks.append((f"closed form: {label} within {FLOW_TOL:g} of {FLOW_VALUE}",
                           err <= FLOW_TOL, f"{err:.1e}"))
        checks.append(("closed form: one switch on every path",
                       rep.switch_histogram == {1: sz["flow_certify_paths"]},
                       str(rep.switch_histogram)))
        return UnitResult(wall, outputs, checks)
