"""Spans and counters around the calls into each switchmc layer.

Everything here wraps the package from the outside: module-level
functions are replaced in every ``switchmc`` module namespace that holds
them, methods on their classes, and the callables a ``SwitchingProblem``
carries on an instrumented copy of the problem.  ``Probe.remove`` puts
every original back, so traced and untraced repetitions can alternate
in one process.

A span's self time is its duration minus the durations of the wrapped
calls made directly inside it.  A group's time is the time covered by
its outermost spans, so nested members of one group are not counted
twice.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    """Per-name call counts, total and self times, and per-group union times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.group_time = defaultdict(float)
        self.depth = defaultdict(int)

    def wrap(self, fn, name, group=None, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs ahead of the call and
        ``after(args, kwargs, result, start, duration)`` once it returned.
        """
        clock = self.clock
        stack = self.stack
        depth = self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            if group is not None:
                depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if group is not None:
                    depth[group] -= 1
                    if depth[group] == 0:
                        self.group_time[group] += duration
            if after is not None:
                after(args, kwargs, result, start, duration)
            return result

        return wrapper


def _switchmc_modules():
    return [mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "switchmc"]


class Probe:
    """Installs wrappers on the package and turns what they saw into metrics.

    With ``layers`` false only the end-to-end entry points are wrapped
    (``solve``, ``certify`` and the three oracle functions), which costs
    two clock reads per call.  Both variants record each solve's and each
    certification's outputs, so traced and untraced runs can be compared.
    """

    def __init__(self, layers: bool):
        self.layers = layers
        self.tracer = Tracer()
        self.outputs = []
        self._restore = []
        self._solves = []
        self.fit_rows = []
        self.counts = defaultdict(float)

    # -- installation -------------------------------------------------

    def _replace_function(self, module_name, attr, name, group=None, before=None, after=None,
                          wrapper=None):
        original = getattr(sys.modules[module_name], attr)
        new = wrapper or self.tracer.wrap(original, name, group, before, after)
        for mod in _switchmc_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, new)

    def _replace_method(self, cls, attr, name, after):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.tracer.wrap(original, name, after=after))

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def install(self) -> "Probe":
        import switchmc.cli  # noqa: F401  (loads every module that gets patched)

        self._replace_function(
            "switchmc.solver", "solve", "solver.solve",
            before=self._before_solve if self.layers else None, after=self._after_solve,
        )
        self._replace_function(
            "switchmc.solver", "certify", "solver.certify", after=self._after_certify
        )
        self._replace_function(
            "switchmc.oracle", "build_lattice", "oracle.build_lattice", "oracle",
            after=self._after_lattice,
        )
        self._replace_function("switchmc.oracle", "exact_dp", "oracle.exact_dp", "oracle")
        self._replace_function(
            "switchmc.oracle", "enumerate_controls", "oracle.enumerate_controls", "oracle",
            after=self._after_enumerate,
        )
        if self.layers:
            self._install_layers()
        return self

    def _install_layers(self) -> None:
        import switchmc.solver as solver

        fn = self._replace_function
        fn("switchmc.sdde", "_draw_one", "sdde._draw_one", "noise")
        fn("switchmc.sdde", "sample_noise_batch", "sdde.sample_noise_batch", "noise")
        fn("switchmc.sdde", "euler_increment", "sdde.euler_increment")
        fn("switchmc.sdde", "simulate_batch", "sdde.simulate_batch")
        fn("switchmc.solver", "_randomized_ensemble", "solver._randomized_ensemble",
           after=self._after_ensemble)
        fn("switchmc.solver", "_fit", "solver._fit", after=self._after_fit)
        fn("switchmc.solver", "_prediction_se", "solver._prediction_se")
        fn("switchmc.solver", "_isotonic", "solver._isotonic", after=self._after_isotonic)
        self._replace_method(solver.FeatureMap, "design", "solver.design", after=self._after_design)
        self._replace_method(solver.ValueSurface, "_tab_eval", "solver._tab_eval",
                             after=self._after_tab_eval)
        self._replace_method(solver.Policy, "decide_batch", "solver.decide_batch",
                             after=self._after_decide)
        for attr in ("validate_no_free_loop", "validate_terminal_no_switch",
                     "validate_cycle_reduction", "validate_control"):
            fn("switchmc.controls", attr, f"controls.{attr}", "validate")
        built = self.tracer.wrap(
            sys.modules["switchmc.hydro"].build_hydro_problem, "hydro.build_hydro_problem"
        )
        fn("switchmc.hydro", "build_hydro_problem", None,
           wrapper=functools.wraps(built)(lambda *a, **k: self._problem_pair(built(*a, **k))))
        fn("switchmc.hydro", "mass_balance_residuals", "hydro.mass_balance_residuals")
        for attr in ("_write_json", "surface_to_csv", "path_to_csv", "diagnostics_to_json"):
            fn("switchmc.cli", attr, f"cli.{attr}", "artifact")
        fn("switchmc.cli", "main", "cli.main")

    def _problem_pair(self, pair):
        problem, grid = pair
        return self.problem(problem), grid

    def problem(self, problem):
        """Copy of ``problem`` whose reward, reset and cost callables are traced."""
        if not self.layers:
            return problem
        wrap = self.tracer.wrap
        reward = dataclasses.replace(
            problem.reward,
            running=wrap(problem.reward.running, "controls.running"),
            terminal=wrap(problem.reward.terminal, "controls.terminal"),
        )
        jump_maps = dataclasses.replace(
            problem.jump_maps, apply=wrap(problem.jump_maps.apply, "controls.jump_map")
        )
        costs = dataclasses.replace(problem.costs, cost=wrap(problem.costs.cost, "controls.cost"))
        return dataclasses.replace(problem, reward=reward, jump_maps=jump_maps, costs=costs)

    # -- hooks --------------------------------------------------------

    def _before_solve(self, args, kwargs):
        self._solves.append({"ensemble_end": None, "isotonic": None, "main_fit_columns": 0})

    def _after_solve(self, args, kwargs, surface, start, duration):
        diag = surface.diagnostics
        self.outputs.append(
            {
                "kind": "solve",
                "y0": surface.y0,
                "y0_se": surface.y0_se,
                "k_levels": surface.k_levels,
                "converged": bool(diag.converged),
            }
        )
        if not self.layers:
            return
        state = self._solves.pop()
        problem = args[0] if args else kwargs["problem"]
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        split = state["isotonic"] if state["isotonic"] is not None else start + duration
        begin = state["ensemble_end"] if state["ensemble_end"] is not None else start
        self.counts["main_pass_s"] += split - begin
        self.counts["se_reruns_s"] += start + duration - split
        cells = problem.modes.n_modes * grid.n_steps
        self.counts["levels_run"] += state["main_fit_columns"] / cells
        self.counts["levels_useful"] += surface.k_levels + 1

    def _after_certify(self, args, kwargs, report, start, duration):
        self.outputs.append({"kind": "certify", "lower_bound": report.lower_bound})

    def _after_lattice(self, args, kwargs, instance, start, duration):
        self.counts["lattice_nodes"] += instance.tree.n_nodes

    def _after_enumerate(self, args, kwargs, result, start, duration):
        self.counts["enum_contexts"] += result.contexts

    def _after_ensemble(self, args, kwargs, result, start, duration):
        if self._solves and self._solves[-1]["ensemble_end"] is None:
            self._solves[-1]["ensemble_end"] = start + duration

    def _after_fit(self, args, kwargs, result, start, duration):
        design, target = args[0], args[1]
        rows, cols = design.shape
        self.fit_rows.append(rows)
        self.counts["fit_flops"] += rows * cols * cols
        if self._solves and self._solves[-1]["isotonic"] is None:
            self._solves[-1]["main_fit_columns"] += 1 if target.ndim == 1 else target.shape[1]

    def _after_isotonic(self, args, kwargs, result, start, duration):
        if self._solves and self._solves[-1]["isotonic"] is None:
            self._solves[-1]["isotonic"] = start

    def _after_design(self, args, kwargs, result, start, duration):
        self.counts["design_cells"] += result.shape[0] * result.shape[1]

    def _after_tab_eval(self, args, kwargs, result, start, duration):
        x = args[2] if len(args) > 2 else kwargs["x"]
        self.counts["tab_eval_rows"] += x.shape[0]

    def _after_decide(self, args, kwargs, result, start, duration):
        if self.tracer.depth["solver.certify"] > 0:
            self.counts["decide_in_certify_s"] += duration

    # -- results ------------------------------------------------------

    def end_to_end(self) -> dict:
        t = self.tracer
        return {
            "solve_s": t.total["solver.solve"],
            "certify_s": t.total["solver.certify"],
            "oracle_s": t.group_time["oracle"],
        }

    def layer_metrics(self, artifact_bytes: int = 0) -> dict:
        """Per-layer values of one traced repetition, keyed as in BENCHMARK.json.

        A solve's main pass runs from the end of its training ensemble to
        its first ``_isotonic`` call; the standard-error block reruns from
        there to its return.  ``levels_run`` counts the budget levels the
        main passes fitted (fitted columns over modes times steps), and
        ``levels_useful_ratio`` divides the levels kept (``k_levels + 1``
        per solve) by it.  ``certify_sim_s`` is certification time outside
        ``Policy.decide_batch``.
        """
        t = self.tracer
        c = self.counts
        levels_run = c["levels_run"]
        out = {
            "sdde.noise_draw_calls": t.calls["sdde._draw_one"],
            "sdde.noise_draw_s": t.group_time["noise"],
            "sdde.euler_calls": t.calls["sdde.euler_increment"],
            "sdde.euler_s": t.total["sdde.euler_increment"],
            "sdde.simulate_s": t.total["sdde.simulate_batch"],
            "solver.ensemble_self_s": t.self_time["solver._randomized_ensemble"],
            "solver.design_calls": t.calls["solver.design"],
            "solver.design_cells": int(c["design_cells"]),
            "solver.design_s": t.total["solver.design"],
            "solver.fit_calls": t.calls["solver._fit"],
            "solver.fit_rows_p50": statistics.median(self.fit_rows) if self.fit_rows else 0,
            "solver.fit_flops": int(c["fit_flops"]),
            "solver.fit_s": t.total["solver._fit"],
            "solver.prediction_se_s": t.total["solver._prediction_se"],
            "solver.main_pass_s": c["main_pass_s"],
            "solver.se_reruns_s": c["se_reruns_s"],
            "solver.recursion_self_s": t.self_time["solver.solve"],
            "solver.levels_run": levels_run,
            "solver.levels_useful_ratio": c["levels_useful"] / levels_run if levels_run else 0.0,
            "solver.tab_eval_calls": t.calls["solver._tab_eval"],
            "solver.tab_eval_rows": int(c["tab_eval_rows"]),
            "solver.tab_eval_s": t.total["solver._tab_eval"],
            "solver.decide_calls": t.calls["solver.decide_batch"],
            "solver.decide_s": t.total["solver.decide_batch"],
            "solver.certify_sim_s": t.total["solver.certify"] - c["decide_in_certify_s"],
            "controls.validate_s": t.group_time["validate"],
            "oracle.lattice_s": t.total["oracle.build_lattice"],
            "oracle.lattice_nodes": int(c["lattice_nodes"]),
            "oracle.exact_dp_s": t.total["oracle.exact_dp"],
            "oracle.enumerate_s": t.total["oracle.enumerate_controls"],
            "oracle.enum_contexts": int(c["enum_contexts"]),
            "hydro.build_s": t.total["hydro.build_hydro_problem"],
            "hydro.mass_balance_s": t.total["hydro.mass_balance_residuals"],
            "cli.self_s": t.self_time["cli.main"],
            "cli.artifact_s": t.group_time["artifact"],
            "cli.artifact_bytes": artifact_bytes,
        }
        for part in ("running", "terminal", "jump_map", "cost"):
            out[f"controls.{part}_calls"] = t.calls[f"controls.{part}"]
        for part in ("running", "jump_map", "cost"):
            out[f"controls.{part}_s"] = t.total[f"controls.{part}"]
        return out
