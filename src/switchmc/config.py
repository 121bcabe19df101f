"""JSON run configuration: parsing, validation, instance dispatch.

A config file is a single JSON object:

    {
      "family": "affine",
      "params": { ... family specific ... },
      "solver": {"n_paths": 4000, "k_max": null, "degree": 2,
                 "cross_terms": true, "quantization": null},
      "control": {"times": [0.0], "modes": [2]}
    }

Only "family" is required.  Unknown keys anywhere raise ConfigError so
typos cannot silently fall back to defaults.  The families are:

    affine                  one-dimensional affine dynamics, per-mode rates
    two_mode_deterministic  flat state, two reward rates, constant cost
    pure_cost               zero rewards, any control is worth minus its cost
    tree_random             seeded small instance sized for the exact oracle
    gbm                     plain geometric dynamics (no switching structure)
    hydro                   two-plant cascade with delayed water routing

``gbm`` supports simulation only; asking it for a switching problem
raises ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

from . import families
from .controls import SwitchingControl
from .hydro import HydroParams, build_hydro_problem
from .sdde import TimeGrid
from .solver import FeatureMap

__all__ = ["ConfigError", "SolverSettings", "RunConfig", "load_config", "parse_config"]

FAMILIES = ("affine", "two_mode_deterministic", "pure_cost", "tree_random", "gbm", "hydro")

_AFFINE_KEYS = {
    "n_modes", "horizon", "n_steps", "x0", "drift_const", "drift_lin", "drift_delay",
    "vol_const", "vol_lin", "delay_steps", "jump_intensity", "jump_scale", "jump_atoms",
    "jump_weights", "run_const", "run_lin", "term_const", "term_lin", "cost_table",
    "loop_floor", "initial_mode",
}
_TWO_MODE_KEYS = {"rate_low", "rate_high", "cost", "horizon", "n_steps"}
_PURE_COST_KEYS = {"n_modes", "cost", "horizon", "n_steps"}
_TREE_KEYS = {"instance_seed", "n_modes", "levels", "delay_steps", "mode_drift", "with_jumps"}
_GBM_KEYS = {"mu", "sigma", "x0", "horizon", "n_steps"}
_HYDRO_KEYS = {f.name for f in dataclasses.fields(HydroParams)}


class ConfigError(Exception):
    """The configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class SolverSettings:
    n_paths: int = 4000
    k_max: Optional[int] = None
    degree: int = 2
    cross_terms: bool = True
    quantization: Optional[int] = None

    def feature_map(self) -> FeatureMap:
        return FeatureMap(degree=self.degree, cross_terms=self.cross_terms)


@dataclass
class RunConfig:
    """Validated configuration, ready to build the runtime objects."""

    family: str
    params: dict
    solver: SolverSettings
    control: Optional[SwitchingControl]

    def build_problem(self):
        """(problem, grid) for families with switching structure."""
        if self.family == "affine":
            return families.affine_problem(**self.params)
        if self.family == "two_mode_deterministic":
            return families.two_mode_flow_problem(**self.params)
        if self.family == "pure_cost":
            return families.pure_cost_problem(**self.params)
        if self.family == "tree_random":
            kw = dict(self.params)
            kw["seed"] = kw.pop("instance_seed", 0)
            return families.random_tree_problem(**kw)
        if self.family == "hydro":
            return build_hydro_problem(self.hydro_params())
        raise ConfigError(f"family {self.family!r} has no switching problem")

    def build_dynamics(self):
        """(spec, grid, problem_or_None) for simulation."""
        if self.family == "gbm":
            kw = dict(self.params)
            horizon = kw.pop("horizon", 1.0)
            n_steps = kw.pop("n_steps", 64)
            spec = families.gbm_spec(**kw)
            return spec, TimeGrid(horizon, n_steps), None
        problem, grid = self.build_problem()
        return problem.dynamics, grid, problem

    def hydro_params(self) -> HydroParams:
        if self.family != "hydro":
            raise ConfigError(f"family {self.family!r} is not the cascade example")
        try:
            return HydroParams(**self.params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad hydro parameters: {exc}") from exc


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _coerce_solver(section: dict) -> SolverSettings:
    _check_keys(section, {f.name for f in dataclasses.fields(SolverSettings)}, "solver")
    try:
        settings = SolverSettings(**section)
    except TypeError as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc
    if settings.n_paths < 2:
        raise ConfigError("solver.n_paths must be at least 2")
    if settings.degree < 1:
        raise ConfigError("solver.degree must be at least 1")
    if settings.quantization not in (None, 2, 3):
        raise ConfigError("solver.quantization must be null, 2 or 3")
    if settings.k_max is not None and settings.k_max < 0:
        raise ConfigError("solver.k_max must be nonnegative")
    return settings


def parse_config(raw: dict) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    raw = _require_object(raw, "config")
    _check_keys(raw, {"family", "params", "solver", "control"}, "top-level")
    family = raw.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"family must be one of {', '.join(FAMILIES)}; got {family!r}")
    params = _require_object(raw.get("params", {}), "params")
    allowed = {
        "affine": _AFFINE_KEYS,
        "two_mode_deterministic": _TWO_MODE_KEYS,
        "pure_cost": _PURE_COST_KEYS,
        "tree_random": _TREE_KEYS,
        "gbm": _GBM_KEYS,
        "hydro": _HYDRO_KEYS,
    }[family]
    _check_keys(params, allowed, f"{family} params")
    solver = _coerce_solver(_require_object(raw.get("solver", {}), "solver"))
    control = None
    if "control" in raw:
        section = _require_object(raw["control"], "control")
        _check_keys(section, {"times", "modes"}, "control")
        try:
            control = SwitchingControl(tuple(section.get("times", ())), tuple(section.get("modes", ())))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad control: {exc}") from exc
    cfg = RunConfig(
        family=family,
        params=dict(params),
        solver=solver,
        control=control,
    )
    if family == "hydro":
        cfg.hydro_params()
    return cfg


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(raw)
