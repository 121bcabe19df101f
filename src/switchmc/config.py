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
typos cannot silently fall back to defaults, and the configured instance
is built once at parse time so a bad family parameter raises ConfigError
too.  The families are:

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

import inspect
import json
from dataclasses import dataclass
from typing import Optional

from . import families
from .controls import SwitchingControl
from .hydro import HydroParams, build_hydro_problem
from .sdde import OffGridError, TimeGrid
from .solver import FeatureMap

__all__ = ["ConfigError", "SolverSettings", "RunConfig", "load_config", "parse_config"]


def _keys(builder) -> set:
    return set(inspect.signature(builder).parameters)


# The params keys of each family, read from the builder its params go to.
_PARAMS_KEYS = {
    "affine": _keys(families.affine_problem),
    "two_mode_deterministic": _keys(families.two_mode_flow_problem),
    "pure_cost": _keys(families.pure_cost_problem),
    # The builder's seed is named instance_seed here, apart from the run's --seed.
    "tree_random": _keys(families.random_tree_problem) - {"seed"} | {"instance_seed"},
    "gbm": _keys(families.gbm_spec) | {"horizon", "n_steps"},
    "hydro": _keys(HydroParams),
}


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
        return HydroParams(**self.params)


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _coerce_solver(section: dict) -> SolverSettings:
    _check_keys(section, _keys(SolverSettings), "solver")
    try:
        s = SolverSettings(**section)
    except TypeError as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc
    # JSON integers only: a bool is an int to Python, and 2.0 == 2.
    for name, ok, what in (
        ("n_paths", type(s.n_paths) is int and s.n_paths >= 2, "an integer, at least 2"),
        ("degree", type(s.degree) is int and s.degree >= 1, "an integer, at least 1"),
        ("k_max", s.k_max is None or type(s.k_max) is int and s.k_max >= 0, "null or an integer, at least 0"),
        ("quantization", s.quantization is None or type(s.quantization) is int and s.quantization in (2, 3),
         "null, 2 or 3"),
        ("cross_terms", type(s.cross_terms) is bool, "true or false"),
    ):
        if not ok:
            raise ConfigError(f"solver.{name} must be {what}, got {getattr(s, name)!r}")
    return s


def parse_config(raw: dict) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    raw = _require_object(raw, "config")
    _check_keys(raw, {"family", "params", "solver", "control"}, "top-level")
    family = raw.get("family")
    if family not in _PARAMS_KEYS:
        raise ConfigError(f"family must be one of {', '.join(_PARAMS_KEYS)}; got {family!r}")
    params = _require_object(raw.get("params", {}), "params")
    _check_keys(params, _PARAMS_KEYS[family], f"{family} params")
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
    try:
        cfg.build_dynamics()
    except (TypeError, ValueError, OffGridError) as exc:
        raise ConfigError(f"bad {family} parameters: {exc}") from exc
    return cfg


def _refuse_constant(name: str):
    raise ConfigError(f"{name} is not a number; NaN and Infinity are refused")


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(raw)
