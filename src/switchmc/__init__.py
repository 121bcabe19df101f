"""Optimal switching of delayed jump diffusions by regression Monte Carlo.

The package simulates mode-controlled stochastic delay equations with
compensated finite-mark jumps, evaluates and validates switching
controls, fits the iterated value family by per-mode regression Monte
Carlo, certifies extracted policies by resimulation, and cross-checks
everything against an exact backward-induction oracle on quantized
scenario lattices.  A two-plant hydropower cascade with delayed water
routing serves as the worked example; the ``switchmc`` console script
exposes the same pipeline from the command line.

The public names are those listed in the ``__all__`` of each module
re-exported below.
"""

from . import config, controls, hydro, oracle, sdde, snell, solver
from .config import *  # noqa: F401,F403
from .controls import *  # noqa: F401,F403
from .hydro import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .sdde import *  # noqa: F401,F403
from .snell import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (sdde, controls, snell, oracle, solver, hydro, config)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
