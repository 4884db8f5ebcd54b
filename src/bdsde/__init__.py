"""Regression Monte Carlo solver for backward doubly stochastic differential
equations whose terminal time is the first exit of a forward Euler diffusion
from a bounded domain.

The package exports the ``__all__`` of each submodule; each public name is
listed once, in its own module.
"""

from . import experiments, forward, model, oracles, regression, solver
from .experiments import *  # noqa: F401,F403
from .forward import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .regression import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__all__ = sorted({
    name
    for module in (model, forward, regression, solver, oracles, experiments)
    for name in module.__all__
})

__version__ = "0.1.0"
