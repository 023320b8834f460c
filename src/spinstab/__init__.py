"""Feedback stabilization of finite-dimensional spin systems under
continuous measurement: an Ito SDE simulator for the conditional state, the
switching control law with a hysteresis band, the averaged-dynamics ODE
integrator, and a Monte Carlo harness for convergence and exit-time
statistics.

The package exports each module's ``__all__`` (``controller``,
``dynamics``, ``montecarlo`` and ``quantum``), so a public name is declared
once, in its own module.
"""

from . import controller, dynamics, montecarlo, quantum
from .controller import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .quantum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*controller.__all__, *dynamics.__all__, *montecarlo.__all__,
           *quantum.__all__]
