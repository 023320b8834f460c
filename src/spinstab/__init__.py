"""Feedback stabilization of finite-dimensional spin systems under
continuous measurement: an Ito SDE simulator for the conditional state, the
switching control law with a hysteresis band, the averaged-dynamics ODE
integrator, and a Monte Carlo harness for convergence and exit-time
statistics.
"""

from .controller import (ConstantInput, ControllerState, feedback_gain,
                         new_controller)
from .dynamics import (
    EPS_CONV,
    OdeTrajectory,
    SdeStepConfig,
    TrajectoryRecord,
    integrate_ensemble,
    simulate_batch,
    sme_diffusion,
    sme_drift,
)
from .montecarlo import (
    EnsembleStats,
    ExitTimeReport,
    compare_mean_vs_ode,
    estimate_exit_time,
    run_ensemble,
)
from .quantum import (
    NumericalFailureError,
    QuantumState,
    SpinOperators,
    distance_V,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
    maximally_mixed,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantInput",
    "ControllerState",
    "EPS_CONV",
    "EnsembleStats",
    "ExitTimeReport",
    "NumericalFailureError",
    "OdeTrajectory",
    "QuantumState",
    "SdeStepConfig",
    "SpinOperators",
    "TrajectoryRecord",
    "compare_mean_vs_ode",
    "distance_V",
    "eigenstate",
    "estimate_exit_time",
    "feedback_gain",
    "integrate_ensemble",
    "lyapunov_Q",
    "make_spin_operators",
    "maximally_mixed",
    "new_controller",
    "run_ensemble",
    "simulate_batch",
    "sme_diffusion",
    "sme_drift",
]
