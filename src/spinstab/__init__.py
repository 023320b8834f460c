"""Feedback stabilization of finite-dimensional spin systems under
continuous measurement: an Ito SDE simulator for the conditional state, the
switching control law with a hysteresis band, the averaged-dynamics ODE
integrator, and a Monte Carlo harness for convergence and exit-time
statistics.
"""

from .controller import ControllerState, Mode, feedback_gain, mh_control, new_controller
from .dynamics import (
    EPS_CONV,
    OdeTrajectory,
    SdeStepConfig,
    TrajectoryRecord,
    em_step,
    integrate_ensemble,
    simulate_batch,
    simulate_trajectory,
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
    project_to_state_space,
    random_density,
)

__version__ = "0.1.0"

__all__ = [
    "ControllerState",
    "EPS_CONV",
    "EnsembleStats",
    "ExitTimeReport",
    "Mode",
    "NumericalFailureError",
    "OdeTrajectory",
    "QuantumState",
    "SdeStepConfig",
    "SpinOperators",
    "TrajectoryRecord",
    "compare_mean_vs_ode",
    "distance_V",
    "eigenstate",
    "em_step",
    "estimate_exit_time",
    "feedback_gain",
    "integrate_ensemble",
    "lyapunov_Q",
    "make_spin_operators",
    "maximally_mixed",
    "mh_control",
    "new_controller",
    "project_to_state_space",
    "random_density",
    "run_ensemble",
    "simulate_batch",
    "simulate_trajectory",
    "sme_diffusion",
    "sme_drift",
]
