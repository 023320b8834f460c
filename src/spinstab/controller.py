"""Switching control law with a hysteresis band.

The controller is a two-mode state machine driven by the distance
V(rho) = 1 - rho_ff to the target eigenstate:

* V <= 1 - gamma        -> FEEDBACK mode, u = -(i [F_y, rho])_ff;
* V >= 1 - gamma/2      -> CONSTANT mode, u = 1;
* inside the open band in between, the mode latches: it keeps whatever
  branch was active when the band was last entered.

The boundary conditions are closed as written above, so V exactly equal to
1 - gamma selects feedback and V exactly equal to 1 - gamma/2 selects the
constant drive. Switching parameters gamma >= 1/N are accepted but flagged:
they fall outside the range with a convergence guarantee.
"""

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .quantum import SpinOperators, _check_dim, distance_V

__all__ = [
    "Mode",
    "ControllerState",
    "feedback_gain",
    "switch_modes",
    "mh_control",
    "new_controller",
]


class Mode(Enum):
    FEEDBACK = "feedback"
    CONSTANT = "constant"


@dataclass(frozen=True)
class ControllerState:
    """Immutable controller value: cloned per trajectory, never shared mutably.

    ``stability_warning`` is True when gamma >= 1/N, i.e. outside the
    switching-parameter range that guarantees global convergence.
    """

    gamma: float
    f: int
    mode: Mode
    ops: SpinOperators
    stability_warning: bool = False


def feedback_gain(rho, f: int, ops: SpinOperators):
    """Feedback input -(i [F_y, rho])_ff; real, and zero at the target.

    Precondition: ``rho`` is Hermitian, as every state is. Then
    -(i [F_y, rho])_ff = 2 Im(sum_k (F_y)_fk rho_kf) = 2 sum_k B_fk Re(rho_kf)
    with the real B = -i F_y (``ops.b_y``), so only column f of ``rho`` is
    read; F_y is tridiagonal, so only k = f-1, f+1 contribute.
    Accepts a single state or a stacked (..., N, N) array.
    """
    m = np.asarray(rho)
    g = 2.0 * (m[..., :, f - 1].real @ ops.b_y[f - 1])
    return float(g) if np.ndim(g) == 0 else g


def switch_modes(feedback_mode, v, gamma: float):
    """Hysteresis update of the mode flag(s); True means feedback branch.

    Vectorized over trajectories: ``feedback_mode`` and ``v`` may be arrays.
    """
    feed = np.asarray(v) <= 1.0 - gamma
    const = np.asarray(v) >= 1.0 - 0.5 * gamma
    return feed | (np.asarray(feedback_mode, dtype=bool) & ~const)


def mh_control(state: ControllerState, rho) -> tuple[float, ControllerState]:
    """One controller evaluation: returns the input u and the updated state.

    Pure function of (state, rho); the returned state carries the possibly
    latched mode for the next evaluation.
    """
    v = distance_V(rho, state.f)
    feedback = bool(switch_modes(state.mode is Mode.FEEDBACK, v, state.gamma))
    if feedback:
        u = float(feedback_gain(rho, state.f, state.ops))
        new_mode = Mode.FEEDBACK
    else:
        u = 1.0
        new_mode = Mode.CONSTANT
    if new_mode is state.mode:
        return u, state
    return u, replace(state, mode=new_mode)


def new_controller(gamma: float, f: int, ops: SpinOperators,
                   initial_rho) -> ControllerState:
    """Construct a controller and derive its initial mode from the state.

    The initial mode is FEEDBACK when V(rho0) <= 1 - gamma and CONSTANT
    otherwise; in particular a state starting inside the hysteresis band,
    which has no crossing history, gets the constant drive. gamma must be
    positive; gamma >= 1/N is accepted with a warning since it lies outside
    the guaranteed-convergence range. Raises ValueError for an
    ``initial_rho`` that is not N x N.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if not 1 <= f <= ops.dim:
        raise ValueError(f"target index must be in 1..{ops.dim}, got {f}")
    _check_dim(initial_rho, ops.dim)
    stability_warning = gamma >= 1.0 / ops.dim
    if stability_warning:
        warnings.warn(
            f"gamma = {gamma:g} >= 1/N = {1.0 / ops.dim:g}: outside the "
            "switching-parameter range with a convergence guarantee",
            stacklevel=2)
    v0 = distance_V(initial_rho, f)
    mode = Mode.FEEDBACK if v0 <= 1.0 - gamma else Mode.CONSTANT
    return ControllerState(gamma=gamma, f=f, mode=mode, ops=ops,
                           stability_warning=stability_warning)
