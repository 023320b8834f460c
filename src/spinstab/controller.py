"""Switching control law with a hysteresis band.

The controller switches between two modes, driven by the distance
V(rho) = 1 - rho_ff to the target eigenstate:

* V <= 1 - gamma        -> feedback mode, u = -(i [F_y, rho])_ff;
* V >= 1 - gamma/2      -> constant mode, u = 1 (``DRIVE_U``);
* inside the open band in between, the mode latches: it keeps whatever
  branch was active when the band was last entered.

The boundary conditions are closed as written above, so V exactly equal to
1 - gamma selects feedback and V exactly equal to 1 - gamma/2 selects the
constant drive. The mode is a boolean flag per trajectory (True means
feedback), stepped by ``switch_modes`` inside the integrator's loop. Every
trajectory starts in the constant mode, so the first switch, at t = 0,
selects feedback exactly when V(rho0) <= 1 - gamma: a state starting inside
the band, which has no crossing history, gets the constant drive.
Switching parameters gamma >= 1/N are accepted but flagged: they fall
outside the range with a convergence guarantee. A run's control is one
value that carries its target and operators and checks itself when built:
a ``ControllerState`` for this law or a ``ConstantInput`` for a fixed drive.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantum import SpinOperators

__all__ = [
    "ConstantInput",
    "ControllerState",
    "feedback_gain",
    "switch_modes",
    "new_controller",
]


# The constant mode's input u, the drive outside the feedback region; also
# the fixed input of an exit-time run.
DRIVE_U = 1.0


def _check_target(f: int, ops: SpinOperators) -> None:
    if not 1 <= f <= ops.dim:
        raise ValueError(f"target index must be in 1..{ops.dim}, got {f}")


@dataclass(frozen=True)
class ControllerState:
    """The switching law's parameters: switching parameter, target index
    (1-based) and operators. Immutable, shared by every trajectory; raises
    ValueError unless gamma is finite and > 0 and f is in 1..N."""

    gamma: float
    f: int
    ops: SpinOperators

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        _check_target(self.f, self.ops)


@dataclass(frozen=True)
class ConstantInput:
    """A fixed input u, target index f (1-based) and operators. Immutable;
    raises ValueError unless u is finite and f is in 1..N."""

    u: float
    f: int
    ops: SpinOperators

    def __post_init__(self):
        if not math.isfinite(self.u):
            raise ValueError(f"constant input u must be finite, got {self.u}")
        _check_target(self.f, self.ops)


def feedback_gain(rho, f: int, ops: SpinOperators):
    """Feedback input -(i [F_y, rho])_ff; real, and zero at the target.

    -(i [F_y, rho])_ff = 2 Im(sum_k (F_y)_fk rho_kf) = 2 sum_k B_fk Re(rho_kf)
    for a Hermitian ``rho``, with the real B = -i F_y (``ops.b_y``), and
    2 Re(rho_kf) = Re(rho_kf + rho_fk) is read from column and row f, so
    only those are read; F_y is tridiagonal, so only k = f-1, f+1
    contribute. The same sum gives the gain of a state from its real form
    P = Re rho + Im rho, which the stochastic loop reads at t = 0 and
    steps at eta < 1 (see ``dynamics``): P_kf + P_fk = 2 Re(rho_kf).
    Accepts a single matrix or a stacked (..., N, N) array. Each gain is
    its own dot product, so a stack's row equals its matrix's lone gain,
    bit for bit.
    """
    m = np.asarray(rho)
    g = np.vecdot((m[..., :, f - 1] + m[..., f - 1, :]).real, ops.b_y[f - 1])
    return float(g) if np.ndim(g) == 0 else g


def switch_modes(feedback_mode, v, gamma: float):
    """Hysteresis update of the mode flag(s); True means feedback branch.

    Vectorized over trajectories: ``feedback_mode`` and ``v`` may be arrays.
    """
    v = np.asarray(v)
    feed = v <= 1.0 - gamma
    latched = np.asarray(feedback_mode, dtype=bool)
    # with no flag set there is nothing to latch
    if np.count_nonzero(latched):
        latched = latched & ~(v >= 1.0 - 0.5 * gamma)
    return feed | latched


def new_controller(gamma: float, f: int, ops: SpinOperators,
                   initial_rho=None) -> ControllerState:
    """``ControllerState(gamma, f, ops)``, with a warning when gamma >= 1/N.

    Such a gamma is accepted since it lies outside the guaranteed-convergence
    range. The initial mode is not stored: the integrator derives it from
    its own initial state (see the module docstring), so ``initial_rho`` is
    accepted for existing call sites and not read.
    """
    ctrl = ControllerState(gamma, f, ops)
    if gamma >= 1.0 / ops.dim:
        warnings.warn(
            f"gamma = {gamma:g} >= 1/N = {1.0 / ops.dim:g}: outside the "
            "switching-parameter range with a convergence guarantee",
            stacklevel=2)
    return ctrl
