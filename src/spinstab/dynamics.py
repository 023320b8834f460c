"""Numerical integration of the controlled measurement dynamics.

Two integrators live here:

* an Euler-Maruyama scheme for the diffusion (Ito) equation of the
  conditional state under continuous measurement and feedback,

      d rho = -i u [F_y, rho] dt - 1/2 [F_z, [F_z, rho]] dt
              + sqrt(eta) (F_z rho + rho F_z - 2 Tr(F_z rho) rho) dW,

  with a projection back onto the state space after every step;

* a classical fixed-step RK4 integrator for the averaged (ensemble)
  dynamics under a constant input, which is the same drift with the noise
  term dropped.

Trajectories are deterministic functions of their inputs: the Wiener
increments come from a counter-based generator keyed by
(base_seed, stream), so ensembles reproduce bit-for-bit regardless of
how the trajectories are scheduled.

The stepping core is vectorized over a leading batch axis; all public
drift/diffusion operations accept either a single (N, N) matrix or a
stacked (M, N, N) array.

Both integrators step the state in the dtype chosen once, at entry, by
``_checked_rho0``: float64 when the initial state has a zero imaginary
part, complex128 otherwise. F_z is diagonal and B = -i F_y is real, so
drift, back-action, feedback gain and projection all map a real symmetric
state to a real symmetric state; a real run does the same arithmetic on
half the data, through the same kernels. A complex initial state runs
those kernels in complex128.
"""

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .controller import ControllerState, feedback_gain, switch_modes
from .quantum import (NumericalFailureError, QuantumState, SpinOperators,
                      _check_dim, _clip_psd, _dag, distance_V)

__all__ = [
    "SdeStepConfig",
    "TrajectoryRecord",
    "OdeTrajectory",
    "EPS_CONV",
    "sme_drift",
    "sme_diffusion",
    "simulate_batch",
    "integrate_ensemble",
]

# Convergence flag threshold on V: discriminates converged paths at figure level.
EPS_CONV = 0.01

# Steps of noise drawn per member at a time. Philox draws do not depend on
# how they are blocked, so the block size bounds memory and changes no result.
_NOISE_BLOCK = 512


@dataclass(frozen=True)
class SdeStepConfig:
    """Step configuration for the stochastic integrator."""

    dt: float = 1e-3
    eta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


@dataclass
class TrajectoryRecord:
    """Sampled summaries of one trajectory on the output grid.

    ``modes`` holds the controller branch applied at each recorded time
    ('feedback' or 'constant'); for a fixed-input run it is 'constant'
    throughout. ``converged`` means V at the final recorded time is below
    the convergence threshold; ``first_time_below`` is the first step time
    at which V dropped below it (None if it never did).
    """

    times: np.ndarray
    V: np.ndarray
    u: np.ndarray
    purity: np.ndarray
    modes: np.ndarray
    stream: int
    converged: bool
    first_time_below: float | None


@dataclass
class OdeTrajectory:
    """Grid states of the averaged dynamics: ``states`` is one read-only
    (K+1, N, N) array, the initial state and the state after each RK4 step.
    Its dtype is float64 for an initial state with a zero imaginary part and
    complex128 otherwise (see ``_checked_rho0``)."""

    times: np.ndarray
    states: np.ndarray


def _as_u(u) -> np.ndarray:
    """Shape a scalar or per-member control input for (..., N, N) broadcasting."""
    return np.asarray(u, dtype=float)[..., None, None]


def sme_drift(rho, u, ops: SpinOperators) -> np.ndarray:
    """Deterministic increment rate: -i u [F_y, rho] - 1/2 [F_z, [F_z, rho]].

    Precondition: ``rho`` is Hermitian, as every state is. Then, with the
    real matrix B = -i F_y (``ops.b_y``), the commutator term is
    -i [F_y, rho] = X + X* for X = B rho, one real matmul on the float view
    of ``rho``. The double commutator is evaluated entrywise as
    (lam_i - lam_j)^2 rho_ij (``ops.gaps_sq``), which is exact because F_z
    is diagonal. For exactly Hermitian input the result is exactly
    Hermitian; it is traceless, and it vanishes at every measurement
    eigenstate when u = 0. A real ``rho`` gives a real (symmetric) result,
    a complex one a complex result.
    """
    m = np.asarray(rho)
    m = np.ascontiguousarray(m, dtype=complex if np.iscomplexobj(m) else float)
    x = (ops.b_y @ m.view(np.float64)).view(m.dtype)
    x += _dag(x)
    return _as_u(u) * x - 0.5 * ops.gaps_sq * m


def sme_diffusion(rho, ops: SpinOperators, eta: float) -> np.ndarray:
    """Measurement back-action rate sqrt(eta)(F_z rho + rho F_z - 2 Tr(F_z rho) rho).

    F_z is diagonal, so F_z rho + rho F_z is (lam_i + lam_j) rho_ij and
    Tr(F_z rho) is the diagonal of ``rho`` dotted with the eigenvalues.
    Traceless and Hermitian; zero at every measurement eigenstate. A batch
    row equals the single-matrix call bit for bit: einsum sums every row in
    one order, where matmul would hand a batch of one to BLAS.
    """
    m = np.asarray(rho)
    lam = ops.lambdas
    mean = np.einsum("...i,i->...", m.diagonal(0, -2, -1).real, lam)
    out = lam[:, None] * m + m * lam - 2.0 * mean[..., None, None] * m
    return np.sqrt(eta) * out


def _euler_step(rho, u, dw, cfg: SdeStepConfig, ops: SpinOperators) -> np.ndarray:
    """One Euler-Maruyama step, projected back onto the state space.

    The stepping kernel of every stochastic integration. ``rho`` is a single
    matrix or a stacked (M, N, N) array; ``u`` and ``dw`` broadcast against
    it. Raises NumericalFailureError if the step leaves the finite numbers.
    """
    incr = sme_drift(rho, u, ops) * cfg.dt + sme_diffusion(rho, ops, cfg.eta) * dw
    return _clip_psd(rho + incr)


def _checked_rho0(rho0, ops: SpinOperators) -> np.ndarray:
    """``rho0`` as an array in the dtype the run steps in, or ValueError
    unless it is an N x N state.

    The one place the state's dtype is chosen: a contiguous float64 array
    when the validated state's imaginary part is all zero, complex128
    otherwise. The dynamics keep a real state real, so the integrators step
    it in float64 throughout.
    """
    _check_dim(rho0, ops.dim)
    mat = np.asarray(QuantumState(rho0))
    return mat if mat.imag.any() else np.ascontiguousarray(mat.real)


def _step_count(T: float, dt: float, dt_name: str) -> int:
    """The number of steps of size ``dt`` that reach the horizon ``T``.

    The one place a horizon and a step become a step count. Raises
    ValueError naming the bad value unless both are finite and > 0 and
    T / dt rounds to a count from 1 to sys.maxsize.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"{dt_name} must be finite and > 0, got {dt}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and > 0, got {T}")
    if not T / dt <= sys.maxsize:
        raise ValueError(f"horizon T = {T} is {T / dt:g} steps of "
                         f"{dt_name} = {dt}, more than {sys.maxsize}")
    n_steps = round(T / dt)
    if n_steps < 1:
        raise ValueError(f"horizon T = {T} is below one step {dt_name} = {dt}")
    return n_steps


@contextmanager
def _records_fit(T: float, dt: float, dt_name: str, stride: int):
    """A failed allocation of a run's records as a ValueError naming T."""
    try:
        yield
    except MemoryError as e:
        raise ValueError(f"horizon T = {T:g} at {dt_name} = {dt:g} with "
                         f"record stride {stride} does not fit in memory: "
                         f"{e}") from e


def _failed_at(err: NumericalFailureError, t: float) -> NumericalFailureError:
    """The same failure, stamped with the time of the step that caused it."""
    return NumericalFailureError(f"{err} at t = {t:g}", time=t)


def _philox_rng(base_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (base_seed, stream)."""
    key = np.array([base_seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class _BatchResult:
    """Raw per-member series produced by the batched stepping loop."""

    times: np.ndarray            # (R,) recorded times
    V: np.ndarray                # (R, M)
    u: np.ndarray                # (R, M)
    purity: np.ndarray           # (R, M)
    modes: np.ndarray            # (R, M) uint8, 1 = feedback branch
    state_sum: np.ndarray | None  # (R, N, N) sum over members
    first_below: np.ndarray      # (M,) first time V < EPS_CONV, NaN if never
    exit_times: np.ndarray       # (M,) first time V <= exit_threshold


# A step that overflows is caught by _clip_psd, so numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def _integrate_batch(rho0, control, T: float, cfg: SdeStepConfig,
                     base_seed: int, streams, *, record_stride: int = 1,
                     accumulate_sum: bool = False,
                     exit_threshold: float | None = None) -> _BatchResult:
    """Step a batch of trajectories that share rho0 and the control.

    ``streams`` is a sequence of noise stream indices, one per member.
    ``control`` is a ControllerState (the switching law) or a ConstantInput
    (a fixed input); the target index and operators are taken from it.
    Under the switching law each member carries its own mode flag. Every
    member starts in the constant mode, so the first ``switch_modes``
    call, at t = 0, decides the mode: feedback exactly when
    V(rho0) <= 1 - gamma, constant in the band and above it. Step k of the
    ``_step_count`` steps is recorded when ``k % record_stride == 0`` and at
    the last step. With an ``exit_threshold`` the loop, and the records,
    stop once every member has reached V <= exit_threshold. Each member
    draws its noise in blocks of ``_NOISE_BLOCK`` steps. The batch is
    stepped in the dtype that ``_checked_rho0`` picks for ``rho0``. Raises
    ValueError for an input outside its range, including a ``rho0`` that is
    not an N x N density matrix and records too large for memory, and
    NumericalFailureError, with the time of the failed step, if a member's
    state becomes non-finite.
    """
    f, ops = control.f, control.ops
    mh = isinstance(control, ControllerState)
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    n_steps = _step_count(T, cfg.dt, "dt")

    m_count = len(streams)
    if m_count < 1:
        raise ValueError("M must be >= 1: no trajectory streams given")
    rho0 = _checked_rho0(rho0, ops)

    state = np.tile(rho0, (m_count, 1, 1))
    modes = np.zeros(m_count, dtype=bool)
    first_below = np.full(m_count, np.nan)
    exit_times = np.full(m_count, np.nan)

    # steps 0, s, 2s, ... and the last: ceil(n_steps / s) + 1 records
    n_rec = -(-n_steps // record_stride) + 1
    with _records_fit(T, cfg.dt, "dt", record_stride):
        rec_t = np.zeros(n_rec)
        rec_V = np.zeros((n_rec, m_count))
        rec_u = np.zeros((n_rec, m_count))
        rec_purity = np.zeros((n_rec, m_count))
        rec_modes = np.zeros((n_rec, m_count), dtype=np.uint8)
        rec_sum = (np.zeros((n_rec, *rho0.shape), dtype=complex)
                   if accumulate_sum else None)

    gens = [_philox_rng(base_seed, s) for s in streams]
    sqrt_dt = np.sqrt(cfg.dt)
    noise = np.empty((m_count, min(_NOISE_BLOCK, n_steps)))
    block_start = block_fill = 0

    rec_i = 0
    k = 0
    while True:
        t = k * cfg.dt
        v = distance_V(state, f)

        newly_below = np.isnan(first_below) & (v < EPS_CONV)
        if newly_below.any():
            first_below[newly_below] = t
        if exit_threshold is not None:
            newly_out = np.isnan(exit_times) & (v <= exit_threshold)
            if newly_out.any():
                exit_times[newly_out] = t

        if mh:
            modes = switch_modes(modes, v, control.gamma)
            u_vec = np.where(modes, feedback_gain(state, f, ops), 1.0)
        else:
            u_vec = np.full(m_count, control.u)

        if k % record_stride == 0 or k == n_steps:
            rec_t[rec_i] = t
            rec_V[rec_i] = v
            rec_u[rec_i] = u_vec
            rec_purity[rec_i] = np.sum(np.abs(state) ** 2, axis=(-2, -1))
            rec_modes[rec_i] = modes
            if accumulate_sum:
                rec_sum[rec_i] = state.sum(axis=0)
            rec_i += 1

        if k == n_steps:
            break
        if exit_threshold is not None and not np.isnan(exit_times).any():
            break

        if k - block_start >= block_fill:
            block_start = k
            block_fill = min(_NOISE_BLOCK, n_steps - k)
            for j, g in enumerate(gens):
                noise[j, :block_fill] = g.normal(0.0, sqrt_dt, block_fill)
        dw = noise[:, k - block_start]

        try:
            state = _euler_step(state, u_vec, dw[:, None, None], cfg, ops)
        except NumericalFailureError as e:
            raise _failed_at(e, t + cfg.dt) from e
        k += 1

    return _BatchResult(
        times=rec_t[:rec_i], V=rec_V[:rec_i], u=rec_u[:rec_i],
        purity=rec_purity[:rec_i], modes=rec_modes[:rec_i],
        state_sum=rec_sum[:rec_i] if accumulate_sum else None,
        first_below=first_below, exit_times=exit_times)


def simulate_batch(rho0, control, T: float, cfg: SdeStepConfig,
                   base_seed: int, streams, *,
                   record_stride: int = 1) -> list[TrajectoryRecord]:
    """Simulate one trajectory per stream index and return their records.

    All trajectories start from ``rho0`` and share ``control``, a
    ControllerState or a ConstantInput; stream k draws its noise from the
    generator keyed (base_seed, k).
    Raises ValueError for an input outside its range, including an empty
    ``streams``, and NumericalFailureError (with the failure time attached)
    if any member's state becomes non-finite.
    """
    streams = list(streams)
    res = _integrate_batch(rho0, control, T, cfg, base_seed, streams,
                           record_stride=record_stride)
    records = []
    for j, stream in enumerate(streams):
        fb = res.first_below[j]
        records.append(TrajectoryRecord(
            times=res.times.copy(),
            V=res.V[:, j].copy(),
            u=res.u[:, j].copy(),
            purity=res.purity[:, j].copy(),
            modes=np.where(res.modes[:, j] == 1, "feedback", "constant"),
            stream=stream,
            converged=bool(res.V[-1, j] < EPS_CONV),
            first_time_below=None if np.isnan(fb) else float(fb)))
    return records


# A step that overflows is caught by _clip_psd, so numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def integrate_ensemble(rho0, control, T: float,
                       dt_ode: float) -> OdeTrajectory:
    """Integrate the averaged dynamics under a ConstantInput's u by RK4.

    Every grid state is projected back onto the state space and written
    into one read-only (K+1, N, N) array, float64 for a ``rho0`` with a
    zero imaginary part and complex128 otherwise. With any nonzero u the
    trajectory approaches I/N as T grows. Raises ValueError for an input
    outside its range, ``rho0`` included, or grid states too many for
    memory, and NumericalFailureError, with the time of the failed step, if
    the state becomes non-finite.
    """
    u, ops = control.u, control.ops
    n_steps = _step_count(T, dt_ode, "dt_ode")
    state = _checked_rho0(rho0, ops)
    with _records_fit(T, dt_ode, "dt_ode", 1):
        states = np.empty((n_steps + 1, ops.dim, ops.dim), dtype=state.dtype)
    states[0] = state
    half = 0.5 * dt_ode
    for k in range(n_steps):
        k1 = sme_drift(state, u, ops)
        k2 = sme_drift(state + half * k1, u, ops)
        k3 = sme_drift(state + half * k2, u, ops)
        k4 = sme_drift(state + dt_ode * k3, u, ops)
        state = state + (dt_ode / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        try:
            state = _clip_psd(state)
        except NumericalFailureError as e:
            raise _failed_at(e, k * dt_ode + dt_ode) from e
        states[k + 1] = state
    states.setflags(write=False)
    return OdeTrajectory(times=np.arange(n_steps + 1) * dt_ode, states=states)
