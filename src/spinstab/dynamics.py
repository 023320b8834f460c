"""Numerical integration of the controlled measurement dynamics.

Two integrators live here:

* an Euler-Maruyama scheme for the diffusion (Ito) equation of the
  conditional state under continuous measurement and feedback,

      d rho = -i u [F_y, rho] dt - 1/2 [F_z, [F_z, rho]] dt
              + sqrt(eta) (F_z rho + rho F_z - 2 Tr(F_z rho) rho) dW,

  with a projection back onto the state space after every step;

* a classical fixed-step RK4 integrator for the averaged (ensemble)
  dynamics, which is the same drift with the noise term dropped.

Trajectories are deterministic functions of their inputs: the Wiener
increments come from a counter-based generator keyed by
(base_seed, stream), so ensembles reproduce bit-for-bit regardless of
how the trajectories are scheduled.

The stepping core is vectorized over a leading batch axis; all public
drift/diffusion operations accept either a single (N, N) matrix or a
stacked (M, N, N) array.
"""

from dataclasses import dataclass

import numpy as np

from .controller import ControllerState, Mode, feedback_gain, switch_modes
from .quantum import NumericalFailureError, QuantumState, SpinOperators, _clip_psd

__all__ = [
    "SdeStepConfig",
    "TrajectoryRecord",
    "OdeTrajectory",
    "EPS_CONV",
    "sme_drift",
    "sme_diffusion",
    "em_step",
    "simulate_trajectory",
    "simulate_batch",
    "integrate_ensemble",
]

# Convergence flag threshold on V: discriminates converged paths at figure level.
EPS_CONV = 0.01

# Cap on the number of Gaussian increments drawn per chunk (memory bound).
_NOISE_CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True)
class SdeStepConfig:
    """Step configuration for the stochastic integrator."""

    dt: float = 1e-3
    eta: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
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
    seed: int
    stream: int
    converged: bool
    first_time_below: float | None


@dataclass
class OdeTrajectory:
    """Grid states of the averaged dynamics (one state per RK4 step)."""

    times: np.ndarray
    states: list[QuantumState]


def _as_u(u) -> np.ndarray:
    """Shape a scalar or per-member control input for (..., N, N) broadcasting."""
    return np.asarray(u, dtype=float)[..., None, None]


def sme_drift(rho, u, ops: SpinOperators) -> np.ndarray:
    """Deterministic increment rate: -i u [F_y, rho] - 1/2 [F_z, [F_z, rho]].

    The double commutator is evaluated entrywise as (lam_i - lam_j)^2 rho_ij,
    which is exact because F_z is diagonal. Traceless and Hermitian for
    Hermitian input; vanishes at every measurement eigenstate when u = 0.
    """
    m = np.asarray(rho)
    comm_y = ops.f_y @ m - m @ ops.f_y
    gaps = ops.lambdas[:, None] - ops.lambdas[None, :]
    return -1j * _as_u(u) * comm_y - 0.5 * gaps**2 * m


def sme_diffusion(rho, ops: SpinOperators, eta: float) -> np.ndarray:
    """Measurement back-action rate sqrt(eta)(F_z rho + rho F_z - 2 Tr(F_z rho) rho).

    Traceless and Hermitian; zero at every measurement eigenstate.
    """
    m = np.asarray(rho)
    lam = ops.lambdas
    diag = np.einsum("...ii,i->...", m, lam).real
    out = lam[:, None] * m + m * lam - 2.0 * diag[..., None, None] * m
    return np.sqrt(eta) * out


def _euler_step(rho, u, dw, cfg: SdeStepConfig, ops: SpinOperators) -> np.ndarray:
    """One Euler-Maruyama step, projected back onto the state space.

    The stepping kernel of every stochastic integration. ``rho`` is a single
    matrix or a stacked (M, N, N) array; ``u`` and ``dw`` broadcast against
    it. Raises NumericalFailureError if the step leaves the finite numbers.
    """
    incr = sme_drift(rho, u, ops) * cfg.dt + sme_diffusion(rho, ops, cfg.eta) * dw
    return _clip_psd(rho + incr)


def em_step(rho, u: float, cfg: SdeStepConfig, dw: float,
            ops: SpinOperators) -> QuantumState:
    """One projected Euler-Maruyama step.

    ``dw`` is a caller-supplied Gaussian increment with variance dt, so a
    step is a deterministic function of its arguments. The result is
    projected back onto the state space unconditionally; a non-finite
    result raises NumericalFailureError.
    """
    return QuantumState(_euler_step(np.asarray(rho, dtype=complex), u, dw,
                                    cfg, ops), validate=False)


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
                     base_seed: int, streams, *, f: int | None = None,
                     ops: SpinOperators | None = None, record_stride: int = 1,
                     accumulate_sum: bool = False,
                     exit_threshold: float | None = None) -> _BatchResult:
    """Step a batch of trajectories that share rho0 and the control law.

    ``control`` is either a ControllerState template (each member gets an
    independent copy of its mode, and ``f`` and ``ops`` are taken from it)
    or a real number used as a fixed input, which needs both ``f`` and
    ``ops``. With an ``exit_threshold`` the loop stops once every member has
    reached V <= exit_threshold. Raises ValueError for an input outside its
    range and NumericalFailureError, with the time of the failed step, if a
    member's state becomes non-finite.
    """
    mh = isinstance(control, ControllerState)
    if mh:
        f, ops = control.f, control.ops
    else:
        if f is None or ops is None:
            raise ValueError("a fixed-input run requires both f and ops")
        u_const = float(control)
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if T <= 0:
        raise ValueError(f"horizon T must be > 0, got {T}")
    n_steps = int(round(T / cfg.dt))
    if n_steps < 1:
        raise ValueError(f"horizon T = {T} is below one step dt = {cfg.dt}")

    streams = list(streams)
    m_count = len(streams)
    if m_count < 1:
        raise ValueError("M must be >= 1: no trajectory streams given")
    rho0 = np.asarray(rho0, dtype=complex)
    n = rho0.shape[-1]
    fi = f - 1
    if not 0 <= fi < n:
        raise ValueError(f"target index must be in 1..{n}, got {f}")

    rec_ks = list(range(0, n_steps + 1, record_stride))
    if rec_ks[-1] != n_steps:
        rec_ks.append(n_steps)
    n_rec = len(rec_ks)

    state = np.tile(rho0, (m_count, 1, 1))
    modes = np.full(m_count, mh and control.mode is Mode.FEEDBACK, dtype=bool)
    first_below = np.full(m_count, np.nan)
    exit_times = np.full(m_count, np.nan)

    rec_V = np.zeros((n_rec, m_count))
    rec_u = np.zeros((n_rec, m_count))
    rec_purity = np.zeros((n_rec, m_count))
    rec_modes = np.zeros((n_rec, m_count), dtype=np.uint8)
    rec_sum = np.zeros((n_rec, n, n), dtype=complex) if accumulate_sum else None

    gens = [_philox_rng(base_seed, s) for s in streams]
    sqrt_dt = np.sqrt(cfg.dt)
    chunk_len = max(1, min(n_steps, _NOISE_CHUNK_ELEMS // m_count))
    noise = np.empty((m_count, chunk_len))
    chunk_start = chunk_fill = 0

    rec_i = 0
    k = 0
    while True:
        t = k * cfg.dt
        v = np.clip(1.0 - state[:, fi, fi].real, 0.0, 1.0)

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
            u_vec = np.full(m_count, u_const)

        if rec_i < n_rec and k == rec_ks[rec_i]:
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

        if k - chunk_start >= chunk_fill:
            chunk_start = k
            chunk_fill = min(chunk_len, n_steps - k)
            for j, g in enumerate(gens):
                noise[j, :chunk_fill] = g.normal(0.0, sqrt_dt, chunk_fill)
        dw = noise[:, k - chunk_start]

        try:
            state = _euler_step(state, u_vec, dw[:, None, None], cfg, ops)
        except NumericalFailureError as e:
            raise _failed_at(e, t + cfg.dt) from e
        k += 1

    return _BatchResult(
        times=np.asarray(rec_ks[:rec_i], dtype=float) * cfg.dt,
        V=rec_V[:rec_i], u=rec_u[:rec_i], purity=rec_purity[:rec_i],
        modes=rec_modes[:rec_i],
        state_sum=rec_sum[:rec_i] if accumulate_sum else None,
        first_below=first_below, exit_times=exit_times)


def simulate_batch(rho0, control, T: float, cfg: SdeStepConfig,
                   base_seed: int, streams, *, f: int | None = None,
                   ops: SpinOperators | None = None,
                   record_stride: int = 1) -> list[TrajectoryRecord]:
    """Simulate one trajectory per stream index and return their records.

    All trajectories start from ``rho0`` and share the control law;
    stream k draws its noise from the generator keyed (base_seed, k).
    Raises ValueError for an input outside its range, including an empty
    ``streams``, and NumericalFailureError (with the failure time attached)
    if any member's state becomes non-finite.
    """
    res = _integrate_batch(rho0, control, T, cfg, base_seed, streams, f=f,
                           ops=ops, record_stride=record_stride)
    return _records_from_batch(res, base_seed, streams)


def _records_from_batch(res: _BatchResult, base_seed: int,
                        streams) -> list[TrajectoryRecord]:
    records = []
    for j, stream in enumerate(streams):
        fb = res.first_below[j]
        records.append(TrajectoryRecord(
            times=res.times.copy(),
            V=res.V[:, j].copy(),
            u=res.u[:, j].copy(),
            purity=res.purity[:, j].copy(),
            modes=np.where(res.modes[:, j] == 1, "feedback", "constant"),
            seed=base_seed,
            stream=stream,
            converged=bool(res.V[-1, j] < EPS_CONV),
            first_time_below=None if np.isnan(fb) else float(fb)))
    return records


def simulate_trajectory(rho0, controller, T: float, cfg: SdeStepConfig,
                        seed: int, *, stream: int = 0, f: int | None = None,
                        ops: SpinOperators | None = None,
                        record_stride: int = 1) -> TrajectoryRecord:
    """Simulate a single closed-loop (or fixed-input) trajectory.

    ``controller`` is a ControllerState for the switching law, or a real
    number for a fixed input (then ``f`` and ``ops`` must be given so the
    distance summaries are defined). Deterministic given all inputs: the
    same (seed, stream) yields a bit-identical record.
    """
    return simulate_batch(rho0, controller, T, cfg, seed, [stream], f=f,
                          ops=ops, record_stride=record_stride)[0]


# A step that overflows is caught by _clip_psd, so numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def integrate_ensemble(rho0, u_of_t, T: float, dt_ode: float,
                       ops: SpinOperators) -> OdeTrajectory:
    """Integrate the averaged dynamics with classical fixed-step RK4.

    ``u_of_t`` is a smooth function of time (or a constant); every grid
    state is projected back onto the state space. With any nonzero constant
    input the trajectory approaches I/N as T grows.
    """
    if dt_ode <= 0:
        raise ValueError(f"dt_ode must be > 0, got {dt_ode}")
    if T <= 0:
        raise ValueError(f"horizon T must be > 0, got {T}")
    n_steps = int(round(T / dt_ode))
    if n_steps < 1:
        raise ValueError(f"horizon T = {T} is below one step dt_ode = {dt_ode}")
    if callable(u_of_t):
        u_fun = u_of_t
    else:
        u_val = float(u_of_t)

        def u_fun(_t):
            return u_val

    state = np.asarray(rho0, dtype=complex)
    times = np.arange(n_steps + 1) * dt_ode
    states = [QuantumState(state, validate=False)]
    half = 0.5 * dt_ode
    for k in range(n_steps):
        t = k * dt_ode
        k1 = sme_drift(state, u_fun(t), ops)
        k2 = sme_drift(state + half * k1, u_fun(t + half), ops)
        k3 = sme_drift(state + half * k2, u_fun(t + half), ops)
        k4 = sme_drift(state + dt_ode * k3, u_fun(t + dt_ode), ops)
        state = state + (dt_ode / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        try:
            state = _clip_psd(state)
        except NumericalFailureError as e:
            raise _failed_at(e, t + dt_ode) from e
        states.append(QuantumState(state, validate=False))
    return OdeTrajectory(times=times, states=states)
