"""Numerical integration of the controlled measurement dynamics.

Two integrators live here:

* an Euler-Maruyama scheme for the diffusion (Ito) equation of the
  conditional state under continuous measurement and feedback,

      d rho = -i u [F_y, rho] dt - 1/2 [F_z, [F_z, rho]] dt
              + sqrt(eta) (F_z rho + rho F_z - 2 Tr(F_z rho) rho) dW,

  with a projection back onto the state space after every step;

* a classical fixed-step RK4 integrator for the averaged (ensemble)
  dynamics under a constant input, which is the same drift with the noise
  term dropped. That flow is linear, d vec(rho)/dt = L vec(rho), so RK4 is
  one matrix, R(hL) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24. It is
  built once per run from ``sme_drift`` and kept by its band: L moves an
  entry of the state one step along its row or column, so R moves it at
  most four, and every step costs O(N^2). The step is guarded in two
  stages: dt_ode * max(gaps_sq) / 2 stays inside RK4's interval on the
  negative real axis, and then |R(dt_ode lambda)| <= 1 over the spectrum
  of L, read from a region that holds it or, when that test fails, from
  the eigenvalues of L's blocks by spherical-tensor rank, in O(N^4) time
  and O(N^2) memory. The guards run before the first step;
  the grid states are then stepped in blocks of 256 into one reused
  buffer, so a consumer that reduces each block, as ``spinstab ode``
  does, holds one block at a time however long the horizon, while
  ``integrate_ensemble`` copies every block into one (K+1, N, N) array.
  A state is stepped as its band coordinates and divided by its trace,
  which is the projection of a state that passes its Cholesky
  certificate; each window of up to 64 states is then certified at once,
  by one batched factorisation, and a window that fails is stepped again
  state by state through the projection. After a failed window the
  states are stepped one at a time until one passes its certificate;
  then the windows start at two states and double. Every state is the
  projection's, bit for bit.

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
from typing import NamedTuple

import numpy as np

from .controller import ControllerState, feedback_gain, switch_modes
from .quantum import (NumericalFailureError, QuantumState, SpinOperators,
                      _check_dim, _clip_psd, _dag, _hermitian_part,
                      _projected, _renormalized, distance_V,
                      make_spin_operators)

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

# Stability intervals on the negative real axis: [-2, 0] for explicit Euler,
# [-2.7853, 0] for RK4. The stiffest coherence decays at rate max(gaps_sq) / 2
# (the double commutator), so a larger dt * max(gaps_sq) / 2 grows instead of
# decaying; see ``_check_stable``.
_EULER_REAL_BOUND = 2.0
_RK4_REAL_BOUND = 2.785

# Round-off allowed above 1 in RK4's gain |R| over the averaged flow's
# spectrum (see ``_check_rotation``); the trace mode's is exactly 1.
_RK4_GAIN_ROUNDOFF = 1e-12

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


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int. Raises ValueError naming ``name`` unless it is
    an integer (a numpy integer counts, a bool does not) and, with a
    ``minimum``, at least that."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _check_stable(dt: float, dt_name: str, ops: SpinOperators, scheme: str,
                  bound: float) -> None:
    """The step guard of both integrators: ValueError unless
    dt * max(gaps_sq) / 2 <= ``bound``, the end of ``scheme``'s stability
    interval on the negative real axis. Past it the scheme grows the stiffest
    coherence, which the projection would clamp into plausible states."""
    ratio = dt * ops.gaps_sq.max() / 2
    if ratio > bound:
        raise ValueError(
            f"{dt_name} = {dt:g} is too large for {scheme} at N = {ops.dim}: "
            f"{dt_name} * max(gaps_sq) / 2 = {ratio:.4g} > {bound}; "
            f"take {dt_name} <= {2 * bound / ops.gaps_sq.max():.4g}")


@contextmanager
def _records_fit(T: float, dt: float, dt_name: str, n_records: int):
    """A failed allocation of a run's ``n_records`` records as a ValueError
    naming T."""
    try:
        yield
    except MemoryError as e:
        raise ValueError(f"horizon T = {T:g} at {dt_name} = {dt:g} "
                         f"({n_records:g} records) does not fit in memory: "
                         f"{e}") from e


def _failed_at(err: NumericalFailureError, t: float) -> NumericalFailureError:
    """The same failure, stamped with the time of the step that caused it."""
    return NumericalFailureError(f"{err} at t = {t:g}", time=t)


def _philox_rng(base_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (base_seed, stream)."""
    key = np.array([base_seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _control_step(control, feedback, v, rho):
    """(feedback, u) of ``control`` at states ``rho`` with distances ``v``:
    the loop's one evaluation of the control per step. Under a
    ControllerState ``switch_modes`` updates the mode flags and u is
    ``feedback_gain`` in feedback mode, 1 in constant mode; as the loop
    starts every member in the constant mode, its first step, at t = 0,
    selects feedback exactly when V(rho0) <= 1 - gamma. Under a
    ConstantInput the flags come back unchanged and u is the fixed input."""
    if isinstance(control, ControllerState):
        feedback = switch_modes(feedback, v, control.gamma)
        return feedback, np.where(
            feedback, feedback_gain(rho, control.f, control.ops), 1.0)
    return feedback, np.full(np.shape(v), control.u)


@dataclass
class _BatchResult:
    """Raw per-member series produced by the batched stepping loop. An
    exit-time run keeps each member's exit time and nothing else: R = 0."""

    times: np.ndarray            # (R,) recorded times
    V: np.ndarray                # (R, M)
    u: np.ndarray                # (R, M)
    purity: np.ndarray           # (R, M)
    modes: np.ndarray            # (R, M) uint8, 1 = feedback branch
    state_sum: np.ndarray | None  # (R, C, N, N) sums of C member runs
    first_below: np.ndarray      # (M,) first time V <= level, NaN if never


# A step that overflows is caught by _clip_psd, so numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def _integrate_batch(rho0, control, T: float, cfg: SdeStepConfig,
                     base_seed: int, streams, *, record_stride: int = 1,
                     sum_chunk: int | None = None,
                     exit_threshold: float | None = None) -> _BatchResult:
    """Step a batch of trajectories that share rho0 and the control.

    ``streams`` is a sequence of noise stream indices, one per member.
    ``control`` is a ControllerState (the switching law) or a ConstantInput
    (a fixed input); the target index and operators are taken from it, and
    ``_control_step`` turns it into each step's modes and inputs. Step k of
    the ``_step_count`` steps is recorded when ``k % record_stride == 0``
    and at the last step. With ``sum_chunk``, each record also holds the
    state sum of every run of ``sum_chunk`` consecutive members, the first
    run starting at member 0, in the order a batch of that run alone sums
    them. Each member keeps one clock, ``first_below``: the first step time
    at which V <= ``exit_threshold``, or V <= EPS_CONV without one.

    An exit-time run, one with an ``exit_threshold``, keeps each member's
    exit time and nothing else: it has no records and no state sums and
    ignores ``record_stride``. A member has exited once its clock is set;
    it leaves the batch at that step and draws no more noise, and the loop
    stops once every member has exited. A member's path does not depend on
    which members share its batch, so a dropped member changes no other
    member's numbers.

    Each member draws its noise in blocks of ``_NOISE_BLOCK`` steps. The
    batch is stepped in the dtype that ``_checked_rho0`` picks for
    ``rho0``. Raises ValueError for an input outside its range, including
    a ``record_stride`` that is not an integer >= 1, a ``base_seed`` or
    stream that is not an integer (a negative one is taken mod 2**64),
    a ``rho0`` that is not an N x N density matrix, a ``dt`` outside
    explicit Euler's stability interval (dt * max(gaps_sq) / 2 > 2) and
    records too large for memory, and NumericalFailureError, with the time
    of the failed step, if a member's state becomes non-finite.
    """
    f, ops = control.f, control.ops
    exiting = exit_threshold is not None
    if not exiting:
        record_stride = _integer(record_stride, "record_stride", 1)
    base_seed = _integer(base_seed, "base_seed")
    streams = [_integer(s, "stream") for s in streams]
    n_steps = _step_count(T, cfg.dt, "dt")
    _check_stable(cfg.dt, "dt", ops, "Euler-Maruyama", _EULER_REAL_BOUND)

    m_count = len(streams)
    if m_count < 1:
        raise ValueError("M must be >= 1: no trajectory streams given")
    rho0 = _checked_rho0(rho0, ops)

    state = np.tile(rho0, (m_count, 1, 1))
    modes = np.zeros(m_count, dtype=bool)
    # V != EPS_CONV (1 - rho_ff is exact and 1 - 0.01 no double), so <= is <.
    level = EPS_CONV if exit_threshold is None else exit_threshold
    first_below = np.full(m_count, np.nan)
    # Batch positions of the members still stepped.
    live = np.arange(m_count)

    # steps 0, s, 2s, ... and the last, ceil(n_steps / s) + 1; none if exiting
    n_rec = 0 if exiting else -(-n_steps // record_stride) + 1
    with _records_fit(T, cfg.dt, "dt", n_rec):
        rec_t = np.zeros(n_rec)
        rec_V = np.zeros((n_rec, m_count))
        rec_u = np.zeros((n_rec, m_count))
        rec_purity = np.zeros((n_rec, m_count))
        rec_modes = np.zeros((n_rec, m_count), dtype=np.uint8)
        rec_sum = (np.zeros((n_rec, -(-m_count // sum_chunk), *rho0.shape),
                            dtype=complex) if sum_chunk else None)

    gens = [_philox_rng(base_seed, s) for s in streams]
    sqrt_dt = np.sqrt(cfg.dt)
    noise = np.empty((m_count, min(_NOISE_BLOCK, n_steps)))

    rec_i = 0
    for k in range(n_steps + 1):
        t = k * cfg.dt
        v = distance_V(state, f)

        below = np.isnan(first_below[live]) & (v <= level)
        first_below[live[below]] = t

        modes, u_vec = _control_step(control, modes, v, state)

        if not exiting and (k % record_stride == 0 or k == n_steps):
            rec_t[rec_i] = t
            rec_V[rec_i] = v
            rec_u[rec_i] = u_vec
            rec_purity[rec_i] = np.sum(np.abs(state) ** 2, axis=(-2, -1))
            rec_modes[rec_i] = modes
            if sum_chunk:
                for c, lo in enumerate(range(0, m_count, sum_chunk)):
                    rec_sum[rec_i, c] = state[lo:lo + sum_chunk].sum(axis=0)
            rec_i += 1
        if k == n_steps or (exiting and below.all()):
            break

        # Members whose clock is now set leave the batch.
        if exiting and below.any():
            stay = ~below
            live, state, modes, u_vec = (live[stay], state[stay], modes[stay],
                                         u_vec[stay])

        if k % _NOISE_BLOCK == 0:
            fill = min(_NOISE_BLOCK, n_steps - k)
            for j in live:
                noise[j, :fill] = gens[j].normal(0.0, sqrt_dt, fill)
        dw = noise[live, k % _NOISE_BLOCK]

        try:
            state = _euler_step(state, u_vec, dw[:, None, None], cfg, ops)
        except NumericalFailureError as e:
            raise _failed_at(e, t + cfg.dt) from e

    return _BatchResult(
        times=rec_t[:rec_i], V=rec_V[:rec_i], u=rec_u[:rec_i],
        purity=rec_purity[:rec_i], modes=rec_modes[:rec_i],
        state_sum=rec_sum[:rec_i] if sum_chunk else None,
        first_below=first_below)


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


class _Band(NamedTuple):
    """A real linear map on the real symmetric, or antisymmetric, N x N
    matrices that moves each entry at most ``reach`` steps along rows and
    columns, stored by its band.

    B and gaps_sq are real, so L maps each of these blocks to itself: the
    symmetric one holds a real state and the real part of a complex one,
    the antisymmetric one the imaginary part. A block's coordinates are a
    matrix's entries on and above (symmetric) or above (antisymmetric) the
    diagonal, and coordinates x stand for the matrix ``sign * x[scatter]``.
    Coordinate p of the image is ``coef[p] @ X.flat[cols[p]]``, over the
    coordinates within Manhattan distance ``reach`` of p (a slot past the
    block's edge reads entry 0 with coefficient 0).
    """

    cols: np.ndarray
    coef: np.ndarray
    scatter: np.ndarray
    sign: np.ndarray | float


def _block_flow(u, ops: SpinOperators, anti: bool):
    """L under the constant input u on a batch of real symmetric or
    antisymmetric matrices, from ``sme_drift``, so the drift keeps one
    definition; an antisymmetric A enters it as the Hermitian matrix iA."""
    if anti:
        return lambda p: sme_drift(1j * p, u, ops).imag
    return lambda p: sme_drift(p, u, ops)


def _band(apply, n: int, reach: int, anti: bool) -> _Band:
    """Read the linear map ``apply`` on one block, which moves each entry
    at most ``reach`` steps, off its images of 2 reach (reach + 1) + 1
    probe matrices.

    A coordinate (k, l) has the colour (k + (2 reach + 1) l) mod
    (2 reach (reach + 1) + 1), which sets coordinates of one colour more
    than 2 reach apart, and a colour's probe is the sum of its coordinates'
    basis matrices. For coordinates p and q, q is no farther from p than
    its transpose is, so coordinate p of a probe's image reads the map's
    coefficient of the probe's one coordinate within reach of p.
    """
    m = 2 * reach * (reach + 1) + 1
    iu, ju = np.triu_indices(n, int(anti))
    scatter = np.zeros((n, n), dtype=np.intp)
    scatter[iu, ju] = scatter[ju, iu] = np.arange(iu.size)
    i, j = np.indices((n, n))
    sign = np.sign(j - i).astype(float) if anti else 1.0
    colour = (np.minimum(i, j) + (2 * reach + 1) * np.maximum(i, j)) % m
    images = apply(sign * (colour == np.arange(m)[:, None, None]))
    di, dj = np.array([(a, b) for a in range(-reach, reach + 1)
                       for b in range(-reach, reach + 1)
                       if abs(a) + abs(b) <= reach]).T
    si, sj = iu[:, None] + di, ju[:, None] + dj
    inside = (si >= 0) & (sj < n) & (si + int(anti) <= sj)
    si, sj = si * inside, sj * inside
    coef = np.where(inside, images[colour[si, sj], iu[:, None], ju[:, None]],
                    0.0)
    return _Band(si * n + sj, coef, scatter, sign)


def _rk4_bands(u, dt_ode: float, ops: SpinOperators,
               complex_: bool) -> list[_Band]:
    """R(dt_ode L) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, one classical
    RK4 step of the averaged flow, by Horner's rule on the symmetric block,
    and for a ``complex_`` run on the antisymmetric one too. L moves an
    entry one step (B is tridiagonal, gaps_sq acts entrywise), so R moves
    it four."""
    def rk4(flow):
        def step(p):
            r = p
            for k in (4, 3, 2, 1):
                r = p + (dt_ode / k) * flow(r)
            return r
        return step

    return [_band(rk4(_block_flow(u, ops, anti)), ops.dim, 4, anti)
            for anti in ((False, True) if complex_ else (False,))]


def _rk4_step(state: np.ndarray, bands: list[_Band]) -> np.ndarray:
    """One RK4 step of the averaged flow from ``state``: the real part, and
    the imaginary part of a complex state, through their blocks' bands,
    back as a matrix of ``state``'s dtype."""
    flat = state.ravel()
    parts = [b.sign * np.einsum("pk,pk->p", b.coef, part(flat).take(b.cols))
             .take(b.scatter) for part, b in zip((np.real, np.imag), bands)]
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def _rk4_gain(z):
    """|R(z)|: the factor by which one RK4 step of size dt multiplies a mode
    e^(lambda t), for z = dt lambda."""
    return np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))))


def _flow_spectrum(u, ops: SpinOperators) -> np.ndarray:
    """The eigenvalues of L under the constant input u, block by
    spherical-tensor rank: ad(F_y) and ad(F_z) preserve the rank, so on
    rank k = 1..2J, L acts as the real tridiagonal (2k+1) x (2k+1) matrix
    u B_k - 1/2 diag(q^2), q = -k..k, with B_k = -i F_y of spin k, and on
    rank 0, the trace, as 0. The ranks hold the real symmetric and the
    antisymmetric matrices alike. O(N^4) time and O(N^2) memory."""
    return np.concatenate([[0.0], *(
        np.linalg.eigvals(u * rank.b_y - 0.5 * np.diag(rank.lambdas ** 2))
        for rank in map(make_spin_operators, range(1, round(2 * ops.J) + 1)))])


def _check_rotation(u, dt_ode: float, ops: SpinOperators) -> None:
    """RK4's step guard against the rotation: ValueError unless
    |R(dt_ode lambda)| <= 1, up to round-off, at every eigenvalue lambda of
    L.

    Two stages. -1/2 ad(F_z)^2 is self-adjoint with spectrum
    [-max(gaps_sq) / 2, 0] and -iu ad(F_y) skew-adjoint with spectrum in
    i[-2J|u|, 2J|u|], so the numerical range of L, and with it the
    spectrum, lies in the rectangle with those sides. The sum of ad(F_k)^2
    over x, y, z is the Casimir of the rotations acting by commutators, at
    most 2J(2J+1), so also Im^2 <= u^2 (2J(2J+1) + 2 Re) there, which cuts
    the rectangle's corner at the stiff end. |R| is largest on the boundary
    of that region times dt_ode, and R(conj z) = conj R(z): when |R| <= 1
    on samples of its upper half the step is accepted, with no eigensolve.
    Otherwise the eigenvalues themselves decide (``_flow_spectrum``). L is
    not normal, so this bounds the growth of R^k as k grows, not the
    transient growth of its first powers.
    """
    a = dt_ode * ops.gaps_sq.max() / 2
    b = 2 * ops.J * abs(u) * dt_ode
    s = np.linspace(0.0, 1.0, 1025)
    casimir = 2 * ops.J * (2 * ops.J + 1)
    y = np.minimum(b, abs(u) * dt_ode * np.sqrt(casimir - 2 * a * s / dt_ode))
    edge = np.concatenate([-a * s + 1j * y, -a + 1j * y[-1] * s, 1j * b * s])
    if _rk4_gain(edge).max() <= 1.0 + _RK4_GAIN_ROUNDOFF:
        return
    gain = _rk4_gain(dt_ode * _flow_spectrum(u, ops)).max()
    # not <=, so that a gain that overflowed to NaN is refused too
    if not gain <= 1.0 + _RK4_GAIN_ROUNDOFF:
        raise ValueError(
            f"u = {u:g} is too large for RK4 at dt_ode = {dt_ode:g} and "
            f"N = {ops.dim}: a mode of the averaged flow grows by "
            f"|R(dt_ode * lambda)| = {gain:.4g} per step; take a smaller "
            f"dt_ode or |u|")


# Grid states per block of the averaged flow (``_rk4_blocks``). A consumer
# reduces each block before the next is stepped into the same buffer, so a
# run's working memory does not grow with T.
_RK4_BLOCK = 256

# The most grid states certified at once (``_certified``). A window that
# fails is stepped again state by state, so a small window wastes less
# where states fail, and a large one calls the batched factorisation less
# often. From eigenstate 1 at N = 21, dt_ode = 0.01, windows of 32 and 64
# stepped 2,000 states about 15% faster than windows of 128 or 256 (2-vCPU
# Xeon VM, one BLAS thread).
_RK4_WINDOW = 64


def _coordinate_map(bands: list[_Band]):
    """(positions, gather, coef): the bands of ``_rk4_bands`` as one real
    map on a state's coordinates, the symmetric block's and then, for a
    complex state, the antisymmetric block's. ``positions`` lists, per
    block, where its coordinates sit in the raveled real or imaginary part
    of a matrix; coordinate p of the image is ``coef[p] @ x[gather[p]]``,
    which reads the values ``_rk4_step`` reads, so it is the same sum."""
    n = len(bands[0].scatter)
    positions = [np.flatnonzero(np.triu(np.ones((n, n), bool), anti))
                 for anti in range(len(bands))]
    gather = np.concatenate([b.scatter.flat[b.cols] + off for b, off in
                             zip(bands, (0, len(bands[0].cols)))])
    return positions, gather, np.concatenate([b.coef for b in bands])


def _assembled(raw: np.ndarray, bands: list[_Band],
               out: np.ndarray) -> np.ndarray:
    """``out`` (W, N, N), holding the matrices of RK4 images given by their
    coordinates ``raw`` (W, P), each assembled as ``_rk4_step`` assembles
    its image, so to the same bits."""
    sym, p = bands[0], len(bands[0].cols)
    if len(bands) == 1:
        return raw.take(sym.scatter, axis=1, out=out)
    anti = bands[1]
    return np.add(raw[:, :p].take(sym.scatter, axis=1),
                  1j * (anti.sign * raw[:, p:].take(anti.scatter, axis=1)),
                  out=out)


def _certified(mats: np.ndarray, tr: np.ndarray) -> bool:
    """Whether each of a window's RK4 images ``mats`` (W, N, N), with
    traces ``tr`` (W,), passes ``_clip_psd``'s Cholesky certificate; if so,
    ``mats`` is overwritten by what ``_clip_psd`` returns for each, bit for
    bit, and otherwise left as it is.

    The images go through ``_clip_psd``'s own ``_renormalized``, which
    fails the whole window for one image on or past the state space's
    boundary; a non-finite image fails it too. A real image is exactly
    symmetric, each entry below the diagonal a copy of one above it, so it
    is its own Hermitian part; a complex one goes through
    ``_clip_psd``'s ``_hermitian_part``.
    """
    if not np.isfinite(mats).all():
        return False
    herm = _hermitian_part(mats) if np.iscomplexobj(mats) else mats
    return _renormalized(herm, tr, out=mats) is not None


# A map that overflows is caught below, so numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def _rk4_blocks(rho0, control, T: float, dt_ode: float):
    """(K + 1, blocks): the number of grid states of the averaged dynamics
    under a ConstantInput's u, and a generator of those states in order,
    in blocks of at most ``_RK4_BLOCK``.

    Every guard runs before this returns, so a rejected run steps nothing:
    the step count, RK4's stability interval, ``rho0``, the map's
    finiteness and the rotation (see ``integrate_ensemble`` for what each
    raises). Each block is a (<= _RK4_BLOCK, N, N) view of one buffer that
    the next block overwrites, in the dtype ``_checked_rho0`` picks.

    The states are stepped in windows, speculatively: as coordinates
    (``_coordinate_map``), each divided by its trace, which is what
    ``_clip_psd`` returns for a state that passes its Cholesky
    certificate. Then the window is certified at once (``_certified``). A
    window that fails is projected state by state by ``_projected``, which
    is ``_clip_psd``: its first image, which is the step from the state
    before the window, and then ``_rk4_step`` from each projected state.
    The projection takes the states on the boundary through ``eigh`` and
    raises NumericalFailureError, with the time of the failed step, if a
    state becomes non-finite. Either way each state is the one
    ``_clip_psd(_rk4_step(...))`` gives, bit for bit.

    The first state, and every state after a failed window until one
    passes its certificate, is a window of one, stepped by ``_rk4_step``
    and ``_projected`` alone, as before windows. After a state or a window
    that passes, the next window is twice as long, up to ``_RK4_WINDOW``
    states. So a stretch of failing states, such as the first steps from
    an eigenstate, is stepped once and certified once per state, and a
    failed window steps again fewer states than passed before it. numpy's error state is set around
    each block's steps only, so the caller's holds between blocks.
    """
    u, ops = control.u, control.ops
    n_steps = _step_count(T, dt_ode, "dt_ode")
    _check_stable(dt_ode, "dt_ode", ops, "RK4", _RK4_REAL_BOUND)
    rho = _checked_rho0(rho0, ops)
    complex_ = np.iscomplexobj(rho)
    bands = _rk4_bands(u, dt_ode, ops, complex_)
    if not all(np.isfinite(b.coef).all() for b in bands):
        raise _failed_at(NumericalFailureError(
            "RK4 step overflows: its map has non-finite entries"), dt_ode)
    _check_rotation(u, dt_ode, ops)
    positions, gather, coef = _coordinate_map(bands)
    # the diagonal's coordinates, in index order
    on_diag = bands[0].scatter.diagonal()

    raw = np.empty((min(_RK4_WINDOW, n_steps), len(coef)))
    tr = np.empty(len(raw))
    # a trace summed in the state's dtype: a complex sum adds the real parts
    # in another order than a real sum of the same numbers
    diag = np.zeros(len(on_diag), rho.dtype)

    def step(rho, window, k0):
        """Step grid state k0, ``rho``, to the states of ``window``, and
        tell whether the window passed its certificate."""
        if len(window) == 1:
            image = _rk4_step(rho, bands)
        else:
            flat = rho.ravel()
            x = np.concatenate([part(flat)[pos] for part, pos in
                                zip((np.real, np.imag), positions)])
            for i, y in enumerate(raw[:len(window)]):
                np.einsum("pk,pk->p", coef, x.take(gather), out=y)
                y.take(on_diag, out=diag.real, mode="clip")
                tr[i] = t = diag.sum().real
                # numpy divides a complex state by its real trace as a
                # complex number, which multiplies by 1 / t
                x = y * (1.0 / t) if complex_ else y / t
            if _certified(_assembled(raw[:len(window)], bands, window),
                          tr[:len(window)]):
                return True
            # the window's first image is the step from rho
            image = window[0]
        # step k takes grid state k to grid state k + 1
        for i, k in enumerate(range(k0, k0 + len(window))):
            try:
                rho, passed = _projected(image if i == 0
                                         else _rk4_step(rho, bands))
            except NumericalFailureError as e:
                raise _failed_at(e, k * dt_ode + dt_ode) from e
            window[i] = rho
        # a longer window failed its certificate
        return passed and len(window) == 1

    def blocks(rho):
        buf = np.empty((min(_RK4_BLOCK, n_steps + 1), *rho.shape), rho.dtype)
        buf[0] = rho
        size, k = 1, 1
        for lo in range(0, n_steps + 1, len(buf)):
            hi = min(lo + len(buf), n_steps + 1)
            # A failed step is caught by _certified or _projected, so numpy
            # need not warn.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                while k < hi:
                    window = buf[k - lo:min(k + size, hi) - lo]
                    passed = step(rho, window, k - 1)
                    size = min(2 * size, len(raw)) if passed else 1
                    rho = window[-1].copy()
                    k += len(window)
            yield buf[:hi - lo]

    return n_steps + 1, blocks(rho)


def integrate_ensemble(rho0, control, T: float,
                       dt_ode: float) -> OdeTrajectory:
    """Integrate the averaged dynamics under a ConstantInput's u by RK4.

    Under a constant u the averaged flow is linear, so classical RK4 is one
    matrix, R(dt_ode L), built once from ``sme_drift`` and kept by its band
    (see ``_rk4_bands``): a step reads each entry on and above the diagonal
    from the at most 41 such entries within Manhattan distance 4. Every
    grid state is projected back onto the state space. The states are
    stepped in blocks (``_rk4_blocks``) and copied into one read-only
    (K+1, N, N) array, float64 for a ``rho0`` with a zero imaginary part
    and complex128 otherwise. Grid states inside the state space pass
    ``_clip_psd``'s Cholesky certificate a window at a time, by one
    batched factorisation, and are only renormalized; a window with a
    state on or past the boundary is stepped again state by state, and
    the states after it are projected one at a time until one passes,
    so a stretch of such states, like the first steps from an
    eigenstate, goes through ``eigh`` about as often as it has states.
    With any nonzero u the trajectory approaches I/N as T grows.

    Raises ValueError for an input outside its range, ``rho0`` included,
    for a ``dt_ode`` outside RK4's stability interval on the negative real
    axis (dt_ode * max(gaps_sq) / 2 > 2.785), for a u whose rotation
    RK4 grows at that ``dt_ode`` (``_check_rotation``, at most O(N^4) time
    and O(N^2) memory) (in both cases the projection would clamp a growing
    solution into plausible states), or for grid states too many for
    memory, and NumericalFailureError, with the time of the failed step, if
    the map or a state becomes non-finite.
    """
    n_states, blocks = _rk4_blocks(rho0, control, T, dt_ode)
    first = next(blocks)
    with _records_fit(T, dt_ode, "dt_ode", n_states):
        states = np.empty((n_states, *first.shape[1:]), dtype=first.dtype)
    states[:len(first)] = first
    lo = len(first)
    for block in blocks:
        states[lo:lo + len(block)] = block
        lo += len(block)
    states.setflags(write=False)
    return OdeTrajectory(times=np.arange(n_states) * dt_ode, states=states)
