"""Numerical integration of the controlled measurement dynamics.

Two integrators live here:

* a split step for the diffusion (Ito) equation of the conditional state
  under continuous measurement and feedback,

      d rho = -i u [F_y, rho] dt - 1/2 [F_z, [F_z, rho]] dt
              + sqrt(eta) (F_z rho + rho F_z - 2 Tr(F_z rho) rho) dW,

  which composes the exact linear filter of the F_z measurement over a
  step with the exact rotation exp(u dt B), B = -i F_y, of the control.
  Each factor maps states to states, so every dt gives a state with no
  projection and no step guard; the splitting's weak error is O(dt). At
  eta = 1 both factors keep a state's rank, so an eta = 1 run steps a
  real factor of rho, at O(N^2) per member and unit of rank
  (``_factor_step``), and an eta < 1 run steps rho (``_split_step``).
  Both kernels take the filter from ``_filter`` and refuse a failed step
  by ``_checked``, and read the rotation's planes off
  ``_rotation_planes``;

* the exact flow of the averaged (ensemble) dynamics under a constant
  input, which is the same drift with the noise term dropped. That flow is
  linear, d rho/dt = L rho, and a Lindblad semigroup, so exp(t L) keeps
  every state a state for every t and needs neither a step guard nor a
  projection. L keeps the spherical-tensor rank of a matrix and, B and
  gaps_sq being real, whether it is symmetric or antisymmetric; on each
  rank k it is a (2k+1)-square matrix, read off ``sme_drift`` once per
  run. E = exp(dt_ode L) and its powers E^2, E^4, ..., E^128 are formed
  once on those blocks, on the symmetric ones alone for a real state,
  which has no antisymmetric part. The grid states are stepped as rank
  coefficients in blocks of 256: a block's first state is E times the
  state before it, and the block is filled from it in doubling sweeps,
  states [h, 2h) as E^h times states [0, h), so 8 batched matmuls step
  255 states. One generator yields these blocks with each state's V
  (``_flow_coefficients``) and refuses the run at the first V that E's
  round-off moved out of [0, 1], so its two consumers refuse the same
  runs. ``spinstab ode`` adds Q (``_flow_distances``), a sum of squared
  coefficients of an orthonormal basis, so no matrix is formed.
  ``integrate_ensemble`` allocates its (K+1, N, N) array of states first
  and rebuilds each block into its own slice of it (``_rebuilt``): per
  part, one matmul with the basis gives each state's entries on and below
  the diagonal, and every entry is read from its mirror image there, the
  imaginary part taking sign(i - j). Either consumer holds one block of
  coefficients at a time however long the horizon.

Trajectories are deterministic functions of their inputs: the Wiener
increments come from a counter-based generator keyed by
(base_seed, stream), drawn in blocks of steps and held step-major, so
ensembles reproduce bit-for-bit regardless of how the trajectories are
scheduled.

The stepping core is vectorized over a leading batch axis:
``_split_step`` and the drift/diffusion operations accept a single (N, N)
matrix or a stacked (M, N, N) array, ``_factor_step`` a stacked (M, N, c)
array of factors. Both kernels take the states' diagonals Re rho_kk, which
the loop reads once per step and also reads V from, and an input u that is
one float while every member shares it (a ConstantInput run, or a
switching run with no member in feedback mode), stepped to the same bits
as one u per member.

``_checked_rho0`` chooses a run's output dtype once, at entry: float64
when the initial state has a zero imaginary part, complex128 otherwise.
The averaged flow steps in that dtype. The stochastic loop steps every
member, from either start, in float64, and reads every start at t = 0 as
one real N x N matrix P = Re rho + Im rho. Every real P is exactly one
Hermitian matrix, rho = (P + P^T)/2 + i (P - P^T)/2, and F_z is diagonal
and B = -i F_y real, so each factor of the split step maps P to the P of
its image: Hermiticity holds with nothing to repair. An eta < 1 run steps
P (``_real_form``). An eta = 1 run steps, from its first step on, a real
N x c factor F with Re rho = F F^T, built once from rho0's eigenpairs
(``_factor_form``): c is rho0's rank r for a real start, and 2r, F =
[Re X, Im X] for rho0 = X X*, for a complex one. The filter and the
rotation are real, so they step each column of F as a vector, and F
keeps its rank: a pure state stays pure by construction. V is
1 - Re rho_ff, and the purity Tr(rho^2) and the feedback gain are read
from P or F; the recorded state sums, of P or of the P that F stands for,
are unpacked into the start's dtype.
``sme_drift`` and ``sme_diffusion`` are the equation's two terms as rates:
the averaged flow reads its generator off the first, and the stochastic
loop calls neither. So ``sme_diffusion`` is kept out of ``__all__``, and
thus out of the package's names: it stays a module function only because
bench/tracing.py wraps it by this name and the tests use it as an oracle.
"""

import math
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .controller import ControllerState, feedback_gain, switch_modes
from .quantum import (_TOL, NumericalFailureError, QuantumState,
                      SpinOperators, _dag, _hermitian_part)
# Unused here; bench/tracing.py wraps it by this name and reads 0 calls.
from .quantum import _clip_psd  # noqa: F401

__all__ = [
    "SdeStepConfig",
    "TrajectoryRecord",
    "OdeTrajectory",
    "EPS_CONV",
    "sme_drift",
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
    (K+1, N, N) array, the initial state and exp(k dt_ode L) of it.
    Its dtype is float64 for an initial state with a zero imaginary part and
    complex128 otherwise (see ``_checked_rho0``)."""

    times: np.ndarray
    states: np.ndarray


def sme_drift(rho, u, ops: SpinOperators) -> np.ndarray:
    """Deterministic increment rate: -i u [F_y, rho] - 1/2 [F_z, [F_z, rho]].

    Precondition: ``rho`` is Hermitian, as every state is. Then, with the
    real matrix B = -i F_y (``ops.b_y``), the commutator term is
    -i [F_y, rho] = X + X* for X = B rho, one matmul. The double
    commutator is evaluated entrywise as (lam_i - lam_j)^2 rho_ij
    (``ops.gaps_sq``), which is exact because F_z is diagonal. For exactly
    Hermitian input the result is exactly Hermitian; it is traceless, and
    it vanishes at every measurement eigenstate when u = 0. A real ``rho``
    gives a real (symmetric) result, a complex one a complex result; ``u``
    is a scalar or one per member.
    """
    m = np.asarray(rho)
    x = ops.b_y @ m
    x += _dag(x)
    u = np.asarray(u, dtype=float)[..., None, None]
    return u * x - 0.5 * ops.gaps_sq * m


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


def _rotation_planes(ops: SpinOperators):
    """(mu, q): the planes in which the control's rotation exp(t B),
    B = -i F_y, turns, from one ``eigh`` of F_y.

    F_y's eigenvalues are -J..J in unit steps. mu holds its floor(N/2)
    positive ones, and columns 2k and 2k + 1 of the real N x 2 floor(N/2)
    matrix q are sqrt(2) times the real and the imaginary part of the
    eigenvector of mu_k. They are orthonormal, with B q_2k = mu_k q_2k+1
    and B q_2k+1 = -mu_k q_2k, so exp(t B) turns plane k by t mu_k and
    fixes what is left, F_y's null vector when N is odd. Both stepping
    kernels read their rotation from here.
    """
    mu, w = np.linalg.eigh(ops.f_y)
    # the spectrum's unit spacing splits it at 1/4: at J = 2, 10 and 20
    # eigh returns the zero eigenvalue as +1e-16, which mu > 0 would take
    up = mu > 0.25
    q = np.stack([w[:, up].real, w[:, up].imag], axis=-1).reshape(ops.dim, -1)
    return mu[up], math.sqrt(2) * q


def _filter(cfg: SdeStepConfig, ops: SpinOperators):
    """The exact linear filter of the F_z measurement, which both stepping
    kernels apply, formed once per run: ``weights(diag, dw)`` is each
    member's diagonal of D = diag(exp(sqrt(eta) lam dy - eta lam^2 dt)),
    the measured increment dy = 2 sqrt(eta) Tr(F_z rho) dt + dw read off
    the member's diagonal Re rho_kk (``diag``, one row per member) and its
    Wiener increment (``dw``, one per member). The weights are C-ordered,
    one row per member: (M, N), or (1, N) for one diagonal and a scalar dw.

    sqrt(eta) is folded into the factors as (sqrt(eta) lam)(2 sqrt(eta) dt
    <lam> + dw), so at eta = 1 every factor is 1.0 and the exponent has
    the bits of lam (2 dt <lam> + dw) - lam^2 dt. It is shifted by its
    maximum over each member, which the kernels' normalization cancels, so
    it cannot overflow. The exponents, which take no sum (a maximum is
    exact in any order), are laid out with the members last, where numpy
    runs them fastest.
    """
    lam, dt = ops.lambdas, cfg.dt
    sqrt_eta = math.sqrt(cfg.eta)
    gain, mean = sqrt_eta * lam[:, None], 2.0 * sqrt_eta * dt * lam
    decay = cfg.eta * lam[:, None] ** 2 * dt

    def weights(diag, dw):
        e = gain * (np.vecdot(diag, mean) + dw) - decay
        e -= e.max(axis=0)
        return np.exp(e.T, order="C")

    return weights


def _checked(out, trace):
    """``out``, the new states of a step whose filtered traces are
    ``trace``: where both stepping kernels detect a failed step. Raises
    NumericalFailureError unless every trace is > 0 and every entry of
    ``out`` is finite."""
    if not trace.min() > 0.0:
        raise NumericalFailureError(
            f"filtered trace is {trace.min():.3e}, not > 0")
    # every |entry| of a state, of its real form or of its factor is at
    # most 2 after a finite step, so the sum is finite exactly when every
    # entry is
    if not math.isfinite(abs(out.sum())):
        raise NumericalFailureError("state has non-finite entries")
    return out


def _split_step(cfg: SdeStepConfig, ops: SpinOperators):
    """The stepping kernel of every eta < 1 run, formed once per run:
    ``step(rho, diag, u, dw)`` takes each state of ``rho``, an (N, N)
    matrix or a stacked (M, N, N) array, with its diagonal Re rho_kk
    (``diag``, one row per member, as the loop reads it), one step of
    ``cfg.dt`` under its input u and Wiener increment dw (scalars or one
    per member) to

        rho' = R (G o (D rho D)) R^T / Tr(D rho D),  in rho's dtype, where

    * D, the exact linear filter of the F_z measurement, is ``_filter``'s;
    * G_ij = exp(-(1 - eta) (lam_i - lam_j)^2 dt / 2) dephases what the
      detector misses; it is exactly 1 at eta = 1;
    * R = exp(u dt B), B = -i F_y, the exact rotation of the control, is
      formed from ``_rotation_planes``, once for a scalar u, which every
      member shares, and per member otherwise: real, orthogonal, and
      exactly I at u = 0.

    D rho D is positive, G is a Gaussian kernel and R orthogonal, so every
    dt gives a state, with nothing projected. D, G and R are real, so
    ``step`` maps a state's real form P = Re rho + Im rho (see the module
    docstring), as the loop passes it, to the real form of rho'; a
    Hermitian ``rho`` of either dtype goes to rho' itself, Hermitian to
    round-off. The diagonal, which sets dy and the trace, is Re rho_kk =
    P_kk either way. ``step`` raises NumericalFailureError as ``_checked``
    does. Each member is computed on its own, so a batch row equals the
    member stepped alone, bit for bit, and a scalar u gives the bits of one
    u per member: each member's R is the same matmul either way.
    """
    n, dt = ops.dim, cfg.dt
    weights = _filter(cfg, ops)
    dephase = np.exp(-(1.0 - cfg.eta) * ops.gaps_sq * dt / 2)
    mu, q = _rotation_planes(ops)
    # R = I + sum over the planes of (cos - 1) (a a^T + b b^T) +
    # sin (b a^T - a b^T) at the angle u dt mu_k, and expm1(-i u dt mu_k)
    # is (cos - 1) - i sin, so R^T = I + z @ modes for z the real parts,
    # then the imaginary parts, of those K expm1: row k of modes is
    # a_k a_k^T + b_k b_k^T, row K + k is b_k a_k^T - a_k b_k^T
    a, b = q[:, 0::2].T[:, :, None], q[:, 1::2].T[:, :, None]
    at, bt = a.swapaxes(1, 2), b.swapaxes(1, 2)
    modes = np.concatenate([a * at + b * bt, b * at - a * bt]).reshape(-1,
                                                                     n * n)
    phase = -1j * dt * mu
    eye = np.eye(n)

    def step(rho, diag, u, dw):
        d = weights(diag, dw).reshape(diag.shape)
        trace = np.vecdot(d * d, diag)
        d /= np.sqrt(trace)[..., None]
        x = d[..., :, None] * rho * d[..., None, :]
        x *= dephase
        z = np.expm1(np.multiply.outer(u, phase))
        z = np.concatenate([z.real, z.imag], axis=-1)[..., None, :]
        rot_t = eye + (z @ modes).reshape(*np.shape(u), n, n)
        # R x R^T with R^T the contiguous factor: numpy's matmul of small
        # matrices is slower with a transposed right operand than left
        return _checked(rot_t.swapaxes(-1, -2) @ x @ rot_t, trace)

    return step


def _factor_step(cfg: SdeStepConfig, ops: SpinOperators):
    """The stepping kernel of every eta = 1 run, formed once per run:
    ``step(F, diag, u, dw)`` takes each real N x c factor of the stack F,
    an (M, N, c) array, with its diagonal Re rho_kk (``diag``, one row per
    member, as the loop reads it), one step of ``cfg.dt`` under its input u
    (a float that every member shares, or one per member) and Wiener
    increment dw (one per member) to

        F' = R D F / |D F|,  so that F' F'^T = R (D F F^T D) R^T / Tr(.),

    with D and R those of ``_split_step`` at eta = 1: each column of F
    steps as a vector, and the state F F^T as ``_split_step`` steps it.
    Re rho_kk, which sets dy and the trace, is the sum of F_k's squares.

    R is applied without forming it. A vector's coordinates in the planes
    of ``_rotation_planes`` are turned by u dt mu_k, and the turn is added
    as a change: with cos - 1 written -2 sin^2(. / 2), it is exactly zero
    at u = 0, where F' is D F / |D F|. Each member costs O(N^2 c). The
    turn's coefficients are taken entry by entry from u dt mu_k, so a float
    u gives the bits of one u per member; they are formed for a float u
    once and kept while the float's bits stay the same, as they do for the
    whole of a ConstantInput run and for every step of a switching run in
    which every member is in constant mode (u = 1).
    ``step`` raises NumericalFailureError as ``_checked`` does. Each member
    is computed on its own, so a batch row equals the member stepped
    alone, bit for bit: every sum runs over a member's own C-ordered
    entries, while the angles, like ``_filter``'s exponents, are laid out
    with the members last.
    """
    weights = _filter(cfg, ops)
    mu, q = _rotation_planes(ops)
    a, b = q[:, 0::2], q[:, 1::2]
    # a vector's plane coordinates (x, y), then (y, x), and back
    to_planes = np.concatenate([a, b, b, a], axis=1)
    from_planes = np.concatenate([a, b, a, b], axis=1).T.copy()
    # s = sin(angles u) is (sin(theta/2), sin(theta/2), sin theta, sin
    # theta) for theta = u dt mu, and s (s scale + shift) the change of the
    # coordinates' coefficients: (cos theta - 1, cos theta - 1, -sin theta,
    # sin theta)
    angles = cfg.dt * np.concatenate([mu / 2, mu / 2, mu, mu])
    scale, shift = np.repeat([[-2.0, -2.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]],
                             len(mu), axis=1)
    # the last float u's coefficients, keyed by its bits: float.hex keeps
    # -0.0 apart from 0.0
    shared = {}

    def coefficients(u):
        if isinstance(u, np.ndarray):
            s = np.sin(angles[:, None] * u)
            return (s * (s * scale[:, None] + shift[:, None])).T[:, None, :]
        key = float(u).hex()
        if key not in shared:
            s = np.sin(angles * u)
            shared.clear()
            shared[key] = s * (s * scale + shift)
        return shared[key]

    def step(f, diag, u, dw):
        x = f * weights(diag, dw)[..., None]
        flat = x.reshape(len(x), -1)
        trace = np.vecdot(flat, flat)
        x /= np.sqrt(trace)[:, None, None]
        turn = np.vecmat(x.swapaxes(1, 2), to_planes)
        turn *= coefficients(u)
        # C order, as the loop's start: a batch row's layout, and so its
        # sums, must not depend on the batch's length
        return _checked(np.add(x, np.vecmat(turn, from_planes).swapaxes(1, 2),
                               order="C"), trace)

    return step


@dataclass(frozen=True)
class _Form:
    """How the stochastic loop holds a member's state: ``state`` at the
    start, four readers of a stack of states and one of their diagonals:
    ``diagonal`` is each state's diagonal Re rho_kk, one row per member,
    ``distance`` each state's V read from that row, ``gain`` has
    ``feedback_gain``'s signature, ``purity`` is each state's Tr(rho^2), and
    ``real_sum`` is the sum of the states' real forms Re rho + Im rho."""

    state: np.ndarray
    diagonal: Callable
    distance: Callable
    gain: Callable
    purity: Callable
    real_sum: Callable


def _real_form(rho0, f: int) -> _Form:
    """Each state as its real form P = Re rho + Im rho, which
    ``_split_step`` steps: the form of an eta < 1 run, and of every run at
    t = 0."""
    return _Form(state=rho0.real + rho0.imag,
                 diagonal=lambda p: p.diagonal(0, -2, -1),
                 # as distance_V: 1 - P_ff, clipped to [0, 1]
                 distance=lambda d: np.clip(1.0 - d[:, f - 1], 0.0, 1.0),
                 gain=feedback_gain,
                 purity=lambda p: np.sum(p ** 2, axis=(-2, -1)),
                 real_sum=lambda p: p.sum(axis=0))


def _factor_gain(fac, f: int, ops: SpinOperators):
    """``feedback_gain`` of each state F F^T of a stack of factors:
    2 sum_k B_fk Re rho_kf = 2 F_f . (B F)_f."""
    return 2.0 * np.vecdot(fac[..., f - 1, :], np.matmul(ops.b_y[f - 1], fac))


def _factor_form(rho0, f: int) -> _Form:
    """Each state as a real N x c factor F with Re rho = F F^T, which
    ``_factor_step`` steps: the form of an eta = 1 run after t = 0.

    F is built from rho0's eigenpairs (w, V) above N epsilon of the
    largest, its numerical rank r: X = V sqrt(w), so X X* = rho0 to
    round-off, and F = X, c = r, for a real rho0, F = [Re X, Im X],
    c = 2r, for a complex one. An eigenvalue below that, negative ones
    included (a state may carry them down to -1e-9), is left out. The real
    form is P = F G^T, with G = F for a real start and G = [A - B, A + B]
    for a complex one, F = [A, B] with X = A + iB, as Im rho = B A^T -
    A B^T. The state sums are sums of F G^T, and the purity Tr(rho^2), the
    sum of P's squared entries, is read off the Gram matrices:
    |F G^T|_F^2 = sum (F^T F) o (G^T G).
    """
    w, v = np.linalg.eigh(rho0)
    keep = w > len(w) * np.finfo(float).eps * w[-1]
    x = v[:, keep] * np.sqrt(w[keep])
    r = x.shape[1] if np.iscomplexobj(x) else None
    # C order, as the step keeps it
    fac = np.ascontiguousarray(x if r is None else np.hstack([x.real, x.imag]))

    def other(fac):
        # G of each factor of a stack
        if r is None:
            return fac
        a, b = fac[..., :r], fac[..., r:]
        return np.concatenate([a - b, a + b], axis=-1)

    def distance(diag):
        # as distance_V: 1 - Re rho_ff, which is at most 1, clipped at 0
        return np.maximum(1.0 - diag[:, f - 1], 0.0)

    def purity(fac):
        g = other(fac)
        return np.sum(np.matmul(fac.swapaxes(-1, -2), fac)
                      * np.matmul(g.swapaxes(-1, -2), g), axis=(-2, -1))

    def real_sum(fac):
        return np.tensordot(fac, other(fac), axes=([0, 2], [0, 2]))

    return _Form(state=fac, diagonal=lambda fac: np.vecdot(fac, fac),
                 distance=distance, gain=_factor_gain,
                 purity=purity, real_sum=real_sum)


def _checked_rho0(rho0, ops: SpinOperators) -> np.ndarray:
    """``rho0`` as an array in the dtype the run steps in, or ValueError
    unless it is an N x N state (its shape checked first, naming N).

    The one place a run's dtype is chosen: a contiguous float64 array
    when the validated state's imaginary part is all zero, complex128
    otherwise. The dynamics keep a real state real, so the averaged flow
    steps a real start in float64 throughout, and the stochastic loop
    records its state sums in this dtype. A state passes as Hermitian to
    round-off; the array returned is its exact Hermitian part, as every
    later state is exactly Hermitian.
    """
    if np.shape(rho0) != (ops.dim, ops.dim):
        raise ValueError(f"initial state must be N x N with N = {ops.dim}, "
                         f"got shape {np.shape(rho0)}")
    mat = np.asarray(QuantumState(rho0))
    if not mat.imag.any():
        mat = mat.real
    return _hermitian_part(mat)


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


def _control_step(control, feedback, v, rho, gain=feedback_gain):
    """(feedback, u) of ``control`` at states ``rho`` with distances ``v``:
    the loop's one evaluation of the control per step. Under a
    ControllerState ``switch_modes`` updates the mode flags and u is the
    feedback gain, ``gain(rho, f, ops)``, in feedback mode, 1 in constant
    mode; as the loop starts every member in the constant mode, its first
    step, at t = 0, selects feedback exactly when V(rho0) <= 1 - gamma.
    Under a ConstantInput the flags come back unchanged and u is the fixed
    input. While every member shares one input, under a ConstantInput or
    with no member in feedback mode, u is that input as one float and no
    gain is formed; otherwise it is one u per member."""
    if isinstance(control, ControllerState):
        feedback = switch_modes(feedback, v, control.gamma)
        if not np.count_nonzero(feedback):
            return feedback, 1.0
        return feedback, np.where(
            feedback, gain(rho, control.f, control.ops), 1.0)
    return feedback, float(control.u)


@dataclass
class _BatchResult:
    """Raw per-member series produced by the batched stepping loop. An
    exit-time run keeps each member's exit time and nothing else: R = 0."""

    times: np.ndarray            # (R,) recorded times
    V: np.ndarray                # (R, M)
    u: np.ndarray                # (R, M)
    purity: np.ndarray           # (R, M)
    modes: np.ndarray            # (R, M) uint8, 1 = feedback branch
    # (R, C, N, N) sums of C member runs, exactly Hermitian, in the dtype
    # _checked_rho0 picks for the start
    state_sum: np.ndarray | None
    first_below: np.ndarray      # (M,) first time V <= level, NaN if never


# A step that overflows or loses its trace is refused by the step's own
# check, so numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    exit time and nothing else: it has no records and no state sums at any
    ``record_stride``, which is checked as on every run. A member has
    exited once its clock is set; it leaves the batch at that step, with
    its generator and its column of the noise block, and draws no more
    noise, and the loop stops once every member has exited. A member's
    path does not depend on which members share its batch, so a dropped
    member changes no other member's numbers.

    Each member draws its noise in blocks of ``_NOISE_BLOCK`` steps, held
    step-major, so that a step's increments are one row, and is stepped in
    float64 by a kernel that keeps every state a state at any dt. Step 0,
    at t = 0, reads every member as rho0's real form P = Re rho + Im rho.
    From then on an eta = 1 run holds each member as a real N x c factor F,
    c rho0's rank (twice it from a complex start), stepped by
    ``_factor_step``, and an eta < 1 run as P, stepped by ``_split_step``
    (see the module docstring). Each step reads the members' diagonals Re
    rho_kk once, through the form (|F_k|^2 or P_kk): V comes from them, and
    the kernel takes them for its filter. The input u is one float while
    every member shares it (``_control_step``), which both kernels step as
    they step one u per member, bit for bit. Each recorded state sum S, a
    sum of real forms P, is unpacked into the dtype that ``_checked_rho0``
    picks for ``rho0``, as (S + S^T)/2 for a real start and (S + S^T)/2 + i
    (S - S^T)/2 for a complex one, both exactly Hermitian. Raises
    ValueError for an input outside its range, including a
    ``record_stride`` that is not an integer >= 1, a ``base_seed`` or
    stream that is not an integer (a negative one is taken mod 2**64), a
    ``rho0`` that is not an N x N density matrix and records too large for
    memory, and NumericalFailureError, with the time of the failed step, if
    a member's state becomes non-finite or its filtered trace is not
    positive, as when an input's rotation angle u dt mu overflows.
    """
    f, ops = control.f, control.ops
    exiting = exit_threshold is not None
    record_stride = _integer(record_stride, "record_stride", 1)
    base_seed = _integer(base_seed, "base_seed")
    streams = [_integer(s, "stream") for s in streams]
    n_steps = _step_count(T, cfg.dt, "dt")

    m_count = len(streams)
    if m_count < 1:
        raise ValueError("M must be >= 1: no trajectory streams given")
    rho0 = _checked_rho0(rho0, ops)

    # t = 0 is read off rho0's own real form, so that the first switch and
    # the first record are rho0's to the bit; the first step swaps in the
    # form that the run steps
    reads = _real_form(rho0, f)
    if cfg.eta == 1.0:
        form, step = _factor_form(rho0, f), _factor_step(cfg, ops)
    else:
        form, step = reads, _split_step(cfg, ops)
    state = np.tile(reads.state, (m_count, 1, 1))
    # w P + conj(w) P^T is the Hermitian matrix of a real form P, w = 1/2
    # in float64 and (1 + i)/2 in complex128: it unpacks each state sum
    unpack = 0.5 + 0.5j if np.iscomplexobj(rho0) else 0.5
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
                            dtype=rho0.dtype) if sum_chunk else None)

    gens = [_philox_rng(base_seed, s) for s in streams]
    sqrt_dt = np.sqrt(cfg.dt)
    # step-major: a step's draws, one per live member, are one row
    noise = np.empty((min(_NOISE_BLOCK, n_steps), m_count))

    rec_i = 0
    diag = reads.diagonal(state)
    for k in range(n_steps + 1):
        t = k * cfg.dt
        v = reads.distance(diag)

        below = v <= level
        # count_nonzero is numpy's cheapest test of a bool array
        n_below = np.count_nonzero(below)
        if n_below:
            # every clock an exit run still steps is open; elsewhere a set
            # clock keeps its first time
            first_below[live[below] if exiting
                        else below & np.isnan(first_below)] = t

        modes, u = _control_step(control, modes, v, state, reads.gain)

        if not exiting and (k % record_stride == 0 or k == n_steps):
            rec_t[rec_i] = t
            rec_V[rec_i] = v
            rec_u[rec_i] = u
            rec_purity[rec_i] = reads.purity(state)
            rec_modes[rec_i] = modes
            if sum_chunk:
                for c, lo in enumerate(range(0, m_count, sum_chunk)):
                    p = reads.real_sum(state[lo:lo + sum_chunk])
                    rec_sum[rec_i, c] = unpack * p + np.conj(unpack) * p.T
            rec_i += 1
        if k == n_steps or (exiting and n_below == len(below)):
            break

        # Members whose clock is now set leave the batch, with their
        # generators and their columns of noise.
        if exiting and n_below:
            stay = ~below
            live, state, diag, modes = (live[stay], state[stay], diag[stay],
                                        modes[stay])
            if np.ndim(u):
                u = u[stay]
            gens = list(compress(gens, stay))
            noise = noise[:, stay]
        if k == 0:
            reads, state = form, np.tile(form.state, (len(live), 1, 1))
            diag = reads.diagonal(state)

        if k % _NOISE_BLOCK == 0:
            fill = min(_NOISE_BLOCK, n_steps - k)
            for j, gen in enumerate(gens):
                noise[:fill, j] = gen.normal(0.0, sqrt_dt, fill)

        try:
            state = step(state, diag, u, noise[k % _NOISE_BLOCK])
        except NumericalFailureError as e:
            raise _failed_at(e, t + cfg.dt) from e
        diag = reads.diagonal(state)

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


# Grid states per block of the averaged flow (``_flow_coefficients``). A
# consumer reduces each block before the next is stepped into the same
# buffer, so a run's working memory does not grow with T.
_FLOW_BLOCK = 256

# Round-off allowed above 1 in the spectral norm of exp(dt_ode L_k), which
# is at most 1 (see ``_flow_map``).
_FLOW_GAIN_ROUNDOFF = 1e-12

# Degree of the Taylor polynomial that ``_expm`` squares: with the scaled
# matrix's 1-norm at most 1, the terms it drops sum to below 1e-17.
_EXPM_DEGREE = 18


def _rank_basis(ops: SpinOperators) -> np.ndarray:
    """The spherical-tensor rank basis of the real symmetric and the real
    antisymmetric N x N matrices, by diagonal: ``basis[q, p, k]``,
    q = 0..2J, is entry (p + q, p) of the rank-k basis matrix on diagonals
    +-q, zero past the diagonal's end and for k < q. Its entry (p, p + q)
    is the same for the symmetric matrix and the negative for the
    antisymmetric one, and each has unit Frobenius norm.

    The Casimir sum_a ad(F_a)^2 maps each diagonal to itself, where it is
    real, symmetric and tridiagonal: 2J(J+1) - 2 lam_i lam_j on entry (i, j)
    and -a_i a_j to (i + 1, j + 1), with a_i = (F_+)_(i+1, i) = 2 B_(i, i+1).
    Its eigenvalues there are k(k + 1), k = q..2J, so ``eigh`` lists the
    ranks in order. O(N^4) time.
    """
    n, lam = ops.dim, ops.lambdas
    a = 2 * np.diagonal(ops.b_y, 1)
    basis = np.zeros((n, n, n))
    for q in range(n):
        off = -a[q:] * a[:n - q - 1]
        casimir = (np.diag(2 * ops.J * (ops.J + 1) - 2 * lam[q:] * lam[:n - q])
                   + np.diag(off, 1) + np.diag(off, -1))
        basis[q, :n - q, q:] = np.linalg.eigh(casimir)[1]
    basis[1:] /= np.sqrt(2)
    return basis


def _coefficients(parts: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The coefficients (..., k, q) in the rank basis of (..., N, N)
    matrices that are each exactly symmetric or antisymmetric, read from
    their entries on and below the diagonal: an entry off the diagonal
    stands for itself and its mirror image."""
    n = len(basis)
    q, p = np.indices((n, n))
    # flat index of entry (p + q, p); past a diagonal's end the basis is
    # zero, so any finite entry will do
    at = np.minimum((p + q) * n + p, n * n - 1)
    lower = parts.reshape(*parts.shape[:-2], n * n)[..., at]
    return np.einsum("qpk,...qp->...kq",
                     basis * np.where(q > 0, 2, 1)[..., None], lower)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack, by scaling and squaring: each is
    scaled by a power of two to a 1-norm of at most 1, its Taylor
    polynomial of degree ``_EXPM_DEGREE`` is taken by Horner's rule, and
    the result is squared back."""
    _, s = np.frexp(abs(a).sum(axis=-2).max(axis=-1))
    s = np.maximum(s, 0)
    a = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    e = eye + a / _EXPM_DEGREE
    for j in range(_EXPM_DEGREE - 1, 0, -1):
        e = eye + (a @ e) / j
    for i in range(s.max()):
        e = np.where((i < s)[..., None, None], e @ e, e)
    return e


def _rank_blocks(u, ops: SpinOperators, basis: np.ndarray) -> np.ndarray:
    """L under the constant input u, by rank: L[0, k] acts on the
    coefficients (k, q) of a symmetric matrix in ``basis`` and L[1, k] on
    those of an antisymmetric one, as one (2, N, N, N) stack, zero at
    q > k and at the antisymmetric q = 0.

    B and gaps_sq are real, so L keeps a matrix symmetric or antisymmetric,
    and ad(F_y) and ad(F_z) keep its rank. On rank k, L is u S_k -
    1/2 diag(q^2) with S_k real and antisymmetric. L moves a diagonal at
    most one step, so the blocks are read off ``sme_drift``, the drift's
    one definition, with three real symmetric probes, each the sum of the
    basis matrices of every diagonal q = r (mod 3): the image's coefficient
    (k, q') is L_k's entry at the probe's one diagonal q within a step of
    q'. Below the diagonal the drift reads only entries on or below it,
    where an antisymmetric matrix is its symmetric twin but for the
    diagonal, so the antisymmetric blocks are the symmetric ones but q = 0.
    """
    n = ops.dim
    i, j = np.indices((n, n))
    rows = basis.sum(axis=2)[abs(i - j), np.minimum(i, j)]
    probes = np.stack([rows * (abs(i - j) % 3 == r) for r in range(3)])
    read = _coefficients(sme_drift(probes, u, ops), basis)
    q = np.arange(n)
    rank = q[:, None, None]
    # entry (q', q) of block (part, k): a step of at most one diagonal,
    # both components of rank k, and none at the antisymmetric q = 0
    inside = ((abs(q[:, None] - q) <= 1) & (q[:, None] <= rank) & (q <= rank)
              & (np.minimum(q[:, None], q) >= np.arange(2)[:, None, None, None]))
    return read[q % 3].transpose(1, 2, 0) * inside


def _flow_map(u, dt_ode: float, ops: SpinOperators, basis: np.ndarray,
              n_parts: int = 2) -> np.ndarray:
    """E = exp(dt_ode L) under the constant input u on the first
    ``n_parts`` parts of ``_rank_blocks``, which it pads with the
    identity: the symmetric blocks, which are all a real state needs,
    and for ``n_parts`` = 2 the antisymmetric ones too. ``_expm`` scales
    and squares each block by its own exponent, so each block of E is the
    same for either ``n_parts``.

    L_k + L_k^T = -diag(q^2) <= 0, so |E_k|_2 <= 1 for every dt_ode and u.
    Round-off in E grows with |dt_ode L_k|, as any evaluation of exp's
    does, and a u that large overflows. The states' smallest eigenvalue
    falls about linearly in |u| dt_ode 2J, to some 10 to 40 epsilons
    times it: at J = 10 and dt_ode = 0.01, from eigenstate 1 over 201
    states, it is -5.8e-12 at u = 1e4, -9.6e-8 at 1e8 and -1.7e-3 at 1e12,
    where the V is refused (``_flow_coefficients``, for both readers).
    Raises NumericalFailureError, stamped with the first step's time,
    unless each block it forms is finite with |E_k|_2 <= 1 up to round-off.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        flow = _expm(dt_ode * _rank_blocks(u, ops, basis)[:n_parts])
    if not np.isfinite(flow).all():
        raise _failed_at(NumericalFailureError(
            "exp(dt_ode L) has non-finite entries"), dt_ode)
    gain = np.linalg.norm(flow, 2, axis=(-2, -1)).max()
    if not gain <= 1.0 + _FLOW_GAIN_ROUNDOFF:
        raise _failed_at(NumericalFailureError(
            f"exp(dt_ode L) grows a mode by {gain:.4g} per step"), dt_ode)
    return flow


def _rebuilt(coef: np.ndarray, basis: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (S, N, N) the matrices of the rank coefficients
    ``coef`` (P, k, q, S) of their real part and, for P = 2, their
    imaginary part.

    For each part, one matmul with the basis gives every state's entries
    on and below the diagonal, entry (p + q, p) at [q, state, p]; every
    entry (i, j) of ``out`` is read from entry (|i - j|, min(i, j)), and
    the imaginary part is multiplied by sign(i - j). So each matrix is
    exactly symmetric or Hermitian.
    """
    n = len(basis)
    i, j = np.indices((n, n))
    for part, c in enumerate(coef):
        rows = np.matmul(c.transpose(1, 2, 0), basis.transpose(0, 2, 1))
        values = rows.transpose(1, 0, 2)[:, abs(i - j), np.minimum(i, j)]
        if part:
            np.multiply(values, np.sign(i - j), out=out.imag)
        else:
            out.real[...] = values


def _flow_coefficients(rho0, control, T: float, dt_ode: float):
    """(K + 1, rho, basis, blocks): the number of grid states of the
    averaged dynamics under a ConstantInput's u, ``_checked_rho0``'s
    ``rho0``, the rank basis, and a generator of (lo, coef, V), in blocks
    of at most ``_FLOW_BLOCK`` states from grid index lo on.

    Every input check runs before this returns, so a rejected run steps
    nothing: the step count, ``rho0`` and the map (``_flow_map``). coef and
    V are views of buffers that the next block overwrites. coef is
    (P, k, q, S): the coefficients of the real part and, for a complex
    state, of the imaginary part, with the state index last. A block's
    first state is E times the last state before it, and the block is
    filled from it by doubling sweeps with the powers E^(2^j), formed once
    per run: states [h, 2h) are E^h times states [0, h), one batched
    matmul each, so a block of 256 states takes 8 of them. A real state
    steps only the symmetric blocks of E. V is 1 - basis[0, f - 1] .
    coef[0, :, 0] unclipped, (f, f) being in the q = 0 coefficients; at
    the first grid time whose V leaves [0, 1] by more than ``_TOL``, a
    state's entry tolerance, E's round-off lost the state space
    (``_flow_map``) and the generator raises NumericalFailureError.
    """
    n_steps = _step_count(T, dt_ode, "dt_ode")
    rho = _checked_rho0(rho0, control.ops)
    basis = _rank_basis(control.ops)
    parts = np.stack([rho.real, rho.imag] if np.iscomplexobj(rho)
                     else [rho])
    size = min(_FLOW_BLOCK, n_steps + 1)
    # E^(2^j) for each 2^j < size
    powers = [_flow_map(control.u, dt_ode, control.ops, basis, len(parts))]
    while 2 ** len(powers) < size:
        powers.append(powers[-1] @ powers[-1])

    def blocks():
        row = basis[0, control.f - 1]
        coef, v_buf = np.empty((*parts.shape, size)), np.empty(size)
        coef[..., 0] = _coefficients(parts, basis)
        for lo in range(0, n_steps + 1, size):
            n_block = min(size, n_steps + 1 - lo)
            if lo:
                np.matmul(powers[0], coef[..., -1:], out=coef[..., :1])
            have = 1
            for power in powers:
                if have == n_block:
                    break
                m = min(have, n_block - have)
                np.matmul(power, coef[..., :m], out=coef[..., have:have + m])
                have += m
            v = v_buf[:n_block]
            np.matmul(row, coef[0, :, 0, :n_block], out=v)
            np.subtract(1.0, v, out=v)
            inside = (-_TOL <= v) & (v <= 1 + _TOL)
            if not inside.all():
                k = np.argmin(inside)
                raise _failed_at(NumericalFailureError(
                    f"V = {v[k]:.17g} is outside [0, 1] beyond round-off"),
                    (lo + k) * dt_ode)
            yield lo, coef[..., :n_block], v

    return n_steps + 1, rho, basis, blocks()


def _flow_distances(rho0, control, T: float, dt_ode: float):
    """(V, Q): ``distance_V`` and ``lyapunov_Q`` of every grid state of the
    averaged dynamics, read from ``_flow_coefficients``' blocks with no
    matrix rebuilt.

    V is the blocks' V clipped to [0, 1], as ``distance_V`` clips it; the
    blocks refuse a V outside by more than ``_TOL``. The basis is
    orthonormal and its one rank-0 matrix is I/sqrt(N) up to sign, so Q =
    |rho - I/N|_F^2 is the sum of c^2 over the ranks k >= 1 of both parts
    plus the square of the rank-0 coefficient's distance from that of I/N;
    that term stays what it is at the start, as E_0 = 1, and holds the
    start's trace error. No I/N is subtracted from a matrix's entries, so
    Q keeps its digits as rho nears I/N. Raises as ``_flow_coefficients``
    and its blocks do, and ValueError if the grid's V and Q are too many
    for memory.
    """
    n_states, _, basis, blocks = _flow_coefficients(rho0, control, T,
                                                    dt_ode)
    with _records_fit(T, dt_ode, "dt_ode", n_states):
        V, Q = np.empty((2, n_states))
    # I/N's coefficient on the rank-0 matrix
    mixed = basis[0, :, 0].sum() / len(basis)
    for lo, coef, v in blocks:
        at = slice(lo, lo + len(v))
        np.clip(v, 0.0, 1.0, out=V[at])
        ranks = coef[:, 1:]
        np.einsum("pkqs,pkqs->s", ranks, ranks, out=Q[at])
        Q[at] += np.square(coef[0, 0, 0] - mixed)
    return V, Q


def integrate_ensemble(rho0, control, T: float,
                       dt_ode: float) -> OdeTrajectory:
    """Integrate the averaged dynamics under a ConstantInput's u exactly,
    as the states exp(k dt_ode L) rho0 on the grid of ``dt_ode``.

    Under a constant u the averaged flow is linear, d rho/dt = L rho, and a
    Lindblad semigroup: exp(t L) keeps every state a state for every t, so
    no ``dt_ode`` or u needs a bound and no state is projected. The
    read-only (K+1, N, N) array of states, float64 for a ``rho0`` with a
    zero imaginary part and complex128 otherwise, is allocated first, and
    each block of ``_flow_coefficients`` is rebuilt into its own slice of
    it (``_rebuilt``), every state exactly Hermitian. With any nonzero u
    the trajectory approaches I/N as T grows.

    Raises ValueError for an input outside its range, ``rho0`` included,
    or for grid states too many for memory, and NumericalFailureError as
    ``spinstab ode`` does (``_flow_coefficients``): at the first step if E
    is not finite or grows a mode, as an overflowing u makes it, and at the
    first state whose V leaves [0, 1] beyond round-off.
    """
    n_states, rho, basis, blocks = _flow_coefficients(rho0, control, T,
                                                      dt_ode)
    with _records_fit(T, dt_ode, "dt_ode", n_states):
        states = np.empty((n_states, *rho.shape), rho.dtype)
    for lo, coef, v in blocks:
        _rebuilt(coef, basis, states[lo:lo + len(v)])
    states[0] = rho
    states.setflags(write=False)
    return OdeTrajectory(times=np.arange(n_states) * dt_ode, states=states)
