"""Domain types for quantum states and angular momentum operators.

A state is a density matrix: an N x N complex matrix that is Hermitian,
has unit trace and is positive semidefinite. The measured observable is
the angular momentum along z; its eigenprojectors are the stabilization
targets. All matrices are dense, double-precision and small (N <= ~64),
and every constructed object is an immutable value that can be shared
freely across trajectory workers.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "NumericalFailureError",
    "QuantumState",
    "SpinOperators",
    "make_spin_operators",
    "eigenstate",
    "maximally_mixed",
    "distance_V",
    "lyapunov_Q",
    "project_to_state_space",
    "random_density",
]

# Tolerance on each density-matrix invariant (Hermiticity, trace, PSD).
_TOL = 1e-9


class NumericalFailureError(RuntimeError):
    """A state left the finite numbers, or its projection lost the whole trace.

    ``time`` is the integration time of the failed step, when known.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def _dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes (batch-safe)."""
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class QuantumState:
    """A validated density matrix.

    The wrapped array is made read-only; ``np.asarray(state)`` yields it
    directly, so states can be passed wherever a plain matrix is expected.
    """

    data: np.ndarray
    dim: int = field(init=False)
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        mat = np.array(self.data, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"state must be a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 2:
            raise ValueError("state dimension must be at least 2")
        mat.setflags(write=False)
        object.__setattr__(self, "data", mat)
        object.__setattr__(self, "dim", mat.shape[0])
        if validate:
            if not np.isfinite(mat).all():
                raise ValueError("state has non-finite entries")
            herm_defect = np.linalg.norm(mat - _dag(mat))
            if herm_defect > _TOL:
                raise ValueError(f"state is not Hermitian: defect {herm_defect:.3e}")
            tr_defect = abs(np.trace(mat) - 1.0)
            if tr_defect > _TOL:
                raise ValueError(f"state trace differs from 1 by {tr_defect:.3e}")
            w_min = np.linalg.eigvalsh(0.5 * (mat + _dag(mat))).min()
            if w_min < -_TOL:
                raise ValueError(f"state is not PSD: min eigenvalue {w_min:.3e}")

    def __array__(self, dtype=None, copy=None):
        if dtype is None or dtype == self.data.dtype:
            return self.data
        return self.data.astype(dtype)

    def purity(self) -> float:
        """Tr(rho^2), equal to the squared Frobenius norm for Hermitian rho."""
        return float(np.sum(np.abs(self.data) ** 2))


@dataclass(frozen=True)
class SpinOperators:
    """Angular momentum operators for a fixed total momentum J (N = 2J+1).

    ``f_z`` is diagonal with strictly increasing eigenvalues -J..J; ``f_y``
    is the Hermitian tridiagonal generator of rotations used as the control
    Hamiltonian. ``projectors[k-1]`` is the rank-1 projector onto the k-th
    eigenvector of ``f_z`` (the standard basis vector, since f_z is diagonal).
    """

    J: float
    dim: int
    f_y: np.ndarray
    f_z: np.ndarray
    lambdas: np.ndarray
    projectors: np.ndarray

    def __post_init__(self):
        for name in ("f_y", "f_z", "lambdas", "projectors"):
            getattr(self, name).setflags(write=False)


def make_spin_operators(J) -> SpinOperators:
    """Build the angular momentum operators for total momentum J.

    J must be a positive integer or half-integer. The y-operator is the
    tridiagonal matrix with super/subdiagonal magnitudes
    c_k = sqrt((N-k) k) / 2; the z-operator is diag(-J, ..., J).
    """
    J = float(J)
    if J <= 0 or abs(2 * J - round(2 * J)) > 1e-12:
        raise ValueError(f"J must be a positive integer or half-integer, got {J}")
    n = int(round(2 * J)) + 1
    lambdas = np.arange(1, n + 1, dtype=float) - J - 1.0

    k = np.arange(1, n, dtype=float)
    c = np.sqrt((n - k) * k)
    f_y = np.zeros((n, n), dtype=complex)
    f_y[np.arange(n - 1), np.arange(1, n)] = 0.5j * c
    f_y[np.arange(1, n), np.arange(n - 1)] = -0.5j * c

    f_z = np.diag(lambdas)

    projectors = np.zeros((n, n, n), dtype=complex)
    projectors[np.arange(n), np.arange(n), np.arange(n)] = 1.0

    return SpinOperators(J=J, dim=n, f_y=f_y, f_z=f_z, lambdas=lambdas,
                         projectors=projectors)


def eigenstate(ops: SpinOperators, k: int) -> QuantumState:
    """Rank-1 projector onto the k-th measurement eigenvector (k is 1-based)."""
    if not 1 <= k <= ops.dim:
        raise ValueError(f"eigenstate index must be in 1..{ops.dim}, got {k}")
    return QuantumState(ops.projectors[k - 1], validate=False)


def maximally_mixed(n: int) -> QuantumState:
    """The state I/N, the unique fixed point of the averaged dynamics."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    return QuantumState(np.eye(n, dtype=complex) / n, validate=False)


def distance_V(rho, f: int):
    """Distance 1 - Tr(rho P_f) = 1 - rho_ff from the target eigenstate.

    Accepts a state or a stacked (..., N, N) array; tiny round-off outside
    [0, 1] is clamped. Returns a float for a single matrix, an array for a
    batch.
    """
    m = np.asarray(rho)
    n = m.shape[-1]
    if not 1 <= f <= n:
        raise ValueError(f"target index must be in 1..{n}, got {f}")
    v = np.clip(1.0 - np.real(m[..., f - 1, f - 1]), 0.0, 1.0)
    return float(v) if np.ndim(v) == 0 else v


def lyapunov_Q(rho):
    """Tr(rho^2) - 1/N: zero exactly at I/N, positive everywhere else."""
    m = np.asarray(rho)
    n = m.shape[-1]
    q = np.sum(np.abs(m) ** 2, axis=(-2, -1)) - 1.0 / n
    q = np.clip(q, 0.0, None)
    return float(q) if np.ndim(q) == 0 else q


def _clip_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitize, clip negative eigenvalues, renormalize the trace.

    Batch-safe core of the state-space projection, and the one place where
    a failed state is detected: raises NumericalFailureError when the input
    has a non-finite entry or when clipping leaves a nonpositive trace.
    """
    if not np.isfinite(mat).all():
        raise NumericalFailureError("state has non-finite entries")
    herm = 0.5 * (mat + _dag(mat))
    w, v = np.linalg.eigh(herm)
    w = np.clip(w, 0.0, None)
    tr = np.sum(w, axis=-1)
    if not np.all(tr > 0.0):
        raise NumericalFailureError(
            f"projection failed: trace after clipping is {np.min(tr):.3e}")
    out = (v * (w / tr[..., None])[..., None, :]) @ _dag(v)
    return 0.5 * (out + _dag(out))


def project_to_state_space(rho) -> QuantumState:
    """Project a near-valid matrix back onto the state space.

    Hermitizes via (rho + rho*)/2, clips negative eigenvalues to zero and
    renormalizes the trace to one. Valid states are fixed points up to
    round-off. Raises NumericalFailureError for a non-finite matrix or one
    whose trace after clipping is nonpositive.
    """
    return QuantumState(_clip_psd(np.asarray(rho, dtype=complex)))


def random_density(dim: int, rng: np.random.Generator) -> QuantumState:
    """Random valid state G G* / Tr(G G*) with G complex Gaussian.

    In the state space by construction; used throughout the property tests.
    """
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return QuantumState(m / np.trace(m).real, validate=False)
