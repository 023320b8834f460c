"""Domain types for quantum states and angular momentum operators.

A state is a density matrix: an N x N complex matrix that is Hermitian,
has unit trace and is positive semidefinite. The measured observable is
the angular momentum along z; its eigenprojectors are the stabilization
targets. All matrices are dense, double-precision and small (N <= ~64),
and every constructed object is an immutable value that can be shared
freely across trajectory workers.

``QuantumState`` always holds complex128. The model's operators are real
in the F_z eigenbasis (F_z is diagonal, -i F_y is real), so a state with a
zero imaginary part stays real under the dynamics, and the averaged flow
steps such a state as a real symmetric float64 array. The stochastic loop
steps every state, real or complex, in float64: as a real factor F with
Re rho = F F^T at eta = 1, and as the real matrix Re rho + Im rho, whose
diagonal is rho's, at eta < 1 (see ``dynamics``). The array
helpers here (``_dag``, ``_hermitian_part``, ``distance_V``,
``lyapunov_Q``) take either dtype and keep it.

No integrator projects a state: the stochastic step and the averaged flow
keep every state a state by construction, and an ensemble's mean state is
an average of states. ``_clip_psd``, a projection onto the state space by
one ``eigh`` path, is kept for the benchmark's tracer, which wraps it by
name; nothing in the library calls it.
"""

import math
from dataclasses import dataclass, field

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
]

# Tolerance on each density-matrix invariant (Hermiticity, trace, PSD).
_TOL = 1e-9


class NumericalFailureError(RuntimeError):
    """A state left the finite numbers, or a step or projection lost its trace.

    ``time`` is the integration time of the failed step, when known.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def _dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes (batch-safe).

    For a real array ``conj()`` returns the array itself, so this is a plain
    transposed view, with no copy.
    """
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class QuantumState:
    """A validated density matrix.

    The wrapped array is made read-only; ``np.asarray(state)`` yields it
    directly, so states can be passed wherever a plain matrix is expected.
    """

    data: np.ndarray

    def __post_init__(self):
        mat = np.array(self.data, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"state must be a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 2:
            raise ValueError("state dimension must be at least 2")
        mat.setflags(write=False)
        object.__setattr__(self, "data", mat)
        if not np.isfinite(mat).all():
            raise ValueError("state has non-finite entries")
        herm_defect = np.linalg.norm(mat - _dag(mat))
        if herm_defect > _TOL:
            raise ValueError(f"state is not Hermitian: defect {herm_defect:.3e}")
        tr_defect = abs(np.trace(mat) - 1.0)
        if tr_defect > _TOL:
            raise ValueError(f"state trace differs from 1 by {tr_defect:.3e}")
        w_min = np.linalg.eigvalsh(_hermitian_part(mat)).min()
        if w_min < -_TOL:
            raise ValueError(f"state is not PSD: min eigenvalue {w_min:.3e}")

    def __array__(self, dtype=None, copy=None):
        if dtype is None or dtype == self.data.dtype:
            return self.data
        return self.data.astype(dtype)


@dataclass(frozen=True)
class SpinOperators:
    """Angular momentum operators for a fixed total momentum J (N = 2J+1).

    ``f_z`` is diagonal with strictly increasing eigenvalues -J..J; ``f_y``
    is the Hermitian tridiagonal generator of rotations used as the control
    Hamiltonian. Its k-th eigenvector is the k-th standard basis vector, so
    the stabilization targets are the diagonal projectors (``eigenstate``).

    Two read-only fields are derived once from these, for the hot loop:
    ``b_y = -i f_y``, which is real (antisymmetric, tridiagonal), and
    ``gaps_sq[i, j] = (lambdas[i] - lambdas[j])**2``, the entrywise factor
    of the double commutator [F_z, [F_z, rho]].
    """

    J: float
    dim: int
    f_y: np.ndarray
    f_z: np.ndarray
    lambdas: np.ndarray
    b_y: np.ndarray = field(init=False, repr=False)
    gaps_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam = self.lambdas
        object.__setattr__(self, "b_y", np.ascontiguousarray((-1j * self.f_y).real))
        object.__setattr__(self, "gaps_sq", (lam[:, None] - lam[None, :]) ** 2)
        for name in ("f_y", "f_z", "lambdas", "b_y", "gaps_sq"):
            getattr(self, name).setflags(write=False)


def make_spin_operators(J) -> SpinOperators:
    """Build the angular momentum operators for total momentum J.

    J must be a finite, positive integer or half-integer. The y-operator
    is the tridiagonal matrix with super/subdiagonal magnitudes
    c_k = sqrt((N-k) k) / 2; the z-operator is diag(-J, ..., J).
    """
    J = float(J)
    if not math.isfinite(J):
        raise ValueError(f"J must be finite, got {J}")
    if J <= 0 or abs(2 * J - round(2 * J)) > 1e-12:
        raise ValueError(f"J must be a positive integer or half-integer, got {J}")
    n = int(round(2 * J)) + 1
    lambdas = np.arange(1, n + 1, dtype=float) - J - 1.0

    k = np.arange(1, n, dtype=float)
    c = np.sqrt((n - k) * k)
    f_y = np.zeros((n, n), dtype=complex)
    f_y[np.arange(n - 1), np.arange(1, n)] = 0.5j * c
    f_y[np.arange(1, n), np.arange(n - 1)] = -0.5j * c

    return SpinOperators(J=J, dim=n, f_y=f_y, f_z=np.diag(lambdas),
                         lambdas=lambdas)


def eigenstate(ops: SpinOperators, k: int) -> QuantumState:
    """Rank-1 projector onto the k-th measurement eigenvector (k is 1-based)."""
    if not 1 <= k <= ops.dim:
        raise ValueError(f"eigenstate index must be in 1..{ops.dim}, got {k}")
    mat = np.zeros((ops.dim, ops.dim), dtype=complex)
    mat[k - 1, k - 1] = 1.0
    return QuantumState(mat)


def maximally_mixed(n: int) -> QuantumState:
    """The state I/N, the unique fixed point of the averaged dynamics."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    return QuantumState(np.eye(n, dtype=complex) / n)


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
    """|rho - I/N|_F^2: zero exactly at I/N, positive everywhere else.

    Summed from the entries of rho - I/N, so it stays accurate as rho
    nears I/N, where Tr(rho^2) - 1/N, its value for a unit-trace rho,
    would lose its digits to cancellation. |x|^2 and x^2 are the same
    double for a real x, so a real matrix and its complex copy give the
    same Q to the bit.
    """
    m = np.asarray(rho)
    n = m.shape[-1]
    q = np.sum(np.abs(m - np.eye(n) / n) ** 2, axis=(-2, -1))
    return float(q) if np.ndim(q) == 0 else q


def _clip_psd(mat: np.ndarray) -> np.ndarray:
    """Project onto the state space: hermitize, clip negative eigenvalues,
    renormalize the trace.

    Batch-safe, and the one place where a failed state is detected: raises
    NumericalFailureError when the input has a non-finite entry or when
    clipping leaves a nonpositive trace. Valid states are fixed points up to
    round-off. Every matrix, single or of a batch, takes the same ``eigh``
    path, and the result has the input's dtype: a real (symmetric) input
    goes through the real eigensolver and a real reconstruction, a complex
    one through the Hermitian eigensolver.
    """
    if not np.isfinite(mat).all():
        raise NumericalFailureError("state has non-finite entries")
    w, v = np.linalg.eigh(_hermitian_part(mat))
    w = np.clip(w, 0.0, None)
    tr = np.sum(w, axis=-1)
    if not np.all(tr > 0.0):
        raise NumericalFailureError(
            f"projection failed: trace after clipping is {np.min(tr):.3e}")
    out = (v * (w / tr[..., None])[..., None, :]) @ _dag(v)
    return _hermitian_part(out)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(mat + mat*) / 2 of an (N, N) matrix or of each of a batch: exactly
    Hermitian, in ``mat``'s dtype."""
    return 0.5 * (mat + _dag(mat))
