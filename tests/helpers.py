"""Helpers shared by the tests: random states, the projection by
eigendecomposition alone, a state's diagonal as the step kernels take it,
the stochastic split step from dense matrices, and the averaged flow's
dense generator and its exact trajectory."""

import numpy as np
from scipy.linalg import expm

from spinstab.quantum import _dag


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random state G G* / Tr(G G*) with G complex Gaussian, as a complex
    (dim, dim) array; in the state space by construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def clip_psd_eigh(mat: np.ndarray) -> np.ndarray:
    """Oracle for ``quantum._clip_psd`` on a finite input: hermitize, clip
    the negative eigenvalues by ``eigh``, renormalize the trace and hermitize
    the reconstruction, for every matrix of a batch or a single one. The
    projection takes this one path for every input, so it equals this
    oracle bit for bit."""
    herm = 0.5 * (mat + _dag(mat))
    w, v = np.linalg.eigh(herm)
    w = np.clip(w, 0.0, None)
    tr = np.sum(w, axis=-1)
    out = (v * (w / tr[..., None])[..., None, :]) @ _dag(v)
    return 0.5 * (out + _dag(out))


def real_diagonal(rho) -> np.ndarray:
    """Re rho_kk of a state or of a stack of states, complex or in real
    form: the diagonal that ``dynamics._split_step``'s step takes with
    each state, as the stepping loop reads it."""
    return np.asarray(rho).diagonal(0, -2, -1).real


def split_step_dense(rho, u, dw, dt: float, eta: float, ops) -> np.ndarray:
    """Oracle for one step of ``dynamics._split_step`` on one (N, N)
    state, from dense matrices: R (G o (D rho D)) R^T / Tr(.), with D the
    diagonal matrix exp(sqrt(eta) F_z dy - eta F_z^2 dt), dy = 2 sqrt(eta)
    Tr(F_z rho) dt + dw, G_ij = exp(-(1 - eta) (lam_i - lam_j)^2 dt / 2)
    and R scipy's exp(u dt B) of B = -i F_y, with no shift and no eigh."""
    fz = ops.f_z
    dy = 2 * np.sqrt(eta) * np.trace(fz @ rho).real * dt + dw
    d = expm(np.sqrt(eta) * fz * dy - eta * fz @ fz * dt)
    lam = np.diag(fz)
    g = np.exp(-(1 - eta) * (lam[:, None] - lam[None, :]) ** 2 * dt / 2)
    r = expm(u * dt * (-1j * ops.f_y).real)
    out = r @ (g * (d @ rho @ d)) @ r.T
    return out / np.trace(out).real


def dense_generator(u, ops) -> np.ndarray:
    """Oracle for the averaged flow's generator L under the constant input
    u, from its definition -i u [F_y, .] - 1/2 [F_z, [F_z, .]]: the dense
    N^2 x N^2 complex matrix acting on a raveled matrix, built from
    Kronecker products, with no use of ``sme_drift``."""
    eye = np.eye(ops.dim)

    def ad(a):
        return np.kron(a, eye) - np.kron(eye, a.T)

    return -1j * u * ad(ops.f_y) - 0.5 * ad(ops.f_z) @ ad(ops.f_z)


def expm_states(rho0, u, dt: float, n_steps: int, ops, *,
                unit_norm: bool = False) -> np.ndarray:
    """Oracle for the grid states of the averaged flow: rho0 and
    ``n_steps`` steps of scipy's dense exp(dt L) after it, complex. L's
    Kronecker form has an all-zero imaginary part, as -i F_y is real, so
    exp is taken of its real part alone, and each step applies it to the
    state's real and imaginary parts as the two columns of one real
    matrix.

    With ``unit_norm``, each step applies exp(dt L / m) m times instead,
    m the smallest power of two with |dt L / m|_1 <= 1, at m times the
    matrix-vector products. scipy squares its expm of a matrix of larger
    norm, which costs digits: at N = 3, u = 37 and dt = 0.4296875 its
    exp(dt L) is 1.0e-13 from a 40-digit one, the m = 64 steps 8.3e-16."""
    generator = dense_generator(u, ops)
    assert not generator.imag.any()
    a = dt * generator.real
    m = 1
    while unit_norm and np.abs(a / m).sum(axis=0).max() > 1:
        m *= 2
    step = expm(a / m)
    states = [np.asarray(rho0, dtype=complex).ravel()]
    for _ in range(n_steps):
        parts = states[-1].view(float).reshape(-1, 2)
        for _ in range(m):
            parts = step @ parts
        states.append(parts.view(complex).ravel())
    return np.reshape(states, (n_steps + 1, ops.dim, ops.dim))
