"""Helpers shared by the tests: random states, the projection by
eigendecomposition alone, the four-stage RK4 step, a step of the averaged
flow made to fail, and the averaged flow's dense blocks."""

import numpy as np

from spinstab.dynamics import _band, _block_flow, sme_drift
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
    the reconstruction, for every matrix of a batch or a single one. This is
    the projection's ``eigh`` path, which it takes for every batch and for a
    single matrix that fails its Cholesky certificate."""
    herm = 0.5 * (mat + _dag(mat))
    w, v = np.linalg.eigh(herm)
    w = np.clip(w, 0.0, None)
    tr = np.sum(w, axis=-1)
    out = (v * (w / tr[..., None])[..., None, :]) @ _dag(v)
    return 0.5 * (out + _dag(out))


def rk4_step(rho, u, dt: float, ops) -> np.ndarray:
    """Oracle for ``dynamics._rk4_step``: one classical four-stage RK4 step
    of ``sme_drift`` under the constant input u, without projection."""
    k1 = sme_drift(rho, u, ops)
    k2 = sme_drift(rho + 0.5 * dt * k1, u, ops)
    k3 = sme_drift(rho + 0.5 * dt * k2, u, ops)
    k4 = sme_drift(rho + dt * k3, u, ops)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_block(u, ops, anti: bool) -> np.ndarray:
    """Oracle for the spectrum of the averaged flow's generator L under the
    constant input u: its dense matrix on the real symmetric, or
    antisymmetric, N x N matrices, in that block's coordinates, read off
    the reach-1 band. N(N +- 1)/2 square, so O(N^6) to diagonalize."""
    band = _band(_block_flow(u, ops, anti), ops.dim, 1, anti)
    rows = np.arange(len(band.cols))[:, None]
    out = np.zeros((len(rows), len(rows)))
    np.add.at(out, (rows, band.scatter.ravel()[band.cols]), band.coef)
    return out


def replace_step_from(monkeypatch, state, band, image) -> None:
    """Make the RK4 step from the real grid state ``state`` give the
    coordinates ``image`` (a number or one value per coordinate of
    ``band``, the symmetric block's band), in whichever path steps it.

    Both the windowed and the per-state path take a step's coordinates from
    ``np.einsum`` over the band values the step reads; the patched einsum
    returns ``image`` when those values are ``state``'s.
    """
    values = np.asarray(state).ravel().take(band.cols)
    einsum = np.einsum

    def patched(subscripts, *operands, **kwargs):
        out = einsum(subscripts, *operands, **kwargs)
        if np.array_equal(operands[-1], values):
            out[...] = image
        return out

    monkeypatch.setattr(np, "einsum", patched)
