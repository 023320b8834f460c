"""Helpers shared by the tests: random states and the projection by
eigendecomposition alone."""

import numpy as np

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

