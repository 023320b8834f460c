"""Helpers shared by the tests: random states, the projection by
eigendecomposition alone, and one evaluation of the switching law as the
integrator's loop makes it."""

import numpy as np

from spinstab.controller import feedback_gain, switch_modes
from spinstab.quantum import _dag, distance_V


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


def switching_law(feedback, rho, ctrl):
    """(feedback, u) after one evaluation of the switching law ``ctrl`` at
    ``rho``, made as ``dynamics._integrate_batch`` makes it on every step:
    ``switch_modes`` updates the mode flag(s) from V(rho), then u is
    ``feedback_gain`` in feedback mode and 1 in constant mode."""
    feedback = switch_modes(feedback, distance_V(rho, ctrl.f), ctrl.gamma)
    return feedback, np.where(feedback, feedback_gain(rho, ctrl.f, ctrl.ops),
                              1.0)
