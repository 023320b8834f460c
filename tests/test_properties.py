"""Property tests of the stepping loop's operators against dense oracles.

``feedback_gain`` reads one column of the state and ``sme_drift`` applies
F_y as one real matmul; both rest on the state being Hermitian. These
properties compare them with the plain commutator formulas on random
Hermitian states, single and batched, for J in {1/2, 1, 5/2, 10} and
every target index.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinstab.controller import feedback_gain
from spinstab.dynamics import sme_drift
from spinstab.quantum import _dag, make_spin_operators

OPS = {J: make_spin_operators(J) for J in (0.5, 1, 2.5, 10)}

_entries = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def spin_states(draw):
    """(ops, rho, batch): an exactly Hermitian unit-trace PSD state, or a
    stack of them, from a complex factor G as (G G* + 1e-12 I) / trace."""
    ops = OPS[draw(st.sampled_from(sorted(OPS)))]
    batch = draw(st.one_of(st.none(), st.integers(1, 4)))
    shape = (ops.dim, ops.dim) if batch is None else (batch, ops.dim, ops.dim)
    g = (draw(arrays(np.float64, shape, elements=_entries))
         + 1j * draw(arrays(np.float64, shape, elements=_entries)))
    m = g @ _dag(g) + 1e-12 * np.eye(ops.dim)
    m = m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return ops, 0.5 * (m + _dag(m)), batch


def dense_gain(m, f, ops):
    """The gain by its definition, -Re(i [F_y, rho])_ff, with two matmuls."""
    comm = ops.f_y @ m - m @ ops.f_y
    return -np.real(1j * comm[..., f - 1, f - 1])


def dense_drift(m, u, ops):
    """The drift with the commutator by two complex matmuls."""
    lam = ops.lambdas
    u = np.asarray(u, dtype=float)[..., None, None]
    return (-1j * u * (ops.f_y @ m - m @ ops.f_y)
            - 0.5 * (lam[:, None] - lam[None, :]) ** 2 * m)


@settings(deadline=None)
@given(spin_states())
def test_feedback_gain_equals_dense_oracle(case):
    ops, m, _ = case
    for f in range(1, ops.dim + 1):
        np.testing.assert_allclose(feedback_gain(m, f, ops),
                                   dense_gain(m, f, ops), rtol=0, atol=1e-15)


@settings(deadline=None)
@given(spin_states(), st.data())
def test_drift_equals_dense_oracle_and_is_exactly_hermitian(case, data):
    ops, m, batch = case
    u_shape = () if batch is None else (batch,)
    u = data.draw(arrays(np.float64, u_shape,
                         elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    d = sme_drift(m, u, ops)
    np.testing.assert_allclose(d, dense_drift(m, u, ops), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(d, _dag(d))
