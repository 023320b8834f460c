"""Property tests of the stepping loop's operators against reference oracles.

``feedback_gain`` reads one column of the state and ``sme_drift`` applies
F_y as one real matmul; both rest on the state being Hermitian. These
properties compare them with the plain commutator formulas on random
Hermitian states, single and batched, for J in {1/2, 1, 5/2, 10} and
every target index. ``sme_diffusion`` is compared with its matmul-and-trace
definition for random efficiencies eta, and a batch with its rows.
``switch_modes`` is compared with a scalar automaton written from the
hysteresis law in the ``controller`` module docstring, and the mode the
integrator's loop picks at t = 0 with the rule that docstring states for it.
The dtype rule is checked two ways: the step takes a real state to
float64 and agrees with the same step of its complex copy, and every
state a complex run records, SDE or averaged flow, is complex128 and
exactly Hermitian.
The record grid of the stepping loop is every ``record_stride``-th step
and the last, for any step count and stride.
The drift is checked over random inputs u: zero at every eigenstate at
u = 0, traceless, and a batch row equal to the single call. The projection
``_clip_psd`` is compared with its ``eigh`` oracle on full-rank,
near-singular, rank-deficient and indefinite matrices, single and batched,
and equals it bit for bit.
In feedback mode V is a supermartingale: at an interior state the split
step's mean change of V, over the measured increment's own law, is
-u^2 dt to first order in dt and never positive. One step of the
averaged flow equals one step of scipy's exp(dt L) of the dense generator,
for real and complex states, random inputs u and steps dt. The blocks of
L by spherical-tensor rank, read off ``sme_drift``, have the dense
generator's spectrum, compared cluster by cluster so that a defective
eigenvalue is not split by round-off, and each is -1/2 diag(q^2) plus an
antisymmetric matrix.
"""

import sys
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import connected_components

from helpers import (clip_psd_eigh, dense_generator, expm_states,
                     random_density)
from spinstab import dynamics
from spinstab.controller import (ConstantInput, ControllerState,
                                 feedback_gain, new_controller, switch_modes)
from spinstab.dynamics import (SdeStepConfig, _control_step, _split_step,
                               integrate_ensemble, simulate_batch,
                               sme_diffusion, sme_drift)
from spinstab.quantum import (_clip_psd, _dag, distance_V, eigenstate,
                              make_spin_operators)

OPS = {J: make_spin_operators(J) for J in (0.5, 1, 2.5, 10)}

_entries = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def spin_states(draw, batched=True):
    """(ops, rho, batch): an exactly Hermitian unit-trace PSD state, or (if
    ``batched``) a stack of them, from a complex factor G as
    (G G* + 1e-12 I) / trace."""
    ops = OPS[draw(st.sampled_from(sorted(OPS)))]
    batch = draw(st.one_of(st.none(), st.integers(1, 4))) if batched else None
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


def dense_diffusion(m, ops, eta):
    """The back-action sqrt(eta)(F_z rho + rho F_z - 2 Tr(F_z rho) rho) with
    two matmuls and a trace."""
    mean = np.trace(ops.f_z @ m, axis1=-2, axis2=-1).real[..., None, None]
    return np.sqrt(eta) * (ops.f_z @ m + m @ ops.f_z - 2.0 * mean * m)


@settings(deadline=None)
@given(spin_states(), st.floats(0.0, 1.0, exclude_min=True,
                                allow_subnormal=False))
def test_diffusion_equals_dense_oracle_and_is_exactly_hermitian(case, eta):
    ops, m, batch = case
    d = sme_diffusion(m, ops, eta)
    np.testing.assert_allclose(d, dense_diffusion(m, ops, eta), rtol=0,
                               atol=1e-13)
    np.testing.assert_array_equal(d, _dag(d))
    np.testing.assert_allclose(np.trace(d, axis1=-2, axis2=-1), 0.0, rtol=0,
                               atol=1e-13)
    for k in range(1, ops.dim + 1):
        assert not sme_diffusion(eigenstate(ops, k), ops, eta).any()
    for i in range(batch or 0):
        np.testing.assert_array_equal(d[i], sme_diffusion(m[i], ops, eta))


def reference_mode(feedback: bool, v: float, gamma: float) -> bool:
    """One step of the hysteresis automaton; True means the feedback branch.

    V <= 1 - gamma selects feedback, V >= 1 - gamma/2 the constant drive,
    and inside the open band between them the mode is kept.
    """
    if v <= 1.0 - gamma:
        return True
    if v >= 1.0 - gamma / 2:
        return False
    return feedback


@st.composite
def hysteresis_runs(draw):
    """(gamma, V, modes0): a (steps, M) batch of V sequences that contains
    both band edges exactly, and M random initial modes."""
    gamma = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    edges = [1.0 - gamma, 1.0 - gamma / 2]
    steps, m = draw(st.integers(2, 30)), draw(st.integers(1, 8))
    v = draw(arrays(np.float64, (steps, m),
                    elements=st.one_of(st.sampled_from(edges),
                                       st.floats(0.0, 1.0))))
    cells = draw(st.lists(st.tuples(st.integers(0, steps - 1),
                                    st.integers(0, m - 1)),
                          min_size=2, max_size=2, unique=True))
    for edge, cell in zip(edges, cells):
        v[cell] = edge
    return gamma, v, draw(arrays(np.bool_, m))


@settings(deadline=None)
@given(hysteresis_runs())
def test_switch_modes_steps_like_the_scalar_automaton(run):
    gamma, v, modes = run
    want = modes.tolist()
    for row in v:
        modes = switch_modes(modes, row, gamma)
        want = [reference_mode(w, x, gamma) for w, x in zip(want, row.tolist())]
        assert modes.tolist() == want


@st.composite
def initial_modes(draw):
    """(ops, rho0, f, gamma): a random state and target, with gamma drawn at
    random, or so that V(rho0) sits exactly on the lower band edge 1 - gamma,
    strictly inside the band or exactly on its upper edge 1 - gamma/2."""
    ops, rho0, _ = draw(spin_states(batched=False))
    f = draw(st.integers(1, ops.dim))
    v = distance_V(rho0, f)
    where = draw(st.sampled_from(["random", "lower", "inside", "upper"]))
    if where == "random":
        gamma = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        gamma = {"lower": 1.0, "inside": 1.5, "upper": 2.0}[where] * (1.0 - v)
        edge = {"lower": 1.0 - gamma, "upper": 1.0 - gamma / 2}.get(where, v)
        assume(gamma > 0.0 and edge == v)
    return ops, rho0, f, gamma


@settings(deadline=None)
@given(initial_modes())
def test_first_switch_picks_feedback_iff_v0_at_most_one_minus_gamma(case):
    ops, rho0, f, gamma = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gamma >= 1/N is fine
        ctrl = new_controller(gamma, f, ops)
    rec = simulate_batch(rho0, ctrl, 1e-3, SdeStepConfig(), 0, [0])[0]
    feedback = distance_V(rho0, f) <= 1.0 - gamma
    assert rec.modes[0] == ("feedback" if feedback else "constant")
    # the gain of the real form Re rho0 + Im rho0 that the loop steps
    stepped = rho0.real + rho0.imag
    assert rec.u[0] == (feedback_gain(stepped, f, ops) if feedback else 1.0)


@st.composite
def real_states(draw):
    """(ops, rho, batch): a real symmetric unit-trace PSD state, or a stack
    of them, from a real factor G as (G G^T + 1e-12 I) / trace."""
    ops = OPS[draw(st.sampled_from(sorted(OPS)))]
    batch = draw(st.one_of(st.none(), st.integers(1, 4)))
    shape = (ops.dim, ops.dim) if batch is None else (batch, ops.dim, ops.dim)
    g = draw(arrays(np.float64, shape, elements=_entries))
    m = g @ g.swapaxes(-1, -2) + 1e-12 * np.eye(ops.dim)
    m = m / np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    return ops, 0.5 * (m + m.swapaxes(-1, -2)), batch


@settings(deadline=None)
@given(real_states(), st.data())
def test_real_state_steps_in_float64_like_the_complex_one(case, data):
    ops, m, batch = case
    shape = () if batch is None else (batch,)
    u = data.draw(arrays(np.float64, shape,
                         elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    dw = data.draw(arrays(np.float64, shape, elements=st.floats(
        -0.2, 0.2, allow_subnormal=False)))
    cfg = SdeStepConfig(dt=1e-3, eta=data.draw(st.floats(0.05, 1.0)))
    step = _split_step(cfg, ops)
    out = step(m, u, dw)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, step(m.astype(complex), u, dw), rtol=0,
                               atol=1e-13)

    # A traceless symmetric kick, so that the projection clips eigenvalues.
    p = data.draw(arrays(np.float64, m.shape, elements=st.floats(
        -0.3, 0.3, allow_subnormal=False)))
    p = 0.5 * (p + p.swapaxes(-1, -2))
    p -= (np.trace(p, axis1=-2, axis2=-1)[..., None, None] / ops.dim
          * np.eye(ops.dim))
    kicked = _clip_psd(m + p)
    assert kicked.dtype == np.float64
    np.testing.assert_array_equal(kicked, kicked.swapaxes(-1, -2))
    np.testing.assert_allclose(kicked, _clip_psd((m + p).astype(complex)),
                               rtol=0, atol=1e-13)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(sorted(OPS)), st.integers(0, 2**32 - 1))
def test_complex_state_is_recorded_in_complex128(J, seed):
    # every state the loop steps, each recorded as the state sum of a run
    # of one member, and every state of the averaged flow
    ops = OPS[J]
    rho0 = random_density(ops.dim, np.random.default_rng(seed))
    ctrl = new_controller(0.5 / ops.dim, ops.dim, ops)
    stepped = dynamics._integrate_batch(rho0, ctrl, 0.01, SdeStepConfig(),
                                        seed, [0, 1], sum_chunk=1).state_sum
    traj = integrate_ensemble(rho0, ConstantInput(1.0, ops.dim, ops), 0.05,
                              1e-2)
    assert stepped.shape == (11, 2, ops.dim, ops.dim)
    assert traj.states.dtype == np.complex128
    for state in [*stepped[1:].reshape(-1, ops.dim, ops.dim),
                  *traj.states[1:]]:
        assert state.dtype == np.complex128 and state.imag.any()
        np.testing.assert_array_equal(state, _dag(state))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40),
       st.one_of(st.integers(1, 50), st.just(sys.maxsize)))
def test_record_grid_is_every_stride_th_step_and_the_last(n_steps, stride):
    ops, cfg = OPS[0.5], SdeStepConfig()
    rec, = simulate_batch(eigenstate(ops, 1), ConstantInput(1.0, 2, ops),
                          n_steps * cfg.dt, cfg, 0, [0], record_stride=stride)
    ks = list(range(0, n_steps + 1, stride))
    if ks[-1] != n_steps:
        ks.append(n_steps)
    np.testing.assert_array_equal(rec.times, [cfg.dt * k for k in ks])
    assert len(rec.V) == len(rec.u) == len(rec.modes) == len(ks)


_MART_CFG = SdeStepConfig(dt=1e-4)

# Gauss-Hermite nodes and weights of the standard normal law.
_GH_X, _GH_W = np.polynomial.hermite_e.hermegauss(20)
_GH_W = _GH_W / _GH_W.sum()


@st.composite
def feedback_states(draw):
    """(ops, rho, ctrl): an interior state in the feedback region
    V <= 1 - gamma of a switching law with gamma in (0, 1/N), mixed from a
    random state and the target eigenstate."""
    ops, m, _ = draw(spin_states(batched=False))
    f = draw(st.integers(1, ops.dim))
    w = draw(st.floats(0.0, 0.99))
    rho = (1.0 - w) * m + w * np.asarray(eigenstate(ops, f))
    rho = 0.5 * (rho + _dag(rho))
    ctrl = ControllerState(draw(st.floats(1e-3, 0.999)) / ops.dim, f, ops)
    assume(distance_V(rho, f) <= 1.0 - ctrl.gamma)
    return ops, rho, ctrl


@settings(deadline=None)
@given(feedback_states())
def test_v_is_a_supermartingale_in_feedback_mode(case):
    """Under the law of the measured increment that the state itself
    implies, dy ~ N(2 lam_k dt, dt) with probability rho_kk, the filter
    is Bayes' rule, so its mean is the state dephased, whose (f, f) entry
    is rho_ff; the rotation then moves rho_ff by u^2 dt e^(-dt/2) to first
    order, and by at most (2 J u dt)^n / n! at order n, as |F_y| = J. So
    the step's mean change of V, taken by Gauss-Hermite quadrature per
    component, is -u^2 dt up to u^2 dt^2 (1/2 + 2 J^2 e^(2 J |u| dt)): V
    decreases on average at the rate u^2, and never increases."""
    ops, rho, ctrl = case
    dt, n = _MART_CFG.dt, ops.dim
    v0 = distance_V(rho, ctrl.f)
    feedback, u = _control_step(ctrl, False, v0, rho)
    assert feedback
    p = rho.diagonal().real
    lam = ops.lambdas
    # the step's dw is dy less its own drift 2 Tr(F_z rho) dt
    dw = (2 * (lam - p @ lam) * dt)[:, None] + np.sqrt(dt) * _GH_X
    out = _split_step(_MART_CFG, ops)(
        np.broadcast_to(rho, (dw.size, n, n)), np.full(dw.size, u),
        dw.ravel())
    mean_dv = np.outer(p, _GH_W).ravel() @ distance_V(out, ctrl.f) - v0
    assert mean_dv <= 1e-15
    rotation = 2 * ops.J**2 * np.exp(2 * ops.J * abs(u) * dt)
    bound = u**2 * dt**2 * (0.5 + rotation)
    assert abs(mean_dv + u**2 * dt) <= bound + 1e-15


_u_values = st.floats(-5.0, 5.0, allow_subnormal=False)


@settings(deadline=None, max_examples=50)
@given(st.one_of(spin_states(), real_states()), st.data())
def test_drift_over_random_u_is_traceless_and_rowwise(case, data):
    ops, m, batch = case
    u = data.draw(arrays(np.float64, () if batch is None else (batch,),
                         elements=_u_values))
    for k in range(1, ops.dim + 1):
        assert not sme_drift(eigenstate(ops, k), 0.0, ops).any()
    d = sme_drift(m, u, ops)
    assert d.dtype == m.dtype
    np.testing.assert_allclose(np.trace(d, axis1=-2, axis2=-1), 0.0, rtol=0,
                               atol=1e-13)
    for i in range(batch or 0):
        np.testing.assert_array_equal(d[i], sme_drift(m[i], u[i], ops))


def _unitary(n, complex_, rng):
    """A random orthogonal (real) or unitary (complex) n x n matrix."""
    g = rng.normal(size=(n, n))
    if complex_:
        g = g + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(g)[0]


@st.composite
def projection_inputs(draw, ops=None, complex_=None):
    """(ops, mat): a single real symmetric or complex Hermitian matrix of one
    of four kinds. Full-rank: positive eigenvalues in [0.1, 1]. Near-singular:
    eigenvalues log-uniform down to 10**-e, e up to 12. Rank-deficient: a
    measurement eigenstate or a random pure state. Indefinite: eigenvalues
    in [-1, 1] with at least one positive and one negative. ``ops`` and
    ``complex_`` are drawn unless given."""
    if ops is None:
        ops = OPS[draw(st.sampled_from(sorted(OPS)))]
    if complex_ is None:
        complex_ = draw(st.booleans())
    n = ops.dim
    kind = draw(st.sampled_from(["full", "near-singular", "eigenstate",
                                 "pure", "indefinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "eigenstate":
        mat = np.zeros((n, n), dtype=complex if complex_ else float)
        k = draw(st.integers(0, n - 1))
        mat[k, k] = 1.0
        return ops, mat
    if kind == "pure":
        psi = _unitary(n, complex_, rng)[:, 0]
        return ops, np.outer(psi, psi.conj())
    if kind == "full":
        w = rng.uniform(0.1, 1.0, n)
    elif kind == "near-singular":
        w = 10.0 ** rng.uniform(-draw(st.floats(1.0, 12.0)), 0.0, n)
        w[0] = 10.0 ** -draw(st.floats(1.0, 12.0))
    else:
        w = rng.uniform(-1.0, 1.0, n)
        w[:2] = 0.5, -0.5
    v = _unitary(n, complex_, rng)
    mat = (v * w) @ _dag(v)
    return ops, 0.5 * (mat + _dag(mat))


@settings(deadline=None, max_examples=150)
@given(projection_inputs())
def test_projection_equals_the_eigh_oracle(case):
    _, mat = case
    out = _clip_psd(mat)
    assert out.dtype == mat.dtype
    np.testing.assert_allclose(out, clip_psd_eigh(mat), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(out, _dag(out))
    assert abs(np.trace(out) - 1.0) <= 1e-14
    assert np.linalg.eigvalsh(out).min() >= -1e-12


@st.composite
def projection_batches(draw):
    """A (B, N, N) stack, B from 1 to 4, of ``projection_inputs`` matrices
    that share N and dtype."""
    ops = OPS[draw(st.sampled_from(sorted(OPS)))]
    complex_ = draw(st.booleans())
    cases = draw(st.lists(projection_inputs(ops, complex_), min_size=1,
                          max_size=4))
    return np.stack([mat for _, mat in cases])


@settings(deadline=None, max_examples=80)
@given(st.one_of(projection_batches(),
                 projection_inputs().map(lambda case: case[1])))
def test_batched_projection_is_the_eigh_oracle_bit_for_bit(batch):
    # a single matrix takes the batch's one eigh path
    out = _clip_psd(batch)
    assert out.dtype == batch.dtype
    np.testing.assert_array_equal(out, clip_psd_eigh(batch))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0.5, 1, 1.5, 2, 2.5]), st.booleans(),
       st.floats(-50.0, 50.0, allow_subnormal=False),
       st.floats(1e-4, 0.5), st.integers(0, 2**32 - 1))
@example(J=1, complex_=False, u=37.0, dt=0.4296875, seed=452069043)
def test_one_step_is_the_dense_expm_step(J, complex_, u, dt, seed):
    ops = make_spin_operators(J)
    rho = random_density(ops.dim, np.random.default_rng(seed))
    if not complex_:
        rho = np.ascontiguousarray(rho.real)
    out = integrate_ensemble(rho, ConstantInput(u, 1, ops), dt, dt).states
    assert out.dtype == rho.dtype
    np.testing.assert_allclose(
        out, expm_states(rho, u, dt, 1, ops, unit_norm=True), rtol=0,
        atol=1e-13)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]),
       st.floats(-50.0, 50.0, allow_subnormal=False))
# -1/4 is a double, defective eigenvalue there: the dense eigvals split it
# by +/-7.3e-9 i at J = 1/2 and +/-7.5e-9 i at J = 1
@example(J=0.5, u=0.25)
@example(J=1, u=0.25)
def test_rank_block_spectrum_is_the_dense_blocks_spectrum(J, u):
    # rank k holds 2k + 1 eigenvalues, k + 1 symmetric and k antisymmetric.
    # Eigenvalues of both lists chained within sqrt(tol) of each other are
    # one cluster: round-off splits a defective eigenvalue by its square
    # root, so only a cluster's count and sum are well-conditioned. Each
    # cluster holds as many of one list as of the other, with sums equal
    # within round-off of the spectrum's scale
    ops = make_spin_operators(J)
    dense = np.linalg.eigvals(dense_generator(u, ops))
    blocks = dynamics._rank_blocks(u, ops, dynamics._rank_basis(ops))
    ranks = np.concatenate([np.linalg.eigvals(blocks[part, k][lo:k + 1,
                                                              lo:k + 1])
                            for part, lo in ((0, 0), (1, 1))
                            for k in range(ops.dim)])
    assert len(ranks) == len(dense) == ops.dim ** 2
    tol = 1e-9 * (ops.gaps_sq.max() + 2 * J * abs(u))
    both = np.concatenate([dense, ranks])
    _, cluster = connected_components(
        np.abs(both[:, None] - both) <= np.sqrt(tol))
    is_dense = np.arange(len(both)) < len(dense)
    for c in np.unique(cluster):
        d, r = (cluster == c) & is_dense, (cluster == c) & ~is_dense
        assert d.sum() == r.sum()
        assert abs(both[d].sum() - both[r].sum()) <= tol
    # L_k + L_k^T = -diag(q^2) inside each block, and zero outside it
    q = np.arange(ops.dim)
    sym = blocks + blocks.swapaxes(-1, -2)
    inside = (q <= q[:, None]) & (q >= np.arange(2)[:, None, None])
    want = -np.eye(ops.dim) * np.where(inside, q ** 2, 0)[..., None, :]
    np.testing.assert_allclose(sym, want, rtol=0, atol=tol)
