"""Tests for the switching law, its hysteresis and the feedback gain."""

import numpy as np
import pytest

from helpers import random_density
from spinstab.controller import (ConstantInput, ControllerState, feedback_gain,
                                 new_controller, switch_modes)
from spinstab.dynamics import SdeStepConfig, _control_step, simulate_batch
from spinstab.quantum import (QuantumState, distance_V, eigenstate,
                              make_spin_operators)


def diag_state(n, f, v):
    """Diagonal state with target weight 1 - v spread over the rest."""
    d = np.full(n, v / (n - 1))
    d[f - 1] = 1.0 - v
    return QuantumState(np.diag(d).astype(complex))


def first_record(ctrl, rho0):
    """The record of a one-step closed-loop run from ``rho0``: entry 0 of its
    ``modes`` and ``u`` is what the loop's first switch chose."""
    return simulate_batch(rho0, ctrl, 1e-3, SdeStepConfig(), 0, [0])[0]


class TestFeedbackGain:
    def test_zero_for_diagonal_states(self):
        ops = make_spin_operators(1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.dirichlet(np.ones(3))
            rho = QuantumState(np.diag(d).astype(complex))
            for f in (1, 2, 3):
                assert feedback_gain(rho, f, ops) == 0.0

    def test_hand_computed_two_level_case(self):
        # i[F_y, rho] for rho = [[.5,.5],[.5,.5]] is diag(-1/2, 1/2),
        # so the gain at f=2 is -0.5; cross-checked by a brute-force oracle.
        ops = make_spin_operators(0.5)
        rho = QuantumState(np.full((2, 2), 0.5, dtype=complex))
        comm = 1j * (ops.f_y @ np.asarray(rho) - np.asarray(rho) @ ops.f_y)
        np.testing.assert_allclose(comm, np.diag([-0.5, 0.5]), atol=1e-15)
        oracle = -np.trace(comm @ np.asarray(eigenstate(ops, 2))).real
        assert oracle == pytest.approx(-0.5, abs=1e-15)
        assert feedback_gain(rho, 2, ops) == pytest.approx(oracle, abs=1e-15)

    def test_zero_at_target(self):
        for J, f in ((0.5, 2), (1, 3), (10, 11)):
            ops = make_spin_operators(J)
            assert feedback_gain(eigenstate(ops, f), f, ops) == 0.0

    def test_real_and_bounded_on_random_states(self):
        rng = np.random.default_rng(42)
        for J in (0.5, 1, 2):
            ops = make_spin_operators(J)
            bound = 2 * np.linalg.norm(ops.f_y)
            for _ in range(100):
                rho = random_density(ops.dim, rng)
                f = int(rng.integers(1, ops.dim + 1))
                m = np.asarray(rho)
                comm = 1j * (ops.f_y @ m - m @ ops.f_y)
                assert np.abs(np.imag(np.diag(comm))).max() < 1e-14
                u = feedback_gain(rho, f, ops)
                oracle = -np.trace(comm @ np.asarray(eigenstate(ops, f))).real
                assert u == pytest.approx(oracle, abs=1e-13)
                assert abs(u) <= bound + 1e-12

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(1)
        ops = make_spin_operators(1)
        batch = np.stack([np.asarray(random_density(3, rng)) for _ in range(8)])
        gains = feedback_gain(batch, 2, ops)
        for j in range(8):
            assert gains[j] == pytest.approx(
                feedback_gain(batch[j], 2, ops), abs=1e-15)


class TestSwitchLaw:
    def setup_method(self):
        self.ops = make_spin_operators(1)
        self.gamma = 0.2  # boundaries at V = 0.8 and V = 0.9
        self.ctrl = new_controller(self.gamma, 3, self.ops)

    def test_at_target_feedback_and_zero_input(self):
        target = eigenstate(self.ops, 3)
        feedback, u = _control_step(self.ctrl, False, distance_V(target, 3),
                                    target)
        assert feedback
        assert u == 0.0

    def test_far_region_constant_drive(self):
        far = eigenstate(self.ops, 1)
        feedback, u = _control_step(self.ctrl, True, distance_V(far, 3), far)
        assert not feedback
        assert u == 1.0

    def test_band_keeps_previous_mode(self):
        inside = diag_state(3, 3, 0.85)  # strictly inside (0.8, 0.9)
        for mode in (True, False):
            feedback, u = _control_step(self.ctrl, mode,
                                        distance_V(inside, 3), inside)
            assert feedback == mode
            assert u == (0.0 if mode else 1.0)

    def test_boundaries_are_closed(self):
        # V exactly 1-gamma selects feedback; V exactly 1-gamma/2 constant.
        gamma = 0.25
        ctrl = new_controller(gamma, 3, self.ops)
        low = diag_state(3, 3, 1 - gamma)        # V = 0.75
        high = diag_state(3, 3, 1 - gamma / 2)   # V = 0.875
        for mode in (True, False):
            feedback, _ = _control_step(ctrl, mode, distance_V(low, 3), low)
            assert feedback
            feedback, _ = _control_step(ctrl, mode, distance_V(high, 3), high)
            assert not feedback

    def test_determinism(self):
        rng = np.random.default_rng(3)
        rho = random_density(3, rng)
        out1 = _control_step(self.ctrl, False, distance_V(rho, 3), rho)
        out2 = _control_step(self.ctrl, False, distance_V(rho, 3), rho)
        assert out1[0] == out2[0]
        assert out1[1] == out2[1]

    def test_scripted_hysteresis_path(self):
        """Drive the controller through the band and check every branch."""
        seq = [
            # (V, expected mode is feedback?, expected u is feedback-gain?)
            (0.95, False, False),  # far region
            (0.85, False, False),  # entered band from above: latched
            (0.89, False, False),  # still in band
            (0.79, True, True),    # crossed the lower boundary
            (0.85, True, True),    # re-entered band from below: latched
            (0.88, True, True),    # oscillating inside the band
            (0.82, True, True),
            (0.90, False, False),  # reached the upper boundary
            (0.85, False, False),  # band again, now latched constant
        ]
        feedback = False
        for v, want_mode, want_feedback in seq:
            rho = diag_state(3, 3, v)
            feedback, u = _control_step(self.ctrl, feedback,
                                        distance_V(rho, 3), rho)
            assert feedback == want_mode, f"at V={v}"
            # scripted states are diagonal, so the feedback gain is 0
            assert u == (0.0 if want_feedback else 1.0), f"at V={v}"

    def test_switch_modes_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        v = rng.uniform(0, 1, size=200)
        prev = rng.integers(0, 2, size=200).astype(bool)
        vec = switch_modes(prev, v, self.gamma)
        for j in range(200):
            assert vec[j] == bool(switch_modes(prev[j], v[j], self.gamma))


class TestNewController:
    def setup_method(self):
        self.ops = make_spin_operators(10)

    def test_gamma_inside_guaranteed_range(self):
        # 0.04 < 1/21: accepted without warning
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("error")
            ctrl = new_controller(0.04, 11, self.ops)
        assert first_record(ctrl, eigenstate(self.ops, 1)).modes[0] == "constant"

    def test_gamma_outside_guaranteed_range_warns(self):
        with pytest.warns(UserWarning, match="outside"):
            new_controller(0.4, 11, self.ops)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            new_controller(0.0, 11, self.ops)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            new_controller(gamma, 11, self.ops)

    def test_initial_mode_from_initial_state(self):
        ops = make_spin_operators(1)
        ctrl = new_controller(0.1, 3, ops)
        assert first_record(ctrl, eigenstate(ops, 3)).modes[0] == "feedback"
        assert first_record(ctrl, eigenstate(ops, 1)).modes[0] == "constant"

    def test_initial_state_inside_band_gets_constant_drive(self):
        ops = make_spin_operators(1)
        inside = diag_state(3, 3, 0.93)  # band for gamma=0.1 is (0.9, 0.95)
        rec = first_record(new_controller(0.1, 3, ops), inside)
        assert rec.modes[0] == "constant"
        assert rec.u[0] == 1.0

    def test_bad_target_index(self):
        with pytest.raises(ValueError, match="index"):
            new_controller(0.04, 22, self.ops)

    def test_malformed_initial_state_rejected(self):
        # The integrator checks its initial state on entry; the controller
        # takes no state.
        ops = make_spin_operators(1)
        ctrl = new_controller(0.1, 3, ops)
        for bad in (np.ones(3), np.eye(4) / 4):
            with pytest.raises(ValueError, match="N x N with N = 3"):
                simulate_batch(bad, ctrl, 1e-3, SdeStepConfig(), 0, [0])

    def test_initial_state_argument_is_not_read(self):
        ops = make_spin_operators(1)
        assert new_controller(0.1, 3, ops, np.ones(3)) == new_controller(
            0.1, 3, ops)


class TestControlValues:
    """Each control value checks its own fields when it is built."""

    ops3 = make_spin_operators(1)

    @pytest.mark.parametrize("args, text", [
        ((np.nan, 3), "gamma must be finite"),
        ((0.1, 9), r"1\.\.3, got 9"),
    ])
    def test_controller_state_checks_itself(self, args, text):
        with pytest.raises(ValueError, match=text):
            ControllerState(*args, self.ops3)

    @pytest.mark.parametrize("args, text", [
        ((np.nan, 3), "u must be finite"),
        ((np.inf, 3), "u must be finite"),
        ((1.0, 99), r"1\.\.3, got 99"),
        ((1.0, 0), r"1\.\.3, got 0"),
    ])
    def test_constant_input_checks_itself(self, args, text):
        with pytest.raises(ValueError, match=text):
            ConstantInput(*args, self.ops3)

    def test_constant_run_never_consults_the_switching_law(self, monkeypatch):
        import spinstab.dynamics as dyn

        def must_not_run(*a, **k):
            raise AssertionError("switching law consulted")

        monkeypatch.setattr(dyn, "switch_modes", must_not_run)
        monkeypatch.setattr(dyn, "feedback_gain", must_not_run)
        rec, = simulate_batch(eigenstate(self.ops3, 1),
                              ConstantInput(0.5, 3, self.ops3), 0.01,
                              SdeStepConfig(), 0, [0])
        assert np.all(rec.u == 0.5) and set(rec.modes) == {"constant"}
