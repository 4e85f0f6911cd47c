"""Closed-loop state-space tests, anchored by the static limit at omega = 0."""

import numpy as np
import pytest

from nopanet import (
    NopaParams,
    PassiveNetwork,
    build_a1,
    build_closed_loop,
    eigenvalues,
    kron,
    nopa_response,
    single_nopa_transfer,
    stability,
    static_coefficients,
    static_transfer,
    transfer,
)
from nopanet.errors import PoleError, WellPosednessError
from nopanet.network import GAMMA_R_REF, K_REF
from nopanet.static_limit import elimination_matrix
from tests.test_network import random_unitary


def open_loop_network():
    """A feedthrough-only single-NOPA network (S22 = 0)."""
    s = np.zeros((4, 4), dtype=complex)
    s[0, 2] = s[1, 3] = s[2, 0] = s[3, 1] = 1.0
    return PassiveNetwork.from_complex(s)


class TestBuildA1:
    def test_pump_off_is_pure_decay(self):
        p = NopaParams(epsilon=0.0, gamma=1.0, kappa=0.2)
        assert np.allclose(build_a1(p), -0.6 * np.eye(4))

    def test_eigenvalues_split_by_pump(self):
        p = NopaParams(epsilon=0.4, gamma=1.0, kappa=0.0)
        evs = np.sort(eigenvalues(build_a1(p)).real)
        assert evs == pytest.approx([-0.7, -0.7, -0.3, -0.3])

    def test_determinant_is_squared_coupling_gap(self):
        # det(A1) = (1/16) (eps^2 - (gamma+kappa)^2)^2, nonzero off resonance
        p = NopaParams(epsilon=0.4, gamma=1.0, kappa=0.1)
        expected = ((p.epsilon**2 - (p.gamma + p.kappa) ** 2) ** 2) / 16.0
        assert np.linalg.det(build_a1(p)) == pytest.approx(expected, rel=1e-12)
        assert expected != 0.0


class TestBuildClosedLoop:
    def test_open_loop_reduces_to_single_nopa(self):
        p = NopaParams.from_normalized(0.3, 1.0)
        ss = build_closed_loop(p, open_loop_network())
        assert np.allclose(ss.a, build_a1(p))
        blocks = open_loop_network().blocks
        assert np.allclose(ss.d[:, :4], blocks.s11 + blocks.s12 @ blocks.s21)

    def test_cfb2_is_hurwitz(self):
        p = NopaParams.from_normalized(0.1, 1.0)
        ss = build_closed_loop(p, PassiveNetwork.cfb(2))
        assert np.max(eigenvalues(ss.a).real) < 0

    def test_matches_literal_formula(self):
        p = NopaParams.from_normalized(0.2, 0.8, big_k=0.01)
        for n in (2, 3, 5):
            net = PassiveNetwork.cfb(n)
            ss = build_closed_loop(p, net)
            s22 = net.blocks.s22
            literal = kron(np.eye(n), build_a1(p)) - p.gamma * np.linalg.inv(
                np.eye(4 * n) - s22
            ) @ s22
            assert np.max(np.abs(ss.a - literal)) < 1e-12 * p.gamma

    def test_ill_posed_network_raises(self):
        # in_a_1 <- out_a_1 is a unit-gain algebraic loop: I - S22 singular
        s = np.zeros((4, 4), dtype=complex)
        s[0, 0] = s[1, 1] = 1.0
        s[2, 2] = s[3, 3] = 1.0
        net = PassiveNetwork.from_complex(s)
        with pytest.raises(WellPosednessError):
            build_closed_loop(NopaParams.from_normalized(0.1, 1.0), net)

    def test_dimensions(self):
        p = NopaParams.from_normalized(0.1, 1.0)
        ss = build_closed_loop(p, PassiveNetwork.cfb(3))
        assert ss.a.shape == (12, 12)
        assert ss.b.shape == (12, 16)
        assert ss.c.shape == (4, 12)
        assert ss.d.shape == (4, 16)


class TestStability:
    def test_pump_off_always_stable(self):
        rng = np.random.default_rng(31)
        p = NopaParams(epsilon=0.0, gamma=GAMMA_R_REF, kappa=0.0)
        for dim in (6, 8):
            net = PassiveNetwork.from_complex(random_unitary(rng, dim))
            report = stability(p, net)
            assert report.stable

    def test_cfb2_reference_point(self):
        report = stability(NopaParams.from_normalized(0.1, 1.0), PassiveNetwork.cfb(2))
        assert report.stable
        assert report.spectral_abscissa < 0
        assert len(report.eigenvalues) == 8

    def test_cfb2_threshold_crossing(self):
        # the 2-NOPA chain at y=1 destabilizes near x = sqrt(2) - 1
        net = PassiveNetwork.cfb(2)
        assert stability(NopaParams.from_normalized(0.40, 1.0), net).stable
        assert not stability(NopaParams.from_normalized(0.43, 1.0), net).stable


class TestTransfer:
    def test_high_frequency_limit_is_feedthrough(self):
        p = NopaParams.from_normalized(0.1, 1.0)
        ss = build_closed_loop(p, PassiveNetwork.cfb(2))
        omega = 1e6 * p.gamma
        h = transfer(ss, omega)
        bound = 2.0 * np.linalg.norm(ss.c) * np.linalg.norm(ss.b) / omega
        assert np.max(np.abs(h - ss.d)) < bound

    def test_single_nopa_matches_static_formula_at_zero(self):
        p = NopaParams.from_normalized(0.5, 1.0)
        ss = build_closed_loop(p, open_loop_network())
        h0 = transfer(ss, 0.0)
        expected = single_nopa_transfer(static_coefficients(0.5, 1.0))
        assert np.max(np.abs(h0 - expected)) < 1e-12

    def test_single_nopa_matches_coefficients_off_zero(self):
        p = NopaParams.from_normalized(0.5, 1.0)
        ss = build_closed_loop(p, open_loop_network())
        omega = p.gamma / 2.0
        h = transfer(ss, omega)
        fr = nopa_response(p, omega)
        r = np.diag([1.0, -1.0])
        i2 = np.eye(2)
        expected = np.block(
            [
                [fr.h1 * i2, fr.h2 * r, fr.h3 * i2, fr.h4 * r],
                [fr.h2 * r, fr.h1 * i2, fr.h4 * r, fr.h3 * i2],
            ]
        )
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_first_order_variation_near_zero(self):
        # the response varies at first order in omega/gamma near omega = 0
        p = NopaParams.from_normalized(0.1, 1.0)
        for n in (2, 4):
            ss = build_closed_loop(p, PassiveNetwork.cfb(n))
            h0 = transfer(ss, 0.0)
            d1 = np.max(np.abs(transfer(ss, 1e-6 * p.gamma) - h0))
            d2 = np.max(np.abs(transfer(ss, 1e-7 * p.gamma) - h0))
            assert d1 < 1e-4 * np.max(np.abs(h0))
            assert d1 / d2 == pytest.approx(10.0, rel=1e-2)

    def test_passive_lossless_is_unitary(self):
        p = NopaParams(epsilon=0.0, gamma=GAMMA_R_REF, kappa=0.0)
        for n in (2, 3):
            ss = build_closed_loop(p, PassiveNetwork.cfb(n))
            for omega in (0.0, 0.3 * p.gamma, 2.0 * p.gamma):
                h = transfer(ss, omega)[:, :4]
                assert np.max(np.abs(h @ h.conj().T - np.eye(4))) < 1e-10

    def test_matches_static_transfer_at_zero(self):
        for n in (2, 3, 4, 5, 6):
            p = NopaParams.from_normalized(0.1, 1.0)
            ss = build_closed_loop(p, PassiveNetwork.cfb(n))
            h0 = transfer(ss, 0.0)
            st = static_transfer(static_coefficients(0.1, 1.0), PassiveNetwork.cfb(n))
            assert np.max(np.abs(h0 - st.h_n)) < 1e-9


class TestNopaResponse:
    def test_passive_reflection(self):
        p = NopaParams(epsilon=0.0, gamma=1.0, kappa=0.0)
        fr = nopa_response(p, 0.0)
        assert fr.h1 == pytest.approx(-1.0)
        assert fr.h2 == fr.h3 == fr.h4 == 0.0

    def test_static_limit_values(self):
        for x in (0.0, 0.05, 0.3, 0.7):
            for y in (0.5, 0.9, 1.0):
                for big_k in (0.0, K_REF, 0.3):
                    fr = nopa_response(NopaParams.from_normalized(x, y, big_k), 0.0)
                    c = static_coefficients(x, y, big_k)
                    for h, h_static in zip(
                        (fr.h1, fr.h2, fr.h3, fr.h4), (c.h1, c.h2, c.h3, c.h4)
                    ):
                        assert h.real == pytest.approx(h_static, rel=1e-12, abs=1e-15)
                        assert h.imag == 0.0

    def test_lossless_symplectic_identity_at_zero(self):
        fr = nopa_response(NopaParams.from_normalized(0.4, 1.0), 0.0)
        assert fr.h1**2 - fr.h2**2 == pytest.approx(1.0, rel=1e-12)
        assert fr.h3 == fr.h4 == 0.0

    def test_gain_rolloff(self):
        p = NopaParams.from_normalized(0.5, 1.0)
        at_zero = nopa_response(p, 0.0)
        at_gamma = nopa_response(p, p.gamma)
        assert abs(at_gamma.h1) < abs(at_zero.h1)
        assert abs(at_gamma.h2) < abs(at_zero.h2)

    def test_pole_detection(self):
        # epsilon = gamma + kappa puts the zero-frequency response on a pole
        with pytest.raises(PoleError):
            nopa_response(NopaParams(epsilon=1.0, gamma=1.0, kappa=0.0), 0.0)


class TestStabilityImpliesInvertibility:
    def test_stability_implies_static_invertibility(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 7))
            x = float(rng.uniform(0.01, 0.4))
            y = float(rng.uniform(0.5, 1.0))
            net = PassiveNetwork.cfb(n)
            if not stability(NopaParams.from_normalized(x, y), net).stable:
                continue
            q = elimination_matrix(static_coefficients(x, y), net)
            assert abs(np.linalg.det(q)) > 0.0
            checked += 1
