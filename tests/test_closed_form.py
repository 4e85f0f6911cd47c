"""Closed-form chain optimum: recurrences, determinant route, optimality."""

import math

import numpy as np
import pytest

from nopanet import (
    PassiveNetwork,
    closed_form,
    determinant_path,
    extract_uv,
    optimal_thetas,
    recurrences,
    squeezing,
    static_coefficients,
    static_transfer,
)
from nopanet.closed_form import (
    THETA_INDIFFERENT,
    THETA_SUM_PI,
    THETA_SUM_ZERO,
    _closed_determinants,
    t1_matrix,
    t2_matrix,
    t3_matrix,
)
from nopanet.errors import DegenerateRecurrenceError
from nopanet.static_limit import elimination_matrix


class TestRecurrences:
    def test_two_step_is_initial(self):
        rec = recurrences(static_coefficients(0.3, 1.0), 2)
        assert rec.m_last == 0.0
        assert rec.n_last == 1.0
        assert rec.n_prod == 1.0

    def test_three_step_hand_values(self):
        c = static_coefficients(0.3, 1.0)
        rec = recurrences(c, 3)
        assert rec.m_last == pytest.approx(-c.h1 * c.h2, rel=1e-14)
        assert rec.n_last == pytest.approx(1.0 - c.h2**2, rel=1e-14)
        assert rec.n_prod == 1.0

    def test_four_step_hand_values(self):
        c = static_coefficients(0.2, 1.0)
        h1, h2 = c.h1, c.h2
        rec = recurrences(c, 4)
        m2, n2 = -h1 * h2, 1.0 - h2**2
        assert rec.m_last == pytest.approx(-h1 * h2 + h1**2 * m2 / n2, rel=1e-13)
        assert rec.n_last == pytest.approx(1.0 - h2**2 + h1 * h2 * m2 / n2, rel=1e-13)
        assert rec.n_prod == pytest.approx(n2, rel=1e-14)

    def test_pump_off_fixed_point(self):
        rec = recurrences(static_coefficients(0.0, 1.0), 6)
        assert rec.m_last == 0.0
        assert rec.n_last == 1.0
        assert rec.n_prod == 1.0

    def test_requires_chain_of_two(self):
        with pytest.raises(ValueError):
            recurrences(static_coefficients(0.3, 1.0), 1)

    def test_rejects_lossy(self):
        with pytest.raises(ValueError):
            recurrences(static_coefficients(0.3, 1.0, big_k=0.1), 2)


class TestClosedForm:
    def test_pump_off_is_indifferent_shot_noise(self):
        for n in (2, 3, 5):
            r = closed_form(static_coefficients(0.0, 1.0), n)
            assert r.u == pytest.approx((-1.0) ** n, abs=1e-14)
            assert r.v == pytest.approx(0.0, abs=1e-14)
            assert r.theta_class == THETA_INDIFFERENT
            assert r.v_opt == pytest.approx(2.0, abs=1e-13)

    def test_two_nopa_reference(self):
        r = closed_form(static_coefficients(0.1, 1.0), 2)
        assert r.u == pytest.approx(10201.0 / 9401.0, rel=1e-13)
        assert r.v == pytest.approx(-3960.0 / 9401.0, rel=1e-13)
        assert r.upsilon < 0
        assert r.theta_class == THETA_SUM_ZERO
        assert r.v_opt == pytest.approx(2.0 * (6241.0 / 9401.0) ** 2, rel=1e-12)

    def test_theta_class_switches_with_upsilon_sign(self):
        seen = set()
        for n in range(2, 9):
            r = closed_form(static_coefficients(0.05, 1.0), n)
            seen.add(r.theta_class)
            if r.upsilon > 0:
                assert r.theta_class == THETA_SUM_PI
            elif r.upsilon < 0:
                assert r.theta_class == THETA_SUM_ZERO
        assert THETA_SUM_ZERO in seen

    def test_v_opt_is_folded_difference(self):
        for n in (2, 3, 4, 6):
            r = closed_form(static_coefficients(0.08, 0.9), n)
            assert r.v_opt == pytest.approx(2.0 * (abs(r.u) - abs(r.v)) ** 2, rel=1e-12)

    def test_pumped_stable_chain_beats_shot_noise(self):
        for n in (2, 3, 4):
            r = closed_form(static_coefficients(0.1, 1.0), n)
            assert r.v_opt < 2.0

    def test_matches_matrix_oracle(self):
        for n in range(2, 8):
            c = static_coefficients(0.07, 0.95)
            r = closed_form(c, n)
            u_m, v_m = extract_uv(static_transfer(c, PassiveNetwork.cfb(n)))
            assert r.u == pytest.approx(u_m, rel=1e-10, abs=1e-10)
            assert r.v == pytest.approx(v_m, rel=1e-10, abs=1e-10)

    def test_optimal_thetas_achieve_v_opt(self):
        for n in (2, 3, 5):
            c = static_coefficients(0.1, 1.0)
            r = closed_form(c, n)
            st = static_transfer(c, PassiveNetwork.cfb(n))
            ta, tb = optimal_thetas(r)[0]
            s = squeezing(st.h_n, ta, tb)
            assert s.v_plus == pytest.approx(r.v_opt, rel=1e-10)
            assert s.v_minus == pytest.approx(r.v_opt, rel=1e-10)

    def test_optimality_over_phase_sweep(self):
        c = static_coefficients(0.12, 1.0)
        for n in (2, 4):
            r = closed_form(c, n)
            st = static_transfer(c, PassiveNetwork.cfb(n))
            sums = np.linspace(-math.pi, math.pi, 73)
            best = min(squeezing(st.h_n, s, 0.0).v_plus for s in sums)
            assert r.v_opt <= best + 1e-10
            assert best == pytest.approx(r.v_opt, rel=1e-6)


class TestDeterminantPath:
    def test_two_nopa_assembled_matrices(self):
        c = static_coefficients(0.1, 1.0)
        assert t1_matrix(c, 2).shape == (8, 8)
        assert t2_matrix(c, 2).shape == (8, 8)
        assert t3_matrix(c, 2).shape == (8, 8)

    def test_two_nopa_closed_determinants(self):
        c = static_coefficients(0.1, 1.0)
        h1, h2 = c.h1, c.h2
        rec = recurrences(c, 2)
        det_t1, det_t2, det_t3 = _closed_determinants(c, 2, rec)
        denom = 1.0 - h2**2
        assert det_t1 == pytest.approx(h1 * h2 * denom, rel=1e-13)
        assert det_t2 == pytest.approx(h1 * denom, rel=1e-13)
        assert det_t3 == pytest.approx(denom**2, rel=1e-13)

    def test_matches_recurrence_route(self):
        for n in range(2, 9):
            c = static_coefficients(0.09, 1.0)
            u_d, v_d = determinant_path(c, n)
            r = closed_form(c, n)
            assert u_d == pytest.approx(r.u, rel=1e-10, abs=1e-10)
            assert v_d == pytest.approx(r.v, rel=1e-10, abs=1e-10)

    def test_matches_matrix_oracle(self):
        for n in (2, 3, 5, 7):
            c = static_coefficients(0.11, 0.85)
            u_d, v_d = determinant_path(c, n)
            u_m, v_m = extract_uv(static_transfer(c, PassiveNetwork.cfb(n)))
            assert u_d == pytest.approx(u_m, rel=1e-10, abs=1e-10)
            assert v_d == pytest.approx(v_m, rel=1e-10, abs=1e-10)

    def test_rejects_lossy(self):
        with pytest.raises(ValueError):
            determinant_path(static_coefficients(0.1, 1.0, big_k=0.1), 2)

    def test_rejects_single_nopa(self):
        with pytest.raises(ValueError):
            determinant_path(static_coefficients(0.1, 1.0), 1)


class TestAssembledMatricesComeFromTheNetwork:
    GRID = [
        (n, x, y)
        for n in range(2, 11)
        for x in (0.0, 0.02, 0.05, 0.1, 0.3)
        for y in (0.5, 1.0)
    ]

    def test_t3_is_the_chain_elimination_matrix(self):
        for n, x, y in self.GRID:
            c = static_coefficients(x, y)
            assert np.array_equal(t3_matrix(c, n), elimination_matrix(c, PassiveNetwork.cfb(n)))

    def test_t1_t2_are_first_row_minors(self):
        # det(T1), det(T2): T3 without row 1 and column 3, resp. column 4N-3
        for n, x, y in self.GRID:
            c = static_coefficients(x, y)
            t3 = elimination_matrix(c, PassiveNetwork.cfb(n))
            for t, col in ((t1_matrix(c, n), 2), (t2_matrix(c, n), 4 * n - 4)):
                minor = np.linalg.det(np.delete(np.delete(t3, 0, axis=0), col, axis=1))
                assert abs(np.linalg.det(t) - minor) <= 1e-12 * max(1.0, abs(minor))


class TestThreePathGrid:
    def test_all_routes_agree_on_parameter_grid(self):
        for x in (0.02, 0.06, 0.1):
            for y in (0.7, 1.0):
                for n in (2, 3, 4, 6):
                    c = static_coefficients(x, y)
                    r = closed_form(c, n)
                    u_d, v_d = determinant_path(c, n)
                    u_m, v_m = extract_uv(static_transfer(c, PassiveNetwork.cfb(n)))
                    scale = max(1.0, abs(r.u), abs(r.v))
                    assert abs(r.u - u_d) < 1e-9 * scale
                    assert abs(r.v - v_d) < 1e-9 * scale
                    assert abs(r.u - u_m) < 1e-9 * scale
                    assert abs(r.v - v_m) < 1e-9 * scale


class TestDegenerateGuard:
    def test_reports_step_when_denominator_vanishes(self):
        # h2^2 = 1 makes n_2 = 0 exactly: requires r^2 - (1)^2 = -2r i.e.
        # r = sqrt(2) - 1, the 2-NOPA threshold; the N=4 recurrence degenerates.
        x = math.sqrt(2.0) - 1.0
        c = static_coefficients(x, 1.0)
        assert c.h2**2 == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(DegenerateRecurrenceError):
            closed_form(c, 4)
