"""Static-limit tests: transfer assembly, the chain's cascade against the dense elimination,
the L-pattern algebra, u/v extraction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nopanet import (
    NopaParams,
    PassiveNetwork,
    extract_uv,
    is_l2_matrix,
    oracles,
    random_l2_matrix,
    stability,
    static_coefficients,
    static_limit,
    static_transfer,
)
from nopanet.errors import PoleError, StructureError, WellPosednessError
from nopanet.linalg import inverse
from nopanet.network import K_REF
from nopanet.static_limit import R, _blockwise, _eliminated_transfer, elimination_matrix, w_blocks
from tests.test_linalg import lapack_calls  # noqa: F401 (a fixture)
from tests.test_network import random_unitary


def oracle_p(coeffs, net):
    """P_N, the full inverse of the elimination matrix."""
    return inverse(elimination_matrix(coeffs, net))


def oracle_h(coeffs, net):
    """The static transfer from P_N and the dense I (x) W factors, term by term."""
    n = net.n_nopas
    s11, s12, s21, s22 = net.blocks
    w12, w34 = w_blocks(coeffs)
    wi, wl = np.kron(np.eye(n), w12), np.kron(np.eye(n), w34)
    s12_wi_p = s12 @ wi @ oracle_p(coeffs, net)
    return np.hstack([s11 + s12_wi_p @ s21, (s12 + s12_wi_p @ s22) @ wl])


def relative_gap(h, ref):
    return np.max(np.abs(h - ref)) / np.max(np.abs(ref))


class TestStaticCoefficients:
    def test_pump_off_edge(self):
        c = static_coefficients(0.0, 1.0)
        assert c.h1 == -1.0
        assert c.h2 == c.h3 == c.h4 == 0.0

    def test_half_pump(self):
        c = static_coefficients(0.5, 1.0)
        assert c.h1 == pytest.approx(-5.0 / 3.0, rel=1e-15)
        assert c.h2 == pytest.approx(-4.0 / 3.0, rel=1e-15)
        assert c.h1**2 - c.h2**2 == pytest.approx(1.0, rel=1e-12)

    def test_tenth_pump(self):
        c = static_coefficients(0.1, 1.0)
        assert c.h1 == pytest.approx(-101.0 / 99.0, rel=1e-15)
        assert c.h2 == pytest.approx(-20.0 / 99.0, rel=1e-15)

    def test_lossless_identity_on_grid(self):
        for x in (0.05, 0.2, 0.6, 0.9):
            for y in (0.5, 0.8, 1.0):
                c = static_coefficients(x, y)
                assert c.h1**2 - c.h2**2 == pytest.approx(1.0, rel=1e-12)
                assert c.h3 == c.h4 == 0.0

    def test_lossy_coefficients_nonzero(self):
        c = static_coefficients(0.5, 1.0, big_k=0.05)
        assert c.h3 != 0.0
        assert c.h4 != 0.0

    def test_pole_at_lossless_threshold(self):
        with pytest.raises(PoleError):
            static_coefficients(1.0, 1.0, big_k=0.0)

    @pytest.mark.parametrize("x,y,k", [(-0.1, 1.0, 0.0), (0.5, 1.2, 0.0), (0.5, 1.0, -1.0)])
    def test_rejects_bad_parameters(self, x, y, k):
        with pytest.raises(ValueError):
            static_coefficients(x, y, k)

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_non_finite_k_rejected_as_from_normalized(self, k):
        # NaN coefficients would pass on to a false verdict downstream
        with pytest.raises(ValueError) as ours:
            static_coefficients(0.1, 1.0, k)
        with pytest.raises(ValueError) as params:
            NopaParams.from_normalized(0.1, 1.0, k)
        assert str(ours.value) == str(params.value)


class TestStaticTransfer:
    def test_no_gain_chain_is_signed_permutation(self):
        c = static_coefficients(0.0, 1.0)
        st = static_transfer(c, PassiveNetwork.cfb(3))
        direct = st.h_n[:, :4]
        assert np.allclose(np.abs(direct) @ np.ones(4), np.ones(4))
        assert set(np.round(np.unique(direct), 12)) <= {-1.0, 0.0, 1.0}
        assert not st.h_n[:, 4:].any()

    def test_two_nopa_reference_values(self):
        st = static_transfer(static_coefficients(0.1, 1.0), PassiveNetwork.cfb(2))
        u, v = extract_uv(st)
        assert u == pytest.approx(10201.0 / 9401.0, rel=1e-12)
        assert v == pytest.approx(-3960.0 / 9401.0, rel=1e-12)

    def test_elimination_residual(self):
        c = static_coefficients(0.2, 1.0)
        net = PassiveNetwork.cfb(4)
        q = elimination_matrix(c, net)
        assert np.max(np.abs(oracle_p(c, net) @ q - np.eye(16))) < 1e-10

    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("n, x", [(2, 0.1), (4, 0.2), (10, 0.05), (64, 0.004)])
    def test_chain_matches_inverse_route(self, n, x, big_k):
        c = static_coefficients(x, 1.0, big_k)
        net = PassiveNetwork.cfb(n)
        assert relative_gap(static_transfer(c, net).h_n, oracle_h(c, net)) < 1e-13

    def test_custom_networks_match_inverse_route(self):
        rng = np.random.default_rng(71)
        for _ in range(12):
            n = int(rng.integers(1, 7))
            net = PassiveNetwork.from_complex(random_unitary(rng, 2 * (n + 1)))
            x, big_k = float(rng.uniform(0.01, 0.5)), float(rng.choice([0.0, K_REF]))
            c = static_coefficients(x, 1.0, big_k)
            assert relative_gap(static_transfer(c, net).h_n, oracle_h(c, net)) < 1e-13

    def test_loss_columns_present_and_populated(self):
        c = static_coefficients(0.2, 1.0, big_k=0.05)
        st = static_transfer(c, PassiveNetwork.cfb(2))
        assert st.h_n.shape == (4, 12)
        assert st.h_n[:, 4:].any()

    def test_chain_zero_structure(self):
        for n in (2, 3, 5):
            st = static_transfer(static_coefficients(0.15, 1.0), PassiveNetwork.cfb(n))
            direct = st.h_n[:, :4]
            pattern_zero = [(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)]
            for i, j in pattern_zero:
                assert abs(direct[i, j]) < 1e-10

    def test_marginal_system_is_singular(self):
        # at the 2-NOPA threshold x = sqrt(2) - 1 the static loop has h2 = -1
        # and the elimination matrix is exactly singular
        import math

        with pytest.raises(WellPosednessError):
            static_transfer(
                static_coefficients(math.sqrt(2.0) - 1.0, 1.0), PassiveNetwork.cfb(2)
            )

    def test_w_blocks_shape(self):
        c = static_coefficients(0.5, 1.0, big_k=0.1)
        w12, w34 = w_blocks(c)
        expected_w12 = np.block(
            [[c.h1 * np.eye(2), c.h2 * R], [c.h2 * R, c.h1 * np.eye(2)]]
        )
        assert np.array_equal(w12, expected_w12)
        assert w34[0, 0] == c.h3
        assert w34[0, 2] == c.h4


class TestChainCascade:
    """``static_transfer`` on the chain writes H from its two-port cascade; the dense
    elimination (``oracle_h``, ``_eliminated_transfer``) is its oracle."""

    @pytest.mark.parametrize("big_k", [0.0, K_REF, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 128, 400])
    def test_matches_dense_elimination(self, n, big_k):
        net = PassiveNetwork.cfb(n)
        for fraction in (0.0, 0.5, 0.9, 0.999):
            c = static_coefficients(fraction * math.tan(math.pi / (4 * n)), 1.0, big_k)
            assert relative_gap(static_transfer(c, net).h_n, oracle_h(c, net)) <= 1e-12, fraction

    @pytest.mark.parametrize("n", [3, 7])
    def test_h1_zero(self, n):
        # k^2 = 1 + r^2 makes h1 vanish; the cascade never divides by it
        c = static_coefficients(0.5, 1.0, math.sqrt(5.0))
        assert abs(c.h1) < 1e-15
        net = PassiveNetwork.cfb(n)
        assert relative_gap(static_transfer(c, net).h_n, oracle_h(c, net)) <= 1e-12

    def test_one_nopa_has_no_loop_to_be_singular(self):
        # E is the identity for one NOPA, however large its coefficients
        c = static_coefficients(1.0 - 1e-7, 1.0)
        net = PassiveNetwork.cfb(1)
        assert relative_gap(static_transfer(c, net).h_n, oracle_h(c, net)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_lossless_pole_is_singular(self, n):
        coeffs = static_coefficients(math.tan(math.pi / (4 * n)), 1.0)
        with pytest.raises(WellPosednessError):
            static_transfer(coeffs, PassiveNetwork.cfb(n))

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_same_verdict_as_dense_toward_the_pole(self, n):
        net = PassiveNetwork.cfb(n)
        pole = math.tan(math.pi / (4 * n))
        for side in (-1.0, 1.0):
            answered = []  # at relative distances 1e-1 .. 1e-16 from the pole
            for digits in range(1, 17):
                c = static_coefficients(pole * (1.0 + side * 10.0**-digits), 1.0)
                verdicts = []
                for route in (static_transfer, _eliminated_transfer):
                    try:
                        route(c, net)
                        verdicts.append(True)
                    except WellPosednessError:
                        verdicts.append(False)
                assert verdicts[0] == verdicts[1], (side, digits)
                answered.append(verdicts[0])
            # answered far from the pole, singular at it, and one switch between
            assert all(answered[:10]) and not answered[-1], side
            assert answered == sorted(answered, reverse=True), side

    @pytest.mark.parametrize("n", [2, 10, 128])
    def test_no_lapack_call_and_no_elimination_matrix(self, n, lapack_calls, monkeypatch):
        def refuse(*args):
            raise AssertionError("the chain formed its elimination matrix")

        monkeypatch.setattr(static_limit, "elimination_matrix", refuse)
        coeffs = static_coefficients(0.5 * math.tan(math.pi / (4 * n)), 1.0, K_REF)
        st = static_transfer(coeffs, PassiveNetwork.cfb(n))
        assert lapack_calls == [] and st.h_n.shape == (4, 4 + 4 * n)

    def test_custom_network_takes_one_solve(self, lapack_calls):
        n = 3
        net = PassiveNetwork.from_complex(random_unitary(np.random.default_rng(5), 2 * (n + 1)))
        lapack_calls.clear()
        static_transfer(static_coefficients(0.05, 1.0, K_REF), net)
        assert lapack_calls == [("solve", (4 * n, 4 * n))]


class TestEliminationMatrix:
    """E is written over the product S22 (I (x) W12), with the bytes of I - S22 (I (x) W12)."""

    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize(
        "net",
        [PassiveNetwork.cfb(n) for n in (1, 16, 64, 128)]
        + [PassiveNetwork.from_complex(random_unitary(np.random.default_rng(n), 2 * (n + 1))) for n in (1, 5, 16)],
        ids=["cfb1", "cfb16", "cfb64", "cfb128", "unitary1", "unitary5", "unitary16"],
    )
    def test_bytes_of_the_formula(self, net, big_k):
        coeffs = static_coefficients(0.05, 0.8, big_k)
        e = elimination_matrix(coeffs, net)
        want = np.eye(4 * net.n_nopas) - _blockwise(net.blocks.s22, w_blocks(coeffs)[0])
        assert e.dtype == want.dtype and e.shape == want.shape
        assert e.tobytes() == want.tobytes()


class TestIsL2Matrix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity(self, n):
        assert is_l2_matrix(np.eye(4 * n))

    def test_chain_elimination_matrix(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            x = float(rng.uniform(0.02, 0.3))
            y = float(rng.uniform(0.5, 1.0))
            q = elimination_matrix(static_coefficients(x, y), PassiveNetwork.cfb(3))
            assert is_l2_matrix(q)

    def test_random_dense_fails(self):
        rng = np.random.default_rng(43)
        assert not is_l2_matrix(rng.normal(size=(8, 8)))

    def test_broken_symmetry_fails(self):
        a = np.eye(8)
        a[0, 0] = 2.0  # breaks central symmetry against block (4, 4)
        assert not is_l2_matrix(a)

    def test_wrong_dims_fail(self):
        assert not is_l2_matrix(np.eye(6))
        assert not is_l2_matrix(np.ones((8, 4)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fails(self, value):
        assert not is_l2_matrix(np.full((4, 4), value))
        a = np.eye(8)
        a[1, 1] = value  # one entry, which the other blocks would not see
        assert not is_l2_matrix(a)


class TestL2Closure:
    def test_product_closure(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            e = random_l2_matrix(n, rng)
            f = random_l2_matrix(n, rng)
            assert is_l2_matrix(e @ f, tol=1e-9)

    def test_inverse_closure(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            e = random_l2_matrix(n, rng, max_cond=1e6)
            assert is_l2_matrix(np.linalg.inv(e), tol=1e-8)

    def test_generator_emits_members(self):
        rng = np.random.default_rng(59)
        for n in (1, 2, 4):
            assert is_l2_matrix(random_l2_matrix(n, rng), tol=1e-12)


class TestExtractUv:
    def test_pump_off_alternating_sign(self):
        for n in (2, 3, 4, 5):
            st = static_transfer(static_coefficients(0.0, 1.0), PassiveNetwork.cfb(n))
            u, v = extract_uv(st)
            assert u == pytest.approx((-1.0) ** n, abs=1e-12)
            assert v == pytest.approx(0.0, abs=1e-12)

    def test_elimination_corner_entries(self):
        for n in (2, 3, 4, 6):
            p_n = oracle_p(static_coefficients(0.1, 1.0), PassiveNetwork.cfb(n))
            assert p_n[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert p_n[4 * n - 2, 0] == pytest.approx(0.0, abs=1e-12)

    def test_non_chain_topology_rejected(self):
        rng = np.random.default_rng(61)
        net = PassiveNetwork.from_complex(random_unitary(rng, 6))
        st = static_transfer(static_coefficients(0.05, 1.0), net)
        with pytest.raises(StructureError):
            extract_uv(st)

    def test_lossy_transfer_rejected(self):
        st = static_transfer(static_coefficients(0.1, 1.0, big_k=0.05), PassiveNetwork.cfb(2))
        with pytest.raises(StructureError):
            extract_uv(st)

    @pytest.mark.parametrize("n", [2, 10, 40])
    def test_one_column_from_one_solve(self, n, lapack_calls, monkeypatch):
        coeffs = static_coefficients(0.5 * math.tan(math.pi / (4 * n)), 1.0)
        st = static_transfer(coeffs, PassiveNetwork.cfb(n))
        columns = []
        solve = oracles.solve
        monkeypatch.setattr(oracles, "solve", lambda *a: columns.append(solve(*a)) or columns[-1])
        lapack_calls.clear()
        extract_uv(st)
        assert lapack_calls == [("solve", (4 * n, 4 * n))]
        # u_p and v_p as the whole inverse gave them
        ((p,),) = (c.T for c in columns)
        whole = np.linalg.inv(elimination_matrix(coeffs, PassiveNetwork.cfb(n)))[:, 0]
        for rows in ((4 * n - 4, 4 * n - 2), (2, 0)):
            got, want = (coeffs.h1 * c[rows[0]] + coeffs.h2 * c[rows[1]] for c in (p, whole))
            assert abs(got - want) <= 1e-14 * abs(want)


class TestLossyStabilityInvertibility:
    def test_stable_implies_invertible_with_losses(self):
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 7))
            x = float(rng.uniform(0.01, 0.4))
            y = float(rng.uniform(0.5, 1.0))
            big_k = float(rng.uniform(0.0, 0.1))
            params = NopaParams.from_normalized(x, y, big_k)
            net = PassiveNetwork.cfb(n)
            if not stability(params, net).stable:
                continue
            q = elimination_matrix(static_coefficients(x, y, big_k), net)
            assert abs(np.linalg.det(q)) > 0.0
            checked += 1


class TestExactRationalAnchor:
    def test_two_nopa_closed_values_are_rational(self):
        # exact rational evaluation at x = 1/10, y = 1
        h1 = Fraction(-101, 99)
        h2 = Fraction(-20, 99)
        denom = 1 - h2**2
        u = h1**2 / denom
        v = h2 + h1**2 * h2 / denom
        assert u == Fraction(10201, 9401)
        assert v == Fraction(-3960, 9401)
        assert u + v == Fraction(6241, 9401)
        assert 6241 == 79**2
        st = static_transfer(static_coefficients(0.1, 1.0), PassiveNetwork.cfb(2))
        u_f, v_f = extract_uv(st)
        assert u_f == pytest.approx(float(u), rel=1e-13)
        assert v_f == pytest.approx(float(v), rel=1e-13)
