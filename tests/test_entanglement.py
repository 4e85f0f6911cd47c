"""Squeezing-variance tests against hand-computed single-chain values."""

import math
import tracemalloc

import numpy as np
import pytest

from nopanet import (
    NopaParams,
    PassiveNetwork,
    build_closed_loop,
    closed_form,
    extract_uv,
    optimal_thetas,
    single_nopa_transfer,
    squeezing,
    squeezing_spectrum,
    stability,
    static_coefficients,
    static_transfer,
    transfer,
    vanishing_search,
)
from nopanet.entanglement import SHOT_NOISE_TOTAL, SPECTRUM_CHUNK, _variances
from nopanet.errors import DimensionError, StabilityError
from nopanet.network import GAMMA_R_REF, K_REF
from nopanet.oracles import random_unitary
from tests.test_dynamics import family_cases, family_system, full_stack_transfer
from tests.test_linalg import lapack_calls  # noqa: F401 (a fixture)


class TestSqueezing:
    def test_vacuum_passthrough(self):
        r = squeezing(np.eye(4))
        assert r.v_plus == pytest.approx(2.0)
        assert r.v_minus == pytest.approx(2.0)
        assert r.v_total == pytest.approx(SHOT_NOISE_TOTAL)
        assert not r.entangled

    def test_vacuum_phase_invariant(self):
        for ta, tb in [(0.3, -1.1), (math.pi, 0.0), (1.0, 1.0)]:
            r = squeezing(np.eye(4), ta, tb)
            assert r.v_total == pytest.approx(SHOT_NOISE_TOTAL)

    def test_single_nopa_antisqueezing_at_zero_phase(self):
        # x = 1/2, y = 1: h1 = -5/3, h2 = -4/3.  At ta = tb = 0 each
        # quadrature pair sees V = 2 (h1 + h2)^2 = 2 * 9 = 18.
        h = single_nopa_transfer(static_coefficients(0.5, 1.0))
        r = squeezing(h, 0.0, 0.0)
        assert r.v_plus == pytest.approx(18.0, rel=1e-12)
        assert r.v_minus == pytest.approx(18.0, rel=1e-12)
        assert not r.entangled

    def test_single_nopa_squeezing_at_pi_sum(self):
        # at ta + tb = pi: V+ = V- = 2 (h1 - h2)^2 = 2/9, total 4/9
        h = single_nopa_transfer(static_coefficients(0.5, 1.0))
        r = squeezing(h, math.pi / 2, math.pi / 2)
        assert r.v_total == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert r.entangled

    def test_phase_sum_law(self):
        # for the chain, V depends on theta_a + theta_b only
        st = static_transfer(static_coefficients(0.1, 1.0), PassiveNetwork.cfb(2))
        u, v = extract_uv(st)
        rng = np.random.default_rng(71)
        for _ in range(20):
            ta, tb = rng.uniform(-math.pi, math.pi, size=2)
            r = squeezing(st.h_n, ta, tb)
            expected = 2.0 * (u**2 + v**2 + 2.0 * u * v * math.cos(ta + tb))
            assert r.v_plus == pytest.approx(expected, abs=1e-10)
            assert r.v_minus == pytest.approx(expected, abs=1e-10)

    def test_plus_equals_minus_for_chain(self):
        st = static_transfer(static_coefficients(0.2, 0.9), PassiveNetwork.cfb(3))
        r = squeezing(st.h_n, 0.4, -0.9)
        assert abs(r.v_plus - r.v_minus) < 1e-12

    def test_strict_threshold(self):
        r = squeezing(np.eye(4) / math.sqrt(2))
        assert r.v_total == pytest.approx(2.0)
        assert r.entangled
        assert not squeezing(np.eye(4)).entangled

    def test_rejects_wrong_rows(self):
        with pytest.raises(DimensionError):
            squeezing(np.eye(6))


class TestSqueezingSpectrum:
    def test_pump_off_is_shot_noise_everywhere(self):
        p = NopaParams.from_normalized(0.0, 1.0)
        ss = build_closed_loop(p, PassiveNetwork.cfb(2))
        omegas = np.linspace(0.0, 3.0 * p.gamma, 7)
        # exactly at shot noise; the strict verdict is float-marginal here
        for r in squeezing_spectrum(ss, omegas):
            assert r.v_total == pytest.approx(SHOT_NOISE_TOTAL, abs=1e-10)

    def test_zero_frequency_matches_closed_form(self):
        x, y, n = 0.1, 1.0, 3
        p = NopaParams.from_normalized(x, y)
        ss = build_closed_loop(p, PassiveNetwork.cfb(n))
        result = closed_form(static_coefficients(x, y), n)
        ta, tb = optimal_thetas(result)[0]
        (r,) = squeezing_spectrum(ss, [0.0], ta, tb)
        assert r.v_total == pytest.approx(2.0 * result.v_opt, rel=1e-9)

    def test_entanglement_degrades_with_frequency(self):
        x, y, n = 0.1, 1.0, 2
        p = NopaParams.from_normalized(x, y)
        ss = build_closed_loop(p, PassiveNetwork.cfb(n))
        ta, tb = optimal_thetas(closed_form(static_coefficients(x, y), n))[0]
        omegas = np.linspace(0.0, 0.5 * p.gamma, 9)
        totals = [r.v_total for r in squeezing_spectrum(ss, omegas, ta, tb)]
        assert totals == sorted(totals)
        assert totals[0] < SHOT_NOISE_TOTAL

    def test_unstable_system_rejected(self):
        p = NopaParams.from_normalized(0.6, 1.0)
        ss = build_closed_loop(p, PassiveNetwork.cfb(2))
        with pytest.raises(StabilityError):
            squeezing_spectrum(ss, [0.0])

    def test_matches_per_frequency_squeezing(self):
        # the loop over transfer + squeezing is the reference; the grid spans
        # several batches and ends inside one
        for big_k in (0.0, 0.05):
            p = NopaParams.from_normalized(0.08, 0.9, big_k)
            ss = build_closed_loop(p, PassiveNetwork.cfb(4))
            omegas = np.linspace(0.0, 3.0 * p.gamma, 2 * SPECTRUM_CHUNK + 7)
            batched = squeezing_spectrum(ss, omegas, 1.1, 1.9)
            assert len(batched) == len(omegas)
            for w, r in zip(omegas, batched):
                ref = squeezing(transfer(ss, w), 1.1, 1.9, omega=float(w))
                assert r.omega == ref.omega
                assert (r.theta_a, r.theta_b) == (ref.theta_a, ref.theta_b)
                assert r.v_plus == pytest.approx(ref.v_plus, rel=1e-13)
                assert r.v_minus == pytest.approx(ref.v_minus, rel=1e-13)
                assert r.v_total == pytest.approx(ref.v_total, rel=1e-13)
                assert r.entangled == ref.entangled

    def test_empty_grid(self):
        ss = build_closed_loop(NopaParams.from_normalized(0.1, 1.0), PassiveNetwork.cfb(2))
        assert squeezing_spectrum(ss, []) == []

    def test_records_omega_and_thetas(self):
        p = NopaParams.from_normalized(0.1, 1.0)
        ss = build_closed_loop(p, PassiveNetwork.cfb(2))
        (r,) = squeezing_spectrum(ss, [0.5 * p.gamma], 0.2, 0.3)
        assert r.omega == pytest.approx(0.5 * p.gamma)
        assert (r.theta_a, r.theta_b) == (0.2, 0.3)


def answers(ss, omegas):
    """True when ``squeezing_spectrum`` answers, False when it raises ``StabilityError``."""
    try:
        squeezing_spectrum(ss, omegas)
    except StabilityError:
        return False
    return True


class TestHurwitzVerdict:
    """``squeezing_spectrum`` takes its verdict from ``stability``: on the chain from its poles,
    with no eigenvalue call, and on any other network from the dense spectrum of A."""

    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("fraction", [0.999, 1.001])
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 64])
    def test_chain_at_its_lossless_bound(self, n, fraction, big_k, lapack_calls):
        # x past 1 for one NOPA: the parameters are written out rather than normalized
        epsilon = fraction * math.tan(math.pi / (4 * n)) * GAMMA_R_REF
        p = NopaParams(epsilon=epsilon, gamma=GAMMA_R_REF, kappa=big_k * epsilon)
        net = PassiveNetwork.cfb(n)
        ss = build_closed_loop(p, net)
        omegas = [0.0, 0.3 * p.gamma]
        lapack_calls.clear()
        answered = answers(ss, omegas)
        assert answered == stability(p, net).stable
        # unstable only lossless past the bound; the loss shifts every pole left
        assert answered == (fraction < 1.0 or big_k > 0.0)
        assert set(lapack_calls) <= {("solve", (2, 2 * n, 2 * n))}

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 64])
    def test_chain_at_its_lossless_margin(self, n, ulps, lapack_calls):
        # epsilon = tan(pi/4N) gamma, and one ulp either side: a pole sits at 0 up to
        # rounding, so the verdict is whatever ``stability`` reads there
        epsilon = math.tan(math.pi / (4 * n)) * GAMMA_R_REF
        epsilon = np.nextafter(epsilon, ulps * math.inf) if ulps else epsilon
        p = NopaParams(epsilon=float(epsilon), gamma=GAMMA_R_REF, kappa=0.0)
        net = PassiveNetwork.cfb(n)
        ss = build_closed_loop(p, net)
        lapack_calls.clear()
        assert answers(ss, [0.3 * p.gamma, p.gamma]) == stability(p, net).stable
        assert set(lapack_calls) <= {("solve", (2, 2 * n, 2 * n))}
        # a grid through the pole is refused either way: by the verdict or by the resolvent
        assert not answers(ss, [0.0, 0.3 * p.gamma])

    @pytest.mark.parametrize("seed", range(8))
    def test_custom_network_matches_the_dense_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        net = PassiveNetwork.from_complex(random_unitary(rng, 2 * n + 2))
        verdicts = set()
        for x in (0.02, 0.1, 0.3, 0.6):
            p = NopaParams.from_normalized(x, 1.0, 0.05 * (seed % 2))
            ss = build_closed_loop(p, net)
            want = bool(np.max(np.linalg.eigvals(ss.a).real) < 0)
            assert answers(ss, [0.0, 0.5 * p.gamma]) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_grid_shape_is_checked_before_the_verdict(self, lapack_calls):
        # an unstable loop with a 2-d grid is a bad input first
        p = NopaParams.from_normalized(0.6, 1.0)
        for net in (PassiveNetwork.cfb(2), PassiveNetwork.from_complex(random_unitary(np.random.default_rng(7), 6))):
            ss = build_closed_loop(p, net)
            lapack_calls.clear()
            with pytest.raises(DimensionError):
                squeezing_spectrum(ss, [[0.0, 1.0]])
            assert lapack_calls == []


class TestSpectrumFromTheShiftedFamily:
    """``squeezing_spectrum`` through the shifted family gives the bits of the whole stack."""

    @pytest.mark.parametrize("points", [0, 1, 7, 130])
    @pytest.mark.parametrize("n, big_k, seed", family_cases())
    def test_matches_the_full_stack_bit_for_bit(self, n, big_k, seed, points):
        p, net = family_system(n, big_k, seed)
        ss = build_closed_loop(p, net)
        omegas = np.linspace(0.0, 3.0 * p.gamma, points)
        got = np.array([(r.v_plus, r.v_minus) for r in squeezing_spectrum(ss, omegas, 0.4, -1.3)])
        want = np.empty((points, 2))
        for start in range(0, points, SPECTRUM_CHUNK):
            part = slice(start, start + SPECTRUM_CHUNK)
            want[part] = _variances(full_stack_transfer(ss, omegas[part]), 0.4, -1.3)
        assert got.reshape(-1, 2).tobytes() == want.tobytes()


def spectrum_peak_bytes(n, big_k, points):
    """tracemalloc peak of one squeezing spectrum of the chain at half its bound (numpy reports
    its buffers to tracemalloc)."""
    p = NopaParams.from_normalized(0.5 * math.tan(math.pi / (4 * n)), 1.0, big_k)
    ss = build_closed_loop(p, PassiveNetwork.cfb(n))
    omegas = np.linspace(0.0, 3.0 * p.gamma, points)
    squeezing_spectrum(ss, omegas[:2])  # caches filled before the trace
    tracemalloc.start()
    try:
        squeezing_spectrum(ss, omegas)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSpectrumMemory:
    """The family solve writes only the q half's family, a byte budget of it at a time."""

    def test_short_chain_over_a_long_grid(self):
        # the whole 4N-order stack of one 64-frequency batch alone was 1.33 MB here
        assert spectrum_peak_bytes(9, 0.0, 1024) <= 1.2e6

    def test_long_lossy_chain(self):
        # 64 whole resolvents of order 400 were 164 MB; 64 q halves would be 41 MB
        assert spectrum_peak_bytes(100, K_REF, 64) <= 16e6


def brute_force_minimum(h, points=64):
    """Least V+ + V- of ``squeezing`` over a points x points grid of phases."""
    psis = -math.pi + 2.0 * math.pi * np.arange(points) / points
    return min(squeezing(h, a, b).v_total for a in psis for b in psis)


def reference_transfers():
    """Real, complex, lossy and finite-frequency 4-row transfers."""
    rng = np.random.default_rng(41)
    hs = [rng.normal(size=(4, k)) for k in (4, 8, 12)]
    hs += [rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k)) for k in (4, 8, 12)]
    hs.append(static_transfer(static_coefficients(0.05, 1.0, 0.0276), PassiveNetwork.cfb(4)).h_n)
    p = NopaParams.from_normalized(0.08, 0.9, 0.05)
    hs.append(transfer(build_closed_loop(p, PassiveNetwork.cfb(3)), 0.7 * p.gamma))
    return hs


class TestVanishingSearch:
    def test_vacuum_stays_at_shot_noise(self):
        res = vanishing_search(np.eye(4))
        assert res.v_total == SHOT_NOISE_TOTAL
        assert res.vanished is True
        assert (res.psi1, res.psi2) == (0.0, 0.0)

    def test_uncorrelated_amplifier_vanished(self):
        res = vanishing_search(2.0 * np.eye(4))
        assert res.vanished is True
        assert res.v_total == 16.0

    def test_single_nopa_minimum(self):
        h = single_nopa_transfer(static_coefficients(0.5, 1.0))
        res = vanishing_search(h)
        assert not res.vanished
        assert res.v_total == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert math.cos(res.psi1 + res.psi2) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_direct_squeezing_at_reported_phases(self):
        st = static_transfer(static_coefficients(0.15, 1.0), PassiveNetwork.cfb(3))
        res = vanishing_search(st.h_n)
        assert squeezing(st.h_n, res.psi1, res.psi2).v_total == res.v_total

    def test_finds_closed_form_optimum(self):
        x, y, n = 0.1, 1.0, 4
        st = static_transfer(static_coefficients(x, y), PassiveNetwork.cfb(n))
        result = closed_form(static_coefficients(x, y), n)
        res = vanishing_search(st.h_n)
        assert res.v_total == pytest.approx(2.0 * result.v_opt, rel=1e-12)
        assert (res.psi1, res.psi2) == optimal_thetas(result)[0]

    @pytest.mark.parametrize("index", range(8))
    def test_no_phase_pair_beats_it(self, index):
        h = reference_transfers()[index]
        res = vanishing_search(h)
        assert res.v_total == squeezing(h, res.psi1, res.psi2).v_total
        assert res.vanished == (not res.v_total < SHOT_NOISE_TOTAL)
        assert brute_force_minimum(h) >= res.v_total * (1.0 - 1e-12)

    @pytest.mark.parametrize("index", range(8))
    def test_depends_on_the_phase_sum_only(self, index):
        h = reference_transfers()[index]
        res = vanishing_search(h)
        for delta in (-2.0, 0.3, 1.7):
            shifted = squeezing(h, res.psi1 + delta, res.psi2 - delta).v_total
            assert shifted == pytest.approx(res.v_total, rel=1e-12)

    def test_rejects_wrong_rows(self):
        with pytest.raises(DimensionError):
            vanishing_search(np.eye(6))
