"""Closed-loop state-space tests, anchored by the static limit at omega = 0."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nopanet import (
    NopaParams,
    PassiveNetwork,
    build_a1,
    build_closed_loop,
    cfb_topology,
    dynamics,
    eigenvalues,
    linalg,
    nopa_response,
    single_nopa_transfer,
    squeezing_spectrum,
    stability,
    static_coefficients,
    static_transfer,
    transfer,
)
from nopanet.errors import (
    DimensionError,
    NopanetError,
    PoleError,
    SingularMatrixError,
    StabilityError,
    WellPosednessError,
)
from nopanet.network import GAMMA_R_REF, K_REF
from nopanet.static_limit import elimination_matrix
from tests.test_linalg import lapack_calls, nearest_match_gap, spectral_gap, stable_x  # noqa: F401 (a fixture)
from tests.test_network import random_permutation, random_unitary


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
            literal = np.kron(np.eye(n), build_a1(p)) - p.gamma * np.linalg.inv(
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


def acyclic_wiring(rng, n):
    """A random well-posed wiring network: its ports split into two paths, none into a cycle."""
    m = 2 * (n + 1)
    order = 2 + rng.permutation(2 * n)
    cut = int(rng.integers(0, 2 * n + 1))
    s = np.zeros((m, m), dtype=complex)
    exits = rng.permutation(2)
    for start, path, end in ((0, order[:cut], exits[0]), (1, order[cut:], exits[1])):
        stops = [start, *path]
        s[[*path, end], stops] = 1.0  # each stop's output is wired to the next stop's input
    return s


def literal_closed_loop(p, net):
    """A, B, C, D from the kron / np.linalg.inv formula, as the closed loop was first written."""
    n = net.n_nopas
    s11, s12, s21, s22 = net.blocks
    loop = np.linalg.inv(np.eye(4 * n) - s22)
    sg, sk = math.sqrt(p.gamma), math.sqrt(p.kappa)
    a = np.kron(np.eye(n), build_a1(p)) + p.gamma * (np.eye(4 * n) - loop)
    b = np.hstack([-sg * loop @ s21, -sk * np.eye(4 * n)])
    c = sg * s12 @ loop
    d = np.hstack([s11 + s12 @ loop @ s21, np.zeros((4, 4 * n))])
    return a, b, c, d


def neumann_loop(net):
    """sum_k S22^k, or None when S22 is not nilpotent (a closed cycle of wires).

    S22 has at most one 1 per row and column, and so has each of its powers:
    every sum is a count of paths, exact in floating point.
    """
    s22 = net.s_complex[2:, 2:].real
    total, power = np.eye(len(s22)), np.eye(len(s22))
    for _ in range(len(s22)):
        power = power @ s22
        if not power.any():
            return np.kron(total, np.eye(2))
        total += power
    return None


ILL_POSED = "closed loop is ill-posed: I - S22 is singular (matrix is singular: rcond = 0.000e+00 < 1e-14)"


def split_spectrum(a):
    """The chain's spectrum from the q half of its A, split at the reversal symmetry.

    ``stability``'s fallback on the chain and the oracle of its poles:
    X + Y J and X - Y J from the q half, in one call on a stack.
    """
    q = a[0::2, 0::2]
    m = q.shape[0] // 2
    x, yj = q[:m, :m], q[:m, m:][:, ::-1]
    return np.concatenate([eigenvalues(np.stack([x + yj, x - yj])).reshape(-1)] * 2)


def crossed_wiring():
    """NOPA 1's a output feeds NOPA 2's b port and NOPA 2's a output NOPA 1's b port: not the chain."""
    s = np.zeros((6, 6), dtype=complex)
    for row, col in [(2, 0), (4, 1), (5, 2), (1, 3), (3, 4), (0, 5)]:
        s[row, col] = 1.0
    return s


def reversed_chain(n):
    """The chain with its NOPAs numbered backwards: the same physics, another wiring."""
    order = np.concatenate([[0, 1], 2 + np.arange(2 * n).reshape(n, 2)[::-1].reshape(-1)])
    s = cfb_topology(n)
    return s[np.ix_(order, order)]


class TestWiringLoop:
    """A wiring network closes its loop with the bytes of the dense inverse: the chain's
    from its rails, every other one by inverting I - S22.  Every network but the chain
    takes its spectrum from that A; the chain solves its characteristic equation."""

    @staticmethod
    def check_wiring_route(s, big_k):
        net = PassiveNetwork.from_complex(s)
        assert net.wiring is not None
        p = NopaParams.from_normalized(0.002, 1.0, big_k)
        neumann = neumann_loop(net)
        if neumann is None:
            for route in (build_closed_loop, stability):
                with pytest.raises(WellPosednessError) as err:
                    route(p, net)
                assert str(err.value) == ILL_POSED
                assert isinstance(err.value.__cause__, SingularMatrixError)
                assert err.value.__cause__.rcond == 0.0 and err.value.__cause__.index is None
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(np.eye(4 * net.n_nopas) - net.blocks.s22)
            return False
        loop = dynamics._loop(net)
        assert loop.dtype == float and np.array_equal(loop, neumann)
        ss = build_closed_loop(p, net)
        literal = literal_closed_loop(p, net)
        for got, want in zip((ss.a, ss.b, ss.c, ss.d), literal):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        evs = stability(p, net).eigenvalues
        if np.array_equal(s, cfb_topology(net.n_nopas)):
            # the chain's poles come from its characteristic equation
            assert spectral_gap(evs, split_spectrum(literal[0])) <= 1e-12
        else:
            assert evs.tobytes() == eigenvalues(literal[0]).tobytes()
        return True

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), big_k=st.sampled_from([0.0, K_REF, 0.3]))
    def test_random_permutations(self, n, seed, big_k):
        self.check_wiring_route(random_permutation(np.random.default_rng(seed), 2 * (n + 1)), big_k)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), big_k=st.sampled_from([0.0, K_REF, 0.3]))
    def test_random_well_posed_wirings(self, n, seed, big_k):
        assert self.check_wiring_route(acyclic_wiring(np.random.default_rng(seed), n), big_k)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 33, 128])
    def test_chain(self, n):
        assert self.check_wiring_route(cfb_topology(n), K_REF)

    def test_self_loop_is_ill_posed(self):
        s = np.zeros((4, 4), dtype=complex)
        s[0, 0] = s[1, 1] = s[2, 2] = s[3, 3] = 1.0
        assert not self.check_wiring_route(s, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_closed_cycle_of_wires_is_ill_posed(self, n):
        # the last a output feeds NOPA 1's a port, and input 1 goes straight to output 1
        s = cfb_topology(n)
        s[0, 2 * n] = s[2, 0] = 0.0
        s[0, 0] = s[2, 2 * n] = 1.0
        assert not self.check_wiring_route(s, K_REF)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_other_networks_invert_as_before(self, n, lapack_calls):
        net = PassiveNetwork.from_complex(random_unitary(np.random.default_rng(n), 2 * (n + 1)))
        assert net.wiring is None
        p = NopaParams.from_normalized(0.002, 1.0, K_REF)
        literal = literal_closed_loop(p, net)
        lapack_calls.clear()
        ss = build_closed_loop(p, net)
        assert lapack_calls == [("solve", (4 * n, 4 * n))]
        # solve against the identity gives the bytes of the dense inverse
        for got, want in zip((ss.a, ss.b, ss.c, ss.d), literal):
            assert got.tobytes() == want.tobytes()
        stability(p, net)
        assert lapack_calls[1:] == [("solve", (4 * n, 4 * n)), ("eigvals", (4 * n, 4 * n))]


class TestChainLoop:
    """The chain's loop comes from its two rails, and its poles from its characteristic
    equation, with no test of structure and no LAPACK call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 33, 128])
    def test_loop_is_the_inverse_and_the_neumann_sum(self, n):
        net = PassiveNetwork.cfb(n)
        loop = dynamics._loop(net)
        assert loop.dtype == float and loop.shape == (4 * n, 4 * n)
        assert np.array_equal(loop, linalg.inverse(np.eye(4 * n) - net.blocks.s22))
        assert np.array_equal(loop, neumann_loop(net))

    @pytest.mark.parametrize("fraction", [0.9, 0.999])
    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 31, 128])
    def test_stability_is_the_split_of_a(self, n, big_k, fraction):
        p = NopaParams.from_normalized(fraction * math.tan(math.pi / (4 * n)), 1.0, big_k)
        net = PassiveNetwork.cfb(n)
        a = build_closed_loop(p, net).a
        evs = stability(p, net).eigenvalues
        assert spectral_gap(evs, split_spectrum(a)) <= 1e-12
        assert spectral_gap(evs, np.linalg.eigvals(a)) <= 1e-13

    def test_lapack_calls(self, lapack_calls):
        p = NopaParams.from_normalized(0.002, 1.0, K_REF)
        net = PassiveNetwork.cfb(40)
        build_closed_loop(p, net)
        assert lapack_calls == []
        stability(p, net)
        assert lapack_calls == []
        for s in (acyclic_wiring(np.random.default_rng(5), 7), crossed_wiring()):
            net = PassiveNetwork.from_complex(s)
            lapack_calls.clear()
            dynamics._loop(net)
            assert [name for name, _ in lapack_calls] == ["solve"]
            ss = build_closed_loop(p, net)
            for got, want in zip((ss.a, ss.b, ss.c, ss.d), literal_closed_loop(p, net)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_chain_from_a_matrix_or_a_file_takes_the_chain_route(self, n, tmp_path, lapack_calls):
        path = tmp_path / "chain.json"
        matrix = [[[z.real, z.imag] for z in row] for row in cfb_topology(n)]
        path.write_text(json.dumps({"n_nopas": n, "matrix": matrix}))
        p = NopaParams.from_normalized(0.5 * math.tan(math.pi / (4 * n)), 1.0, K_REF)
        want = stability(p, PassiveNetwork.cfb(n)).eigenvalues
        assert spectral_gap(want, split_spectrum(build_closed_loop(p, PassiveNetwork.cfb(n)).a)) <= 1e-12
        for net in (PassiveNetwork.from_complex(cfb_topology(n)), PassiveNetwork.from_json(path)):
            lapack_calls.clear()
            build_closed_loop(p, net)
            assert stability(p, net).eigenvalues.tobytes() == want.tobytes()
            assert lapack_calls == []

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_relabelled_chain_takes_the_general_route(self, n, lapack_calls):
        net = PassiveNetwork.from_complex(reversed_chain(n))
        assert net.wiring is not None and not np.array_equal(net.s_complex, cfb_topology(n))
        p = NopaParams.from_normalized(0.9 * math.tan(math.pi / (4 * n)), 1.0, K_REF)
        evs = stability(p, net).eigenvalues
        assert [name for name, _ in lapack_calls] == ["solve", "eigvals"]
        assert spectral_gap(evs, stability(p, PassiveNetwork.cfb(n)).eigenvalues) <= 1e-13


def exact_poles(p, n, digits=40):
    """A's 4N eigenvalues from a ``digits``-digit eig of M = [[C, -r I], [-r I, C^T]], each twice."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        r = mp.mpf(p.epsilon) / mp.mpf(p.gamma)
        m = mp.matrix(2 * n, 2 * n)
        for i in range(n):
            m[i, i] = m[n + i, n + i] = 1
            m[i, n + i] = m[n + i, i] = -r
            for j in range(i):
                m[i, j] = m[n + j, n + i] = 2
        nus = mp.eig(m, left=False, right=False)
        poles = [complex(-mp.mpf(p.kappa) / 2 - mp.mpf(p.gamma) / 2 * nu) for nu in nus]
    return np.array(poles * 2)


@pytest.fixture
def fallbacks(monkeypatch):
    """The chains whose poles fell back to the split of A's q half."""
    calls = []
    split = dynamics._split_spectrum
    monkeypatch.setattr(dynamics, "_split_spectrum", lambda p, n: calls.append(n) or split(p, n))
    return calls


class TestChainPoles:
    """The chain's 4N eigenvalues from tan(theta/2) = +-r sin(N theta), one root per cell."""

    @pytest.mark.parametrize("y", [0.5, 1.0])
    @pytest.mark.parametrize("big_k", [0.0, K_REF, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16, 31, 64, 128, 400])
    def test_matches_the_split_oracle(self, n, big_k, y, fallbacks):
        for fraction in (0.0, 1e-6, 0.01, 0.5, 0.9, 0.999):
            p = NopaParams.from_normalized(fraction * math.tan(math.pi / (4 * n)), y, big_k)
            evs = stability(p, PassiveNetwork.cfb(n)).eigenvalues
            assert evs.shape == (4 * n,) and evs.tobytes() == np.concatenate([evs[: 2 * n]] * 2).tobytes()
            # at 1e-6 of the bound the poles crowd round nu = 1, where the oracle's own
            # eigvals is off by up to 1.4e-11 (see test_matches_40_digit_eigenvalues)
            tol = 1e-12 if fraction != 1e-6 else 5e-11
            assert spectral_gap(evs, split_spectrum(build_closed_loop(p, PassiveNetwork.cfb(n)).a)) <= tol
        assert fallbacks == []

    @pytest.mark.parametrize(
        "n, fraction",
        [(2, 1e-6), (2, 0.5), (2, 0.999), (5, 1e-6), (5, 0.999), (8, 1e-6), (8, 0.5), (16, 1e-6)],
    )
    def test_matches_40_digit_eigenvalues(self, n, fraction):
        p = NopaParams.from_normalized(fraction * math.tan(math.pi / (4 * n)), 1.0, K_REF)
        assert spectral_gap(stability(p, PassiveNetwork.cfb(n)).eigenvalues, exact_poles(p, n)) <= 1e-13

    def test_matches_40_digit_eigenvalues_where_cell_0_crosses_theta_0(self):
        # r N = 1/2: cell 0's root sits at theta = 0, between its real and imaginary branches
        p = NopaParams.from_normalized(0.1, 1.0)
        assert 2 * (p.epsilon / p.gamma) * 5 == 1.0
        assert spectral_gap(stability(p, PassiveNetwork.cfb(5)).eigenvalues, exact_poles(p, 5)) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("n", [1, 2, 9, 128])
    def test_no_pump_is_a_jordan_block(self, n, big_k, fallbacks):
        p = NopaParams.from_normalized(0.0, 0.7, big_k)
        evs = stability(p, PassiveNetwork.cfb(n)).eigenvalues
        assert np.array_equal(evs, np.full(4 * n, -(p.gamma + p.kappa) / 2.0))
        assert fallbacks == []

    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_verdict_is_the_bound(self, n, big_k, fallbacks):
        bound = stable_x(n, 1.0, big_k, 1.0)  # x y < bound exactly while Hurwitz
        for k in range(1, 16):
            for x in (bound * (1 - 10.0**-k), bound * (1 + 10.0**-k)):
                p = NopaParams.from_normalized(x, 1.0, big_k)
                assert stability(p, PassiveNetwork.cfb(n)).stable == (x < bound)
        assert fallbacks == []

    @pytest.mark.parametrize("n", [1, 2, 40, 128])
    def test_no_lapack_call(self, n, lapack_calls):
        p = NopaParams.from_normalized(0.9 * math.tan(math.pi / (4 * n)), 1.0, K_REF)
        stability(p, PassiveNetwork.cfb(n))
        assert lapack_calls == []
        net = PassiveNetwork.from_complex(reversed_chain(n))
        stability(p, net)
        # one NOPA numbered backwards is the chain itself
        assert [name for name, _ in lapack_calls] == ([] if n == 1 else ["solve", "eigvals"])

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_a_failed_check_falls_back_to_the_split(self, n, monkeypatch, lapack_calls):
        monkeypatch.setattr(dynamics, "_trace_holds", lambda nu, n: False)
        p = NopaParams.from_normalized(0.5 * math.tan(math.pi / (4 * n)), 1.0, K_REF)
        want = split_spectrum(build_closed_loop(p, PassiveNetwork.cfb(n)).a)
        lapack_calls.clear()
        assert stability(p, PassiveNetwork.cfb(n)).eigenvalues.tobytes() == want.tobytes()
        assert lapack_calls == [("eigvals", (2, n, n))]

    @pytest.mark.parametrize("n", [9, 64])
    def test_a_chain_far_past_its_bound_falls_back(self, n, fallbacks):
        # at 3 times the bound some cells hold two real roots, which the cell form does not split
        p = NopaParams.from_normalized(3 * math.tan(math.pi / (4 * n)), 1.0)
        report = stability(p, PassiveNetwork.cfb(n))
        assert fallbacks == [n] and not report.stable
        assert report.eigenvalues.tobytes() == split_spectrum(build_closed_loop(p, PassiveNetwork.cfb(n)).a).tobytes()


class TestMirroredCustomNetwork:
    """A mirrored network that is not wiring inverts I - S22 with one solve on its q half."""

    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_signed_permutation_matches_the_literal_formula(self, n, big_k, lapack_calls):
        s = cfb_topology(n)
        s[2 * n, 2 * n - 2] = -1.0  # NOPA N-1's a output enters NOPA N with its sign flipped
        net = PassiveNetwork.from_complex(s)
        loop = np.eye(4 * n) - net.blocks.s22
        assert net.wiring is None and linalg._mirrored_half(loop) is not None
        p = NopaParams.from_normalized(0.5 * math.tan(math.pi / (4 * n)), 1.0, big_k)
        ss = build_closed_loop(p, net)
        assert lapack_calls == [("solve", (2 * n, 2 * n))]
        for got, want in zip((ss.a, ss.b, ss.c, ss.d), literal_closed_loop(p, net)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestDriftLayout:
    """``_drift`` writes A over L whatever the memory layout of L."""

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_fortran_ordered_loop_gives_the_same_bytes(self, n):
        rng = np.random.default_rng(n)
        p = NopaParams.from_normalized(0.05, 0.8, K_REF)
        loop = rng.normal(size=(4 * n, 4 * n))
        a1 = build_a1(p)
        want = dynamics._drift(np.array(loop, order="C"), p.gamma, a1)
        fortran = np.array(loop, order="F")
        got = dynamics._drift(fortran, p.gamma, a1)
        assert np.shares_memory(got, fortran) and got.tobytes() == want.tobytes()
        # a strided view, as solve returns its first columns
        wide = np.zeros((4 * n, 4 * n + 1))
        wide[:, : 4 * n] = loop
        assert dynamics._drift(wide[:, : 4 * n], p.gamma, a1).tobytes() == want.tobytes()


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


def couples_parities(m):
    """True when some entry links an even index with an odd one."""
    return bool(m[0::2, 1::2].any() or m[1::2, 0::2].any())


class TestQuadratureSplit:
    """A real interconnect never mixes q with p; on the chain the p half mirrors the q half."""

    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_chain_matrices_have_no_parity_coupling(self, n, big_k):
        net = PassiveNetwork.cfb(n)
        ss = build_closed_loop(NopaParams.from_normalized(0.05, 0.8, big_k), net)
        assert not couples_parities(ss.a)
        assert not couples_parities(np.eye(4 * n) - net.blocks.s22)
        assert not couples_parities(elimination_matrix(static_coefficients(0.05, 0.8, big_k), net))

    def test_complex_network_couples_the_halves(self):
        net = PassiveNetwork.from_complex(random_unitary(np.random.default_rng(59), 8))
        assert couples_parities(build_closed_loop(NopaParams.from_normalized(0.05, 1.0), net).a)

    @pytest.mark.parametrize("big_k", [0.0, K_REF])
    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_chain_matrices_mirror(self, n, big_k, monkeypatch):
        # a -> i a, b -> -i b keeps the chain: the p half is the q half with its b signs flipped
        net = PassiveNetwork.cfb(n)
        x = 0.5 * math.tan(math.pi / (4 * n))
        p = NopaParams.from_normalized(x, 1.0, big_k)
        ss = build_closed_loop(p, net)
        solved = []
        monkeypatch.setattr(dynamics, "solve", lambda m, b: solved.append(m) or linalg.solve(m, b))
        omegas = np.array([0.0, 0.3, 2.0]) * p.gamma
        transfer(ss, omegas)
        (resolvent_t,) = solved
        assert np.array_equal(resolvent_t, np.multiply.outer(1j * omegas, np.eye(4 * n)) - ss.a.T)
        matrices = (
            ss.a,
            np.eye(4 * n) - net.blocks.s22,
            elimination_matrix(static_coefficients(x, 1.0, big_k), net).T,
            resolvent_t,
        )
        for m in matrices:
            assert linalg._mirrored_half(m) is not None
        evs = stability(p, net).eigenvalues
        assert np.array_equal(evs[: 2 * n], evs[2 * n :])

    def test_rail_mixing_and_complex_networks_do_not_mirror(self):
        rng = np.random.default_rng(101)
        orthogonal, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        p = NopaParams.from_normalized(0.05, 1.0, K_REF)
        a = build_closed_loop(p, PassiveNetwork.from_complex(orthogonal)).a
        # uncoupled, yet not mirrored: the real network mixes the a and b rails
        assert not couples_parities(a)
        assert linalg._mirrored_half(a) is None
        net = PassiveNetwork.from_complex(random_unitary(rng, 8))
        assert linalg._mirrored_half(build_closed_loop(p, net).a) is None

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_chain_spectrum_matches_40_digit_eigenvalues(self, n):
        mp = pytest.importorskip("mpmath")
        p = NopaParams.from_normalized(0.05, 0.7)
        net = PassiveNetwork.cfb(n)
        a = build_closed_loop(p, net).a
        with mp.workdps(40):
            exact = [complex(z) for z in mp.eig(mp.matrix(a.tolist()), left=False, right=False)]
        assert nearest_match_gap(stability(p, net).eigenvalues, exact) <= 1e-14


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


class TestBatchedTransfer:
    def test_array_equals_stacked_scalar_transfers(self):
        for n, big_k in ((1, 0.0), (2, 0.0), (5, K_REF), (9, 0.0)):
            p = NopaParams.from_normalized(0.05, 0.8, big_k)
            net = PassiveNetwork.cfb(n) if n > 1 else open_loop_network()
            ss = build_closed_loop(p, net)
            omegas = np.linspace(0.0, 5.0 * p.gamma, 11)
            stack = transfer(ss, omegas)
            assert stack.shape == (11, 4, 4 + 4 * n)
            for w, h in zip(omegas, stack):
                single = transfer(ss, w)
                assert np.max(np.abs(h - single)) <= 1e-13 * np.max(np.abs(single))

    def test_matches_literal_resolvent(self):
        p = NopaParams.from_normalized(0.1, 1.0, K_REF)
        ss = build_closed_loop(p, PassiveNetwork.cfb(3))
        for w in (0.0, 0.4 * p.gamma, 3.0 * p.gamma):
            literal = ss.c @ np.linalg.inv(1j * w * np.eye(12) - ss.a) @ ss.b + ss.d
            assert np.max(np.abs(transfer(ss, w) - literal)) < 1e-12 * np.max(np.abs(literal))

    def test_empty_grid(self):
        ss = build_closed_loop(NopaParams.from_normalized(0.1, 1.0), PassiveNetwork.cfb(2))
        assert transfer(ss, np.array([])).shape == (0, 4, 12)

    def test_rejects_two_dimensional_grid(self):
        ss = build_closed_loop(NopaParams.from_normalized(0.1, 1.0), PassiveNetwork.cfb(2))
        with pytest.raises(DimensionError):
            transfer(ss, np.zeros((2, 2)))

    @pytest.mark.parametrize("omega", [math.nan, math.inf, [0.0, math.nan], [0.0, -math.inf]])
    def test_rejects_non_finite_frequency(self, omega):
        # a bad input, not a singular resolvent: no StabilityError
        ss = build_closed_loop(NopaParams.from_normalized(0.1, 1.0), PassiveNetwork.cfb(2))
        with pytest.raises(DimensionError):
            transfer(ss, omega)


def chain(n, x, y=1.0):
    p = NopaParams.from_normalized(x, y)
    return p, build_closed_loop(p, PassiveNetwork.cfb(n))


class TestResolventGuard:
    """The condition-number guard on (i w I - A): stable chains pass, marginal ones raise."""

    @pytest.mark.parametrize("n, x", [(10, 0.05), (30, 0.02)])
    def test_long_stable_chain_at_zero(self, n, x):
        _, ss = chain(n, x)
        h0 = transfer(ss, 0.0)
        st_ = static_transfer(static_coefficients(x, 1.0), PassiveNetwork.cfb(n))
        assert np.max(np.abs(h0 - st_.h_n)) < 1e-9 * np.max(np.abs(h0))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_just_below_the_bound_succeeds(self, n):
        x = math.tan(math.pi / (4 * n)) * (1.0 - 1e-9)
        p, ss = chain(n, x)
        assert stability(p, PassiveNetwork.cfb(n)).stable
        assert np.all(np.isfinite(transfer(ss, 0.0)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_at_the_bound_raises(self, n):
        _, ss = chain(n, math.tan(math.pi / (4 * n)))
        with pytest.raises(StabilityError):
            transfer(ss, 0.0)

    def test_single_nopa_at_threshold_raises(self):
        _, ss = chain(1, 1.0)
        with pytest.raises(StabilityError):
            transfer(ss, 0.0)

    def test_error_names_the_frequency(self):
        _, ss = chain(2, math.tan(math.pi / 8))
        with pytest.raises(StabilityError, match=r"omega=0\.0"):
            transfer(ss, np.array([1e9, 0.0, 2e9]))

    def test_error_names_the_stack_index_in_plain_ints(self):
        _, ss = chain(2, math.tan(math.pi / 8))
        with pytest.raises(StabilityError, match=r"\(stack index \(1,\)\)") as err:
            transfer(ss, np.array([1e9, 0.0, 2e9]))
        assert err.value.__cause__.index == (1,)
        assert type(err.value.__cause__.index[0]) is int


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 40),
    x=st.floats(0.0, 0.3),
    y=st.floats(0.01, 1.0),
    big_k=st.floats(0.0, 0.3),
    w=st.floats(0.0, 5.0),
)
def test_fuzz_answers_or_typed_errors(n, x, y, big_k, w):
    """Every call answers or raises a NopanetError; numpy warnings fail the test."""
    p = NopaParams.from_normalized(x, y, big_k)
    net = PassiveNetwork.cfb(n)
    calls = (
        lambda: stability(p, net),
        lambda: static_transfer(static_coefficients(x, y, big_k), net),
        lambda: transfer(build_closed_loop(p, net), w * p.gamma),
        lambda: squeezing_spectrum(build_closed_loop(p, net), [0.0, w * p.gamma]),
    )
    for call in calls:
        try:
            call()
        except NopanetError:
            pass


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
