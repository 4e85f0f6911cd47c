"""Interconnect construction and quadrature-form tests."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from nopanet import (
    NopaParams,
    PassiveNetwork,
    cfb_topology,
    partition,
    to_quadrature,
)
from nopanet.errors import DimensionError, UnitarityError
from nopanet.network import GAMMA_R_REF, K_REF, unitarity_deviation
from nopanet import network


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def random_permutation(rng, dim):
    """A complex 0/1 permutation matrix: a random wiring network of size dim."""
    s = np.zeros((dim, dim), dtype=complex)
    s[rng.permutation(dim), np.arange(dim)] = 1.0
    return s


def gram_residual(s):
    """|S*S - I| by the complex product, the reference for ``unitarity_deviation``."""
    s = np.asarray(s, dtype=complex)
    return np.abs(s.conj().T @ s - np.eye(len(s)))


def literal_quadrature(a):
    """The quadrature form written entry by entry: [[Re, -Im], [Im, Re]] blocks."""
    a = np.asarray(a, dtype=complex)
    out = np.empty((2 * len(a), 2 * len(a)))
    out[0::2, 0::2] = out[1::2, 1::2] = a.real
    out[0::2, 1::2] = -a.imag
    out[1::2, 0::2] = a.imag
    return out


def symplectic_form(n_fields):
    return np.kron(np.eye(n_fields), np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestNopaParams:
    def test_from_normalized(self):
        p = NopaParams.from_normalized(0.1, 1.0)
        assert p.epsilon == pytest.approx(0.1 * GAMMA_R_REF)
        assert p.gamma == pytest.approx(GAMMA_R_REF)
        assert p.kappa == 0.0
        assert p.xy == pytest.approx(0.1)

    def test_loss_proportional_to_pump(self):
        p = NopaParams.from_normalized(0.6, 1.0, big_k=K_REF)
        assert p.kappa == pytest.approx(3e6 / math.sqrt(2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 1.0, "gamma": 0.0},
            {"epsilon": 1.0, "gamma": -1.0},
            {"epsilon": -1.0, "gamma": 1.0},
            {"epsilon": 1.0, "gamma": 1.0, "kappa": -0.5},
        ],
    )
    def test_rejects_bad_rates(self, kwargs):
        with pytest.raises(ValueError):
            NopaParams(**kwargs)

    @pytest.mark.parametrize("x,y", [(1.5, 1.0), (-0.1, 1.0), (0.5, 0.0), (0.5, 1.5)])
    def test_rejects_bad_fractions(self, x, y):
        with pytest.raises(ValueError):
            NopaParams.from_normalized(x, y)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["epsilon", "gamma", "kappa"])
    def test_rejects_non_finite_rates(self, field, value):
        # 1e400 in a JSON config parses to inf
        kwargs = {"epsilon": 1.0, "gamma": 1.0, "kappa": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            NopaParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"big_k": -0.1}, "K"),
            ({"big_k": math.inf}, "K"),
            ({"big_k": math.nan}, "K"),
            ({"gamma_r": 0.0}, "gamma_r"),
            ({"gamma_r": -7.2e7}, "gamma_r"),
            ({"gamma_r": math.inf}, "gamma_r"),
        ],
    )
    @pytest.mark.parametrize("x", [0.0, 0.05])
    def test_bad_loss_or_rate_names_the_value_given(self, x, kwargs, name):
        # not kappa = K x gamma_r or gamma = gamma_r / y, which the caller never wrote
        (value,) = kwargs.values()
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {value}$"):
            NopaParams.from_normalized(x, 1.0, **kwargs)

    @pytest.mark.parametrize("gamma_r", [math.inf, math.nan])
    def test_rejects_non_finite_reference_rate(self, gamma_r):
        with pytest.raises(ValueError):
            NopaParams.from_normalized(0.5, 1.0, gamma_r=gamma_r)


class TestCfbTopology:
    def test_rejects_empty_chain(self):
        with pytest.raises(DimensionError):
            cfb_topology(0)

    def test_single_nopa_wiring(self):
        s = cfb_topology(1)
        assert s.shape == (4, 4)
        # out_1 <- out_a_1, out_2 <- out_b_1, in_a_1 <- in_1, in_b_1 <- in_2
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
        assert np.array_equal(s.real, expected)

    def test_two_nopa_is_permutation(self):
        s = cfb_topology(2)
        assert s.shape == (6, 6)
        assert np.allclose(s.sum(axis=0), 1.0)
        assert np.allclose(s.sum(axis=1), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_exactly_unitary(self, n):
        s = cfb_topology(n)
        assert np.array_equal(s @ s.conj().T, np.eye(2 * (n + 1)))
        assert set(np.unique(s.real)) <= {0.0, 1.0}

    @pytest.mark.parametrize("n", [2, 4])
    def test_chain_wiring(self, n):
        s = cfb_topology(n).real
        # a-outputs cascade forward, b-outputs cascade backward
        for k in range(2, n + 1):
            assert s[2 * k, 2 * k - 2] == 1.0  # in_a_k <- out_a_{k-1}
        for k in range(1, n):
            assert s[2 * k + 1, 2 * k + 3] == 1.0  # in_b_k <- out_b_{k+1}
        # vacuum 1 feeds NOPA 1 a-port, vacuum 2 feeds NOPA n b-port
        assert s[2, 0] == 1.0
        assert s[2 * n + 1, 1] == 1.0
        # output 1 is the a-output of the last NOPA
        assert s[0, 2 * n] == 1.0
        # output 2 is the b-output of the first NOPA
        assert s[1, 3] == 1.0


class TestUnitarityDeviation:
    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_chain_permutation_is_exact(self, n):
        dev, worst = unitarity_deviation(cfb_topology(n))
        assert dev == 0.0
        assert worst == (0, 0)

    @pytest.mark.parametrize("dim", [4, 8, 20])
    def test_real_product_matches_complex_product(self, dim):
        # a real S and its complex copy take the one product S*S; complex arithmetic is the reference
        rng = np.random.default_rng(43 + dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        q[0, 0] += 1e-9  # a visible deviation, so its location means something
        residual = np.abs(q.astype(complex).conj().T @ q.astype(complex) - np.eye(dim))
        for s in (q, q.astype(complex)):
            dev, worst = unitarity_deviation(s)
            assert abs(dev - residual.max()) <= 1e-15
            assert residual[worst] == residual.max()


class TestWiring:
    """A 0/1 permutation is decided from its entries; every other matrix takes the product."""

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_chain_is_wiring(self, n):
        net = PassiveNetwork.cfb(n)
        dim = 2 * (n + 1)
        assert sorted(net.wiring) == list(range(dim))
        assert (net.s_complex[net.wiring, np.arange(dim)] == 1).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_permutation(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 * int(rng.integers(2, 42))
        s = random_permutation(rng, dim)
        for a in (s, s.real, s.real.astype(int)):
            assert network._wiring(a) is not None
            assert unitarity_deviation(a) == (0.0, (0, 0))
        assert gram_residual(s).max() == 0.0
        net = PassiveNetwork.from_complex(s)
        assert (s[net.wiring, np.arange(dim)] == 1).all()
        assert net.s_quad.tobytes() == literal_quadrature(s).tobytes()
        assert to_quadrature(s.real).tobytes() == literal_quadrature(s.real).tobytes()

    @pytest.mark.parametrize(
        "break_it",
        [
            lambda s: s.__setitem__((0, slice(None)), 0.0),  # an empty row
            lambda s: s.__setitem__((0, slice(None)), 1.0),  # a full row
            lambda s: s.__setitem__((slice(None), 1), s[:, 0]),  # two columns alike
            lambda s: s.__setitem__(1, s[0]),  # two rows alike: one column holds two 1s
            lambda s: s.__setitem__((1, 1), 1.0 - s[1, 1]),  # one entry flipped
            lambda s: s.__setitem__((3, 2), 2.0 - s[3, 2]),  # an entry of 2
        ],
    )
    def test_other_zero_one_matrices_keep_the_product(self, break_it):
        rng = np.random.default_rng(7)
        s = random_permutation(rng, 10)
        break_it(s)
        assert network._wiring(s) is None
        residual = gram_residual(s)
        dev, worst = unitarity_deviation(s)
        assert dev == residual.max() and residual[worst] == residual.max()
        with pytest.raises(UnitarityError) as err:
            PassiveNetwork.from_complex(s)
        assert err.value.deviation == dev
        assert err.value.worst_index == worst

    def test_unitary_non_wiring_matrices_are_not_wiring(self):
        # a sign, a phase or a signed zero is not pure wiring; each still passes the product
        rng = np.random.default_rng(11)
        s = random_permutation(rng, 8)
        signed, phased, neg_zero = s.copy(), s.copy(), s.copy()
        signed[s == 1] = [-1, 1, 1, 1, 1, 1, 1, 1]
        phased[s == 1] = [1j, 1, 1, 1, 1, 1, 1, 1]
        neg_zero[0, s[0] == 0] = -0.0
        for a in (signed, phased, neg_zero, random_unitary(rng, 8)):
            net = PassiveNetwork.from_complex(a)
            assert net.wiring is None
            assert net.s_quad.tobytes() == literal_quadrature(a).tobytes()

    def test_wiring_is_read_off_s_not_passed_in(self):
        chain, other = PassiveNetwork.cfb(3), PassiveNetwork.from_complex(random_unitary(np.random.default_rng(3), 8))
        with pytest.raises(TypeError):
            PassiveNetwork(3, chain.s_complex, wiring=None)
        for net in (chain, other):
            built = PassiveNetwork(net.n_nopas, net.s_complex)
            assert (built.wiring is None) == (net.wiring is None)
            if net.wiring is not None:
                assert np.array_equal(built.wiring, net.wiring)


class TestToQuadrature:
    def test_identity(self):
        assert np.allclose(to_quadrature(np.eye(2).astype(complex)), np.eye(4))

    def test_single_phase_rotation(self):
        theta = 0.37
        out = to_quadrature(np.array([[np.exp(1j * theta)]]))
        expected = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        assert np.allclose(out, expected, atol=1e-14)

    def test_cfb2_orthogonal_symplectic(self):
        sq = to_quadrature(cfb_topology(2))
        assert sq.shape == (12, 12)
        jj = symplectic_form(6)
        assert np.max(np.abs(sq.T @ sq - np.eye(12))) < 1e-12
        assert np.max(np.abs(sq.T @ jj @ sq - jj)) < 1e-12

    def test_homomorphism_on_random_unitaries(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_unitary(rng, 6)
            b = random_unitary(rng, 6)
            lhs = to_quadrature(a @ b)
            rhs = to_quadrature(a) @ to_quadrature(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_real_imaginary_block_form(self):
        # each complex entry s becomes [[Re s, -Im s], [Im s, Re s]]
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        rng = np.random.default_rng(41)
        unitaries = [cfb_topology(n) for n in (1, 2, 3, 4, 5, 6, 12, 39)]
        unitaries += [random_unitary(rng, dim) for dim in (1, 2, 4, 6, 10, 24)]
        for a in unitaries:
            expected = np.kron(a.real, np.eye(2)) + np.kron(a.imag, rot)
            assert np.array_equal(to_quadrature(a), expected)

    def test_rejects_non_unitary(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = 1.001
        with pytest.raises(UnitarityError) as err:
            to_quadrature(bad)
        assert err.value.deviation > 1e-10
        assert err.value.worst_index == (0, 0)


class TestPartition:
    def test_identity_blocks(self):
        blocks = partition(np.eye(8))
        assert np.array_equal(blocks.s11, np.eye(4))
        assert np.array_equal(blocks.s22, np.eye(4))
        assert not blocks.s12.any()
        assert not blocks.s21.any()

    def test_cfb2_feedback_block_structure(self):
        net = PassiveNetwork.cfb(2)
        s22 = net.blocks.s22
        assert s22.shape == (8, 8)
        # The chain couples NOPA 1 <-> NOPA 2 only through off-diagonal blocks.
        assert not s22[:4, :4].any()
        assert not s22[4:, 4:].any()
        assert s22[:4, 4:].any()
        assert s22[4:, :4].any()

    def test_lossless_reassembly(self):
        net = PassiveNetwork.cfb(3)
        s11, s12, s21, s22 = net.blocks
        rebuilt = np.block([[s11, s12], [s21, s22]])
        assert np.array_equal(rebuilt, net.s_quad)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 4), (8, 10), (10, 10)])
    def test_rejects_bad_dims(self, shape):
        with pytest.raises(DimensionError):
            partition(np.zeros(shape))


class TestChainIsItsWiring:
    """``cfb`` holds N and the chain's wiring; S, its quadrature form and the blocks are
    built on first use, with the bytes of the chain read from its matrix."""

    def test_cfb_makes_no_matrix(self):
        network._cfb_wiring.cache_clear()
        tracemalloc.start()
        try:
            net = PassiveNetwork.cfb(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # S alone would be 64 MB
        assert net.n_nopas == 1000 and net.wiring is network._cfb_wiring(1000)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 128])
    def test_matrices_on_first_use(self, n):
        net, read = PassiveNetwork.cfb(n), PassiveNetwork.from_complex(cfb_topology(n))
        s = np.zeros((2 * (n + 1), 2 * (n + 1)), dtype=complex)  # +0.0 everywhere but the 1s
        s[net.wiring, np.arange(2 * (n + 1))] = 1.0
        pairs = [(net.s_complex, s), (net.s_quad, literal_quadrature(s))]
        pairs += list(zip(net.blocks, partition(literal_quadrature(s))))
        pairs += list(zip((net.s_complex, net.s_quad, *net.blocks), (read.s_complex, read.s_quad, *read.blocks)))
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert net.s_quad is net.s_quad and np.shares_memory(net.blocks.s22, net.s_quad)

    @pytest.mark.parametrize("n", [0, -1])
    def test_cfb_needs_a_nopa(self, n):
        with pytest.raises(DimensionError):
            PassiveNetwork.cfb(n)


class TestPassiveNetwork:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_cfb_invariants(self, n):
        net = PassiveNetwork.cfb(n)
        dim = 2 * (n + 1)
        dev, _ = unitarity_deviation(net.s_complex)
        assert dev < 1e-12
        jj = symplectic_form(dim)
        assert np.max(np.abs(net.s_quad.T @ net.s_quad - np.eye(2 * dim))) < 1e-12
        assert np.max(np.abs(net.s_quad.T @ jj @ net.s_quad - jj)) < 1e-12

    def test_custom_unitary_invariants(self):
        rng = np.random.default_rng(29)
        net = PassiveNetwork.from_complex(random_unitary(rng, 8))
        assert net.n_nopas == 3
        assert np.max(np.abs(net.s_quad.T @ net.s_quad - np.eye(16))) < 1e-12

    def test_declared_n_mismatch(self):
        with pytest.raises(DimensionError):
            PassiveNetwork.from_complex(cfb_topology(2), n_nopas=3)

    def test_json_round_trip(self, tmp_path):
        s = cfb_topology(2)
        doc = {
            "n_nopas": 2,
            "matrix": [[[z.real, z.imag] for z in row] for row in s],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        net = PassiveNetwork.from_json(path)
        assert np.allclose(net.s_complex, s)

    def test_json_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_nopas": 2, "matrix": [[1, 2], [3]]}))
        with pytest.raises(DimensionError):
            PassiveNetwork.from_json(path)

    @pytest.mark.parametrize("n_nopas", [2, 2.0, "2"])
    def test_json_whole_n_is_accepted(self, tmp_path, n_nopas):
        doc = {"n_nopas": n_nopas, "matrix": [[[z.real, z.imag] for z in row] for row in cfb_topology(2)]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert PassiveNetwork.from_json(path).n_nopas == 2

    @pytest.mark.parametrize("n_nopas", [2.5, True, 1e400, None, "two"])
    def test_json_n_must_be_a_whole_number(self, tmp_path, n_nopas):
        doc = {"n_nopas": n_nopas, "matrix": [[[z.real, z.imag] for z in row] for row in cfb_topology(2)]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError, match="n_nopas"):
            PassiveNetwork.from_json(path)

    def test_json_bool_entries_are_rejected(self, tmp_path):
        doc = {"n_nopas": 1, "matrix": [[[z.real, z.imag] for z in row] for row in cfb_topology(1)]}
        doc["matrix"][0][2] = [True, 0]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError, match="must be numbers"):
            PassiveNetwork.from_json(path)

    def test_json_non_unitary_reports_deviation(self, tmp_path):
        s = cfb_topology(2)
        doc = {"n_nopas": 2, "matrix": [[[z.real, z.imag] for z in row] for row in s]}
        doc["matrix"][0][0] = [1e-3, 0.0]
        path = tmp_path / "nonunitary.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnitarityError) as err:
            PassiveNetwork.from_json(path)
        assert err.value.deviation is not None
        assert err.value.worst_index is not None
