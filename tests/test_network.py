"""Interconnect construction and quadrature-form tests."""

import json
import math

import numpy as np
import pytest

from nopanet import (
    NopaParams,
    PassiveNetwork,
    cfb_topology,
    kron,
    partition,
    to_quadrature,
)
from nopanet.errors import DimensionError, UnitarityError
from nopanet.network import GAMMA_R_REF, K_REF, unitarity_deviation


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def symplectic_form(n_fields):
    return kron(np.eye(n_fields), np.array([[0.0, 1.0], [-1.0, 0.0]]))


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
        unitaries = [cfb_topology(n) for n in (1, 2, 5, 12, 39)]
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
