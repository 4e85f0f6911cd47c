"""Kernel tests: every routine is checked against an independent oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nopanet import K_REF, NopaParams, PassiveNetwork, build_closed_loop, linalg, stability
from nopanet.oracles import random_unitary
from nopanet.static_limit import elimination_matrix, static_coefficients
from nopanet.errors import DimensionError, SingularMatrixError


class TestInverse:
    def test_identity(self):
        assert np.allclose(linalg.inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(linalg.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        assert np.max(np.abs(m @ linalg.inverse(m) - np.eye(8))) < 1e-9

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
            assert np.max(np.abs(linalg.inverse(linalg.inverse(m)) - m)) < 1e-9

    def test_singular_raises_with_magnitude(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            linalg.inverse(singular)
        assert err.value.rcond == 0.0
        assert err.value.index is None

    def test_guard_is_scale_free(self):
        # entries of the closed-loop size (~7e7) at 4N = 40: a determinant
        # threshold overflows here, the condition number does not move
        rng = np.random.default_rng(19)
        m = np.eye(40) + 0.1 * rng.normal(size=(40, 40))
        for scale in (1e-30, 1.0, 7.2e7, 1e30):
            inv = linalg.inverse(scale * m)
            assert np.max(np.abs(scale * m @ inv - np.eye(40))) < 1e-12

    def test_ill_conditioned_raises_with_rcond(self):
        m = np.diag([1.0, 1e-15])
        with pytest.raises(SingularMatrixError) as err:
            linalg.inverse(m)
        assert err.value.rcond == pytest.approx(1e-15, rel=1e-12)
        assert err.value.index is None


class TestOrderZero:
    """A matrix of order 0 has an empty inverse, solution and spectrum."""

    @pytest.mark.parametrize(
        "routine,shape",
        [
            (lambda: linalg.solve(np.zeros((0, 0)), np.zeros((0, 2))), (0, 2)),
            (lambda: linalg.solve(np.zeros((3, 0, 0)), np.zeros((0, 1))), (3, 0, 1)),
            (lambda: linalg.inverse(np.zeros((0, 0))), (0, 0)),
            (lambda: linalg.eigenvalues(np.zeros((0, 0))), (0,)),
        ],
        ids=["solve", "solve-stack", "inverse", "eigenvalues"],
    )
    def test_empty_result(self, routine, shape):
        assert routine().shape == shape


def with_condition(rng, n, cond):
    """A random n x n matrix with 2-norm condition number ``cond``."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ v


class TestSolve:
    def test_stack_matches_per_matrix_solves(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
        b = rng.normal(size=(5, 3))
        x = linalg.solve(a, b)
        assert x.shape == (6, 5, 3)
        for k in range(6):
            assert np.max(np.abs(x[k] - np.linalg.solve(a[k], b))) < 1e-12

    def test_single_matrix(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([[1.0], [2.0]])
        assert np.allclose(m @ linalg.solve(m, b), b)

    def test_rcond_is_exact_for_identity_rhs(self):
        # ||b_j|| = 1 and max_j ||x_j|| = ||M^-1||_1: rcond = 1/(||M||_1 ||M^-1||_1)
        rng = np.random.default_rng(29)
        for n in (4, 9):
            m = with_condition(rng, n, 1e17)
            with pytest.raises(SingularMatrixError) as err:
                linalg.solve(m, np.eye(n))
            assert err.value.rcond == pytest.approx(1.0 / np.linalg.cond(m, 1), rel=1e-6)

    def test_singular_direction_outside_the_rhs_raises(self):
        # b = e1 never excites the near-null direction e2; the probe column does
        m = np.diag([1.0, 1e-20])
        with pytest.raises(SingularMatrixError):
            linalg.solve(m, np.array([[1.0], [0.0]]))

    def test_returns_only_the_callers_columns(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert linalg.solve(m, np.eye(2)).shape == (2, 2)
        assert linalg.solve(np.stack([m, m]), np.ones((2, 2, 1))).shape == (2, 2, 1)

    def test_reports_worst_matrix_of_stack(self):
        rng = np.random.default_rng(31)
        a = np.stack([with_condition(rng, 5, c) for c in (10.0, 1e17, 100.0)])
        with pytest.raises(SingularMatrixError) as err:
            linalg.solve(a, rng.normal(size=(5, 2)))
        assert err.value.index == (1,)
        assert err.value.rcond < linalg.RCOND_MIN

    def test_exactly_singular_member_of_stack(self):
        a = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        with pytest.raises(SingularMatrixError) as err:
            linalg.solve(a, np.eye(2))
        assert err.value.index == (1,)
        assert err.value.rcond == 0.0

    def test_stack_index_is_plain_ints(self):
        a = np.stack([np.eye(2), np.eye(2), np.zeros((2, 2))]).reshape(3, 1, 2, 2)
        with pytest.raises(SingularMatrixError, match=r"\(stack index \(2, 0\)\)") as err:
            linalg.solve(a, np.eye(2))
        assert err.value.index == (2, 0)
        assert all(type(i) is int for i in err.value.index)

    def test_well_conditioned_passes_at_any_scale(self):
        rng = np.random.default_rng(37)
        m = with_condition(rng, 8, 1e8)
        b = rng.normal(size=(8, 2))
        for scale in (1e-200, 1.0, 1e200):
            x = linalg.solve(scale * m, b)
            assert np.max(np.abs(m @ x * scale - b)) < 1e-6

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            linalg.solve(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(DimensionError):
            linalg.solve(np.eye(3), np.ones((2, 1)))


class TestEigenvalues:
    def test_diagonal(self):
        evs = sorted(linalg.eigenvalues(np.diag([-1.0, -2.0])).real)
        assert evs == pytest.approx([-2.0, -1.0])

    def test_rotation_generator(self):
        evs = sorted(linalg.eigenvalues([[0.0, 1.0], [-1.0, 0.0]]), key=lambda z: z.imag)
        assert evs[0] == pytest.approx(-1j)
        assert evs[1] == pytest.approx(1j)

    def test_transpose_has_same_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.normal(size=(7, 7))
            a = np.sort_complex(linalg.eigenvalues(m))
            b = np.sort_complex(linalg.eigenvalues(m.T))
            assert np.max(np.abs(a - b)) < 1e-8

    def test_stack_gives_one_row_per_matrix(self, lapack_calls):
        m = np.random.default_rng(19).normal(size=(3, 5, 5))
        evs = linalg.eigenvalues(m)
        assert lapack_calls[0] == ("eigvals", (3, 5, 5)) and evs.shape == (3, 5)
        for got, one in zip(evs, m):
            assert got.tobytes() == linalg.eigenvalues(one).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4)])
    def test_rejects_non_square_shapes(self, shape):
        with pytest.raises(DimensionError):
            linalg.eigenvalues(np.ones(shape))

    def test_rejects_non_finite_member_of_a_stack(self):
        m = np.stack([np.eye(3)] * 2)
        m[1, 2, 0] = np.nan
        with pytest.raises(DimensionError):
            linalg.eigenvalues(m)


def parity_split(rng, n, dtype=float):
    """A seeded n x n matrix whose even-odd coupling blocks are exact zeros."""
    m = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    if dtype is complex:
        m = m + 1j * rng.normal(size=(n, n))
    m[0::2, 1::2] = 0.0
    m[1::2, 0::2] = 0.0
    return m


def nearest_match_gap(got, ref):
    """Worst relative distance when each reference value takes its nearest unused match."""
    pool = list(got)
    assert len(pool) == len(ref)
    worst = 0.0
    for z in ref:
        k = int(np.argmin([abs(w - z) for w in pool]))
        worst = max(worst, abs(pool.pop(k) - z) / abs(z))
    return worst


class TestParitySplit:
    """A matrix that is not mirrored -- uncoupled or not -- takes the one dense call."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 7, 12, 40])
    def test_eigenvalues_match_dense_spectrum(self, n, dtype, mirrored_solves):
        m = parity_split(np.random.default_rng(43 + n), n, dtype)
        assert_plain_calls(m, None, mirrored_solves, ["eigenvalues"])

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 7, 12, 40])
    def test_inverse_matches_dense_inverse(self, n, dtype, mirrored_solves):
        m = parity_split(np.random.default_rng(47 + n), n, dtype)
        assert_plain_calls(m, None, mirrored_solves, ["inverse"])

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 7, 12, 40])
    def test_solve_without_mirror_takes_the_dense_call(self, n, dtype, mirrored_solves):
        rng = np.random.default_rng(49 + n)
        m = np.stack([parity_split(rng, n, dtype) for _ in range(3)])
        assert_plain_calls(m, rng.normal(size=(n, 2)), mirrored_solves, ["solve"])

    @pytest.mark.parametrize("where", [(0, 1), (5, 2)])
    def test_one_coupling_entry_takes_the_dense_call(self, where, mirrored_solves):
        # an uncoupled matrix, and a mirrored one, that one coupling entry spoils
        for seed, build in ((53, parity_split), (54, mirrored)):
            rng = np.random.default_rng(seed)
            m = build(rng, 8)
            m[where] = 1e-300
            assert_plain_calls(m, rng.normal(size=(8, 3)), mirrored_solves)

    def test_one_coupled_member_of_a_stack_takes_the_dense_call(self, mirrored_solves):
        rng = np.random.default_rng(55)
        m = mirrored(rng, 8, complex, (4,))
        m[2, 3, 0] = 1e-300
        assert_plain_calls(m, rng.normal(size=(8, 2)), mirrored_solves, ["solve"])

    def test_singular_half_raises(self):
        m = np.zeros((4, 4))
        m[0::2, 0::2] = np.eye(2)
        m[1::2, 1::2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(SingularMatrixError) as err:
            linalg.inverse(m)
        assert err.value.rcond == 0.0
        assert err.value.index is None


def mirror_of(q):
    """The mirrored matrix, or stack, with even half q and odd half D q D."""
    m = q.shape[-1]
    out = np.zeros(q.shape[:-2] + (2 * m, 2 * m), dtype=q.dtype)
    out[..., 0::2, 0::2] = q
    out[..., 1::2, 1::2] = q * (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    return out


def mirrored(rng, n, dtype=float, stack=()):
    """A seeded matrix, or stack, with no even-odd coupling and odd half D (even half) D."""
    even = rng.normal(size=stack + (n // 2, n // 2)) + 2.0 * np.eye(n // 2)
    if dtype is complex:
        even = even + 1j * rng.normal(size=even.shape)
    return mirror_of(even)


def two_half_eigenvalues(m):
    return np.concatenate([np.linalg.eigvals(m[0::2, 0::2]), np.linalg.eigvals(m[1::2, 1::2])])


def two_half_inverse(m):
    q_inv, p_inv = np.linalg.inv(m[0::2, 0::2]), np.linalg.inv(m[1::2, 1::2])
    x = np.zeros(m.shape, dtype=q_inv.dtype)
    x[0::2, 0::2], x[1::2, 1::2] = q_inv, p_inv
    return x


def dense_solve(m, b):
    """One LAPACK call on the whole system against [b | probe], as ``solve`` makes it."""
    k = b.shape[-1]
    probe = np.broadcast_to(linalg._probe(m.shape[-1]), b.shape[:-1] + (1,))
    rhs = np.concatenate([b, probe], axis=-1)
    if rhs.ndim < m.ndim:
        rhs = rhs.reshape((1,) * (m.ndim - rhs.ndim) + rhs.shape)
    return np.linalg.solve(m, rhs)[..., :k]


PLAIN_CALLS = {
    "solve": (linalg.solve, dense_solve),
    "inverse": (lambda m, b: linalg.inverse(m), lambda m, b: np.linalg.inv(m)),
    "eigenvalues": (lambda m, b: linalg.eigenvalues(m), lambda m, b: np.linalg.eigvals(m)),
}


def assert_plain_calls(m, b, mirrored_solves, routines=tuple(PLAIN_CALLS)):
    """Each routine on the unmirrored m returns the bytes of its one dense numpy call."""
    assert linalg._mirrored_half(m) is None
    for name in routines:
        ours, plain = PLAIN_CALLS[name]
        got, want = ours(m, b), plain(m, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert not mirrored_solves


def nudge(m, where):
    """m with the real part of one entry moved by one ulp."""
    m = m.copy()
    m[where] += np.nextafter(m[where].real, np.inf) - m[where].real
    return m


@pytest.fixture
def mirrored_solves(monkeypatch):
    """The calls ``solve`` makes to its mirrored path, recorded as they happen."""
    calls = []
    solve_mirrored = linalg._solve_mirrored
    monkeypatch.setattr(linalg, "_solve_mirrored", lambda *a: calls.append(1) or solve_mirrored(*a))
    return calls


def exact_rcond(m):
    """1 / (||m||_1 ||m^-1||_1), the reciprocal 1-norm condition number itself."""
    return 1.0 / (np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1))


class TestMirroredCondition:
    """``inverse`` checks a mirrored matrix's condition on the whole matrix, not on q alone."""

    @pytest.mark.parametrize("order", [3, 8, 40])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_near_singular_reports_the_whole_matrix_rcond(self, order, dtype):
        rng = np.random.default_rng(order)
        q = with_condition(rng, order, 3e14)
        if dtype is complex:
            q = q * np.exp(0.7j)  # a common phase keeps the condition number
        m = mirror_of(q)
        expected = exact_rcond(m)
        assert expected < linalg.RCOND_MIN
        with pytest.raises(SingularMatrixError) as err:
            linalg.inverse(m)
        # the identity's columns make the estimate the exact 1-norm rcond
        assert err.value.rcond == pytest.approx(expected, rel=1e-12)
        assert err.value.index is None

    @pytest.mark.parametrize("seed", range(6))
    def test_rcond_bits_match_the_whole_matrix(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(9, 9)) + 3.0 * np.eye(9)
        q[rng.random(q.shape) < 0.3] = 0.0  # zeros inside q, as in the chain's matrices
        m = mirror_of(q)
        checked = []
        check = linalg._check_condition
        monkeypatch.setattr(linalg, "_check_condition", lambda *a: checked.append(a) or check(*a))
        inv = linalg.inverse(m)
        ((a, x, b),) = checked
        assert a.tobytes() == m.tobytes()
        assert x[:, :18].tobytes() == inv.tobytes() and np.array_equal(b[:, :18], np.eye(18))


class TestMirror:
    """An odd half equal to D (even half) D is not factored a second time."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 8, 40])
    def test_eigenvalues_match_two_halves_and_dense(self, n, dtype):
        m = mirrored(np.random.default_rng(61 + n), n, dtype)
        evs = linalg.eigenvalues(m)
        assert nearest_match_gap(evs, np.linalg.eigvals(m)) < 1e-13
        assert nearest_match_gap(evs, two_half_eigenvalues(m)) < 1e-13
        assert np.array_equal(evs[: n // 2], np.linalg.eigvals(m[0::2, 0::2]))
        assert np.array_equal(evs[: n // 2], evs[n // 2 :])

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 8, 40])
    def test_inverse_matches_two_halves_and_dense(self, n, dtype):
        m = mirrored(np.random.default_rng(67 + n), n, dtype)
        inv = linalg.inverse(m)
        for ref in (np.linalg.inv(m), two_half_inverse(m)):
            assert inv.dtype == ref.dtype
            assert np.max(np.abs(inv - ref)) < 1e-13 * np.max(np.abs(ref))
        assert not inv[0::2, 1::2].any() and not inv[1::2, 0::2].any()

    @pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 8, 40])
    def test_solve_matches_dense(self, n, dtype, stack):
        rng = np.random.default_rng(71 + n)
        m = mirrored(rng, n, dtype, stack)
        # b broadcasts against the stack: one set of right-hand sides for every matrix
        for b in (rng.normal(size=(n, 3)), rng.normal(size=stack + (n, 2))):
            x = linalg.solve(m, b)
            dense = np.linalg.solve(m, np.broadcast_to(b, stack + b.shape[-2:]))
            assert x.shape == dense.shape
            assert np.max(np.abs(x - dense)) < 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("where", [(0, 2), (1, 1), (3, 1), (5, 7)])
    def test_one_ulp_takes_the_unmirrored_calls(self, where, mirrored_solves):
        rng = np.random.default_rng(79)
        for dtype in (float, complex):
            m = nudge(mirrored(rng, 8, dtype), where)
            assert_plain_calls(m, rng.normal(size=(8, 3)), mirrored_solves)

    def test_one_member_of_a_stack_breaks_the_mirror(self, mirrored_solves):
        rng = np.random.default_rng(83)
        m = mirrored(rng, 8, complex, (4,))
        m[2] = nudge(m[2], (3, 3))
        assert linalg._mirrored_half(m[[0, 1, 3]]) is not None
        assert_plain_calls(m, rng.normal(size=(8, 2)), mirrored_solves, ["solve"])

    def test_odd_order_never_mirrors(self):
        m = parity_split(np.random.default_rng(89), 7)
        assert linalg._mirrored_half(m) is None

    def test_singular_half_raises(self):
        m = mirrored(np.random.default_rng(97), 4)
        m[0::2, 0::2] = [[1.0, 2.0], [2.0, 4.0]]
        m[1::2, 1::2] = [[1.0, -2.0], [-2.0, 4.0]]
        assert linalg._mirrored_half(m) is not None
        with pytest.raises(SingularMatrixError) as err:
            linalg.inverse(m)
        assert err.value.rcond == 0.0
        with pytest.raises(SingularMatrixError):
            linalg.solve(m, np.eye(4))
        with pytest.raises(SingularMatrixError) as err:
            linalg.solve(np.stack([np.eye(4), m]), np.eye(4))
        assert err.value.index == (1,)


class TestOneRule:
    """``solve`` factors the q half of every mirrored system, whatever its size."""

    @pytest.mark.parametrize(
        "shape",
        [(4, 4), (8, 8), (40, 40), (512, 512), (6, 4, 4), (2, 3, 8, 8), (64, 8, 8), (3, 40, 40)],
    )
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_lapack_solve_on_q(self, shape, dtype, lapack_calls):
        rng = np.random.default_rng(shape[-1])
        half = shape[-1] // 2
        q = rng.normal(size=shape[:-2] + (half, half)) + 2.0 * math.sqrt(half) * np.eye(half)
        if dtype is complex:
            q = q + 1j * rng.normal(size=q.shape)
        m = mirror_of(q)
        b = rng.normal(size=(shape[-1], 3))
        x = linalg.solve(m, b)
        assert lapack_calls == [("solve", shape[:-2] + (half, half))]
        dense = np.linalg.solve(m, np.broadcast_to(b, shape[:-2] + b.shape))
        assert x.shape == dense.shape
        assert np.max(np.abs(x - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_small_system_factors_q(self):
        m = mirrored(np.random.default_rng(107), 8)
        b = np.random.default_rng(108).normal(size=(8, 3))
        assert linalg.solve(m, b).tobytes() == whole_q_solve(m, b).tobytes()


def chain_matrices(n, x, y, big_k, omegas=(0.0,)):
    """The chain's A, static elimination matrix E and resolvents i w I - A."""
    params = NopaParams.from_normalized(x, y, big_k)
    net = PassiveNetwork.cfb(n)
    a = build_closed_loop(params, net).a
    e = elimination_matrix(static_coefficients(x, y, big_k), net)
    eye = np.eye(4 * n)
    resolvents = np.stack([1j * w * params.gamma * eye - a for w in omegas])
    return a, e, resolvents


def stable_x(n, y, big_k, fraction):
    """``fraction`` of the lossy chain's bound on x, capped at x = 1.

    With r = x y the chain is stable while
    2 atan(r sqrt(1 - K^2)) < (pi/2 + asin K) / N.
    """
    r_max = math.tan((math.pi / 2 + math.asin(big_k)) / (2 * n)) / math.sqrt(1 - big_k**2)
    return fraction * min(r_max / y, 1.0)


def spectral_gap(got, ref):
    """Worst distance when each reference eigenvalue takes its nearest unused match,
    relative to the spectral radius."""
    assert len(got) == len(ref)
    pool, worst = np.asarray(got, dtype=complex), 0.0
    used = np.zeros(len(pool), dtype=bool)
    for z in ref:
        dist = np.where(used, np.inf, np.abs(pool - z))
        k = int(np.argmin(dist))
        used[k], worst = True, max(worst, dist[k])
    return worst / np.max(np.abs(ref))


def centro(rng, m, dtype=float, stack=()):
    """A seeded centrosymmetric matrix, or stack: equal to itself with rows and columns reversed."""
    c = rng.normal(size=stack + (m, m)) + 2.0 * np.eye(m)
    if dtype is complex:
        c = c + 1j * rng.normal(size=c.shape)
    return c + c[..., ::-1, ::-1]


def whole_q_solve(m, b):
    """``solve`` on a mirrored system as one LAPACK call on its whole q half."""
    q = m[..., 0::2, 0::2]
    half = q.shape[-1]
    signs = np.stack([np.ones(half), (-1.0) ** np.arange(half)], -1)[..., None]
    rhs = np.concatenate([b, np.broadcast_to(linalg._probe(m.shape[-1]), b.shape[:-1] + (1,))], -1)
    k = rhs.shape[-1]
    both = (rhs.reshape(rhs.shape[:-2] + (-1, 2, k)) * signs).reshape(rhs.shape[:-2] + (-1, 2 * k))
    y = np.linalg.solve(q, both)
    x = (y.reshape(y.shape[:-1] + (2, k)) * signs).reshape(y.shape[:-2] + (-1, k))
    return x[..., : b.shape[-1]]


def is_centrosymmetric(q):
    """True when each matrix of q equals itself with its rows and columns reversed."""
    return bool((q == q[..., ::-1, ::-1]).all())


def assert_whole_q_calls(m, b, routines=("eigenvalues", "solve")):
    """Each routine on the mirrored m returns the bytes of one LAPACK call on its q half."""
    q = m[..., 0::2, 0::2]
    assert linalg._mirrored_half(m) is not None
    for name in routines:
        if name == "eigenvalues":
            got, want = linalg.eigenvalues(m), np.concatenate([np.linalg.eigvals(q)] * 2, axis=-1)
        else:
            got, want = linalg.solve(m, b), whole_q_solve(m, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.fixture
def lapack_calls(monkeypatch):
    """The shapes of the matrices ``linalg`` hands to numpy's LAPACK routines."""
    calls = []
    for name in ("eigvals", "inv", "solve"):
        plain = getattr(np.linalg, name)
        spy = lambda a, *rest, plain=plain, name=name: calls.append((name, a.shape)) or plain(a, *rest)
        monkeypatch.setattr(linalg.np.linalg, name, spy)
    return calls


class TestCentroSplit:
    """The chain's q half maps onto itself when the chain is reversed and a swaps with b.
    ``stability`` splits it there (see ``dynamics``); ``linalg`` never tests for it, so
    ``eigenvalues`` and ``solve`` factor a mirrored matrix's q whole, centrosymmetric or not."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128])
    def test_chain_q_halves_are_centrosymmetric(self, n):
        a, e, resolvents = chain_matrices(n, stable_x(n, 1.0, K_REF, 0.5), 1.0, K_REF, (0.0, 0.3))
        for m in (a, e, *resolvents):
            for t in (m, m.T):
                q = linalg._mirrored_half(t)
                assert q is not None and q.shape == (2 * n, 2 * n) and is_centrosymmetric(q)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 60),
        fraction=st.floats(0.01, 0.9),
        y=st.floats(0.01, 1.0),
        big_k=st.floats(0.0, 0.3),
        omegas=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    )
    def test_split_matches_the_whole_matrix(self, n, fraction, y, big_k, omegas):
        a, e, resolvents = chain_matrices(n, stable_x(n, y, big_k, fraction), y, big_k, omegas)
        b = np.random.default_rng(n).normal(size=(4 * n, 3))
        assert spectral_gap(linalg.eigenvalues(a), np.linalg.eigvals(a)) < 1e-12
        for m in (e.T, np.swapaxes(resolvents, -1, -2)):
            x = linalg.solve(m, b)
            ref = np.linalg.solve(m, np.broadcast_to(b, m.shape[:-2] + b.shape))
            assert np.max(np.abs(x - ref)) < 1e-12 * np.max(np.abs(ref))
            residual = np.max(np.abs(m @ x - b))
            assert residual <= max(1e-12, 10 * np.max(np.abs(m @ ref - b)))

    def test_one_lapack_call_on_a_stack_of_two_halves(self, lapack_calls):
        # stability solves the chain's characteristic equation, with no LAPACK call (its
        # fallback splits the q half, see test_dynamics); solve factors q whole
        for n in (1, 2, 5, 16, 31, 128):
            x = stable_x(n, 1.0, K_REF, 0.5)
            a, e, resolvents = chain_matrices(n, x, 1.0, K_REF, (0.1,))
            lapack_calls.clear()
            evs = stability(NopaParams.from_normalized(x, 1.0, K_REF), PassiveNetwork.cfb(n)).eigenvalues
            linalg.solve(e.T, np.ones((4 * n, 4)))
            linalg.solve(np.swapaxes(resolvents, -1, -2), np.ones((4 * n, 4)))
            assert lapack_calls == [
                ("solve", (2 * n, 2 * n)),
                ("solve", (1, 2 * n, 2 * n)),
            ]
            assert spectral_gap(evs, np.linalg.eigvals(a)) <= 1e-13

    def test_mirrored_but_not_centrosymmetric(self):
        rng = np.random.default_rng(211)
        for dtype in (float, complex):
            q = centro(rng, 8, dtype)
            assert_whole_q_calls(mirror_of(q), rng.normal(size=(16, 3)))
            q[1, 2] += 0.5  # its partner q[6, 5] keeps the old value
            assert not is_centrosymmetric(q)
            assert_whole_q_calls(mirror_of(q), rng.normal(size=(16, 3)))

    def test_odd_order_centrosymmetric(self):
        rng = np.random.default_rng(223)
        q = centro(rng, 7)
        assert is_centrosymmetric(q)
        assert_whole_q_calls(mirror_of(q), rng.normal(size=(14, 2)))

    def test_stack_with_one_centrosymmetric_member(self):
        rng = np.random.default_rng(227)
        q = rng.normal(size=(3, 6, 6)) + 4.0 * np.eye(6)
        q[1] = centro(rng, 6)
        assert is_centrosymmetric(q[1])
        assert_whole_q_calls(mirror_of(q), rng.normal(size=(12, 2)))

    def test_singular_half_raises(self):
        # X + Y J = [[1, 2], [2, 4]] is singular, X - Y J = I is not
        x, yj = np.array([[1.0, 1.0], [1.0, 2.5]]), np.array([[0.0, 1.0], [1.0, 1.5]])
        q = np.block([[x, yj[:, ::-1]], [yj[::-1], x[::-1, ::-1]]])
        assert is_centrosymmetric(q)
        with pytest.raises(SingularMatrixError) as err:
            linalg.inverse(mirror_of(q))
        assert err.value.rcond == 0.0
        with pytest.raises(SingularMatrixError) as err:
            linalg.solve(np.stack([np.eye(8), mirror_of(q)]), np.eye(8))
        assert err.value.index == (1,)


class TestSingleInverse:
    """``inverse`` is ``solve`` against the identity: one LAPACK solve, on q if the matrix is mirrored."""

    @staticmethod
    def structured(rng, dtype):
        """Mirrored, mirrored-and-centrosymmetric and twice-mirrored matrices, and the members of a mirrored stack."""
        def cast(q):
            return q + 1j * rng.normal(size=q.shape) if dtype is complex else q

        q = cast(rng.normal(size=(6, 6)) + 3.0 * np.eye(6))
        c = cast(centro(rng, 8))
        stack = mirror_of(cast(rng.normal(size=(3, 5, 5)) + 3.0 * np.eye(5)))
        return [mirror_of(q), mirror_of(c), mirror_of(mirror_of(q)), *stack]

    @staticmethod
    def check_q_inverse(m, lapack_calls):
        """``inverse`` of the mirrored m: one solve on q, close to the dense inverse, C-contiguous."""
        assert linalg._mirrored_half(m) is not None
        lapack_calls.clear()
        got = linalg.inverse(m)
        half = m.shape[-1] // 2
        assert lapack_calls == [("solve", (half, half))]
        want = np.linalg.inv(m)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_structured_matrices_solve_q_once(self, dtype, lapack_calls):
        for m in self.structured(np.random.default_rng(229), dtype):
            self.check_q_inverse(m, lapack_calls)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10, 32])
    def test_chain_elimination_matrix(self, n, lapack_calls):
        e = chain_matrices(n, stable_x(n, 1.0, 0.0, 0.5), 1.0, 0.0)[1]
        self.check_q_inverse(e, lapack_calls)

    @pytest.mark.parametrize("n", [1, 3, 10, 33])
    def test_complex_unitary_loop_is_the_dense_inverse(self, n, lapack_calls):
        s = random_unitary(np.random.default_rng(n), 2 * (n + 1))
        loop = np.eye(4 * n) - PassiveNetwork.from_complex(s).blocks.s22
        got = linalg.inverse(loop)
        assert lapack_calls == [("solve", loop.shape)]
        want = np.linalg.inv(loop)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
