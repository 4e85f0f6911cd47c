"""Oracles: the independent routes that cross-check the production paths.

The paper's three routes to the chain scalars (u, v) check the rotation form
of ``closed_form``: the scalar recurrences (``recurrences``), cofactor
determinants of the loop-elimination matrix (``determinant_path``) and
brute-force inversion (``extract_uv``).  The chain's elimination matrix lies
in a closed class of block matrices, scalar * I2 on even parity and scalar * R
on odd parity with central symmetry (``is_l2_matrix``, ``random_l2_matrix``).
``property_trial`` is one randomized trial of every ``nopanet verify`` suite.
Only ``cli`` imports this module: ``theorem`` reports ``extract_uv``'s (u, v)
beside the closed form, and ``verify`` runs ``property_trial``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .closed_form import _require_chain, closed_form
from .errors import DegenerateRecurrenceError, NumericalError, StructureError, WellPosednessError
from .linalg import solve
from .network import NopaParams, PassiveNetwork, to_quadrature
from .static_limit import (
    R,
    StaticCoefficients,
    StaticTransfer,
    elimination_matrix,
    static_coefficients,
    static_transfer,
)

RECURRENCE_GUARD = 1e-12
DETPATH_TOL = 1e-9
UV_AGREEMENT_TOL = 1e-10
PATTERN_TOL = 1e-9


@dataclass(frozen=True)
class RecurrenceResult:
    """Terminal recurrence values for an N-NOPA chain."""

    m_last: float  # m_{N-1}
    n_last: float  # n_{N-1}
    n_prod: float  # prod_{k=0}^{N-2} n_k


def recurrences(coeffs: StaticCoefficients, n: int) -> RecurrenceResult:
    """Iterate m_{k+1} = -h1 h2 + h1^2 m_k / n_k, n_{k+1} = 1 - h2^2 + h1 h2 m_k / n_k.

    Starts from m_1 = 0, n_0 = n_1 = 1 and returns the step-(N-1) values
    together with the running product of n_0 .. n_{N-2}.
    """
    _require_chain(coeffs, n)
    h1, h2 = coeffs.h1, coeffs.h2
    m_k, n_k = 0.0, 1.0
    prod = 1.0  # n_0
    for k in range(1, n - 1):
        if abs(n_k) < RECURRENCE_GUARD:
            raise DegenerateRecurrenceError(
                f"recurrence denominator n_{k} vanished", step=k
            )
        prod *= n_k
        ratio = m_k / n_k
        m_k, n_k = -h1 * h2 + h1**2 * ratio, 1.0 - h2**2 + h1 * h2 * ratio
    if abs(n_k) < RECURRENCE_GUARD:
        raise DegenerateRecurrenceError(
            f"recurrence denominator n_{n - 1} vanished", step=n - 1
        )
    return RecurrenceResult(m_last=m_k, n_last=n_k, n_prod=prod)


# --- determinant route -------------------------------------------------------
#
# The loop-elimination matrix I - S22 (I (x) W12) of the chain has
# determinant det(T3); removing its first row and its third (resp. (4N-3)-th)
# column, then padding back to square with a leading identity row/column,
# gives T1 (resp. T2).  Their determinants follow from the recurrence
# values in closed form (``_closed_determinants``).


def _first_row_minor(t: np.ndarray, col: int) -> np.ndarray:
    """``t`` without row 0 and column ``col``, behind a leading identity row/column."""
    m = np.eye(t.shape[0])
    m[1:, 1:] = np.delete(t[1:], col, axis=1)
    return m


def t1_matrix(coeffs: StaticCoefficients, n: int) -> np.ndarray:
    """Cofactor matrix whose determinant yields p_{3,1}."""
    return _first_row_minor(t3_matrix(coeffs, n), 2)


def t2_matrix(coeffs: StaticCoefficients, n: int) -> np.ndarray:
    """Cofactor matrix whose determinant yields p_{4N-3,1}."""
    return _first_row_minor(t3_matrix(coeffs, n), 4 * n - 4)


def t3_matrix(coeffs: StaticCoefficients, n: int) -> np.ndarray:
    """Loop-elimination matrix of the N-NOPA chain (determinant route denominator)."""
    return elimination_matrix(coeffs, PassiveNetwork.cfb(n))


def _closed_determinants(coeffs: StaticCoefficients, n: int, rec: RecurrenceResult):
    """The three determinants from the scalar recursion formulas."""
    h1, h2 = coeffs.h1, coeffs.h2
    m_l, n_l = rec.m_last, rec.n_last
    denom = h1 * h2 * m_l + n_l - h2**2 * n_l
    inner = rec.n_prod  # prod_{k=0}^{N-2} n_k, with n_0 = 1
    try:
        det_t1 = inner**2 * (-h1 * (h1 * m_l - h2 * n_l) * denom)
        det_t2 = h1 ** (n - 1) * denom * inner
        det_t3 = denom**2 * inner**2
    except OverflowError as exc:
        raise NumericalError(f"closed determinants overflow at N={n}") from exc
    return det_t1, det_t2, det_t3


def determinant_path(coeffs: StaticCoefficients, n: int):
    """(u, v) via cofactor determinants, cross-checked two ways.

    Evaluates det(T1), det(T2), det(T3) both from the closed recursion
    formulas and by LU on the chain's elimination matrix and its two
    first-row minors; any relative disagreement beyond 1e-9 is an error.
    A chain that ``static_transfer`` rejects raises its
    ``WellPosednessError``.  Returns the pair from the matrix route.
    """
    _require_chain(coeffs, n)
    rec = recurrences(coeffs, n)
    closed = _closed_determinants(coeffs, n, rec)
    net = PassiveNetwork.cfb(n)
    static_transfer(coeffs, net)
    t3 = elimination_matrix(coeffs, net)
    assembled = tuple(
        np.linalg.det(t) for t in (_first_row_minor(t3, 2), _first_row_minor(t3, 4 * n - 4), t3)
    )
    for name, c_val, a_val in zip(("T1", "T2", "T3"), closed, assembled):
        if abs(c_val - a_val) > DETPATH_TOL * max(1.0, abs(c_val)):
            raise NumericalError(
                f"det({name}) mismatch: closed {c_val!r} vs assembled {a_val!r}"
            )
    det_t1, det_t2, det_t3 = assembled
    h1, h2 = coeffs.h1, coeffs.h2
    u = h1 * det_t2 / det_t3
    v = h1 * det_t1 / det_t3 + h2
    return float(u), float(v)


def extract_uv(st: StaticTransfer):
    """Read the two chain-transfer scalars (u, v) and cross-check them.

    Requires a transfer built from the lossless chain topology: the first
    four columns of H must have the pattern
    [[u, 0, v, 0], [0, u, 0, -v], [v, 0, u, 0], [0, -v, 0, u]].
    The pair is also recomputed from the first column p of P, the inverse
    of the chain's elimination matrix E, which this function solves for as
    E p = e_1 (u = h1 p_{4N-3,1} + h2 p_{4N-1,1},
    v = h1 p_{3,1} + h2 p_{1,1}); disagreement between the two readings is
    a hard error.
    """
    h = st.h_n[:, :4]
    u = h[0, 0]
    v = h[0, 2]
    pattern = np.array(
        [
            [u, 0.0, v, 0.0],
            [0.0, u, 0.0, -v],
            [v, 0.0, u, 0.0],
            [0.0, -v, 0.0, u],
        ]
    )
    if np.max(np.abs(h - pattern)) > PATTERN_TOL:
        raise StructureError(
            "transfer does not have the chain (u, v) pattern; "
            f"max deviation {np.max(np.abs(h - pattern)):.3e}"
        )
    if st.coeffs.big_k != 0 and np.max(np.abs(st.h_n[:, 4:])) > PATTERN_TOL:
        raise StructureError("(u, v) extraction requires the lossless case")
    n4 = 4 * st.n_nopas
    p = solve(elimination_matrix(st.coeffs, PassiveNetwork.cfb(st.n_nopas)), np.eye(n4, 1))[:, 0]
    u_p = st.coeffs.h1 * p[n4 - 4] + st.coeffs.h2 * p[n4 - 2]
    v_p = st.coeffs.h1 * p[2] + st.coeffs.h2 * p[0]
    if abs(u - u_p) > UV_AGREEMENT_TOL * max(1.0, abs(u)) or abs(
        v - v_p
    ) > UV_AGREEMENT_TOL * max(1.0, abs(v)):
        raise StructureError(
            f"transfer and elimination-matrix readings disagree: "
            f"u={u!r} vs {u_p!r}, v={v!r} vs {v_p!r}"
        )
    return float(u), float(v)


def _parity_tiles(nb: int) -> np.ndarray:
    """The (nb, nb, 2, 2) block pattern of the class: I2 where i + j is even, R where odd."""
    odd = np.add.outer(np.arange(nb), np.arange(nb)) % 2 == 1
    return np.where(odd[:, :, None, None], R, np.eye(2))


def is_l2_matrix(m, tol: float = 1e-10) -> bool:
    """Check the parity block pattern and central symmetry of a 4N x 4N matrix.

    Blocks E_ij (2x2, 1-based block indices) must equal e_ij * I2 when i + j
    is even and e_ij * R when odd, and must satisfy the central symmetry
    E_{i,j} = E_{2N+1-i,2N+1-j}.  A matrix with a non-finite entry is not
    in the class.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 4 != 0:
        return False
    if not np.isfinite(a).all():
        return False
    nb = a.shape[0] // 2  # = 2N blocks per side
    blocks = a.reshape(nb, 2, nb, 2).swapaxes(1, 2)
    tiles = _parity_tiles(nb)
    e = (blocks[..., 0, 0] + tiles[..., 1, 1] * blocks[..., 1, 1]) / 2.0
    off_pattern = np.abs(blocks - e[..., None, None] * tiles)
    off_mirror = np.abs(blocks - blocks[::-1, ::-1])
    return not ((off_pattern > tol).any() or (off_mirror > tol).any())


def random_l2_matrix(n: int, rng: np.random.Generator, max_cond: float | None = None) -> np.ndarray:
    """Sample a random member of the parity-patterned class for N NOPAs.

    Scalars for the left half of the block grid are uniform in [-1, 1]; the
    right half is mirrored by central symmetry.  When ``max_cond`` is given,
    resample until the condition number is below it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nb = 2 * n
    tiles = _parity_tiles(nb)
    while True:
        e = np.empty((nb, nb))
        e[:, :n] = rng.uniform(-1.0, 1.0, size=(nb, n))
        e[:, n:] = np.flip(e[:, :n])
        a = (e[:, :, None, None] * tiles).swapaxes(1, 2).reshape(2 * nb, 2 * nb)
        if max_cond is None or np.linalg.cond(a) < max_cond:
            return a


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed by diag(R)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def property_trial(rng: np.random.Generator) -> dict:
    """One randomized trial of every property suite; returns failure details."""
    failures = {}
    n = int(rng.integers(2, 7))
    # Closure of the parity-patterned class under product and inverse.
    e = random_l2_matrix(n, rng)
    f = random_l2_matrix(n, rng)
    if not is_l2_matrix(e @ f, tol=1e-9):
        failures["l2_product_closure"] = {"n": n}
    e_inv_src = random_l2_matrix(n, rng, max_cond=1e6)
    if not is_l2_matrix(np.linalg.inv(e_inv_src), tol=1e-8):
        failures["l2_inverse_closure"] = {"n": n}
    # Quadrature map of a random unitary is orthogonal symplectic.
    dim = 2 * (n + 1)
    u = random_unitary(rng, dim)
    sq = to_quadrature(u)
    jj = np.kron(np.eye(dim), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    if (
        np.max(np.abs(sq.T @ sq - np.eye(2 * dim))) > 1e-12
        or np.max(np.abs(sq.T @ jj @ sq - jj)) > 1e-12
    ):
        failures["quadrature_symplectic"] = {"n": n}
    # Stability implies that static_transfer answers (the chain's cascade is
    # away from its poles), the three (u, v) routes agree, and H(i0) matches
    # the static map.
    x = float(rng.uniform(0.01, 0.35))
    y = float(rng.uniform(0.5, 1.0))
    params = NopaParams.from_normalized(x, y)
    net = PassiveNetwork.cfb(n)
    report = dynamics.stability(params, net)
    if report.stable:
        coeffs = static_coefficients(x, y)
        try:
            st = static_transfer(coeffs, net)
        except WellPosednessError:
            failures["stability_implies_invertible"] = {"n": n, "x": x, "y": y}
            return failures
        u_m, v_m = extract_uv(st)
        result = closed_form(coeffs, n)
        u_d, v_d = determinant_path(coeffs, n)
        if max(
            abs(result.u - u_m), abs(result.v - v_m), abs(result.u - u_d), abs(result.v - v_d)
        ) > 1e-9 * max(1.0, abs(result.u), abs(result.v)):
            failures["uv_three_path"] = {"n": n, "x": x, "y": y}
        ss = dynamics.build_closed_loop(params, net)
        h0 = dynamics.transfer(ss, 0.0)
        if np.max(np.abs(h0 - st.h_n)) > 1e-9 * max(1.0, np.max(np.abs(h0))):
            failures["omega_zero_consistency"] = {"n": n, "x": x, "y": y}
    return failures
