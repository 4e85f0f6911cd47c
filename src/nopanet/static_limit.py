"""Infinite-bandwidth (static) model and the parity-patterned block algebra.

In the static limit each NOPA acts as a constant 4x8 quadrature map
[W12 | W34] whose coefficients are the omega = 0 values of
``dynamics.scaled_response``; eliminating the network loop once, through
``elimination_matrix``, gives the 4 x (4 + 4N) transfer of the whole system,
exact at omega = 0.  The feedback-elimination matrix
I - S22 (I (x) W12) for the chain topology belongs to a closed class of
block matrices (scalar * I2 on even parity, scalar * R on odd parity, with
central symmetry) that makes the chain transfer reduce to two scalars u, v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import scaled_response
from .errors import SingularMatrixError, StructureError, WellPosednessError
from .linalg import inverse, kron
from .network import PassiveNetwork

R = np.array([[1.0, 0.0], [0.0, -1.0]])

UV_AGREEMENT_TOL = 1e-10
PATTERN_TOL = 1e-9


@dataclass(frozen=True)
class StaticCoefficients:
    """Static (infinite-bandwidth) transfer coefficients of one NOPA."""

    h1: float
    h2: float
    h3: float
    h4: float
    x: float
    y: float
    big_k: float


@dataclass(frozen=True)
class StaticTransfer:
    """Static transfer of the closed loop, with its elimination matrix."""

    h_n: np.ndarray  # 4 x (4 + 4N)
    p_n: np.ndarray  # 4N x 4N, inverse of I - S22 (I (x) W12)
    w12: np.ndarray  # 4 x 4
    w34: np.ndarray  # 4 x 4
    n_nopas: int
    coeffs: StaticCoefficients


def static_coefficients(x: float, y: float, big_k: float = 0.0) -> StaticCoefficients:
    """Static NOPA coefficients from the dimensionless (x, y, K) parameters.

    The real parts of the NOPA response at omega = 0, with epsilon/gamma = xy
    and kappa/gamma = Kxy.  x = 0 is the pump-off edge: h1 = -1 and the other
    coefficients vanish.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if not 0 < y <= 1:
        raise ValueError(f"y must be in (0, 1], got {y}")
    if big_k < 0:
        raise ValueError(f"K must be nonnegative, got {big_k}")
    r = x * y
    h = scaled_response(r, big_k * r, 0.0)
    return StaticCoefficients(
        h1=h.h1.real, h2=h.h2.real, h3=h.h3.real, h4=h.h4.real, x=x, y=y, big_k=big_k
    )


def coupling_block(h_diag, h_cross) -> np.ndarray:
    """4x4 block [[h_diag I2, h_cross R], [h_cross R, h_diag I2]]."""
    return np.block([[h_diag * np.eye(2), h_cross * R], [h_cross * R, h_diag * np.eye(2)]])


def w_blocks(coeffs: StaticCoefficients):
    """The input-coupling and loss-coupling 4x4 blocks (W12, W34)."""
    return coupling_block(coeffs.h1, coeffs.h2), coupling_block(coeffs.h3, coeffs.h4)


def single_nopa_transfer(coeffs: StaticCoefficients) -> np.ndarray:
    """Static 4x8 transfer [W12 | W34] of one NOPA (inputs then losses)."""
    w12, w34 = w_blocks(coeffs)
    return np.hstack([w12, w34])


def static_transfer(coeffs: StaticCoefficients, net: PassiveNetwork) -> StaticTransfer:
    """Static transfer of the N-NOPA loop behind an arbitrary passive network.

    H = (S11 + S12 Wi P S21) [I 0] + (S12 + S12 Wi P S22) Wl [0 I]
    with Wi = I (x) W12, Wl = I (x) W34 and P the inverse of
    ``elimination_matrix``, I - S22 Wi.
    The loss columns are always present; they vanish when K = 0.
    """
    n = net.n_nopas
    s11, s12, s21, s22 = net.blocks
    w12, w34 = w_blocks(coeffs)
    wi = kron(np.eye(n), w12)
    wl = kron(np.eye(n), w34)
    try:
        p_n = inverse(elimination_matrix(coeffs, net))
    except SingularMatrixError as exc:
        raise WellPosednessError(
            "static loop elimination is singular; the finite-bandwidth system "
            f"is unstable or marginally stable ({exc})"
        ) from exc
    s12_wi_p = s12 @ wi @ p_n
    direct = s11 + s12_wi_p @ s21
    loss = (s12 + s12_wi_p @ s22) @ wl
    h_n = np.hstack([direct, loss])
    return StaticTransfer(h_n=h_n, p_n=p_n, w12=w12, w34=w34, n_nopas=n, coeffs=coeffs)


def is_l2_matrix(m, tol: float = 1e-10) -> bool:
    """Check the parity block pattern and central symmetry of a 4N x 4N matrix.

    Blocks E_ij (2x2, 1-based block indices) must equal e_ij * I2 when i + j
    is even and e_ij * R when odd, and must satisfy the central symmetry
    E_{i,j} = E_{2N+1-i,2N+1-j}.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 4 != 0:
        return False
    nb = a.shape[0] // 2  # = 2N blocks per side
    for i in range(nb):
        for j in range(nb):
            block = a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            pattern = np.eye(2) if (i + j) % 2 == 0 else R
            e = (block[0, 0] + pattern[1, 1] * block[1, 1]) / 2.0
            if np.max(np.abs(block - e * pattern)) > tol:
                return False
            mirror = a[
                2 * (nb - 1 - i) : 2 * (nb - 1 - i) + 2,
                2 * (nb - 1 - j) : 2 * (nb - 1 - j) + 2,
            ]
            if np.max(np.abs(block - mirror)) > tol:
                return False
    return True


def random_l2_matrix(n: int, rng: np.random.Generator, max_cond: float | None = None) -> np.ndarray:
    """Sample a random member of the parity-patterned class for N NOPAs.

    Scalars for the left half of the block grid are uniform in [-1, 1]; the
    right half is mirrored by central symmetry.  When ``max_cond`` is given,
    resample until the condition number is below it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nb = 2 * n
    while True:
        e = np.empty((nb, nb))
        e[:, :n] = rng.uniform(-1.0, 1.0, size=(nb, n))
        for j in range(n, nb):
            for i in range(nb):
                e[i, j] = e[nb - 1 - i, nb - 1 - j]
        a = np.zeros((2 * nb, 2 * nb))
        for i in range(nb):
            for j in range(nb):
                pattern = np.eye(2) if (i + j) % 2 == 0 else R
                a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = e[i, j] * pattern
        if max_cond is None or np.linalg.cond(a) < max_cond:
            return a


def extract_uv(st: StaticTransfer):
    """Read the two chain-transfer scalars (u, v) and cross-check them.

    Requires a transfer built from the lossless chain topology: the first
    four columns of H must have the pattern
    [[u, 0, v, 0], [0, u, 0, -v], [v, 0, u, 0], [0, -v, 0, u]].
    The pair is also recomputed from the elimination-matrix entries
    (u = h1 p_{4N-3,1}, v = h1 p_{3,1} + h2 p_{1,1}); disagreement between
    the two readings is a hard error.
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
    p = st.p_n
    n4 = 4 * st.n_nopas
    u_p = st.coeffs.h1 * p[n4 - 4, 0] + st.coeffs.h2 * p[n4 - 2, 0]
    v_p = st.coeffs.h1 * p[2, 0] + st.coeffs.h2 * p[0, 0]
    if abs(u - u_p) > UV_AGREEMENT_TOL * max(1.0, abs(u)) or abs(
        v - v_p
    ) > UV_AGREEMENT_TOL * max(1.0, abs(v)):
        raise StructureError(
            f"transfer and elimination-matrix readings disagree: "
            f"u={u!r} vs {u_p!r}, v={v!r} vs {v_p!r}"
        )
    return float(u), float(v)


def elimination_matrix(coeffs: StaticCoefficients, net: PassiveNetwork) -> np.ndarray:
    """The matrix I - S22 (I (x) W12) whose inverse closes the static loop."""
    w12, _ = w_blocks(coeffs)
    n = net.n_nopas
    return np.eye(4 * n) - net.blocks.s22 @ kron(np.eye(n), w12)
