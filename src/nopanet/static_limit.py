"""Infinite-bandwidth (static) model of N NOPAs behind a passive network.

In the static limit each NOPA acts as a constant 4x8 quadrature map
[W12 | W34] whose coefficients are the omega = 0 values of
``dynamics.scaled_response``; eliminating the network loop once, through
``elimination_matrix``, gives the 4 x (4 + 4N) transfer of the whole system,
exact at omega = 0.  It serves every network, lossy and custom ones too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import scaled_response
from .errors import SingularMatrixError, WellPosednessError
from .linalg import inverse
from .network import PassiveNetwork

R = np.array([[1.0, 0.0], [0.0, -1.0]])


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


def w_blocks(coeffs: StaticCoefficients):
    """The input-coupling and loss-coupling 4x4 blocks (W12, W34).

    W12 = [[h1 I2, h2 R], [h2 R, h1 I2]]; W34 is the same with (h3, h4).
    """
    c, i2 = coeffs, np.eye(2)
    w12 = np.block([[c.h1 * i2, c.h2 * R], [c.h2 * R, c.h1 * i2]])
    w34 = np.block([[c.h3 * i2, c.h4 * R], [c.h4 * R, c.h3 * i2]])
    return w12, w34


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
    wi = np.kron(np.eye(n), w12)
    wl = np.kron(np.eye(n), w34)
    p_n = invert_elimination(elimination_matrix(coeffs, net))
    s12_wi_p = s12 @ wi @ p_n
    direct = s11 + s12_wi_p @ s21
    loss = (s12 + s12_wi_p @ s22) @ wl
    h_n = np.hstack([direct, loss])
    return StaticTransfer(h_n=h_n, p_n=p_n, n_nopas=n, coeffs=coeffs)


def invert_elimination(m: np.ndarray) -> np.ndarray:
    """Inverse of an elimination matrix; a singular one is an ill-posed loop."""
    try:
        return inverse(m)
    except SingularMatrixError as exc:
        raise WellPosednessError(
            "static loop elimination is singular; the finite-bandwidth system "
            f"is unstable or marginally stable ({exc})"
        ) from exc


def elimination_matrix(coeffs: StaticCoefficients, net: PassiveNetwork) -> np.ndarray:
    """The matrix I - S22 (I (x) W12) whose inverse closes the static loop.

    S22 (I (x) W12) applies W12 to each 4-column block of S22, one batched
    4 x 4 product, without forming the block-diagonal factor.
    """
    w12, _ = w_blocks(coeffs)
    dim = 4 * net.n_nopas
    s22_wi = (net.blocks.s22.reshape(dim, net.n_nopas, 4) @ w12).reshape(dim, dim)
    return np.eye(dim) - s22_wi
