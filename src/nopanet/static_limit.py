"""Infinite-bandwidth (static) model of N NOPAs behind a passive network.

In the static limit each NOPA acts as a constant 4x8 quadrature map
[W12 | W34] whose coefficients are the omega = 0 values of
``dynamics.scaled_response``; eliminating the network loop once, through
``elimination_matrix``, gives the 4 x (4 + 4N) transfer of the whole system,
exact at omega = 0.  It serves every network, lossy and custom ones too.
The elimination solves for the four output rows only; neither the inverse
of the elimination matrix nor the block-diagonal I (x) W factors are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import scaled_response
from .errors import SingularMatrixError, WellPosednessError
from .linalg import solve
from .network import PassiveNetwork

R = np.array([[1.0, 0.0], [0.0, -1.0]])
_W_TILES = np.array([[np.eye(2), R], [R, np.eye(2)]])  # the 2x2 tiles of W12 and W34


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
    """Static transfer of the closed loop."""

    h_n: np.ndarray  # 4 x (4 + 4N)
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
    if not 0 <= big_k < math.inf:  # rejects NaN too
        raise ValueError(f"K must be nonnegative and finite, got {big_k}")
    r = x * y
    h = scaled_response(r, big_k * r, 0.0)
    return StaticCoefficients(
        h1=h.h1.real, h2=h.h2.real, h3=h.h3.real, h4=h.h4.real, x=x, y=y, big_k=big_k
    )


def w_blocks(coeffs: StaticCoefficients):
    """The input-coupling and loss-coupling 4x4 blocks (W12, W34).

    W12 = [[h1 I2, h2 R], [h2 R, h1 I2]]; W34 is the same with (h3, h4).
    """
    c = coeffs
    scalars = np.array([[[c.h1, c.h2], [c.h2, c.h1]], [[c.h3, c.h4], [c.h4, c.h3]]])
    w12, w34 = (scalars[..., None, None] * _W_TILES).swapaxes(2, 3).reshape(2, 4, 4)
    return w12, w34


def single_nopa_transfer(coeffs: StaticCoefficients) -> np.ndarray:
    """Static 4x8 transfer [W12 | W34] of one NOPA (inputs then losses)."""
    w12, w34 = w_blocks(coeffs)
    return np.hstack([w12, w34])


def static_transfer(coeffs: StaticCoefficients, net: PassiveNetwork) -> StaticTransfer:
    """Static transfer of the N-NOPA loop behind an arbitrary passive network.

    H = [S11 + Y S21 | (S12 + Y S22) Wl] with Y = S12 Wi E^-1, Wi = I (x) W12,
    Wl = I (x) W34 and E = I - S22 Wi the ``elimination_matrix``.  One solve
    of E^T Y^T = (S12 Wi)^T gives Y; a singular E is an ill-posed loop
    (``WellPosednessError``).  The loss columns vanish when K = 0.
    """
    s11, s12, s21, s22 = net.blocks
    w12, w34 = w_blocks(coeffs)
    try:
        y = solve(elimination_matrix(coeffs, net).T, _blockwise(s12, w12).T).T
    except SingularMatrixError as exc:
        raise WellPosednessError(
            "static loop elimination is singular; the finite-bandwidth system "
            f"is unstable or marginally stable ({exc})"
        ) from exc
    h_n = np.hstack([s11 + y @ s21, _blockwise(s12 + y @ s22, w34)])
    return StaticTransfer(h_n=h_n, n_nopas=net.n_nopas, coeffs=coeffs)


def _blockwise(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m (I (x) w) as one batched product of each 4-column block of m with the 4 x 4 w."""
    rows, dim = m.shape
    return (m.reshape(rows, dim // 4, 4) @ w).reshape(rows, dim)


def elimination_matrix(coeffs: StaticCoefficients, net: PassiveNetwork) -> np.ndarray:
    """The matrix I - S22 (I (x) W12) whose inverse closes the static loop.

    It is written over the product S22 (I (x) W12), with the bytes of the
    formula: 0 - P off the diagonal and (0 - P) + 1 = 1 - P on it.
    """
    w12, _ = w_blocks(coeffs)
    e = _blockwise(net.blocks.s22, w12)
    np.subtract(0.0, e, out=e)
    e.reshape(-1)[:: len(e) + 1] += 1.0
    return e
