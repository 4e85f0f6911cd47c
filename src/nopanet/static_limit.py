"""Infinite-bandwidth (static) model of N NOPAs behind a passive network.

In the static limit each NOPA acts as a constant 4x8 quadrature map
[W12 | W34] whose coefficients are the omega = 0 values of
``dynamics.scaled_response``.  Closing the network loop once gives the
4 x (4 + 4N) transfer H of the whole system, exact at omega = 0.

The paper's chain (``dynamics._is_chain``) is N identical two-ports in
cascade, and its H is written down from that cascade in O(N), with no
LAPACK call and no 4N x 4N array.  A real interconnect never mixes q with
p, and the a rail runs forward while the b rail runs back, so on the q
channel NOPA j takes (a_in, b_out) on its left to (a_out, b_in) on its
right as h1 (a_out, b_in) = M (a_in, b_out) + Lam (l_a, l_b), with

    M = [[h1^2 - h2^2, h2], [-h2, 1]],
    Lam = [[h1 h3 - h2 h4, h1 h4 - h2 h3], [-h4, -h3]].

With Q = M^N, out_2 = (h1^N in_2 - Q21 in_1 - sum_j h1^(j-1) (M^(N-j) Lam l_j)_2) / Q22,
which never divides by h1, so h1 = 0 (k^2 = 1 + r^2) is covered too.  out_1
is out_2 under the chain's reversal (NOPA j <-> N + 1 - j, in_1 <-> in_2,
l_a <-> l_b), and the p rows are the q rows under D = diag(1, -1) on the
b-type ports, which is h2 -> -h2 and h4 -> -h4.  The chain is singular
where Q22 vanishes on the scale of its condition (``_chain_transfer``).

Every other network eliminates the loop through ``elimination_matrix``:
one solve for the four output rows, with neither the inverse of the
elimination matrix nor the block-diagonal I (x) W factors formed.  That
dense route is also the chain's oracle (``oracles.extract_uv`` and the
tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _is_chain, scaled_response
from .errors import SingularMatrixError, WellPosednessError
from .linalg import RCOND_MIN, solve
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

    The chain's H comes from its cascade (module docstring), in O(N).  Any
    other network takes H = [S11 + Y S21 | (S12 + Y S22) Wl] with
    Y = S12 Wi E^-1, Wi = I (x) W12, Wl = I (x) W34 and E = I - S22 Wi the
    ``elimination_matrix``: one solve of E^T Y^T = (S12 Wi)^T gives Y.  A
    singular loop is ill-posed (``WellPosednessError``) on either route.
    The loss columns vanish when K = 0.
    """
    route = _chain_transfer if _is_chain(net) else _eliminated_transfer
    return StaticTransfer(h_n=route(coeffs, net), n_nopas=net.n_nopas, coeffs=coeffs)


def _eliminated_transfer(coeffs: StaticCoefficients, net: PassiveNetwork) -> np.ndarray:
    """H by the dense elimination (``static_transfer``): any network's route, the chain's oracle."""
    s11, s12, s21, s22 = net.blocks
    w12, w34 = w_blocks(coeffs)
    try:
        y = solve(elimination_matrix(coeffs, net).T, _blockwise(s12, w12).T).T
    except SingularMatrixError as exc:
        raise WellPosednessError(
            "static loop elimination is singular; the finite-bandwidth system "
            f"is unstable or marginally stable ({exc})"
        ) from exc
    return np.hstack([s11 + y @ s21, _blockwise(s12 + y @ s22, w34)])


def _chain_transfer(coeffs: StaticCoefficients, net: PassiveNetwork) -> np.ndarray:
    """The chain's H from its cascade (module docstring), with no LAPACK call.

    One pass builds the rows (a_m, b_m) of e_2 M^m and the powers of h1, for
    m = 0 .. N, with b' = h2 a + b and a' = h1 (h1 a) - h2 b'.  That forms no
    h1^2 - h2^2: near a lossless pole it is 1 plus a small h2^2, and its
    rounding would turn every stage by the same angle, N times over.  Each
    coefficient is a ratio of terms of degree N in (M, h1, Lam), so every
    step is divided by M's spectral radius rho >= |h1|: M^m then neither
    overflows nor underflows at any N, and g = h1 / rho has |g| <= 1.

    From N = 2 on, E_q, the q half of the elimination matrix, has 1-norm
    1 + |h1| + |h2|, and N (|Q21| + |Q22|) / |Q22| estimates the 1-norm of
    its inverse (measured within a factor 2 of the exact norm, near the poles
    and at h1 ~ 1e7 alike).  Where their product reaches 1 / ``RCOND_MIN``, the
    condition that ``linalg.solve`` tests, the loop is singular
    (``WellPosednessError``), as on the dense route.  One NOPA has no
    internal wire: its E is the identity.
    """
    n = net.n_nopas
    h1, h2, h3, h4 = coeffs.h1, coeffs.h2, coeffs.h3, coeffs.h4
    trace = h1 * h1 - h2 * h2 + 1.0
    rho = max(abs(h1), 0.5 * (abs(trace) + math.sqrt(max(trace * trace - 4.0 * h1 * h1, 0.0))))
    scale = 1.0 / rho
    g = h1 * scale
    # a_m, c_m = h2 a_m + b_m = b_(m+1) / scale, and g^m, for m = 0 .. N - 1
    a_m, c_m, g_m = np.empty(n), np.empty(n), np.empty(n)
    a, b, power = 0.0, 1.0, 1.0
    for m in range(n):
        c = h2 * a + b
        a_m[m], c_m[m], g_m[m] = a, c, power
        a, b, power = (h1 * (h1 * a) - h2 * c) * scale, c * scale, power * g
    if n > 1 and not abs(b) > RCOND_MIN * n * (1.0 + abs(h1) + abs(h2)) * (abs(a) + abs(b)):
        raise WellPosednessError(
            "static loop elimination is singular; the finite-bandwidth system is unstable "
            f"or marginally stable (the chain's cascade has Q22 = {b:.3e} against "
            f"Q21 = {a:.3e}, N = {n})"
        )
    out_2 = np.empty(2 + 2 * n)  # q columns: in_1, in_2, then l_a and l_b of NOPA 1 .. N
    out_2[0], out_2[1] = -a / b, power / b
    # NOPA j's losses leave by row m = N - j, times g^(j - 1), and with c_m = h2 a_m + b_m
    # e_2 M^m Lam = (h3 h1 a_m - h4 c_m, h4 h1 a_m - h3 c_m)
    ha, c = h1 * a_m[::-1], c_m[::-1]
    losses = out_2[2:].reshape(n, 2)
    losses[:, 0], losses[:, 1] = h3 * ha - h4 * c, h4 * ha - h3 * c
    losses *= (g_m * (-scale / b))[:, None]
    out_1 = np.concatenate([out_2[1::-1], out_2[:1:-1]])  # in_1 <-> in_2, the losses reversed
    h_n = np.zeros((4, 4 + 4 * n))
    h_n[0, 0::2], h_n[2, 0::2] = out_1, out_2
    d = np.tile([1.0, -1.0], n + 1)  # D on the inputs; on the outputs it negates out_2
    h_n[1, 1::2], h_n[3, 1::2] = out_1 * d, -(out_2 * d)
    return h_n


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
