"""Closed-form optimal squeezing of the lossless N-NOPA feedback chain.

In the (a, b^dagger) basis one static NOPA is -Rot(2 atan(xy)), so the chain
is +-Rot(theta) with theta = 2N atan(xy): u = (-1)^N sec(theta) and
v = -tan(theta).  ``closed_form`` evaluates this rotation form.  The paper's
routes stay as its oracles: the scalar recurrences (m_k, n_k), and cofactor
determinants of the loop-elimination matrix, from closed formulas on the
recurrence values and by LU on the matrix the chain network builds.

The sign of uv selects the optimal output phase-shift configuration, and
the optimal squeezing per quadrature pair is 2 (|u| - |v|)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRecurrenceError, NumericalError, WellPosednessError
from .linalg import RCOND_MIN
from .network import PassiveNetwork
from .static_limit import StaticCoefficients, elimination_matrix, invert_elimination

# Optimal phase-shift classes, keyed by the sign of uv.
THETA_SUM_PI = "sum-is-pi"  # |theta_a + theta_b| = pi
THETA_SUM_ZERO = "sum-is-zero-or-both-pi"  # theta_a + theta_b = 0, or both = pi
THETA_INDIFFERENT = "indifferent"  # squeezing independent of the phases

RECURRENCE_GUARD = 1e-12
DETPATH_TOL = 1e-9


@dataclass(frozen=True)
class RecurrenceResult:
    """Terminal recurrence values for an N-NOPA chain."""

    m_last: float  # m_{N-1}
    n_last: float  # n_{N-1}
    n_prod: float  # prod_{k=0}^{N-2} n_k


@dataclass(frozen=True)
class ClosedFormResult:
    n_nopas: int
    u: float
    v: float
    upsilon: float  # u * v
    theta_class: str
    v_opt: float  # optimal V+ = V- per quadrature pair


def _require_chain(coeffs: StaticCoefficients, n: int):
    if coeffs.big_k != 0:
        raise ValueError("closed forms cover the lossless case only (K = 0)")
    if n < 2:
        raise ValueError(f"chain closed forms require N >= 2, got {n}")


def closed_form(coeffs: StaticCoefficients, n: int) -> ClosedFormResult:
    """Optimal-squeezing summary of the lossless N-NOPA chain (N >= 2).

    With theta = 2N atan(xy), the rotation form gives u = (-1)^N / cos(theta)
    and v = -sin(theta) / cos(theta).  V_opt = 2 (|u| - |v|)^2 is evaluated as
    2 (cos(theta) / (1 + |sin(theta)|))^2, which has no cancellation.  Where
    |cos(theta)| is below ``RCOND_MIN`` * theta, the rounding scale of theta,
    the static loop is singular and ``WellPosednessError`` is raised, as
    ``static_transfer`` does.
    """
    _require_chain(coeffs, n)
    theta = 2.0 * n * math.atan(coeffs.x * coeffs.y)
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) < RCOND_MIN * theta:
        raise WellPosednessError(
            f"static chain has a pole: theta = 2N atan(xy) = {theta!r} is an odd "
            "multiple of pi/2"
        )
    u = (-1.0 if n % 2 else 1.0) / c
    v = -s / c
    upsilon = u * v
    if upsilon > 0:
        theta_class = THETA_SUM_PI
    elif upsilon < 0:
        theta_class = THETA_SUM_ZERO
    else:
        theta_class = THETA_INDIFFERENT
    return ClosedFormResult(
        n_nopas=n,
        u=u,
        v=v,
        upsilon=upsilon,
        theta_class=theta_class,
        v_opt=2.0 * (c / (1.0 + abs(s))) ** 2,
    )


def optimal_thetas(result: ClosedFormResult) -> list[tuple[float, float]]:
    """Canonical representatives of the optimal phase-shift class."""
    if result.theta_class == THETA_SUM_PI:
        return [(np.pi / 2, np.pi / 2)]
    return [(0.0, 0.0)]


# --- oracles: the paper's recurrence and determinant routes -----------------


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
    An elimination matrix that fails the condition check of
    ``static_transfer`` raises the same ``WellPosednessError``.  Returns the
    pair from the matrix route.
    """
    _require_chain(coeffs, n)
    rec = recurrences(coeffs, n)
    closed = _closed_determinants(coeffs, n, rec)
    t3 = t3_matrix(coeffs, n)
    invert_elimination(t3)
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
