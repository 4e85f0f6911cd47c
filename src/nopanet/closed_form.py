"""Closed-form optimal squeezing of the lossless N-NOPA feedback chain.

Two derivation routes for the chain scalars (u, v) live here:

* a pair of scalar recurrences (m_k, n_k) driven by the static coefficients,
  giving u and v directly; and
* cofactor determinants of the loop-elimination matrix, evaluated both from
  closed recursion formulas and by LU on the elimination matrix that the
  chain network builds and on its two first-row minors.

The sign of uv selects the optimal output phase-shift configuration, and
the optimal squeezing per quadrature pair is 2 (|u| - |v|)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRecurrenceError, DimensionError, NumericalError
from .linalg import determinant
from .network import PassiveNetwork
from .static_limit import StaticCoefficients, elimination_matrix

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
    n_prod_sign: int  # sign of prod n_k, kept for auditing the Upsilon forms


def _require_lossless(coeffs: StaticCoefficients):
    if coeffs.big_k != 0:
        raise ValueError("closed forms cover the lossless case only (K = 0)")


def recurrences(coeffs: StaticCoefficients, n: int) -> RecurrenceResult:
    """Iterate m_{k+1} = -h1 h2 + h1^2 m_k / n_k, n_{k+1} = 1 - h2^2 + h1 h2 m_k / n_k.

    Starts from m_1 = 0, n_0 = n_1 = 1 and returns the step-(N-1) values
    together with the running product of n_0 .. n_{N-2}.
    """
    _require_lossless(coeffs)
    if n < 2:
        raise ValueError(f"chain recurrences require N >= 2, got {n}")
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


def _uv_from_recurrence(coeffs: StaticCoefficients, n: int, rec: RecurrenceResult):
    h1, h2 = coeffs.h1, coeffs.h2
    denom = h1 * h2 * rec.m_last + rec.n_last - h2**2 * rec.n_last
    if abs(denom) < RECURRENCE_GUARD:
        raise DegenerateRecurrenceError("terminal recurrence denominator vanished")
    u = h1**n / (denom * rec.n_prod)
    v = h2 - h1**2 * (h1 * rec.m_last - h2 * rec.n_last) / denom
    return u, v


def closed_form(coeffs: StaticCoefficients, n: int) -> ClosedFormResult:
    """Optimal-squeezing summary of the lossless N-NOPA chain (N >= 2)."""
    rec = recurrences(coeffs, n)
    u, v = _uv_from_recurrence(coeffs, n, rec)
    upsilon = u * v
    if upsilon > 0:
        theta_class = THETA_SUM_PI
        v_opt = 2.0 * (u - v) ** 2
    elif upsilon < 0:
        theta_class = THETA_SUM_ZERO
        v_opt = 2.0 * (u + v) ** 2
    else:
        theta_class = THETA_INDIFFERENT
        v_opt = 2.0 * (u**2 + v**2)
    return ClosedFormResult(
        n_nopas=n,
        u=u,
        v=v,
        upsilon=upsilon,
        theta_class=theta_class,
        v_opt=v_opt,
        n_prod_sign=int(np.sign(rec.n_prod)) or 1,
    )


def optimal_thetas(result: ClosedFormResult) -> list[tuple[float, float]]:
    """Canonical representatives of the optimal phase-shift class."""
    if result.theta_class == THETA_SUM_PI:
        return [(np.pi / 2, np.pi / 2)]
    return [(0.0, 0.0)]


# --- determinant route -------------------------------------------------------
#
# The loop-elimination matrix I - S22 (I (x) W12) of the chain has
# determinant det(T3); removing its first row and its third (resp. (4N-3)-th)
# column, then padding back to square with a leading identity row/column,
# gives T1 (resp. T2).  Their determinants satisfy the same scalar recursion
# as the closed route.


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
    det_t1 = inner**2 * (-h1 * (h1 * m_l - h2 * n_l) * denom)
    det_t2 = h1 ** (n - 1) * denom * inner
    det_t3 = denom**2 * inner**2
    return det_t1, det_t2, det_t3


def determinant_path(coeffs: StaticCoefficients, n: int):
    """(u, v) via cofactor determinants, cross-checked two ways.

    Evaluates det(T1), det(T2), det(T3) both from the closed recursion
    formulas and by LU on the chain's elimination matrix and its two
    first-row minors; any relative disagreement beyond 1e-9 is an error.
    Returns the pair from the matrix route.
    """
    _require_lossless(coeffs)
    if n < 2:
        raise ValueError(f"determinant route requires N >= 2, got {n}")
    rec = recurrences(coeffs, n)
    closed = _closed_determinants(coeffs, n, rec)
    t3 = t3_matrix(coeffs, n)
    assembled = tuple(
        determinant(t) for t in (_first_row_minor(t3, 2), _first_row_minor(t3, 4 * n - 4), t3)
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
