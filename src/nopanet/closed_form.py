"""Closed-form optimal squeezing of the lossless N-NOPA feedback chain.

In the (a, b^dagger) basis one static NOPA is -Rot(2 atan(xy)), so the chain
is +-Rot(theta) with theta = 2N atan(xy): u = (-1)^N sec(theta) and
v = -tan(theta).  ``closed_form`` evaluates this rotation form; the paper's
recurrence, determinant and brute-force routes are its oracles, in
``oracles``.

The sign of uv selects the optimal output phase-shift configuration, and
the optimal squeezing per quadrature pair is 2 (|u| - |v|)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import WellPosednessError
from .linalg import RCOND_MIN
from .static_limit import StaticCoefficients

# Optimal phase-shift classes, keyed by the sign of uv.
THETA_SUM_PI = "sum-is-pi"  # |theta_a + theta_b| = pi
THETA_SUM_ZERO = "sum-is-zero-or-both-pi"  # theta_a + theta_b = 0, or both = pi
THETA_INDIFFERENT = "indifferent"  # squeezing independent of the phases


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
        return [(math.pi / 2, math.pi / 2)]
    return [(0.0, 0.0)]
