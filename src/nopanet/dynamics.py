"""Finite-bandwidth closed-loop model of N NOPAs behind a passive network.

State vector: the 4N cavity quadratures [q_a1, p_a1, q_b1, p_b1, ...].
Input vector: the 4 external vacuum quadratures followed by the 4N loss
quadratures.  Output vector: the 4 quadratures of the two external fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, SingularMatrixError, StabilityError, WellPosednessError
from .linalg import eigenvalues, inverse, kron
from .network import NopaParams, PassiveNetwork


@dataclass(frozen=True)
class StateSpace:
    """Real (A, B, C, D) realization of the closed-loop system."""

    a: np.ndarray  # 4N x 4N
    b: np.ndarray  # 4N x (4 + 4N)
    c: np.ndarray  # 4 x 4N
    d: np.ndarray  # 4 x (4 + 4N)
    n_nopas: int
    params: NopaParams


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    eigenvalues: np.ndarray
    spectral_abscissa: float


@dataclass(frozen=True)
class NopaFrequencyResponse:
    """The four transfer coefficients of a single NOPA at one frequency."""

    h1: complex
    h2: complex
    h3: complex
    h4: complex


def build_a1(p: NopaParams) -> np.ndarray:
    """Drift matrix of one NOPA: uniform decay plus q-q / p-p pump coupling."""
    g = (p.gamma + p.kappa) / 2.0
    e = p.epsilon / 2.0
    return np.array(
        [
            [-g, 0.0, e, 0.0],
            [0.0, -g, 0.0, -e],
            [e, 0.0, -g, 0.0],
            [0.0, -e, 0.0, -g],
        ]
    )


def build_closed_loop(p: NopaParams, net: PassiveNetwork) -> StateSpace:
    """Eliminate the feedback loop and return the closed-loop realization.

    The network relation xi_in = S21 xi_ext + S22 xi_out together with the
    NOPA input/output relations gives
        xi_in = (I - S22)^{-1} (S21 xi_ext + sqrt(gamma) S22 z),
    from which A, B, C, D follow.  Requires (I - S22) invertible.
    """
    n = net.n_nopas
    s11, s12, s21, s22 = net.blocks
    try:
        loop = inverse(np.eye(4 * n) - s22)
    except SingularMatrixError as exc:
        raise WellPosednessError(
            f"closed loop is ill-posed: I - S22 is singular ({exc})"
        ) from exc
    sg = math.sqrt(p.gamma)
    sk = math.sqrt(p.kappa)
    a = kron(np.eye(n), build_a1(p)) - p.gamma * loop @ s22
    b = np.hstack([-sg * loop @ s21, -sk * np.eye(4 * n)])
    c = sg * s12 @ loop
    d = np.hstack([s11 + s12 @ loop @ s21, np.zeros((4, 4 * n))])
    return StateSpace(a=a, b=b, c=c, d=d, n_nopas=n, params=p)


def stability(p: NopaParams, net: PassiveNetwork) -> StabilityReport:
    """Hurwitz verdict for the closed loop, with the full spectrum attached."""
    ss = build_closed_loop(p, net)
    spec = eigenvalues(ss.a)
    abscissa = float(np.max(spec.real))
    return StabilityReport(
        stable=bool(abscissa < 0), eigenvalues=spec, spectral_abscissa=abscissa
    )


def transfer(ss: StateSpace, omega: float) -> np.ndarray:
    """Frequency response H(i w) = C (i w I - A)^{-1} B + D."""
    dim = ss.a.shape[0]
    try:
        resolvent = inverse(1j * omega * np.eye(dim) - ss.a)
    except SingularMatrixError as exc:
        raise StabilityError(
            f"resolvent singular at omega={omega}: system marginally stable ({exc})"
        ) from exc
    return ss.c @ resolvent @ ss.b + ss.d


def scaled_response(r: float, k: float, w: float) -> NopaFrequencyResponse:
    """The four NOPA coefficients in units of gamma.

    r = epsilon/gamma, k = kappa/gamma and w = 2 omega/gamma.  This is the one
    formula for the single-NOPA response; the static (infinite bandwidth)
    coefficients are its real parts at w = 0.
    """
    denom = complex(r**2 - (1.0 + k) ** 2 + w**2, -2.0 * (1.0 + k) * w)
    if abs(denom) < 1e-12 * max(r, 1.0 + k, abs(w)) ** 2:
        raise PoleError(f"NOPA response has a pole at r={r}, k={k}, w={w}")
    root = math.sqrt(k)
    return NopaFrequencyResponse(
        h1=complex(r**2 - k**2 + 1.0 + w**2, -2.0 * k * w) / denom,
        h2=2.0 * r / denom,
        h3=2.0 * root * complex(1.0 + k, w) / denom,
        h4=2.0 * r * root / denom,
    )


def nopa_response(p: NopaParams, omega: float) -> NopaFrequencyResponse:
    """The four frequency-dependent NOPA coefficients at angular frequency omega."""
    return scaled_response(p.epsilon / p.gamma, p.kappa / p.gamma, 2.0 * omega / p.gamma)
