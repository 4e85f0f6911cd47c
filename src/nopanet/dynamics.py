"""Finite-bandwidth closed-loop model of N NOPAs behind a passive network.

State vector: the 4N cavity quadratures [q_a1, p_a1, q_b1, p_b1, ...].
Input vector: the 4 external vacuum quadratures followed by the 4N loss
quadratures.  Output vector: the 4 quadratures of the two external fields.

Closing the loop takes L = (I - S22)^{-1}.  A wiring network (a 0/1
permutation, such as the paper's chain; see ``network``) gets L by following
its wires, exactly and with no LAPACK call; every other network inverts
I - S22.  ``stability`` builds only the drift A, over L itself, and
``build_closed_loop`` gives the same A together with B, C and D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    PoleError,
    SingularMatrixError,
    StabilityError,
    WellPosednessError,
)
from .linalg import RCOND_MIN, eigenvalues, inverse, solve
from .network import NopaParams, PassiveNetwork


@dataclass(frozen=True)
class StateSpace:
    """Real (A, B, C, D) realization of the closed-loop system."""

    a: np.ndarray  # 4N x 4N
    b: np.ndarray  # 4N x (4 + 4N)
    c: np.ndarray  # 4 x 4N
    d: np.ndarray  # 4 x (4 + 4N)


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
    s11, s12, s21, _ = net.blocks
    loop = _loop(net)
    sg = math.sqrt(p.gamma)
    sk = math.sqrt(p.kappa)
    b = np.hstack([-sg * loop @ s21, -sk * np.eye(4 * n)])
    c = sg * s12 @ loop
    d = np.hstack([s11 + s12 @ loop @ s21, np.zeros((4, 4 * n))])
    return StateSpace(a=_drift(p, loop), b=b, c=c, d=d)  # A last: it is written over L


def stability(p: NopaParams, net: PassiveNetwork) -> StabilityReport:
    """Hurwitz verdict for the closed loop, with the full spectrum attached.

    Only the drift A of ``build_closed_loop`` is built, with the same bytes,
    in the memory of the loop inverse it is made from.
    """
    spec = eigenvalues(_drift(p, _loop(net)))
    abscissa = float(np.max(spec.real))
    return StabilityReport(
        stable=bool(abscissa < 0), eigenvalues=spec, spectral_abscissa=abscissa
    )


def _loop(net: PassiveNetwork) -> np.ndarray:
    """L = (I - S22)^{-1}, or ``WellPosednessError`` if I - S22 is singular.

    A wiring network follows its wires (``_wiring_loop``); every other
    network inverts I - S22.
    """
    try:
        if net.wiring is None:
            return inverse(np.eye(4 * net.n_nopas) - net.blocks.s22)
        return _wiring_loop(net.wiring, net.n_nopas)
    except SingularMatrixError as exc:
        raise WellPosednessError(
            f"closed loop is ill-posed: I - S22 is singular ({exc})"
        ) from exc


def _wiring_loop(wiring: np.ndarray, n: int) -> np.ndarray:
    """(I - S22)^{-1} of a wiring network, from its permutation, with no LAPACK call.

    Each port's output is wired to one input, so S22 has at most one 1 per
    row and column.  A path of wires starts at each external input and ends
    at an external output; when every port lies on one of the two, S22 is
    nilpotent and L is the finite sum of its powers: entry (i, j) is 1 when
    a signal leaving port j reaches port i (j itself included), else 0, so
    the ports of a path, in its order, take a lower triangle of ones.  A
    port on no path lies on a closed cycle of wires, where I - S22 is
    exactly singular: the rcond-0 error of ``inverse``.  The quadrature form
    holds the complex one twice, on the q and on the p rows.
    """
    ports = 2 * n
    succ = wiring.tolist()  # indices of S: 0 and 1 external, 2 + k port k
    reach = np.zeros((ports, ports))
    on_paths = 0
    for port in succ[:2]:
        path = []
        while port >= 2:
            path.append(port - 2)
            port = succ[port]
        reach[np.ix_(path, path)] = np.tri(len(path))
        on_paths += len(path)
    if on_paths < ports:
        raise SingularMatrixError(
            f"matrix is singular: rcond = {0.0:.3e} < {RCOND_MIN:g}", rcond=0.0
        )
    loop = np.zeros((2 * ports, 2 * ports))
    loop[0::2, 0::2] = loop[1::2, 1::2] = reach
    return loop


def _drift(p: NopaParams, loop: np.ndarray) -> np.ndarray:
    """A = I (x) A1 + gamma (I - L), written over L = ``loop`` and returned.

    With L = (I - S22)^{-1}, L S22 = L - I.  The operations are those of
    the formula, entry by entry, so A has its bytes: 0 - L off the diagonal
    and (0 - L) + 1 = 1 - L on it, times gamma, then A1 added to each
    diagonal block (off them, I (x) A1 holds signed zeros, which leave
    gamma (I - L) as it is).  Every write indexes L itself, so L may have
    any memory layout.
    """
    a = np.subtract(0.0, loop, out=loop)
    diagonal = np.arange(a.shape[0])
    a[diagonal, diagonal] += 1.0
    a *= p.gamma
    block = diagonal.reshape(-1, 4)  # the indices of each NOPA's 4 x 4 diagonal block
    a[block[:, :, None], block[:, None, :]] += build_a1(p)
    return a


def transfer(ss: StateSpace, omega) -> np.ndarray:
    """Frequency response H(i w) = C (i w I - A)^{-1} B + D.

    ``omega`` is a scalar, giving one 4 x (4 + 4N) matrix, or a 1-d array,
    giving a stack of them, one per frequency, from one batched solve that
    holds len(omega) complex 4N x 4N matrices.  The resolvent is never formed:
    (i w I - A)^T X = C^T is solved and H = X^T B + D.  A non-finite omega
    raises ``DimensionError``.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim > 1:
        raise DimensionError(f"omega must be a scalar or a 1-d array, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise DimensionError("omega must be finite")
    dim = ss.a.shape[0]
    # i w I - A^T built in place: one complex stack, no identity stack beside it
    resolvent_t = np.empty(w.shape + (dim, dim), dtype=complex)
    np.negative(ss.a.T, out=resolvent_t)
    resolvent_t.reshape(w.shape + (dim * dim,))[..., :: dim + 1] += 1j * w[..., None]
    try:
        x = solve(resolvent_t, ss.c.T)
    except SingularMatrixError as exc:
        at = w if exc.index is None else w[exc.index]
        raise StabilityError(
            f"resolvent singular at omega={float(at)}: system marginally stable ({exc})"
        ) from exc
    return np.swapaxes(x, -1, -2) @ ss.b + ss.d


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
