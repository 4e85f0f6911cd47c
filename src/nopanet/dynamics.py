"""Finite-bandwidth closed-loop model of N NOPAs behind a passive network.

State vector: the 4N cavity quadratures [q_a1, p_a1, q_b1, p_b1, ...].
Input vector: the 4 external vacuum quadratures followed by the 4N loss
quadratures.  Output vector: the 4 quadratures of the two external fields.

Closing the loop takes L = (I - S22)^{-1}.  The paper's chain has it in
closed form from its two rails (``_chain_reach``), with no LAPACK call;
every other network inverts I - S22.  ``build_closed_loop`` gives A, B, C
and D, and ``stability`` builds only the drift A, over L itself.

On the chain ``stability`` builds only A's q half, of order 2N: A never
mixes q with p, and its p half has the q half's spectrum (see ``linalg``).
Reversed, with its rails swapped (a_j <-> b_{N+1-j}), the chain is the
same chain, since each pump couples a_j and b_j alike.  So the q half is
[[X, Y], [J Y J, J X J]], with J the exchange matrix, and the orthogonal
[[I, I], [J, -J]] / sqrt 2 takes it to diag(X + Y J, X - Y J): the spectra
of two matrices of order N from one LAPACK call, with no loss of accuracy.
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
from .linalg import eigenvalues, inverse, solve
from .network import NopaParams, PassiveNetwork, _cfb_wiring


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
    # A last: it is written over L
    return StateSpace(a=_drift(loop, p.gamma, build_a1(p)), b=b, c=c, d=d)


def stability(p: NopaParams, net: PassiveNetwork) -> StabilityReport:
    """Hurwitz verdict for the closed loop, with the full spectrum attached.

    Only the drift A of ``build_closed_loop`` is built, with its bytes, over
    L; on the chain only A's q half, split in two (module docstring).
    """
    if _is_chain(net):
        n = net.n_nopas
        q = _drift(_chain_reach(n), p.gamma, build_a1(p)[0::2, 0::2])
        x, yj = q[:n, :n], q[:n, n:][:, ::-1]
        spec = np.concatenate([eigenvalues(np.stack([x + yj, x - yj])).reshape(-1)] * 2)
    else:
        spec = eigenvalues(_drift(_loop(net), p.gamma, build_a1(p)))
    abscissa = float(np.max(spec.real))
    return StabilityReport(
        stable=bool(abscissa < 0), eigenvalues=spec, spectral_abscissa=abscissa
    )


def _is_chain(net: PassiveNetwork) -> bool:
    """True when ``net`` is wired as ``PassiveNetwork.cfb(net.n_nopas)``."""
    return net.wiring is not None and np.array_equal(net.wiring, _cfb_wiring(net.n_nopas))


def _loop(net: PassiveNetwork) -> np.ndarray:
    """L = (I - S22)^{-1}, or ``WellPosednessError`` if I - S22 is singular.

    The chain's L holds ``_chain_reach`` on its q and on its p rows.
    """
    n = net.n_nopas
    if _is_chain(net):
        loop = np.zeros((4 * n, 4 * n))
        loop[0::2, 0::2] = loop[1::2, 1::2] = _chain_reach(n)
        return loop
    try:
        return inverse(np.eye(4 * n) - net.blocks.s22)
    except SingularMatrixError as exc:
        raise WellPosednessError(
            f"closed loop is ill-posed: I - S22 is singular ({exc})"
        ) from exc


def _chain_reach(n: int) -> np.ndarray:
    """The chain's (I - S22)^{-1} on its 2N ports, NOPA i's a port at 2i and b port at 2i + 1.

    S22 moves a signal one NOPA on along the a rail or one back along the b
    rail, so L, the sum of its powers, is 1 where a signal leaving port j
    reaches port i (j included): a_i from a_j for i >= j, b_i from b_j for
    i <= j.
    """
    reach = np.zeros((2 * n, 2 * n))
    reach[0::2, 0::2] = np.tri(n)
    reach[1::2, 1::2] = np.tri(n).T
    return reach


def _drift(loop: np.ndarray, gamma: float, a1: np.ndarray) -> np.ndarray:
    """gamma (I - L) plus ``a1`` on each diagonal block, written over L = ``loop`` and returned.

    With L = (I - S22)^{-1} and a1 = ``build_a1``, this is the drift
    A = I (x) A1 + gamma (I - L), as L S22 = L - I, and with their q halves
    it is A's q half.  The operations are those of the formula, entry by
    entry, so A has its bytes: 0 - L off the diagonal and (0 - L) + 1 on it,
    times gamma, then a1 added to each diagonal block (off them, I (x) A1
    holds signed zeros, which leave gamma (I - L) as it is).  Every write
    indexes L itself, so L may have any memory layout.
    """
    a = np.subtract(0.0, loop, out=loop)
    diagonal = np.arange(a.shape[0])
    a[diagonal, diagonal] += 1.0
    a *= gamma
    block = diagonal.reshape(-1, len(a1))  # the indices of each NOPA's diagonal block
    a[block[:, :, None], block[:, None, :]] += a1
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
