"""Finite-bandwidth closed-loop model of N NOPAs behind a passive network.

State vector: the 4N cavity quadratures [q_a1, p_a1, q_b1, p_b1, ...].
Input vector: the 4 external vacuum quadratures followed by the 4N loss
quadratures.  Output vector: the 4 quadratures of the two external fields.

Closing the loop takes L = (I - S22)^{-1}.  The paper's chain has it in
closed form from its two rails (``_chain_reach``), with no LAPACK call;
every other network inverts I - S22.  ``build_closed_loop`` gives A, B, C
and D, and ``stability`` builds only the drift A, over L itself.

On the chain ``stability`` builds nothing: the spectrum has a closed-form
characteristic equation, solved in O(N) time and memory with no LAPACK
call.  A never mixes q with p, and its p half has the q half's spectrum
(see ``linalg``), so each pole appears twice.  With r = epsilon/gamma
and the rails ordered a_1..a_N, b_1..b_N, the q half is
-(kappa/2) I - (gamma/2) M, with M = [[C, -r I], [-r I, C^T]] and
C = (I + S)(I - S)^{-1} (1 on its diagonal, 2 below it; S the down-shift).
Loss is only the shift -kappa/2: the eigenvalues are
lambda = -kappa/2 - (gamma/2) nu over the 2N eigenvalues nu of M.

det(M - nu) is the continuant of a symmetric tridiagonal matrix: first
diagonal entry (1 - nu)^2 - r^2, the others 2(1 + nu^2 - r^2), and
1 - nu^2 + r^2 off the diagonal.  Put cos theta = (1 + nu^2 - r^2) /
(1 - nu^2 + r^2); its Chebyshev form gives the poles as the roots of
tan(theta/2) = sigma r sin(N theta), with nu = sigma r cos(N theta) and
sigma = +-1.  The 2N distinct nu fall into N + 1 cells:
  - cell j = 1..N-1 (sigma = (-1)^j) holds two roots, with
    theta = (j pi + psi)/N, r sin psi = tan(theta/2) and nu = r cos psi:
    a conjugate pair, with |Re psi| < pi/2, or, far past the stability
    bound, two real roots with 0 < psi < pi;
  - cell 0 (sigma = +1) holds one real nu, with theta real or imaginary;
    it is solved in tau = theta^2, which is smooth where the root passes
    through theta = 0 (at rN = 1/2; elsewhere theta = 0 is no root);
  - cell N holds one real nu: theta = pi + i t, coth(t/2) = r sinh(N t)
    and nu = r cosh(N t).
Each cell's roots come from Newton's method, all inner cells at once.  At
r = 0, M is a Jordan block, and every eigenvalue is -(gamma + kappa)/2.
Before the poles are returned, every root must lie in its cell, be finite
and have converged, and sum nu must equal tr M = 2N to rounding.  If any
check fails, the spectrum falls back to one LAPACK call: reversed, with
its rails swapped (a_j <-> b_{N+1-j}), the chain is the same chain, so
the orthogonal [[I, I], [J, -J]] / sqrt 2 (J the exchange matrix) splits
the q half of A into X + Y J and X - Y J, two matrices of order N whose
spectra come from one ``eigenvalues`` call on their stack.  That route is
also the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    PoleError,
    SingularMatrixError,
    StabilityError,
    WellPosednessError,
)
from .linalg import eigenvalues, inverse, solve_shifted
from .network import NopaParams, PassiveNetwork, _cfb_wiring


@dataclass(frozen=True)
class StateSpace:
    """Real (A, B, C, D) realization of the closed-loop system, with the NOPAs and network it closes.

    ``squeezing_spectrum`` takes its Hurwitz verdict from ``params`` and
    ``network``, not from ``a``: a copy with another ``a`` keeps the verdict
    of the loop that ``build_closed_loop`` closed.
    """

    a: np.ndarray  # 4N x 4N
    b: np.ndarray  # 4N x (4 + 4N)
    c: np.ndarray  # 4 x 4N
    d: np.ndarray  # 4 x (4 + 4N)
    params: NopaParams = field(compare=False)
    network: PassiveNetwork = field(compare=False)


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
    return StateSpace(a=_drift(loop, p.gamma, build_a1(p)), b=b, c=c, d=d, params=p, network=net)


def stability(p: NopaParams, net: PassiveNetwork) -> StabilityReport:
    """Hurwitz verdict for the closed loop, with the full spectrum attached.

    On the chain the 4N eigenvalues come from its characteristic equation,
    tan(theta/2) = +-r sin(N theta), one root per cell, shifted by the loss
    (module docstring).  The split X +- Y J of A's q half is the fallback
    when a check of those roots fails.  Every other network builds the
    drift A of ``build_closed_loop``, with its bytes, over L, and takes its
    spectrum.
    """
    if _is_chain(net):
        spec = _chain_spectrum(p, net.n_nopas)
    else:
        spec = eigenvalues(_drift(_loop(net), p.gamma, build_a1(p)))
    abscissa = float(np.max(spec.real))
    return StabilityReport(
        stable=bool(abscissa < 0), eigenvalues=spec, spectral_abscissa=abscissa
    )


def _chain_spectrum(p: NopaParams, n: int) -> np.ndarray:
    """The chain's 4N eigenvalues: -kappa/2 - (gamma/2) nu over M's 2N poles nu, twice."""
    r = p.epsilon / p.gamma
    if r == 0.0:  # M is a Jordan block with nu = 1: A is triangular with -(gamma + kappa)/2 on it
        return np.full(4 * n, -(p.gamma + p.kappa) / 2.0, dtype=complex)
    nu = _chain_poles(r, n)
    if nu is None:
        return _split_spectrum(p, n)
    half = -p.kappa / 2.0 - p.gamma / 2.0 * nu
    return np.concatenate([half, half])


def _split_spectrum(p: NopaParams, n: int) -> np.ndarray:
    """The chain's spectrum from A's q half split in X + Y J and X - Y J: one LAPACK call."""
    q = _drift(_chain_reach(n), p.gamma, build_a1(p)[0::2, 0::2])
    x, yj = q[:n, :n], q[:n, n:][:, ::-1]
    return np.concatenate([eigenvalues(np.stack([x + yj, x - yj])).reshape(-1)] * 2)


# Newton steps allowed for one root of the chain's characteristic equation
_NEWTON_STEPS = 50
_EPS = float(np.finfo(float).eps)


def _chain_poles(r: float, n: int):
    """M's 2N eigenvalues nu for r > 0 (module docstring), or None when a check fails."""
    try:
        first, last = _first_pole(r, n), _last_pole(r, n)
    except (ArithmeticError, ValueError):  # math overflowed, or a log met a non-positive number
        return None
    with np.errstate(all="ignore"):  # a non-finite root fails the checks below
        inner = _inner_poles(r, n)
    if first is None or last is None or inner is None:
        return None
    nu = np.concatenate([[first, last], inner])
    return nu if _trace_holds(nu, n) else None


def _trace_holds(nu: np.ndarray, n: int) -> bool:
    """sum nu = tr M = 2N to the rounding of 2N roots, each good to a few ulps.

    A root that is not finite makes the sum inf or NaN, which fails too.
    """
    error = abs(complex(nu.sum()) - 2 * n)
    return math.isfinite(error) and error <= 32 * n * _EPS * float(np.abs(nu).max())


def _newton(step, x: float, scale):
    """Apply x -= step(x) until a correction is within 8 ulps of scale(x); None if none is."""
    for _ in range(_NEWTON_STEPS):
        dx = step(x)
        x -= dx
        if abs(dx) <= 8 * _EPS * scale(x):
            return x
    return None


def _first_pole(r: float, n: int):
    """Cell 0's nu, from the root tau = theta^2 < (pi/N)^2 of K = ln(r sin(N theta) / tan(theta/2)).

    K(tau) is concave and decreasing: in the product forms of
    sin(N theta)/theta and tan(theta/2)/theta each factor adds a term
    +-ln(1 - a tau), and each convex term (from tan's numerator) is
    outweighed by the sine's term of the same index.  So Newton from
    tau = 0 overshoots the root at most once, then descends to it.  Where
    |tau| N^2 < 1e-3 the slope is its series, whose first dropped term is
    below 1e-6 relative there; beyond, the closed form loses < 1e-12.

    K carries a few ulps of rounding, so at its root a correction is that
    rounding over |slope|.  Near rN = 1/2, where the root's |tau| is small
    next to 1/N^2, this can exceed the 8-ulp stop, and Newton would cycle
    between two tau.  So once K is zero to its rounding (8 ulps) and a
    correction no longer shrinks, tau is the root.
    """
    end = (math.pi / n) ** 2
    previous = math.inf  # the size of the last correction

    def step(tau):
        nonlocal previous
        if tau > 0:
            th = math.sqrt(tau)
            k = math.log(r * math.sin(n * th) / math.tan(th / 2))
            slope = (n / math.tan(n * th) - 1 / math.sin(th)) / (2 * th)
        elif tau < 0:
            s = math.sqrt(-tau)
            k = math.log(r * math.sinh(n * s) / math.tanh(s / 2))
            slope = (1 / math.sinh(s) - n / math.tanh(n * s)) / (2 * s)
        else:
            k = math.log(2 * r * n)
        if abs(tau) * n * n < 1e-3:
            slope = -(2 * n * n + 1) / 12 - tau * (8 * n**4 + 7) / 720
        dx = tau - min(tau - k / slope, (tau + end) / 2)  # halfway to the cell's end at most
        if abs(k) <= 8 * _EPS and abs(dx) >= previous:
            return 0.0  # Newton has met K's rounding: stop where it stands
        previous = abs(dx)
        return dx

    tau = _newton(step, 0.0, lambda tau: abs(tau) + 1 / (n * n))
    if tau is None:
        return None
    return r * (math.cos(n * math.sqrt(tau)) if tau >= 0 else math.cosh(n * math.sqrt(-tau)))


def _last_pole(r: float, n: int):
    """Cell N's nu = r cosh(N t), from the root t > 0 of ln(r sinh(N t) tanh(t/2)).

    That log is concave and increasing in t, and negative at
    t = asinh(1/r)/N (where r sinh(N t) = 1), so Newton from there climbs
    to the root without overshooting.
    """

    def step(t):
        k = math.log(r * math.sinh(n * t) * math.tanh(t / 2))
        return k / (n / math.tanh(n * t) + 1 / math.sinh(t))

    t = _newton(step, math.asinh(1 / r) / n, abs)
    return None if t is None else r * math.cosh(n * t)


def _inner_poles(r: float, n: int):
    """The 2N - 2 nu of cells j = 1..N-1, or None if a cell is left empty.

    All cells take Newton steps together on psi - arcsin(tan(theta/2)/r),
    theta = (j pi + psi)/N, from the arcsin at the middle of each cell
    (on its branch cut, taken from below), until every correction is
    within 8 ulps of N pi + max|psi|, which bounds |N theta|.  A cell whose
    psi comes out complex holds the pair {nu, conj(nu)}, nu = r cos psi; a
    cell whose psi comes out real holds two real roots (``_falling_roots``).
    """
    half_angle = np.pi / (2 * n) * np.arange(1, n)  # j pi / 2N
    psi = np.arcsin(np.tan(half_angle + np.pi / (4 * n)) / r + 0j).conj()
    tol = 8 * _EPS * (n * math.pi + float(np.abs(psi).max(initial=0.0)))
    h, c = 1 / (2 * n), 1 / (2 * n * r)
    for _ in range(_NEWTON_STEPS):
        t = np.tan(half_angle + h * psi)
        q = np.arcsin(t / r)
        step = (psi - q) / (1 - c * (1 + t * t) / np.cos(q))
        psi -= step
        if np.abs(step).max(initial=0.0) <= tol:
            break
    else:
        return None
    real = np.abs(psi.imag) <= tol
    if not (((np.abs(psi.real) < np.pi / 2) & (psi.imag < 0)) | real).all():
        return None
    nu = r * np.cos(psi)
    other = nu.conj()
    if real.any():
        rise = psi.real[real]
        fall = _falling_roots(r, n, half_angle[real], rise, tol)
        if fall is None:
            return None
        nu[real], other[real] = r * np.cos(rise), r * np.cos(fall)
    return np.concatenate([nu, other])


def _falling_roots(r: float, n: int, half_angle: np.ndarray, rise: np.ndarray, tol: float):
    """The second real psi of each cell whose psi came out real (``_inner_poles``), or None.

    Such a cell's two real roots are those of G(psi) = r sin psi -
    tan(theta/2) on 0 < psi < pi, where G is concave.  ``rise`` is the one
    where G rises.  At pi - rise, G < 0 and falls, so Newton on G from there
    descends to the other root without overshooting.  The slopes of G at
    both roots are checked, so the two are distinct.
    """
    h = 1 / (2 * n)

    def slope(psi):  # G'(psi)
        return r * np.cos(psi) - h * (1 + np.tan(half_angle + h * psi) ** 2)

    fall = np.pi - rise
    for _ in range(_NEWTON_STEPS):
        step = (r * np.sin(fall) - np.tan(half_angle + h * fall)) / slope(fall)
        fall -= step
        if np.abs(step).max() <= tol:
            break
    else:
        return None
    inside = (0 < rise) & (slope(rise) > 0) & (slope(fall) < 0) & (fall < np.pi)
    return fall if inside.all() else None


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
    giving a stack of them, one per frequency.  The resolvent is never
    formed: (i w I - A)^T X = C^T is solved for every w as one shifted
    family of A^T (``linalg.solve_shifted``), which factors at most
    ``linalg.SHIFTED_STACK_BYTES`` of it per LAPACK call, and only its q
    half when A is mirrored, as on the chain.  H = X^T B + D, with X^T B as
    one matrix product over the whole grid.  A non-finite omega raises
    ``DimensionError``.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim > 1:
        raise DimensionError(f"omega must be a scalar or a 1-d array, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise DimensionError("omega must be finite")
    try:
        x = solve_shifted(ss.a.T, 1j * w, ss.c.T)
    except SingularMatrixError as exc:
        at = w if exc.index is None else w[exc.index]
        raise StabilityError(
            f"resolvent singular at omega={float(at)}: system marginally stable ({exc})"
        ) from exc
    h = np.swapaxes(x, -1, -2).reshape(-1, ss.a.shape[0]) @ ss.b
    return h.reshape(w.shape + ss.d.shape) + ss.d


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
