"""Two-mode squeezing spectra and EPR verdicts.

Both variances are traces of rotated transfer rows: with output phase
shifts (theta_a, theta_b) applied to the two external fields,
V+ = || [cos a, -sin a, cos b, -sin b] H ||^2 and
V- = || [sin a, cos a, -sin b, -cos b] H ||^2.
The pair of fields is entangled at a frequency when V+ + V- < 4 (strictly
below the shot-noise total).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import StateSpace, transfer
from .errors import DimensionError, StabilityError
from .linalg import eigenvalues

SHOT_NOISE_TOTAL = 4.0

# Frequencies per batched transfer in a spectrum: bounds the transient stack
# to 64 complex 4N x 4N matrices (about 3 MB at N = 9) for any grid size.
SPECTRUM_CHUNK = 64


@dataclass(frozen=True)
class SqueezingResult:
    """V+/V- at one frequency (omega=None means the static limit)."""

    omega: float | None
    theta_a: float
    theta_b: float
    v_plus: float
    v_minus: float
    v_total: float
    entangled: bool


@dataclass(frozen=True)
class VanishingSearchResult:
    psi1: float
    psi2: float
    v_total: float
    vanished: bool  # no phase pair beats the shot-noise total


def _rotation_rows(theta_a: float, theta_b: float) -> tuple[np.ndarray, np.ndarray]:
    """The q and p rows of the output rotation by (theta_a, theta_b)."""
    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(theta_b), math.sin(theta_b)
    return np.array([ca, -sa, cb, -sb]), np.array([sa, ca, -sb, -cb])


def squeezing(h, theta_a: float = 0.0, theta_b: float = 0.0, omega: float | None = None) -> SqueezingResult:
    """Two-mode squeezing of a 4-row transfer matrix (real or complex)."""
    a = np.asarray(h)
    if a.ndim != 2 or a.shape[0] != 4:
        raise DimensionError(f"transfer must have 4 rows, got shape {a.shape}")
    q_row, p_row = _rotation_rows(theta_a, theta_b)
    hq = q_row @ a
    hp = p_row @ a
    v_plus = float(np.real(np.vdot(hq, hq)))
    v_minus = float(np.real(np.vdot(hp, hp)))
    total = v_plus + v_minus
    return SqueezingResult(
        omega=omega,
        theta_a=theta_a,
        theta_b=theta_b,
        v_plus=v_plus,
        v_minus=v_minus,
        v_total=total,
        entangled=total < SHOT_NOISE_TOTAL,
    )


def squeezing_spectrum(
    ss: StateSpace,
    omegas: Sequence[float],
    theta_a: float = 0.0,
    theta_b: float = 0.0,
) -> list[SqueezingResult]:
    """Per-frequency squeezing of a stable closed loop.

    The transfer is evaluated in batches of ``SPECTRUM_CHUNK`` frequencies,
    and V+/V- are the squared norms of the two rotated rows of each H.
    """
    spec = eigenvalues(ss.a)
    if np.max(spec.real) >= 0:
        raise StabilityError(
            f"system is unstable (spectral abscissa {np.max(spec.real):.3e}); "
            "squeezing spectra are meaningless"
        )
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1:
        raise DimensionError(f"omegas must be a 1-d sequence, got shape {w.shape}")
    rows = np.stack(_rotation_rows(theta_a, theta_b))
    variances = np.empty((len(w), 2))
    for start in range(0, len(w), SPECTRUM_CHUNK):
        rotated = rows @ transfer(ss, w[start : start + SPECTRUM_CHUNK])
        variances[start : start + SPECTRUM_CHUNK] = np.sum(
            rotated.real**2 + rotated.imag**2, axis=-1
        )
    return [
        SqueezingResult(
            omega=omega,
            theta_a=theta_a,
            theta_b=theta_b,
            v_plus=v_plus,
            v_minus=v_minus,
            v_total=v_plus + v_minus,
            entangled=v_plus + v_minus < SHOT_NOISE_TOTAL,
        )
        for omega, (v_plus, v_minus) in zip(w.tolist(), variances.tolist())
    ]


def _refine_axis(a: np.ndarray, psi_fixed: float, psi0: float, step: float, axis: int) -> float:
    """Golden-section refinement of one phase around a grid minimizer."""
    # imported here: scipy takes most of the time of ``import nopanet``
    from scipy.optimize import minimize_scalar

    def objective(psi):
        args = (psi, psi_fixed) if axis == 0 else (psi_fixed, psi)
        return squeezing(a, *args).v_total

    try:
        res = minimize_scalar(
            objective,
            bracket=(psi0 - step, psi0, psi0 + step),
            method="golden",
            options={"xtol": 1e-9},
        )
    except ValueError:
        # flat objective (e.g. vacuum): bracketing fails, keep the grid point
        return psi0
    return float(res.x)


def vanishing_search(h, grid: int = 360) -> VanishingSearchResult:
    """Exhaustive phase-grid search for entanglement, with local refinement.

    Scans psi1, psi2 on a (-pi, pi] grid, then refines the best point by
    coordinate-wise golden-section to ~1e-6 rad.  ``vanished`` is True when
    even the refined minimum fails the entanglement criterion.
    """
    if grid < 8:
        raise ValueError(f"grid must be >= 8, got {grid}")
    a = np.asarray(h)
    if a.ndim != 2 or a.shape[0] != 4:
        raise DimensionError(f"transfer must have 4 rows, got shape {a.shape}")
    # V+ + V- is a quadratic form in the rotation rows; the Gram matrix of
    # the transfer rows makes the grid scan O(1) per point.
    gram = np.real(a @ a.conj().T)
    psis = -math.pi + 2.0 * math.pi * np.arange(1, grid + 1) / grid
    p1g, p2g = np.meshgrid(psis, psis, indexing="ij")
    c1, s1 = np.cos(p1g), np.sin(p1g)
    c2, s2 = np.cos(p2g), np.sin(p2g)
    wq = np.stack([c1, -s1, c2, -s2], axis=-1)
    wp = np.stack([s1, c1, -s2, -c2], axis=-1)
    totals = np.einsum("...i,ij,...j->...", wq, gram, wq) + np.einsum(
        "...i,ij,...j->...", wp, gram, wp
    )
    i1, i2 = np.unravel_index(np.argmin(totals), totals.shape)
    p1, p2 = float(psis[i1]), float(psis[i2])
    step = 2.0 * math.pi / grid
    for _ in range(3):
        p1 = _refine_axis(a, p2, p1, step, axis=0)
        p2 = _refine_axis(a, p1, p2, step, axis=1)
        step = max(step / 8.0, 1e-6)
    v = squeezing(a, p1, p2).v_total
    return VanishingSearchResult(
        psi1=p1, psi2=p2, v_total=v, vanished=not v < SHOT_NOISE_TOTAL
    )
