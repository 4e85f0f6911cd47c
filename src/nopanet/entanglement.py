"""Two-mode squeezing spectra and EPR verdicts.

Both variances are traces of rotated transfer rows: with output phase
shifts (theta_a, theta_b) applied to the two external fields,
V+ = || [cos a, -sin a, cos b, -sin b] H ||^2 and
V- = || [sin a, cos a, -sin b, -cos b] H ||^2.
The pair of fields is entangled at a frequency when V+ + V- < 4 (strictly
below the shot-noise total).  V+ + V- depends on the phase sum
theta_a + theta_b only, for any 4-row H, so ``vanishing_search`` finds the
best phases exactly, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import StateSpace, stability, transfer
from .errors import DimensionError, StabilityError

SHOT_NOISE_TOTAL = 4.0

# Frequencies per batched transfer in a spectrum: bounds each batch's H and
# solutions to 64 frequencies (0.16 MB of H at N = 9) for any grid size.  The
# stack that transfer factors is bounded apart, by linalg.SHIFTED_STACK_BYTES.
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


def _variances(h, theta_a: float, theta_b: float) -> np.ndarray:
    """(V+, V-) of a 4-row transfer, or of a stack of them along the leading axes.

    The squared norms of the q and p rows of the output rotation by
    (theta_a, theta_b) applied to H.
    """
    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(theta_b), math.sin(theta_b)
    rotated = np.array([[ca, -sa, cb, -sb], [sa, ca, -sb, -cb]]) @ h
    return np.sum(rotated.real**2 + rotated.imag**2, axis=-1)


def _result(omega, theta_a: float, theta_b: float, v_plus: float, v_minus: float) -> SqueezingResult:
    total = v_plus + v_minus
    return SqueezingResult(omega, theta_a, theta_b, v_plus, v_minus, total, total < SHOT_NOISE_TOTAL)


def squeezing(h, theta_a: float = 0.0, theta_b: float = 0.0, omega: float | None = None) -> SqueezingResult:
    """Two-mode squeezing of a 4-row transfer matrix (real or complex)."""
    a = np.asarray(h)
    if a.ndim != 2 or a.shape[0] != 4:
        raise DimensionError(f"transfer must have 4 rows, got shape {a.shape}")
    return _result(omega, theta_a, theta_b, *_variances(a, theta_a, theta_b).tolist())


def squeezing_spectrum(
    ss: StateSpace,
    omegas: Sequence[float],
    theta_a: float = 0.0,
    theta_b: float = 0.0,
) -> list[SqueezingResult]:
    """Per-frequency squeezing of a stable closed loop.

    The Hurwitz verdict is ``stability``'s on ``ss.params`` and
    ``ss.network``, not a test of ``ss.a``, so a chain's comes from its
    poles.  The transfer is
    evaluated in batches of ``SPECTRUM_CHUNK`` frequencies, and V+/V- are
    the squared norms of the two rotated rows of each H.
    """
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1:
        raise DimensionError(f"omegas must be a 1-d sequence, got shape {w.shape}")
    report = stability(ss.params, ss.network)
    if not report.stable:
        raise StabilityError(
            f"system is unstable (spectral abscissa {report.spectral_abscissa:.3e}); "
            "squeezing spectra are meaningless"
        )
    variances = np.empty((len(w), 2))
    for start in range(0, len(w), SPECTRUM_CHUNK):
        part = slice(start, start + SPECTRUM_CHUNK)
        variances[part] = _variances(transfer(ss, w[part]), theta_a, theta_b)
    return [
        _result(omega, theta_a, theta_b, v_plus, v_minus)
        for omega, (v_plus, v_minus) in zip(w.tolist(), variances.tolist())
    ]


def vanishing_search(h) -> VanishingSearchResult:
    """The output phases that minimise V+ + V-, in closed form.

    With G = Re(H H^dagger), V+ + V- depends on the phase sum s = psi1 + psi2
    alone: tr G + 2 [(G02 - G13) cos s - (G03 + G12) sin s].  Its minimum is
    at s = atan2(G03 + G12, G13 - G02), split evenly between the two phases;
    when both coefficients vanish every phase pair is optimal and (0, 0) is
    returned.  ``v_total`` is evaluated at those phases rather than from the
    cancelling closed form.  ``vanished`` is True when even this minimum
    fails the entanglement criterion.
    """
    a = np.asarray(h)
    if a.ndim != 2 or a.shape[0] != 4:
        raise DimensionError(f"transfer must have 4 rows, got shape {a.shape}")
    gram = np.real(a @ a.conj().T)
    cos_coef = gram[0, 2] - gram[1, 3]
    sin_coef = gram[0, 3] + gram[1, 2]
    psi = 0.0 if cos_coef == sin_coef == 0.0 else 0.5 * math.atan2(sin_coef, -cos_coef)
    v = squeezing(a, psi, psi).v_total
    return VanishingSearchResult(
        psi1=psi, psi2=psi, v_total=v, vanished=not v < SHOT_NOISE_TOTAL
    )
