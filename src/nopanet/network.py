"""NOPA parameters and the static passive interconnect.

The interconnect is a complex unitary of size 2(N+1) acting on the stacked
field vector [in_1, in_2, out_a_1, out_b_1, ..., out_a_N, out_b_N]; its real
quadrature form of size 4(N+1) acts on the interleaved (q, p) pairs in the
same order.  The coherent-feedback chain wiring is one named constructor;
arbitrary user-supplied unitaries are accepted and validated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, UnitarityError
from .linalg import as_matrix, kron

# Reference transmissivity rate of the outcoupling mirrors (Hz).
GAMMA_R_REF = 7.2e7
# Loss proportionality constant: kappa = K * epsilon.
K_REF = 3e6 / (math.sqrt(2) * 0.6 * GAMMA_R_REF)

UNITARITY_TOL = 1e-10

# Quadrature action of multiplication by i on one field mode.
_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class NopaParams:
    """Physical parameters of one NOPA (all rates in Hz, angular convention)."""

    epsilon: float
    gamma: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")

    @classmethod
    def from_normalized(cls, x, y, big_k=0.0, gamma_r=GAMMA_R_REF):
        """Build from the dimensionless (x, y, K) convention.

        epsilon = x * gamma_r, gamma = gamma_r / y, kappa = K * epsilon,
        with 0 <= x <= 1 (x = 0 switches the pump off) and 0 < y <= 1.
        """
        if not 0 <= x <= 1:
            raise ValueError(f"x must be in [0, 1], got {x}")
        if not 0 < y <= 1:
            raise ValueError(f"y must be in (0, 1], got {y}")
        return cls(epsilon=x * gamma_r, gamma=gamma_r / y, kappa=big_k * x * gamma_r)

    @property
    def xy(self) -> float:
        """Pump-to-damping ratio epsilon / gamma (equals x*y when normalized)."""
        return self.epsilon / self.gamma

    @property
    def big_k(self) -> float:
        """Loss proportionality kappa / epsilon (0 when pump is off)."""
        return self.kappa / self.epsilon if self.epsilon > 0 else 0.0


class Blocks(NamedTuple):
    s11: np.ndarray  # 4 x 4
    s12: np.ndarray  # 4 x 4N
    s21: np.ndarray  # 4N x 4
    s22: np.ndarray  # 4N x 4N


def cfb_topology(n: int) -> np.ndarray:
    """Complex routing matrix of the N-NOPA coherent feedback chain.

    The a-outputs cascade forward (NOPA i feeds NOPA i+1, the last one exits
    as output 1), the b-outputs cascade backward (NOPA i feeds NOPA i-1, the
    first one exits as output 2), and the two vacuum inputs enter the a-port
    of NOPA 1 and the b-port of NOPA N.  The result is a 0/1 permutation
    matrix of size 2(n+1), hence exactly unitary.
    """
    if n < 1:
        raise DimensionError(f"need at least one NOPA, got n={n}")
    m1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    m2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    dim = 2 * (n + 1)
    s = np.zeros((dim, dim))
    # [[O_{2n x 2}, I_n (x) M1], [M1, O_{2 x 2n}]]
    s[: 2 * n, 2:] += kron(np.eye(n), m1)
    s[2 * n :, :2] += m1
    # [[O_{2 x 2n}, M2], [I_n (x) M2, O_{2n x 2}]]
    s[:2, 2 * n :] += m2
    s[2:, : 2 * n] += kron(np.eye(n), m2)
    return s.astype(complex)


def unitarity_deviation(s: np.ndarray):
    """Max-entry deviation of S*S from the identity, and its location."""
    a = as_matrix(s)
    residual = np.abs(a.conj().T @ a - np.eye(a.shape[0]))
    worst = np.unravel_index(np.argmax(residual), residual.shape)
    return residual[worst], worst


def to_quadrature(s) -> np.ndarray:
    """Real quadrature form of a complex unitary field transformation.

    For a unitary S acting on m field annihilation operators, returns the
    2m x 2m real orthogonal symplectic matrix acting on the interleaved
    (q, p) quadratures: each entry s becomes the 2x2 block
    [[Re s, -Im s], [Im s, Re s]].
    """
    a = as_matrix(s)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    dev, worst = unitarity_deviation(a)
    if dev > UNITARITY_TOL:
        raise UnitarityError(
            f"input is not unitary: max |S*S - I| = {dev:.3e} at {worst}",
            deviation=dev,
            worst_index=worst,
        )
    return np.kron(a.real, np.eye(2)) + np.kron(a.imag, _QUARTER_TURN)


def partition(s_quad) -> Blocks:
    """Split a quadrature interconnect into its 4 / 4N block structure.

    Rows/columns 0..3 carry the external (output/input) quadratures, the
    remaining 4N carry the NOPA-facing ones.
    """
    a = as_matrix(s_quad)
    dim = a.shape[0]
    if a.shape[0] != a.shape[1] or dim % 4 != 0 or dim < 8:
        raise DimensionError(
            f"quadrature interconnect must be square of size 4(N+1) >= 8, got {a.shape}"
        )
    return Blocks(
        s11=a[:4, :4].copy(),
        s12=a[:4, 4:].copy(),
        s21=a[4:, :4].copy(),
        s22=a[4:, 4:].copy(),
    )


@dataclass(frozen=True)
class PassiveNetwork:
    """Validated passive interconnect with its quadrature form and blocks."""

    n_nopas: int
    s_complex: np.ndarray
    s_quad: np.ndarray
    blocks: Blocks

    @classmethod
    def from_complex(cls, s, n_nopas: int | None = None) -> "PassiveNetwork":
        """Wrap an arbitrary complex unitary interconnect of size 2(N+1)."""
        a = as_matrix(s).astype(complex)
        if a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0 or a.shape[0] < 4:
            raise DimensionError(
                f"interconnect must be square of size 2(N+1) >= 4, got {a.shape}"
            )
        n = a.shape[0] // 2 - 1
        if n_nopas is not None and n_nopas != n:
            raise DimensionError(
                f"declared N={n_nopas} inconsistent with matrix size {a.shape[0]}"
            )
        s_quad = to_quadrature(a)
        return cls(n_nopas=n, s_complex=a, s_quad=s_quad, blocks=partition(s_quad))

    @classmethod
    def cfb(cls, n: int) -> "PassiveNetwork":
        """The N-NOPA coherent feedback chain."""
        return cls.from_complex(cfb_topology(n))

    @classmethod
    def from_json(cls, path) -> "PassiveNetwork":
        """Load a user-defined interconnect from JSON.

        Expected schema: {"n_nopas": N, "matrix": [[[re, im], ...], ...]}
        with the matrix given row-major as [re, im] pairs.
        """
        with open(path) as f:
            doc = json.load(f)
        try:
            n = int(doc["n_nopas"])
            rows = doc["matrix"]
            s = np.array(
                [[complex(entry[0], entry[1]) for entry in row] for row in rows]
            )
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise DimensionError(f"malformed interconnect file {path}: {exc}") from exc
        return cls.from_complex(s, n_nopas=n)
