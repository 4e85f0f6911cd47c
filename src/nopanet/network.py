"""NOPA parameters and the static passive interconnect.

The interconnect is a complex unitary of size 2(N+1) acting on the stacked
field vector [in_1, in_2, out_a_1, out_b_1, ..., out_a_N, out_b_N]; its real
quadrature form of size 4(N+1) acts on the interleaved (q, p) pairs in the
same order.  The coherent-feedback chain wiring is one named constructor;
arbitrary user-supplied unitaries are accepted and validated.

A *wiring network* is pure wiring: its S is a 0/1 permutation, as the
paper's chain is, each port wired to exactly one other.  Such an S is
unitary exactly when each row and each column holds one 1, which is decided
in O(m^2) from the entries, with no S*S product; ``PassiveNetwork`` keeps
the permutation it found (``wiring``), so that the chain is recognised by
comparing it with the chain's own in O(N).  Every other matrix, real or
complex, takes the one product S*S.

The chain is its wiring: ``PassiveNetwork.cfb`` holds N and the chain's
permutation and makes no matrix, as every chain route (the poles, the
cascade, the loop) reads only those.  S, its quadrature form and the blocks
are built on first use, for every network, by the dense routes that need
them; the chain's S then has the bytes ``cfb_topology`` writes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, UnitarityError
from .linalg import as_matrix

# Reference transmissivity rate of the outcoupling mirrors (Hz).
GAMMA_R_REF = 7.2e7
# Loss proportionality constant: kappa = K * epsilon.
K_REF = 3e6 / (math.sqrt(2) * 0.6 * GAMMA_R_REF)

UNITARITY_TOL = 1e-10

_ONE_BITS = np.float64(1.0).view(np.uint64)


@dataclass(frozen=True)
class NopaParams:
    """Physical parameters of one NOPA (all rates in Hz, angular convention)."""

    epsilon: float
    gamma: float
    kappa: float = 0.0

    def __post_init__(self):
        # chained comparisons reject NaN too
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")

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
        # checked here, so that the message names the value the caller gave
        if not 0 <= big_k < math.inf:
            raise ValueError(f"K must be nonnegative and finite, got {big_k}")
        if not 0 < gamma_r < math.inf:
            raise ValueError(f"gamma_r must be positive and finite, got {gamma_r}")
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
    matrix of size 2(n+1), hence exactly unitary: the 1 of column j sits in
    row ``_cfb_wiring(n)[j]``.
    """
    wiring = _cfb_wiring(n)
    s = np.zeros((len(wiring), len(wiring)), dtype=complex)
    s[wiring, np.arange(len(wiring))] = 1.0
    return s


@lru_cache(maxsize=16)
def _cfb_wiring(n: int) -> np.ndarray:
    """The chain's permutation, read-only, as ``PassiveNetwork.wiring`` holds it.

    Input 1 and each a output (the even columns) feed the next even row, the
    last a output wrapping round to output 1; input 2 and each b output (the
    odd columns) feed the previous odd row, input 2 wrapping round to NOPA
    N's b port.
    """
    if n < 1:
        raise DimensionError(f"need at least one NOPA, got n={n}")
    wiring = np.arange(2 * (n + 1))
    wiring[0::2] = np.roll(wiring[0::2], -1)
    wiring[1::2] = np.roll(wiring[1::2], 1)
    wiring.setflags(write=False)
    return wiring


def _wiring(a: np.ndarray):
    """The permutation of a square 0/1 permutation matrix ``a``, else None.

    ``wiring[j]`` is the row of the single 1 in column j.  The test is exact
    and O(m^2), with no product: the largest entry of each row must be 1.0
    bit for bit, in distinct columns, and the only nonzero entries.  Any
    other value, a second 1 in a row or column, or a zero with its sign bit
    set gives None.
    """
    m = a.shape[0]
    if a.shape != (m, m) or m == 0:
        return None
    pairs = np.ascontiguousarray(a, dtype=complex).view(float)  # (re, im) side by side
    rows = np.arange(m)
    cols = pairs.argmax(axis=1) // 2
    bits = pairs.view(np.uint64)
    if np.count_nonzero(bits) != m or not (bits[rows, 2 * cols] == _ONE_BITS).all():
        return None
    wiring = np.full(m, -1)
    wiring[cols] = rows
    return None if (wiring < 0).any() else wiring


def _require_unitary(a: np.ndarray) -> None:
    """Raise ``UnitarityError`` unless the product S*S is the identity within tolerance."""
    dev, worst = _gram_deviation(a)
    if dev > UNITARITY_TOL:
        raise UnitarityError(
            f"input is not unitary: max |S*S - I| = {dev:.3e} at {worst}",
            deviation=dev,
            worst_index=worst,
        )


def unitarity_deviation(s: np.ndarray):
    """Max-entry deviation of S*S from the identity, and its location.

    A 0/1 permutation (a wiring network) is exactly unitary: 0.0 at (0, 0),
    the product's own answer, without forming it.
    """
    a = as_matrix(s)
    return (0.0, (0, 0)) if _wiring(a) is not None else _gram_deviation(a)


def _gram_deviation(a: np.ndarray):
    """``unitarity_deviation`` by the product."""
    gram = a.conj().T @ a
    residual = np.abs(gram - np.eye(a.shape[0]))
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
    if _wiring(a) is None:
        _require_unitary(a)
    return _quadrature(a)


def _quadrature(a: np.ndarray) -> np.ndarray:
    """The quadrature form of a checked unitary ``a``, written row by row."""
    m = a.shape[0]
    rows = np.empty((m, 2, m), dtype=complex)  # rows 2i and 2i + 1, as (q, p) pairs
    np.conjugate(a, out=rows[:, 0], dtype=complex)  # [Re s, -Im s], -0.0 for a real s too
    rows[:, 1].real, rows[:, 1].imag = a.imag, a.real  # [Im s, Re s]
    return rows.view(float).reshape(2 * m, 2 * m)


def partition(s_quad) -> Blocks:
    """Split a quadrature interconnect into its 4 / 4N block structure.

    Rows/columns 0..3 carry the external (output/input) quadratures, the
    remaining 4N carry the NOPA-facing ones.  The blocks are views of it.
    """
    a = as_matrix(s_quad)
    dim = a.shape[0]
    if a.shape[0] != a.shape[1] or dim % 4 != 0 or dim < 8:
        raise DimensionError(
            f"quadrature interconnect must be square of size 4(N+1) >= 8, got {a.shape}"
        )
    return _blocks(a)


def _blocks(a: np.ndarray) -> Blocks:
    """``partition`` of a quadrature interconnect already known to be finite and of valid size."""
    return Blocks(s11=a[:4, :4], s12=a[:4, 4:], s21=a[4:, :4], s22=a[4:, 4:])


@dataclass(frozen=True)
class PassiveNetwork:
    """A passive interconnect: its size, its wiring and, built on first use, its matrices.

    ``wiring`` is the permutation of a wiring network (see the module
    docstring): column j of ``s_complex`` holds its 1 in row ``wiring[j]``,
    so input port j is wired to output port ``wiring[j]``.  It is None for
    every other network.  A network made from a matrix reads it off that
    matrix on construction, so it cannot disagree with it.  Made with no
    matrix, the network is the N-NOPA chain: it holds the chain's wiring,
    and ``s_complex`` is written from it on first use.  ``s_quad`` and
    ``blocks`` are built on first use for every network.
    """

    n_nopas: int
    _matrix: np.ndarray | None = field(default=None, repr=False)
    wiring: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        wiring = _cfb_wiring(self.n_nopas) if self._matrix is None else _wiring(self._matrix)
        object.__setattr__(self, "wiring", wiring)

    @cached_property
    def s_complex(self) -> np.ndarray:
        """The complex interconnect of size 2(N+1): the matrix given, or the chain's."""
        return cfb_topology(self.n_nopas) if self._matrix is None else self._matrix

    @cached_property
    def s_quad(self) -> np.ndarray:
        """The real quadrature form of ``s_complex``, of size 4(N+1)."""
        return _quadrature(self.s_complex)

    @cached_property
    def blocks(self) -> Blocks:
        """The 4 / 4N blocks of ``s_quad``, views of it."""
        return _blocks(self.s_quad)

    @classmethod
    def from_complex(cls, s, n_nopas: int | None = None) -> "PassiveNetwork":
        """Wrap an arbitrary complex unitary interconnect of size 2(N+1), checked now."""
        a = as_matrix(s).astype(complex)  # a copy, which the network then owns
        if a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0 or a.shape[0] < 4:
            raise DimensionError(
                f"interconnect must be square of size 2(N+1) >= 4, got {a.shape}"
            )
        n = a.shape[0] // 2 - 1
        if n_nopas is not None and n_nopas != n:
            raise DimensionError(
                f"declared N={n_nopas} inconsistent with matrix size {a.shape[0]}"
            )
        net = cls(n, a)
        if net.wiring is None:  # a wiring network is unitary by its counts
            _require_unitary(a)
        return net

    @classmethod
    def cfb(cls, n: int) -> "PassiveNetwork":
        """The N-NOPA coherent feedback chain: its wiring, exactly unitary, and no matrix yet."""
        return cls(n)

    @classmethod
    def from_json(cls, path) -> "PassiveNetwork":
        """Load a user-defined interconnect from JSON.

        Expected schema: {"n_nopas": N, "matrix": [[[re, im], ...], ...]}
        with the matrix given row-major as [re, im] pairs.  N is read as the
        CLI reads whole numbers (2, 2.0 and "2" are 2; 2.5 and true are
        errors), and a true or false entry is an error, not 1 or 0.
        """
        with open(path) as f:
            doc = json.load(f)
        try:
            n = _whole_number(doc["n_nopas"], "n_nopas")
            rows = doc["matrix"]
            s = np.array([[_entry(pair) for pair in row] for row in rows])
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise DimensionError(f"malformed interconnect file {path}: {exc}") from exc
        return cls.from_complex(s, n_nopas=n)


def _whole_number(value, key: str) -> int:
    """``value`` as an int if it is a whole number (not a bool), else ``DimensionError`` naming ``key``."""
    try:
        whole = not isinstance(value, bool) and float(value).is_integer()
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DimensionError(f"{key} must be a whole number, got {value!r}")
    # a JSON integer is exact as it stands; float() would round it past 2^53
    return value if isinstance(value, int) else int(float(value))


def _entry(pair) -> complex:
    """One [re, im] pair of a JSON interconnect; a bool is not a number here."""
    re, im = pair[0], pair[1]
    if isinstance(re, bool) or isinstance(im, bool):
        raise DimensionError(f"matrix entries must be numbers, got {pair!r}")
    return complex(re, im)
