"""Dense matrix kernel: condition-checked solves and inverses, spectra.

Everything here is a thin, validated wrapper around LAPACK-backed numpy
routines.  Matrices are plain ``numpy.ndarray`` objects; all functions are
pure and never mutate their arguments.  ``solve`` and ``inverse`` reject a
system whose reciprocal 1-norm condition number is below ``RCOND_MIN``.  The
test is scale-free, so it holds for entries of any magnitude and any size.
``solve`` estimates it with a probe column of its own added to the caller's.

``inverse`` and ``eigenvalues`` factor a matrix in two halves when it does
not couple even indices with odd ones: every entry of ``a[0::2, 1::2]`` and
``a[1::2, 0::2]`` is an exact zero.  Such a matrix is permutation-similar to
diag(a[0::2, 0::2], a[1::2, 1::2]), so its inverse and spectrum are those of
the two halves, and the split is exact, not an approximation.  In the
interleaved (q, p) quadrature order every real interconnect (Im S = 0) with
the real NOPA pump gives such matrices -- the closed-loop A, I - S22 and the
static elimination matrix -- because q never mixes with p.  Two LAPACK calls
of order n/2 cost about a quarter of one of order n.  A matrix that couples
the halves takes the single dense call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericalError, SingularMatrixError

# A system whose reciprocal 1-norm condition estimate is below this counts as
# singular: its solution has lost every significant digit.
RCOND_MIN = 1e-14


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d ndarray and check finiteness."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix contains non-finite entries")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _rcond(a: np.ndarray, x: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Reciprocal 1-norm condition estimate for each matrix of a stack.

    For solutions x of a x = b, ||a||_1 * max_j ||x_j||_1 / ||b_j||_1 is a
    lower bound on cond_1(a), exact when b is the identity (``b=None``), so
    the returned rcond is an upper bound.  A solution that is not finite
    gives 0 or NaN, and NaN fails every comparison with ``RCOND_MIN``.
    """
    # ufunc reductions: a transfer at one frequency is small enough for
    # call overhead to be a visible share of its time
    with np.errstate(all="ignore"):
        growth = np.add.reduce(np.abs(x), axis=-2)
        if b is not None:
            b_norms = np.add.reduce(np.abs(b), axis=-2)
            b_norms[b_norms == 0] = np.inf  # a zero column of b bounds nothing
            growth /= b_norms
        a_norm = np.maximum.reduce(np.add.reduce(np.abs(a), axis=-2), axis=-1)
        return 1.0 / (a_norm * np.maximum.reduce(growth, axis=-1))


def _raise_singular(a: np.ndarray, rcond: np.ndarray | None):
    """Raise for the worst matrix of a stack: least rcond, or zero det if LU broke down."""
    key = rcond
    if rcond is None:  # only a determinant names the singular member
        with np.errstate(all="ignore"):
            key = np.abs(np.linalg.det(a))
    worst = tuple(int(i) for i in np.unravel_index(np.argmin(key), key.shape))
    worst_rcond = 0.0 if rcond is None else float(np.nan_to_num(rcond[worst]))
    where = f" (stack index {worst})" if worst else ""
    raise SingularMatrixError(
        f"matrix is singular{where}: rcond = {worst_rcond:.3e} < {RCOND_MIN:g}",
        rcond=worst_rcond,
        index=worst or None,
    )


def _check_condition(a: np.ndarray, x: np.ndarray, b: np.ndarray | None = None):
    rcond = _rcond(a, x, b)
    if not (rcond >= RCOND_MIN).all():  # NaN fails too
        _raise_singular(a, rcond)


@lru_cache(maxsize=16)
def _probe(n: int) -> np.ndarray:
    """The probe column of ``solve`` for order n: a golden-ratio Weyl sequence in (-1, 1)."""
    z = 2.0 * np.modf((math.sqrt(5.0) - 1.0) / 2.0 * np.arange(1, n + 1))[0] - 1.0
    z.setflags(write=False)
    return z[:, None]


def solve(m, b) -> np.ndarray:
    """Solve m x = b for a square matrix or a stack of them, ``(..., n, n)``.

    ``b`` holds the right-hand sides as columns, ``(..., n, k)``, and
    broadcasts against the stack.  Raises ``SingularMatrixError`` when a
    matrix of the stack has a condition estimate (see ``_rcond``) beyond
    1 / ``RCOND_MIN``; a system with non-finite entries reads as singular.
    The estimate also takes a probe column z (``_probe``) solved with b: z has
    no symmetry of any network, so only by accident is it orthogonal to a
    near-null direction that b does not see.  Only b's columns are returned.
    """
    a = np.asarray(m)
    rhs = np.asarray(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if rhs.ndim < 2 or rhs.shape[-2] != a.shape[-1]:
        raise DimensionError(f"right-hand side of shape {rhs.shape} does not fit {a.shape}")
    n, k = rhs.shape[-2:]
    probe = _probe(n)
    if rhs.ndim > 2:
        probe = np.broadcast_to(probe, rhs.shape[:-1] + (1,))
    rhs = np.concatenate([rhs, probe], axis=-1)
    if rhs.ndim < a.ndim:
        # a leading unit axis keeps b a stack of matrices for every numpy version
        rhs = rhs.reshape((1,) * (a.ndim - rhs.ndim) + rhs.shape)
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        _raise_singular(a, None)
    _check_condition(a, x, rhs)
    return x[..., :k]


def _parity_halves(a: np.ndarray):
    """The even- and odd-index diagonal blocks of ``a`` if they are all it holds, else None."""
    if a.shape[0] < 2 or a[0::2, 1::2].any() or a[1::2, 0::2].any():
        return None
    return a[0::2, 0::2], a[1::2, 1::2]


def inverse(m) -> np.ndarray:
    """Matrix inverse, rejecting inputs with rcond below ``RCOND_MIN``.

    The inverse gives the exact 1-norm condition number, so the check costs
    two column-sum passes and no extra factorisation.  A matrix with no
    even-odd coupling is inverted as its two parity halves (see the module
    docstring); the condition check still runs on the whole matrix.
    """
    a = _require_square(as_matrix(m))
    halves = _parity_halves(a)
    try:
        if halves is None:
            x = np.linalg.inv(a)
        else:
            q_inv, p_inv = (np.linalg.inv(h) for h in halves)
            x = np.zeros(a.shape, dtype=q_inv.dtype)
            x[0::2, 0::2] = q_inv
            x[1::2, 1::2] = p_inv
    except np.linalg.LinAlgError:
        _raise_singular(a, None)
    _check_condition(a, x)
    return x


def eigenvalues(m) -> np.ndarray:
    """Full complex spectrum of a square matrix, multiplicities included.

    A matrix with no even-odd coupling (see the module docstring) returns the
    spectrum of its even-index half followed by that of its odd-index half:
    in quadrature order, the q half first.
    """
    a = _require_square(as_matrix(m))
    halves = _parity_halves(a)
    try:
        if halves is None:
            return np.linalg.eigvals(a)
        return np.concatenate([np.linalg.eigvals(h) for h in halves])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
