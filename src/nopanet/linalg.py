"""Dense matrix kernel: condition-checked solves and inverses, spectra.

Everything here is a thin, validated wrapper around LAPACK-backed numpy
routines.  Matrices are plain ``numpy.ndarray`` objects; all functions are
pure and never mutate their arguments.  ``solve`` and ``inverse`` reject a
system whose reciprocal 1-norm condition number is below ``RCOND_MIN``.  The
test is scale-free, so it holds for entries of any magnitude and any size.
``solve`` estimates it with a probe column of its own added to the caller's,
and ``inverse`` is ``solve`` against the identity.

``solve``, ``inverse`` and ``eigenvalues`` each make one dense LAPACK call
on what they are given.  ``solve_shifted`` solves the family (s I - m) x = b
over a grid of shifts s, at most ``SHIFTED_STACK_BYTES`` of it per LAPACK
call, and it alone uses one structural rule.  A matrix is *mirrored* when
no entry couples an even index with an odd one and its odd half
p = a[1::2, 1::2] equals D q D, with q = a[0::2, 0::2] and
D = diag(1, -1, 1, ...), compared entry by entry with no tolerance.  m is
tested once per call, and s I - m is mirrored whenever m is, so a mirrored
m writes only the family s I - q of its q half and solves q (D x) = D b
for the odd rows in the same LAPACK call as the even ones: the stack of
order n is never formed.  Sign flips are exact, so this is no
approximation, and one LAPACK call of order n/2 costs about an eighth of
one of order n.  The paper's chain has a mirrored closed-loop A in the
interleaved (q, p) quadrature order, and so mirrored resolvents i w I - A:
its real routing never mixes q with p nor the a rail with the b rail, and
its pump term ab + a^dag b^dag is unchanged by a -> i a, b -> -i b, which
flips the b signs of the q half to give the p half.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericalError, SingularMatrixError

# A system whose reciprocal 1-norm condition estimate is below this counts as
# singular: its solution has lost every significant digit.
RCOND_MIN = 1e-14

# The most bytes of shifted matrices that one LAPACK call of ``solve_shifted``
# factors: 64 complex members of order 45 or less, so every network of up to
# 11 NOPAs (order 44, or 22 at half order) keeps whole 64-frequency batches.
SHIFTED_STACK_BYTES = 2**21


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


def _square_stack(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _rcond(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reciprocal 1-norm condition estimate for each matrix of a stack.

    For solutions x of a x = b, ||a||_1 * max_j ||x_j||_1 / ||b_j||_1 is a
    lower bound on cond_1(a), exact when b holds the identity's columns, so
    the returned rcond is an upper bound.  A solution that is not finite
    gives 0 or NaN, and NaN fails every comparison with ``RCOND_MIN``.  A
    matrix of order 0 reads as perfectly conditioned.
    """
    # ufunc reductions: a transfer at one frequency is small enough for
    # call overhead to be a visible share of its time
    with np.errstate(all="ignore"):
        growth = np.add.reduce(np.abs(x), axis=-2)
        b_norms = np.add.reduce(np.abs(b), axis=-2)
        b_norms[b_norms == 0] = np.inf  # a zero column of b bounds nothing
        growth /= b_norms
        a_norm = np.maximum.reduce(np.add.reduce(np.abs(a), axis=-2), axis=-1, initial=0.0)
        return 1.0 / (a_norm * np.maximum.reduce(growth, axis=-1))


def _raise_singular(a: np.ndarray, rcond: np.ndarray | None, offset: int = 0):
    """Raise for the worst matrix of a stack: least rcond, or zero det if LU broke down.

    ``offset`` is added to the first stack index, for a stack that is one
    batch of a longer one.
    """
    key = rcond
    if rcond is None:  # only a determinant names the singular member
        with np.errstate(all="ignore"):
            key = np.abs(np.linalg.det(a))
    worst = tuple(int(i) for i in np.unravel_index(np.argmin(key), key.shape))
    if worst:
        worst = (worst[0] + offset,) + worst[1:]
    worst_rcond = 0.0 if rcond is None else float(np.nan_to_num(rcond[worst]))
    where = f" (stack index {worst})" if worst else ""
    raise SingularMatrixError(
        f"matrix is singular{where}: rcond = {worst_rcond:.3e} < {RCOND_MIN:g}",
        rcond=worst_rcond,
        index=worst or None,
    )


def _check_condition(a: np.ndarray, x: np.ndarray, b: np.ndarray):
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
    a = _square_stack(m)
    rhs = np.asarray(b)
    if rhs.ndim < 2 or rhs.shape[-2] != a.shape[-1]:
        raise DimensionError(f"right-hand side of shape {rhs.shape} does not fit {a.shape}")
    k = rhs.shape[-1]
    rhs = _probed(rhs, a.ndim)
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        _raise_singular(a, None)
    _check_condition(a, x, rhs)
    return x[..., :k]


def _probed(rhs: np.ndarray, ndim: int) -> np.ndarray:
    """[rhs | z], with z the probe of its order, and at least ``ndim`` dimensions."""
    probe = _probe(rhs.shape[-2])
    if rhs.ndim > 2:
        probe = np.broadcast_to(probe, rhs.shape[:-1] + (1,))
    rhs = np.concatenate([rhs, probe], axis=-1)
    if rhs.ndim < ndim:
        # a leading unit axis keeps b a stack of matrices for every numpy version
        rhs = rhs.reshape((1,) * (ndim - rhs.ndim) + rhs.shape)
    return rhs


def solve_shifted(m, shifts, b) -> np.ndarray:
    """Solve (s I - m) x = b for every shift s of a scalar or 1-d ``shifts``.

    ``m`` is one square matrix and ``b`` its right-hand sides, ``(n, k)``;
    the complex x stacks the solutions along ``shifts``, in the shape
    ``shifts.shape + (n, k)``.  Each batch of at most ``SHIFTED_STACK_BYTES``
    writes the family s I - m and solves it as ``solve`` solves that stack,
    bit for bit, with a ``SingularMatrixError`` whose index is into
    ``shifts``.  When m is mirrored (module docstring), a batch writes only
    the family s I - q of m's q half and makes one solve of it against
    [b_even | D b_odd], with x_odd = D times the second block.  The
    condition check then reads the 1-norm of each whole member off its q
    half, bit for bit: the odd block adds only exact zeros to q's column
    sums, and |D q D| = |q|.
    """
    a = _require_square(np.asarray(m))
    s = np.asarray(shifts)
    rhs = np.asarray(b)
    if s.ndim > 1:
        raise DimensionError(f"shifts must be a scalar or a 1-d array, got shape {s.shape}")
    if rhs.ndim != 2 or rhs.shape[0] != a.shape[0]:
        raise DimensionError(f"right-hand side of shape {rhs.shape} does not fit {a.shape}")
    rhs = _probed(rhs, 2 + s.ndim)
    q = _mirrored_half(a)
    half = a if q is None else q
    order = half.shape[0]
    per_call = max(1, SHIFTED_STACK_BYTES // (16 * max(order * order, 1)))
    xs, rconds = [], []
    for start in range(0, max(s.size, 1), per_call):
        part = s[start : start + per_call] if s.ndim else s
        stack = np.empty(part.shape + half.shape, dtype=complex)
        np.negative(half, out=stack)
        stack.reshape(part.shape + (order * order,))[..., :: order + 1] += part[..., None]
        try:
            x = np.linalg.solve(stack, rhs) if q is None else _solve_mirrored(stack, rhs)
        except np.linalg.LinAlgError:
            _raise_singular(stack, None, start)
        xs.append(x)
        rconds.append(_rcond(stack, x, rhs))
    x = xs[0] if len(xs) == 1 else np.concatenate(xs)
    rcond = rconds[0] if len(rconds) == 1 else np.concatenate(rconds)
    if not (rcond >= RCOND_MIN).all():  # NaN fails too
        _raise_singular(None, rcond)
    return x[..., :-1]


def _solve_mirrored(q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve diag(q, D q D) x = rhs for q or a stack of them, with the rows of x and rhs in parity order."""
    # rows (2i, 2i + 1) of rhs side by side are row i of [b_even | b_odd]
    batch, (m, k) = rhs.shape[:-2], (q.shape[-1], rhs.shape[-1])
    signs = _d_signs(m)[1]  # D on the odd block
    both = rhs.reshape(batch + (m, 2, k)) * signs
    y = np.linalg.solve(q, both.reshape(batch + (m, 2 * k)))
    return (y.reshape(y.shape[:-1] + (2, k)) * signs).reshape(y.shape[:-2] + (2 * m, k))


def _mirrored_half(a: np.ndarray):
    """The even-index half q of the square matrix ``a`` if it is mirrored (module docstring), else None.

    p = D q D holds when entries whose row and column have the same parity
    are equal and the others opposite: one exact comparison with p times
    that sign pattern costs a quarter of four sub-block ones at the orders
    of a short chain.  ``count_nonzero`` makes each test one C call, for the
    small matrices of a transfer at one frequency.
    """
    if len(a) < 2 or np.count_nonzero(a[0::2, 1::2]) or np.count_nonzero(a[1::2, 0::2]):
        return None
    q, p = a[0::2, 0::2], a[1::2, 1::2]
    return q if q.shape == p.shape and not np.count_nonzero(q != p * _d_signs(len(q))[0]) else None


@lru_cache(maxsize=16)
def _d_signs(m: int):
    """Sign patterns of D = diag(1, -1, 1, ...) of order m.

    (-1)^(i + j), so that D x D is x times it, and rows [1, (-1)^i] shaped
    (m, 2, 1), which apply D to the second member of each interleaved row pair.
    """
    d = 1.0 - 2.0 * (np.arange(m) % 2)
    both = np.multiply.outer(d, d), np.stack([np.ones(m), d], axis=-1)[..., None]
    for signs in both:
        signs.setflags(write=False)
    return both


def inverse(m) -> np.ndarray:
    """Matrix inverse, rejecting inputs with rcond below ``RCOND_MIN``.

    ``solve`` against the identity, so the identity's columns make the
    condition check exact in the 1-norm.  The result is a C-contiguous array
    of its own.
    """
    a = _require_square(as_matrix(m))
    return np.ascontiguousarray(solve(a, np.eye(len(a))))


def eigenvalues(m) -> np.ndarray:
    """Full complex spectrum of a square matrix or of each matrix of a stack, ``(..., n, n)``.

    Multiplicities are included, and a stack gives one row of n eigenvalues
    per matrix.
    """
    a = _square_stack(m)
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix contains non-finite entries")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
