"""Shared numerical linear-algebra helpers.

Every rank decision in the package goes through :func:`numeric_rank` so the
tolerance convention (``max(shape) * machine_eps * sigma_max``, the largest
singular value scaled by the matrix size) is a single documented constant.
The engine's helpers take a stack of matrices along a leading axis, and
each matrix of a stack gets the decision it would get on its own.
"""
from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def numeric_rank(a: np.ndarray):
    """Numeric rank via SVD with threshold ``max(r, c) * eps * sigma_max``.

    ``a`` is one r x c matrix, whose rank is an int, or a (b, r, c) stack
    of them, whose ranks are a list of b ints.
    """
    a = np.asarray(a, dtype=float)
    r, c = a.shape[-2:]
    if a.size == 0:
        return 0 if a.ndim == 2 else [0] * len(a)
    if min(r, c) == 1:
        # one row or column: its only singular value is its 2-norm, which
        # clears the threshold exactly when some entry is nonzero.  That
        # holds for finite entries; a NaN or inf (or a sum that overflows)
        # goes to the SVD, which raises on NaN and counts 0 on inf
        rows = a.reshape(-1, r * c).tolist()
        if all(math.isfinite(sum(v)) for v in rows):
            ranks = [int(any(v)) for v in rows]
            return ranks[0] if a.ndim == 2 else ranks
    s = np.linalg.svd(a, compute_uv=False)
    if a.ndim == 2:
        return int(np.count_nonzero(s > max(r, c) * EPS * s[0]))
    tol = max(r, c) * EPS
    return [len([v for v in row if v > tol * row[0]]) for row in s.tolist()]


def solve_well_conditioned(a: np.ndarray, b: np.ndarray):
    """Solve ``a_i x = b`` for each regular matrix ``a_i`` of a stack ``a``.

    Returns ``(x, regular)``.  ``regular`` lists, per matrix, False where
    ``a_i`` is numerically singular: its 2-norm condition number exceeds
    ``1 / machine_eps``, so any solve would amplify roundoff past all
    significance.  ``x[i]`` is NaN there, so the caller gets a typed
    failure instead of garbage values.
    """
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    regular = [not (row[-1] == 0.0 or row[0] / row[-1] > 1.0 / EPS) for row in s.tolist()]
    if all(regular):
        return np.linalg.solve(a, b), regular
    x = np.full(a.shape[:-1] + b.shape[-1:], np.nan)
    x[regular] = np.linalg.solve(a[regular], b)
    return x, regular


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average away roundoff asymmetry of mathematically symmetric matrices."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def readonly(a: np.ndarray) -> np.ndarray:
    """An immutable float copy of ``a``, so frozen containers are safe to share.

    The copy is unconditional: the caller's own array is never frozen.
    """
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a
