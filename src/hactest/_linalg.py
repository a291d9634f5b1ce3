"""Shared numerical linear-algebra helpers.

Every rank decision in the package goes through :func:`numeric_rank` so the
tolerance convention (``max(shape) * machine_eps * sigma_max``, the largest
singular value scaled by the matrix size) is a single documented constant.
"""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def numeric_rank(a: np.ndarray) -> int:
    """Numeric rank via SVD with threshold ``max(shape) * eps * sigma_max``."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(a.shape) * EPS * s[0]))


def solve_well_conditioned(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve ``a x = b``, or return None when ``a`` is numerically singular.

    "Numerically singular" means the 2-norm condition number exceeds
    ``1 / machine_eps``, in which case any solve would amplify roundoff
    past all significance, so the caller gets a typed failure instead of
    garbage values.
    """
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > 1.0 / EPS:
        return None
    return np.linalg.solve(a, b)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average away roundoff asymmetry of a mathematically symmetric matrix."""
    return (a + a.T) / 2.0


def readonly(a: np.ndarray) -> np.ndarray:
    """An immutable float copy of ``a``, so frozen containers are safe to share.

    The copy is unconditional: the caller's own array is never frozen.
    """
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a
