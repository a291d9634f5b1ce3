"""Linear model containers, the AR(1) covariance family, and exact AR(1) sampling.

The testing problem is the Gaussian linear regression ``y = X beta + u`` with
``Cov(u) = sigma^2 * Sigma`` for an unknown correlation matrix ``Sigma``, and
the hypothesis ``R beta = r``.  This module holds the problem container, the
AR(1) grid that Monte Carlo studies range over, and exact sampling from the
AR(1) correlation matrix ``Lambda(rho)`` with entries ``rho**|i-j|``.

The constant vector ``e_plus = (1, ..., 1)`` and the alternating vector
``e_minus = (-1, 1, -1, ...)`` are the rank-one limits of ``Lambda(rho)`` as
``rho -> 1`` and ``rho -> -1``; probability mass concentrates along them for
strongly dependent errors, which is what the diagnostics module probes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import numeric_rank, readonly


def check_finite(name: str, a) -> np.ndarray:
    """``a`` as a float array; ValueError naming it if any entry is NaN or inf."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite (no NaN or inf entries)")
    return a


def check_seed(seed) -> int:
    """``seed`` as an int; ValueError unless it is a nonnegative integer."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return int(seed)


def check_count(name: str, count) -> int:
    """``count`` as an int; ValueError unless it is an integer >= 1."""
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError(f"{name} must be >= 1 and an integer, got {count}")
    return int(count)


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """A linear regression with a linear hypothesis ``R beta = r``.

    Parameters
    ----------
    X : (n, k) ndarray
        Design matrix with full column rank; requires n > 2 and 1 <= k < n.
    R : (q, k) ndarray
        Restriction matrix with full row rank, 1 <= q <= k.
    r : (q,) ndarray
        Restriction value.

    Every entry must be finite.  The problem keeps read-only copies, so the
    caller's arrays stay its own.  The response y is not part of the problem:
    operations take it separately, so one problem serves many responses.
    """

    X: np.ndarray
    R: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(check_finite("X", self.X))
        R = np.atleast_2d(check_finite("R", self.R))
        r = np.atleast_1d(check_finite("r", self.r))
        n, k = X.shape
        if n <= 2:
            raise ValueError(f"need n > 2 observations, got n = {n}")
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k = {k}, n = {n}")
        if numeric_rank(X) < k:
            raise ValueError("X must have full column rank k")
        q = R.shape[0]
        if R.shape[1] != k:
            raise ValueError(f"R has {R.shape[1]} columns, expected k = {k}")
        if not 1 <= q <= k:
            raise ValueError(f"need 1 <= q <= k, got q = {q}, k = {k}")
        if numeric_rank(R) < q:
            raise ValueError("R must have full row rank q")
        if r.shape != (q,):
            raise ValueError(f"r has length {r.size}, expected q = {q}")
        object.__setattr__(self, "X", readonly(X))
        object.__setattr__(self, "R", readonly(R))
        object.__setattr__(self, "r", readonly(r))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.R.shape[0]


def check_response(problem: RegressionProblem, y) -> np.ndarray:
    """A response vector for ``problem``: finite, of length n."""
    y = np.atleast_1d(check_finite("y", y))
    if y.shape != (problem.n,):
        raise ValueError(f"y has length {y.size}, expected n = {problem.n}")
    return y


def _check_rhos(rhos) -> tuple[float, ...]:
    """``rhos`` as a non-empty tuple of distinct floats, each a scalar in
    (-1, 1); -0.0 and 0.0 are one member."""
    rhos = tuple(rhos)
    if any(np.ndim(v) != 0 for v in rhos):
        raise ValueError("AR(1) parameter rho must be a scalar, got an array")
    rhos = tuple(float(v) for v in rhos)
    if not rhos:
        raise ValueError("rho grid must be non-empty")
    for i, v in enumerate(rhos):
        if not -1.0 < v < 1.0:
            raise ValueError(f"AR(1) parameter rho must lie in (-1.0, 1), got {v}")
        if v in rhos[:i]:
            raise ValueError(f"rho grid repeats rho = {v}")
    return rhos


@dataclass(frozen=True)
class AR1Grid:
    """Covariance family {Lambda(rho) : rho in rhos}, each rho in (-1, 1)."""

    rhos: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rhos", _check_rhos(self.rhos))


def constant_vector(n: int) -> np.ndarray:
    """The all-ones vector e_plus, the rho -> 1 concentration direction."""
    return np.ones(int(n))


def alternating_vector(n: int) -> np.ndarray:
    """The vector e_minus = (-1, 1, -1, ...), the rho -> -1 direction."""
    return (-1.0) ** np.arange(1, int(n) + 1)


def _ar1_path(rho: float, z: np.ndarray) -> np.ndarray:
    """Run the exact AR(1) recursion u_1 = z_1, u_t = rho u_{t-1} + sqrt(1-rho^2) z_t.

    The recursion runs along the last axis of ``z`` and is vectorized over
    any leading axes, so one call maps a whole block of standard normal
    rows; each row's path is bitwise the one the scalar recursion gives.
    It gives Cov(u) = Lambda(rho) exactly and stays numerically stable as
    rho -> +-1, unlike factorizing a near-singular Lambda(rho).
    """
    z = np.asarray(z, dtype=float)
    out = np.sqrt(1.0 - rho * rho) * z
    out[..., 0] = z[..., 0]
    for t in range(1, out.shape[-1]):
        out[..., t] += rho * out[..., t - 1]
    return out


def null_point(problem: RegressionProblem) -> np.ndarray:
    """The minimum-norm null coefficients beta0 = R'(RR')^{-1} r.

    The null mean is ``mu0 = X beta0``.  Any null point is equivalent for
    the statistic (it is invariant under shifts inside the null set), so
    the minimum-norm choice is just a canonical representative.
    """
    R, r = problem.R, problem.r
    return readonly(R.T @ np.linalg.solve(R @ R.T, r))

