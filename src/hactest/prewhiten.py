"""VAR-prewhitened long-run covariance estimation.

The estimator runs in three steps on the score series ``V = X' diag(u)`` of
OLS residuals ``u``:

1. fit a VAR(p) to ``V`` by least squares, keeping coefficient blocks
   ``A = (A_1, ..., A_p)`` and residuals ``Z``;
2. pick a (possibly data-driven) bandwidth ``M`` from ``Z``;
3. "recolor" through ``D = I - sum_l A_l`` and map to restriction space,
   ``B = R (X'X)^{-1} D^{-1} Z`` (q x (n-p)), and smooth the sample
   autocovariances of ``B`` with kernel weights ``kappa(i / M)``:
   ``Omega = (n/(n-p)) * B W B'`` with ``W`` the kernel Toeplitz weight
   matrix ``[kappa((i-j)/M)]``, never built as a matrix.

The estimator is *undefined* at some response vectors — the VAR regressor
matrix can be rank deficient (I), the recoloring matrix singular (II), or the
bandwidth undefined (III).  Those outcomes are data, not errors: they are
returned as typed :class:`OmegaOutcome` values, classified in the fixed
precedence (I) -> (II) -> (III).

Step 3 forms ``B W`` by one convolution per row of ``B`` rather than a loop
over the ``n - p`` lags: q convolutions, not one per score row.  That is
``n R (X'X)^{-1} Psi (X'X)^{-1} R'`` for the recolored k x k long-run
matrix ``Psi = D^{-1} Psi_white D^{-T}``, ``Psi_white = Z W Z' / (n-p)``,
in another order of the same products; ``Psi`` is formed only when it is
read.  The lag-by-lag expansion ``sum_{|i| < n-p} kappa(i / M) Gamma_i``
is kept as the test suite's oracle.  ``B`` is exposed because the
definiteness of ``Omega`` is exactly the row rank of ``B``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import EPS, numeric_rank, solve_well_conditioned, symmetrize
from .bandwidth import BandwidthOutcome, BandwidthRule, compute_bandwidth
from .kernels import KernelSpec, lag_weights
from .model import RegressionProblem, check_response

#: OmegaOutcome.status values
WELL_DEFINED = "well-defined"
UNDEFINED = "undefined"

#: OmegaOutcome.reason values, in precedence order
VAR_RANK_DEFICIENT = "VarRankDeficient"
RECOLOR_SINGULAR = "RecolorSingular"
BANDWIDTH_UNDEFINED = "BandwidthUndefined"

#: classify_definiteness results
POSITIVE_DEFINITE = "PositiveDefinite"
SINGULAR_NONNEG = "SingularNonneg"
ZERO = "Zero"


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth rule, and VAR order of the covariance estimator."""

    kernel: KernelSpec
    rule: BandwidthRule
    p: int = 1

    def __post_init__(self):
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise ValueError(f"VAR order p must be an integer >= 1, got {self.p}")
        object.__setattr__(self, "p", int(self.p))

    def validate_for(self, problem: RegressionProblem) -> None:
        """Check the p range constraint 1 <= p <= n/(k+1) against a problem."""
        n, k = problem.n, problem.k
        if self.p * (k + 1) > n:
            raise ValueError(
                f"p must satisfy 1 <= p <= n/(k+1); got p = {self.p} with "
                f"n = {n}, k = {k}"
            )


@dataclass(frozen=True, eq=False)
class PrewhitenFit:
    """Step-1 output: VAR regressors, coefficients, residuals, recoloring inverse.

    ``V1`` stacks the p lagged blocks of the score series (kp rows),
    ``A`` holds the coefficient blocks and ``Z`` the k VAR residual rows.
    ``recolor`` is ``(I - sum_l A_l)^{-1}``, or None when that matrix is
    numerically singular (undefinedness condition (II)).
    """

    V1: np.ndarray
    A: np.ndarray
    Z: np.ndarray
    recolor: np.ndarray | None


@dataclass(frozen=True, eq=False)
class OmegaOutcome:
    """Either the assembled covariance estimate or a typed undefinedness.

    When well-defined: ``omega`` is the q x q restriction covariance,
    ``m`` the bandwidth value, ``B`` the q x (n-p) matrix whose row rank
    determines definiteness, ``fit`` the step-1 pieces, and ``kernel`` the
    kernel that smoothed them.  ``bandwidth`` carries the rule outcome
    (including the undefinedness sub-reason when status is undefined at
    step III).  ``psi``, the recolored k x k long-run matrix, is formed on
    first read.
    """

    status: str
    reason: str | None = None
    omega: np.ndarray | None = None
    m: float | None = None
    B: np.ndarray | None = None
    fit: PrewhitenFit | None = None
    bandwidth: BandwidthOutcome | None = None
    kernel: KernelSpec | None = None

    @classmethod
    def not_defined(cls, reason: str, bandwidth: BandwidthOutcome | None = None) -> "OmegaOutcome":
        return cls(status=UNDEFINED, reason=reason, bandwidth=bandwidth)

    @property
    def well_defined(self) -> bool:
        return self.status == WELL_DEFINED

    @cached_property
    def psi(self) -> np.ndarray | None:
        """``D^{-1} (Z W Z' / (n-p)) D^{-T}``, or None when not well-defined."""
        if not self.well_defined:
            return None
        recolor = self.fit.recolor
        psi_white = _kernel_lag_sum(self.fit.Z, self.kernel, self.m)
        return symmetrize(recolor @ psi_white @ recolor.T)


class OmegaEngine:
    """Assembles the covariance estimate repeatedly for one (problem, config).

    Precomputes everything that depends only on the design so Monte Carlo
    loops pay per response vector only for the data-dependent steps.
    """

    def __init__(self, problem: RegressionProblem, config: EstimatorConfig):
        config.validate_for(problem)
        self.problem = problem
        self.config = config
        X, R = problem.X, problem.R
        n, k = problem.n, problem.k
        xtx = X.T @ X
        self.beta_op = np.linalg.solve(xtx, X.T)  # (X'X)^{-1} X'
        self.annihilator = np.eye(n) - X @ self.beta_op
        # R (X'X)^{-1}, q x k; a separate right-hand side, because stacking
        # it onto X' changes the solve's rounding
        self.g = np.linalg.solve(xtx, R.T).T
        self._eye_k = np.eye(k)
        # below this, an OLS residual norm is indistinguishable from the
        # roundoff of projecting a vector that lies in span(X)
        self._resid_tol = max(n, k) * EPS

    def beta_hat(self, y: np.ndarray) -> np.ndarray:
        return self.beta_op @ y

    def fit(self, y: np.ndarray) -> PrewhitenFit | None:
        """Run step 1 at y; None means the VAR regressor matrix is rank deficient.

        The zero-score case ``y in span(X)`` lands there because the
        residual, hence every score, vanishes.
        """
        X = self.problem.X
        n, k, p = self.problem.n, self.problem.k, self.config.p
        u = self.annihilator @ y
        if np.linalg.norm(u) <= self._resid_tol * np.linalg.norm(y):
            return None  # y in span(X): scores are exactly zero
        V = X.T * u
        V1 = np.vstack([V[:, p - l : n - l] for l in range(1, p + 1)])
        Vp = V[:, p:]
        if numeric_rank(V1) < k * p:
            return None
        # normal equations, not an SVD solve: structurally-zero cross
        # products must give an exactly zero coefficient block
        A = np.linalg.solve(V1 @ V1.T, V1 @ Vp.T).T
        D = self._eye_k - A.reshape(k, p, k).sum(axis=1)
        recolor = solve_well_conditioned(D, self._eye_k)
        Z = Vp - A @ V1
        return PrewhitenFit(V1=V1, A=A, Z=Z, recolor=recolor)

    def outcome(self, y: np.ndarray) -> OmegaOutcome:
        problem, config = self.problem, self.config
        n, p = problem.n, config.p
        fit = self.fit(y)
        if fit is None:
            return OmegaOutcome.not_defined(VAR_RANK_DEFICIENT)
        if fit.recolor is None:
            return OmegaOutcome.not_defined(RECOLOR_SINGULAR)
        bw = compute_bandwidth(config.rule, fit.Z, n, p)
        if not bw.is_defined:
            return OmegaOutcome.not_defined(BANDWIDTH_UNDEFINED, bandwidth=bw)
        B = (self.g @ fit.recolor) @ fit.Z
        omega = symmetrize(n * _kernel_lag_sum(B, config.kernel, bw.m))
        return OmegaOutcome(
            status=WELL_DEFINED, omega=omega, m=bw.m, B=B, fit=fit, bandwidth=bw,
            kernel=config.kernel,
        )


def _kernel_lag_sum(Z: np.ndarray, kernel: KernelSpec, m_value: float) -> np.ndarray:
    """sum_{|i| < m} kappa(i / M) Gamma_i = Z W Z' / m, with the M = 0 convention.

    ``Z`` is any block of rows over the m residual columns: the residuals
    themselves (k rows, for ``Psi_white``) or their image ``B`` (q rows, for
    ``Omega``).  ``Z W`` is one convolution per row with the symmetric
    weights cut to the last weighted lag, so a compact kernel at a small M
    costs O(rows m M), not O(rows m^2).  At M = 0 only the lag-zero term
    survives (W is the identity), so the sum collapses to Gamma_0.
    """
    m = Z.shape[1]
    w = lag_weights(kernel, m, m_value)
    reach = int(np.flatnonzero(w)[-1])
    v = np.concatenate((w[reach:0:-1], w[: reach + 1]))
    ZW = np.array([np.convolve(row, v)[reach : reach + m] for row in Z])
    return ZW @ Z.T / m


def assemble_omega(problem: RegressionProblem, y, config: EstimatorConfig) -> OmegaOutcome:
    """Run the full three-step pipeline at one response vector."""
    return OmegaEngine(problem, config).outcome(check_response(problem, y))


def min_definite_n(k: int, q: int, p: int) -> int:
    """``p(k+1) + q``: below it B has rank at most ``n - p - kp < q`` (the
    cap of classify_definiteness), so the estimate is never positive definite."""
    return p * (k + 1) + q


def never_definite(n: int, k: int, q: int, p: int) -> bool:
    """True when the shape alone leaves the statistic undefined at every
    response, for every design, rule and kernel: ``n < p(k+1) + q``."""
    return n < min_definite_n(k, q, p)


def classify_definiteness(outcome: OmegaOutcome) -> str:
    """Classify a well-defined estimate by the numeric row rank of B.

    The estimate is always nonnegative definite; it is singular exactly when
    ``rank(B) < q`` and zero exactly when ``B = 0``, so the SVD of B decides
    the class without eigenvalue thresholding on the assembled matrix.

    The numeric rank is additionally capped by a structural fact: the VAR
    residual rows are orthogonal to the rowspace of the kp regressor rows,
    so the true Z (hence B) has rank at most ``m - kp``.  Least-squares
    roundoff puts full-rank dust into the computed Z; in the undersized
    regime ``m - kp < q`` (where the statistic degenerates identically)
    that dust would otherwise masquerade as a positive definite estimate.
    """
    if not outcome.well_defined:
        raise ValueError("classification requires a well-defined covariance outcome")
    B = outcome.B
    rank = numeric_rank(B)
    if rank == 0:
        return ZERO
    if outcome.fit is not None:
        m = outcome.fit.Z.shape[1]
        kp = outcome.fit.V1.shape[0]
        rank = min(rank, max(m - kp, 0))
    return SINGULAR_NONNEG if rank < B.shape[0] else POSITIVE_DEFINITE
