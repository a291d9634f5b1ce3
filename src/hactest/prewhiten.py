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

The estimator is *undefined* at some response vectors — the VAR fit can
fail (I: the response lies in span(X), the regressor matrix is rank
deficient, or its normal equations are singular or have a non-finite
solution), the recoloring matrix can be singular (II), or the bandwidth
undefined (III).  Those outcomes are data, not errors: they are returned as
typed :class:`OmegaOutcome` values, classified in the fixed precedence
(I) -> (II) -> (III).

Step 3 forms ``B W`` by one convolution per row of ``B`` rather than a loop
over the ``n - p`` lags: q convolutions, not one per score row.  That is
``n R (X'X)^{-1} Psi (X'X)^{-1} R'`` for the recolored k x k long-run
matrix ``Psi = D^{-1} Psi_white D^{-T}``, ``Psi_white = Z W Z' / (n-p)``,
in another order of the same products; ``Psi`` is formed only when it is
read.  The lag-by-lag expansion ``sum_{|i| < n-p} kappa(i / M) Gamma_i``
is kept as the test suite's oracle.  The definiteness of ``Omega`` is
exactly the row rank of ``B``, so the class is decided where ``B`` is
formed; ``B`` itself is not kept.

:class:`OmegaEngine` runs the steps on a block of responses at once: the
projection, the VAR fit, the rank and conditioning decisions, the
recoloring, ``B``, the kernel lag sum and the definiteness class are
stacked numpy calls over the block, each of which gives every response the
bits it would get alone; a step that leaves no response runs the later ones
on empty stacks.  The lag sum weighs the whole block in one kernel
evaluation and multiplies by ``B'`` in one stacked product; only its
convolution runs row by row, as no stacked form found keeps its bits.  The
bandwidth rule's sums are one ``bandwidth_sums`` call over the block's
residual stack, and ``compute_bandwidth`` decides each response from its
own sums, one call per response, which perfbench's per-layer counters
read.  One response is a block of one, so a value never depends on the
block it was evaluated in.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._linalg import EPS, numeric_rank, solve_well_conditioned, symmetrize
from .bandwidth import (BandwidthOutcome, BandwidthRule, FixedBRule, _row_weights, bandwidth_sums,
                        compute_bandwidth)
from .kernels import KernelSpec, lag_weights
from .model import RegressionProblem, check_count, check_finite

#: OmegaOutcome.status values, derived from whether there is a reason
WELL_DEFINED = "well-defined"
UNDEFINED = "undefined"

#: OmegaOutcome.reason values, in precedence order
VAR_RANK_DEFICIENT = "VarRankDeficient"
RECOLOR_SINGULAR = "RecolorSingular"
BANDWIDTH_UNDEFINED = "BandwidthUndefined"

#: OmegaOutcome.definiteness classes
POSITIVE_DEFINITE = "PositiveDefinite"
SINGULAR_NONNEG = "SingularNonneg"
ZERO = "Zero"

#: responses drawn or evaluated together as one block; bounds the memory a
#: block holds, whatever n or the number of responses
BLOCK_ROWS = 128


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth rule and VAR order p >= 1 of the covariance estimator, each
    checked here; OmegaEngine checks p and the rule's score weights against X."""

    kernel: KernelSpec
    rule: BandwidthRule
    p: int = 1

    def __post_init__(self):
        if not isinstance(self.kernel, KernelSpec):
            raise ValueError(f"kernel must be a KernelSpec, got {self.kernel!r}")
        if not isinstance(self.rule, BandwidthRule):
            raise ValueError("rule must be an AndrewsRule, NeweyWestRule or FixedBRule, "
                             f"got {self.rule!r}")
        object.__setattr__(self, "p", check_count("VAR order p", self.p))


@dataclass(frozen=True, eq=False)
class OmegaOutcome:
    """Either the assembled covariance estimate or a typed undefinedness.

    When well-defined: ``omega`` is the q x q restriction covariance,
    ``definiteness`` its class (the row rank of ``B``, which is not kept),
    ``Z`` the k x (n-p) VAR residuals, ``recolor`` the recoloring inverse
    ``(I - sum_l A_l)^{-1}``, and ``kernel`` the kernel that smoothed them.
    ``bandwidth`` carries the rule outcome: the value ``bandwidth.m`` when
    well-defined, the undefinedness sub-reason at step III.  ``status`` is
    read from ``reason``.  ``psi``, the recolored k x k long-run matrix, is
    formed from ``Z`` and ``recolor`` on first read.
    """

    reason: str | None = None
    omega: np.ndarray | None = None
    Z: np.ndarray | None = None
    recolor: np.ndarray | None = None
    bandwidth: BandwidthOutcome | None = None
    kernel: KernelSpec | None = None
    definiteness: str | None = None

    @property
    def well_defined(self) -> bool:
        return self.reason is None

    @property
    def status(self) -> str:
        return WELL_DEFINED if self.reason is None else UNDEFINED

    @cached_property
    def psi(self) -> np.ndarray | None:
        """``D^{-1} (Z W Z' / (n-p)) D^{-T}``, or None when not well-defined."""
        if not self.well_defined:
            return None
        recolor = self.recolor
        psi_white = _kernel_lag_sum(self.Z[None], self.kernel, [self.bandwidth.m])[0]
        return symmetrize(recolor @ psi_white @ recolor.T)


class OmegaBlock(NamedTuple):
    """The covariance estimate at every response of a block, as stacked arrays.

    ``reasons[i]`` is None where the estimate at response i is well-defined
    and its undefinedness reason otherwise; ``bandwidths[i]`` is the rule's
    outcome there, None when step 1 failed first.  ``defined`` indexes the
    well-defined responses in block order, and the arrays stack their
    pieces along a leading axis, in that order: the VAR residuals ``Z``,
    the recoloring inverse ``recolor`` and ``omega``; ``definiteness``
    lists their classes, read from the row rank of ``B``.
    """

    reasons: list
    bandwidths: list
    defined: list
    Z: np.ndarray
    recolor: np.ndarray
    omega: np.ndarray
    definiteness: list


class OmegaEngine:
    """Assembles the covariance estimate repeatedly for one (problem, config).

    Building it is where the pair is accepted or refused, with ValueError:
    unless 1 <= p <= n/(k+1) (so every Z has n - p >= 2 columns), unless a
    data-driven rule's ``omega`` fits k, and unless the normal equations
    ``X'X`` give finite operators ``(X'X)^{-1} X'``, the annihilator and
    ``R (X'X)^{-1}`` (they under- or overflow when X is scaled far from 1).
    It precomputes everything that depends only on the design, so Monte
    Carlo loops pay per response vector only for the data-dependent steps.
    The steps run on a block of responses at once (:meth:`outcomes`), as
    stacked numpy calls that give every response the values it would get
    alone; one response is a block of one.  Only the bandwidth rule's
    decision runs response by response, on its stacked sums, and the lag
    sum's convolution row by row.  TestEngine is this engine with the
    statistic added.
    """

    def __init__(self, problem: RegressionProblem, config: EstimatorConfig):
        X, R = problem.X, problem.R
        n, k, p = problem.n, problem.k, config.p
        if p * (k + 1) > n:
            raise ValueError(
                f"p must satisfy 1 <= p <= n/(k+1); got p = {p} with n = {n}, k = {k}"
            )
        if not isinstance(config.rule, FixedBRule):
            _row_weights(config.rule.omega, k)
        self.problem = problem
        self.config = config
        with np.errstate(all="ignore"):
            xtx = X.T @ X
            try:
                self.beta_op = np.linalg.solve(xtx, X.T)  # (X'X)^{-1} X'
                self.annihilator = np.eye(n) - X @ self.beta_op
                # R (X'X)^{-1}, q x k; a separate right-hand side, because
                # stacking it onto X' changes the solve's rounding
                self.g = np.linalg.solve(xtx, R.T).T
                # a non-finite entry of beta_op makes a column of the
                # annihilator non-finite, as X has no zero column
                formed = all(np.count_nonzero(np.isfinite(a)) == a.size
                             for a in (self.annihilator, self.g))
            except np.linalg.LinAlgError:
                formed = False
        if not formed:
            raise ValueError(
                "X: its normal equations X'X under- or overflow at this scale; "
                "rescale the design"
            )
        self._eye_k = np.eye(k)
        # below this, an OLS residual norm is indistinguishable from the
        # roundoff of projecting a vector that lies in span(X)
        self._resid_tol = max(n, k) * EPS
        # B has rank at most m - kp: see _definiteness
        self._rank_cap = max(n - p - k * p, 0)

    def _fit(self, Y: np.ndarray):
        """Step 1 at every row of Y: ``(rows, V1, A, Z, recolor, regular)``.

        ``rows`` lists the responses whose VAR fit is defined, and the
        arrays stack their fits in that order.  The fit is undefined (step
        I fails) at a response in span(X), whose residual, hence every
        score, vanishes; where the regressor matrix ``V1`` is rank
        deficient; and where its normal equations are exactly singular or
        have a non-finite solution, as when their products under- or
        overflow.  ``regular`` is False where ``I - sum_l A_l`` is
        numerically singular; ``recolor`` is NaN there.  The estimate
        reads only ``Z`` and ``recolor``; the regressors ``V1`` and
        coefficients ``A`` are returned so that the fit itself can be
        checked.
        """
        X = self.problem.X
        n, k, p = self.problem.n, self.problem.k, self.config.p
        U = np.matvec(self.annihilator, Y)
        tol = self._resid_tol
        rows = [i for i, (u, y) in enumerate(zip(_norms(U), _norms(Y))) if not u <= tol * y]
        if len(rows) < len(Y):
            U = U[rows]
        V = X.T * U[:, None, :]
        V1 = np.concatenate([V[:, :, p - l : n - l] for l in range(1, p + 1)], axis=1)
        Vp = V[:, :, p:]
        # normal equations, not an SVD solve: structurally-zero cross
        # products must give an exactly zero coefficient block
        A = _solve_each(V1 @ V1.swapaxes(1, 2), V1 @ Vp.swapaxes(1, 2))
        fits = [rank >= k * p and finite for rank, finite in
                zip(numeric_rank(V1), np.isfinite(A).all(axis=(1, 2)).tolist())]
        if not all(fits):
            rows = [i for i, fit in zip(rows, fits) if fit]
            V1, Vp, A = V1[fits], Vp[fits], A[fits]
        A = A.swapaxes(1, 2)
        D = self._eye_k - np.add.reduce(A.reshape(len(rows), k, p, k), axis=2)
        recolor, regular = solve_well_conditioned(D, self._eye_k)
        return rows, V1, A, Vp - A @ V1, recolor, regular

    def outcomes(self, Y) -> OmegaBlock:
        """Run the three steps at every row of a (b x n) response block, the
        one place a response is checked: ValueError, naming y, unless Y is
        finite and b x n.  Undefinedness keeps its precedence (I) -> (II) ->
        (III) row by row; the bandwidth rule's sums are one stacked call, and
        its decision reads each response's own.
        """
        config = self.config
        n, p = self.problem.n, config.p
        Y = check_finite("y", Y)
        if Y.ndim != 2:
            raise ValueError(f"y must be a (b, n) block with n = {n}, got {Y.ndim} axes")
        if Y.shape[1] != n:
            raise ValueError(f"y has length {Y.shape[1]}, expected n = {n}")
        rows, _, _, Z, recolor, regular = self._fit(Y)
        reasons = [VAR_RANK_DEFICIENT] * len(Y)
        bandwidths = [None] * len(Y)
        keep, ms = [], []
        sums = bandwidth_sums(config.rule, Z, n)
        for j, (i, ok) in enumerate(zip(rows, regular)):
            if not ok:
                reasons[i] = RECOLOR_SINGULAR
                continue
            bw = compute_bandwidth(config.rule, sums[j], n, p)
            bandwidths[i] = bw
            if bw.is_defined:
                reasons[i] = None
                keep.append(j)
                ms.append(bw.m)
            else:
                reasons[i] = BANDWIDTH_UNDEFINED
        if len(keep) < len(rows):
            Z, recolor = Z[keep], recolor[keep]
            rows = [rows[j] for j in keep]
        B = (self.g @ recolor) @ Z
        omega = symmetrize(n * _kernel_lag_sum(B, config.kernel, ms))
        return OmegaBlock(reasons, bandwidths, rows, Z, recolor, omega,
                          _definiteness(B, self._rank_cap))

    def outcome(self, y) -> OmegaOutcome:
        """The outcome at one response, a block of one; ValueError unless y is
        1-D, and where :meth:`outcomes` raises."""
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValueError(f"y must be a 1-D response, n = {self.problem.n}, got {y.ndim} axes")
        block = self.outcomes(y[None])
        reason, bw = block.reasons[0], block.bandwidths[0]
        if reason is not None:
            return OmegaOutcome(reason=reason, bandwidth=bw)
        return OmegaOutcome(
            omega=block.omega[0], Z=block.Z[0], recolor=block.recolor[0],
            bandwidth=bw, kernel=self.config.kernel, definiteness=block.definiteness[0],
        )


def _solve_each(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``G_i x = rhs_i`` at each matrix of a stack; NaN where ``G_i``
    is exactly singular.

    The stack is one call; only when some ``G_i`` is exactly singular,
    which fails that call, is each system solved alone, so every solution
    has the bits one call gives it.
    """
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        pass
    x = np.full(rhs.shape, np.nan)
    for i, (g, b) in enumerate(zip(G, rhs)):
        with contextlib.suppress(np.linalg.LinAlgError):
            x[i] = np.linalg.solve(g, b)
    return x


def _norms(Y: np.ndarray) -> list:
    """The 2-norm of each row, summed as one dot product per row, as
    ``np.linalg.norm`` sums a single vector."""
    return [math.sqrt(v) for v in np.vecdot(Y, Y).tolist()]


def _kernel_lag_sum(Z: np.ndarray, kernel: KernelSpec, bandwidths) -> np.ndarray:
    """sum_{|i| < m} kappa(i / M) Gamma_i = Z W Z' / m at each matrix of a stack.

    ``Z`` is a (b, r, m) stack of blocks of r rows over the m residual
    columns: the residuals themselves (k rows, for ``Psi_white``) or their
    image ``B`` (q rows, for ``Omega``).  ``bandwidths`` gives each matrix
    its M, and the weights of the whole stack are one ``lag_weights`` call.
    ``Z W`` is one convolution per row, with its matrix's symmetric weights
    cut to their last nonzero lag, so a compact kernel at a small M costs
    O(r m M), not O(r m^2); at M = 0 only lag zero survives (W is the
    identity).  The convolutions stay row by row because the stacked forms
    (an FFT sum, a Toeplitz product) sum in another order.  The products
    with ``Z'`` are one stacked call, which gives every matrix the bits it
    gets alone.
    """
    r, m = Z.shape[1:]
    ZW = np.empty_like(Z)
    for i, w in enumerate(lag_weights(kernel, m, bandwidths)):
        reach = int(w.nonzero()[0][-1])
        v = np.concatenate((w[reach:0:-1], w[: reach + 1]))
        for j in range(r):
            ZW[i, j] = np.convolve(Z[i, j], v)[reach : reach + m]
    return ZW @ Z.swapaxes(1, 2) / m


def assemble_omega(problem: RegressionProblem, y, config: EstimatorConfig) -> OmegaOutcome:
    """Run the full three-step pipeline at one response vector."""
    return OmegaEngine(problem, config).outcome(y)


def min_definite_n(k: int, q: int, p: int) -> int:
    """``p(k+1) + q``: below it B has rank at most ``n - p - kp < q`` (the
    cap of _definiteness), so the estimate is never positive definite."""
    return p * (k + 1) + q


def never_definite(n: int, k: int, q: int, p: int) -> bool:
    """True when the shape alone leaves the statistic undefined at every
    response, for every design, rule and kernel: ``n < p(k+1) + q``."""
    return n < min_definite_n(k, q, p)


def _definiteness(B: np.ndarray, cap: int) -> list:
    """The class of each B of a stack, by numeric row rank capped at ``cap``.

    The estimate is always nonnegative definite; it is singular exactly when
    ``rank(B) < q`` and zero exactly when ``B = 0``, so the SVD of B decides
    the class without eigenvalue thresholding on the assembled matrix.

    The numeric rank is additionally capped by a structural fact: the VAR
    residual rows are orthogonal to the rowspace of the kp regressor rows,
    so the true Z (hence B) has rank at most ``cap = m - kp``, m = n - p.
    Least-squares roundoff puts full-rank dust into the computed Z; in the
    undersized regime ``m - kp < q`` (where the statistic degenerates
    identically) that dust would otherwise masquerade as a positive
    definite estimate.
    """
    q = B.shape[-2]
    return [ZERO if r == 0 else SINGULAR_NONNEG if min(r, cap) < q else POSITIVE_DEFINITE
            for r in numeric_rank(B)]
