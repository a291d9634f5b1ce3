"""The robust F-type statistic and the artificial-regressor adjustment.

The statistic for H0: R beta = r is the Wald-type quadratic form

    T(y) = (R beta_hat - r)' Omega_hat^{-1} (R beta_hat - r)

whenever the covariance estimate is defined and positive definite, and
T(y) = 0 otherwise — the test never rejects where its variance estimate
breaks down, which is exactly what makes the breakdown directions
(the constant and the alternating vector) diagnosable.

The adjustment appends one or both of those directions as artificial
regressors so that neither remains in a problematic position relative to
the column span, padding the restriction matrix (and any score weights)
with zeros so the hypothesis — and, under the null, the fitted statistic's
distribution target — is unchanged.
"""
from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass

import numpy as np

from ._linalg import EPS, numeric_rank, readonly
from .bandwidth import FixedBRule, resolve_omega
from .model import RegressionProblem, alternating_vector, constant_vector
from .prewhiten import (
    POSITIVE_DEFINITE,
    EstimatorConfig,
    OmegaEngine,
    OmegaOutcome,
    min_definite_n,
    never_definite,
)

#: reasons the adjustment does not apply (ScenarioSelection.reason)
REASON_ADJUSTMENT_UNNECESSARY = "adjustment-unnecessary"
REASON_HYPOTHESIS_INVOLVES_INTERCEPT = "hypothesis-involves-intercept"

#: span-membership tolerance: ||e - proj(e)|| <= MEMBERSHIP_RTOL * sqrt(n)
MEMBERSHIP_RTOL = 1e-8
#: zero test for the restriction image R beta_hat(e)
IMAGE_RTOL = 1e-8


class AdjustmentNotApplicableError(ValueError):
    """The adjustment has nothing to fix, or cannot fix this hypothesis."""


class AugmentationImpossibleError(ValueError):
    """The augmented design is too wide for n: it would not have full column
    rank, or its statistic would be undefined at every response."""


@dataclass(frozen=True, eq=False)
class TestResult:
    """The statistic at one response and the estimate it was formed from.

    ``defined`` is False when the covariance estimate ``omega`` is undefined
    or not positive definite; the statistic is 0 by convention in that case.
    ``discrepancy`` is ``R beta_hat - r`` when defined, None otherwise.  A
    decision against a critical value is the caller's: ``t_value >= C``.
    """

    t_value: float
    defined: bool
    omega: OmegaOutcome
    discrepancy: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ScenarioSelection:
    """Where the two breakdown directions sit relative to span(X).

    ``scenario`` is 1-4 when an augmentation applies and None otherwise, in
    which case ``reason`` says why.  The membership flags and restriction
    images record the geometry the decision was based on.
    """

    scenario: int | None
    reason: str | None
    kbar: int | None
    plus_in_span: bool
    minus_in_span: bool
    image_plus: np.ndarray
    image_minus: np.ndarray

    @property
    def applicable(self) -> bool:
        return self.scenario is not None


@dataclass(frozen=True, eq=False)
class AdjustedProblem:
    """Augmented problem, padded restrictions, and the matching config."""

    scenario: int
    problem: RegressionProblem
    config: EstimatorConfig
    original: RegressionProblem

    @property
    def kbar(self) -> int:
        return self.problem.k


class TestEngine(OmegaEngine):
    """The OmegaEngine that also forms the statistic, for one (problem, config).

    ``result`` evaluates one response and returns the value with the
    estimate behind it; ``t_values`` evaluates a block of responses at once
    and returns the values alone.  Both run the same stacked engine, so a
    response's value does not depend on the block it is evaluated in.
    Neither takes a critical value: comparing T with C is the caller's.
    """

    def result(self, y) -> TestResult:
        """The statistic at one response; ValueError where ``outcome`` raises."""
        y = np.asarray(y, dtype=float)
        out = self.outcome(y)
        t = 0.0
        d = None
        if out.definiteness == POSITIVE_DEFINITE:
            t, d = self._forms(out.omega, y)
            t = float(t)
        return TestResult(t_value=t, defined=d is not None, omega=out, discrepancy=d)

    def t_values(self, Y) -> np.ndarray:
        """The statistic at every row of a (b x n) response block, 0 where not
        defined; ValueError where ``outcomes`` raises."""
        Y = np.asarray(Y, dtype=float)
        block = self.outcomes(Y)
        pd = [j for j, c in enumerate(block.definiteness) if c == POSITIVE_DEFINITE]
        rows = [block.defined[j] for j in pd]
        t = np.zeros(len(Y))
        if rows:
            t[rows] = self._forms(block.omega[pd], Y[rows])[0]
        return t

    def _forms(self, omega: np.ndarray, Y: np.ndarray):
        """T and the discrepancy ``R beta_hat - r`` at the response y, or the
        stack of responses Y, whose estimates ``omega`` are positive definite."""
        beta_hat = np.matvec(self.beta_op, Y)
        d = np.matvec(self.problem.R, beta_hat) - self.problem.r
        return _quadratic_forms(omega, d), d


def _quadratic_forms(omega: np.ndarray, d: np.ndarray):
    """d' omega^{-1} d for positive definite omega, >= 0, over leading axes.

    ``omega`` is one q x q estimate or a (b, q, q) stack of them, and ``d``
    is (..., q) or (..., b, q) to match: every leading index of d is a
    further discrepancy against the same estimates.  Each is solved as its
    own single right-hand side, so a value does not depend on what else is
    in the stack.  The result has d's leading shape.
    """
    try:
        L = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        if omega.ndim > 2:
            return np.stack([_quadratic_forms(o, d[..., i, :]) for i, o in enumerate(omega)],
                            axis=-1)
        # rank-classified PD but too ill-conditioned for Cholesky: invert on
        # the numerically significant eigenspace only
        vals, vecs = np.linalg.eigh(omega)
        tol = max(vals[-1], 0.0) * omega.shape[0] * EPS
        keep = vals > tol
        proj = (vecs.T @ d[..., None])[..., keep, 0]
        return np.sum(proj**2 / vals[keep], axis=-1)
    w = np.linalg.solve(L, d[..., None])[..., 0]
    return np.vecdot(w, w)


def test_statistic(problem: RegressionProblem, y, config: EstimatorConfig) -> TestResult:
    """Evaluate the statistic once; use TestEngine for repeated evaluation."""
    return TestEngine(problem, config).result(y)


#: the boundary directions each scenario appends, in column order
_APPENDED = {
    1: (alternating_vector,),
    2: (constant_vector,),
    3: (constant_vector, alternating_vector),
    4: (constant_vector,),
}


#: each problem's boundary geometry, computed on first use.  A problem hashes
#: by identity and holds read-only copies of its arrays, so an entry never
#: goes stale, and it is freed together with its problem.
_GEOMETRY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _span_geometry(problem: RegressionProblem) -> ScenarioSelection:
    """Where e+ and e- sit relative to span(X), computed once per problem.

    For each direction: membership in span(X) and the restriction image
    R beta_hat(e).  The geometry alone settles two cases, returned as
    ``reason``: a direction inside the span with a nonzero image
    (REASON_HYPOTHESIS_INVOLVES_INTERCEPT), else both directions inside the
    span (REASON_ADJUSTMENT_UNNECESSARY).  Otherwise ``scenario`` and
    ``kbar`` name the augmentation the geometry calls for; whether n has
    room for it is select_scenario's check, made on every call.  Later
    calls on the same problem return the same read-only selection.
    """
    geometry = _GEOMETRY.get(problem)
    if geometry is None:
        geometry = _GEOMETRY[problem] = _boundary_geometry(problem)
    return geometry


def _boundary_geometry(problem: RegressionProblem) -> ScenarioSelection:
    """The one pass behind _span_geometry: two least-squares fits, and the
    rank of [X, e+, e-] when neither direction lies in the span."""
    X, R, n = problem.X, problem.R, problem.n
    r_norm = float(np.linalg.norm(R, ord=2))
    in_span, images, involved = [], [], False
    for e in (constant_vector(n), alternating_vector(n)):
        coef, *_ = np.linalg.lstsq(X, e, rcond=None)
        inside = bool(
            float(np.linalg.norm(e - X @ coef)) <= MEMBERSHIP_RTOL * float(np.sqrt(n))
        )
        image = R @ coef
        scale = max(1.0, r_norm * float(np.linalg.norm(coef)))
        image_zero = float(np.linalg.norm(image)) <= IMAGE_RTOL * scale
        involved = involved or (inside and not image_zero)
        in_span.append(inside)
        images.append(readonly(image))
    reason = scenario = kbar = None
    if involved:
        reason = REASON_HYPOTHESIS_INVOLVES_INTERCEPT
    elif all(in_span):
        reason = REASON_ADJUSTMENT_UNNECESSARY
    elif in_span[0]:
        scenario = 1
    elif in_span[1]:
        scenario = 2
    else:
        stacked = np.column_stack([X, constant_vector(n), alternating_vector(n)])
        scenario = 3 if numeric_rank(stacked) == problem.k + 2 else 4
    if scenario is not None:
        kbar = problem.k + len(_APPENDED[scenario])
    return ScenarioSelection(
        scenario=scenario,
        reason=reason,
        kbar=kbar,
        plus_in_span=in_span[0],
        minus_in_span=in_span[1],
        image_plus=images[0],
        image_minus=images[1],
    )


def select_scenario(problem: RegressionProblem) -> ScenarioSelection:
    """Decide which augmentation (if any) the design calls for.

    Scenarios: (1) the constant lies in span(X) with zero restriction image
    and the alternating vector does not — append the alternating vector;
    (2) the mirror case — append the constant; (3) neither lies in the span
    and appending both keeps full column rank — append both; (4) neither lies
    in the span but the two directions are collinear modulo the span — append
    the constant only.

    The geometry behind the decision is computed once per problem (see
    _span_geometry), and every call returns the same read-only selection.
    Raises AugmentationImpossibleError, on every call, when the augmented
    design could not have full column rank for this n.
    """
    selection = _span_geometry(problem)
    if selection.applicable and selection.kbar >= problem.n:
        raise AugmentationImpossibleError(
            f"augmented design would have kbar = {selection.kbar} columns with only "
            f"n = {problem.n} observations"
        )
    return selection


def _padded_rule(rule, k: int, extra: int):
    """Zero-pad score weights to the augmented width; fixed-b needs nothing."""
    if isinstance(rule, FixedBRule):
        return rule
    weights = resolve_omega(rule.omega, k)
    padded = tuple(float(w) for w in weights) + (0.0,) * extra
    return dataclasses.replace(rule, omega=padded)


def build_adjusted(problem: RegressionProblem, config: EstimatorConfig) -> AdjustedProblem:
    """Construct the augmented problem for whichever scenario applies.

    The scenario is select_scenario's, so the boundary geometry is computed
    once per problem however often the problem is adjusted or diagnosed.
    Raises AdjustmentNotApplicableError when no scenario applies, and
    AugmentationImpossibleError when the augmented shape (n, kbar, q, p)
    leaves the adjusted statistic undefined at every response
    (n < p(kbar+1) + q).
    """
    selection = select_scenario(problem)
    if not selection.applicable:
        raise AdjustmentNotApplicableError(
            f"adjustment not applicable: {selection.reason}"
        )
    n, k, q, p, kbar = problem.n, problem.k, problem.q, config.p, selection.kbar
    if never_definite(n, kbar, q, p):
        raise AugmentationImpossibleError(
            f"the adjusted statistic needs n >= p(kbar+1) + q = "
            f"{min_definite_n(kbar, q, p)} to be defined; got n = {n} with "
            f"kbar = {kbar}, q = {q}, p = {p}"
        )
    extra_cols = [direction(n) for direction in _APPENDED[selection.scenario]]
    extra = len(extra_cols)
    x_bar = np.column_stack([problem.X] + extra_cols)
    r_bar = np.hstack([problem.R, np.zeros((q, extra))])
    adjusted_problem = RegressionProblem(x_bar, r_bar, problem.r)
    adjusted_config = dataclasses.replace(
        config, rule=_padded_rule(config.rule, k, extra)
    )
    return AdjustedProblem(
        scenario=selection.scenario,
        problem=adjusted_problem,
        config=adjusted_config,
        original=problem,
    )


def adjusted_statistic(adjusted: AdjustedProblem, y) -> TestResult:
    """Evaluate the adjusted statistic T-bar at one response vector."""
    return test_statistic(adjusted.problem, y, adjusted.config)
