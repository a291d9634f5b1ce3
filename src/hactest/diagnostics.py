"""Design-matrix breakdown diagnostics for the robust test.

A fixed design X and critical value C can doom the test before any data
arrive.  The failures are all driven by two directions: the constant vector
``e+ = (1, ..., 1)`` and the alternating vector ``e- = (-1, 1, -1, ...)``,
because scaling noise along either of them leaves the statistic unchanged.
Evaluating the statistic at ``mu0 + e+`` and ``mu0 + e-`` (mu0 any null
point) therefore decides limiting size and power:

- statistic defined and above C at either direction  -> size tends to 1;
- statistic defined and below C at either direction  -> power tends to 0;
- statistic exactly C at a direction where the statistic is differentiable
  -> size at least 1/2 in the limit;
- a direction inside span(X) whose restriction image R beta_hat(e) is
  nonzero -> size tends to 1 for every C (no critical value can help);
- statistic undefined almost everywhere -> the test never rejects at all.
  Whenever n < p(k+1) + q (a dimension trap) this follows from the shape
  (n, k, q, p) alone and is decided without evaluating the statistic off
  the boundary; any other design whose boundary evaluations are both
  undefined is probed at random responses instead.

``diagnose`` runs these checks in a fixed precedence and reports a verdict
with the evidence it rests on.  A tie is certified only where the
statistic is differentiable; for a data-driven bandwidth that claim is
cross-checked by central differences at three step sizes: 3 x 2n
statistics, which the engine evaluates as blocks of bumped responses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import FixedBRule
from .model import (
    RegressionProblem,
    alternating_vector,
    check_count,
    check_finite,
    check_seed,
    constant_vector,
    null_point,
)
from .prewhiten import BLOCK_ROWS, EstimatorConfig, never_definite
from .testing import (
    REASON_ADJUSTMENT_UNNECESSARY,
    REASON_HYPOTHESIS_INVOLVES_INTERCEPT,
    TestEngine,
    TestResult,
    _span_geometry,
)

#: DiagnosticsReport.verdict values
SIZE_ONE = "SizeOne"
SIZE_ONE_SPAN_CASE = "SizeOneSpanCase"
SIZE_AT_LEAST_HALF = "SizeAtLeastHalf"
POWER_ZERO = "PowerZero"
TRIVIAL_BREAKDOWN = "TrivialBreakdown"
POSITIVE_UNADJUSTED = "PositiveUnadjusted"
INCONCLUSIVE = "Inconclusive"

#: tie detection: |t - C| <= TIE_RTOL * max(1, C)
TIE_RTOL = 1e-9
#: relative deviation between finite-difference gradients above which the
#: analytic differentiability claim is withdrawn
FD_AGREEMENT = 0.25
#: finite-difference step sizes of that cross-check
FD_STEPS = (1e-4, 1e-5, 1e-6)


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Verdict plus the boundary-direction evaluations it is based on.

    ``gradient_exists_*`` is True / None (None = statistic undefined there,
    or differentiability could not be certified); ``evidence`` holds the
    span geometry, probe counts, and per-direction classifications.
    """

    verdict: str
    critical_value: float
    t_plus: TestResult
    t_minus: TestResult
    gradient_exists_plus: bool | None
    gradient_exists_minus: bool | None
    evidence: dict


def _kernel_hits_kink(kernel, m_value: float, m: int) -> bool:
    """Does some lag ratio i / M, 1 <= i < m, land on a nondifferentiable point of kappa?

    |i / M - d| is convex in i, so the lag nearest d * M, clipped to [1, m),
    is the only one to test.
    """
    if m < 2:
        return False
    for d in kernel.nondifferentiable_points:
        i = min(max(round(d * m_value), 1), m - 1)
        if abs(i / m_value - d) <= 1e-9 * max(1.0, d):
            return True
    return False


def _fd_gradients_agree(engine: TestEngine, y: np.ndarray) -> bool:
    """Central-difference gradients at the FD_STEPS; True if they stabilize.

    Each step's 2n bumped responses ``y + h e_j`` and ``y - h e_j`` go to
    the engine as blocks of up to BLOCK_ROWS responses.  A response's
    statistic does not depend on the block it is evaluated in, so the
    gradients are those of one evaluation per bumped response.
    """
    n = y.shape[0]
    grads = []
    for h in FD_STEPS:
        bump = h * np.eye(n)
        Y = np.concatenate((y + bump, y - bump))
        t = np.concatenate([engine.t_values(Y[i : i + BLOCK_ROWS])
                            for i in range(0, 2 * n, BLOCK_ROWS)])
        grads.append((t[:n] - t[n:]) / (2.0 * h))
    scale = max(1.0, max(float(np.linalg.norm(g)) for g in grads))
    worst = max(
        float(np.linalg.norm(a - b)) for a, b in zip(grads[:-1], grads[1:])
    )
    return worst <= FD_AGREEMENT * scale


def _gradient_exists_at(
    engine: TestEngine,
    y: np.ndarray,
    result: TestResult,
    check_numerically: bool,
) -> bool | None:
    """Certify differentiability of the statistic at a defined y (True) or give up (None).

    Fixed-b statistics are differentiable wherever defined; data-driven
    bandwidths are, unless some lag ratio i / M sits on a nondifferentiable
    point of the kernel.  With ``check_numerically``, finite differences at
    the FD_STEPS cross-check the analytic claim and withdraw it if the
    numeric gradients disagree; ``result`` is the engine's evaluation at y,
    and the bumped responses around it are evaluated as blocks.
    """
    rule = engine.config.rule
    if isinstance(rule, FixedBRule):
        # fixed-b bandwidths do not depend on y, so the statistic is a smooth
        # rational function wherever it is defined
        return True
    kernel = engine.config.kernel
    m_value = result.omega.bandwidth.m
    m = engine.problem.n - engine.config.p
    if m_value == 0.0:
        analytic = True if kernel.compact_support else None
    elif _kernel_hits_kink(kernel, m_value, m):
        analytic = None
    else:
        analytic = True
    if analytic is None or not check_numerically:
        return analytic
    # the numeric check can only withdraw the claim, never make one
    return True if _fd_gradients_agree(engine, y) else None


def _classify(result: TestResult, critical_value: float) -> str:
    if not result.defined:
        return "undefined"
    if abs(result.t_value - critical_value) <= TIE_RTOL * max(1.0, critical_value):
        return "tie"
    return "above" if result.t_value > critical_value else "below"


def diagnose(
    problem: RegressionProblem,
    config: EstimatorConfig,
    critical_value: float,
    *,
    probes: int = 1000,
    seed: int = 0,
) -> DiagnosticsReport:
    """Classify the limiting behaviour of the test at this design and C.

    Evaluates the boundary pair (mu0 + e+, mu0 + e-) once, e+ first, and
    classifies and certifies each member in turn.  Checks, in precedence
    order: trivial breakdown (statistic never found defined, at the pair or
    on Gaussian probes), the span violation (a boundary direction inside
    span(X) with nonzero restriction image), size-one and tie certificates
    at the pair, the power-zero certificate, and finally the benign case
    where both boundary directions lie harmlessly inside the span.

    Trivial breakdown is decided from the design's shape when it is a
    dimension trap (n < p(k+1) + q): the statistic is undefined for every
    response there, so no probe runs and ``probes_used`` is 0.  Only a
    design outside the trap whose pair is undefined at both members spends
    up to ``probes`` Gaussian responses (drawn from ``seed``) looking for
    a defined statistic.  Raises ValueError unless ``probes`` is an
    integer >= 1 and ``seed`` a nonnegative integer, probe or not.
    """
    critical_value = float(check_finite("critical value", critical_value))
    if not critical_value > 0:
        raise ValueError(f"critical value must be > 0, got {critical_value}")
    probes = check_count("probes", probes)
    seed = check_seed(seed)
    engine = TestEngine(problem, config)
    n, k, q, p = problem.n, problem.k, problem.q, config.p
    mu0 = problem.X @ null_point(problem)
    ys = [mu0 + constant_vector(n), mu0 + alternating_vector(n)]
    results = [engine.result(y) for y in ys]

    geometry = _span_geometry(problem)

    nontrivial = any(res.defined for res in results)
    dimension_trap = never_definite(n, k, q, p)
    probes_used = 0
    if not nontrivial and not dimension_trap:
        rng = np.random.default_rng(seed)
        while probes_used < probes:
            probes_used += 1
            if engine.result(mu0 + rng.standard_normal(n)).defined:
                nontrivial = True
                break

    kinds = [_classify(res, critical_value) for res in results]
    grads = [_gradient_exists_at(engine, y, res, kind == "tie") if res.defined else None
             for y, res, kind in zip(ys, results, kinds)]

    evidence = {
        "plus_in_span": geometry.plus_in_span,
        "minus_in_span": geometry.minus_in_span,
        "image_plus": [float(v) for v in geometry.image_plus],
        "image_minus": [float(v) for v in geometry.image_minus],
        "kind_plus": kinds[0],
        "kind_minus": kinds[1],
        "nontrivial": nontrivial,
        "probes_used": probes_used,
        "dimension_trap": dimension_trap,
        "tie_tolerance": TIE_RTOL * max(1.0, critical_value),
    }

    if not nontrivial:
        verdict = TRIVIAL_BREAKDOWN
    elif geometry.reason == REASON_HYPOTHESIS_INVOLVES_INTERCEPT:
        verdict = SIZE_ONE_SPAN_CASE
    elif geometry.reason == REASON_ADJUSTMENT_UNNECESSARY:
        verdict = POSITIVE_UNADJUSTED
    elif "above" in kinds:
        verdict = SIZE_ONE
    elif ("tie", True) in zip(kinds, grads):
        verdict = SIZE_AT_LEAST_HALF
    elif "below" in kinds:
        verdict = POWER_ZERO
    else:
        verdict = INCONCLUSIVE

    return DiagnosticsReport(
        verdict=verdict,
        critical_value=critical_value,
        t_plus=results[0],
        t_minus=results[1],
        gradient_exists_plus=grads[0],
        gradient_exists_minus=grads[1],
        evidence=evidence,
    )

