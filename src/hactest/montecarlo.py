"""Monte Carlo critical values, size, and power for the robust test.

Null rejection rates are driven by a family of AR(1) correlation matrices
``Lambda(rho)``, one member per rho of an ``AR1Grid``; the worst-case rate
over the family is the empirical size.  Calibration finds the smallest
critical value whose empirical size stays below the target level, reusing
one simulated statistic array per family member (common random numbers),
which makes the empirical size exactly nonincreasing in C and the search a
clean bisection.

The innovations of replication ``idx`` of a run seeded ``s`` depend only
on ``(s, idx)``: they come from ``default_rng(SeedSequence((s, idx)))``, so
rates are bitwise reproducible.  Each replication is drawn once per call and
shared by every family member and every alternative: each member maps the
same standard normal draw to its own errors.

The errors are drawn with unit scale, Cov(u) = Sigma, without loss: the
statistic is invariant under ``y -> c (y - mu0) + mu0`` for every null mean
``mu0`` and ``c != 0``, so at the null no rejection rate depends on a scale
sigma, and an alternative at ``X beta`` with errors ``sigma u`` rejects
exactly as the one at ``X beta0 + (X beta - X beta0) / sigma`` with errors
``u`` does.  Distances are therefore in units of the error scale.

Each (member, replication) also makes one covariance estimate, shared by
every alternative.  The estimate is a function of the OLS residuals, so it
is the same at every ``y = X beta + u`` of one draw ``u``; only the
discrepancy ``R beta_hat - r`` moves, by ``R (beta - beta')``.  The
statistic at each further alternative is therefore one quadratic form on
that estimate, and 0 wherever the estimate is undefined or not positive
definite.

Calibrating the *unadjusted* test is refused (CalibrationNotApplicableError)
unless both boundary directions lie harmlessly inside the regression span:
anywhere else, some arbitrarily-persistent family member pushes the true
size to one, so no simulated critical value means what it claims.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    AR1Grid,
    RegressionProblem,
    _ar1_path,
    check_count,
    check_finite,
    check_seed,
    null_point,
)
from .prewhiten import BLOCK_ROWS, EstimatorConfig
from .testing import (
    REASON_ADJUSTMENT_UNNECESSARY,
    AdjustedProblem,
    AugmentationImpossibleError,
    TestEngine,
    _quadratic_forms,
    build_adjusted,
    select_scenario,
)

#: default AR(1) size grid: dense near the unit root, where size escapes first
DEFAULT_RHO_GRID = (
    -0.9999, -0.99, -0.95, -0.9, -0.6, -0.3, 0.0,
    0.3, 0.6, 0.9, 0.95, 0.99, 0.9999,
)

#: reported probabilities need at least this many replications
MIN_REPORTED_REPS = 100


class CalibrationNotApplicableError(ValueError):
    """No critical value can control the size of this (unadjusted) test."""


@dataclass(frozen=True)
class McConfig:
    """Replication count, seeding, and the covariance family of a study."""

    replications: int
    seed: int = 0
    family: AR1Grid = field(default_factory=lambda: AR1Grid(DEFAULT_RHO_GRID))

    def __post_init__(self):
        object.__setattr__(self, "replications", check_count("replications", self.replications))
        if not isinstance(self.family, AR1Grid):
            raise ValueError(f"family must be an AR1Grid, got {type(self.family).__name__}")
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class CurvePoint:
    """One (family member, alternative distance) rejection rate; the member
    is named by its label, which reads back as its AR(1) rho."""

    label: str
    distance: float
    rate: float
    ci: float


@dataclass(frozen=True)
class SizePowerCurve:
    """Rejection rates per (member, distance); at distance 0 alone, the
    largest rate is the empirical size."""

    points: tuple

    def to_csv(self) -> str:
        lines = ["rho,distance,rate,ci"]
        for p in self.points:
            lines.append(f"{p.label},{p.distance:g},{p.rate:.10g},{p.ci:.10g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> list:
        return [
            {"rho": p.label, "distance": p.distance, "rate": p.rate, "ci": p.ci}
            for p in self.points
        ]


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Calibrated critical value and the sizes backing it up."""

    critical_value: float
    size: float
    rates: dict
    c_hi: float
    delta: float


def _rho_label(rho: float) -> str:
    """``f"{rho:g}"`` when it reads back as rho, else the round-tripping repr."""
    label = f"{rho:g}"
    return label if float(label) == rho else repr(rho)


def _resolve_target(target, est_config: EstimatorConfig | None):
    """An engine to evaluate plus the problem whose model generates the data.

    For an AdjustedProblem the adjusted statistic is evaluated but the data
    come from the original design — the artificial regressors never enter
    the data-generating process.  Its estimator is the one it was built
    with, so an ``est_config`` beside it is refused rather than ignored.
    """
    if isinstance(target, AdjustedProblem):
        if est_config is not None:
            raise ValueError(
                "est_config applies to a bare problem only; an AdjustedProblem "
                "uses the config it was built with"
            )
        return TestEngine(target.problem, target.config), target.original
    if isinstance(target, RegressionProblem):
        if est_config is None:
            raise ValueError("est_config is required when the target is a bare problem")
        return TestEngine(target, est_config), target
    raise ValueError(f"target must be a RegressionProblem or AdjustedProblem, got {type(target).__name__}")


def _family_statistics(engine, sim_problem, mc: McConfig, betas) -> np.ndarray:
    """Statistics indexed (member in ``mc.family.rhos``, beta, replication).

    Replication idx draws one z from ``default_rng(SeedSequence((seed,
    idx)))``.  Replications are drawn in blocks of up to BLOCK_ROWS; each
    member maps a whole block to its own u at once, and the engine
    evaluates y = X betas[0] + u one response at a time.  A replication's
    draw, and so every statistic, does not depend on the block it fell in.
    Every other beta shares that covariance estimate: its statistic is the
    quadratic form of the estimate at the engine's discrepancy shifted by
    R (beta - betas[0]), or 0 when the engine's result is not defined;
    the forms of a block's defined responses are one stacked call, and a
    form that overflows is +inf.  For an adjusted target the shift is the
    same, because X beta lies in the augmented span and the padded
    restriction columns are zero.  Raises ValueError, naming beta, when the
    mean X betas[0] overflows, and naming distances when a shift R (beta -
    betas[0]) is not finite.
    """
    with np.errstate(all="ignore"):
        mu = sim_problem.X @ betas[0]
        shifts = np.array([sim_problem.R @ (beta - betas[0]) for beta in betas[1:]])
    if not np.isfinite(mu).all():
        raise ValueError("beta: the mean X beta overflows on this design; rescale beta")
    if not np.isfinite(shifts).all():
        raise ValueError("distances: an alternative's shift R (beta - beta0) overflows "
                         "on this design; use smaller distances")
    out = np.zeros((len(mc.family.rhos), len(betas), mc.replications))
    for start in range(0, mc.replications, BLOCK_ROWS):
        block = range(start, min(start + BLOCK_ROWS, mc.replications))
        z = np.empty((len(block), sim_problem.n))
        for row, idx in zip(z, block):
            rng = np.random.default_rng(np.random.SeedSequence((mc.seed, idx)))
            row[:] = rng.standard_normal(sim_problem.n)
        for rho, rows in zip(mc.family.rhos, out):
            # keep only what the shifted forms read, not every result
            omegas, discrepancies, defined = [], [], []
            for y, idx in zip(mu + _ar1_path(rho, z), block):
                res = engine.result(y)
                rows[0, idx] = res.t_value
                if res.defined and len(shifts):
                    omegas.append(res.omega.omega)
                    discrepancies.append(res.discrepancy)
                    defined.append(idx)
            if defined:
                # T overflows far enough out, and the triangular solve can
                # read inf - inf there: both are T = +inf
                with np.errstate(over="ignore", invalid="ignore"):
                    d = np.array(discrepancies)[None] + shifts[:, None, :]
                    t = _quadratic_forms(np.array(omegas), d)
                rows[1:, defined] = np.where(np.isnan(t), np.inf, t)
    return out


def simulate_statistics(
    target,
    *,
    cov,
    beta,
    reps: int,
    seed: int,
    est_config: EstimatorConfig | None = None,
) -> np.ndarray:
    """Statistic values over ``reps`` draws of y = X beta + u.

    ``cov`` is an AR(1) rho: the simulation is that of a one-member family.
    Replication idx draws from ``default_rng(SeedSequence((seed, idx)))``,
    so equal seeds give bitwise-equal arrays and equal (seed, idx) pairs
    share innovations across covariance members and alternatives.
    """
    mc = McConfig(replications=reps, seed=seed, family=AR1Grid((cov,)))
    engine, sim_problem = _resolve_target(target, est_config)
    beta = check_finite("beta", beta)
    if beta.shape != (sim_problem.k,):
        raise ValueError(f"beta must have length {sim_problem.k}, got shape {beta.shape}")
    return _family_statistics(engine, sim_problem, mc, [beta])[0, 0]


def _binomial_ci(rate: float, reps: int) -> float:
    return 1.96 * float(np.sqrt(rate * (1.0 - rate) / reps))


def _check_reported_reps(reps: int) -> None:
    if reps < MIN_REPORTED_REPS:
        raise ValueError(
            f"reported probabilities need at least {MIN_REPORTED_REPS} "
            f"replications, got {reps}"
        )


def _refuse_unadjusted(problem: RegressionProblem, est_config: EstimatorConfig | None) -> None:
    """Raise unless the unadjusted test is calibratable on this design.

    Where an adjustment scenario applies, the advice is to calibrate the
    adjusted problem, unless build_adjusted refuses to build it for
    ``est_config``: then the design is too small to augment.
    """
    try:
        selection = select_scenario(problem)
        if selection.applicable and est_config is not None:
            build_adjusted(problem, est_config)
    except AugmentationImpossibleError as exc:
        raise CalibrationNotApplicableError(
            "a boundary direction degenerates the unadjusted statistic and "
            "the design is too small to augment; no critical value controls "
            "size here"
        ) from exc
    if selection.reason == REASON_ADJUSTMENT_UNNECESSARY:
        return
    if selection.applicable:
        raise CalibrationNotApplicableError(
            f"the unadjusted statistic degenerates along a boundary direction "
            f"(adjustment scenario {selection.scenario}); calibrate the "
            f"adjusted problem from build_adjusted instead"
        )
    raise CalibrationNotApplicableError(
        "a boundary direction lies in the regression span with a nonzero "
        "restriction image; size tends to one for every critical value"
    )


def calibrate_critical_value(
    target,
    mc: McConfig,
    delta: float,
    *,
    est_config: EstimatorConfig | None = None,
) -> CalibrationResult:
    """Smallest critical value with worst-case empirical size <= delta.

    One statistic array per family member is simulated once and reused at
    every candidate C (common random numbers), so the empirical size is
    exactly nonincreasing in C; bisection brings it into [delta - delta/10,
    delta] unless the size function jumps over that window, in which case
    the conservative endpoint is returned.  Unless delta = 1, it refuses
    (CalibrationNotApplicableError) when no member's statistic is positive
    in more than a delta share of replications: no C is determined there.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    _check_reported_reps(mc.replications)
    if isinstance(target, RegressionProblem):
        _refuse_unadjusted(target, est_config)
    engine, sim_problem = _resolve_target(target, est_config)
    rhos = mc.family.rhos
    # sorted null statistics, one row per member in family order
    null = np.sort(_family_statistics(engine, sim_problem, mc, [null_point(sim_problem)])[:, 0])
    reps = mc.replications

    def rate_at(arr: np.ndarray, c: float) -> float:
        return float(reps - np.searchsorted(arr, c, side="left")) / reps

    def size_at(c: float) -> float:
        return max(rate_at(arr, c) for arr in null)

    def rates_at(c: float) -> dict:
        return {_rho_label(rho): rate_at(arr, c) for rho, arr in zip(rhos, null)}

    if size_at(0.0) <= delta:
        return CalibrationResult(
            critical_value=0.0, size=size_at(0.0), rates=rates_at(0.0),
            c_hi=0.0, delta=float(delta),
        )
    # T = 0 wherever the statistic is undefined, so a C that only separates
    # positive statistics from zero is not calibrated by anything
    positive = float(np.count_nonzero(null > 0.0, axis=1).max()) / reps
    if positive <= delta:
        raise CalibrationNotApplicableError(
            f"the statistic is positive in at most a {positive:g} share of any "
            f"member's replications, within delta = {delta:g}: every C > 0 "
            f"below its smallest positive value gives that size, so no "
            f"critical value is determined"
        )

    # starting bracket: a high quantile under the white member (rho = 0),
    # or under the first member when the family has no white one
    ref = null[rhos.index(0.0) if 0.0 in rhos else 0]
    with np.errstate(invalid="ignore"):  # inf - inf when the top statistics are infinite
        c_hi = float(np.quantile(ref, 1.0 - delta / 10.0))
    if not 0.0 < c_hi < np.inf:
        c_hi = 1.0
    while size_at(c_hi) > delta:
        c_hi *= 2.0
        if c_hi == np.inf:
            raise CalibrationNotApplicableError(
                f"more than a delta = {delta:g} share of some member's "
                f"simulated statistics is infinite; no finite critical value "
                f"controls size"
            )

    lo, hi = 0.0, c_hi
    while size_at(hi) < delta - delta / 10.0:
        if hi - lo <= 1e-12 * max(1.0, c_hi):
            break  # empirical size jumps over the target window
        mid = 0.5 * (lo + hi)
        if size_at(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return CalibrationResult(
        critical_value=hi, size=size_at(hi), rates=rates_at(hi),
        c_hi=c_hi, delta=float(delta),
    )


def check_distances(distances) -> list[float]:
    """Alternative distances as floats: a non-empty 1-D sequence, finite and >= 0."""
    d = check_finite("distances", distances)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"distances must be a non-empty 1-D sequence, got shape {d.shape}")
    if np.any(d < 0):
        raise ValueError(f"distances must be nonnegative, got {d.min():g}")
    return [float(v) for v in d]


def power_curve(
    target,
    mc: McConfig,
    critical_value: float,
    distances,
    *,
    est_config: EstimatorConfig | None = None,
) -> SizePowerCurve:
    """Rejection rates across the family at alternatives R beta - r = d u.

    ``distances`` are the standardized violation lengths d along the
    equal-weight unit vector u = (1, ..., 1) / sqrt(q) in restriction space.
    0 reproduces the null, so the largest rate of a ``distances=(0.0,)``
    curve is the empirical size.  Each point's member is its rho's label.
    A statistic that overflows rejects; an alternative whose shift R (beta
    - beta0) is not finite is refused with ValueError naming distances.
    """
    check_finite("critical value", critical_value)
    _check_reported_reps(mc.replications)
    distances = check_distances(distances)
    engine, sim_problem = _resolve_target(target, est_config)
    q = sim_problem.q
    u = np.ones(q) / np.sqrt(q)
    pull = sim_problem.R.T @ np.linalg.solve(sim_problem.R @ sim_problem.R.T, u)
    beta0 = null_point(sim_problem)
    with np.errstate(over="ignore"):  # _family_statistics refuses a non-finite shift
        betas = [beta0 + d * pull for d in distances]

    points = []
    # the engine evaluates at the null point, so a distance-0 statistic is
    # the quadratic form at a zero shift: exactly the engine's own value
    stats = _family_statistics(engine, sim_problem, mc, [beta0, *betas])
    for rho, rows in zip(mc.family.rhos, stats):
        label = _rho_label(rho)
        for d, row in zip(distances, rows[1:]):
            rate = float(np.mean(row >= critical_value))
            points.append(
                CurvePoint(label=label, distance=d, rate=rate,
                           ci=_binomial_ci(rate, mc.replications))
            )
    return SizePowerCurve(tuple(points))
