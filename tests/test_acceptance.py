"""Acceptance suite: one end-to-end check per headline guarantee.

Each test here pins a user-visible property of the package at desk scale —
exact algebraic identities of the covariance assembly, invariance of the
statistic under null-preserving maps, the small-sample degeneracy and its
witness designs, Monte-Carlo realizations of the near-unit-root size and
power pathologies, and the calibrated augmented test that repairs them.
Every randomized check runs from a frozen seed so reruns are bit-identical,
and the expensive tests assert their own runtime budget.
"""
import math
import time

import numpy as np
import pytest

from hactest import (
    BARTLETT,
    DEFAULT_RHO_GRID,
    PARZEN,
    POWER_ZERO,
    QUADRATIC_SPECTRAL,
    SIZE_ONE,
    SIZE_ONE_SPAN_CASE,
    AR1Grid,
    EstimatorConfig,
    FixedBRule,
    McConfig,
    OmegaEngine,
    RegressionProblem,
    adjusted_statistic,
    alternating_vector,
    assemble_omega,
    build_adjusted,
    calibrate_critical_value,
    constant_vector,
    default_rule,
    diagnose,
    null_point,
    power_curve,
    select_scenario,
    simulate_statistics,
)
from hactest import test_statistic as evaluate_statistic
from hactest.bandwidth import (
    DENOMINATOR_ZERO,
    RHO_UNDEFINED,
    RHO_UNIT,
    SIGMA_ALL_ZERO,
)
from hactest.prewhiten import WELL_DEFINED

from .conftest import config_grid, random_problem, rule_outcome
from .oracles import (
    am_bandwidth_oracle,
    kernel_eval,
    nw_bandwidth_oracle,
    rectangular_cutoff_oracle,
    toeplitz_statistic_oracle,
    toeplitz_weights,
    witness_design,
)
from .test_prewhiten import fit_var_ols

NW_BARTLETT = EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=1)
REPS = 10_000


def _passed(label, detail):
    print(f"[acceptance] {label}: PASS — {detail}")


def _halfwidth(rate, reps):
    return 1.96 * math.sqrt(rate * (1.0 - rate) / reps)


def test_covariance_matches_toeplitz_representation():
    # Omega-hat equals (n / (n - p)) * B W B' with W the kernel Toeplitz
    # matrix, for every rule/kernel pairing, whenever it is defined at all.
    start = time.perf_counter()
    rng = np.random.default_rng(20260801)
    grid = config_grid()
    checked = 0
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(8, 31))
        k = int(rng.integers(1, 4))
        problem, y = random_problem(rng, n=n, k=k)
        config = grid[i % len(grid)]
        out = assemble_omega(problem, y, config)
        if out.status != WELL_DEFINED:
            continue
        want = toeplitz_statistic_oracle(
            problem, out, lambda x: kernel_eval(config.kernel, x)
        )
        rel = np.linalg.norm(out.omega - want) / np.linalg.norm(out.omega)
        worst = max(worst, rel)
        assert rel <= 1e-10
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 150
    assert elapsed < 10.0
    _passed(
        "toeplitz representation",
        f"{checked}/200 defined triples, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def _null_space_shift(rng, R, X):
    """A random element of the null set's direction space, X @ d with R d = 0."""
    q, k = R.shape
    if q == k:
        return np.zeros(X.shape[0])
    _, _, vt = np.linalg.svd(R)
    coef = vt[q:].T @ rng.standard_normal(k - q)
    return X @ coef


def test_statistic_invariant_under_null_preserving_maps():
    # T(alpha * (y - mu0) + mu0 + m0) == T(y) for every scaling alpha != 0 and
    # every shift m0 along the null set, and the same for the augmented
    # statistic on its (larger) invariance group.
    rng = np.random.default_rng(20260802)
    alphas = (-2.0, 0.5, 10.0)
    grid = config_grid()
    defined = 0
    for i in range(500):
        problem, y = random_problem(rng)
        config = grid[i % len(grid)]
        mu0 = problem.X @ null_point(problem)
        shift = _null_space_shift(rng, problem.R, problem.X)
        alpha = alphas[i % len(alphas)]
        y2 = alpha * (y - mu0) + mu0 + shift
        a = evaluate_statistic(problem, y, config)
        b = evaluate_statistic(problem, y2, config)
        assert b.defined == a.defined
        assert b.t_value == pytest.approx(a.t_value, rel=1e-8, abs=1e-10)
        defined += a.defined
    assert defined >= 400

    X = np.random.default_rng(20260822).standard_normal((20, 2))
    problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.array([0.7]))
    adjusted = build_adjusted(problem, NW_BARTLETT)
    xbar, rbar = adjusted.problem.X, adjusted.problem.R
    mu0 = adjusted.problem.X @ null_point(adjusted.problem)
    adjusted_defined = 0
    for i in range(500):
        y = rng.standard_normal(20)
        shift = _null_space_shift(rng, rbar, xbar)
        alpha = alphas[i % len(alphas)]
        y2 = alpha * (y - mu0) + mu0 + shift
        a = adjusted_statistic(adjusted, y)
        b = adjusted_statistic(adjusted, y2)
        assert b.defined == a.defined
        assert b.t_value == pytest.approx(a.t_value, rel=1e-8, abs=1e-10)
        adjusted_defined += a.defined
    assert adjusted_defined >= 400
    _passed(
        "invariance",
        f"500 draws each for plain ({defined} defined) and augmented "
        f"({adjusted_defined} defined) statistics, rel tol 1e-8",
    )


def test_short_samples_force_an_identically_zero_statistic():
    # With q = k the statistic cannot be nonzero unless n >= k(p+1) + p: the
    # prewhitened score matrix has too few effective columns to yield a
    # positive definite covariance.  At n = 4 (k = 2, p = 1) every draw and
    # every rule must return exactly 0; one extra pair of rows past the
    # threshold (n = 6) makes it generically positive again.
    rng = np.random.default_rng(20260803)
    rules = (
        default_rule("andrews", "bartlett"),
        default_rule("newey-west", "bartlett"),
        FixedBRule(b=0.5),
    )
    configs = [EstimatorConfig(BARTLETT, rule, p=1) for rule in rules]
    for _ in range(1000):
        X = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        problem = RegressionProblem(X, np.eye(2), np.zeros(2))
        for config in configs:
            res = evaluate_statistic(problem, y, config)
            assert res.defined is False
            assert res.t_value == 0.0
    positive = 0
    for _ in range(1000):
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        problem = RegressionProblem(X, np.eye(2), np.zeros(2))
        for config in configs:
            res = evaluate_statistic(problem, y, config)
            assert res.defined
            assert res.t_value > 0.0
        positive += 1
    assert positive == 1000
    _passed(
        "degenerate-sample trap",
        "n=4: 1000 draws x 3 rules all exactly 0; n=6: 1000/1000 positive",
    )


def test_witness_designs_zero_the_var_fit_and_keep_omega_definite():
    # witness_design at its minimal admissible n must produce data whose
    # VAR fit is exactly the zero matrix while the assembled covariance is
    # strictly positive definite.
    combos = 0
    for p in (1, 2):
        for k in (1, 2, 3):
            for kind in ("andrews", "newey-west", "fixed-b"):
                need = k * (p + 1) + p + (1 if kind == "andrews" else 0)
                y, X = witness_design(need, k, p, rule_kind=kind)
                problem = RegressionProblem(X, np.eye(k), np.zeros(k))
                config = EstimatorConfig(
                    BARTLETT, default_rule(kind, "bartlett"), p=p
                )
                out = OmegaEngine(problem, config).outcome(y)
                assert out.status == WELL_DEFINED
                assert np.all(fit_var_ols(problem, y, p).A == 0.0)
                assert float(np.min(np.linalg.eigvalsh(out.omega))) > 0.0
                combos += 1
    assert combos == 18
    _passed(
        "witness designs",
        "18 (p, k, rule) combos at minimal n: A-hat == 0 exactly, "
        "omega strictly PD",
    )


def test_near_unit_root_size_blowup_and_power_collapse_are_realized():
    # On a fixed Gaussian design, a cutoff below the plus-boundary value is
    # flagged SizeOne and rejects almost always under rho = 0.999, while a
    # cutoff above both boundary values is flagged PowerZero and almost never
    # rejects even at a distance-5 alternative: the data concentrate along a
    # direction where the statistic is pinned at the boundary values.
    start = time.perf_counter()
    n = 25
    X = np.random.default_rng(20260515).standard_normal((n, 2))
    problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
    t_plus = evaluate_statistic(problem, constant_vector(n), NW_BARTLETT)
    t_minus = evaluate_statistic(problem, alternating_vector(n), NW_BARTLETT)
    assert t_plus.defined and t_minus.defined

    c_low = t_plus.t_value / 4.0
    report = diagnose(problem, NW_BARTLETT, c_low)
    assert report.verdict == SIZE_ONE
    assert report.evidence["kind_plus"] == "above"
    nulls = simulate_statistics(
        problem,
        cov=0.999,
        beta=np.zeros(2),
        reps=REPS,
        seed=20260551,
        est_config=NW_BARTLETT,
    )
    size_rate = float(np.mean(nulls >= c_low))
    assert _halfwidth(size_rate, REPS) <= 0.01
    assert size_rate >= 0.90

    c_high = 1.0e6
    assert c_high > max(t_plus.t_value, t_minus.t_value)
    report = diagnose(problem, NW_BARTLETT, c_high)
    assert report.verdict == POWER_ZERO
    # beta = (5, 0) puts the alternative at ||R beta - r|| / sigma = 5
    alts = simulate_statistics(
        problem,
        cov=0.999,
        beta=np.array([5.0, 0.0]),
        reps=REPS,
        seed=20260552,
        est_config=NW_BARTLETT,
    )
    power_rate = float(np.mean(alts >= c_high))
    assert power_rate <= 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(
        "near-unit-root breakdown",
        f"SizeOne null rate {size_rate:.4f} >= 0.90, PowerZero power "
        f"{power_rate:.4f} <= 0.05 at distance 5, {elapsed:.1f}s",
    )


def test_intercept_only_design_rejects_at_any_cutoff_near_unit_root():
    # In the intercept-only model no augmentation exists, and the statistic
    # grows like W / (1 - rho) as rho -> 1, where W has a limiting
    # distribution: for every fixed cutoff C the null rejection rate tends to
    # one.  At a given rho the rate depends on C * (1 - rho) alone, so no
    # single rho holds every cutoff to the same bound (at rho = 0.999 the
    # rates are 0.9231 / 0.8106 / 0.5764 at C = 1 / 10 / 100).  Each cutoff
    # is therefore held to the 0.90 bound at its own rho_C = 1 - 1e-3 / C,
    # the point on the path rho -> 1 where C * (1 - rho) = 1e-3, fixed by the
    # scaling law in advance.  Three legs:
    #   (a) bound: the rate at rho_C is >= 0.90 for every C;
    #   (b) limit: the rate is nondecreasing along rho -> 1 for every C;
    #   (c) scaling law: the three rho_C rates agree within two halfwidths.
    # One seed for every rho gives common random numbers across the path.
    cutoffs = (1.0, 10.0, 100.0)
    rho_at = {c: 1.0 - 1e-3 / c for c in cutoffs}
    rhos = sorted(rho_at.values())
    e_plus = constant_vector(20) / math.sqrt(20.0)
    problem = RegressionProblem(e_plus.reshape(-1, 1), np.array([[1.0]]), np.zeros(1))
    rates = {}
    for rho in rhos:
        stats = simulate_statistics(
            problem,
            cov=rho,
            beta=np.zeros(1),
            reps=REPS,
            seed=20260606,
            est_config=NW_BARTLETT,
        )
        for c in cutoffs:
            rates[rho, c] = float(np.mean(stats >= c))
    table = "; ".join(
        f"rho={rho:g}: " + ", ".join(f"C={c:g} {rates[rho, c]:.4f}" for c in cutoffs)
        for rho in rhos
    )
    legs = {c: rates[rho_at[c], c] for c in cutoffs}

    for c, rate in legs.items():
        assert rate >= 0.90, (
            f"(a) bound: C={c:g} at rho_C={rho_at[c]:g} rejects at "
            f"{rate:.4f} < 0.90 [{table}]"
        )
    for c in cutoffs:
        for lo, hi in zip(rhos, rhos[1:]):
            assert rates[hi, c] >= rates[lo, c], (
                f"(b) limit: C={c:g} rate fell from {rates[lo, c]:.4f} at "
                f"rho={lo:g} to {rates[hi, c]:.4f} at rho={hi:g} [{table}]"
            )
    along = ", ".join(f"C={c:g} at rho={rho_at[c]:g} {rate:.4f}" for c, rate in legs.items())
    spread = max(legs.values()) - min(legs.values())
    tolerance = 2.0 * max(_halfwidth(rate, REPS) for rate in legs.values())
    assert spread <= tolerance, (
        f"(c) scaling law: along C * (1 - rho) = 1e-3 ({along}) the rates "
        f"spread {spread:.4f} > two halfwidths {tolerance:.4f} [{table}]"
    )
    _passed(
        "intercept-only blow-up",
        f"{table}; along C * (1 - rho) = 1e-3: {along}, "
        f"spread {spread:.4f} <= {tolerance:.4f}",
    )


def test_adjusted_test_calibrates_controls_size_and_recovers_power():
    # End to end on a 40 x 2 Gaussian design: augment the design, calibrate
    # the critical value at delta = 0.05 over the AR(1) grid, then confirm on
    # independent seeds that size holds pointwise across the grid (including
    # rho = +/-0.99 and +/-0.9999) and that power is restored both at
    # moderate persistence and near the unit root.
    start = time.perf_counter()
    X = np.random.default_rng(20260507).standard_normal((40, 2))
    problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
    adjusted = build_adjusted(problem, NW_BARTLETT)
    assert adjusted.scenario == 3

    mc_cal = McConfig(replications=REPS, seed=20260571, family=AR1Grid(DEFAULT_RHO_GRID))
    cal = calibrate_critical_value(adjusted, mc_cal, 0.05)
    assert cal.critical_value > 0.0
    assert cal.size <= 0.05

    mc_val = McConfig(replications=REPS, seed=20260572, family=AR1Grid(DEFAULT_RHO_GRID))
    validation = power_curve(adjusted, mc_val, cal.critical_value, (0.0,))
    for point in validation.points:
        assert point.rate <= 0.05 + 2.0 * point.ci, (
            f"size {point.rate:.4f} at rho={point.label} exceeds "
            f"0.05 + 2*{point.ci:.4f}"
        )

    # beta = (d, 0) puts the alternative at distance d; power must be at
    # least 0.5 at distance 8 for rho in {-0.9, 0, 0.9} and at least 0.9 at
    # distance 2 under rho = 0.999.
    powers = {}
    for rho in (-0.9, 0.0, 0.9):
        alts = simulate_statistics(
            adjusted, cov=rho, beta=np.array([8.0, 0.0]), reps=REPS, seed=20260573
        )
        powers[rho] = float(np.mean(alts >= cal.critical_value))
        assert powers[rho] >= 0.5
    alts = simulate_statistics(
        adjusted, cov=0.999, beta=np.array([2.0, 0.0]), reps=REPS, seed=20260574
    )
    powers[0.999] = float(np.mean(alts >= cal.critical_value))
    assert powers[0.999] >= 0.9

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    _passed(
        "calibrated augmented test",
        f"C={cal.critical_value:.4f}, calibrated size {cal.size:.4f}, "
        f"validation max {max(p.rate for p in validation.points):.4f}, powers "
        + ", ".join(f"rho={r:g}: {p:.3f}" for r, p in powers.items())
        + f", {elapsed:.0f}s",
    )


def test_kernel_weight_matrices_are_positive_semidefinite():
    # The Toeplitz weight matrix W_ij = kappa((i - j) / M) must be PSD for
    # every supported kernel at any dimension/bandwidth combination.
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for kernel in (BARTLETT, PARZEN, QUADRATIC_SPECTRAL):
        for _ in range(100):
            m = int(rng.integers(2, 41))
            bandwidth = float(rng.uniform(0.1, 2.0 * m))
            W = toeplitz_weights(kernel, m, bandwidth)
            smallest = float(np.linalg.eigvalsh(W)[0])
            worst = min(worst, smallest)
            assert smallest > -1e-10 * m
    _passed(
        "kernel weight matrices",
        f"300 random (m, M) draws across 3 kernels, most negative "
        f"eigenvalue {worst:.2e}",
    )


def test_plugin_bandwidths_match_direct_summation():
    # Both data-driven bandwidth rules, at their canonical constants, agree
    # with scalar-loop reference implementations to 1e-12 relative, and the
    # exact-zero undefined cases are classified identically, not
    # approximately.
    rng = np.random.default_rng(20260809)
    am_rules = (
        default_rule("andrews", "bartlett"),
        default_rule("andrews", "parzen"),
    )
    nw_rule = default_rule("newey-west", "bartlett")
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(3, 30))
        Z = rng.standard_normal((k, m))
        n = m + 1
        rule = am_rules[trial % 2]
        got = rule_outcome(rule, Z, n)
        status, want = am_bandwidth_oracle(Z, [1.0] * k, rule.j, rule.c1, rule.c2, n)
        assert status == "ok" and got.is_defined
        worst = max(worst, abs(got.m - want) / want)
        assert got.m == pytest.approx(want, rel=1e-12)
    for trial in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(3, 30))
        Z = rng.standard_normal((k, m))
        n = m + int(rng.integers(1, 3))
        got = rule_outcome(nw_rule, Z, n)
        weights = [1.0] * (rectangular_cutoff_oracle(n) + 1)
        status, want = nw_bandwidth_oracle(
            Z, [1.0] * k, nw_rule.cbar1, nw_rule.cbar2, nw_rule.cbar3, weights, n
        )
        assert status == "ok" and got.is_defined
        worst = max(worst, abs(got.m - want) / want)
        assert got.m == pytest.approx(want, rel=1e-12)

    am_rule = default_rule("andrews", "bartlett")
    am_cases = (
        (np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]]), RHO_UNDEFINED),
        (np.array([[1.0, 1.0, 1.0, 1.0]]), RHO_UNIT),
        (np.array([[1.0, 0.5, 0.25, 0.125]]), SIGMA_ALL_ZERO),
    )
    for Z, reason in am_cases:
        n = Z.shape[1] + 1
        out = rule_outcome(am_rule, Z, n)
        assert not out.is_defined and out.reason == reason
        status, value = am_bandwidth_oracle(
            Z, [1.0] * Z.shape[0], am_rule.j, am_rule.c1, am_rule.c2, n
        )
        assert status == reason and value is None
    out = rule_outcome(default_rule("newey-west", "bartlett"), np.zeros((1, 3)), 4)
    assert not out.is_defined and out.reason == DENOMINATOR_ZERO
    status, value = nw_bandwidth_oracle(
        np.zeros((1, 3)), [1.0], 1, 1.1447, 1.0 / 3.0, [1.0, 1.0], 4
    )
    assert status == DENOMINATOR_ZERO and value is None
    _passed(
        "bandwidth oracles",
        f"100 random matrices per rule, worst rel err {worst:.2e}; "
        f"4 undefined fixtures classified identically",
    )


def test_generic_designs_break_down_and_admit_augmentation():
    # Almost every Gaussian design both exhibits a breakdown verdict at a
    # conventional cutoff and supports the both-boundaries augmentation.
    start = time.perf_counter()
    rng = np.random.default_rng(20260110)
    breakdown_verdicts = {SIZE_ONE, POWER_ZERO, SIZE_ONE_SPAN_CASE}
    broken = 0
    scenario_three = 0
    for _ in range(500):
        X = rng.standard_normal((30, 2))
        problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        report = diagnose(problem, NW_BARTLETT, 3.0, probes=50, seed=7)
        broken += report.verdict in breakdown_verdicts
        scenario_three += select_scenario(problem).scenario == 3
    elapsed = time.perf_counter() - start
    assert broken >= 495
    assert scenario_three >= 495
    _passed(
        "genericity",
        f"breakdown verdicts {broken}/500, scenario-3 selections "
        f"{scenario_three}/500, {elapsed:.1f}s",
    )
