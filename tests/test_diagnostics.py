import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hactest import (
    BARTLETT,
    INCONCLUSIVE,
    POSITIVE_UNADJUSTED,
    POWER_ZERO,
    QUADRATIC_SPECTRAL,
    REASON_ADJUSTMENT_UNNECESSARY,
    REASON_HYPOTHESIS_INVOLVES_INTERCEPT,
    SIZE_AT_LEAST_HALF,
    SIZE_ONE,
    SIZE_ONE_SPAN_CASE,
    TRIVIAL_BREAKDOWN,
    AndrewsRule,
    EstimatorConfig,
    FixedBRule,
    KernelSpec,
    NeweyWestRule,
    RegressionProblem,
    alternating_vector,
    constant_vector,
    default_rule,
    diagnose,
    select_scenario,
)
from hactest import TestEngine as Engine
from hactest import test_statistic as evaluate
from hactest.diagnostics import _kernel_hits_kink

from .conftest import config_grid, random_problem
from .oracles import gradient_exists, kernel_hits_kink_oracle, witness_design
from .test_prewhiten import fit_var_ols

FIXED_B = FixedBRule(b=1.0)


def boundary_values(problem, config):
    """The statistic at mu0 + e_plus and mu0 + e_minus (mu0 = 0 when r = 0)."""
    n = problem.n
    t_plus = evaluate(problem, constant_vector(n), config)
    t_minus = evaluate(problem, alternating_vector(n), config)
    return t_plus, t_minus


def spiked_design(n=9):
    """Both boundary directions give an exactly zero score matrix.

    Columns are the constant and alternating vectors with their first entry
    zeroed; all column norms are powers of two and the columns are exactly
    orthogonal, so residuals of e+ and e- come out as exact single-spike
    vectors supported on the zeroed row, where the design is zero.
    """
    col1 = np.ones(n)
    col1[0] = 0.0
    col2 = alternating_vector(n).astype(float)
    col2[0] = 0.0
    X = np.column_stack([col1, col2])
    return RegressionProblem(X, np.array([[0.0, 1.0]]), np.zeros(1))


def both_directions_in_span(rng, n=12):
    """e+ and e- are columns of X, so the statistic is undefined at both."""
    X = np.column_stack(
        [constant_vector(n), alternating_vector(n), rng.standard_normal(n)]
    )
    return RegressionProblem(X, np.array([[0.0, 0.0, 1.0]]), np.zeros(1))


class TestDiagnose:
    def test_requires_positive_finite_critical_value(self, rng):
        problem, _ = random_problem(rng, n=12, k=2)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="critical value"):
                diagnose(problem, config, bad)

    def test_size_one_when_a_boundary_direction_exceeds_c(self, rng):
        problem, _ = random_problem(rng, n=14, k=2, q=1, r_zero=True)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        t_plus, t_minus = boundary_values(problem, config)
        assert t_plus.defined and t_minus.defined
        top = max(t_plus.t_value, t_minus.t_value)
        assert top > 0.0
        report = diagnose(problem, config, top / 2.0)
        assert report.verdict == SIZE_ONE
        assert report.t_plus.t_value == t_plus.t_value
        assert report.evidence["nontrivial"] is True
        assert report.evidence["dimension_trap"] is False

    def test_size_one_takes_precedence_over_a_tie(self, rng):
        problem, _ = random_problem(rng, n=14, k=2, q=1, r_zero=True)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        t_plus, t_minus = boundary_values(problem, config)
        low, high = sorted([t_plus.t_value, t_minus.t_value])
        assert low > 0.0 and high > low
        report = diagnose(problem, config, low)
        assert report.verdict == SIZE_ONE
        assert "tie" in (report.evidence["kind_plus"], report.evidence["kind_minus"])

    def test_size_at_least_half_on_an_exact_tie(self, rng):
        problem, _ = random_problem(rng, n=14, k=2, q=1, r_zero=True)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        t_plus, t_minus = boundary_values(problem, config)
        top = max(t_plus.t_value, t_minus.t_value)
        report = diagnose(problem, config, top)
        assert report.verdict == SIZE_AT_LEAST_HALF
        # fixed-b statistics are differentiable wherever defined
        ties = {
            "plus": report.gradient_exists_plus,
            "minus": report.gradient_exists_minus,
        }
        tied_side = "plus" if t_plus.t_value >= t_minus.t_value else "minus"
        assert ties[tied_side] is True

    def test_power_zero_when_both_directions_fall_below_c(self, rng):
        problem, _ = random_problem(rng, n=14, k=2, q=1, r_zero=True)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        t_plus, t_minus = boundary_values(problem, config)
        report = diagnose(problem, config, 2.0 * max(t_plus.t_value, t_minus.t_value) + 1.0)
        assert report.verdict == POWER_ZERO
        assert report.evidence["kind_plus"] == "below"
        assert report.evidence["kind_minus"] == "below"

    def test_span_violation_dominates_every_critical_value(self, rng):
        n = 12
        X = np.column_stack([constant_vector(n), rng.standard_normal(n)])
        problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        for c in (1e-6, 1.0, 1e6):
            report = diagnose(problem, config, c)
            assert report.verdict == SIZE_ONE_SPAN_CASE
        assert report.evidence["plus_in_span"] is True
        assert report.evidence["image_plus"] == pytest.approx([1.0])
        assert not report.t_plus.defined

    def test_positive_unadjusted_when_both_directions_in_span(self, rng):
        problem = both_directions_in_span(rng)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        report = diagnose(problem, config, 1.0)
        assert report.verdict == POSITIVE_UNADJUSTED
        assert report.evidence["plus_in_span"] and report.evidence["minus_in_span"]
        # both boundary responses lie in span(X), so the statistic is
        # undefined there and random probes established nontriviality
        assert report.evidence["kind_plus"] == "undefined"
        assert report.evidence["probes_used"] >= 1

    def test_trivial_breakdown_in_the_dimension_trap(self, rng):
        problem, _ = random_problem(rng, n=4, k=2, q=2, r_zero=True)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        report = diagnose(problem, config, 1.0, probes=60, seed=5)
        assert report.verdict == TRIVIAL_BREAKDOWN
        assert report.evidence["dimension_trap"] is True
        # decided from the shape (n, k, q, p): no probe is spent
        assert report.evidence["probes_used"] == 0
        assert report.evidence["nontrivial"] is False
        assert report.gradient_exists_plus is None

    @pytest.mark.parametrize("probes", [0, -5])
    def test_rejects_fewer_than_one_probe(self, rng, probes):
        # this design needs probes to find its defined statistics; with none,
        # TrivialBreakdown would be claimed without evidence
        problem = both_directions_in_span(rng)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        with pytest.raises(ValueError, match="probes must be >= 1"):
            diagnose(problem, config, 1.0, probes=probes)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize("n, k, q", [(30, 2, 1), (6, 4, 3)])
    def test_rejects_a_bad_seed_whether_or_not_a_probe_runs(self, rng, n, k, q, seed):
        # the generic 30 x 2 design is decided at its boundary values, the
        # (6, 4, 3) design by its shape; neither spends a probe
        problem, _ = random_problem(rng, n=n, k=k, q=q)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            diagnose(problem, config, 3.0, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_bad_seed_on_a_design_that_probes(self, rng, seed):
        problem = both_directions_in_span(rng)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        assert diagnose(problem, config, 3.0).evidence["probes_used"] >= 1
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            diagnose(problem, config, 3.0, seed=seed)

    @pytest.mark.parametrize("n, k, q, p", [(6, 4, 3, 1), (6, 2, 1, 2)])
    def test_all_undefined_designs_below_the_shape_bound_spend_no_probe(
        self, rng, n, k, q, p
    ):
        # q < k, but n < p(k+1) + q still decides the breakdown from the shape
        for config in config_grid(p):
            problem, _ = random_problem(rng, n=n, k=k, q=q)
            report = diagnose(problem, config, 1.0, probes=25, seed=3)
            assert report.verdict == TRIVIAL_BREAKDOWN
            assert report.evidence["dimension_trap"] is True
            assert report.evidence["probes_used"] == 0

    @pytest.mark.parametrize("p", [1, 2])
    def test_probes_run_out_on_an_all_undefined_design_outside_the_trap(self, rng, p):
        # a column supported on the last observation makes a score row whose
        # lags are all zero, so the VAR fit is rank deficient at every
        # response although n is far above the shape bound
        n = 12
        X = np.column_stack([rng.standard_normal(n), np.eye(n)[-1]])
        problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        for config in config_grid(p):
            report = diagnose(problem, config, 1.0, probes=25, seed=3)
            assert report.verdict == TRIVIAL_BREAKDOWN
            assert report.evidence["dimension_trap"] is False
            assert report.evidence["probes_used"] == 25

    @pytest.mark.parametrize("probes", [float("inf"), 2.5, 25.0])
    def test_rejects_a_probe_count_that_is_not_an_integer(self, rng, monkeypatch, probes):
        # on this all-undefined design probes = inf used to loop for ever and
        # 2.5 spent 3 probes; a refused count evaluates no statistic
        n = 12
        X = np.column_stack([rng.standard_normal(n), np.eye(n)[-1]])
        problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        report = diagnose(problem, config, 1.0, probes=np.int64(3), seed=3)
        assert report.evidence["probes_used"] == 3

        def no_engine(*args, **kwargs):
            raise AssertionError("a statistic was evaluated")

        monkeypatch.setattr("hactest.diagnostics.TestEngine", no_engine)
        with pytest.raises(ValueError, match="probes must be >= 1"):
            diagnose(problem, config, 1.0, probes=probes, seed=3)

    def test_inconclusive_when_boundaries_break_but_the_test_lives(self):
        problem = spiked_design()
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        report = diagnose(problem, config, 1.0)
        assert report.verdict == INCONCLUSIVE
        assert report.evidence["kind_plus"] == "undefined"
        assert report.evidence["kind_minus"] == "undefined"
        assert not report.evidence["plus_in_span"]
        assert not report.evidence["minus_in_span"]
        assert report.evidence["nontrivial"] is True
        assert report.evidence["probes_used"] >= 1

    def test_tie_tolerance_reported(self, rng):
        problem, _ = random_problem(rng, n=12, k=2)
        report = diagnose(problem, EstimatorConfig(BARTLETT, FIXED_B, p=1), 5.0)
        assert report.evidence["tie_tolerance"] == pytest.approx(5e-9)


class TestGradientExists:
    def test_fixed_b_is_always_differentiable(self, rng):
        problem, y = random_problem(rng, n=12, k=2)
        config = EstimatorConfig(BARTLETT, FIXED_B, p=1)
        assert evaluate(problem, y, config).defined
        assert gradient_exists(problem, y, config) is True

    def test_zero_bandwidth_with_compact_support_is_smooth(self):
        y, X = witness_design(8, 1, 1, rule_kind="andrews")
        problem = RegressionProblem(X, np.array([[1.0]]), np.zeros(1))
        config = EstimatorConfig(BARTLETT, default_rule("andrews", "bartlett"), p=1)
        result = evaluate(problem, y, config)
        assert result.defined and result.omega.bandwidth.m == 0.0
        assert gradient_exists(problem, y, config, check_numerically=False) is True

    def test_zero_bandwidth_with_unbounded_support_is_uncertified(self):
        y, X = witness_design(8, 1, 1, rule_kind="andrews")
        problem = RegressionProblem(X, np.array([[1.0]]), np.zeros(1))
        config = EstimatorConfig(QUADRATIC_SPECTRAL, default_rule("andrews", "qs"), p=1)
        result = evaluate(problem, y, config)
        assert result.defined and result.omega.bandwidth.m == 0.0
        assert gradient_exists(problem, y, config) is None

    def test_generic_data_driven_point_is_certified(self, rng):
        problem, y = random_problem(rng, n=12, k=2, q=1)
        config = EstimatorConfig(BARTLETT, default_rule("andrews", "bartlett"), p=1)
        assert evaluate(problem, y, config).defined
        assert gradient_exists(problem, y, config) is True

    def test_a_bandwidth_on_a_kink_is_uncertified(self, rng):
        # cbar3 = 1e-300 makes M = cbar2 = 3 exactly, so lag 3 of the
        # Bartlett lag sum sits on its kink at |x| = 1
        problem = RegressionProblem(rng.standard_normal((30, 2)), [[1.0, 0.0]], [0.0])
        rule = NeweyWestRule(cbar1=1, cbar2=3.0, cbar3=1e-300)
        report = diagnose(problem, EstimatorConfig(BARTLETT, rule, p=1), 3.0)
        for result, grad in ((report.t_plus, report.gradient_exists_plus),
                             (report.t_minus, report.gradient_exists_minus)):
            assert result.defined and result.omega.bandwidth.m == 3.0
            assert grad is None

    def test_kink_detection(self):
        # bartlett is nondifferentiable at |x| = 1: lag 2 over M = 2 hits it
        assert _kernel_hits_kink(BARTLETT, 2.0, 5) is True
        assert _kernel_hits_kink(BARTLETT, 2.5, 5) is False
        # qs is smooth everywhere
        assert _kernel_hits_kink(QUADRATIC_SPECTRAL, 2.0, 5) is False
        # the nearest-lag closed form agrees with scanning every lag: exact
        # kinks, near-misses on both sides of the tolerance, huge M (where
        # the nearest lag is clipped to m - 1 or to 1) and m in {0, 1}
        kinky = KernelSpec("kinky", BARTLETT.evaluate, (1e-9, 0.25, 0.5, 1.0, 2.0, 3.7), True)
        m_values = [0.3, 0.7, 5e8, 1e9, 2e9, 1e12]
        for d in kinky.nondifferentiable_points:
            for i in range(1, 13):
                for rel in (0.0, 1e-10, -1e-10, 1e-8, -1e-8):
                    m_values.append(i / d * (1.0 + rel))
        hits = 0
        for kernel in (BARTLETT, kinky):
            for m in (0, 1, 2, 3, 5, 17, 40):
                for m_value in m_values:
                    want = kernel_hits_kink_oracle(kernel, m_value, m)
                    assert _kernel_hits_kink(kernel, m_value, m) is want, (kernel.name, m_value, m)
                    hits += want
        assert 0 < hits < 2 * 7 * len(m_values)


class TestWitnessDesign:
    def test_frozen_construction_for_k2_p1(self):
        y, X = witness_design(8, 2, 1)
        assert np.array_equal(y, np.ones(8))
        want = np.zeros((8, 2))
        want[0] = [0.0, -1.0]
        want[2] = [1.0, 0.0]
        want[4] = [-1.0, 1.0]
        assert np.array_equal(X, want)

    def test_columns_are_exactly_orthogonal_to_the_constant(self):
        for k, p in [(1, 1), (2, 1), (3, 2)]:
            _, X = witness_design(k * (p + 1) + p + 3, k, p)
            assert np.array_equal(X.sum(axis=0), np.zeros(k))

    def test_sharp_dimension_requirement(self):
        with pytest.raises(ValueError, match="needs n >= 5"):
            witness_design(4, 2, 1)
        witness_design(5, 2, 1)
        # the autoregressive plug-in rule needs one extra observation
        with pytest.raises(ValueError, match="needs n >= 6"):
            witness_design(5, 2, 1, rule_kind="andrews")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="rule_kind"):
            witness_design(8, 2, 1, rule_kind="bogus")
        with pytest.raises(ValueError, match="k >= 1"):
            witness_design(8, 0, 1)

    @pytest.mark.parametrize("rule_kind", ["andrews", "newey-west", "fixed-b"])
    def test_witness_is_exactly_positive_definite(self, rule_kind):
        k, p = 2, 1
        y, X = witness_design(10, k, p, rule_kind=rule_kind)
        problem = RegressionProblem(X, np.eye(k), np.zeros(k))
        rule = FIXED_B if rule_kind == "fixed-b" else default_rule(rule_kind, "bartlett")
        config = EstimatorConfig(BARTLETT, rule, p=p)
        result = evaluate(problem, y, config)
        assert result.defined
        out = result.omega
        A = fit_var_ols(problem, y, p).A
        assert np.array_equal(A, np.zeros_like(A))
        if rule_kind != "fixed-b":
            assert out.bandwidth.m == 0.0
        assert np.linalg.eigvalsh(out.omega).min() > 0.0


RULE_KIND = {AndrewsRule: "andrews", NeweyWestRule: "newey-west", FixedBRule: "fixed-b"}


class TestDimensionTrap:
    """n < p(k+1) + q: the statistic is undefined at every response."""

    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(
        k=st.integers(1, 4),
        p=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_statistic_is_undefined_and_diagnose_spends_no_probe(self, k, p, data, seed):
        q = data.draw(st.integers(1, k), label="q")
        lo, hi = max(p * (k + 1), 3), p * (k + 1) + q
        assume(lo < hi)
        n = data.draw(st.integers(lo, hi - 1), label="n")
        rng = np.random.default_rng(seed)
        problem, _ = random_problem(rng, n=n, k=k, q=q)
        for config in config_grid(p):
            engine = Engine(problem, config)
            for y in rng.standard_normal((3, n)):
                assert not engine.result(y).defined
            report = diagnose(problem, config, 1.0)
            assert report.verdict == TRIVIAL_BREAKDOWN
            assert report.evidence["dimension_trap"] is True
            assert report.evidence["probes_used"] == 0

    @pytest.mark.parametrize("p", [1, 2])
    def test_the_bound_is_sharp_on_random_designs(self, rng, p):
        # at n = p(k+1) + q a Gaussian design has defined statistics, and one
        # observation fewer is a trap, for every q <= k and every config
        for k in range(1, 5):
            for q in range(1, k + 1):
                n = p * (k + 1) + q
                problem, _ = random_problem(rng, n=n, k=k, q=q)
                smaller = None
                if n - 1 > max(2, k):
                    smaller, _ = random_problem(rng, n=n - 1, k=k, q=q)
                ys = rng.standard_normal((20, n))
                for config in config_grid(p):
                    engine = Engine(problem, config)
                    assert any(engine.result(y).defined for y in ys), (k, q, config)
                    report = diagnose(problem, config, 1.0)
                    assert report.evidence["dimension_trap"] is False
                    assert report.verdict != TRIVIAL_BREAKDOWN
                    if smaller is not None:
                        report = diagnose(smaller, config, 1.0)
                        assert report.evidence["dimension_trap"] is True
                        assert report.evidence["probes_used"] == 0

    @pytest.mark.parametrize("k, p", [(1, 1), (2, 1), (3, 2), (4, 3)])
    def test_first_sample_size_outside_the_trap_is_not_a_breakdown(self, k, p):
        for config in config_grid(p):
            kind = RULE_KIND[type(config.rule)]
            n = k * (p + 1) + p + (1 if kind == "andrews" else 0)
            y, X = witness_design(n, k, p, rule_kind=kind)
            problem = RegressionProblem(X, np.eye(k), np.zeros(k))
            assert evaluate(problem, y, config).defined
            report = diagnose(problem, config, 1.0)
            assert report.evidence["dimension_trap"] is False
            assert report.verdict != TRIVIAL_BREAKDOWN


class TestAgreementWithSelectScenario:
    """diagnose reads the boundary geometry that select_scenario decides on."""

    CONFIGS = (
        EstimatorConfig(BARTLETT, FIXED_B, p=1),
        EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=1),
        EstimatorConfig(QUADRATIC_SPECTRAL, default_rule("andrews", "qs"), p=1),
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        plus=st.booleans(),
        minus=st.booleans(),
        summed=st.booleans(),
        generic=st.integers(1, 3),
        extra_rows=st.integers(3, 12),
        loads_boundary=st.booleans(),
        config=st.sampled_from(CONFIGS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_span_evidence_and_verdicts_match_the_selection(
        self, plus, minus, summed, generic, extra_rows, loads_boundary, config, seed
    ):
        # bare designs, e+ and/or e- among the columns, or their sum (the
        # two directions collinear modulo the span); R loads on the boundary
        # columns or on the generic ones only
        rng = np.random.default_rng(seed)
        boundary = []
        n = generic + 2 + extra_rows
        if plus:
            boundary.append(constant_vector(n))
        if minus:
            boundary.append(alternating_vector(n))
        if summed and not boundary:
            boundary.append(constant_vector(n) + alternating_vector(n))
        k = len(boundary) + generic
        X = np.column_stack(boundary + list(rng.standard_normal((generic, n))))
        q = int(rng.integers(1, (k if loads_boundary else generic) + 1))
        R = np.zeros((q, k))
        R[:, k - generic:] = rng.standard_normal((q, generic))
        if loads_boundary:
            R[:, :k - generic] = rng.standard_normal((q, k - generic))
        assume(np.linalg.matrix_rank(R) == q)
        problem = RegressionProblem(X, R, np.zeros(q))

        selection = select_scenario(problem)
        report = diagnose(problem, config, 3.0, probes=20)
        evidence = report.evidence
        assert evidence["plus_in_span"] is selection.plus_in_span
        assert evidence["minus_in_span"] is selection.minus_in_span
        for side in ("plus", "minus"):
            image = getattr(selection, f"image_{side}")
            assert np.array(evidence[f"image_{side}"]).tobytes() == image.tobytes()
        if report.verdict != TRIVIAL_BREAKDOWN:
            assert (report.verdict == SIZE_ONE_SPAN_CASE) == (
                selection.reason == REASON_HYPOTHESIS_INVOLVES_INTERCEPT
            )
            assert (report.verdict == POSITIVE_UNADJUSTED) == (
                selection.reason == REASON_ADJUSTMENT_UNNECESSARY
            )
