import functools
import gc
import weakref

import numpy as np
import pytest

from hactest import (
    BARTLETT,
    AdjustmentNotApplicableError,
    AndrewsRule,
    AugmentationImpossibleError,
    EstimatorConfig,
    FixedBRule,
    NeweyWestRule,
    RegressionProblem,
    adjusted_statistic,
    alternating_vector,
    build_adjusted,
    constant_vector,
    default_rule,
    diagnose,
    get_kernel,
    null_point,
    select_scenario,
)
from hactest import TestEngine as Engine
from hactest import prewhiten
from hactest import test_statistic as evaluate
from hactest.model import _ar1_path
from hactest.testing import (
    REASON_ADJUSTMENT_UNNECESSARY,
    REASON_HYPOTHESIS_INVOLVES_INTERCEPT,
    _quadratic_forms,
)

from .conftest import config_grid, random_problem
from .oracles import kernel_eval, kernel_lag_sum_oracle, quadratic_form_oracle
from .test_prewhiten import location_model


def scenario_one_problem(rng, n=12, restriction=None):
    """Design containing the constant; hypothesis avoids it."""
    z = rng.standard_normal(n)
    X = np.column_stack([constant_vector(n), z])
    R = np.array([[0.0, 1.0]]) if restriction is None else restriction
    return RegressionProblem(X, R, np.zeros(R.shape[0]))


class TestStatistic:
    def test_location_model_closed_form(self):
        problem, y, config = location_model()
        result = evaluate(problem, y, config)
        assert result.defined
        assert result.t_value == pytest.approx(56.0, rel=1e-12)
        assert result.omega.omega[0, 0] == pytest.approx(1.0 / 56.0, rel=1e-14)

    def test_undefined_statistic_is_zero(self, rng):
        problem, _ = random_problem(rng, n=10, k=2)
        y = problem.X @ np.array([1.0, -1.0])
        result = evaluate(problem, y, config_grid()[0])
        assert not result.defined
        assert result.t_value == 0.0

    def test_nonnegative_on_random_draws(self, rng):
        for config in config_grid():
            problem, y = random_problem(rng)
            result = evaluate(problem, y, config)
            assert result.t_value >= 0.0

    def test_engine_reuse_matches_one_shot(self, rng):
        problem, y = random_problem(rng, n=14, k=2)
        config = config_grid()[3]
        engine = Engine(problem, config)
        a = engine.result(y)
        b = evaluate(problem, y, config)
        assert a.t_value == b.t_value and a.defined == b.defined

    @pytest.mark.parametrize("design_seed, n, kind, kernel, p", [
        (20260507, 40, "newey-west", "bartlett", 1),  # the calibrate benchmark design
        (20260508, 100, "andrews", "qs", 2),  # the study benchmark design
    ])
    def test_benchmark_designs_match_the_lag_expansion(self, monkeypatch, design_seed, n,
                                                       kind, kernel, p):
        X = np.random.default_rng(design_seed).standard_normal((n, 2))
        problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        config = EstimatorConfig(get_kernel(kernel), default_rule(kind, kernel), p=p)
        adjusted = build_adjusted(problem, config)
        engine = Engine(adjusted.problem, adjusted.config)
        mu0 = X @ null_point(problem)
        draws = np.random.default_rng(design_seed + 1).standard_normal((3, n))
        ys = [mu0 + d * X[:, 0] + _ar1_path(rho, z)
              for rho in (-0.9, 0.3, 0.99, 0.9999) for d, z in zip((0.0, 2.0, 5.0), draws)]
        ys += [constant_vector(n), alternating_vector(n), X @ np.array([1.0, -2.0])]
        got = [engine.result(y) for y in ys]

        weight = functools.lru_cache(maxsize=None)(lambda x: kernel_eval(config.kernel, x))
        monkeypatch.setattr(prewhiten, "_kernel_lag_sum", lambda Z, _kernel, bandwidths: np.array(
            [kernel_lag_sum_oracle(z, weight, m_value) for z, m_value in zip(Z, bandwidths)]))
        want = [engine.result(y) for y in ys]
        assert any(w.defined for w in want) and any(not w.defined for w in want)
        for g, w in zip(got, want):
            assert (g.defined, g.omega.status, g.omega.reason) == (w.defined, w.omega.status,
                                                                    w.omega.reason)
            assert abs(g.t_value - w.t_value) <= 1e-12 * max(1.0, w.t_value)


class TestInvariance:
    @pytest.mark.parametrize("alpha", [0.5, -2.0, 10.0])
    def test_affine_null_invariance(self, rng, alpha):
        # T(alpha (y - mu0) + mu0 + X delta0) = T(y) whenever R delta0 = 0
        for config in config_grid()[:6]:
            problem, y = random_problem(rng, n=15, k=3, q=2)
            mu0 = problem.X @ null_point(problem)
            # delta0 in the null space of R
            _, _, vt = np.linalg.svd(problem.R)
            delta0 = vt[2:].T @ rng.standard_normal(1)
            shifted = alpha * (y - mu0) + mu0 + problem.X @ delta0
            base = evaluate(problem, y, config)
            moved = evaluate(problem, shifted, config)
            assert moved.defined == base.defined
            assert moved.t_value == pytest.approx(base.t_value, rel=1e-8, abs=1e-10)

    def test_power_of_two_scaling_is_bitwise_exact(self, rng):
        # with r = 0 the null point is the origin, and scaling by a power of
        # two rescales every intermediate exactly
        for config in config_grid():
            problem, y = random_problem(rng, n=13, k=2, r_zero=True)
            base = evaluate(problem, y, config)
            scaled = evaluate(problem, 2.0 * y, config)
            assert scaled.t_value == base.t_value
            assert scaled.defined == base.defined


class TestQuadraticForm:
    def test_diagonal_case(self):
        got = _quadratic_forms(np.diag([2.0, 8.0])[None], np.array([[2.0, 4.0]]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(4.0, rel=1e-14)

    def test_singular_fallback_uses_pseudoinverse(self):
        omega = np.array([[1.0, 1.0], [1.0, 1.0]])
        d = np.array([1.0, 1.0])
        assert _quadratic_forms(omega[None], d[None])[0] == pytest.approx(1.0, rel=1e-12)

    def test_each_estimate_and_discrepancy_is_its_own_form(self, rng):
        # a stack mixing a Cholesky-able estimate with one that needs the
        # eigenspace fallback, and two discrepancies per estimate: each value
        # is the one-estimate, one-discrepancy form
        omegas = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
        d = rng.standard_normal((3, 2, 2))
        got = _quadratic_forms(omegas, d)
        assert got.shape == (3, 2)
        for s in range(3):
            for b in range(2):
                assert got[s, b] == _quadratic_forms(omegas[b : b + 1], d[s, b : b + 1])[0]
                assert got[s, b] == quadratic_form_oracle(omegas[b], d[s, b])


class TestSelectScenario:
    def test_scenario_one(self, rng):
        selection = select_scenario(scenario_one_problem(rng))
        assert selection.scenario == 1 and selection.applicable
        assert selection.plus_in_span and not selection.minus_in_span
        assert selection.kbar == 3
        assert np.allclose(selection.image_plus, 0.0, atol=1e-12)

    def test_scenario_two(self, rng):
        n = 12
        X = np.column_stack([alternating_vector(n), rng.standard_normal(n)])
        problem = RegressionProblem(X, np.array([[0.0, 1.0]]), np.zeros(1))
        selection = select_scenario(problem)
        assert selection.scenario == 2
        assert selection.minus_in_span and not selection.plus_in_span
        assert selection.kbar == 3

    def test_scenario_three(self, rng):
        problem, _ = random_problem(rng, n=12, k=2)
        selection = select_scenario(problem)
        assert selection.scenario == 3
        assert not selection.plus_in_span and not selection.minus_in_span
        assert selection.kbar == 4

    def test_scenario_four(self, rng):
        n = 12
        both = constant_vector(n) + alternating_vector(n)
        X = np.column_stack([both, rng.standard_normal(n)])
        problem = RegressionProblem(X, np.array([[0.0, 1.0]]), np.zeros(1))
        selection = select_scenario(problem)
        # the two directions are collinear modulo the span, so only the
        # constant is appended
        assert selection.scenario == 4
        assert selection.kbar == 3

    def test_adjustment_unnecessary(self, rng):
        n = 12
        X = np.column_stack(
            [constant_vector(n), alternating_vector(n), rng.standard_normal(n)]
        )
        problem = RegressionProblem(X, np.array([[0.0, 0.0, 1.0]]), np.zeros(1))
        selection = select_scenario(problem)
        assert not selection.applicable and selection.scenario is None
        assert selection.reason == REASON_ADJUSTMENT_UNNECESSARY
        assert selection.kbar is None

    def test_hypothesis_involving_intercept(self, rng):
        problem = scenario_one_problem(rng, restriction=np.array([[1.0, 0.0]]))
        selection = select_scenario(problem)
        assert not selection.applicable
        assert selection.reason == REASON_HYPOTHESIS_INVOLVES_INTERCEPT

    def test_augmentation_impossible_when_no_room(self, rng):
        problem, _ = random_problem(rng, n=4, k=2)
        with pytest.raises(AugmentationImpossibleError):
            select_scenario(problem)


class TestGeometryOncePerProblem:
    """The boundary geometry is computed once per problem, and the memo
    behind that neither changes a result nor keeps a problem alive."""

    CONFIG = EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=1)

    def sequence(self, problem):
        """diagnose, select_scenario, build_adjusted: the design-level path."""
        report = diagnose(problem, self.CONFIG, 3.0)
        selection = select_scenario(problem)
        adjusted = build_adjusted(problem, self.CONFIG)
        return report.evidence, selection, adjusted

    def test_one_pass_serves_the_whole_sequence(self, rng, monkeypatch):
        problem, _ = random_problem(rng, n=30, k=2, q=1)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
        evidence, selection, adjusted = self.sequence(problem)
        assert len(calls) == 2
        assert select_scenario(problem) is selection
        assert not selection.image_plus.flags.writeable
        assert not selection.image_minus.flags.writeable
        fresh = RegressionProblem(problem.X, problem.R, problem.r)
        want_evidence, want, want_adjusted = self.sequence(fresh)
        assert len(calls) == 4
        for field in ("scenario", "reason", "kbar", "plus_in_span", "minus_in_span"):
            assert getattr(selection, field) == getattr(want, field)
        for side in ("image_plus", "image_minus"):
            assert getattr(selection, side).tobytes() == getattr(want, side).tobytes()
            assert np.array(evidence[side]).tobytes() == np.array(want_evidence[side]).tobytes()
        assert {key: v for key, v in evidence.items() if not key.startswith("image_")} == {
            key: v for key, v in want_evidence.items() if not key.startswith("image_")}
        assert adjusted.scenario == want_adjusted.scenario
        for field in ("X", "R", "r"):
            got, expect = getattr(adjusted.problem, field), getattr(want_adjusted.problem, field)
            assert got.tobytes() == expect.tobytes() and got.shape == expect.shape
        assert adjusted.config == want_adjusted.config

    def test_the_memo_keeps_no_problem_alive(self, rng):
        problem, _ = random_problem(rng, n=30, k=2, q=1)
        self.sequence(problem)
        ref = weakref.ref(problem)
        del problem
        gc.collect()
        assert ref() is None

    def test_an_impossible_augmentation_raises_every_time_and_is_freed(self, rng):
        problem, _ = random_problem(rng, n=4, k=2)
        diagnose(problem, self.CONFIG, 3.0)
        for _ in range(2):
            try:
                select_scenario(problem)
            except AugmentationImpossibleError:
                pass
            else:
                raise AssertionError("n = 4 leaves no room for the augmentation")
        ref = weakref.ref(problem)
        del problem
        gc.collect()
        assert ref() is None


class TestBuildAdjusted:
    def test_scenario_one_appends_alternating(self, rng):
        problem = scenario_one_problem(rng)
        config = EstimatorConfig(BARTLETT, default_rule("andrews", "bartlett"), p=1)
        adjusted = build_adjusted(problem, config)
        assert adjusted.scenario == 1 and adjusted.kbar == 3
        assert np.array_equal(adjusted.problem.X[:, 2], alternating_vector(12))
        assert np.array_equal(adjusted.problem.R, [[0.0, 1.0, 0.0]])
        assert np.array_equal(adjusted.problem.r, problem.r)
        assert adjusted.original is problem
        assert adjusted.config.rule.omega == (1.0, 1.0, 0.0)

    def test_scenario_three_appends_both(self, rng):
        problem, _ = random_problem(rng, n=12, k=2, q=1)
        config = EstimatorConfig(
            BARTLETT, NeweyWestRule(1, 1.1447, 1.0 / 3.0, omega=(0.5, 2.0)), p=1
        )
        adjusted = build_adjusted(problem, config)
        assert adjusted.scenario == 3 and adjusted.kbar == 4
        assert np.array_equal(adjusted.problem.X[:, 2], constant_vector(12))
        assert np.array_equal(adjusted.problem.X[:, 3], alternating_vector(12))
        assert adjusted.problem.R.shape == (1, 4)
        assert np.array_equal(adjusted.problem.R[:, 2:], np.zeros((1, 2)))
        assert adjusted.config.rule.omega == (0.5, 2.0, 0.0, 0.0)

    def test_fixed_b_rule_needs_no_padding(self, rng):
        problem, _ = random_problem(rng, n=12, k=2)
        rule = FixedBRule(b=0.5)
        adjusted = build_adjusted(problem, EstimatorConfig(BARTLETT, rule, p=1))
        assert adjusted.config.rule is rule

    def test_zero_first_preset_pads_explicitly(self, rng):
        problem = scenario_one_problem(rng)
        config = EstimatorConfig(
            BARTLETT, AndrewsRule(1, 1.1447, 1.0 / 3.0, omega="zero-first"), p=1
        )
        adjusted = build_adjusted(problem, config)
        assert adjusted.config.rule.omega == (0.0, 1.0, 0.0)

    def test_rejects_oversized_var_order(self, rng):
        problem, _ = random_problem(rng, n=12, k=2)
        config = EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=3)
        with pytest.raises(AugmentationImpossibleError, match=r"p\(kbar\+1\) \+ q = 16"):
            build_adjusted(problem, config)

    @pytest.mark.parametrize("n, intercept, q, p", [(5, False, 1, 1), (6, True, 2, 1)])
    def test_refuses_shapes_whose_adjusted_statistic_is_never_defined(
        self, rng, n, intercept, q, p
    ):
        # a p(k+3) <= n check accepts these, but n < p(kbar+1) + q: scenario 3
        # (kbar = k+2) and scenario 1 with q > p; the augmented design gives
        # T = 0 at every response, so no critical value would make it reject
        k = 2 + intercept
        X = rng.standard_normal((n, k))
        if intercept:
            X[:, 0] = 1.0
        R = np.eye(k)[intercept:intercept + q]
        problem = RegressionProblem(X, R, np.zeros(q))
        selection = select_scenario(problem)
        assert selection.scenario == (1 if intercept else 3)
        assert p * (k + 3) <= n < p * (selection.kbar + 1) + q
        config = EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=p)
        with pytest.raises(AugmentationImpossibleError, match=f"= {p * (selection.kbar + 1) + q}"):
            build_adjusted(problem, config)
        appended = [constant_vector(n), alternating_vector(n)][intercept:]
        x_bar = np.column_stack([X, *appended])
        r_bar = np.hstack([R, np.zeros((q, len(appended)))])
        engine = Engine(RegressionProblem(x_bar, r_bar, np.zeros(q)),
                        EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=p))
        for y in rng.standard_normal((20, n)):
            assert not engine.result(y).defined

    def test_accepts_scenario_one_with_p_above_q_at_the_bound(self, rng):
        # a p(k+3) <= n check refuses this design (10 > 9), yet at
        # n = p(kbar+1) + q its adjusted statistic is defined
        n, p = 9, 2
        problem = scenario_one_problem(rng, n=n)
        for config in config_grid(p):
            adjusted = build_adjusted(problem, config)
            assert adjusted.scenario == 1 and n == p * (adjusted.kbar + 1) + problem.q
            ys = rng.standard_normal((20, n))
            assert any(adjusted_statistic(adjusted, y).defined for y in ys)

    def test_refuses_when_not_applicable(self, rng):
        n = 12
        X = np.column_stack(
            [constant_vector(n), alternating_vector(n), rng.standard_normal(n)]
        )
        problem = RegressionProblem(X, np.array([[0.0, 0.0, 1.0]]), np.zeros(1))
        config = EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=1)
        with pytest.raises(AdjustmentNotApplicableError, match="adjustment-unnecessary"):
            build_adjusted(problem, config)


class TestAdjustedStatistic:
    def test_is_defined_at_a_scenario_three_design(self, rng):
        problem, y = random_problem(rng, n=14, k=2, q=1)
        config = EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=1)
        adjusted = build_adjusted(problem, config)
        result = adjusted_statistic(adjusted, y)
        assert adjusted.scenario == 3
        assert result.defined and result.t_value >= 0.0

    def test_adjusted_invariance(self, rng):
        problem, y = random_problem(rng, n=16, k=2, q=1)
        config = EstimatorConfig(BARTLETT, default_rule("andrews", "bartlett"), p=1)
        adjusted = build_adjusted(problem, config)
        mu0 = adjusted.problem.X @ null_point(adjusted.problem)
        base = adjusted_statistic(adjusted, y)
        moved = adjusted_statistic(adjusted, -3.0 * (y - mu0) + mu0)
        assert moved.t_value == pytest.approx(base.t_value, rel=1e-8)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_single_y_entry_points_reject_non_finite_responses(self, rng, bad):
        # an inf used to come back as VarRankDeficient, a NaN as LinAlgError
        problem, y = random_problem(rng, n=14, k=2, q=1)
        config = EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=1)
        adjusted = build_adjusted(problem, config)
        y[5] = bad
        with pytest.raises(ValueError, match="y must be finite"):
            evaluate(problem, y, config)
        with pytest.raises(ValueError, match="y must be finite"):
            adjusted_statistic(adjusted, y)

    def test_single_y_entry_points_reject_wrong_length_responses(self, rng):
        problem, y = random_problem(rng, n=14, k=2, q=1)
        config = EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=1)
        with pytest.raises(ValueError, match="y has length 13, expected n = 14"):
            evaluate(problem, y[:-1], config)
        with pytest.raises(ValueError, match="y has length 13, expected n = 14"):
            adjusted_statistic(build_adjusted(problem, config), y[:-1])
