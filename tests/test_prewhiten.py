import functools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hactest import (
    BARTLETT,
    AndrewsRule,
    EstimatorConfig,
    FixedBRule,
    NeweyWestRule,
    OmegaEngine,
    RegressionProblem,
    assemble_omega,
    build_adjusted,
    default_rule,
    get_kernel,
)
from hactest import TestEngine as Engine
from hactest._linalg import symmetrize
from hactest.bandwidth import DENOMINATOR_ZERO, PLUG_IN_NOT_FINITE
from hactest.prewhiten import (
    BANDWIDTH_UNDEFINED,
    POSITIVE_DEFINITE,
    RECOLOR_SINGULAR,
    SINGULAR_NONNEG,
    UNDEFINED,
    VAR_RANK_DEFICIENT,
    WELL_DEFINED,
    ZERO,
    OmegaOutcome,
    _definiteness,
    _kernel_lag_sum,
)

from .conftest import config_grid, random_problem
from .oracles import (
    convolved_lag_sum,
    gamma_oracle,
    kernel_eval,
    kernel_lag_sum_oracle,
    quadratic_form_oracle,
    toeplitz_statistic_oracle,
)


def fit_var_ols(problem, y, p):
    """Step 1 alone, through the engine that runs it inside the pipeline:
    the regressors ``V1``, coefficients ``A``, residuals ``Z`` and
    ``recolor`` (None when singular), or None when the VAR fit is
    undefined."""
    config = EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p)
    engine = OmegaEngine(problem, config)
    rows, V1, A, Z, recolor, regular = engine._fit(np.asarray(y, dtype=float)[None])
    if not rows:
        return None
    return SimpleNamespace(V1=V1[0], A=A[0], Z=Z[0], recolor=recolor[0] if regular[0] else None)


def scores(problem, y):
    """The score series X' diag(u) at the OLS residual u, as step 1 forms it."""
    engine = OmegaEngine(problem, EstimatorConfig(BARTLETT, FixedBRule(b=1.0), 1))
    return problem.X.T * (engine.annihilator @ np.asarray(y, dtype=float))


def location_model():
    """Intercept-only regression whose pipeline values are known in closed form."""
    X = np.ones((8, 1))
    problem = RegressionProblem(X, np.array([[1.0]]), np.zeros(1))
    y = np.array([0.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    config = EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=1)
    return problem, y, config


class TestConfig:
    def test_p_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=0)
        with pytest.raises(ValueError):
            EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=1.5)

    def test_engine_rejects_oversized_p(self, rng):
        problem, _ = random_problem(rng, n=8, k=3)
        OmegaEngine(problem, EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=2))
        with pytest.raises(ValueError, match="p must satisfy"):
            OmegaEngine(problem, EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=3))

    @pytest.mark.parametrize("kernel, rule, field", [
        ("bartlett", FixedBRule(b=1.0), "kernel"),
        (BARTLETT, "andrews", "rule"),
        (BARTLETT, object(), "rule"),
    ], ids=["str-kernel", "str-rule", "object-rule"])
    def test_refuses_a_kernel_or_rule_of_the_wrong_type(self, kernel, rule, field):
        # refused at construction, not as AttributeError or TypeError at
        # every statistic
        with pytest.raises(ValueError, match=f"^{field} must be"):
            EstimatorConfig(kernel, rule)

    @pytest.mark.parametrize("make", [
        lambda omega: AndrewsRule(j=1, c1=1.0, c2=0.3, omega=omega),
        lambda omega: NeweyWestRule(cbar1=1, cbar2=1.0, cbar3=0.2, omega=omega),
    ], ids=["andrews", "newey-west"])
    def test_engine_refuses_score_weights_that_do_not_fit_k(self, rng, make):
        # refused at build, so a response in span(X), whose fit fails first,
        # cannot hide the error behind VarRankDeficient
        X = rng.standard_normal((20, 2))
        problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        for omega in ((1.0,), (1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match=f"omega has length {len(omega)}, expected k = 2"):
                Engine(problem, EstimatorConfig(BARTLETT, make(omega)))
        engine = Engine(problem, EstimatorConfig(BARTLETT, make((1.0, 1.0))))
        assert engine.result(X @ np.array([1.0, 2.0])).omega.reason == VAR_RANK_DEFICIENT
        one, _ = random_problem(rng, n=10, k=1)
        with pytest.raises(ValueError, match="zero-first"):
            Engine(one, EstimatorConfig(BARTLETT, make("zero-first")))


class TestVarFit:
    def test_location_model_pieces(self):
        problem, y, _ = location_model()
        fit = fit_var_ols(problem, y, p=1)
        V = scores(problem, y)
        assert np.array_equal(V, [[-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(fit.V1, [[-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
        # the cross product V1 Vp' is exactly zero, so the fitted coefficient
        # must be exactly zero, not merely small, and Z is Vp itself
        assert fit.A[0, 0] == 0.0
        assert np.array_equal(fit.Z, [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(fit.recolor, [[1.0]])

    def test_shapes_and_block_order(self, rng):
        problem, y = random_problem(rng, n=14, k=2)
        p = 2
        fit = fit_var_ols(problem, y, p)
        V = scores(problem, y)
        n, k, m = 14, 2, 14 - p
        assert fit.V1.shape == (k * p, m)
        assert fit.A.shape == (k, k * p)
        assert fit.Z.shape == (k, m)
        assert np.array_equal(fit.V1[:k], V[:, 1 : n - 1])
        assert np.array_equal(fit.V1[k:], V[:, 0 : n - 2])
        assert np.array_equal(fit.Z, V[:, p:] - fit.A @ fit.V1)

    def test_normal_equations_hold(self, rng):
        for _ in range(10):
            problem, y = random_problem(rng)
            p = 1 if problem.n < 3 * (problem.k + 1) else 2
            fit = fit_var_ols(problem, y, p)
            Vp = scores(problem, y)[:, p:]
            lhs = fit.A @ (fit.V1 @ fit.V1.T)
            rhs = Vp @ fit.V1.T
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
            assert np.allclose(fit.Z, Vp - fit.A @ fit.V1)

    def test_response_in_span_is_rank_deficient(self, rng):
        problem, _ = random_problem(rng, n=12, k=2)
        y = problem.X @ np.array([0.7, -2.0])
        assert fit_var_ols(problem, y, 1) is None

    def test_zero_scores_are_rank_deficient(self):
        # u-hat = e_1 exactly (both columns have power-of-two norms and a
        # zero first entry, so the projector arithmetic is exact), and the
        # design's first row is zero, so every score column vanishes
        col1 = np.ones(9) - np.eye(9)[0]
        col2 = np.array([0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        problem = RegressionProblem(np.column_stack([col1, col2]), np.eye(2), np.zeros(2))
        fit = fit_var_ols(problem, np.ones(9), 1)
        assert fit is None


def lag_sum_of_one(Z, kernel, m_value):
    """The engine's lag sum for one block of rows: a stack of one."""
    return _kernel_lag_sum(Z[None], kernel, [m_value])[0]


class TestKernelLagSum:
    # M = 0, M < 1 (lag zero only for compact kernels), M inside and past the order
    @pytest.mark.parametrize("m_value", [0.0, 0.6, 1.5, 2.5, 7.0, 150.0])
    def test_matches_double_loop_oracle(self, rng, m_value):
        for kernel in (BARTLETT, get_kernel("parzen"), get_kernel("qs")):
            weight = functools.lru_cache(maxsize=None)(lambda x: kernel_eval(kernel, x))
            for m in (1, 2, 6, 17, 97):
                Z = rng.standard_normal((2, m))
                got = lag_sum_of_one(Z, kernel, m_value)
                want = kernel_lag_sum_oracle(Z, weight, m_value)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_matches_gamma_expansion(self, rng):
        Z = rng.standard_normal((3, 8))
        kernel = get_kernel("qs")
        m_value = 3.25
        want = gamma_oracle(Z, 0)
        for i in range(1, 8):
            w = kernel_eval(kernel, i / m_value)
            want = want + w * (gamma_oracle(Z, i) + gamma_oracle(Z, -i))
        got = lag_sum_of_one(Z, kernel, m_value)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_zero_bandwidth_keeps_lag_zero_only(self, rng):
        Z = rng.standard_normal((2, 6))
        assert np.allclose(lag_sum_of_one(Z, BARTLETT, 0.0), gamma_oracle(Z, 0))

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("kernel", [BARTLETT, get_kernel("parzen"), get_kernel("qs")],
                             ids=lambda k: k.name)
    def test_a_stack_is_the_per_response_sum_bitwise(self, rng, kernel, q):
        # mixed M in one stack: lag zero only, below one lag, a few lags,
        # the whole order and past it, and tiny M, whose larger lag ratios
        # pass 1e300 or overflow to inf; in blocks of 1, of 7 and all at once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (1, 2, 6, 29, 98):
                ms = [0.0, 0.6, 1.5, 7.0, float(m), m + 0.5, 3.0 * m, 1e-310, 5e-324, 1e-307, 1e-300,
                      2e-300]
                ms = [ms[i] for i in rng.permutation(len(ms))] + [0.0, 0.0]
                ms += rng.uniform(0.1, 1.5 * m, 9).tolist()
                Z = rng.standard_normal((len(ms), q, m))
                want = [convolved_lag_sum(z, kernel, M) for z, M in zip(Z, ms)]
                for size in (1, 7, len(ms)):
                    for start in range(0, len(ms), size):
                        block = slice(start, start + size)
                        got = _kernel_lag_sum(Z[block], kernel, ms[block])
                        assert got.shape == (len(want[block]), q, q)
                        for g, w in zip(got, want[block]):
                            assert np.array_equal(g, w)


class TestOmegaOutcome:
    def test_location_model_values(self):
        problem, y, config = location_model()
        out = assemble_omega(problem, y, config)
        assert out.status == WELL_DEFINED
        assert out.bandwidth.m == 7.0
        assert out.psi[0, 0] == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert out.omega[0, 0] == pytest.approx(1.0 / 56.0, rel=1e-14)
        assert out.definiteness == POSITIVE_DEFINITE

    def test_status_is_read_from_reason(self):
        assert OmegaOutcome().status == WELL_DEFINED
        for reason in (VAR_RANK_DEFICIENT, RECOLOR_SINGULAR, BANDWIDTH_UNDEFINED):
            out = OmegaOutcome(reason=reason)
            assert out.status == UNDEFINED and not out.well_defined

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_response_is_rejected(self, bad):
        # an inf used to be reported as VarRankDeficient
        problem, y, config = location_model()
        y = np.array(y, dtype=float)
        y[2] = bad
        with pytest.raises(ValueError, match="y must be finite"):
            assemble_omega(problem, y, config)

    def test_span_response_is_var_rank_deficient(self, rng):
        problem, _ = random_problem(rng, n=10, k=2)
        out = assemble_omega(problem, problem.X @ np.ones(2), config_grid()[0])
        assert out.status == UNDEFINED
        assert out.reason == VAR_RANK_DEFICIENT
        assert out.omega is None and out.bandwidth is None

    def test_recolor_singular_construction(self):
        # the fitted VAR coefficient is exactly 1 for this response, making
        # I - A exactly singular
        X = np.ones((10, 1))
        problem = RegressionProblem(X, np.array([[1.0]]), np.zeros(1))
        y = np.array([0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0, 1.0, 3.0])
        fit = fit_var_ols(problem, y, 1)
        assert fit.A[0, 0] == 1.0
        assert fit.recolor is None
        out = assemble_omega(problem, y, config_grid()[0])
        assert out.reason == RECOLOR_SINGULAR
        assert out.bandwidth is None

    def test_bandwidth_undefined_carries_sub_reason(self):
        # Z = (3, -3) for this response, and the rule's lag weights at n = 3,
        # (1, 1), cancel the bandwidth denominator exactly
        X = np.ones((3, 1))
        problem = RegressionProblem(X, np.array([[1.0]]), np.zeros(1))
        y = np.array([2.0, 2.0, -4.0])
        rule = default_rule("newey-west", "bartlett")
        out = assemble_omega(problem, y, EstimatorConfig(BARTLETT, rule, p=1))
        assert out.reason == BANDWIDTH_UNDEFINED
        assert out.bandwidth is not None
        assert out.bandwidth.reason == DENOMINATOR_ZERO

    @pytest.mark.parametrize("kind, kernel, scale", [
        ("andrews", "qs", 1e80), ("andrews", "qs", 1e120),
    ])
    def test_non_finite_plug_in_bandwidth_is_a_typed_reason(self, kind, kernel, scale):
        # the VAR fit is finite at these scales, but the plug-in sums
        # overflow; the bandwidth used to raise "defined bandwidth must be
        # finite"
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        problem = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        config = EstimatorConfig(get_kernel(kernel), default_rule(kind, kernel), p=1)
        with np.errstate(all="ignore"):
            out = assemble_omega(problem, y * scale, config)
        assert out.reason == BANDWIDTH_UNDEFINED
        assert out.bandwidth.reason == PLUG_IN_NOT_FINITE

    def test_well_defined_pieces_fit_together(self, rng):
        for config in config_grid():
            problem, y = random_problem(rng, n=16, k=2)
            out = assemble_omega(problem, y, config)
            assert out.status == WELL_DEFINED
            assert out.omega.shape == (problem.q, problem.q)
            assert out.psi.shape == (2, 2)
            assert np.array_equal(out.omega, out.omega.T)
            assert np.array_equal(out.psi, out.psi.T)
            assert out.Z.shape == (2, 15) and out.recolor.shape == (2, 2)

    def test_matches_toeplitz_representation(self, rng):
        for config in config_grid():
            problem, y = random_problem(rng, n=14, k=2, q=2)
            out = assemble_omega(problem, y, config)
            assert out.status == WELL_DEFINED
            want = toeplitz_statistic_oracle(
                problem, out, lambda x: kernel_eval(config.kernel, x)
            )
            assert np.allclose(out.omega, want, rtol=1e-10, atol=1e-12)

    def test_engine_and_convenience_agree(self, rng):
        problem, y = random_problem(rng, n=12, k=2)
        config = config_grid()[0]
        engine = OmegaEngine(problem, config)
        a = engine.outcome(y)
        b = assemble_omega(problem, y, config)
        assert np.array_equal(a.omega, b.omega)
        assert a.bandwidth.m == b.bandwidth.m


class TestOmegaFromRestrictionRows:
    """Omega is smoothed from the q rows of B; Psi is formed on first read."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("adjusted", [False, True], ids=["bare", "adjusted"])
    @pytest.mark.parametrize("config_index", range(len(config_grid())))
    def test_omega_is_the_recolored_long_run_matrix_in_restriction_space(
        self, rng, config_index, adjusted, p, q
    ):
        config = config_grid(p)[config_index]
        problem, _ = random_problem(rng, n=24, k=3, q=q)
        if adjusted:
            adj = build_adjusted(problem, config)
            problem, config = adj.problem, adj.config
        engine = Engine(problem, config)
        classes = set()
        for scale in (1.0, 1e-3, 1e4):
            for _ in range(3):
                res = engine.result(rng.standard_normal(problem.n) * scale)
                out = res.omega
                assert out.status == WELL_DEFINED
                classes.add(out.definiteness)
                g = engine.g
                want = symmetrize(problem.n * g @ out.psi @ g.T)
                assert np.max(np.abs(out.omega - want)) <= 1e-12 * np.max(np.abs(want))
                if res.defined:
                    np.linalg.cholesky(want)
                    t = quadratic_form_oracle(want, res.discrepancy)
                    assert abs(res.t_value - t) <= 1e-10 * max(1.0, t)
        assert POSITIVE_DEFINITE in classes

    def test_psi_is_the_recolored_kernel_lag_sum_bitwise(self, rng):
        for p in (1, 2):
            for config in config_grid(p):
                problem, y = random_problem(rng, n=20, k=2, q=1)
                out = OmegaEngine(problem, config).outcome(y)
                lag_sum = convolved_lag_sum(out.Z, config.kernel, out.bandwidth.m)
                want = symmetrize(out.recolor @ lag_sum @ out.recolor.T)
                assert np.array_equal(out.psi, want)
                assert out.psi is out.psi

    def test_undefined_outcomes_have_no_psi(self, rng):
        problem, _ = random_problem(rng, n=10, k=2)
        out = assemble_omega(problem, problem.X @ np.ones(2), config_grid()[0])
        assert out.reason == VAR_RANK_DEFICIENT
        assert out.psi is None


class TestDefiniteness:
    """``_definiteness`` classes a stack of B by row rank, capped at m - kp."""

    def test_zero(self):
        assert _definiteness(np.zeros((1, 2, 5)), 5) == [ZERO]

    def test_singular_nonneg(self):
        B = np.array([[[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]])
        assert _definiteness(B, 3) == [SINGULAR_NONNEG]

    def test_positive_definite(self, rng):
        assert _definiteness(rng.standard_normal((1, 2, 8)), 8) == [POSITIVE_DEFINITE]

    def test_the_cap_decides_over_full_row_rank(self, rng):
        # roundoff dust can give B full row rank q; below the cap m - kp < q
        # the true rank is less than q, so the class is singular
        B = rng.standard_normal((2, 2, 8))
        assert _definiteness(B, 2) == [POSITIVE_DEFINITE] * 2
        assert _definiteness(B, 1) == [SINGULAR_NONNEG] * 2

    def test_a_stack_is_classed_member_by_member(self, rng):
        B = np.stack([np.zeros((2, 6)), np.outer([1.0, -3.0], rng.standard_normal(6)),
                      rng.standard_normal((2, 6))])
        assert _definiteness(B, 6) == [ZERO, SINGULAR_NONNEG, POSITIVE_DEFINITE]
