"""The block engine against the one-response scalar statistic it replaced.

The engine evaluates a (b x n) block of responses with stacked numpy calls.
Each response must get exactly what the scalar pipeline in
``oracles.ScalarStatistic`` gives it alone: the same outcome class
(undefinedness reason, or definiteness class) and a bitwise-equal T, in
blocks of 1, of 7 and of the whole batch.
"""
import numpy as np
import pytest

from hactest import (
    BARTLETT,
    EstimatorConfig,
    FixedBRule,
    RegressionProblem,
    alternating_vector,
    build_adjusted,
    constant_vector,
    default_rule,
    get_kernel,
    null_point,
)
from hactest import TestEngine as Engine
from hactest import test_statistic as evaluate
from hactest._linalg import numeric_rank
from hactest.bandwidth import (
    DENOMINATOR_ZERO,
    PLUG_IN_NOT_FINITE,
    RHO_UNDEFINED,
    RHO_UNIT,
    SIGMA_ALL_ZERO,
)
from hactest.diagnostics import _fd_gradients_agree
from hactest.prewhiten import (
    BANDWIDTH_UNDEFINED,
    POSITIVE_DEFINITE,
    RECOLOR_SINGULAR,
    SINGULAR_NONNEG,
    VAR_RANK_DEFICIENT,
    ZERO,
)

from .conftest import config_grid, random_problem
from .oracles import ScalarStatistic, fd_gradients_agree_oracle, rank_oracle, witness_design

CHUNKS = (1, 7, None)


def block_kinds(engine, Y):
    """Per response, the block's undefinedness reason or definiteness class."""
    block = engine.omega_engine.outcomes(Y)
    kinds = list(block.reasons)
    for j, i in enumerate(block.defined):
        kinds[i] = block.definiteness[j]
    return kinds


def assert_matches_oracle(problem, config, Y):
    """Every row of Y: the oracle's class and bitwise T, at every chunk size.

    Returns the oracle's classes.
    """
    engine = Engine(problem, config)
    scalar = ScalarStatistic(problem, config)
    want = [scalar.evaluate(y) for y in Y]
    want_kinds = [kind for kind, _t, _omega, _bw in want]
    want_t = np.array([t for _kind, t, _omega, _bw in want])
    for chunk in CHUNKS:
        size = len(Y) if chunk is None else chunk
        starts = range(0, len(Y), size)
        got_t = np.concatenate([engine.t_values(Y[i : i + size]) for i in starts])
        assert np.array_equal(got_t, want_t), (chunk, got_t, want_t)
        got_kinds = sum((block_kinds(engine, Y[i : i + size]) for i in starts), [])
        assert got_kinds == want_kinds, chunk
    for y, (kind, t, omega, bw) in zip(Y, want):
        res = engine.result(y)
        out = res.omega
        assert (out.reason if out.reason is not None else out.definiteness) == kind
        assert res.t_value == t
        assert res.defined == (kind == POSITIVE_DEFINITE)
        assert out.bandwidth == bw
        if omega is not None:
            assert np.array_equal(out.omega, omega)
    return want_kinds


def responses(rng, problem, rows=9):
    """Gaussian rows at several scales, the boundary directions around the
    null mean, and a response inside span(X)."""
    n = problem.n
    Y = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
    mu0 = problem.X @ null_point(problem)
    extra = [mu0 + constant_vector(n), mu0 + alternating_vector(n),
             problem.X @ rng.standard_normal(problem.k)]
    return np.vstack([Y, extra])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("config_index", range(len(config_grid())))
def test_seeded_problems_match_the_scalar_statistic(rng, config_index, p):
    config = config_grid(p)[config_index]
    kinds = []
    for trial in range(4):
        problem, _ = random_problem(rng, n=int(rng.integers(9 * p, 31)), k=2,
                                    q=1 + trial % 2, r_zero=trial % 2 == 1)
        kinds += assert_matches_oracle(problem, config, responses(rng, problem))
        try:
            adjusted = build_adjusted(problem, config)
        except ValueError:
            continue
        kinds += assert_matches_oracle(adjusted.problem, adjusted.config,
                                       responses(rng, adjusted.problem))
    assert POSITIVE_DEFINITE in kinds and VAR_RANK_DEFICIENT in kinds


@pytest.mark.parametrize("rule_kind", ["fixed-b", "newey-west", "andrews"])
@pytest.mark.parametrize("k, p", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_witness_designs_match_the_scalar_statistic(rng, rule_kind, k, p):
    n = p * (k + 1) + k + (1 if rule_kind == "andrews" else 0)
    y, X = witness_design(n, k, p, rule_kind)
    rule = FixedBRule(b=0.5) if rule_kind == "fixed-b" else default_rule(rule_kind, "bartlett")
    config = EstimatorConfig(BARTLETT, rule, p=p)
    problem = RegressionProblem(X, np.eye(k), np.zeros(k))
    Y = np.vstack([y, y + 1e-3 * rng.standard_normal((4, n))])
    kinds = assert_matches_oracle(problem, config, Y)
    assert kinds[0] == POSITIVE_DEFINITE


def intercept_problem(n=8):
    return RegressionProblem(np.ones((n, 1)), [[1.0]], [0.0])


def andrews(p=1):
    return EstimatorConfig(BARTLETT, default_rule("andrews", "bartlett"), p=p)


def scale_design():
    X = np.random.default_rng(3).standard_normal((30, 2))
    y = np.random.default_rng(4).standard_normal(30)
    return RegressionProblem(X, [[1.0, 0.0]], [0.0]), y


def degenerate_fixtures():
    """(label, problem, config, y, expected class, expected bandwidth reason).

    The integer fixtures keep every step exact: n = 8 makes the intercept
    projection exact, and the residuals make the VAR fit and the bandwidth
    sums land on the degenerate value exactly.
    """
    problem, y30 = scale_design()
    trap = RegressionProblem([[-2.0, 0.0], [1.0, -2.0], [1.0, 1.0], [-2.0, -2.0]],
                             np.eye(2), np.zeros(2))
    flat = RegressionProblem([[-1.0, 2.0], [2.0, -2.0], [-1.0, 2.0], [2.0, -2.0]],
                             np.eye(2), np.zeros(2))
    fixed = EstimatorConfig(BARTLETT, FixedBRule(b=0.5), p=1)
    return [
        ("in-span", problem, fixed, problem.X @ np.array([0.7, -2.0]), VAR_RANK_DEFICIENT, None),
        ("var-rank", intercept_problem(), andrews(2), alternating_vector(8), VAR_RANK_DEFICIENT,
         None),
        ("recolor", intercept_problem(), andrews(),
         np.array([1.0, 1.0, 2.0, 1.0, 0.0, 0.0, -2.0, -3.0]), RECOLOR_SINGULAR, None),
        ("rho-undefined", intercept_problem(), andrews(),
         np.array([2.0, 0, 0, 0, 0, 0, 0, -2.0]), BANDWIDTH_UNDEFINED, RHO_UNDEFINED),
        ("rho-unit", intercept_problem(), andrews(),
         np.array([2.0, 1.0, 0, 0, 0, 0, -1.0, -2.0]), BANDWIDTH_UNDEFINED, RHO_UNIT),
        ("sigma-zero", intercept_problem(), andrews(2),
         np.array([0.0, 0, -1.0, 1.0, 0, -1.0, 1.0, 0]), BANDWIDTH_UNDEFINED, SIGMA_ALL_ZERO),
        ("denominator-zero", RegressionProblem(np.ones((3, 1)), [[1.0]], [0.0]),
         EstimatorConfig(BARTLETT, default_rule("newey-west", "bartlett"), p=1),
         np.array([2.0, 2.0, -4.0]),
         BANDWIDTH_UNDEFINED, DENOMINATOR_ZERO),
        ("plug-in-not-finite", problem,
         EstimatorConfig(get_kernel("qs"), default_rule("andrews", "qs"), p=1), y30 * 1e-160,
         BANDWIDTH_UNDEFINED, PLUG_IN_NOT_FINITE),
        ("singular", trap, fixed, np.array([0.0, 2.0, 2.0, -2.0]), SINGULAR_NONNEG, None),
        ("zero", flat, fixed, np.array([-1.0, 1.0, -2.0, 2.0]), ZERO, None),
    ]


@pytest.mark.parametrize("fixture", degenerate_fixtures(), ids=lambda f: f[0])
def test_degenerate_fixtures_match_the_scalar_statistic(rng, fixture):
    _label, problem, config, y, kind, bandwidth_reason = fixture
    # at 1e-160 the normal equations underflow and the VAR fit is NaN; the
    # bandwidth rule still reports a typed reason, on both paths alike
    with np.errstate(invalid="ignore"):
        got_kind, _t, _omega, bw = ScalarStatistic(problem, config).evaluate(y)
        assert got_kind == kind
        assert (bw.reason if bw is not None else None) == bandwidth_reason
        # the fixture among ordinary responses, so blocks mix outcome classes
        Y = np.vstack([rng.standard_normal((3, problem.n)), y,
                       rng.standard_normal((6, problem.n)), y])
        kinds = assert_matches_oracle(problem, config, Y)
    assert kinds[3] == kind and kinds[-1] == kind


def test_a_singular_normal_equation_is_rank_deficient_in_a_mixed_block(rng):
    # the SVD rank check passes, but V1 V1' is exactly singular at y: both
    # paths report VarRankDeficient there, and the block's other responses
    # keep the class and the estimate they get alone
    problem = RegressionProblem([[-1.0, 2.0], [2.0, -2.0], [-1.0, 2.0], [2.0, -2.0]],
                                np.eye(2), np.zeros(2))
    config = EstimatorConfig(BARTLETT, FixedBRule(b=0.5), p=1)
    y = np.array([-1.0, -2.0, -1.0, -1.0])
    scalar = ScalarStatistic(problem, config)
    assert scalar.evaluate(y)[0] == VAR_RANK_DEFICIENT
    Y = np.vstack([rng.standard_normal((3, 4)), y, [1.0, 2.0, 3.0, 4.0], y])
    kinds = assert_matches_oracle(problem, config, Y)
    assert kinds[3] == kinds[-1] == VAR_RANK_DEFICIENT
    block = Engine(problem, config).omega_engine.outcomes(Y)
    assert 4 in block.defined
    for j, i in enumerate(block.defined):
        assert np.array_equal(block.omega[j], scalar.evaluate(Y[i])[2])


@pytest.mark.parametrize("rule, kernel", [("andrews", "qs"), ("newey-west", "parzen"),
                                          ("newey-west", "qs")])
def test_gradient_check_gives_the_per_response_flag(rng, rule, kernel):
    config = EstimatorConfig(get_kernel(kernel), default_rule(rule, kernel), p=1)
    checked = 0
    while checked < 3:
        problem = RegressionProblem(rng.standard_normal((14, 2)), [[1.0, 0.0]], [0.0])
        y = np.ones(14) + 0.1 * rng.standard_normal(14) * checked
        if not evaluate(problem, y, config).defined:
            continue
        engine = Engine(problem, config)
        assert _fd_gradients_agree(engine, y) == fd_gradients_agree_oracle(problem, config, y)
        checked += 1


def test_stacked_rank_is_each_matrix_rank(rng):
    # stacks of single rows and columns (where a finite one needs no SVD)
    # and of wider matrices, with zero, subnormal, rank-deficient and
    # infinite members: every rank is the one the SVD threshold gives that
    # matrix alone
    for shape in ((1, 9), (9, 1), (2, 7), (4, 4)):
        stack = rng.standard_normal((7,) + shape)
        stack[1] = 0.0
        stack[2] *= 1e-310
        stack[3, 0] = stack[3, -1]
        stack[4] = stack[4, :, :1] * np.ones(shape[1])  # rank one
        stack[6, 0, -1] = np.inf
        with np.errstate(invalid="ignore"):
            want = [rank_oracle(a) for a in stack]
            assert numeric_rank(stack) == want
            assert [numeric_rank(a) for a in stack] == want
        assert want[6] == 0
        assert numeric_rank(stack[:0]) == []


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 7)])
def test_a_nan_matrix_raises_alone_and_in_a_stack(rng, shape):
    a = rng.standard_normal(shape)
    a[0, -1] = np.nan
    stack = np.stack([rng.standard_normal(shape), a])
    for got in (rank_oracle, numeric_rank):
        with pytest.raises(np.linalg.LinAlgError):
            got(a)
    with pytest.raises(np.linalg.LinAlgError):
        numeric_rank(stack)


def test_a_nan_fit_raises_as_one_response_does():
    # at 1e-160 the normal equations underflow and the fit is NaN; fixed-b
    # still defines a bandwidth, so the NaN B reaches the rank decision,
    # whose SVD raises on both paths (q = 1: a single row of B)
    problem, y30 = scale_design()
    config = EstimatorConfig(BARTLETT, FixedBRule(b=0.5), p=1)
    y = y30 * 1e-160
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            ScalarStatistic(problem, config).evaluate(y)
        with pytest.raises(np.linalg.LinAlgError):
            Engine(problem, config).result(y)
        with pytest.raises(np.linalg.LinAlgError):
            Engine(problem, config).t_values(np.vstack([y30, y]))
