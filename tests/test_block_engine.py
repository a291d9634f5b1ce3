"""The block engine against the one-response scalar statistic it replaced.

The engine evaluates a (b x n) block of responses with stacked numpy calls.
Each response must get exactly what the scalar pipeline in
``oracles.ScalarStatistic`` gives it alone: the same outcome class
(undefinedness reason, or definiteness class) and a bitwise-equal T, in
blocks of 1, of 7 and of the whole batch.
"""
import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hactest import (
    BARTLETT,
    EstimatorConfig,
    FixedBRule,
    RegressionProblem,
    alternating_vector,
    assemble_omega,
    build_adjusted,
    constant_vector,
    default_rule,
    get_kernel,
    kernel_names,
    null_point,
)
from hactest import TestEngine as Engine
from hactest import test_statistic as evaluate
from hactest import prewhiten
from hactest._linalg import numeric_rank
from hactest.bandwidth import (
    DENOMINATOR_ZERO,
    OMEGA_PRESETS,
    PLUG_IN_NOT_FINITE,
    RHO_UNDEFINED,
    RHO_UNIT,
    RULE_NAMES,
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
    block = engine.outcomes(Y)
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


def score_weights(k):
    """A preset, or an explicit nonnegative, not-all-zero tuple of 1 .. k+1
    weights: of the length k that fits, or of one that does not."""
    explicit = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=k + 1)
    return st.one_of(st.sampled_from(OMEGA_PRESETS),
                     explicit.filter(any).map(tuple))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.integers(1, 4), p=st.integers(1, 3), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_a_built_engine_never_raises_on_a_finite_response(k, p, data, seed):
    # building refuses exactly the pairs no response could use: p > n/(k+1),
    # and score weights that do not fit k.  A built engine returns a value
    # or a typed outcome at every finite response, and its rule only ever
    # sees a k x (n - p) residual matrix with at least 2 columns
    n = data.draw(st.integers(max(3, k + 1), 30), label="n")
    q = data.draw(st.integers(1, k), label="q")
    kernel = data.draw(st.sampled_from(kernel_names()), label="kernel")
    kind = data.draw(st.sampled_from(RULE_NAMES), label="rule")
    rule = default_rule(kind, kernel)
    fits = True
    if kind != "fixed-b":
        omega = data.draw(score_weights(k), label="omega")
        rule = dataclasses.replace(rule, omega=omega)
        fits = k >= 2 if omega == "zero-first" else (omega == "ones" or len(omega) == k)
    rng = np.random.default_rng(seed)
    problem, _ = random_problem(rng, n=n, k=k, q=q)
    config = EstimatorConfig(get_kernel(kernel), rule, p=p)
    if not (fits and p * (k + 1) <= n):
        with pytest.raises(ValueError, match="omega|p must satisfy"):
            Engine(problem, config)
        return
    engine = Engine(problem, config)
    Y = responses(rng, problem, rows=3)
    shapes = []
    real = prewhiten.compute_bandwidth

    def compute_bandwidth(rule, Z, n, p):
        shapes.append(Z.shape)
        return real(rule, Z, n, p)

    with mock.patch.object(prewhiten, "compute_bandwidth", compute_bandwidth):
        t = engine.t_values(Y)
        results = [engine.result(y) for y in Y]
    assert np.isfinite(t).all() and (t >= 0.0).all()
    assert [res.t_value for res in results] == t.tolist()
    assert n - p >= 2 and set(shapes) <= {(k, n - p)}


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
         EstimatorConfig(get_kernel("qs"), default_rule("andrews", "qs"), p=1), y30 * 1e80,
         BANDWIDTH_UNDEFINED, PLUG_IN_NOT_FINITE),
        ("nan-fit", problem, fixed, y30 * 1e-160, VAR_RANK_DEFICIENT, None),
        ("singular", trap, fixed, np.array([0.0, 2.0, 2.0, -2.0]), SINGULAR_NONNEG, None),
        ("zero", flat, fixed, np.array([-1.0, 1.0, -2.0, 2.0]), ZERO, None),
    ]


@pytest.mark.parametrize("fixture", degenerate_fixtures(), ids=lambda f: f[0])
def test_degenerate_fixtures_match_the_scalar_statistic(rng, fixture):
    _label, problem, config, y, kind, bandwidth_reason = fixture
    # at 1e80 the plug-in sums overflow; at 1e-160 the normal equations
    # underflow and the VAR fit is NaN
    with np.errstate(invalid="ignore", over="ignore"):
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
    block = Engine(problem, config).outcomes(Y)
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


@pytest.mark.parametrize("rule, kernel", [("fixed-b", "bartlett"), ("andrews", "qs"),
                                          ("newey-west", "bartlett")])
def test_a_nan_fit_is_var_rank_deficient(rule, kernel):
    # at 1e-160 the normal equations underflow and their solution is NaN:
    # step I fails there, on both paths, before any bandwidth rule or rank
    # decision reads the NaN; the other response of the block keeps its T
    problem, y30 = scale_design()
    config = EstimatorConfig(get_kernel(kernel), default_rule(rule, kernel), p=1)
    y = y30 * 1e-160
    engine, scalar = Engine(problem, config), ScalarStatistic(problem, config)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        assert scalar.evaluate(y)[:2] == (VAR_RANK_DEFICIENT, 0.0)
        res = engine.result(y)
        t = engine.t_values(np.vstack([y30, y]))
    assert (res.omega.reason, res.t_value) == (VAR_RANK_DEFICIENT, 0.0)
    assert t[1] == 0.0
    assert t[0] == engine.result(y30).t_value == scalar.evaluate(y30)[1] > 0.0


def test_no_scale_near_the_underflow_raises():
    # every entry point returns a value or a typed outcome at every scale
    # around the window where the normal equations underflow, for every
    # rule, kernel and p, bare and adjusted; inside the window step I fails
    rng = np.random.default_rng(3)
    problem = RegressionProblem(rng.standard_normal((30, 2)), [[1.0, 0.0]], [0.0])
    y = rng.standard_normal(30)
    cases = 0
    for config in config_grid(1) + config_grid(2):
        adjusted = build_adjusted(problem, config)
        for prob, conf in ((problem, config), (adjusted.problem, adjusted.config)):
            engine = Engine(prob, conf)
            t_y = engine.result(y).t_value
            for e in range(-175, -144):
                ys = y * 10.0**e
                with np.errstate(all="ignore"):
                    reasons = (evaluate(prob, ys, conf).omega.reason,
                               assemble_omega(prob, ys, conf).reason)
                    t = engine.t_values(np.vstack([y, ys]))
                assert t[0] == t_y
                if -162 <= e <= -155:
                    assert reasons == (VAR_RANK_DEFICIENT,) * 2 and t[1] == 0.0
                    cases += 1
    assert cases == 288


# ROADMAP item 2: at an accepted scale far from 1, result still overflows in
# the VAR fit's normal equations, in the estimate's symmetrization and in the
# Andrews rule; those warnings are known, and any other fails
@pytest.mark.filterwarnings(
    "ignore:overflow encountered in matmul:RuntimeWarning:hactest.prewhiten")
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning:hactest._linalg")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning:hactest.bandwidth")
@pytest.mark.parametrize("rule, kernel", [("newey-west", "bartlett"), ("andrews", "qs"),
                                          ("fixed-b", "bartlett")])
def test_a_design_whose_normal_equations_under_or_overflow_is_refused_when_built(rule, kernel):
    # X * 2^e over its whole finite range: building the engine either
    # refuses the design with ValueError naming X, without a warning, or
    # result gives a value or a typed outcome; no LinAlgError escapes.  The
    # refused exponents are exactly where (X'X)^{-1} X', the annihilator or
    # R (X'X)^{-1} cannot be formed finite on this design
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    config = EstimatorConfig(get_kernel(kernel), default_rule(rule, kernel), p=1)
    exponents = sorted(set(range(-1070, 1020, 7)) | {-539, -538, -515, -514, 510, 511})
    refused = []
    for e in exponents:
        problem = RegressionProblem(X * 2.0**e, [[1.0, 0.0]], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                engine = Engine(problem, config)
            except ValueError as exc:
                assert str(exc).startswith("X: its normal equations")
                refused.append(e)
                continue
        res = engine.result(y)
        assert np.isfinite(res.t_value) and res.t_value >= 0.0
        assert res.defined or (res.t_value == 0.0 and res.discrepancy is None)
        if e == 510:
            assert res.omega.reason == VAR_RANK_DEFICIENT
    assert refused == [e for e in exponents if e <= -515 or e >= 511]


def integer_designs():
    """Seeded small designs with integer entries in [-2, 2], R the first row
    of I and r = 0, each with an integer response."""
    rng = np.random.default_rng(7)
    designs = []
    for n, k in ((6, 1), (8, 2), (10, 3), (12, 2)):
        while True:
            X = rng.integers(-2, 3, (n, k)).astype(float)
            if numeric_rank(X) == k:
                break
        y = rng.integers(-2, 3, n).astype(float)
        designs.append((RegressionProblem(X, np.eye(k)[:1], [0.0]), y))
    return designs


# ROADMAP item 2: at large scales the span test's norms overflow, and so
# does the Andrews rule's sigma^4, whose inf then meets a zero weight; those
# warnings are known, and any other fails
@pytest.mark.filterwarnings(
    "ignore:overflow encountered in vecdot:RuntimeWarning:hactest.prewhiten")
@pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered:RuntimeWarning:hactest.bandwidth")
def test_no_scale_of_a_small_integer_design_raises():
    # a bounded search over dense power-of-two scales, every rule, kernel and
    # p, bare and adjusted: the block engine returns a finite T >= 0 at every
    # response, bitwise the single-response value, with the same class
    scales = np.ldexp(1.0, np.arange(-1070, 1020, 13))
    kinds = set()
    for problem, y in integer_designs():
        for config in config_grid(1) + config_grid(2):
            problems = [(problem, config)]
            try:
                adjusted = build_adjusted(problem, config)
                problems.append((adjusted.problem, adjusted.config))
            except ValueError:
                pass
            for prob, conf in problems:
                engine = Engine(prob, conf)
                Y = scales[:, None] * y
                t = engine.t_values(Y)
                block = block_kinds(engine, Y)
                assert np.isfinite(t).all() and (t >= 0.0).all()
                for row, t_row, kind in zip(Y, t, block):
                    res = engine.result(row)
                    assert res.t_value == t_row
                    assert kind == (res.omega.reason or res.omega.definiteness)
                kinds.update(block)
    assert {VAR_RANK_DEFICIENT, BANDWIDTH_UNDEFINED, POSITIVE_DEFINITE} <= kinds
