"""The benchmark's hook contract: every traced name exists, every metric reads.

perfbench/hooks.py wraps named library callables and builds its per-layer
metrics from what those wrappers see.  A refactor that renames a hooked
name, or stops calling one on a workload's path, makes the benchmark's
metrics absent instead of failing.  These tests install the benchmark's
own hooks around one tiny call per workload and require that no hook is
missing and no metric is absent.  Nothing under perfbench/ is changed.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

import hactest

from .oracles import kernel_eval

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's hooks and tracer modules, imported as run.py imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import hooks
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return hooks, tracer


def traced(bench, call):
    """Run call() under the benchmark's hooks; (missing hooks, absent metrics, counts)."""
    hooks, tracer_module = bench
    tracer = tracer_module.Tracer()
    tracer.install(hooks.HOOKS, hooks.PROXIES)
    try:
        call()
    finally:
        tracer.uninstall()
    values, absent = hooks.layer_metrics(
        tracer_module.summarize(tracer), tracer.counts, 1, tracer.missing)
    assert set(values) | set(absent) == set(hooks.LAYER_METRICS)
    return tracer.missing, absent, tracer.counts


def adjusted_design(n, rule, kernel, p, seed):
    X = np.random.default_rng(seed).standard_normal((n, 2))
    problem = hactest.RegressionProblem(X, [[1.0, 0.0]], [0.0])
    config = hactest.EstimatorConfig(
        hactest.get_kernel(kernel), hactest.default_rule(rule, kernel), p=p)
    return hactest.build_adjusted(problem, config)


def test_calibrate_reads_every_metric(bench):
    adjusted = adjusted_design(24, "newey-west", "bartlett", 1, 20260507)
    mc = hactest.McConfig(replications=100, seed=1, family=hactest.AR1Grid((0.0, 0.9)))
    missing, absent, _ = traced(
        bench, lambda: hactest.calibrate_critical_value(adjusted, mc, 0.1))
    assert missing == []
    assert absent == {}


def test_power_curve_reads_every_metric(bench):
    adjusted = adjusted_design(30, "andrews", "qs", 2, 20260508)
    mc = hactest.McConfig(replications=100, seed=2, family=hactest.AR1Grid((0.3,)))
    missing, absent, _ = traced(
        bench, lambda: hactest.power_curve(adjusted, mc, 10.0, (0.0, 1.0)))
    assert missing == []
    assert absent == {}


def test_diagnose_on_a_tie_reads_every_metric(bench):
    # C is the statistic at e+ under a kink-free kernel and a data-driven
    # rule, so diagnose runs the finite-difference gradient check
    config = hactest.EstimatorConfig(
        hactest.get_kernel("qs"), hactest.default_rule("andrews", "qs"), p=1)
    rng = np.random.default_rng(3)
    while True:
        problem = hactest.RegressionProblem(rng.standard_normal((12, 2)), [[1.0, 0.0]], [0.0])
        t_plus = hactest.test_statistic(problem, np.ones(12), config)
        if t_plus.defined and t_plus.t_value > 0.0:
            break
    report = []
    missing, absent, counts = traced(
        bench, lambda: report.append(hactest.diagnose(problem, config, t_plus.t_value)))
    assert report[0].evidence["kind_plus"] == "tie"
    # the bumped responses of the gradient check reach the bandwidth rule
    # one by one, besides the two boundary evaluations
    assert counts["bandwidth_calls"] > 2
    assert missing == []
    assert absent == {}


def test_the_diagnose_workload_sequence_reads_every_metric(bench):
    # one generic design through what the diagnose workload runs per op:
    # diagnose, then select_scenario and build_adjusted, which read the
    # boundary geometry diagnose computed; with nothing absent,
    # testing.scenario_us_per_op reads too
    X = np.random.default_rng(20260509).standard_normal((30, 2))
    problem = hactest.RegressionProblem(X, [[1.0, 0.0]], [0.0])
    config = hactest.EstimatorConfig(
        hactest.get_kernel("bartlett"), hactest.default_rule("newey-west", "bartlett"), p=1)
    scenarios = []

    def sequence():
        hactest.diagnose(problem, config, 3.0)
        scenarios.append(hactest.select_scenario(problem).scenario)
        scenarios.append(hactest.build_adjusted(problem, config).scenario)

    missing, absent, _ = traced(bench, sequence)
    assert scenarios == [3, 3]
    assert missing == []
    assert absent == {}


@pytest.mark.parametrize("kernel", ["bartlett", "qs"])
def test_the_kernel_counts_read_the_points_and_weights_of_the_lag_sum(bench, kernel):
    # kernels.points_per_op counts the lag ratios the kernel is evaluated
    # at, and prewhiten.lag_products_per_op the nonzero weights a traced
    # result smooths with; a block evaluates m - 1 lags at each response
    n, p = 30, 1
    X = np.random.default_rng(20260510).standard_normal((n, 2))
    problem = hactest.RegressionProblem(X, [[1.0, 0.0]], [0.0])
    config = hactest.EstimatorConfig(
        hactest.get_kernel(kernel), hactest.default_rule("newey-west", kernel), p=p)
    engine = hactest.TestEngine(problem, config)
    Y = np.random.default_rng(20260511).standard_normal((9, n))
    block = engine.omega_engine.outcomes(Y)
    assert block.defined == list(range(len(Y)))
    assert all(bw.m > 0.0 for bw in block.bandwidths)
    _, _, counts = traced(bench, lambda: engine.t_values(Y))
    assert counts["kernel_points"] == len(Y) * (n - p - 1)

    result = engine.result(Y[0])
    m_value = result.omega.bandwidth.m
    weights = [kernel_eval(config.kernel, i / m_value) for i in range(1, n - p)]
    _, _, counts = traced(bench, lambda: engine.result(Y[0]))
    assert counts["kernel_points"] == n - p - 1
    assert counts["lag_products"] == sum(w != 0.0 for w in weights)
    if kernel == "bartlett":
        assert 0 < counts["lag_products"] < n - p - 1
