import numpy as np
import pytest

from hactest import (
    EstimatorConfig,
    FixedBRule,
    RegressionProblem,
    default_rule,
    get_kernel,
)
from hactest.bandwidth import bandwidth_sums, compute_bandwidth


def random_problem(rng, n=None, k=None, q=None, r_zero=False):
    """A seeded full-rank problem with Gaussian design and data."""
    n = int(rng.integers(8, 31)) if n is None else n
    k = int(rng.integers(1, 4)) if k is None else k
    q = int(rng.integers(1, k + 1)) if q is None else q
    while True:
        X = rng.standard_normal((n, k))
        if np.linalg.matrix_rank(X) == k:
            break
    while True:
        R = rng.standard_normal((q, k))
        if np.linalg.matrix_rank(R) == q:
            break
    r = np.zeros(q) if r_zero else rng.standard_normal(q)
    y = rng.standard_normal(n)
    return RegressionProblem(X, R, r), y


def config_grid(p=1):
    """One configuration per supported rule/kernel pairing."""
    configs = []
    for kernel in ("bartlett", "parzen", "qs"):
        configs.append(
            EstimatorConfig(get_kernel(kernel), default_rule("andrews", kernel), p=p)
        )
        configs.append(
            EstimatorConfig(get_kernel(kernel), default_rule("newey-west", kernel), p=p)
        )
        configs.append(EstimatorConfig(get_kernel(kernel), FixedBRule(b=0.5), p=p))
    return configs


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def rule_outcome(rule, Z, n, p=1):
    """The library's bandwidth at one k x m residual matrix: a stack of one
    through ``bandwidth_sums``, then the decision ``compute_bandwidth``."""
    return compute_bandwidth(rule, bandwidth_sums(rule, np.asarray(Z)[None], n)[0], n, p)
