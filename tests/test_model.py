import numpy as np
import pytest

from hactest import (
    BARTLETT,
    AndrewsRule,
    AR1Grid,
    EstimatorConfig,
    FixedBRule,
    McConfig,
    NeweyWestRule,
    OmegaEngine,
    RegressionProblem,
    alternating_vector,
    constant_vector,
    null_point,
)
from hactest.model import _ar1_path

from .oracles import (
    ar1_cov_oracle,
    ar1_matrix,
    ar1_path_oracle,
    ar1_transfer_matrix,
)


class TestRegressionProblem:
    def test_dimensions(self, rng):
        X = rng.standard_normal((12, 3))
        R = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
        problem = RegressionProblem(X, R, np.zeros(2))
        assert (problem.n, problem.k, problem.q) == (12, 3, 2)

    def test_arrays_are_frozen(self, rng):
        X = rng.standard_normal((10, 2))
        problem = RegressionProblem(X, np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            problem.X[0, 0] = 5.0
        with pytest.raises(ValueError):
            problem.R[0, 0] = 5.0

    def test_callers_arrays_stay_writable_and_detached(self, rng):
        # the problem used to freeze the caller's own arrays in place
        X, R, r = rng.standard_normal((10, 2)), np.eye(2), np.zeros(2)
        problem = RegressionProblem(X, R, r)
        kept = [problem.X.copy(), problem.R.copy(), problem.r.copy()]
        X[0, 0] = 1.0e3
        R[1, 0] = 7.0
        r[0] = -2.0
        for got, want in zip((problem.X, problem.R, problem.r), kept):
            assert np.array_equal(got, want)

    def test_rejects_rank_deficient_design(self, rng):
        z = rng.standard_normal(10)
        X = np.column_stack([z, 2.0 * z])
        with pytest.raises(ValueError, match="rank"):
            RegressionProblem(X, np.eye(2), np.zeros(2))

    def test_rejects_rank_deficient_restrictions(self, rng):
        X = rng.standard_normal((10, 2))
        R = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="rank"):
            RegressionProblem(X, R, np.zeros(2))

    def test_rejects_too_many_restrictions(self, rng):
        X = rng.standard_normal((10, 2))
        R = np.vstack([np.eye(2), [1.0, 1.0]])
        with pytest.raises(ValueError):
            RegressionProblem(X, R, np.zeros(3))

    def test_rejects_bad_shapes(self, rng):
        X = rng.standard_normal((10, 2))
        with pytest.raises(ValueError):
            RegressionProblem(X, np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            RegressionProblem(X[:2], np.eye(2), np.zeros(2))
        # the response is checked against the problem where the engine takes it in
        problem = RegressionProblem(X, np.eye(2), np.zeros(2))
        engine = OmegaEngine(problem, EstimatorConfig(BARTLETT, FixedBRule(b=0.5)))
        with pytest.raises(ValueError, match="y has length 9, expected n = 10"):
            engine.outcome(np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["X", "R", "r"])
    def test_rejects_non_finite_entries(self, rng, field, bad):
        args = {"X": rng.standard_normal((10, 2)), "R": np.eye(2), "r": np.zeros(2)}
        args[field][-1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RegressionProblem(**args)
        problem = RegressionProblem(rng.standard_normal((10, 2)), np.eye(2), np.zeros(2))
        engine = OmegaEngine(problem, EstimatorConfig(BARTLETT, FixedBRule(b=0.5)))
        y = np.zeros(10)
        y[3] = bad
        with pytest.raises(ValueError, match="^y must be finite"):
            engine.outcome(y)

    def test_rejects_wide_design(self, rng):
        X = rng.standard_normal((3, 4))
        with pytest.raises(ValueError):
            RegressionProblem(X, np.eye(4), np.zeros(4))


class TestNullPoint:
    def test_restriction_holds_at_null_coefficients(self, rng):
        from .conftest import random_problem

        for _ in range(20):
            problem, _ = random_problem(rng)
            beta0 = null_point(problem)
            assert np.allclose(problem.R @ beta0, problem.r, atol=1e-10)
            assert not beta0.flags.writeable

    def test_identity_restriction_recovers_target(self, rng):
        X = rng.standard_normal((10, 2))
        r = np.array([1.5, -2.0])
        problem = RegressionProblem(X, np.eye(2), r)
        assert np.allclose(null_point(problem), r)


class TestBoundaryVectors:
    def test_constant_vector(self):
        assert np.array_equal(constant_vector(4), np.ones(4))

    def test_alternating_vector_starts_negative(self):
        e = alternating_vector(5)
        assert np.array_equal(e, np.array([-1.0, 1.0, -1.0, 1.0, -1.0]))


class TestAr1:
    def test_matrix_matches_transfer_oracle(self):
        for rho in (-0.9, -0.3, 0.0, 0.5, 0.99):
            got = ar1_matrix(rho, 7)
            want = ar1_cov_oracle(rho, 7)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_matrix_entries_are_powers(self):
        got = ar1_matrix(0.5, 4)
        want = np.array(
            [
                [1.0, 0.5, 0.25, 0.125],
                [0.5, 1.0, 0.5, 0.25],
                [0.25, 0.5, 1.0, 0.5],
                [0.125, 0.25, 0.5, 1.0],
            ]
        )
        assert np.allclose(got, want)

    def test_matrix_rejects_unit_root(self):
        with pytest.raises(ValueError):
            ar1_matrix(1.0, 5)
        with pytest.raises(ValueError):
            ar1_matrix(-1.0, 5)

    def test_path_matches_transfer_matrix(self, rng):
        z = rng.standard_normal(15)
        for rho in (-0.99, 0.0, 0.7):
            path = _ar1_path(rho, z)
            want = ar1_transfer_matrix(rho, 15) @ z
            assert np.allclose(path, want, rtol=1e-12)

    def test_path_at_zero_is_innovations(self, rng):
        z = rng.standard_normal(10)
        assert np.array_equal(_ar1_path(0.0, z), z)

    @pytest.mark.parametrize("rho", [-0.9999, -0.3, 0.0, 0.6, 0.9999])
    @pytest.mark.parametrize("n", [1, 2, 40, 100])
    def test_block_path_is_the_scalar_recursion_bitwise(self, rng, rho, n):
        for shape in ((n,), (1, n), (7, n), (128, n)):
            z = rng.standard_normal(shape)
            got = _ar1_path(rho, z)
            want = np.array([ar1_path_oracle(rho, row) for row in z.reshape(-1, n)])
            assert got.shape == shape
            assert np.array_equal(got, want.reshape(shape))

    def test_path_covariance_is_lambda(self):
        # row i of the path of I is column i of the transfer matrix T, and
        # Cov(u) = T T' is Lambda(rho)
        for rho in (-0.99, -0.3, 0.0, 0.5, 0.99):
            paths = _ar1_path(rho, np.eye(9))
            assert np.allclose(paths.T @ paths, ar1_matrix(rho, 9), rtol=0, atol=1e-13)

    def test_path_scales_with_the_innovations(self, rng):
        z = rng.standard_normal((5, 12))
        for rho in (-0.8, 0.0, 0.95):
            base = _ar1_path(rho, z)
            assert np.array_equal(_ar1_path(rho, 2.0 * z), 2.0 * base)
            assert np.array_equal(_ar1_path(rho, -z), -base)

    def test_negative_rho_is_the_alternating_mirror(self, rng):
        # Lambda(-rho) = D Lambda(rho) D with D = diag(e_minus), path by path
        z = rng.standard_normal((4, 11))
        d = alternating_vector(11)
        for rho in (0.3, 0.9999):
            assert np.array_equal(_ar1_path(-rho, d * z), d * _ar1_path(rho, z))

    def test_path_leaves_the_innovations_unwritten(self, rng):
        z = rng.standard_normal((3, 8))
        z.flags.writeable = False
        want = z.copy()
        for rho in (0.0, 0.6):
            out = _ar1_path(rho, z)
            assert out is not z and out.flags.writeable
        assert np.array_equal(z, want)


class TestCovarianceFamilies:
    def test_grid_rejects_unit_roots(self):
        with pytest.raises(ValueError):
            AR1Grid((0.0, 1.0))
        AR1Grid((0.0, 0.9999))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_rejects_non_finite_rhos(self, bad):
        with pytest.raises(ValueError, match="must lie in"):
            AR1Grid((0.0, bad))

    def test_grid_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            AR1Grid(())

    def test_grid_rejects_a_non_scalar_rho(self):
        with pytest.raises(ValueError, match="must be a scalar"):
            AR1Grid((0.1, np.array([0.2, 0.3])))

    @pytest.mark.parametrize("rhos, repeated", [((0.5, 0.2, 0.5), "0.5"), ((-0.0, 0.0), "0.0")])
    def test_grid_rejects_a_repeated_rho(self, rhos, repeated):
        # a repeated member used to be simulated twice, and -0.0 and 0.0 are
        # the same Lambda(rho)
        with pytest.raises(ValueError, match=f"repeats rho = {repeated}$"):
            AR1Grid(rhos)

    def test_grid_holds_plain_floats(self):
        grid = AR1Grid([0, np.float32(0.5), np.array(-0.25)])
        assert grid.rhos == (0.0, 0.5, -0.25)
        assert all(type(v) is float for v in grid.rhos)
        assert hash(grid) == hash(AR1Grid((0.0, 0.5, -0.25)))


@pytest.mark.parametrize("make, message", [
    (lambda v: McConfig(replications=v), "replications must be >= 1 and an integer"),
    (lambda v: McConfig(replications=10, seed=v), "seed must be a nonnegative integer"),
    (lambda v: EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=v),
     "VAR order p must be >= 1 and an integer"),
    (lambda v: NeweyWestRule(cbar1=v, cbar2=1.0, cbar3=0.2), "cbar1 must be a positive integer"),
    (lambda v: AndrewsRule(j=v, c1=1.0, c2=0.3), "j must be 1 or 2"),
], ids=["replications", "seed", "p", "cbar1", "j"])
@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_a_bool_is_not_an_integer(make, message, flag):
    # bool subclasses int, but True is not a count of 1 nor False a seed of 0
    with pytest.raises(ValueError, match=message):
        make(flag)
