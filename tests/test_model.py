import numpy as np
import pytest

from hactest import (
    AR1Grid,
    ExplicitList,
    RegressionProblem,
    alternating_vector,
    constant_vector,
    null_point,
)
from hactest.model import _ar1_path, check_response

from .oracles import (
    ar1_cov_oracle,
    ar1_matrix,
    ar1_path_oracle,
    ar1_transfer_matrix,
    ma_closure_matrix,
    sample_gaussian_ar1,
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
        # the response is checked against the problem where it is passed in
        problem = RegressionProblem(X, np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="y has length 9, expected n = 10"):
            check_response(problem, np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["X", "R", "r"])
    def test_rejects_non_finite_entries(self, rng, field, bad):
        args = {"X": rng.standard_normal((10, 2)), "R": np.eye(2), "r": np.zeros(2)}
        args[field][-1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RegressionProblem(**args)
        problem = RegressionProblem(rng.standard_normal((10, 2)), np.eye(2), np.zeros(2))
        y = np.zeros(10)
        y[3] = bad
        with pytest.raises(ValueError, match="^y must be finite"):
            check_response(problem, y)

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

    def test_sampler_is_seed_deterministic(self):
        a = sample_gaussian_ar1(0.9, 1.0, np.zeros(8), 8, seed=3)
        b = sample_gaussian_ar1(0.9, 1.0, np.zeros(8), 8, seed=3)
        c = sample_gaussian_ar1(0.9, 1.0, np.zeros(8), 8, seed=4)
        d = sample_gaussian_ar1(0.9, 1.0, np.zeros(8), 8, seed=np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert np.array_equal(a, d)
        assert not np.array_equal(a, c)

    def test_sampler_scale_and_shift(self):
        mu = np.full(8, 7.0)
        base = sample_gaussian_ar1(0.5, 1.0, np.zeros(8), 8, seed=11)
        scaled = sample_gaussian_ar1(0.5, 2.0, mu, 8, seed=11)
        assert np.array_equal(scaled, mu + 2.0 * base)


class TestCovarianceFamilies:
    def test_grid_rejects_unit_roots(self):
        with pytest.raises(ValueError):
            AR1Grid((0.0, 1.0))
        AR1Grid((0.0, 0.9999))

    def test_explicit_list_requires_spd(self, rng):
        with pytest.raises(ValueError):
            ExplicitList((np.array([[1.0, 2.0], [0.0, 1.0]]),))
        with pytest.raises(ValueError):
            ExplicitList((np.array([[1.0, 2.0], [2.0, 1.0]]),))
        ExplicitList((np.eye(3),))

    def test_explicit_list_requires_exact_symmetry(self):
        # within np.allclose's tolerance, so this used to be accepted and
        # sampled through the lower triangle alone
        mat = np.eye(3)
        mat[0, 1] = 5e-9
        with pytest.raises(ValueError, match="covariance matrix 0 is not symmetric"):
            ExplicitList((mat,))

    def test_explicit_list_leaves_the_callers_matrix_writeable(self):
        mat = np.eye(3)
        fam = ExplicitList((mat,))
        assert mat.flags.writeable
        mat[0, 0] = 7.0
        assert np.array_equal(fam.matrices[0], np.eye(3))
        assert not fam.matrices[0].flags.writeable
        assert np.array_equal(fam.factors[0], np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_explicit_list_rejects_non_finite_entries(self, bad):
        # a symmetric matrix with an inf on the diagonal used to be accepted,
        # and a power curve over it raised LinAlgError
        mat = np.eye(3)
        mat[2, 2] = bad
        with pytest.raises(ValueError, match="covariance matrix 1 must be finite"):
            ExplicitList((np.eye(3), mat))


class TestMaClosure:
    def test_degenerate_is_identity(self):
        assert np.allclose(ma_closure_matrix((1.0,), 5), np.eye(5))

    def test_ma1_band(self):
        theta = 0.5
        got = ma_closure_matrix((1.0, theta), 4)
        off = theta / (1.0 + theta**2)
        assert np.allclose(np.diag(got), 1.0)
        assert np.allclose(np.diag(got, 1), off)
        assert np.allclose(np.diag(got, 2), 0.0)

    def test_leading_coefficient_must_be_one(self):
        with pytest.raises(ValueError):
            ma_closure_matrix((2.0, 0.5), 5)

    def test_is_positive_definite(self, rng):
        got = ma_closure_matrix((1.0, 0.8, -0.3), 8)
        np.linalg.cholesky(got)
