import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hactest import (
    BARTLETT,
    PARZEN,
    QUADRATIC_SPECTRAL,
    KernelSpec,
    get_kernel,
    kernel_names,
)

from hactest.kernels import lag_weights

from .oracles import kernel_eval, qs_kernel_oracle, toeplitz_weights

ALL_KERNELS = (BARTLETT, PARZEN, QUADRATIC_SPECTRAL)


class TestBuiltins:
    def test_registry_names(self):
        # the kernel set is fixed; lookups return the module-level objects
        assert kernel_names() == ("bartlett", "parzen", "qs")
        for kernel in ALL_KERNELS:
            assert get_kernel(kernel.name) is kernel
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("boxcar")

    def test_bartlett_values(self):
        x = np.array([0.0, 0.25, 0.5, 1.0, 1.5, -0.5])
        want = np.array([1.0, 0.75, 0.5, 0.0, 0.0, 0.5])
        assert np.array_equal(BARTLETT.evaluate(x), want)

    def test_parzen_values(self):
        assert kernel_eval(PARZEN, 0.0) == 1.0
        assert kernel_eval(PARZEN, 0.25) == pytest.approx(0.71875, rel=0, abs=0)
        assert kernel_eval(PARZEN, 0.75) == pytest.approx(2.0 * 0.25**3)
        assert kernel_eval(PARZEN, 1.0) == 0.0
        assert kernel_eval(PARZEN, 1.2) == 0.0

    def test_qs_against_series_oracle(self):
        # on the series branch the evaluation must match the reference sum
        # almost exactly ...
        for x in (1e-8, 1e-6, 1e-4, 1e-3, 1.3e-3):
            got = kernel_eval(QUADRATIC_SPECTRAL, x)
            assert got == pytest.approx(qs_kernel_oracle(x), rel=1e-12), f"x = {x}"
        # ... while just past the branch point the closed form's sin/cos
        # cancellation leaves roundoff of order eps/z^2 (about 3e-11 at the
        # switch, shrinking quadratically as x grows)
        for x in (1.4e-3, 0.01, 0.1, 0.5, 1.0, 2.5, 7.0):
            got = kernel_eval(QUADRATIC_SPECTRAL, x)
            z2 = (1.2 * np.pi * x) ** 2
            tol = max(1e-12, 10.0 * np.finfo(float).eps / z2)
            assert got == pytest.approx(qs_kernel_oracle(x), abs=tol), f"x = {x}"

    def test_qs_series_branch_is_continuous(self):
        # the evaluation switches between a series and the closed form; the
        # jump across the switch is bounded by the closed form's roundoff
        x_star = 5e-3 / (1.2 * np.pi)
        below = kernel_eval(QUADRATIC_SPECTRAL, x_star * (1 - 1e-9))
        above = kernel_eval(QUADRATIC_SPECTRAL, x_star * (1 + 1e-9))
        assert abs(below - above) < 1e-10

    def test_qs_is_zero_past_overflow_and_nan_stays_nan_without_a_warning(self):
        # z = 1.2 pi |x| overflows past 4.77e307, where sin and cos are NaN;
        # the kernel's limit there is 0
        x = np.array([5e307, 1.7976931348623157e308, np.inf, -np.inf, -5e307, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = QUADRATIC_SPECTRAL.evaluate(x)
            assert kernel_eval(QUADRATIC_SPECTRAL, np.inf) == 0.0
        assert np.array_equal(got[:-1], np.zeros(5)) and np.isnan(got[-1])

    def test_qs_keeps_its_bits_up_to_the_overflow(self, rng):
        def closed_form(x):
            # the evaluation without the clamp, where it does not overflow
            z = 1.2 * np.pi * np.abs(x)
            with np.errstate(all="ignore"):
                out = 3.0 / (z * z) * (np.sin(z) / z - np.cos(z))
            small = z < 5e-3
            out[small] = 1.0 - z[small] ** 2 / 10.0 + z[small] ** 4 / 280.0
            return out

        x = 10.0 ** rng.uniform(-10, 307.6, 4000) * rng.choice([-1.0, 1.0], 4000)
        x = np.concatenate((x, [0.0, 1e-3, 3.6e153, 1e300, 4.7e307, -4.7e307]))
        assert np.max(np.abs(x)) <= 4.7e307
        # bit patterns, so that the sign of a zero counts too
        got = QUADRATIC_SPECTRAL.evaluate(x)
        assert np.array_equal(got.view(np.uint64), closed_form(x).view(np.uint64))

    def test_qs_has_unbounded_support(self):
        assert not QUADRATIC_SPECTRAL.compact_support
        assert kernel_eval(QUADRATIC_SPECTRAL, 3.7) != 0.0

    def test_smoothness_metadata(self):
        assert BARTLETT.nondifferentiable_points == (1.0,)
        assert PARZEN.nondifferentiable_points == ()
        assert QUADRATIC_SPECTRAL.nondifferentiable_points == ()
        assert BARTLETT.compact_support and PARZEN.compact_support

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_unit_at_zero(self, kernel):
        assert kernel_eval(kernel, 0.0) == 1.0

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-1e6, 1e6, allow_nan=False))
    def test_even_and_bounded(self, kernel, x):
        left = kernel_eval(kernel, -x)
        right = kernel_eval(kernel, x)
        assert left == right
        assert abs(right) <= 1.0


class TestToeplitzWeights:
    def test_zero_bandwidth_is_identity(self):
        assert np.array_equal(toeplitz_weights(BARTLETT, 4, 0.0), np.eye(4))

    def test_bartlett_entries(self):
        got = toeplitz_weights(BARTLETT, 3, 2.0)
        want = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_unit_diagonal_and_one_evaluation_per_off_lag(self, kernel, rng):
        seen = []

        def evaluate(x):
            seen.append(np.array(x))
            return kernel.evaluate(x)

        counting = KernelSpec(kernel.name, evaluate, kernel.nondifferentiable_points,
                              kernel.compact_support)
        for m in (1, 2, 5, 40, 97):
            bw = float(rng.uniform(0.01, 2.0 * m))
            seen.clear()
            w = toeplitz_weights(counting, m, bw)
            assert np.all(np.diag(w) == 1.0)
            if m == 1:
                assert seen == []
                continue
            assert len(seen) == 1 and np.array_equal(seen[0], np.arange(1, m) / bw)
            assert seen[0].shape == (m - 1,)
            assert np.array_equal(w[0, 1:], kernel.evaluate(np.arange(1, m) / bw))
            assert np.array_equal(w, w.T)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_positive_semidefinite_on_random_orders(self, kernel, rng):
        for _ in range(20):
            m = int(rng.integers(2, 40))
            bw = float(rng.uniform(0.01, 80.0))
            w = toeplitz_weights(kernel, m, bw)
            assert np.linalg.eigvalsh(w)[0] > -1e-10 * m


class TestLagWeights:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_a_block_is_one_evaluation_over_its_positive_rows(self, kernel, rng):
        seen = []

        def evaluate(x):
            seen.append(np.array(x))
            return kernel.evaluate(x)

        counting = KernelSpec(kernel.name, evaluate, kernel.nondifferentiable_points,
                              kernel.compact_support)
        for m in (1, 2, 6, 40, 97):
            for ms in ([0.0, 3.5, 0.0, 0.7, 2.0 * m], rng.uniform(0.01, 2.0 * m, 9).tolist(),
                       [0.0, 0.0]):
                seen.clear()
                w = lag_weights(counting, m, ms)
                assert w.shape == (len(ms), m)
                positive = [bw for bw in ms if bw > 0.0]
                if m == 1 or not positive:
                    assert seen == []
                else:
                    want = np.array([np.arange(1, m) / bw for bw in positive])
                    assert len(seen) == 1 and np.array_equal(seen[0].reshape(want.shape), want)
                for row, bw in zip(w, ms):
                    alone = np.zeros(m)
                    alone[0] = 1.0
                    if bw > 0.0 and m > 1:
                        alone[1:] = kernel.evaluate(np.arange(1, m) / bw)
                    assert np.array_equal(row, alone)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    @pytest.mark.parametrize("bw", [1e-310, 5e-324, 1e-307, 5e-299, 1e-298])
    def test_a_tiny_bandwidth_weighs_the_far_lags_zero_without_a_warning(self, kernel, bw):
        # a tiny M puts the larger ratios i / M past 1e300 or overflows them
        # to inf (where the quadratic-spectral closed form is NaN); those
        # weigh 0 with no warning, and every nearer ratio keeps its value
        m = 98
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = lag_weights(kernel, m, [bw, 2.0])
        with np.errstate(over="ignore"):
            x = np.arange(1, m) / bw
        near = x <= 1e300
        assert w[0, 0] == 1.0
        assert np.all(w[0, 1:][~near] == 0.0)
        assert np.array_equal(w[0, 1:][near], kernel.evaluate(x[near]))
        assert np.array_equal(w[1], lag_weights(kernel, m, [2.0])[0])

    def test_an_empty_block_has_no_rows(self):
        assert lag_weights(BARTLETT, 3, []).shape == (0, 3)
