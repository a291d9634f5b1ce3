import numpy as np
import pytest

from hactest import (
    AndrewsRule,
    BandwidthOutcome,
    FixedBRule,
    NeweyWestRule,
    default_rule,
    get_kernel,
    kernel_names,
)
from hactest.bandwidth import (
    DENOMINATOR_ZERO,
    PLUG_IN_NOT_FINITE,
    RHO_UNDEFINED,
    RHO_UNIT,
    SIGMA_ALL_ZERO,
    bandwidth_am,
    bandwidth_kv,
    bandwidth_nw,
    compute_bandwidth,
    rectangular_cutoff,
    resolve_omega,
)

from .oracles import (
    am_bandwidth_oracle,
    am_sigma2_oracle,
    nw_bandwidth_full_lag_oracle,
    nw_bandwidth_oracle,
    rectangular_cutoff_oracle,
)


class TestOutcome:
    def test_defined(self):
        out = BandwidthOutcome(2.5)
        assert out.is_defined and out.m == 2.5 and out.reason is None

    def test_zero_is_a_valid_bandwidth(self):
        assert BandwidthOutcome(0.0).is_defined

    def test_undefined(self):
        out = BandwidthOutcome(None, RHO_UNIT)
        assert not out.is_defined and out.reason == RHO_UNIT


class TestResolveOmega:
    def test_presets(self):
        assert np.array_equal(resolve_omega("ones", 3), np.ones(3))
        assert np.array_equal(resolve_omega("zero-first", 3), np.array([0.0, 1.0, 1.0]))

    def test_zero_first_needs_two_rows(self):
        with pytest.raises(ValueError):
            resolve_omega("zero-first", 1)

    def test_explicit(self):
        assert np.array_equal(resolve_omega((2.0, 0.0), 2), np.array([2.0, 0.0]))

    @pytest.mark.parametrize("omega", [(1.0, -1.0), (0.0, 0.0), "first"])
    @pytest.mark.parametrize("make", [
        lambda omega: AndrewsRule(j=1, c1=1.0, c2=0.3, omega=omega),
        lambda omega: NeweyWestRule(cbar1=1, cbar2=1.0, cbar3=0.2, omega=omega),
    ], ids=["andrews", "newey-west"])
    def test_rules_refuse_bad_weights_at_construction(self, make, omega):
        with pytest.raises(ValueError, match="omega"):
            make(omega)


class TestRuleValidation:
    def test_andrews(self):
        with pytest.raises(ValueError):
            AndrewsRule(j=3, c1=1.0, c2=0.3)
        with pytest.raises(ValueError):
            AndrewsRule(j=1, c1=0.0, c2=0.3)
        with pytest.raises(ValueError):
            AndrewsRule(j=1, c1=1.0, c2=-0.1)
        with pytest.raises(ValueError):
            AndrewsRule(j=1, c1=1.0, c2=0.3, omega=(0.0, 0.0))

    def test_newey_west(self):
        with pytest.raises(ValueError):
            NeweyWestRule(cbar1=0, cbar2=1.0, cbar3=0.2)
        with pytest.raises(ValueError):
            NeweyWestRule(cbar1=1.5, cbar2=1.0, cbar3=0.2)

    def test_fixed_b(self):
        with pytest.raises(ValueError):
            FixedBRule()
        with pytest.raises(ValueError):
            FixedBRule(b=0.5, m=3.0)
        with pytest.raises(ValueError):
            FixedBRule(b=0.0)
        with pytest.raises(ValueError):
            FixedBRule(b=1.5)
        with pytest.raises(ValueError):
            FixedBRule(m=0.0)
        FixedBRule(b=1.0)
        FixedBRule(m=7.5)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    @pytest.mark.parametrize("make, field", [
        (lambda v: AndrewsRule(j=1, c1=v, c2=0.3), "c1"),
        (lambda v: AndrewsRule(j=1, c1=1.0, c2=v), "c2"),
        (lambda v: NeweyWestRule(cbar1=1, cbar2=v, cbar3=0.2), "cbar2"),
        (lambda v: NeweyWestRule(cbar1=1, cbar2=1.0, cbar3=v), "cbar3"),
        (lambda v: FixedBRule(m=v), "m"),
        (lambda v: AndrewsRule(j=1, c1=1.0, c2=0.3, omega=(1.0, v)), "omega"),
        (lambda v: NeweyWestRule(cbar1=1, cbar2=1.0, cbar3=0.2, omega=(v, 1.0)), "omega"),
    ], ids=["andrews-c1", "andrews-c2", "nw-cbar2", "nw-cbar3", "fixed-m", "andrews-omega",
            "nw-omega"])
    def test_non_finite_constants_are_refused_at_construction(self, make, field, bad):
        # an infinite constant used to construct, and its bandwidth came out
        # PlugInNotFinite or 0 (FixedBRule(m=inf) raised only when evaluated)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            make(bad)


class TestDefaults:
    # Andrews (1991, Econometrica 59, automatic-bandwidth section); Newey &
    # West (1994) plug in the same (exponent, constant, rate) per kernel
    ANDREWS_1991 = {
        "bartlett": (1, 1.1447, 1.0 / 3.0),
        "parzen": (2, 2.6614, 0.2),
        "qs": (2, 1.3221, 0.2),
    }

    @pytest.mark.parametrize("kernel", ["bartlett", "parzen", "qs"])
    def test_data_driven_rules_read_andrews_constants(self, kernel):
        constants = self.ANDREWS_1991[kernel]
        assert default_rule("andrews", kernel) == AndrewsRule(*constants)
        assert default_rule("andrews", get_kernel(kernel)) == AndrewsRule(*constants)
        assert default_rule("newey-west", kernel) == NeweyWestRule(*constants)

    def test_fixed_b_default(self):
        assert default_rule("fixed-b", "bartlett") == FixedBRule(b=1.0)
        assert default_rule("fixed-b", get_kernel("qs")) == FixedBRule(b=1.0)

    @pytest.mark.parametrize("kernel", ["nonsense", 42, ["bartlett"]])
    def test_fixed_b_checks_the_kernel_too(self, kernel):
        # every kind checks the kernel, though fixed-b does not read it
        with pytest.raises(ValueError, match="unknown kernel"):
            default_rule("fixed-b", kernel)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown bandwidth rule"):
            default_rule("adaptive", "bartlett")

    @pytest.mark.parametrize("kind", ["andrews", "newey-west"])
    def test_unknown_kernel(self, kind):
        with pytest.raises(ValueError, match="unknown kernel 'tukey'"):
            default_rule(kind, "tukey")


class TestAndrewsBandwidth:
    def test_alternating_row_pins_known_values(self):
        # rho-hat = 0 and sigma-hat^2 = 1/3 for this row, so alpha = 0 and
        # the bandwidth collapses to zero
        Z = np.array([[1.0, 0.0, 1.0, 0.0]])
        assert am_sigma2_oracle(Z[0], 0.0) == 1.0 / 3.0
        rule = default_rule("andrews", "bartlett")
        out = bandwidth_am(Z, rule, n=5)
        assert out.is_defined and out.m == 0.0

    def test_rho_undefined_when_lag_energy_is_zero(self):
        out = bandwidth_am(np.array([[0.0, 0.0, 0.0, 1.0]]), AndrewsRule(1, 1.0, 0.5), 5)
        assert out.reason == RHO_UNDEFINED

    def test_rho_unit_on_constant_row(self):
        out = bandwidth_am(np.array([[1.0, 1.0, 1.0, 1.0]]), AndrewsRule(1, 1.0, 0.5), 5)
        assert out.reason == RHO_UNIT

    def test_sigma_all_zero_on_exact_ar1_row(self):
        Z = np.array([[1.0, 0.5, 0.25, 0.125]])
        out = bandwidth_am(Z, AndrewsRule(2, 1.0, 0.5), 5)
        assert out.reason == SIGMA_ALL_ZERO

    def test_undefined_checks_precede_row_by_row_math(self):
        # a unit-root row and a zero-denominator row together: the
        # denominator check wins regardless of row order
        Z = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
        out = bandwidth_am(Z, AndrewsRule(1, 1.0, 0.5), 5)
        assert out.reason == RHO_UNDEFINED

    def test_zero_weight_does_not_silence_degenerate_row(self):
        # undefinedness is a property of the fitted rows, checked before the
        # omega weighting ever enters
        Z = np.array([[1.0, -2.0, 3.0, 0.5], [0.0, 0.0, 0.0, 0.0]])
        out = bandwidth_am(Z, AndrewsRule(1, 1.0, 0.5, omega=(1.0, 0.0)), 5)
        assert out.reason == RHO_UNDEFINED

    @pytest.mark.parametrize("j", [1, 2])
    def test_matches_oracle_on_random_matrices(self, rng, j):
        for _ in range(50):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(3, 30))
            Z = rng.standard_normal((k, m))
            c1 = float(rng.uniform(0.5, 3.0))
            c2 = float(rng.uniform(0.1, 0.6))
            omega = rng.uniform(0.0, 2.0, size=k)
            omega[int(rng.integers(0, k))] = 1.0  # keep it not-all-zero
            n = m + 1
            got = bandwidth_am(Z, AndrewsRule(j, c1, c2, omega=tuple(omega)), n)
            status, want = am_bandwidth_oracle(Z, omega, j, c1, c2, n)
            assert status == "ok" and got.is_defined
            assert got.m == pytest.approx(want, rel=1e-12)


#: the n at which the rectangular cutoff is 1, 2, 3 and 4 lags
N_BY_CUTOFF = {1: (3, 4), 2: (5, 27), 3: (28, 99), 4: (100, 160)}


def draw_shape(rng, cutoff):
    """(n, m): an n whose rectangular cutoff is ``cutoff`` lags, and m = n - p
    residual columns for a p in 1 .. 3 that leaves m >= 2, so at the
    smallest n the cutoff can reach past the last lag."""
    lo, hi = N_BY_CUTOFF[cutoff]
    n = int(rng.integers(lo, hi + 1))
    assert rectangular_cutoff_oracle(n) == cutoff
    return n, n - int(rng.integers(1, min(3, n - 2) + 1))


class TestNeweyWestBandwidth:
    def test_rectangular_cutoff_values(self):
        assert rectangular_cutoff(100) == 4
        assert rectangular_cutoff(10) == 2
        assert rectangular_cutoff(50) == 3
        assert rectangular_cutoff(200) == 4
        for n in (5, 10, 25, 100, 400):
            assert rectangular_cutoff(n) == rectangular_cutoff_oracle(n)

    def test_denominator_zero_on_zero_series(self):
        out = bandwidth_nw(np.zeros((1, 3)), default_rule("newey-west", "bartlett"), 4)
        assert out.reason == DENOMINATOR_ZERO

    def test_denominator_zero_by_exact_cancellation(self):
        # sbar_0 = 9 and sbar_1 = -4.5, and at n = 3 the cutoff is lag 1, so
        # the weights (1, 1) cancel the denominator exactly in floating point
        assert rectangular_cutoff(3) == 1
        out = bandwidth_nw(np.array([[3.0, -3.0]]), default_rule("newey-west", "bartlett"), 3)
        assert out.reason == DENOMINATOR_ZERO

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_plug_in_not_finite_when_the_sums_overflow(self, kernel):
        # the lag products overflow, so num / den is inf / inf
        with np.errstate(over="ignore"):
            out = bandwidth_nw(1e155 * np.ones((2, 39)), default_rule("newey-west", kernel), 40)
        assert out.reason == PLUG_IN_NOT_FINITE

    def test_matches_oracle_on_random_matrices(self, rng):
        for trial in range(50):
            n, m = draw_shape(rng, cutoff=trial % 4 + 1)
            k = int(rng.integers(1, 4))
            Z = rng.standard_normal((k, m))
            cbar1 = int(rng.integers(1, 3))
            cbar2 = float(rng.uniform(0.5, 3.0))
            cbar3 = float(rng.uniform(0.1, 0.6))
            wlist = [1.0] * (rectangular_cutoff_oracle(n) + 1)
            rule = NeweyWestRule(cbar1=cbar1, cbar2=cbar2, cbar3=cbar3)
            got = bandwidth_nw(Z, rule, n)
            status, want = nw_bandwidth_oracle(Z, np.ones(k), cbar1, cbar2, cbar3, wlist, n)
            assert status == "ok" and got.is_defined
            assert got.m == pytest.approx(want, rel=1e-12)

    def test_weighted_lags_only_is_bitwise_the_full_lag_sum(self, rng):
        # lags past the cutoff contributed exact zeros to both sums, so
        # skipping their autocovariances leaves M bitwise unchanged
        for trial in range(240):
            n, m = draw_shape(rng, cutoff=trial % 4 + 1)
            k = int(rng.integers(1, 5))
            Z = rng.standard_normal((k, m))
            w = np.zeros(m)
            w[: rectangular_cutoff_oracle(n) + 1] = 1.0
            omega = rng.uniform(0.0, 2.0, size=k)
            omega[int(rng.integers(0, k))] = 1.0
            rule = NeweyWestRule(cbar1=int(rng.integers(1, 3)), cbar2=float(rng.uniform(0.5, 3.0)),
                                 cbar3=float(rng.uniform(0.1, 0.6)), omega=tuple(omega))
            got = bandwidth_nw(Z, rule, n)
            want = nw_bandwidth_full_lag_oracle(Z, omega, w, rule.cbar1, rule.cbar2,
                                                rule.cbar3, n)
            assert got.is_defined and got.m == want

    def test_omega_projection_changes_the_series(self, rng):
        Z = rng.standard_normal((2, 12))
        rule_a = default_rule("newey-west", "bartlett")
        rule_b = NeweyWestRule(1, 1.1447, 1.0 / 3.0, omega="zero-first")
        out_a = bandwidth_nw(Z, rule_a, 13)
        out_b = bandwidth_nw(Z, rule_b, 13)
        status, want_b = nw_bandwidth_oracle(
            Z, [0.0, 1.0], 1, 1.1447, 1.0 / 3.0, [1.0] * (rectangular_cutoff(13) + 1), 13
        )
        assert status == "ok"
        assert out_b.m == pytest.approx(want_b, rel=1e-12)
        assert out_a.m != out_b.m


class TestFixedBandwidth:
    def test_fraction_of_residual_length(self):
        out = bandwidth_kv(FixedBRule(b=0.5), n=10, p=1)
        assert out.m == 4.5

    def test_explicit_value(self):
        assert bandwidth_kv(FixedBRule(m=3.0), n=10, p=1).m == 3.0

    def test_an_integer_bandwidth_comes_back_a_float(self):
        # so that estimate --json prints an explicit bandwidth of 3 as 3.0
        assert type(bandwidth_kv(FixedBRule(m=3), n=10, p=1).m) is float
        assert type(bandwidth_kv(FixedBRule(b=1), n=10, p=1).m) is float

    def test_never_undefined_on_valid_shapes(self):
        for n in (3, 10, 100):
            for p in (1, 2):
                if p < n:
                    assert bandwidth_kv(FixedBRule(b=1.0), n, p).is_defined


class TestDispatch:
    def test_routes_by_rule_type(self, rng):
        Z = rng.standard_normal((2, 10))
        am = compute_bandwidth(default_rule("andrews", "bartlett"), Z, 12, 1)
        assert am == bandwidth_am(Z, default_rule("andrews", "bartlett"), 12)
        nw = compute_bandwidth(default_rule("newey-west", "parzen"), Z, 12, 1)
        assert nw == bandwidth_nw(Z, default_rule("newey-west", "parzen"), 12)
        kv = compute_bandwidth(FixedBRule(b=0.25), None, 12, 1)
        assert kv == bandwidth_kv(FixedBRule(b=0.25), 12, 1)
