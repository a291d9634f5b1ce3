import numpy as np
import pytest

import hactest.montecarlo
import hactest.testing
from hactest import (
    BARTLETT,
    AR1Grid,
    DEFAULT_RHO_GRID,
    AdjustedProblem,
    AugmentationImpossibleError,
    CalibrationNotApplicableError,
    EstimatorConfig,
    FixedBRule,
    McConfig,
    RegressionProblem,
    adjusted_statistic,
    alternating_vector,
    build_adjusted,
    calibrate_critical_value,
    constant_vector,
    default_rule,
    get_kernel,
    null_point,
    power_curve,
    simulate_statistics,
)
from hactest import test_statistic as evaluate
from hactest.prewhiten import BANDWIDTH_UNDEFINED, VAR_RANK_DEFICIENT, OmegaEngine

from .conftest import config_grid, random_problem
from .oracles import ar1_path_oracle

CONFIG = EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=1)


def calibratable_problem(rng, n=12):
    """Both boundary directions sit harmlessly inside the span."""
    X = np.column_stack(
        [constant_vector(n), alternating_vector(n), rng.standard_normal(n)]
    )
    return RegressionProblem(X, np.array([[0.0, 0.0, 1.0]]), np.zeros(1))


def largest_rate(curve):
    """The largest rate of a curve: at distance 0 alone, the empirical size."""
    return max(p.rate for p in curve.points)


class TestSimulateStatistics:
    def test_equal_seeds_are_bitwise_equal(self, rng):
        problem, _ = random_problem(rng, n=10, k=2)
        kw = dict(cov=0.5, beta=np.zeros(2), reps=20, seed=7, est_config=CONFIG)
        a = simulate_statistics(problem, **kw)
        b = simulate_statistics(problem, **kw)
        assert np.array_equal(a, b)

    def test_replications_extend_without_changing_the_prefix(self, rng):
        problem, _ = random_problem(rng, n=10, k=2)
        kw = dict(cov=0.5, beta=np.zeros(2), seed=7, est_config=CONFIG)
        short = simulate_statistics(problem, reps=5, **kw)
        long = simulate_statistics(problem, reps=10, **kw)
        assert np.array_equal(short, long[:5])

    def test_white_noise_member_is_the_seeded_innovations(self, rng):
        # at rho = 0 replication idx's errors are its (seed, idx) draw itself
        problem, _ = random_problem(rng, n=10, k=2)
        beta = np.array([0.5, -1.0])
        got = simulate_statistics(problem, cov=0.0, beta=beta, reps=15, seed=3,
                                  est_config=CONFIG)
        engine = hactest.testing.TestEngine(problem, CONFIG)
        for idx, value in enumerate(got):
            z = np.random.default_rng(np.random.SeedSequence((3, idx))).standard_normal(10)
            assert value == engine.result(problem.X @ beta + z).t_value

    def test_validation(self, rng):
        problem, _ = random_problem(rng, n=10, k=2)
        kw = dict(cov=0.0, beta=np.zeros(2), reps=5, seed=0, est_config=CONFIG)
        with pytest.raises(ValueError, match="replications"):
            simulate_statistics(problem, **{**kw, "reps": 0})
        with pytest.raises(ValueError, match="seed"):
            simulate_statistics(problem, **{**kw, "seed": -1})
        with pytest.raises(ValueError, match="beta"):
            simulate_statistics(problem, **{**kw, "beta": np.zeros(3)})
        with pytest.raises(ValueError, match="rho"):
            simulate_statistics(problem, **{**kw, "cov": 1.0})
        with pytest.raises(ValueError, match="est_config"):
            simulate_statistics(problem, cov=0.0, beta=np.zeros(2), reps=5, seed=0)

    @pytest.mark.parametrize("cov", [np.eye(10), np.full(10, 0.5), np.array([0.5])])
    def test_a_matrix_cov_is_refused_as_a_non_scalar_rho(self, rng, cov):
        # the only covariance family is an AR(1) grid; a matrix used to be
        # simulated as a one-member explicit family
        problem, _ = random_problem(rng, n=10, k=2)
        with pytest.raises(ValueError, match="rho must be a scalar"):
            simulate_statistics(problem, cov=cov, beta=np.zeros(2), reps=5, seed=0,
                                est_config=CONFIG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_beta_is_rejected(self, rng, bad):
        problem, _ = random_problem(rng, n=10, k=2)
        with pytest.raises(ValueError, match="beta must be finite"):
            simulate_statistics(problem, cov=0.0, beta=np.array([bad, 0.0]), reps=5, seed=0,
                                est_config=CONFIG)

    def test_a_beta_whose_mean_overflows_is_rejected(self, rng):
        # beta is finite but X beta is not: the error names beta, not a y
        # the caller never passed, and no overflow warning escapes
        problem = RegressionProblem(rng.standard_normal((12, 2)), [[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError, match="^beta: the mean X beta overflows"):
            simulate_statistics(problem, cov=0.3, beta=np.array([1e308, 1e308]), reps=3,
                                seed=0, est_config=CONFIG)

    def test_adjusted_target_simulates_from_the_original_design(self, rng):
        problem, _ = random_problem(rng, n=12, k=2, q=1, r_zero=True)
        adjusted = build_adjusted(problem, CONFIG)
        # beta lives in the original coordinate system (k = 2, not kbar = 4)
        stats = simulate_statistics(adjusted, cov=0.0, beta=np.zeros(2), reps=5, seed=0)
        assert stats.shape == (5,)
        with pytest.raises(ValueError, match="beta"):
            simulate_statistics(adjusted, cov=0.0, beta=np.zeros(4), reps=5, seed=0)

    @pytest.mark.parametrize("entry", ["simulate_statistics", "calibrate_critical_value",
                                       "power_curve"])
    def test_a_target_that_is_not_a_problem_is_refused(self, entry):
        mc = McConfig(replications=100, seed=0, family=AR1Grid((0.0,)))
        call = {
            "simulate_statistics": lambda t: simulate_statistics(
                t, cov=0.0, beta=np.zeros(2), reps=5, seed=0, est_config=CONFIG),
            "calibrate_critical_value": lambda t: calibrate_critical_value(
                t, mc, 0.2, est_config=CONFIG),
            "power_curve": lambda t: power_curve(t, mc, 3.0, (0.0,), est_config=CONFIG),
        }[entry]
        with pytest.raises(ValueError, match="target must be a RegressionProblem or "
                                             "AdjustedProblem, got ndarray"):
            call(np.ones((12, 2)))

    @pytest.mark.parametrize("entry", ["simulate_statistics", "calibrate_critical_value",
                                       "power_curve"])
    def test_est_config_beside_an_adjusted_target_is_refused(self, rng, monkeypatch, entry):
        # an adjusted problem carries the config it was built with; another
        # one beside it used to be dropped without a word
        def no_simulation(*args):
            raise AssertionError("simulated before refusing est_config")

        monkeypatch.setattr(hactest.montecarlo, "_family_statistics", no_simulation)
        problem, _ = random_problem(rng, n=12, k=2, q=1, r_zero=True)
        adjusted = build_adjusted(problem, CONFIG)
        other = EstimatorConfig(get_kernel("qs"), default_rule("andrews", "qs"), p=2)
        mc = McConfig(replications=100, seed=0, family=AR1Grid((0.0,)))
        call = {
            "simulate_statistics": lambda c: simulate_statistics(
                adjusted, cov=0.0, beta=np.zeros(2), reps=5, seed=0, est_config=c),
            "calibrate_critical_value": lambda c: calibrate_critical_value(
                adjusted, mc, 0.2, est_config=c),
            "power_curve": lambda c: power_curve(adjusted, mc, 3.0, (0.0,), est_config=c),
        }[entry]
        for est_config in (other, CONFIG):
            with pytest.raises(ValueError, match="est_config applies to a bare problem"):
                call(est_config)


class TestRates:
    def test_probabilities_need_enough_replications(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=99, family=AR1Grid((0.0,)))
        with pytest.raises(ValueError, match="at least 100"):
            power_curve(problem, mc, 1.0, (0.0,), est_config=CONFIG)
        with pytest.raises(ValueError, match="at least 100"):
            calibrate_critical_value(problem, mc, 0.2, est_config=CONFIG)

    def test_everything_rejects_at_critical_value_zero(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=1)
        curve = power_curve(problem, mc, 0.0, (0.0, 1.0), est_config=CONFIG)
        assert all(p.rate == 1.0 and p.ci == 0.0 for p in curve.points)

    def test_empirical_size_reports_the_worst_member(self, rng):
        # the empirical size is the null curve's largest rate; each member's
        # rate is its one-member curve
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=2, family=AR1Grid((0.0, 0.9)))
        curve = power_curve(problem, mc, 3.0, (0.0,), est_config=CONFIG)
        alone = [
            largest_rate(power_curve(
                problem, McConfig(replications=100, seed=2, family=AR1Grid((rho,))),
                3.0, (0.0,), est_config=CONFIG))
            for rho in (0.0, 0.9)
        ]
        assert [p.rate for p in curve.points] == alone
        assert largest_rate(curve) == max(alone)
        assert [p.label for p in curve.points] == ["0", "0.9"]
        assert all(p.distance == 0.0 for p in curve.points)

    def test_mcconfig_validation(self):
        with pytest.raises(ValueError, match="replications"):
            McConfig(replications=0)
        with pytest.raises(ValueError, match="seed"):
            McConfig(replications=100, seed=-1)

    def test_mcconfig_refuses_a_family_that_is_not_an_ar1_grid(self):
        # the family used to be accepted as any object and refused only
        # when a simulation asked for its members
        with pytest.raises(ValueError, match="family must be an AR1Grid"):
            McConfig(replications=100, family=(0.0, 0.5))


class TestCalibration:
    def test_calibrated_size_lands_in_the_target_window(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=200, seed=3, family=AR1Grid((-0.6, 0.0, 0.6)))
        delta = 0.2
        result = calibrate_critical_value(problem, mc, delta, est_config=CONFIG)
        assert result.critical_value > 0.0
        assert result.size <= delta
        assert result.size >= delta - delta / 10.0
        assert set(result.rates) == {"-0.6", "0", "0.6"}
        assert max(result.rates.values()) == result.size
        # the reported size is reproducible through the public rate API
        null = power_curve(problem, mc, result.critical_value, (0.0,), est_config=CONFIG)
        assert largest_rate(null) == result.size

    def test_size_is_monotone_in_the_critical_value(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=150, seed=4, family=AR1Grid((0.0, 0.9)))
        result = calibrate_critical_value(problem, mc, 0.1, est_config=CONFIG)
        c = result.critical_value
        low = largest_rate(power_curve(problem, mc, c / 2.0, (0.0,), est_config=CONFIG))
        high = largest_rate(power_curve(problem, mc, 2.0 * c, (0.0,), est_config=CONFIG))
        assert low >= result.size >= high

    @pytest.mark.parametrize("family", [AR1Grid((0.6, 0.9)), AR1Grid((0.3, -0.5))])
    def test_families_without_a_white_member_simulate_each_member_once(
        self, rng, monkeypatch, family
    ):
        # the starting bracket comes from statistics already simulated, not
        # from one more run at rho = 0
        calls = []
        result = hactest.testing.TestEngine.result

        def counted(self, y, *args, **kwargs):
            calls.append(1)
            return result(self, y, *args, **kwargs)

        monkeypatch.setattr(hactest.testing.TestEngine, "result", counted)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=200, seed=12, family=family)
        delta = 0.2
        cal = calibrate_critical_value(problem, mc, delta, est_config=CONFIG)
        assert len(calls) == 2 * mc.replications
        assert delta - delta / 10.0 <= cal.size <= delta

    def test_near_unit_root_members_each_report_a_rate(self, rng):
        # both rhos print as "0.999999" under "%g"; each keeps its own rate
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=16, family=AR1Grid((0.9999991, 0.9999992)))
        cal = calibrate_critical_value(problem, mc, 0.1, est_config=CONFIG)
        assert set(cal.rates) == {"0.9999991", "0.9999992"}
        assert max(cal.rates.values()) == cal.size

    def test_default_grid_labels_are_short_and_round_trip(self):
        labels = [hactest.montecarlo._rho_label(rho) for rho in AR1Grid(DEFAULT_RHO_GRID).rhos]
        assert labels == [f"{r:g}" for r in DEFAULT_RHO_GRID]

    @staticmethod
    def _fake_statistics(infinite_share):
        """Statistics 1, 2, ..., reps per member, the top share of each set to +inf."""
        def fake(engine, sim_problem, mc, betas):
            reps = mc.replications
            stats = np.tile(np.arange(1.0, reps + 1.0), (len(mc.family.rhos), len(betas), 1))
            for rows, rho in zip(stats, mc.family.rhos):
                rows[:, reps - round(infinite_share[rho] * reps):] = np.inf
            return stats
        return fake

    @pytest.mark.parametrize("white_share", [1.0, 0.0])
    def test_infinite_statistics_stop_the_bracket_search(self, rng, monkeypatch, white_share):
        # more than a delta share of +inf statistics leaves no finite cutoff;
        # with a finite white member the doubling starts finite and overflows
        fake = self._fake_statistics({0.0: white_share, 0.5: 0.3})
        monkeypatch.setattr(hactest.montecarlo, "_family_statistics", fake)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=17, family=AR1Grid((0.0, 0.5)))
        with pytest.raises(CalibrationNotApplicableError, match="infinite"):
            calibrate_critical_value(problem, mc, 0.2, est_config=CONFIG)

    def test_a_few_infinite_statistics_still_calibrate(self, rng, monkeypatch):
        # the starting quantile is infinite, but a delta share of infinities
        # leaves a finite cutoff to find
        fake = self._fake_statistics({0.0: 0.05, 0.5: 0.1})
        monkeypatch.setattr(hactest.montecarlo, "_family_statistics", fake)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=17, family=AR1Grid((0.0, 0.5)))
        cal = calibrate_critical_value(problem, mc, 0.2, est_config=CONFIG)
        assert np.isfinite(cal.critical_value) and np.isfinite(cal.c_hi)
        assert 0.2 - 0.2 / 10.0 <= cal.size <= 0.2

    def test_a_size_that_jumps_over_the_window_returns_the_conservative_end(
        self, rng, monkeypatch
    ):
        # every statistic is 5: the size is 1 below C = 5 and 0 above it, so
        # the bisection narrows onto 5 from above and stops at its floor
        def fake(engine, sim_problem, mc, betas):
            return np.full((len(mc.family.rhos), len(betas), mc.replications), 5.0)

        monkeypatch.setattr(hactest.montecarlo, "_family_statistics", fake)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=0, family=AR1Grid((0.0, 0.5)))
        cal = calibrate_critical_value(problem, mc, 0.05, est_config=CONFIG)
        assert (cal.critical_value, cal.size, cal.c_hi) == (5.000000000009095, 0.0, 10.0)
        assert cal.rates == {"0": 0.0, "0.5": 0.0}

    def test_trivial_level_calibrates_to_zero(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=5, family=AR1Grid((0.0,)))
        result = calibrate_critical_value(problem, mc, 1.0, est_config=CONFIG)
        assert result.critical_value == 0.0 and result.size == 1.0

    @pytest.mark.parametrize("rule", ["andrews", "newey-west", "fixed-b"])
    def test_refuses_a_test_whose_statistic_is_never_positive(self, rule):
        # both boundary directions are columns and R avoids them, so the
        # unadjusted test is calibratable in principle; but n = 6 < p(k+1) + q
        # = 7, so T = 0 on every draw and no critical value is determined
        X = np.array([[1, -1, 1, 2], [1, 1, 2, 7], [1, -1, 3, 1],
                      [1, 1, 5, 8], [1, -1, 8, 2], [1, 1, 13, 8]], dtype=float)
        problem = RegressionProblem(X, np.eye(4)[2:], np.zeros(2))
        config = EstimatorConfig(
            BARTLETT, FixedBRule(b=1.0) if rule == "fixed-b" else default_rule(rule, "bartlett"))
        mc = McConfig(replications=200, seed=0, family=AR1Grid((0.0, 0.6)))
        with pytest.raises(CalibrationNotApplicableError, match="at most a 0 share"):
            calibrate_critical_value(problem, mc, 0.2, est_config=config)
        # delta = 1 is still met by C = 0
        assert calibrate_critical_value(problem, mc, 1.0, est_config=config).critical_value == 0.0

    def test_refuses_unadjusted_problems_with_exposed_directions(self, rng):
        scenario3, _ = random_problem(rng, n=12, k=2, q=1)
        mc = McConfig(replications=100, seed=0, family=AR1Grid((0.0,)))
        with pytest.raises(CalibrationNotApplicableError, match="scenario 3"):
            calibrate_critical_value(scenario3, mc, 0.2, est_config=CONFIG)

        n = 12
        X = np.column_stack([constant_vector(n), rng.standard_normal(n)])
        intercept = RegressionProblem(X, np.array([[1.0, 0.0]]), np.zeros(1))
        with pytest.raises(CalibrationNotApplicableError, match="size tends to one"):
            calibrate_critical_value(intercept, mc, 0.2, est_config=CONFIG)

        tiny, _ = random_problem(rng, n=4, k=2)
        with pytest.raises(CalibrationNotApplicableError, match="too small"):
            calibrate_critical_value(tiny, mc, 0.2, est_config=CONFIG)

    def test_refuses_as_too_small_when_the_adjusted_statistic_is_never_defined(self):
        # scenario 3 appends both directions: kbar = 4 needs n >= p(kbar+1) + q
        # = 6, so build_adjusted refuses this 5 x 2 design and the advice to
        # calibrate the adjusted problem would lead nowhere
        X = np.array([[1, 2], [3, 5], [2, 7], [4, 1], [5, 3]], dtype=float)
        problem = RegressionProblem(X, [[1.0, 0.0]], [0.0])
        config = EstimatorConfig(BARTLETT, default_rule("andrews", "bartlett"), p=1)
        with pytest.raises(AugmentationImpossibleError, match="n >= p"):
            build_adjusted(problem, config)
        mc = McConfig(replications=100, seed=0, family=AR1Grid((0.0,)))
        with pytest.raises(CalibrationNotApplicableError, match="too small to augment"):
            calibrate_critical_value(problem, mc, 0.2, est_config=config)
        # the design is refused before a missing est_config is noticed
        with pytest.raises(CalibrationNotApplicableError):
            calibrate_critical_value(problem, mc, 0.2)

    def test_adjusted_target_is_always_accepted(self, rng):
        problem, _ = random_problem(rng, n=12, k=2, q=1, r_zero=True)
        adjusted = build_adjusted(problem, CONFIG)
        mc = McConfig(replications=100, seed=7, family=AR1Grid((0.0, 0.6)))
        result = calibrate_critical_value(adjusted, mc, 0.3)
        assert result.size <= 0.3

    def test_delta_validation(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100)
        with pytest.raises(ValueError, match="delta"):
            calibrate_critical_value(problem, mc, 0.0, est_config=CONFIG)
        with pytest.raises(ValueError, match="delta"):
            calibrate_critical_value(problem, mc, 1.5, est_config=CONFIG)


class TestPowerCurve:
    def test_power_rises_with_the_violation_distance(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=200, seed=8, family=AR1Grid((0.0,)))
        calib = calibrate_critical_value(problem, mc, 0.1, est_config=CONFIG)
        curve = power_curve(
            problem, mc, calib.critical_value, (0.0, 4.0), est_config=CONFIG
        )
        by_distance = {p.distance: p.rate for p in curve.points}
        assert by_distance[0.0] <= calib.delta
        assert by_distance[4.0] > by_distance[0.0]

    def test_each_replication_is_drawn_once_per_member(self, rng, monkeypatch):
        # a call maps a block of replications; count the rows it maps
        rows = {}
        ar1_path = hactest.montecarlo._ar1_path

        def counted(rho, z):
            rows[rho] = rows.get(rho, 0) + z.size // z.shape[-1]
            return ar1_path(rho, z)

        monkeypatch.setattr(hactest.montecarlo, "_ar1_path", counted)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=300, seed=13, family=AR1Grid((0.0, 0.5)))
        power_curve(problem, mc, 3.0, (0.0, 1.0, 2.0), est_config=CONFIG)
        assert rows == {0.0: mc.replications, 0.5: mc.replications}
        assert sum(rows.values()) == 2 * mc.replications

    def test_replication_blocks_change_no_statistic(self, rng):
        # replication idx is seeded by (seed, idx) alone, whatever its block
        problem = calibratable_problem(rng)
        block = hactest.montecarlo.BLOCK_ROWS
        kw = dict(beta=null_point(problem), seed=19, est_config=CONFIG)
        long = simulate_statistics(problem, cov=0.7, reps=2 * block + 3, **kw)
        for reps in (1, block - 1, block, block + 1):
            assert np.array_equal(
                simulate_statistics(problem, cov=0.7, reps=reps, **kw), long[:reps])

    def test_ar1_members_are_bitwise_their_per_row_draws(self, rng, monkeypatch):
        # across a block boundary, each statistic is the one at the scalar
        # recursion's path of its own (seed, idx) draw
        problem = shared_design(rng)
        n = problem.n
        mc = McConfig(replications=hactest.montecarlo.BLOCK_ROWS + 20, seed=24,
                      family=AR1Grid((0.6, -0.8)))
        calls = []
        family_statistics = hactest.montecarlo._family_statistics

        def spy(*args):
            calls.append(family_statistics(*args))
            return calls[-1]

        monkeypatch.setattr(hactest.montecarlo, "_family_statistics", spy)
        curve = power_curve(problem, mc, 2.0, (0.0, 1.5), est_config=CONFIG)
        (stats,) = calls
        assert stats.shape == (2, 3, mc.replications)
        engine = hactest.testing.TestEngine(problem, CONFIG)
        mu = problem.X @ null_point(problem)
        for rho, rows in zip(mc.family.rhos, stats):
            for idx in range(mc.replications):
                z = np.random.default_rng(np.random.SeedSequence((mc.seed, idx))).standard_normal(n)
                want = engine.result(mu + ar1_path_oracle(rho, z)).t_value
                assert rows[0][idx] == want and rows[1][idx] == want
        assert [p.rate for p in curve.points[::2]] == [np.mean(rows[1] >= 2.0) for rows in stats]

    def test_each_replication_is_seeded_once_per_call(self, rng, monkeypatch):
        # one generator per replication, shared by every member and distance
        seeded = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            seeded.append(1)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(hactest.montecarlo.np.random, "default_rng", counted)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=18, family=AR1Grid((-0.5, 0.0, 0.8)))
        power_curve(problem, mc, 3.0, (0.0, 1.0), est_config=CONFIG)
        assert len(seeded) == mc.replications

        seeded.clear()
        mc = McConfig(replications=100, seed=18)
        assert len(mc.family.rhos) == 13
        calibrate_critical_value(problem, mc, 0.2, est_config=CONFIG)
        assert len(seeded) == mc.replications

    def test_points_equal_single_member_rates(self, rng):
        # shared draws change no rate: each point is the rate of its own
        # member and beta simulated alone
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=14, family=AR1Grid((-0.5, 0.0, 0.8)))
        beta0 = null_point(problem)
        pull = problem.R.T @ np.linalg.solve(problem.R @ problem.R.T, np.ones(1))
        distances = (0.0, 0.5, 2.0)
        curve = power_curve(problem, mc, 2.0, distances, est_config=CONFIG)
        points = iter(curve.points)
        for rho in mc.family.rhos:
            for d in distances:
                stats = simulate_statistics(
                    problem, cov=rho, beta=beta0 + d * pull,
                    reps=mc.replications, seed=mc.seed, est_config=CONFIG,
                )
                point = next(points)
                assert (float(point.label), point.distance) == (rho, d)
                assert point.rate == np.mean(stats >= 2.0)

    def test_points_iterate_member_major(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=9, family=AR1Grid((0.0, 0.5)))
        curve = power_curve(problem, mc, 3.0, (0.0, 1.0), est_config=CONFIG)
        assert [(p.label, p.distance) for p in curve.points] == [
            ("0", 0.0), ("0", 1.0), ("0.5", 0.0), ("0.5", 1.0)
        ]

    def test_csv_and_json_round_trip(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=9, family=AR1Grid((0.0,)))
        curve = power_curve(problem, mc, 3.0, (0.0,), est_config=CONFIG)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "rho,distance,rate,ci"
        assert len(lines) == 2
        (point,) = curve.points
        assert lines[1] == f"0,0,{point.rate:.10g},{point.ci:.10g}"
        (as_json,) = curve.to_json()
        assert set(as_json) == {"rho", "distance", "rate", "ci"}
        assert as_json["rho"] == "0"

    def test_distance_and_cutoff_validation(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=11, family=AR1Grid((0.0,)))
        with pytest.raises(ValueError, match="nonnegative"):
            power_curve(problem, mc, 3.0, (-1.0,), est_config=CONFIG)
        # a NaN cutoff used to compare false everywhere and report rate 0
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="critical value must be finite"):
                power_curve(problem, mc, bad, (0.0,), est_config=CONFIG)

    @pytest.mark.parametrize("distances", [[], (), 2.0, [[0.0, 1.0]]],
                             ids=["empty-list", "empty-tuple", "scalar", "2-D"])
    def test_distances_must_be_a_non_empty_sequence(self, rng, monkeypatch, distances):
        # [] used to simulate the whole family and return a curve with no
        # point; a scalar or a nested list raised TypeError
        def no_simulation(*args):
            raise AssertionError("simulated before validating distances")

        monkeypatch.setattr(hactest.montecarlo, "_family_statistics", no_simulation)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=11, family=AR1Grid((0.0,)))
        with pytest.raises(ValueError, match="non-empty 1-D"):
            power_curve(problem, mc, 3.0, distances, est_config=CONFIG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distance_is_rejected(self, rng, bad):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=11, family=AR1Grid((0.0,)))
        with pytest.raises(ValueError, match="distances must be finite"):
            power_curve(problem, mc, 3.0, (0.0, bad), est_config=CONFIG)

    #: restrictions on the 12 x 3 design of huge_alternative_target
    HUGE_R = {"q2": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "q1": [[1.0, 0.0, 0.0]],
              "q2-small": [[1e-3, 0.0, 0.0], [0.0, 1e-3, 0.0]]}

    @staticmethod
    def huge_alternative_target(R):
        X = np.random.default_rng(11).standard_normal((12, 3))
        problem = RegressionProblem(X, np.array(R), np.zeros(len(R)))
        return build_adjusted(problem, CONFIG)

    @pytest.mark.parametrize("name, d", [
        *((name, d) for name in ("q2", "q1") for d in (1e300, 1e306, 1e308, 1.7e308)),
        ("q2-small", 1e300),
    ])
    def test_an_alternative_whose_statistic_overflows_rejects(self, name, d):
        # T overflows out there: the solve used to read inf - inf and count
        # NaN >= C as not rejected (rate 0.37 at d = 1e308 with q = 2), or
        # warn "overflow encountered in vecdot"
        adjusted = self.huge_alternative_target(self.HUGE_R[name])
        mc = McConfig(100, family=AR1Grid((0.3,)))
        at_1e300 = power_curve(adjusted, mc, 3.0, (0.0, 1e300))
        curve = power_curve(adjusted, mc, 3.0, (0.0, d))
        assert at_1e300.points[1].rate == 1.0
        assert [p.rate for p in curve.points] == [p.rate for p in at_1e300.points]

    @pytest.mark.parametrize("d", [1e306, 1e308, 1.7e308])
    def test_an_alternative_whose_shift_overflows_is_refused(self, d):
        # with R scaled by 1e-3, beta0 + d pull overflows; its shift used to
        # be NaN and read rate 0.0 after an overflow warning
        adjusted = self.huge_alternative_target(self.HUGE_R["q2-small"])
        mc = McConfig(100, family=AR1Grid((0.3,)))
        with pytest.raises(ValueError, match="^distances: an alternative's shift"):
            power_curve(adjusted, mc, 3.0, (0.0, d))

    def test_near_unit_root_members_keep_distinct_labels(self, rng):
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=15, family=AR1Grid((0.9999991, 0.9999992)))
        curve = power_curve(problem, mc, 3.0, (0.0,), est_config=CONFIG)
        assert [p.label for p in curve.points] == ["0.9999991", "0.9999992"]
        assert [float(p.label) for p in curve.points] == list(mc.family.rhos)


def shared_design(rng, n=24):
    """Constant plus two generic columns, H0 on both slopes (q = 2)."""
    X = np.column_stack([constant_vector(n), rng.standard_normal((n, 2))])
    return RegressionProblem(X, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(2))


def assert_curve_matches_oracle(monkeypatch, target, mc, distances, est_config=None):
    """Every statistic behind power_curve equals the one-shot statistic at its own y.

    Returns the one-shot results, so callers can check which outcomes arose.
    """
    calls = []
    family_statistics = hactest.montecarlo._family_statistics

    def spy(engine, sim_problem, mc_, betas):
        stats = family_statistics(engine, sim_problem, mc_, betas)
        calls.append((betas, stats))
        return stats

    monkeypatch.setattr(hactest.montecarlo, "_family_statistics", spy)
    curve = power_curve(target, mc, 1.0, distances, est_config=est_config)
    ((betas, stats),) = calls
    if isinstance(target, AdjustedProblem):
        sim_problem, oracle = target.original, lambda y: adjusted_statistic(target, y)
    else:
        sim_problem, oracle = target, lambda y: evaluate(target, y, est_config)
    wants = []
    for rho, rows in zip(mc.family.rhos, stats):
        for beta, row in zip(betas, rows):
            for idx in range(mc.replications):
                z = np.random.default_rng(np.random.SeedSequence((mc.seed, idx))).standard_normal(
                    sim_problem.n)
                u = hactest.montecarlo._ar1_path(rho, z)
                want = oracle(sim_problem.X @ beta + u)
                wants.append(want)
                assert (row[idx] != 0.0) == want.defined
                assert abs(row[idx] - want.t_value) <= 1e-10 * max(1.0, want.t_value)
    # each curve point rates the row simulated at its own alternative
    beta0 = null_point(sim_problem)
    pull = sim_problem.R.T @ np.linalg.solve(sim_problem.R @ sim_problem.R.T,
                                             np.ones(sim_problem.q) / np.sqrt(sim_problem.q))
    by_label = {hactest.montecarlo._rho_label(rho): rows for rho, rows in zip(mc.family.rhos, stats)}
    for point in curve.points:
        beta = beta0 + point.distance * pull
        j = next(j for j, b in enumerate(betas) if np.allclose(b, beta, rtol=0, atol=1e-12))
        assert point.rate == np.mean(by_label[point.label][j] >= 1.0)
    return wants


class TestSharedCovarianceEstimate:
    """power_curve estimates the covariance once per draw and shares it."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("adjusted", [False, True], ids=["bare", "adjusted"])
    @pytest.mark.parametrize("config_index", range(len(config_grid())))
    def test_every_statistic_matches_its_own_response(
        self, rng, monkeypatch, config_index, adjusted, p
    ):
        config = config_grid(p)[config_index]
        problem = shared_design(rng)
        target = build_adjusted(problem, config) if adjusted else problem
        mc = McConfig(replications=100, seed=21, family=AR1Grid((-0.6, 0.9)))
        wants = assert_curve_matches_oracle(
            monkeypatch, target, mc, (2.0, 0.0, 0.7), None if adjusted else config)
        assert any(w.defined for w in wants)

    @pytest.mark.parametrize("adjusted", [False, True], ids=["bare", "adjusted"])
    def test_responses_in_the_span_give_zero_everywhere(self, rng, monkeypatch, adjusted):
        problem = shared_design(rng)
        config = CONFIG
        target = build_adjusted(problem, config) if adjusted else problem
        monkeypatch.setattr(hactest.montecarlo, "_ar1_path",
                            lambda rho, z: z[..., : problem.k] @ problem.X.T)
        mc = McConfig(replications=100, seed=22, family=AR1Grid((0.5,)))
        wants = assert_curve_matches_oracle(
            monkeypatch, target, mc, (0.0, 1.0, 3.0), None if adjusted else config)
        assert {w.omega.reason for w in wants} == {VAR_RANK_DEFICIENT}

    def test_undefined_bandwidth_gives_zero_everywhere(self, rng, monkeypatch):
        # at errors of scale 1e80 the plug-in sums overflow
        problem = shared_design(rng)
        config = EstimatorConfig(get_kernel("qs"), default_rule("andrews", "qs"), p=1)
        ar1_path = hactest.montecarlo._ar1_path
        monkeypatch.setattr(hactest.montecarlo, "_ar1_path",
                            lambda rho, z: 1e80 * ar1_path(rho, z))
        mc = McConfig(replications=100, seed=23, family=AR1Grid((0.0, 0.8)))
        with np.errstate(all="ignore"):
            wants = assert_curve_matches_oracle(monkeypatch, problem, mc, (0.0, 1.0, 3.0), config)
        assert {w.omega.reason for w in wants} == {BANDWIDTH_UNDEFINED}

    def test_singular_estimate_gives_zero_everywhere(self, rng, monkeypatch):
        # n = p (k + 1): the VAR fits the scores exactly, so the estimate is
        # never positive definite
        X = np.column_stack([constant_vector(8), rng.standard_normal((8, 2))])
        problem = RegressionProblem(X, np.array([[0.0, 1.0, 0.0]]), np.zeros(1))
        config = EstimatorConfig(BARTLETT, FixedBRule(b=1.0), p=2)
        mc = McConfig(replications=100, seed=24, family=AR1Grid((0.0, 0.9)))
        wants = assert_curve_matches_oracle(monkeypatch, problem, mc, (0.0, 1.0, 3.0), config)
        assert all(w.omega.well_defined and not w.defined for w in wants)

    @pytest.mark.parametrize("distances", [(0.0,), (0.0, 1.0, 2.0, 5.0)])
    def test_one_estimate_per_member_and_replication(self, rng, monkeypatch, distances):
        calls = []
        outcome = OmegaEngine.outcome

        def counted(self, y):
            calls.append(1)
            return outcome(self, y)

        monkeypatch.setattr(OmegaEngine, "outcome", counted)
        problem = calibratable_problem(rng)
        mc = McConfig(replications=100, seed=25, family=AR1Grid((-0.5, 0.0, 0.8)))
        power_curve(problem, mc, 3.0, distances, est_config=CONFIG)
        assert len(calls) == 3 * mc.replications
