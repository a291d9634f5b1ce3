import dataclasses
import inspect

import pytest

import hactest


def test_public_names_resolve_and_removed_ones_stay_gone():
    for name in hactest.__all__:
        assert getattr(hactest, name) is not None, name
    assert len(set(hactest.__all__)) == len(hactest.__all__)
    # step 1 runs inside OmegaEngine; there is no stand-alone VAR fitter
    assert not hasattr(hactest, "fit_var_ols")
    assert "fit_var_ols" not in hactest.__all__
    fields = {f.name for f in dataclasses.fields(hactest.McConfig)}
    assert "parallel_chunks" not in fields


def test_single_path_names_and_dead_fields_stay_gone():
    # the empirical size is the largest rate of power_curve(..., (0.0,));
    # null_point returns beta0; the AR(1) sampler, Gamma_i, the MA(d) correlation
    # matrix, the scalar kernel evaluation and the stand-alone gradient
    # check live in tests/oracles.py; the engine's entries to the bandwidth
    # rules, bandwidth_sums (one stacked call per block) and
    # compute_bandwidth (each response's decision), stay in
    # hactest.bandwidth, and the per-row rules they replaced live in
    # tests/oracles.py; an outcome holds the two step-1 arrays psi reads,
    # with no fit record beside them
    for name in ("rejection_probability", "empirical_size", "SizeReport",
                 "NullPoint", "sample_gaussian_ar1", "compute_gamma",
                 "ma_closure_matrix", "kernel_eval", "bandwidth_am", "bandwidth_nw",
                 "bandwidth_kv", "rectangular_cutoff", "toeplitz_weights",
                 "gradient_exists", "PrewhitenFit", "compute_bandwidth"):
        assert not hasattr(hactest, name), name
        assert name not in hactest.__all__, name
    assert not hasattr(hactest.model, "ma_closure_matrix")
    assert not hasattr(hactest.kernels, "kernel_eval")
    assert not hasattr(hactest.diagnostics, "gradient_exists")
    assert not hasattr(hactest.prewhiten, "PrewhitenFit")
    assert callable(hactest.bandwidth.compute_bandwidth)
    assert callable(hactest.bandwidth.bandwidth_sums)
    for name in ("bandwidth_am", "bandwidth_nw", "bandwidth_kv"):
        assert not hasattr(hactest.bandwidth, name), name
    assert len(hactest.__all__) == 57

    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert field_names(hactest.McConfig) == {"replications", "seed", "family"}
    # a result holds the statistic and the estimate behind it; the decision
    # against C, and the scenario of an adjusted problem, are the caller's
    assert field_names(hactest.TestResult) == {"t_value", "defined", "omega", "discrepancy"}
    # the bandwidth value is read from the rule outcome, the VAR
    # regressors and coefficients stay inside the engine, and B, whose row
    # rank is the definiteness class, is not kept beside that class
    assert field_names(hactest.OmegaOutcome) == {
        "reason", "omega", "Z", "recolor", "bandwidth", "kernel", "definiteness"}
    assert set(hactest.prewhiten.OmegaBlock._fields) == {
        "reasons", "bandwidths", "defined", "Z", "recolor", "omega", "definiteness"}
    # a curve point names its member by label alone, which reads back as
    # its rho, and a curve's largest rate is its reader's to take
    assert field_names(hactest.CurvePoint) == {"label", "distance", "rate", "ci"}
    assert not hasattr(hactest.SizePowerCurve, "max_rate")
    # the Newey-West rule weighs lags by Newey and West's rectangular cutoff
    # alone, with no integer cutoff or explicit lag weights
    assert field_names(hactest.NeweyWestRule) == {"cbar1", "cbar2", "cbar3", "omega"}
    with pytest.raises(TypeError):
        hactest.NeweyWestRule(cbar1=1, cbar2=1.0, cbar3=0.2, weights=(1.0, 1.0))
    with pytest.raises(TypeError):
        hactest.NeweyWestRule(cbar1=1, cbar2=1.0, cbar3=0.2, weights=3)
    # an outcome's status is read from its reason, never stored beside it
    assert "status" not in field_names(hactest.OmegaOutcome)
    assert hactest.OmegaOutcome(reason=hactest.VAR_RANK_DEFICIENT).status == "undefined"
    assert hactest.OmegaOutcome().status == "well-defined"
    assert "y" not in field_names(hactest.RegressionProblem)
    assert "original_config" not in field_names(hactest.AdjustedProblem)
    # calibration stops within delta / 10 of delta; c_hi stays, it shows
    # where the bisection started
    assert "tol" not in field_names(hactest.CalibrationResult)


def test_surface_no_program_calls_stays_gone():
    # the kernel set is fixed, with no registry and no admission check; the
    # covariance family is AR1Grid alone, with no explicit-matrix family,
    # family union or per-member sampler factory; the definiteness class
    # travels on OmegaOutcome.definiteness; the AR(1) correlation matrix,
    # the kernel Toeplitz matrix and the witness design live in
    # tests/oracles.py; the omega presets stay in hactest.bandwidth
    removed = {
        hactest.kernels: ("register_kernel", "PSD_TRIALS", "PSD_SEED", "_REGISTRY",
                          "toeplitz_weights"),
        hactest.model: ("AR1Restricted", "ar1_matrix", "ExplicitList", "CovarianceFamily"),
        hactest.montecarlo: ("ExplicitList", "CovarianceFamily", "_make_sampler"),
        hactest.prewhiten: ("classify_definiteness",),
        hactest.diagnostics: ("witness_design",),
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(hactest, name), name
            assert name not in hactest.__all__, name
            assert not hasattr(module, name), (module.__name__, name)
    assert isinstance(hactest.kernels._KERNELS, tuple)
    for name in ("OMEGA_PRESETS", "resolve_omega"):
        assert not hasattr(hactest, name), name
        assert name not in hactest.__all__, name
        assert hasattr(hactest.bandwidth, name), name


def test_settings_the_statistic_does_not_read_stay_gone():
    # the test is invariant to the error scale, so no study takes a sigma
    # (McConfig's fields are checked above); the check constants keep the
    # values the removed parameters defaulted to
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "sigma" not in params(hactest.simulate_statistics)
    # single-value options: calibration's tolerance is delta / 10, power
    # curves move along equal weights, and the CSV always has its header
    assert "tol" not in params(hactest.calibrate_critical_value)
    assert "direction" not in params(hactest.power_curve)
    assert params(hactest.SizePowerCurve.to_csv) == {"self"}
    assert hactest.diagnostics.FD_STEPS == (1e-4, 1e-5, 1e-6)
    # the statistic takes no critical value: comparing T with C is the caller's
    assert params(hactest.TestEngine.result) == {"self", "y"}
    assert params(hactest.test_statistic) == {"problem", "y", "config"}
    assert params(hactest.adjusted_statistic) == {"adjusted", "y"}
    # rule defaults come from the kernel alone; a weight is set on the rule
    assert params(hactest.default_rule) == {"kind", "kernel"}
    # one block size, beside the engine
    assert hactest.montecarlo.BLOCK_ROWS is hactest.prewhiten.BLOCK_ROWS
    assert not hasattr(hactest.diagnostics, "FD_BLOCK_ROWS")
