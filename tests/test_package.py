import dataclasses

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
    # the empirical size is power_curve(..., (0.0,)).max_rate; null_point
    # returns beta0; the AR(1) sampler, Gamma_i and the MA(d) correlation
    # matrix live in tests/oracles.py
    for name in ("rejection_probability", "empirical_size", "SizeReport",
                 "NullPoint", "sample_gaussian_ar1", "compute_gamma",
                 "ma_closure_matrix"):
        assert not hasattr(hactest, name), name
        assert name not in hactest.__all__, name
    assert not hasattr(hactest.model, "ma_closure_matrix")
    assert len(hactest.__all__) == 74

    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert field_names(hactest.McConfig) == {"replications", "seed", "family", "sigma"}
    assert "y" not in field_names(hactest.RegressionProblem)
    assert "original_config" not in field_names(hactest.AdjustedProblem)
