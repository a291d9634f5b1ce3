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
