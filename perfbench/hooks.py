"""Where the traced run wraps hactest, and the per-layer metrics built on it.

Each hook wraps a callable that one module calls across a module boundary,
as it is bound in the calling module (or on the class, for methods).  Span
names are ``<layer>.<callable>``, the layer being the module that owns the
callable (``linalg`` stands for ``hactest._linalg``).  Each metric names the
hooks it needs; when one is missing the metric is reported absent, with the
missing hook, instead of as a number.
"""
from __future__ import annotations

import numpy as np

from tracer import Hook


def _count_rows(tracer, args, result):
    z = np.asarray(args[1])
    tracer.counts["draw_rows"] += z.size // z.shape[-1]


def _count_result(tracer, args, result):
    tracer.counts["result_calls"] += 1
    tracer.counts["result_defined"] += bool(result.defined)
    if tracer.open["diagnostics.diagnose"]:
        tracer.counts["diagnose_stats"] += 1


def _count_bandwidth(tracer, args, result):
    tracer.counts["bandwidth_calls"] += 1
    tracer.counts["bandwidth_defined"] += bool(result.is_defined)


def _count_points(tracer, args, result):
    tracer.counts["kernel_points"] += int(np.size(args[0]))
    if tracer.open["prewhiten.outcome"]:
        tracer.counts["lag_products"] += int(np.count_nonzero(result))


def _record_cutoff(tracer, args, result):
    if tracer.open["montecarlo.calibrate_critical_value"]:
        tracer.scratch.setdefault("cutoffs", []).extend(np.ravel(args[1]).tolist())


_CUTOFF_HOOK = "hactest.montecarlo.np.searchsorted"


def bisection_steps(cutoffs, c_hi: float) -> int | None:
    """Distinct cutoffs probed strictly inside (0, c_hi) once c_hi was probed.

    After the doubling phase brackets the cutoff at ``c_hi``, every bisection
    step probes one new midpoint; the upper ends it re-probes are old
    midpoints or ``c_hi`` itself.  None when ``c_hi`` was never probed.
    """
    try:
        first = cutoffs.index(c_hi)
    except ValueError:
        return None
    return len({c for c in cutoffs[first:] if 0.0 < c < c_hi})


def _count_bisection(tracer, args, result):
    steps = bisection_steps(tracer.scratch.pop("cutoffs", []), result.c_hi)
    if steps is None:  # the cutoffs no longer show the search; the timing still holds
        if _CUTOFF_HOOK not in tracer.missing:
            tracer.missing.append(_CUTOFF_HOOK)
        return
    tracer.counts["calibrate_calls"] += 1
    tracer.counts["bisection_steps"] += steps


PROXIES = (("hactest.montecarlo", "np.random"),)

HOOKS = (
    # benchmark -> library (public namespace, as the workloads call it)
    Hook("hactest", "calibrate_critical_value", "montecarlo.calibrate_critical_value",
         after=_count_bisection),
    Hook("hactest", "power_curve", "montecarlo.power_curve"),
    Hook("hactest", "diagnose", "diagnostics.diagnose"),
    Hook("hactest", "select_scenario", "testing.select_scenario"),
    Hook("hactest", "build_adjusted", "testing.build_adjusted"),
    # montecarlo -> model, numpy seeding
    Hook("hactest.montecarlo", "_ar1_path", "model.ar1_path", after=_count_rows),
    Hook("hactest.montecarlo:np.random", "SeedSequence", "montecarlo.seed"),
    Hook("hactest.montecarlo:np.random", "default_rng", "montecarlo.seed"),
    Hook("hactest.montecarlo:np", "searchsorted", None, after=_record_cutoff),
    # montecarlo, diagnostics, cli -> testing
    Hook("hactest.testing:TestEngine", "result", "testing.result", after=_count_result),
    Hook("hactest.diagnostics", "_span_geometry", "testing.span_geometry"),
    # testing -> prewhiten
    Hook("hactest.prewhiten:OmegaEngine", "outcome", "prewhiten.outcome"),
    # prewhiten -> bandwidth, kernels
    Hook("hactest.prewhiten", "compute_bandwidth", "bandwidth.compute_bandwidth",
         after=_count_bandwidth),
    Hook("hactest.kernels:BARTLETT", "evaluate", "kernels.evaluate", after=_count_points),
    Hook("hactest.kernels:PARZEN", "evaluate", "kernels.evaluate", after=_count_points),
    Hook("hactest.kernels:QUADRATIC_SPECTRAL", "evaluate", "kernels.evaluate",
         after=_count_points),
    # prewhiten, testing, model -> _linalg
    Hook("hactest.prewhiten", "solve_well_conditioned", "linalg.solve_well_conditioned"),
    Hook("hactest.prewhiten", "symmetrize", "linalg.symmetrize"),
    Hook("hactest.testing", "numeric_rank", "linalg.numeric_rank"),
    Hook("hactest.model", "numeric_rank", "linalg.numeric_rank"),
    Hook("hactest.model", "readonly", "linalg.readonly"),
    # cli -> diagnostics
    Hook("hactest.cli", "run_diagnose", "diagnostics.diagnose"),
)

#: the benchmark's call into the command line
CLI_HOOK = Hook("hactest.cli", "main", "cli.main")

_KERNEL_HOOKS = ("hactest.kernels.BARTLETT.evaluate", "hactest.kernels.PARZEN.evaluate",
                 "hactest.kernels.QUADRATIC_SPECTRAL.evaluate")
_LINALG_HOOKS = ("hactest.prewhiten.solve_well_conditioned", "hactest.prewhiten.symmetrize",
                 "hactest.testing.numeric_rank", "hactest.model.numeric_rank",
                 "hactest.model.readonly")


def _us(seconds: float, ops: int) -> float:
    return seconds * 1e6 / ops


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


# name -> (unit, hooks it needs, value from (spans summary s, counts c, ops n))
LAYER_METRICS = {
    "model.draw_us_per_op": ("us", ("hactest.montecarlo._ar1_path",),
                             lambda s, c, n: _us(s["model.ar1_path"]["total"], n)),
    "model.draws_per_op": ("count", ("hactest.montecarlo._ar1_path",),
                           lambda s, c, n: c["draw_rows"] / n),
    "montecarlo.seed_us_per_op": ("us", ("hactest.montecarlo.np.random.SeedSequence",
                                         "hactest.montecarlo.np.random.default_rng"),
                                  lambda s, c, n: _us(s["montecarlo.seed"]["total"], n)),
    "montecarlo.self_us_per_op": ("us", ("hactest.calibrate_critical_value", "hactest.power_curve"),
                                  lambda s, c, n: _us(s["montecarlo.calibrate_critical_value"]["self"]
                                                      + s["montecarlo.power_curve"]["self"], n)),
    "montecarlo.bisection_steps": ("count", ("hactest.calibrate_critical_value",
                                             "hactest.montecarlo.np.searchsorted"),
                                   lambda s, c, n: _ratio(c["bisection_steps"], c["calibrate_calls"]) or 0.0),
    "prewhiten.self_us_per_op": ("us", ("hactest.prewhiten.OmegaEngine.outcome",),
                                 lambda s, c, n: _us(s["prewhiten.outcome"]["self"], n)),
    "prewhiten.calls_per_op": ("count", ("hactest.prewhiten.OmegaEngine.outcome",),
                               lambda s, c, n: s["prewhiten.outcome"]["count"] / n),
    "prewhiten.lag_products_per_op": ("count", ("hactest.prewhiten.OmegaEngine.outcome",) + _KERNEL_HOOKS,
                                      lambda s, c, n: c["lag_products"] / n),
    "bandwidth.us_per_op": ("us", ("hactest.prewhiten.compute_bandwidth",),
                            lambda s, c, n: _us(s["bandwidth.compute_bandwidth"]["total"], n)),
    "bandwidth.defined_ratio": ("ratio", ("hactest.prewhiten.compute_bandwidth",),
                                lambda s, c, n: _ratio(c["bandwidth_defined"], c["bandwidth_calls"])),
    "testing.defined_ratio": ("ratio", ("hactest.testing.TestEngine.result",),
                              lambda s, c, n: _ratio(c["result_defined"], c["result_calls"])),
    "kernels.us_per_op": ("us", _KERNEL_HOOKS,
                          lambda s, c, n: _us(s["kernels.evaluate"]["total"], n)),
    "kernels.points_per_op": ("count", _KERNEL_HOOKS, lambda s, c, n: c["kernel_points"] / n),
    "testing.self_us_per_op": ("us", ("hactest.testing.TestEngine.result",),
                               lambda s, c, n: _us(s["testing.result"]["self"]
                                                   + s["testing.span_geometry"]["self"], n)),
    "testing.scenario_us_per_op": ("us", ("hactest.select_scenario", "hactest.build_adjusted"),
                                   lambda s, c, n: _us(s["testing.select_scenario"]["outer"]
                                                       + s["testing.build_adjusted"]["outer"], n)),
    "diagnostics.self_us_per_op": ("us", ("hactest.diagnose",),
                                   lambda s, c, n: _us(s["diagnostics.diagnose"]["self"], n)),
    "diagnostics.stats_per_op": ("count", ("hactest.diagnose", "hactest.testing.TestEngine.result"),
                                 lambda s, c, n: c["diagnose_stats"] / n),
    "linalg.us_per_op": ("us", _LINALG_HOOKS,
                         lambda s, c, n: _us(sum(row["outer"] for name, row in s.items()
                                                 if name.startswith("linalg.")), n)),
}

#: measured outside the workload phase of the traced run
CLI_METRIC = "cli.self_ms_per_call"
OVERHEAD_METRIC = "trace.overhead_ratio"


def layer_metrics(summary: dict, counts, ops: int, missing) -> tuple[dict, dict]:
    """Per-layer values, and the absent metrics with the hooks they miss."""
    empty = {"count": 0, "total": 0.0, "self": 0.0, "outer": 0.0}
    s = {name: summary.get(name, empty) for name in (
        "model.ar1_path", "montecarlo.seed", "montecarlo.calibrate_critical_value",
        "montecarlo.power_curve", "prewhiten.outcome", "bandwidth.compute_bandwidth",
        "kernels.evaluate", "testing.result", "testing.span_geometry",
        "testing.select_scenario", "testing.build_adjusted", "diagnostics.diagnose")}
    s.update({name: row for name, row in summary.items() if name.startswith("linalg.")})
    values, absent = {}, {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        lacking = [h for h in needs if h in missing]
        value = None if lacking else fn(s, counts, ops)
        if value is None:
            absent[name] = lacking or ["no attempts"]
        else:
            values[name] = (value, unit)
    return values, absent

