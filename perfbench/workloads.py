"""The three benchmark workloads: inputs from a seed, one round of work, checks.

A workload builds all of its inputs from the benchmark seed in its
constructor (that is set-up).  A round is its list of ``units``: each unit
is one library call (or one design) that the worker times on its own, with
its op count; ``combine`` turns the units' results into the round's output.
Every round of a run does identical work on identical inputs, so its
outputs must be identical, and per-op counts taken by the tracer do not
depend on how many rounds fit into the run.

The library is always called through the public ``hactest`` namespace at
call time, so the traced run sees the wrappers it installs there.
"""
from __future__ import annotations

import functools
import math

import numpy as np

import hactest

#: seed whose outputs are pinned in reference.json
DEFAULT_SEED = 0

#: the Monte Carlo workloads keep one design and take their Monte Carlo seed
#: from the benchmark seed: a design's bandwidths set how many lags every
#: statistic sums, so a new design per seed would move the cost per op by
#: up to 15% and bury the changes the benchmark is meant to show.
#: calibrate uses the acceptance suite's design.
CAL_DESIGN_SEED = 20260507
STUDY_DESIGN_SEED = 20260508

#: replications as the repo's own traffic runs them: ROADMAP item 1 names
#: 2000 for the calibrate workload; 1000 is the command line's default
CAL_REPS = 2000
CAL_DELTA = 0.05

STUDY_REPS = 1000
STUDY_RHOS = (-0.9, 0.3, 0.99)
STUDY_DISTANCES = (0.0, 1.0, 2.0, 5.0)
STUDY_C = 10.0

DIAG_C = 3.0
DIAG_GENERIC = 184
DIAG_TIE = 12
DIAG_TRAP = 4
#: (rule, kernel) pairs that have default constants
DIAG_CONFIGS = (
    ("andrews", "bartlett"), ("andrews", "qs"),
    ("newey-west", "bartlett"), ("newey-west", "parzen"), ("newey-west", "qs"),
    ("fixed-b", "bartlett"), ("fixed-b", "parzen"), ("fixed-b", "qs"),
)
#: tie designs need a data-driven rule and a kernel without kinks, so that
#: diagnose runs the finite-difference gradient check
TIE_CONFIGS = (("andrews", "qs"), ("newey-west", "parzen"), ("newey-west", "qs"))

VERDICTS = frozenset({
    hactest.SIZE_ONE, hactest.SIZE_ONE_SPAN_CASE, hactest.SIZE_AT_LEAST_HALF,
    hactest.POWER_ZERO, hactest.TRIVIAL_BREAKDOWN, hactest.POSITIVE_UNADJUSTED,
    hactest.INCONCLUSIVE,
})

#: regression pin from the acceptance suite: intercept-only design, rho = 0.999
PIN_N = 20
PIN_RHO = 0.999
PIN_REPS = 10_000
PIN_SEED = 20260606
PIN_RATES = {1.0: 0.9231, 10.0: 0.8106, 100.0: 0.5764}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag)))


def _config(rule: str, kernel: str, p: int) -> hactest.EstimatorConfig:
    return hactest.EstimatorConfig(
        hactest.get_kernel(kernel), hactest.default_rule(rule, kernel), p=p
    )


def _matrix_literal(a: np.ndarray) -> str:
    """Inline CLI matrix literal; repr keeps every float bit."""
    return ";".join(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(a))


def _cli_args(X, R, rule: str, kernel: str, p: int, c: float) -> list:
    """``hactest diagnose --json`` arguments for one design."""
    return ["diagnose", "--x", _matrix_literal(X), "--R", _matrix_literal(R),
            "--rule", rule, "--kernel", kernel, "--p", str(p), "--C", repr(float(c)), "--json"]


def _own_design_cli(problem, config, rule: str, kernel: str, calls: int = 20):
    """The workload's own design through the CLI, with the library's verdict."""
    args = _cli_args(problem.X, problem.R, rule, kernel, config.p, DIAG_C)
    return [(args, hactest.diagnose(problem, config, DIAG_C).verdict)] * calls


class Checks:
    """Counts correctness checks and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    def fail(self, count: int, message: str) -> None:
        for _ in range(count):
            self.check(False, message)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


class Calibrate:
    """calibrate_critical_value at delta = 0.05 on the augmented acceptance design.

    Newey-West rule, Bartlett kernel, p = 1, scenario 3 (kbar = 4), over the
    13-member DEFAULT_RHO_GRID.  An op is one statistic evaluation.
    """

    name = "calibrate"

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        X = np.random.default_rng(CAL_DESIGN_SEED).standard_normal((40, 2))
        self.problem = hactest.RegressionProblem(X, [[1.0, 0.0]], [0.0])
        self.config = _config("newey-west", "bartlett", 1)
        self.adjusted = hactest.build_adjusted(self.problem, self.config)
        self.mc = hactest.McConfig(
            replications=CAL_REPS, seed=int(rng.integers(2**31)),
            family=hactest.AR1Grid(hactest.DEFAULT_RHO_GRID),
        )
        hactest.adjusted_statistic(self.adjusted, rng.standard_normal(40))
        self.units = [(self._calibrate, CAL_REPS * len(hactest.DEFAULT_RHO_GRID))]

    def _calibrate(self):
        cal = hactest.calibrate_critical_value(self.adjusted, self.mc, CAL_DELTA)
        return {"critical_value": cal.critical_value, "size": cal.size,
                "rates": [cal.rates[f"{rho:g}"] for rho in hactest.DEFAULT_RHO_GRID]}

    def combine(self, results):
        return results[0]

    def failed_output_checks(self) -> int:
        return len(hactest.DEFAULT_RHO_GRID) + 1

    def check_invariants(self, out, checks: Checks) -> None:
        for rho, rate in zip(hactest.DEFAULT_RHO_GRID, out["rates"]):
            checks.check(0.0 <= rate <= 1.0, f"calibrate: rate {rate} at rho={rho:g} outside [0, 1]")
        c = out["critical_value"]
        checks.check(math.isfinite(c) and c >= 0.0 and out["size"] <= CAL_DELTA,
                     f"calibrate: C={c} with size {out['size']} above delta={CAL_DELTA}")

    def check_reference(self, out, ref, checks: Checks) -> None:
        for rho, rate, want in zip(hactest.DEFAULT_RHO_GRID, out["rates"], ref["rates"]):
            checks.check(round(rate * CAL_REPS) == round(want * CAL_REPS),
                         f"calibrate: rate {rate} at rho={rho:g}, reference {want}")
        c, want = out["critical_value"], ref["critical_value"]
        checks.check(abs(c - want) <= 1e-9 * max(1.0, abs(want)),
                     f"calibrate: C={c!r}, reference {want!r}")

    def cli_calls(self, first_out):
        return _own_design_cli(self.problem, self.config, "newey-west", "bartlett")


class Study:
    """power_curve at C = 10 over 4 distances x 3 AR(1) members, 100 x 2 design.

    Andrews rule, quadratic-spectral kernel, p = 2, augmented.  An op is one
    statistic evaluation.  A round is one power_curve call per member (all
    with the same Monte Carlo seed, so the points equal those of a single
    call over the grid): each call is a separately timed unit, short enough
    for its normalized time to be steady on a shared host.
    """

    name = "study"

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        X = np.random.default_rng(STUDY_DESIGN_SEED).standard_normal((100, 2))
        self.problem = hactest.RegressionProblem(X, [[1.0, 0.0]], [0.0])
        self.config = _config("andrews", "qs", 2)
        self.adjusted = hactest.build_adjusted(self.problem, self.config)
        mc_seed = int(rng.integers(2**31))
        hactest.adjusted_statistic(self.adjusted, rng.standard_normal(100))
        self.units = [
            (functools.partial(self._member, hactest.McConfig(
                replications=STUDY_REPS, seed=mc_seed, family=hactest.AR1Grid((rho,)))),
             STUDY_REPS * len(STUDY_DISTANCES))
            for rho in STUDY_RHOS
        ]

    def _member(self, mc):
        curve = hactest.power_curve(self.adjusted, mc, STUDY_C, STUDY_DISTANCES)
        return [[p.label, p.distance, p.rate] for p in curve.points]

    def combine(self, results):
        return {"points": [point for member in results for point in member]}

    def failed_output_checks(self) -> int:
        return len(STUDY_RHOS) * len(STUDY_DISTANCES)

    def check_invariants(self, out, checks: Checks) -> None:
        for label, d, rate in out["points"]:
            checks.check(0.0 <= rate <= 1.0, f"study: rate {rate} at rho={label}, d={d} outside [0, 1]")

    def check_reference(self, out, ref, checks: Checks) -> None:
        got, want = out["points"], ref["points"]
        if len(got) != len(want):
            checks.fail(len(want), f"study: {len(got)} curve points, reference has {len(want)}")
            return
        for (label, d, rate), (wl, wd, wr) in zip(got, want):
            checks.check(label == wl and d == wd and round(rate * STUDY_REPS) == round(wr * STUDY_REPS),
                         f"study: point ({label}, {d}, {rate}), reference ({wl}, {wd}, {wr})")

    def cli_calls(self, first_out):
        return _own_design_cli(self.problem, self.config, "andrews", "qs")


class Diagnose:
    """A fixed mix of designs through diagnose, then build_adjusted when it applies.

    184 generic 30 x 2 designs at C = 3 cycling over the 8 default
    rule x kernel configs and p in {1, 2}; 12 tie designs whose C is the
    statistic at e+ (so the finite-difference gradient check runs); 4
    dimension-trap designs (n = 4, q = k = 2) that exhaust the 1000-probe
    loop.  An op is one design.
    """

    name = "diagnose"

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        designs = []
        for i in range(DIAG_GENERIC):
            rule, kernel = DIAG_CONFIGS[i % len(DIAG_CONFIGS)]
            p = 1 + (i // len(DIAG_CONFIGS)) % 2
            designs.append(("generic", rng.standard_normal((30, 2)), np.array([[1.0, 0.0]]),
                            (rule, kernel, p), DIAG_C))
        for i in range(DIAG_TIE):
            rule, kernel = TIE_CONFIGS[i % len(TIE_CONFIGS)]
            config = _config(rule, kernel, 1)
            while True:
                X = rng.standard_normal((30, 2))
                problem = hactest.RegressionProblem(X, [[1.0, 0.0]], [0.0])
                t_plus = hactest.test_statistic(problem, np.ones(30), config)
                if t_plus.defined and t_plus.t_value > 0.0:
                    break
            designs.append(("tie", X, np.array([[1.0, 0.0]]), (rule, kernel, 1), t_plus.t_value))
        for i in range(DIAG_TRAP):
            rule, kernel = DIAG_CONFIGS[(3 * i) % len(DIAG_CONFIGS)]
            designs.append(("trap", rng.standard_normal((4, 2)), np.eye(2), (rule, kernel, 1), DIAG_C))
        order = rng.permutation(len(designs))
        self.designs = [designs[i] for i in order]
        self.configs = {spec: _config(*spec) for spec in {d[3] for d in self.designs}}
        self.units = [(functools.partial(self._one, X, R, self.configs[spec], c), 1)
                      for _, X, R, spec, c in self.designs]
        kind, X, R, spec, _ = self.designs[0]
        hactest.test_statistic(hactest.RegressionProblem(X, R, np.zeros(R.shape[0])),
                               rng.standard_normal(X.shape[0]), self.configs[spec])

    def _one(self, X, R, config, c):
        try:
            return list(self._diagnose(X, R, config, c))
        except Exception as exc:  # a failing design is a failed check, not a crash
            return ["error", f"{type(exc).__name__}: {exc}"]

    def _diagnose(self, X, R, config, c):
        problem = hactest.RegressionProblem(X, R, np.zeros(R.shape[0]))
        verdict = hactest.diagnose(problem, config, c).verdict
        try:
            selection = hactest.select_scenario(problem)
        except hactest.AugmentationImpossibleError:
            return verdict, "augmentation-impossible"
        if not selection.applicable:
            return verdict, selection.reason
        return verdict, hactest.build_adjusted(problem, config).scenario

    def combine(self, results):
        return {"designs": results}

    def failed_output_checks(self) -> int:
        return 2 * len(self.designs)

    def check_invariants(self, out, checks: Checks) -> None:
        for i, (verdict, scenario) in enumerate(out["designs"]):
            checks.check(verdict in VERDICTS, f"diagnose: design {i} verdict {verdict!r}")
            checks.check(scenario in (1, 2, 3, 4, "augmentation-impossible",
                                      hactest.REASON_ADJUSTMENT_UNNECESSARY,
                                      hactest.REASON_HYPOTHESIS_INVOLVES_INTERCEPT),
                         f"diagnose: design {i} scenario {scenario!r}")

    def check_reference(self, out, ref, checks: Checks) -> None:
        got, want = out["designs"], ref["designs"]
        if len(got) != len(want):
            checks.fail(2 * len(want), f"diagnose: {len(got)} designs, reference has {len(want)}")
            return
        for i, ((v, s), (wv, ws)) in enumerate(zip(got, want)):
            checks.check(v == wv, f"diagnose: design {i} verdict {v!r}, reference {wv!r}")
            checks.check(s == ws, f"diagnose: design {i} scenario {s!r}, reference {ws!r}")

    def cli_calls(self, first_out):
        """Every design of the mix; the library verdicts of the first round are expected."""
        calls = [_cli_args(X, R, *spec, c) for _, X, R, spec, c in self.designs]
        return list(zip(calls, [v for v, _ in first_out["designs"]]))


WORKLOADS = {cls.name: cls for cls in (Calibrate, Study, Diagnose)}


def check_outputs(workload, seed: int, outputs: list, reference: dict | None, checks: Checks) -> None:
    """Reference values at the default seed, invariants elsewhere, and repeatability.

    ``outputs`` holds one entry per round (None for a round that raised).
    Every round must reproduce the first one exactly.
    """
    first = None
    for out in outputs:
        if out is None:
            checks.fail(workload.failed_output_checks(), f"{workload.name}: round raised")
            continue
        if seed == DEFAULT_SEED and reference is not None:
            workload.check_reference(out, reference[workload.name], checks)
        else:
            workload.check_invariants(out, checks)
        if first is None:
            first = out
        else:
            checks.check(out == first, f"{workload.name}: a round did not reproduce the first round")


def regression_pin(checks: Checks) -> dict:
    """Intercept-only design at rho = 0.999: rates 0.9231 / 0.8106 / 0.5764 at C = 1 / 10 / 100."""
    e_plus = hactest.constant_vector(PIN_N) / math.sqrt(PIN_N)
    problem = hactest.RegressionProblem(e_plus.reshape(-1, 1), [[1.0]], [0.0])
    config = _config("newey-west", "bartlett", 1)
    stats = hactest.simulate_statistics(
        problem, cov=PIN_RHO, beta=np.zeros(1), reps=PIN_REPS, seed=PIN_SEED, est_config=config,
    )
    rates = {}
    for c, want in PIN_RATES.items():
        rate = float(np.mean(stats >= c))
        rates[f"{c:g}"] = rate
        checks.check(round(rate, 4) == want, f"regression pin: rate {rate:.4f} at C={c:g}, pinned {want}")
    return rates
