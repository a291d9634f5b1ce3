"""Command-line interface.

Subcommands mirror the library: ``estimate`` (covariance pipeline),
``test`` (the statistic), ``adjust`` (artificial-regressor augmentation),
``diagnose`` (design breakdown verdicts), ``calibrate`` (Monte Carlo
critical values), and ``study`` (size/power curves).

Matrix arguments accept a CSV file path or an inline literal like
``"1,0;0,1"`` (rows separated by semicolons).  Exit codes: 0 on success —
including honestly-undefined estimates — 2 on contract violations (bad
shapes, parameters out of range, unreadable files), and 3 when a requested
procedure is refused (adjustment not applicable, calibration that no
critical value can make honest).

The option decorators hand each command built objects: the problem (and
response), the ``EstimatorConfig`` and the ``McConfig``.  A rule flag sets
that field over the rule's default constants, and the rule class alone
validates every constant.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys

import click
import numpy as np

from .bandwidth import (
    OMEGA_PRESETS,
    RULE_NAMES,
    FixedBRule,
    default_rule,
)
from .diagnostics import diagnose as run_diagnose
from .kernels import get_kernel, kernel_names
from .model import AR1Grid, RegressionProblem, check_finite
from .montecarlo import (
    DEFAULT_RHO_GRID,
    CalibrationNotApplicableError,
    McConfig,
    calibrate_critical_value,
    check_distances,
    power_curve,
)
from .prewhiten import EstimatorConfig, assemble_omega
from .testing import (
    AdjustmentNotApplicableError,
    AugmentationImpossibleError,
    adjusted_statistic,
    build_adjusted,
    test_statistic,
)


def _parse_matrix(spec: str, header: bool = False) -> np.ndarray:
    if os.path.exists(spec):
        return np.loadtxt(spec, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    rows = [row for row in spec.split(";") if row.strip()]
    if not rows:
        raise ValueError(f"empty matrix literal: {spec!r}")
    return np.array([[float(v) for v in row.split(",")] for row in rows], dtype=float)


def _parse_vector(spec: str, header: bool = False) -> np.ndarray:
    return _parse_matrix(spec, header).ravel()


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


#: per rule, the field each flag it reads sets; any other flag is refused
_RULE_FIELDS = {
    "andrews": {"--j": "j", "--c1": "c1", "--c2": "c2", "--omega": "omega"},
    "newey-west": {"--c1": "cbar1", "--c2": "cbar2", "--c3": "cbar3", "--omega": "omega"},
    "fixed-b": {"--b": "b", "--m": "m"},
}


def _build_rule(rule_name, kernel_name, flags):
    """``default_rule(rule_name, kernel_name)`` with the given flags' fields
    set over it; ``flags`` maps each flag to its value, None if not given.
    The rule class validates every constant."""
    reads = _RULE_FIELDS[rule_name]
    given = {flag: v for flag, v in flags.items() if v is not None}
    unread = [flag for flag in given if flag not in reads]
    if unread:
        raise ValueError(f"the {rule_name} rule does not read {', '.join(unread)}")
    if "--b" in given and "--m" in given:
        raise ValueError("pass one of --b and --m, not both")
    fields = {reads[flag]: v for flag, v in given.items()}
    if "omega" in fields and fields["omega"] not in OMEGA_PRESETS:
        fields["omega"] = _parse_floats(fields["omega"])
    if "cbar1" in fields and fields["cbar1"].is_integer():
        fields["cbar1"] = int(fields["cbar1"])
    if "m" in fields:
        fields["b"] = None  # an explicit bandwidth replaces the default fraction
    return dataclasses.replace(default_rule(rule_name, kernel_name), **fields)


def _emit(payload, as_json: bool, out: str | None, human_lines):
    text = json.dumps(payload, indent=2) if as_json else "\n".join(human_lines)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        click.echo(f"wrote {out}")
    else:
        click.echo(text)


def _friendly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (
            AdjustmentNotApplicableError,
            CalibrationNotApplicableError,
            AugmentationImpossibleError,
        ) as exc:
            click.echo(f"refused: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc))

    return wrapper


def _with_options(fn, options):
    for option in options:
        fn = option(fn)
    return fn


def _problem_options(y_mode: str = "required", require_restriction: bool = True):
    """Data and hypothesis flags, handed to the command as ``problem``, plus
    ``y`` (None without an optional --y) unless ``y_mode`` is "none", and
    ``restricted`` (was --R given) when --R is optional."""
    def wrap(fn):
        @functools.wraps(fn)
        def build(x_spec, header, restriction_spec, target_spec, y_spec=None, **rest):
            X = _parse_matrix(x_spec, header)
            if restriction_spec is None:
                R = np.eye(X.shape[1])
            else:
                R = _parse_matrix(restriction_spec, header)
            r = np.zeros(R.shape[0]) if target_spec is None else _parse_vector(target_spec, header)
            problem = RegressionProblem(X, R, r)
            if y_mode != "none":
                rest["y"] = None if y_spec is None else _parse_vector(y_spec, header)
            if not require_restriction:
                rest["restricted"] = restriction_spec is not None
            return fn(problem=problem, **rest)

        options = [
            click.option("--R", "restriction_spec", required=require_restriction,
                         help="restriction matrix (q x k): CSV path or inline literal"),
            click.option("--r", "target_spec", default=None,
                         help="restriction target vector (default: zeros)"),
            click.option("--x", "x_spec", required=True,
                         help="design matrix: CSV path or inline 'a,b;c,d'"),
        ]
        if y_mode != "none":
            options.append(click.option("--y", "y_spec", required=y_mode == "required",
                                        help="response vector: CSV path or inline 'a,b,c'"))
        options.append(click.option("--header", is_flag=True,
                                    help="input CSV files carry a header row"))
        return _with_options(build, options)

    return wrap


def _estimator_options(fn):
    """The estimator flags, handed to the command as ``config``."""
    @functools.wraps(fn)
    def build(kernel, rule, p, omega, b_frac, m_value, c1, c2, c3, j_exp, **rest):
        flags = {"--b": b_frac, "--m": m_value, "--c1": c1, "--c2": c2, "--c3": c3,
                 "--j": j_exp, "--omega": omega}
        config = EstimatorConfig(kernel=get_kernel(kernel),
                                 rule=_build_rule(rule, kernel, flags), p=p)
        return fn(config=config, **rest)

    return _with_options(build, [
        click.option("--kernel", type=click.Choice(list(kernel_names())), default="bartlett",
                     show_default=True, help="smoothing kernel"),
        click.option("--rule", type=click.Choice(list(RULE_NAMES)), default="andrews",
                     show_default=True, help="bandwidth rule"),
        click.option("--p", type=int, default=1, show_default=True,
                     help="VAR prewhitening order"),
        click.option("--omega", default=None,
                     help="score weights of the andrews and newey-west rules: "
                          "'ones' (default), 'zero-first', or comma list"),
        click.option("--b", "b_frac", type=float, default=None,
                     help="fixed-b bandwidth fraction of n - p"),
        click.option("--m", "m_value", type=float, default=None,
                     help="explicit fixed bandwidth value"),
        click.option("--c1", type=float, default=None, help="bandwidth rule constant"),
        click.option("--c2", type=float, default=None, help="bandwidth rule constant"),
        click.option("--c3", type=float, default=None,
                     help="bandwidth rule exponent (newey-west)"),
        click.option("--j", "j_exp", type=int, default=None,
                     help="plug-in derivative order (andrews)"),
    ])


def _output_options(fn):
    fn = click.option("--json", "as_json", is_flag=True, help="emit JSON")(fn)
    fn = click.option("--out", default=None, help="write output to a file")(fn)
    return fn


def _mc_options(fn):
    """Monte Carlo flags, handed to the command as ``mc``."""
    @functools.wraps(fn)
    def build(reps, seed, rho_grid, **rest):
        grid = DEFAULT_RHO_GRID if rho_grid is None else _parse_floats(rho_grid)
        return fn(mc=McConfig(replications=reps, seed=seed, family=AR1Grid(grid)), **rest)

    return _with_options(build, [
        click.option("--reps", type=int, default=1000, show_default=True,
                     help="Monte Carlo replications"),
        click.option("--seed", type=int, default=0, show_default=True,
                     help="base seed (replication idx uses (seed, idx))"),
        click.option("--rho-grid", default=None,
                     help="comma-separated AR(1) grid (default: built-in grid)"),
    ])


@click.group()
def main():
    """Autocorrelation-robust tests of linear restrictions, with prewhitened
    kernel covariance estimation, design diagnostics, and Monte Carlo
    calibration."""


@main.command()
@_friendly
@_problem_options(require_restriction=False)
@_estimator_options
@_output_options
def estimate(problem, y, restricted, config, as_json, out):
    """Run the prewhitened covariance pipeline at one response vector."""
    outcome = assemble_omega(problem, y, config)
    if not outcome.well_defined:
        payload = {"status": outcome.status, "reason": outcome.reason}
        lines = [f"status: {outcome.status}", f"reason: {outcome.reason}"]
        if outcome.bandwidth is not None and outcome.bandwidth.reason is not None:
            payload["bandwidth_reason"] = outcome.bandwidth.reason
            lines.append(f"bandwidth reason: {outcome.bandwidth.reason}")
    else:
        payload = {
            "status": outcome.status,
            "bandwidth": outcome.bandwidth.m,
            "psi": outcome.psi.tolist(),
            "definiteness": outcome.definiteness,
        }
        lines = [
            f"status: {outcome.status}",
            f"bandwidth: {outcome.bandwidth.m:g}",
            f"psi:\n{np.array2string(outcome.psi)}",
            f"definiteness: {outcome.definiteness}",
        ]
        if restricted:
            payload["omega"] = outcome.omega.tolist()
            lines.append(f"omega:\n{np.array2string(outcome.omega)}")
    _emit(payload, as_json, out, lines)


def _result_output(res, critical_value):
    """(payload, lines) of a statistic and, given a finite C, the decision
    ``t >= C``: inclusive, and an undefined statistic compares as its 0.
    An undefined statistic carries a reason: the estimate's undefinedness,
    or the definiteness class (SingularNonneg, Zero) of a well-defined one."""
    payload = {"t": res.t_value, "defined": res.defined, "reject": None, "C": critical_value}
    lines = [f"t: {res.t_value:.10g}", f"defined: {str(res.defined).lower()}"]
    if not res.defined:  # why T = 0: the estimate's undefinedness, else its class
        payload["reason"] = reason = res.omega.reason or res.omega.definiteness
        lines.append(f"reason: {reason}")
    if critical_value is not None:
        check_finite("critical value", critical_value)
        payload["reject"] = reject = bool(res.t_value >= critical_value)
        lines += [f"C: {critical_value:g}", f"reject: {str(reject).lower()}"]
    return payload, lines


@main.command(name="test")
@_friendly
@_problem_options()
@_estimator_options
@click.option("--C", "critical_value", type=float, default=None,
              help="critical value; enables the reject field")
@_output_options
def test_cmd(problem, y, config, critical_value, as_json, out):
    """Evaluate the robust statistic for H0: R beta = r."""
    payload, lines = _result_output(test_statistic(problem, y, config), critical_value)
    _emit(payload, as_json, out, lines)


@main.command()
@_friendly
@_problem_options(y_mode="optional")
@_estimator_options
@click.option("--C", "critical_value", type=float, default=None,
              help="critical value for the adjusted statistic (needs --y)")
@_output_options
def adjust(problem, y, config, critical_value, as_json, out):
    """Augment the design with boundary directions; optionally test with it."""
    if critical_value is not None and y is None:
        raise ValueError("--C needs --y")
    adj = build_adjusted(problem, config)
    rule_obj = adj.config.rule
    omega_bar = None if isinstance(rule_obj, FixedBRule) else list(rule_obj.omega)
    payload = {
        "applicable": True,
        "scenario": adj.scenario,
        "kbar": adj.kbar,
        "x_bar": adj.problem.X.tolist(),
        "r_bar": adj.problem.R.tolist(),
        "omega_bar": omega_bar,
    }
    lines = [
        "applicable: true",
        f"scenario: {adj.scenario}",
        f"kbar: {adj.kbar}",
        f"x_bar:\n{np.array2string(adj.problem.X)}",
        f"r_bar:\n{np.array2string(adj.problem.R)}",
        f"omega_bar: {omega_bar}",
    ]
    if y is not None:
        res_payload, res_lines = _result_output(adjusted_statistic(adj, y), critical_value)
        payload.update(res_payload)
        lines.extend(res_lines)
    _emit(payload, as_json, out, lines)


@main.command(name="diagnose")
@_friendly
@_problem_options(y_mode="none")
@_estimator_options
@click.option("--C", "critical_value", type=float, required=True,
              help="critical value the test would use")
@click.option("--probes", type=int, default=1000, show_default=True,
              help="random probes used to certify the test is nontrivial when "
                   "both boundary evaluations are undefined; a dimension trap "
                   "(n < p(k+1) + q) is decided from the shape, without probes")
@click.option("--seed", type=int, default=0, show_default=True)
@_output_options
def diagnose_cmd(problem, config, critical_value, probes, seed, as_json, out):
    """Classify the breakdown behaviour of a design at a critical value."""
    report = run_diagnose(problem, config, critical_value, probes=probes, seed=seed)

    def grad_str(g):
        return "unknown" if g is None else g

    payload = {
        "verdict": report.verdict,
        "C": report.critical_value,
        "t_plus": {"t": report.t_plus.t_value, "defined": report.t_plus.defined},
        "t_minus": {"t": report.t_minus.t_value, "defined": report.t_minus.defined},
        "gradient_exists_plus": grad_str(report.gradient_exists_plus),
        "gradient_exists_minus": grad_str(report.gradient_exists_minus),
        "evidence": report.evidence,
    }
    lines = [
        f"verdict: {report.verdict}",
        f"t at constant direction: {report.t_plus.t_value:.10g} "
        f"(defined: {str(report.t_plus.defined).lower()})",
        f"t at alternating direction: {report.t_minus.t_value:.10g} "
        f"(defined: {str(report.t_minus.defined).lower()})",
        f"gradient exists (constant): {grad_str(report.gradient_exists_plus)}",
        f"gradient exists (alternating): {grad_str(report.gradient_exists_minus)}",
    ]
    _emit(payload, as_json, out, lines)


def _study_target(problem, config):
    """(target, est_config, scenario): the adjusted problem, which carries its
    own config, when a scenario applies; else the bare problem and config."""
    try:
        adjusted = build_adjusted(problem, config)
    except AdjustmentNotApplicableError:
        return problem, config, None
    return adjusted, None, adjusted.scenario


@main.command()
@_friendly
@_problem_options(y_mode="none")
@_estimator_options
@click.option("--delta", type=float, required=True, help="target size level")
@_mc_options
@_output_options
def calibrate(problem, config, delta, mc, as_json, out):
    """Calibrate a worst-case critical value over an AR(1) family."""
    target, est_config, scenario = _study_target(problem, config)
    result = calibrate_critical_value(target, mc, delta, est_config=est_config)
    payload = {
        "C": result.critical_value,
        "size": result.size,
        "delta": result.delta,
        "scenario": scenario,
        "reps": mc.replications,
        "seed": mc.seed,
        "rates": result.rates,
    }
    lines = [
        f"C: {result.critical_value:.10g}",
        f"size: {result.size:.6g} (target {result.delta:g})",
        f"scenario: {scenario}",
    ]
    _emit(payload, as_json, out, lines)


@main.command()
@_friendly
@_problem_options(y_mode="none")
@_estimator_options
@click.option("--C", "critical_value", type=float, default=None,
              help="critical value (omit to calibrate at --delta first)")
@click.option("--delta", type=float, default=None,
              help="size level to calibrate at first; pass it instead of --C")
@click.option("--distances", default="0,1,2,5", show_default=True,
              help="standardized alternative distances")
@_mc_options
@_output_options
def study(problem, config, critical_value, delta, distances, mc, as_json, out):
    """Size and power curves over the AR(1) family at given distances."""
    distances = check_distances(_parse_floats(distances))
    if (critical_value is None) == (delta is None):
        raise ValueError("pass one of --C and --delta")
    target, est_config, scenario = _study_target(problem, config)
    if critical_value is None:
        critical_value = calibrate_critical_value(
            target, mc, delta, est_config=est_config).critical_value
    curve = power_curve(target, mc, critical_value, distances, est_config=est_config)
    null_rates = [pt.rate for pt in curve.points if pt.distance == 0.0]
    payload = {
        "C": critical_value,
        "scenario": scenario,
        "max_null_rate": max(null_rates) if null_rates else None,
        "points": curve.to_json(),
    }
    _emit(payload, as_json, out, curve.to_csv().splitlines())


if __name__ == "__main__":
    main()
