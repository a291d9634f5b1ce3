import json
import math
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import hactest.cli
from hactest import (
    RULE_NAMES,
    AndrewsRule,
    EstimatorConfig,
    FixedBRule,
    NeweyWestRule,
    RegressionProblem,
    alternating_vector,
    constant_vector,
    default_rule,
    get_kernel,
    kernel_names,
)
from hactest import test_statistic as evaluate
from hactest.cli import main

LOCATION_X = ";".join(["1"] * 8)
LOCATION_Y = "0,1,2,1,1,1,1,1"


@pytest.fixture
def runner():
    return CliRunner()


def write_csv(path, array, header=None):
    array = np.atleast_2d(np.asarray(array, dtype=float))
    if array.shape[0] == 1:
        array = array.T
    lines = [",".join(f"{v:g}" for v in row) for row in array]
    if header:
        lines.insert(0, header)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def design_files(tmp_path, rng):
    """A scenario-1 design on disk: constant plus a generic column."""
    n = 12
    X = np.column_stack([constant_vector(n), rng.standard_normal(n)])
    y = rng.standard_normal(n)
    return {
        "x": write_csv(tmp_path / "x.csv", X),
        "y": write_csv(tmp_path / "y.csv", y),
        "n": n,
    }


@pytest.fixture
def calibratable_files(tmp_path, rng):
    """Both boundary directions inside the span: calibratable unadjusted."""
    n = 12
    X = np.column_stack(
        [constant_vector(n), alternating_vector(n), rng.standard_normal(n)]
    )
    return {"x": write_csv(tmp_path / "x3.csv", X)}


def test_all_subcommands_are_registered():
    assert set(main.commands) == {
        "estimate", "test", "adjust", "diagnose", "calibrate", "study"
    }


class TestEstimate:
    def test_location_model_json(self, runner):
        result = runner.invoke(main, [
            "estimate", "--x", LOCATION_X, "--y", LOCATION_Y,
            "--rule", "fixed-b", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["status"] == "well-defined"
        assert payload["bandwidth"] == 7.0
        assert payload["psi"][0][0] == pytest.approx(1.0 / 7.0)
        assert "omega" not in payload

    def test_restriction_adds_omega(self, runner):
        result = runner.invoke(main, [
            "estimate", "--x", LOCATION_X, "--y", LOCATION_Y,
            "--rule", "fixed-b", "--R", "1", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["omega"][0][0] == pytest.approx(1.0 / 56.0)

    def test_undefined_estimate_exits_zero_with_reason(self, runner):
        result = runner.invoke(main, [
            "estimate", "--x", "1;1;1;1", "--y", "2,2,2,2",
            "--rule", "fixed-b", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["status"] == "undefined"
        assert payload["reason"] == "VarRankDeficient"

    @pytest.mark.parametrize("x, y, definiteness", [
        ("1,0.3;0.2,1;0.5,-1;2,0.1", "0.3,-1,2,0.5", "SingularNonneg"),
        ("-1,2;2,-2;-1,2;2,-2", "-1,1,-2,2", "Zero"),
        (LOCATION_X, LOCATION_Y, "PositiveDefinite"),
    ])
    def test_a_well_defined_estimate_reports_its_definiteness(self, runner, x, y, definiteness):
        # the class used to be left out, so a singular estimate read as usable
        args = ["estimate", f"--x={x}", f"--y={y}", "--rule", "fixed-b", "--b", "0.5"]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["status"] == "well-defined"
        assert payload["definiteness"] == definiteness
        assert f"definiteness: {definiteness}" in runner.invoke(main, args).output.splitlines()

    def test_an_undefined_bandwidth_reports_its_reason(self, runner):
        # the rho-undefined fixture of test_block_engine: the AR(1) plug-in
        # divides by a zero lag sum
        args = ["estimate", "--x", LOCATION_X, "--y", "2,0,0,0,0,0,0,-2", "--rule", "andrews"]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {
            "status": "undefined", "reason": "BandwidthUndefined",
            "bandwidth_reason": "RhoUndefined"}
        assert runner.invoke(main, args).output.splitlines() == [
            "status: undefined", "reason: BandwidthUndefined", "bandwidth reason: RhoUndefined"]

    def test_human_output_mentions_status(self, runner):
        result = runner.invoke(main, [
            "estimate", "--x", LOCATION_X, "--y", LOCATION_Y, "--rule", "fixed-b",
        ])
        assert result.exit_code == 0
        assert "status: well-defined" in result.output
        assert "bandwidth: 7" in result.output

    def test_header_csvs_parse(self, runner, tmp_path, rng):
        n = 10
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        x_path = write_csv(tmp_path / "xh.csv", X, header="u,v")
        y_path = write_csv(tmp_path / "yh.csv", y, header="y")
        result = runner.invoke(main, [
            "estimate", "--x", x_path, "--y", y_path,
            "--rule", "fixed-b", "--header", "--json",
        ])
        assert result.exit_code == 0
        assert json.loads(result.output)["status"] == "well-defined"


class TestTest:
    def test_header_applies_to_every_csv_including_the_target(self, runner, tmp_path, rng):
        n = 10
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        (tmp_path / "Rh.csv").write_text("a,b\n1,0\n")
        (tmp_path / "rh.csv").write_text("r\n0.5\n")
        files = [
            "--x", write_csv(tmp_path / "xh.csv", X, header="u,v"),
            "--y", write_csv(tmp_path / "yh.csv", y, header="y"),
            "--R", str(tmp_path / "Rh.csv"),
        ]
        from_file = runner.invoke(main, [
            "test", *files, "--r", str(tmp_path / "rh.csv"),
            "--header", "--rule", "fixed-b", "--json",
        ])
        assert from_file.exit_code == 0, from_file.output
        inline = runner.invoke(main, [
            "test", *files, "--r", "0.5", "--header", "--rule", "fixed-b", "--json",
        ])
        assert json.loads(from_file.output) == json.loads(inline.output)

    def test_location_model_statistic_and_rejection(self, runner):
        result = runner.invoke(main, [
            "test", "--x", LOCATION_X, "--y", LOCATION_Y,
            "--R", "1", "--rule", "fixed-b", "--C", "10", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["t"] == pytest.approx(56.0, rel=1e-12)
        assert payload["defined"] is True
        assert payload["reject"] is True
        assert payload["C"] == 10.0

    def test_human_lines(self, runner):
        result = runner.invoke(main, [
            "test", "--x", LOCATION_X, "--y", LOCATION_Y,
            "--R", "1", "--rule", "fixed-b", "--C", "100",
        ])
        assert result.exit_code == 0
        assert "t: 56" in result.output
        assert "reject: false" in result.output

    def test_rejection_is_inclusive_at_the_critical_value(self, runner):
        args = ["test", "--x", LOCATION_X, "--y", LOCATION_Y, "--R", "1", "--rule", "fixed-b"]
        t = json.loads(runner.invoke(main, [*args, "--json"]).output)["t"]
        for c, reject in ((t, "true"), (t * (1 + 1e-9), "false")):
            result = runner.invoke(main, [*args, "--C", repr(c)])
            assert result.exit_code == 0, result.output
            assert f"reject: {reject}" in result.output.splitlines()
            payload = json.loads(runner.invoke(main, [*args, "--C", repr(c), "--json"]).output)
            assert payload["C"] == c and payload["reject"] is (reject == "true")

    def test_an_undefined_statistic_compares_against_c_as_zero(self, runner):
        args = ["test", "--x", LOCATION_X, "--y", "2,2,2,2,2,2,2,2", "--R", "1",
                "--rule", "fixed-b", "--json"]
        for c, reject in (("0", True), ("0.5", False)):
            payload = json.loads(runner.invoke(main, [*args, "--C", c]).output)
            assert payload["defined"] is False and payload["t"] == 0.0
            assert payload["reject"] is reject

    @pytest.mark.parametrize("command", ["test", "adjust"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_a_non_finite_critical_value_exits_two(self, runner, design_files, command, bad):
        result = runner.invoke(main, [
            command, "--x", design_files["x"], "--y", design_files["y"], "--R", "0,1",
            "--rule", "fixed-b", f"--C={bad}",
        ])
        assert result.exit_code == 2
        assert "critical value must be finite" in result.output

    SUBNORMAL_M = [
        "test", "--x", "1,0.5;1,-0.3;1,1.2;1,0.1;1,-0.8;1,0.4;1,2.0;1,-1.1",
        "--y", "0.3,-0.2,1.1,0.4,-0.9,0.2,1.5,-0.4", "--R", "0,1",
        "--rule", "fixed-b", "--m", "1e-310",
    ]

    @pytest.mark.parametrize("kernel", ["bartlett", "parzen", "qs"])
    def test_a_subnormal_bandwidth_gives_a_finite_statistic_without_a_warning(self, runner,
                                                                               kernel):
        # every lag ratio i / M past lag zero is huge or overflows to inf,
        # where each kernel weighs 0: the statistic is the one that keeps
        # lag zero only, whatever the kernel
        def reject_constant(token):
            raise ValueError(f"invalid JSON constant {token}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [*self.SUBNORMAL_M, "--kernel", kernel, "--json"])
            text = runner.invoke(main, [*self.SUBNORMAL_M, "--kernel", kernel])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output, parse_constant=reject_constant)
        assert payload["defined"] is True and math.isfinite(payload["t"])
        bartlett = runner.invoke(main, [*self.SUBNORMAL_M, "--kernel", "bartlett", "--json"])
        assert payload["t"] == json.loads(bartlett.output)["t"]
        assert text.exit_code == 0, text.output
        assert "t: nan" not in text.output and "defined: true" in text.output

    def test_wrong_restriction_shape_exits_two(self, runner):
        result = runner.invoke(main, [
            "test", "--x", LOCATION_X, "--y", LOCATION_Y, "--R", "1,0",
        ])
        assert result.exit_code == 2

    def test_malformed_matrix_literal_exits_two(self, runner):
        result = runner.invoke(main, [
            "test", "--x", "1,oops;2,3", "--y", "1,2", "--R", "1,0",
        ])
        assert result.exit_code == 2

    def test_an_empty_matrix_literal_exits_two(self, runner):
        result = runner.invoke(main, ["test", "--x", ";", "--y", "1", "--R", "1"])
        assert result.exit_code == 2
        assert "empty matrix literal: ';'" in result.output

    def test_missing_file_exits_two(self, runner):
        result = runner.invoke(main, [
            "test", "--x", "no-such-file.csv", "--y", "1,2", "--R", "1",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_response_exits_two(self, runner, bad):
        y = ",".join(LOCATION_Y.split(",")[:-1] + [bad])
        result = runner.invoke(main, [
            "test", "--x", LOCATION_X, "--y", y, "--R", "1", "--rule", "fixed-b",
        ])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("e", [-600, 600])
    def test_a_design_whose_normal_equations_under_or_overflow_exits_two(self, runner, e):
        # a finite design scaled by 2^e: the engine refuses it, naming X,
        # where a LinAlgError used to escape
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 2)) * 2.0**e
        y = rng.standard_normal(30)
        result = runner.invoke(main, [
            "test", "--x", ";".join(",".join(map(repr, row)) for row in X.tolist()),
            "--y", ",".join(map(repr, y.tolist())), "--R", "1,0",
        ])
        assert result.exit_code == 2
        assert "X: its normal equations X'X under- or overflow" in result.output

    def test_singular_normal_equations_are_a_typed_outcome(self, runner):
        # finite input whose VAR normal equations are exactly singular
        result = runner.invoke(main, [
            "test", "--x=-1,2;2,-2;-1,2;2,-2", "--y=-1,-2,-1,-1", "--R", "1,0;0,1",
            "--rule", "fixed-b", "--b", "0.5", "--p", "1", "--json",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["defined"] is False
        assert payload["reason"] == "VarRankDeficient"

    @pytest.mark.parametrize("x, y, reason", [
        ("1,0.3;0.2,1;0.5,-1;2,0.1", "0.3,-1,2,0.5", "SingularNonneg"),
        ("-1,2;2,-2;-1,2;2,-2", "-1,1,-2,2", "Zero"),
    ])
    def test_a_well_defined_but_singular_estimate_is_the_reason(self, runner, x, y, reason):
        # T = 0 with a well-defined estimate used to print no reason at all
        args = ["test", f"--x={x}", f"--y={y}", "--R", "1,0;0,1", "--rule", "fixed-b"]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {
            "t": 0.0, "defined": False, "reject": None, "C": None, "reason": reason}
        assert runner.invoke(main, args).output.splitlines() == [
            "t: 0", "defined: false", f"reason: {reason}"]

    @pytest.mark.parametrize("rule, flags", [
        ("fixed-b", ["--b", "1", "--m", "3"]),
        ("andrews", ["--b", "1"]),
        ("andrews", ["--m", "3"]),
        ("newey-west", ["--b", "1"]),
        ("newey-west", ["--m", "3"]),
        ("andrews", ["--c3", "0.9"]),
        ("newey-west", ["--j", "2"]),
        ("fixed-b", ["--c1", "1"]),
        ("fixed-b", ["--c2", "1"]),
        ("fixed-b", ["--c3", "0.9"]),
        ("fixed-b", ["--j", "2"]),
        ("fixed-b", ["--omega", "0.3"]),
    ])
    def test_flags_the_rule_does_not_read_exit_two(self, runner, rule, flags):
        # these used to exit 0 and silently drop the flag
        args = ["test", "--x", LOCATION_X, "--y", LOCATION_Y, "--R", "1", "--rule", rule]
        result = runner.invoke(main, args + flags)
        assert result.exit_code == 2
        assert flags[-2] in result.output

    @pytest.mark.parametrize("rule, flags", [
        ("fixed-b", ["--m", "3"]),
        ("andrews", ["--j", "2", "--c1", "1.1", "--c2", "0.6"]),
        ("newey-west", ["--c1", "4", "--c2", "0.1", "--c3", "0.9"]),
        ("andrews", ["--omega", "0.3"]),
        ("newey-west", ["--omega", "2"]),
    ])
    def test_flags_the_rule_reads_are_accepted(self, runner, rule, flags):
        args = ["test", "--x", LOCATION_X, "--y", LOCATION_Y, "--R", "1", "--rule", rule]
        assert runner.invoke(main, args + flags).exit_code == 0


class TestAdjust:
    def test_scenario_one_payload(self, runner, design_files):
        result = runner.invoke(main, [
            "adjust", "--x", design_files["x"], "--R", "0,1", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["applicable"] is True
        assert payload["scenario"] == 1
        assert payload["kbar"] == 3
        assert len(payload["x_bar"][0]) == 3
        assert payload["r_bar"] == [[0.0, 1.0, 0.0]]
        assert payload["omega_bar"] == [1.0, 1.0, 0.0]

    def test_with_response_appends_statistic(self, runner, design_files):
        result = runner.invoke(main, [
            "adjust", "--x", design_files["x"], "--y", design_files["y"],
            "--R", "0,1", "--rule", "fixed-b", "--C", "1000000", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["scenario"] == 1
        assert payload["defined"] is True
        assert payload["reject"] is False

    def test_with_response_prints_the_scenario_once(self, runner, design_files):
        result = runner.invoke(main, [
            "adjust", "--x", design_files["x"], "--y", design_files["y"],
            "--R", "0,1", "--rule", "fixed-b", "--C", "1000000",
        ])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert [line for line in lines if line.startswith("scenario:")] == ["scenario: 1"]
        assert "reject: false" in lines

    def test_a_zero_adjusted_estimate_is_the_reason(self, runner):
        # scenario 1, n = 5: the adjusted estimate is well-defined and 0
        args = ["adjust", "--x", "1,0;1,1;1,2;1,-1;1,-2", "--R", "0,1", "--y", "1,1,-1,-1,0",
                "--rule", "fixed-b", "--b", "0.5", "--C", "1"]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert (payload["scenario"], payload["defined"], payload["reason"]) == (1, False, "Zero")
        assert payload["reject"] is False
        assert runner.invoke(main, args).output.splitlines()[-3:] == [
            "reason: Zero", "C: 1", "reject: false"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("c", ["2.5", "nan"])
    def test_critical_value_without_response_exits_two(self, runner, design_files, c,
                                                        json_flag):
        # these used to exit 0 and drop C, even a NaN one
        result = runner.invoke(main, [
            "adjust", "--x", design_files["x"], "--R", "0,1", "--rule", "fixed-b",
            f"--C={c}", *json_flag,
        ])
        assert result.exit_code == 2
        assert "--C needs --y" in result.output

    def test_refuses_when_unnecessary(self, runner, calibratable_files):
        result = runner.invoke(main, [
            "adjust", "--x", calibratable_files["x"], "--R", "0,0,1",
        ])
        assert result.exit_code == 3
        assert "refused" in result.output + (result.stderr or "")

    def test_refuses_when_augmentation_impossible(self, runner):
        result = runner.invoke(main, [
            "adjust", "--x", "1,2;3,5;2,7;4,1", "--R", "1,0",
        ])
        assert result.exit_code == 3


class TestDiagnose:
    def test_trivial_breakdown_verdict(self, runner):
        result = runner.invoke(main, [
            "diagnose", "--x", "1,2;3,5;2,7;4,1", "--R", "1,0;0,1",
            "--rule", "fixed-b", "--C", "1.0", "--probes", "40", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "TrivialBreakdown"
        assert payload["evidence"]["dimension_trap"] is True
        assert payload["evidence"]["probes_used"] == 0
        assert payload["gradient_exists_plus"] == "unknown"

    @pytest.mark.parametrize("probes", ["0", "-5"])
    def test_rejects_fewer_than_one_probe(self, runner, probes):
        result = runner.invoke(main, [
            "diagnose", "--x", "1,2;3,5;2,7;4,1", "--R", "1,0;0,1",
            "--rule", "fixed-b", "--C", "1.0", "--probes", probes,
        ])
        assert result.exit_code == 2
        assert "probes must be >= 1" in result.output + (result.stderr or "")

    @pytest.mark.parametrize("x, R", [
        (";".join(f"{i},{(i * 7) % 5}" for i in range(30)), "1,0"),
        ("1,0,2,1;0,1,1,3;2,1,0,1;1,3,1,0;4,1,2,2;1,2,5,1", "1,0,0,0;0,1,0,0;0,0,1,0"),
        ("1,-1,2;1,1,7;1,-1,1;1,1,8;1,-1,2;1,1,8;1,-1,3;1,1,5", "0,0,1"),
    ], ids=["generic-30x2", "all-undefined-6x4", "probing-8x3"])
    def test_rejects_a_negative_seed_on_every_design(self, runner, x, R):
        # the 30 x 2 design is decided at its boundary values and the 6 x 4
        # one by its shape; the 8 x 3 design has e+ and e- among its columns,
        # so it spends probes
        result = runner.invoke(main, [
            "diagnose", "--x", x, "--R", R,
            "--rule", "fixed-b", "--C", "3.0", "--seed", "-1",
        ])
        assert result.exit_code == 2
        assert "seed must be a nonnegative integer" in result.output + (result.stderr or "")

    def test_human_verdict_line(self, runner, design_files):
        result = runner.invoke(main, [
            "diagnose", "--x", design_files["x"], "--R", "1,0",
            "--rule", "fixed-b", "--C", "2.5",
        ])
        assert result.exit_code == 0
        assert "verdict: SizeOneSpanCase" in result.output

    def test_requires_critical_value(self, runner, design_files):
        result = runner.invoke(main, [
            "diagnose", "--x", design_files["x"], "--R", "1,0",
        ])
        assert result.exit_code == 2


class TestCalibrate:
    ARGS = ["--delta", "0.2", "--reps", "150", "--rho-grid", "0,0.6",
            "--rule", "fixed-b"]

    def test_calibrates_unadjusted_in_span_design(self, runner, calibratable_files):
        result = runner.invoke(main, [
            "calibrate", "--x", calibratable_files["x"], "--R", "0,0,1",
            *self.ARGS, "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["C"] > 0.0
        assert payload["size"] <= 0.2
        assert payload["scenario"] is None
        assert set(payload["rates"]) == {"0", "0.6"}

    def test_reruns_are_bit_identical(self, runner, calibratable_files):
        args = ["calibrate", "--x", calibratable_files["x"], "--R", "0,0,1",
                *self.ARGS, "--json"]
        first = json.loads(runner.invoke(main, args).output)
        second = json.loads(runner.invoke(main, args).output)
        assert first["C"] == second["C"]
        assert first["rates"] == second["rates"]

    def test_auto_adjusts_exposed_designs(self, runner, design_files):
        result = runner.invoke(main, [
            "calibrate", "--x", design_files["x"], "--R", "0,1",
            *self.ARGS, "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["scenario"] == 1
        assert payload["size"] <= 0.2

    def test_tolerance_is_not_an_option(self, runner, calibratable_files):
        # calibration stops within delta / 10 of delta
        result = runner.invoke(main, [
            "calibrate", "--x", calibratable_files["x"], "--R", "0,0,1",
            *self.ARGS, "--tol", "0.01",
        ])
        assert result.exit_code == 2
        assert "--tol" in result.output + (result.stderr or "")

    def test_refuses_intercept_hypotheses(self, runner, design_files):
        result = runner.invoke(main, [
            "calibrate", "--x", design_files["x"], "--R", "1,0", *self.ARGS,
        ])
        assert result.exit_code == 3
        assert "refused" in result.output + (result.stderr or "")

    @pytest.mark.parametrize("rule", ["andrews", "newey-west", "fixed-b"])
    def test_refuses_a_statistic_that_is_never_positive(self, runner, rule):
        # adjustment-unnecessary, but n = 6 < p(k+1) + q = 7: T = 0 on every draw
        result = runner.invoke(main, [
            "calibrate", "--x", "1,-1,1,2;1,1,2,7;1,-1,3,1;1,1,5,8;1,-1,8,2;1,1,13,8",
            "--R", "0,0,1,0;0,0,0,1", "--delta", "0.2", "--reps", "200",
            "--rho-grid", "0,0.6", "--rule", rule,
        ])
        assert result.exit_code == 3
        assert "at most a 0 share" in result.output + (result.stderr or "")

    @pytest.mark.parametrize("command", ["calibrate", "study", "adjust"])
    def test_refuses_an_augmented_shape_whose_statistic_is_never_defined(self, runner, command):
        # scenario 3 on 5 x 2 gives kbar = 4, which needs n >= p(kbar+1) + q = 6
        args = [command, "--x", "1,2;3,5;2,7;4,1;5,3", "--R", "1,0"]
        if command != "adjust":
            args += ["--delta", "0.2", "--reps", "200", "--rho-grid", "0,0.6"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert "p(kbar+1) + q = 6" in result.output + (result.stderr or "")


class TestStudy:
    ARGS = ["--C", "3.0", "--reps", "120", "--rho-grid", "0",
            "--distances", "0,2", "--rule", "fixed-b"]

    def test_csv_to_stdout(self, runner, calibratable_files):
        result = runner.invoke(main, [
            "study", "--x", calibratable_files["x"], "--R", "0,0,1", *self.ARGS,
        ])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "rho,distance,rate,ci"
        assert len(lines) == 3
        assert lines[1].startswith("0,0,")
        assert lines[2].startswith("0,2,")

    def test_json_payload(self, runner, calibratable_files):
        result = runner.invoke(main, [
            "study", "--x", calibratable_files["x"], "--R", "0,0,1",
            *self.ARGS, "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["C"] == 3.0
        assert payload["scenario"] is None
        assert len(payload["points"]) == 2
        assert 0.0 <= payload["max_null_rate"] <= 1.0

    def test_out_writes_the_csv_file(self, runner, calibratable_files, tmp_path):
        out = tmp_path / "curve.csv"
        args = ["study", "--x", calibratable_files["x"], "--R", "0,0,1", *self.ARGS]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote {out}\n"
        content = out.read_text().strip().split("\n")
        assert content[0] == "rho,distance,rate,ci"
        assert len(content) == 3
        # the file holds exactly the bytes the command prints without --out
        assert out.read_bytes() == runner.invoke(main, args).output.encode()

    def test_c_and_delta_together_exit_two(self, runner, calibratable_files, monkeypatch):
        # --delta used to be dropped without a word when --C was given
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated although --C was given")

        monkeypatch.setattr(hactest.cli, "calibrate_critical_value", no_calibration)
        result = runner.invoke(main, [
            "study", "--x", calibratable_files["x"], "--R", "0,0,1",
            *self.ARGS, "--delta", "0.05",
        ])
        assert result.exit_code == 2
        assert "--C" in result.output and "--delta" in result.output

    def test_needs_c_or_delta(self, runner, calibratable_files):
        result = runner.invoke(main, [
            "study", "--x", calibratable_files["x"], "--R", "0,0,1",
            "--reps", "120", "--rho-grid", "0",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("distances", ["", "-1", "0,nan"])
    def test_bad_distances_exit_2_before_calibrating(self, runner, calibratable_files,
                                                     monkeypatch, distances):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated before validating --distances")

        monkeypatch.setattr(hactest.cli, "calibrate_critical_value", no_calibration)
        result = runner.invoke(main, [
            "study", "--x", calibratable_files["x"], "--R", "0,0,1",
            "--delta", "0.2", "--reps", "120", "--rho-grid", "0",
            "--distances", distances, "--rule", "fixed-b",
        ])
        assert result.exit_code == 2

    def test_an_alternative_that_overflows_exits_two(self, runner, calibratable_files):
        # R = 1e-3 e3 puts the alternative at beta0 + 1e309 e3, which overflows
        result = runner.invoke(main, [
            "study", "--x", calibratable_files["x"], "--R", "0,0,0.001",
            "--C", "3.0", "--reps", "120", "--rho-grid", "0",
            "--distances", "0,1e306", "--rule", "fixed-b",
        ])
        assert result.exit_code == 2, result.output
        assert "distances: an alternative's shift" in result.output

    def test_delta_calibrates_first(self, runner, calibratable_files):
        result = runner.invoke(main, [
            "study", "--x", calibratable_files["x"], "--R", "0,0,1",
            "--delta", "0.2", "--reps", "120", "--rho-grid", "0",
            "--distances", "0", "--rule", "fixed-b", "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["C"] > 0.0
        assert payload["max_null_rate"] <= 0.2


def literal(array):
    """An inline matrix literal that parses back to ``array`` bit for bit."""
    return ";".join(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(array))


# a regressor and errors with AR(1) coefficient 0.7; the andrews rows use
# the QS kernel, whose weights move with any bandwidth, as the prewhitened
# residuals leave the andrews bandwidth below one lag here
TABLE_RNG = np.random.default_rng(20261020)
TABLE_AR = 0.7 ** np.arange(40)
TABLE_X = np.column_stack([np.ones(40), np.convolve(TABLE_RNG.standard_normal(40), TABLE_AR)[:40]])
TABLE_Y = TABLE_X @ np.array([0.5, 0.2]) + np.convolve(TABLE_RNG.standard_normal(40), TABLE_AR)[:40]
THIRD = 1.0 / 3.0


@pytest.mark.parametrize("kernel, flags, rule", [
    ("bartlett", ["--rule", "andrews"], AndrewsRule(1, 1.1447, THIRD)),
    ("qs", ["--rule", "andrews"], AndrewsRule(2, 1.3221, 0.2)),
    ("qs", ["--rule", "andrews", "--j", "1"], AndrewsRule(1, 1.3221, 0.2)),
    ("qs", ["--rule", "andrews", "--c1", "0.7"], AndrewsRule(2, 0.7, 0.2)),
    ("qs", ["--rule", "andrews", "--c2", "0.45"], AndrewsRule(2, 1.3221, 0.45)),
    ("qs", ["--rule", "andrews", "--omega", "zero-first"],
     AndrewsRule(2, 1.3221, 0.2, "zero-first")),
    ("qs", ["--rule", "andrews", "--omega", "0.5,2"], AndrewsRule(2, 1.3221, 0.2, (0.5, 2.0))),
    ("parzen", ["--rule", "andrews"], AndrewsRule(2, 2.6614, 0.2)),
    ("parzen", ["--rule", "andrews", "--j", "1"], AndrewsRule(1, 2.6614, 0.2)),
    ("parzen", ["--rule", "andrews", "--c1", "1.2", "--c2", "0.3"], AndrewsRule(2, 1.2, 0.3)),
    ("parzen", ["--rule", "andrews", "--j", "1", "--c1", "1.2", "--c2", "0.3"],
     AndrewsRule(1, 1.2, 0.3)),
    ("bartlett", ["--rule", "newey-west"], NeweyWestRule(1, 1.1447, THIRD)),
    ("qs", ["--rule", "newey-west"], NeweyWestRule(2, 1.3221, 0.2)),
    ("bartlett", ["--rule", "newey-west", "--c1", "2"], NeweyWestRule(2, 1.1447, THIRD)),
    ("bartlett", ["--rule", "newey-west", "--c2", "0.8"], NeweyWestRule(1, 0.8, THIRD)),
    ("bartlett", ["--rule", "newey-west", "--c3", "0.25"], NeweyWestRule(1, 1.1447, 0.25)),
    ("bartlett", ["--rule", "newey-west", "--omega", "zero-first"],
     NeweyWestRule(1, 1.1447, THIRD, "zero-first")),
    ("bartlett", ["--rule", "newey-west", "--omega", "2,0.5"],
     NeweyWestRule(1, 1.1447, THIRD, (2.0, 0.5))),
    ("bartlett", ["--rule", "fixed-b"], FixedBRule(b=1.0)),
    ("bartlett", ["--rule", "fixed-b", "--b", "0.5"], FixedBRule(b=0.5)),
    ("bartlett", ["--rule", "fixed-b", "--m", "3"], FixedBRule(m=3.0)),
])
def test_rule_flags_set_the_fields_of_the_library_rule(runner, kernel, flags, rule):
    # --c1 is cbar1 under newey-west and c1 under andrews; every other flag
    # keeps the kernel's default constants
    result = runner.invoke(main, [
        "test", "--x", literal(TABLE_X), "--y", literal(TABLE_Y), "--R", "0,1",
        "--kernel", kernel, *flags, "--json",
    ])
    assert result.exit_code == 0, result.output
    problem = RegressionProblem(TABLE_X, np.array([[0.0, 1.0]]), np.zeros(1))
    config = EstimatorConfig(get_kernel(kernel), rule, p=1)
    expected = evaluate(problem, TABLE_Y, config)
    assert expected.defined
    assert json.loads(result.output)["t"] == expected.t_value
    if len(flags) > 2:
        # the flag moves the statistic, so the row pins which field it sets
        default = EstimatorConfig(get_kernel(kernel), default_rule(flags[1], kernel), p=1)
        assert evaluate(problem, TABLE_Y, default).t_value != expected.t_value


SHIFT_X = "1,0.5;1,-0.3;1,1.2;1,0.1;1,-0.8;1,0.4;1,2.0;1,-1.1;1,0.3;1,0.9"


@pytest.mark.parametrize("rule, flags, message", [
    ("andrews", ["--c1", "inf"], "c1 must be positive and finite"),
    ("andrews", ["--c2", "inf"], "c2 must be positive and finite"),
    ("newey-west", ["--c1", "inf"], "cbar1 must be a positive integer"),
    ("newey-west", ["--c2", "inf"], "cbar2 must be positive and finite"),
    ("newey-west", ["--c3", "inf"], "cbar3 must be positive and finite"),
    ("fixed-b", ["--m", "inf"], "m must be positive and finite"),
    ("andrews", ["--omega", "1,nan"], "omega weights must be finite"),
    ("newey-west", ["--omega", "inf,1"], "omega weights must be finite"),
])
def test_non_finite_rule_constants_exit_two(runner, rule, flags, message):
    # these used to exit 0 (--c3 inf reported bandwidth 0), or 1 with an
    # OverflowError for newey-west --c1 inf
    result = runner.invoke(main, [
        "estimate", "--x", SHIFT_X, "--y", "1,2,3,4,5,6,7,8,9,10", "--R", "0,1",
        "--rule", rule, *flags, "--json",
    ])
    assert result.exit_code == 2
    assert message in result.output


def test_a_bad_weight_is_reported_without_blaming_the_kernel(runner):
    # the weight error used to be reported as a missing kernel default:
    # "no default autoregressive plug-in constants for kernel 'bartlett';
    # pass --j, --c1 and --c2 (omega weights must be nonnegative)"
    result = runner.invoke(main, [
        "test", "--x", SHIFT_X, "--y", "1,2,3,4,5,6,7,8,9,10", "--R", "0,1",
        "--rule", "andrews", "--omega", "-1,1",
    ])
    assert result.exit_code == 2
    assert "Error: omega weights must be nonnegative\n" in result.output
    assert "default" not in result.output


# the 30 x 2 design at a scale where the VAR normal equations underflow
SCALE_RNG = np.random.default_rng(3)
SCALE_X = SCALE_RNG.standard_normal((30, 2))
SCALE_Y = SCALE_RNG.standard_normal(30) * 1e-160


@pytest.mark.parametrize("command, flags", [
    ("test", ["--rule", "fixed-b"]),
    ("estimate", ["--rule", "fixed-b"]),
    ("adjust", ["--rule", "andrews", "--kernel", "qs"]),
    ("test", ["--rule", "andrews", "--kernel", "qs"]),
])
def test_an_underflowing_var_fit_is_a_typed_outcome(runner, command, flags):
    # the first three used to exit 2 with "Error: SVD did not converge"; the
    # last reported BandwidthUndefined (PlugInNotFinite) from the NaN fit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = runner.invoke(main, [
            command, "--x", literal(SCALE_X), "--y", literal(SCALE_Y), "--R", "1,0",
            *flags, "--json",
        ])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["reason"] == "VarRankDeficient"


@pytest.mark.parametrize("rule", RULE_NAMES)
@pytest.mark.parametrize("kernel", kernel_names())
def test_every_rule_and_kernel_runs_without_constants(runner, rule, kernel):
    # andrews-parzen used to exit 2: "no default autoregressive plug-in
    # constants for kernel 'parzen'; pass --j, --c1 and --c2"
    result = runner.invoke(main, [
        "test", "--x", SHIFT_X, "--y", "1,2,3,4,5,6,7,8,9,10", "--R", "0,1",
        "--rule", rule, "--kernel", kernel, "--json",
    ])
    assert result.exit_code == 0, result.output


def test_a_repeated_rho_exits_two(runner):
    # the grid used to simulate all four members and report three rates
    result = runner.invoke(main, [
        "calibrate", "--x", SHIFT_X, "--R", "0,1", "--rule", "fixed-b", "--delta", "0.2",
        "--reps", "100", "--rho-grid", "0.5,0.5,-0.0,0.0", "--json",
    ])
    assert result.exit_code == 2
    assert "rho grid repeats rho = 0.5" in result.output


ESTIMATOR_FLAGS = [
    ("--j", None), ("--c3", None), ("--c2", None), ("--c1", None), ("--m", None),
    ("--b", None), ("--omega", None), ("--p", "1"), ("--rule", "andrews"),
    ("--kernel", "bartlett"),
]
HYPOTHESIS_FLAGS = [("--x", "required"), ("--r", None), ("--R", "required")]
MC_FLAGS = [("--rho-grid", None), ("--seed", "0"), ("--reps", "1000")]
OUTPUT_FLAGS = [("--out", None), ("--json", None), ("--help", None)]
FLAG_INVENTORY = {
    "estimate": [("--header", None), ("--y", "required"), ("--x", "required"), ("--r", None),
                 ("--R", None), *ESTIMATOR_FLAGS, *OUTPUT_FLAGS],
    "test": [("--header", None), ("--y", "required"), *HYPOTHESIS_FLAGS, *ESTIMATOR_FLAGS,
             ("--C", None), *OUTPUT_FLAGS],
    "adjust": [("--header", None), ("--y", None), *HYPOTHESIS_FLAGS, *ESTIMATOR_FLAGS,
               ("--C", None), *OUTPUT_FLAGS],
    "diagnose": [("--header", None), *HYPOTHESIS_FLAGS, *ESTIMATOR_FLAGS, ("--C", "required"),
                 ("--probes", "1000"), ("--seed", "0"), *OUTPUT_FLAGS],
    "calibrate": [("--header", None), *HYPOTHESIS_FLAGS, *ESTIMATOR_FLAGS,
                  ("--delta", "required"), *MC_FLAGS, *OUTPUT_FLAGS],
    "study": [("--header", None), *HYPOTHESIS_FLAGS, *ESTIMATOR_FLAGS, ("--C", None),
              ("--delta", None), ("--distances", "0,1,2,5"), *MC_FLAGS, *OUTPUT_FLAGS],
}


def help_inventory(runner, command):
    """(flag, default) per option of ``command --help``, in listed order; the
    default is the shown one, "required" for a required option, else None."""
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    options = result.output.split("Options:\n", 1)[1]
    inventory = []
    for entry in re.split(r"\n  (?=--)", options):
        entry = " ".join(entry.split())
        shown = re.search(r"\[default: ([^\]]*)\]", entry)
        default = shown.group(1) if shown else "required" if "[required]" in entry else None
        inventory.append((entry.split()[0], default))
    return inventory


@pytest.mark.parametrize("command", sorted(FLAG_INVENTORY))
def test_help_lists_the_pinned_flags_and_defaults(runner, command):
    # guards against a flag or a default being added, dropped or renamed
    assert help_inventory(runner, command) == FLAG_INVENTORY[command]
