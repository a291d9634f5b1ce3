import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import hactest.cli
from hactest import alternating_vector, constant_vector
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
