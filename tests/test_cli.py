import json

import numpy as np
import pytest

from densgeo.cli import main
from densgeo.exprparse import evaluate_on_grid, parse_expression
from densgeo.errors import ValidationError
from densgeo.grid import PeriodicGrid


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExpressionGrammar:
    def test_arithmetic(self):
        fn = parse_expression("1 + 2*3 - 4/2")
        assert fn({}) == pytest.approx(5.0)

    def test_precedence_and_parens(self):
        fn = parse_expression("(1 + 2)*3")
        assert fn({}) == pytest.approx(9.0)

    def test_unary_minus(self):
        fn = parse_expression("-2*-3")
        assert fn({}) == pytest.approx(6.0)

    def test_functions_and_pi(self):
        grid = PeriodicGrid(64)
        values = evaluate_on_grid("1 + 0.5*sin(2*pi*x)", grid)
        x = grid.coordinate(0)
        assert np.allclose(values, 1 + 0.5 * np.sin(2 * np.pi * x))

    def test_exp(self):
        grid = PeriodicGrid(64)
        values = evaluate_on_grid("exp(cos(2*pi*x))", grid)
        assert np.allclose(values, np.exp(np.cos(2 * np.pi * grid.coordinate(0))))

    def test_rejects_unknown_names(self):
        with pytest.raises(ValidationError):
            parse_expression("__import__(1)")

    def test_rejects_y_in_1d(self):
        with pytest.raises(ValidationError):
            evaluate_on_grid("sin(2*pi*y)", PeriodicGrid(64))

    def test_2d_expression(self):
        grid = PeriodicGrid((16, 16))
        values = evaluate_on_grid("sin(2*pi*x)*cos(2*pi*y)", grid)
        x, y = grid.coordinate(0), grid.coordinate(1)
        assert np.allclose(values, np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))


class TestSubcommands:
    def test_hs_reports_kappa_and_blowup(self, capsys):
        code, out = run_cli(
            capsys, "hs", "--div-u0", "sin(2*pi*x)", "--grid", "256", "--samples", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["kappa"] == pytest.approx(0.3535534, abs=1e-6)
        expected_tmax = 2 * np.sqrt(2) * (np.pi / 2 - np.arctan(np.sqrt(2)))
        assert doc["results"]["t_max"] == pytest.approx(expected_tmax, abs=1e-10)
        assert doc["diagnostics"]["energy_drift"] <= 1e-10

    def test_dist_wavy(self, capsys):
        code, out = run_cli(
            capsys, "dist", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["spherical"] == pytest.approx(0.18277746193028777, abs=1e-10)
        assert doc["results"]["bhattacharyya"] == pytest.approx(0.9833426507751652, abs=1e-10)

    def test_simplex_demo_at_zero(self, capsys):
        code, out = run_cli(capsys, "simplex-demo", "--t", "0")
        assert code == 0
        doc = json.loads(out)
        row = doc["results"]["series"][0]
        for key in ("p_a", "p_b", "p_c"):
            assert row[key] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_heat_demo_mass(self, capsys):
        code, out = run_cli(
            capsys, "heat-demo", "--rho0", "1+0.3*cos(2*pi*x)", "--grid", "64",
            "--t-final", "0.02",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["mass_drift"] <= 1e-12

    def test_moser_lift_errors_small(self, capsys):
        code, out = run_cli(
            capsys, "moser-lift", "--div-u0", "sin(2*pi*x)", "--grid", "128",
            "--samples", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["max_jacobian_error"] <= 1e-10

    def test_invariants_drift(self, capsys):
        code, out = run_cli(
            capsys, "invariants", "--div-u0", "sin(2*pi*x)", "--grid", "128",
            "--samples", "10", "--truncation", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["angular_momentum_drift"] <= 1e-8
        assert doc["results"]["nested_chain_drift"] <= 1e-8
        assert doc["results"]["projected_chain_drift"] <= 1e-8

    def test_alpha_run(self, capsys):
        code, out = run_cli(
            capsys, "alpha", "--alpha", "0", "--u0",
            "(1-cos(2*pi*x))/(2*pi)", "--grid", "128", "--t-final", "0.1",
            "--dt", "0.001",
        )
        assert code == 0
        doc = json.loads(out)
        drift = abs(
            doc["results"]["h1dot_energy_final"]
            - doc["results"]["h1dot_energy_initial"]
        )
        assert drift <= 1e-8
        assert abs(doc["diagnostics"]["duality_residual"]) <= 1e-10


class TestRoundTrip:
    def test_geodesic_arc_partition(self, capsys, tmp_path):
        samples = 5
        code, out = run_cli(
            capsys, "geodesic", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)",
            "--grid", "128", "--samples", str(samples),
        )
        assert code == 0
        doc = json.loads(out)
        total = doc["diagnostics"]["endpoint_distance"]
        files = []
        for i, sample in enumerate(doc["results"]["samples"]):
            path = tmp_path / f"sample{i}.json"
            path.write_text(json.dumps({"values": sample["values"]}))
            files.append(path)
        for i, path in enumerate(files):
            code, out = run_cli(
                capsys, "dist", "--a", str(files[0]), "--b", str(path),
                "--grid", "128",
            )
            assert code == 0
            partial = json.loads(out)["results"]["spherical"]
            expected = total * i / (samples - 1)
            assert partial == pytest.approx(expected, abs=1e-8)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        _, first = run_cli(
            capsys, "alpha", "--alpha", "0.5", "--u0", "(1-cos(2*pi*x))/(2*pi)",
            "--grid", "64", "--t-final", "0.05", "--dt", "0.001", "--seed", "11",
        )
        _, second = run_cli(
            capsys, "alpha", "--alpha", "0.5", "--u0", "(1-cos(2*pi*x))/(2*pi)",
            "--grid", "64", "--t-final", "0.05", "--dt", "0.001", "--seed", "11",
        )
        assert first == second


class TestErrorHandling:
    def test_validation_error_exits_2(self, capsys):
        code, out = run_cli(capsys, "dist", "--a", "junk(", "--b", "uniform")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["exit_code"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "7"),
            ("dist", "--a", "uniform", "--b", "uniform", "--length", "0"),
            ("invariants", "--div-u0", "sin(2*pi*x)", "--grid", "64",
             "--truncation", "500"),
            ("dist", "--a", "uniform", "--b", "1/(x-x)"),
            ("hs", "--div-u0", "0"),
            ("hs", "--div-u0", "sin(2*pi*x)", "--samples", "0"),
            ("hs", "--div-u0", "sin(2*pi*x)", "--frac-of-tmax", "0"),
            ("heat-demo", "--rho0", "1+0.3*cos(2*pi*x)", "--t-final", "-1"),
            ("simplex-demo", "--t-range", "0,1"),
            ("simplex-demo", "--t", "nan"),
            ("dist", "--a", "uniform", "--b", "@no-such-file.json"),
            ("dist", "--a", "uniform", "--b", "uniform", "--length", "abc"),
            ("invariants", "--div-u0", "sin(2*pi*x)", "--grid", "64",
             "--truncation", "1"),
            ("invariants", "--div-u0", "sin(2*pi*x)", "--grid", "64",
             "--truncation", "-3"),
            ("invariants", "--div-u0", "sin(2*pi*x)", "--grid", "64",
             "--truncation", "0"),
            ("alpha", "--alpha", "nan", "--u0", "sin(2*pi*x)", "--grid", "64"),
        ],
    )
    def test_invalid_input_exits_2_with_error_object(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2

        def reject(token):
            raise ValueError(f"bare {token} is not JSON")

        error = json.loads(out, parse_constant=reject)["error"]
        assert error["exit_code"] == 2
        assert error["type"] and error["message"]

    def test_numerical_error_exits_1(self, capsys):
        # a Courant number far past the monitor threshold
        code, out = run_cli(
            capsys, "alpha", "--alpha", "0", "--u0", "sin(2*pi*x)",
            "--grid", "256", "--t-final", "1.0", "--dt", "0.5",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "StepTooLarge"

    def test_blowup_request_exits_1(self, capsys):
        code, out = run_cli(
            capsys, "hs", "--div-u0", "sin(2*pi*x)", "--grid", "64",
            "--t-final", "5.0",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "BeyondBlowup"

    def test_csv_output(self, capsys):
        code, out = run_cli(
            capsys, "simplex-demo", "--t-range", "0,1,3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 4
