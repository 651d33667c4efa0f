import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import densgeo
from densgeo import circle, cli, hsflow
from densgeo.cli import dumps, main
from densgeo.exprparse import evaluate_on_grid, parse_expression
from densgeo.errors import NonFiniteResult, ValidationError
from densgeo.grid import PeriodicGrid, ScalarField
from densgeo.spheregeo import h1dot_inner


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(out):
    """An output that must parse as strict JSON."""

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(out, parse_constant=reject)


def strict_error(out):
    """The error object of an output that must parse as strict JSON."""
    return strict_json(out)["error"]


def child_env(**extra):
    """Environment of a child interpreter that imports this densgeo."""
    return dict(os.environ, PYTHONPATH=str(Path(densgeo.__file__).parents[1]), **extra)


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

    @pytest.mark.parametrize(
        "text, value",
        [("1e-3", 1e-3), ("2.5E+2", 250.0), (".5e1", 5.0), ("3.e0", 3.0), ("1+1e-3*2", 1.002)],
    )
    def test_numbers_with_exponent(self, text, value):
        assert parse_expression(text)({}) == pytest.approx(value, rel=1e-15)

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

    @pytest.mark.parametrize(
        "text",
        [
            "1+0*" + "(" * 200 + "1" + ")" * 200,
            "1+0*" + "-" * 1500 + "1",
            "+".join(["1"] * 3000),
        ],
        ids=["200-parentheses", "1500-unary-minus", "3000-terms"],
    )
    def test_deep_expression_exits_2(self, capsys, text):
        code, out = run_cli(capsys, "dist", "--a", "uniform", "--b", text, "--grid", "16")
        assert code == 2
        assert strict_error(out)["type"] == "ValidationError"

    def test_nesting_and_length_bounds(self):
        from densgeo.exprparse import MAX_DEPTH, MAX_LENGTH

        assert parse_expression("(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH)({}) == 2.0
        assert parse_expression("sin(" * MAX_DEPTH + "0" + ")" * MAX_DEPTH)({}) == 0.0
        with pytest.raises(ValidationError):
            parse_expression("sin(" * (MAX_DEPTH + 1) + "0" + ")" * (MAX_DEPTH + 1))
        # unary signs and operator runs do not nest
        assert parse_expression("-" * (MAX_LENGTH - 2) + "2")({}) == 2.0
        long_sum = "+".join(["1"] * (MAX_LENGTH // 2))
        assert parse_expression(long_sum)({}) == MAX_LENGTH // 2
        with pytest.raises(ValidationError):
            parse_expression(long_sum + "+1")

    @settings(max_examples=300)
    @given(
        st.lists(
            st.sampled_from(
                ["0", "1", "2.5", ".5", "3.", "1e-3", "e", "E", "x", "y", "pi", "sin",
                 "cos", "exp", "+", "-", "*", "/", "(", ")", " ", "."]
            ),
            max_size=60,
        ).map("".join)
        | st.text(alphabet="0123456789.eExypisncoxp+-*/() ", max_size=60)
    )
    def test_fuzz_parses_or_rejects(self, text):
        """Every string over the grammar's alphabet either evaluates or
        raises ValidationError."""
        grid = PeriodicGrid((8, 8))
        try:
            values = evaluate_on_grid(text, grid)
        except ValidationError:
            return
        assert values.shape == grid.shape

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

    @pytest.mark.parametrize("expr", ["1000*(1-cos(2*pi*x))-1e-10", "1e-5*(1-cos(2*pi*x))-1e-12"])
    def test_dist_and_geodesic_accept_the_same_densities(self, capsys, expr):
        # the first carries roundoff negatives that Density admits; the
        # second's negatives carry 1.6e-9 of its mass, which it does not
        codes = []
        for command in ("dist", "geodesic"):
            code, out = run_cli(capsys, command, "--a", expr, "--b", expr, "--grid", "64")
            codes.append(code)
            if code:
                assert strict_error(out)["type"] == "NegativeDensity"
            elif command == "geodesic":
                doc = strict_json(out)
                assert doc["results"]["length"] == doc["diagnostics"]["endpoint_distance"]
        assert codes == ([0, 0] if expr.startswith("1000") else [2, 2])

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

    def test_moser_lift_of_a_roundoff_divergence_is_the_identity(self, capsys):
        # κ < KAPPA_EPS: the stationary solution, so every Jacobian is 1 exactly
        code, out = run_cli(capsys, "moser-lift", "--div-u0", "1e-14*sin(2*pi*x)")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["series"] == [
            {"t": t, "jacobian_error": 0.0, "jacobian_mass": 1.0}
            for t in np.linspace(0.0, 1.0, 4).tolist()
        ]
        assert doc["diagnostics"] == {"max_jacobian_error": 0.0, "max_mass_drift": 0.0}

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

    def test_alpha_energies_are_four_h1dot_inner(self, capsys):
        # h1dot_energy_* is ∫ uₓ² dx = fisher_rao_inner(u, u) = 4 h1dot_inner(u, u), bit
        # for bit, of the re-based u0 and of the printed u_final
        expr = "sin(2*pi*x) + 0.3*cos(4*pi*x) + 0.2"
        code, out = run_cli(capsys, "alpha", "--alpha", "0.5", "--u0", expr,
                            "--grid", "64", "--t-final", "0.1")
        assert code == 0
        doc = json.loads(out)
        grid = PeriodicGrid(64)
        values = evaluate_on_grid(expr, grid)
        for u, key in ((values - values[0], "h1dot_energy_initial"),
                       (np.array(doc["results"]["u_final"]), "h1dot_energy_final")):
            assert doc["results"][key] == 4 * h1dot_inner(grid, u[None], u[None])


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

    def test_hs_bytes_do_not_depend_on_the_blas_thread_count(self):
        # the README hs example's equation_residual evaluates trig_eval, whose
        # sums call no BLAS: OpenBLAS's serial and threaded kernels round them
        # differently, in the printed residual's third digit
        argv = ["hs", "--div-u0", "sin(2*pi*x)", "--grid", "256", "--frac-of-tmax", "0.8"]
        outs = {subprocess.run([sys.executable, "-m", "densgeo.cli", *argv],
                               env=child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True,
                               timeout=60, check=True).stdout
                for threads in ("1", "2")}
        assert len(outs) == 1


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
            ("dist", "--a", "uniform", "--b", "1", "--grid", "64", "--mass", "0"),
            ("dist", "--a", "0*x", "--b", "0*x", "--grid", "64"),
            ("heat-demo", "--rho0", "0*x", "--grid", "64"),
            ("dist", "--a", "uniform", "--b", "1/0", "--grid", "64"),
        ],
    )
    def test_invalid_input_exits_2_with_error_object(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        error = strict_error(out)
        assert error["exit_code"] == 2
        assert error["type"] and error["message"]

    def test_unwritable_out_exits_2_with_error_object(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "o.json"
        code, out = run_cli(
            capsys, "dist", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)",
            "--grid", "64", "--out", str(target),
        )
        assert code == 2
        assert strict_error(out)["type"] == "ValidationError"
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "abc"),
            ("hs", "--grid", "64"),
            ("no-such-command", "--grid", "64"),
        ],
        ids=["bad-int", "missing-required", "unknown-subcommand"],
    )
    def test_parser_rejection_exits_2_with_error_object(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        error = strict_error(out)
        assert error["type"] == "ValidationError"
        assert error["exit_code"] == 2 and error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "4294967296"),
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "1024", "--dim", "2"),
            ("hs", "--div-u0", "sin(2*pi*x)", "--samples", "1000000000"),
            ("simplex-demo", "--t-range", "0,1,1000000000"),
            ("invariants", "--div-u0", "sin(2*pi*x)", "--truncation", "1000000000"),
        ],
        ids=["grid-axis", "grid-nodes", "samples", "t-range-count", "truncation"],
    )
    def test_size_bounds_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert strict_error(out)["type"] == "ValidationError"

    def test_unforeseen_exception_exits_1_with_error_object(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_dist", broken)
        code, out = run_cli(capsys, "dist", "--a", "uniform", "--b", "uniform", "--grid", "16")
        assert code == 1
        error = strict_error(out)
        assert error == {"type": "InternalError", "message": "RuntimeError: boom",
                         "exit_code": 1}

    @pytest.mark.parametrize("argv", [("--help",), ("dist", "--help")])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_non_finite_result_exits_1_with_error_object(self, capsys):
        # the velocity overflows to NaN; it used to print bare NaN tokens
        code, out = run_cli(
            capsys, "alpha", "--alpha", "1e308", "--u0", "sin(2*pi*x)/(2*pi)",
            "--t-final", "0.001", "--grid", "64",
        )
        assert code == 1
        error = strict_error(out)
        assert error["exit_code"] == 1
        assert error["type"] and error["message"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_not_serialized(self, value):
        with pytest.raises(NonFiniteResult):
            dumps({"results": {"series": [1.0, value]}})

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
        for argv in (
            ("hs", "--div-u0", "sin(2*pi*x)", "--grid", "64", "--t-final", "5.0"),
            ("moser-lift", "--div-u0", "sin(2*pi*x)", "--grid", "16", "--t-final", "100"),
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 1
            doc = json.loads(out)
            assert doc["error"]["type"] == "BeyondBlowup"

    # degree-3 data with its minimum off the nodes of every grid below
    OFF_NODE_2D = "sin(2*pi*x+0.3)+sin(6*pi*y+0.2)+0.9*cos(2*pi*(2*x+y)+0.4)"

    @pytest.mark.parametrize("grid", ["16", "24", "32", "64"])
    def test_hs_blowup_time_does_not_depend_on_the_grid(self, capsys, grid):
        code, out = run_cli(capsys, "hs", "--div-u0", self.OFF_NODE_2D, "--dim", "2",
                            "--grid", grid, "--samples", "2")
        assert code == 0
        assert json.loads(out)["results"]["t_max"] == pytest.approx(0.66701565909929, abs=1e-12)

    def test_blowup_between_nodes_exits_1_on_a_coarse_grid(self, capsys):
        # 0.68 is past the blowup at 0.667; a grid minimum of the 16² nodes
        # would put it at 0.689
        code, out = run_cli(capsys, "hs", "--div-u0", self.OFF_NODE_2D, "--dim", "2",
                            "--grid", "16", "--t-final", "0.68")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "BeyondBlowup"

    def test_every_numeric_flag_declares_its_domain(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                flag = f"{name} {action.option_strings}"
                assert action.type not in (int, float), f"{flag} has a bare type"
                if isinstance(action.default, (int, float)) and action.nargs != 0:
                    assert action.type is not None, f"{flag} has no type"

    @pytest.mark.parametrize(
        "argv",
        [
            ("alpha", "--alpha", "0", "--u0", "sin(2*pi*x)", "--grid", "16", "--dt", "0"),
            ("moser-lift", "--div-u0", "sin(2*pi*x)", "--grid", "16", "--dt", "inf"),
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "16", "--mass", "-1"),
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "16", "--dim", "3"),
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "16.5"),
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "16", "--dim", "2",
             "--length", "1,nan"),
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "16", "--length", "1,2"),
            ("simplex-demo", "--t-range", "0,1,2,3"),
            ("simplex-demo", "--t-range=-1e308,1e308,3"),
            ("simplex-demo", "--t-range", "0,1,0"),
            ("simplex-demo", "--t", "inf"),
        ],
    )
    def test_flag_domains_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert strict_error(out)["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "extra, error",
        [
            (("--dim", "2", "--length", "2e154"), "InvalidGrid"),  # volume overflows
            (("--mass", "1e-320"), "ValidationError"),  # subnormal node values
        ],
    )
    def test_unrepresentable_volume_or_values_exit_2(self, capsys, extra, error):
        code, out = run_cli(
            capsys, "dist", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)", "--grid", "16", *extra
        )
        assert code == 2
        assert strict_error(out)["type"] == error

    def test_t_range_is_echoed_as_given(self, capsys):
        code, out = run_cli(capsys, "simplex-demo", "--t-range", "0,1.50,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["params"]["t_range"] == "0,1.50,3"
        assert [row["t"] for row in doc["results"]["series"]] == [0.0, 0.75, 1.5]

    @pytest.mark.parametrize(
        "argv",
        [
            ("alpha", "--alpha", "0", "--u0", "sin(2*pi*x)/(2*pi)", "--grid", "16",
             "--t-final", "0.001", "--seed", "-1"),
            ("alpha", "--alpha", "0", "--u0", "sin(2*pi*x)/(2*pi)", "--grid", "16",
             "--dt", "1e-300"),
            ("moser-lift", "--div-u0", "sin(2*pi*x)", "--grid", "16", "--dim", "2",
             "--dt", "1e-300"),
            ("alpha", "--alpha", "0", "--u0", "sin(2*pi*x)/(2*pi)", "--grid", "16",
             "--t-final", "1e300", "--dt", "1e-300"),
            ("alpha", "--alpha", "0", "--u0", "sin(2*pi*x)/(2*pi)", "--grid", "16",
             "--t-final", "1e300"),
        ],
        ids=["seed", "alpha-steps", "moser-lift-steps", "alpha-infinite-ratio",
             "alpha-default-steps"],
    )
    def test_entry_point_rejects_promptly_without_traceback(self, argv):
        # a separate process, so a request that never returns fails by timeout
        proc = subprocess.run([sys.executable, "-m", "densgeo.cli", *argv], env=child_env(),
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2
        assert strict_error(proc.stdout)["type"] == "ValidationError"
        assert proc.stderr == ""

    def test_hs_evaluates_each_closed_form_once_per_sample(self, capsys, monkeypatch):
        calls = []
        kernel = hsflow.great_circle
        monkeypatch.setattr(hsflow, "great_circle",
                            lambda *args: calls.append(args[1]) or kernel(*args))
        # on the torus, so no equation_residual adds evaluations; 200 samples
        # of 16² nodes span several chunks of the time-array kernel
        argv = ["hs", "--div-u0", "sin(2*pi*x)*cos(2*pi*y)", "--grid", "16", "--dim", "2",
                "--samples", "200"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) > 1
        times = np.concatenate(calls)  # one great-circle point per sample
        monkeypatch.undo()
        args = cli.build_parser().parse_args(argv)
        geo = cli._make_hs(args, cli._build_grid(args))
        series = json.loads(out)["results"]["series"]
        assert times.tolist() == [row["t"] for row in series]
        for row in series:
            assert row["energy"] == hsflow.flow_energy(geo, row["t"])

    def test_csv_output(self, capsys):
        code, out = run_cli(
            capsys, "simplex-demo", "--t-range", "0,1,3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "path,value"
        rows = dict(line.split(",") for line in lines[1:] if not line.startswith("#"))
        assert [rows[f"results.series.{i}.t"] for i in range(3)] == ["0", "0.5", "1"]
        assert "results.bounce_time" in rows
        assert '# meta.params.t_range="0,1,3"' in lines

    @pytest.mark.parametrize("amplitude", ["1e5", "3e5"])
    def test_hs_residual_on_a_fast_blowup(self, capsys, amplitude):
        # the residual's difference step scales with t_max, so a blowup
        # within microseconds gives the same residual/κ² as amplitude 1
        def scaled_residual(amp):
            code, out = run_cli(capsys, "hs", "--div-u0", f"{amp}*sin(2*pi*x)",
                                "--grid", "64", "--samples", "2")
            assert code == 0, out
            doc = strict_json(out)
            return doc["diagnostics"]["equation_residual"] / doc["results"]["kappa"] ** 2

        assert scaled_residual(amplitude) == pytest.approx(scaled_residual("1"), rel=1e-2)


class TestAlphaTimeStep:
    README = ("alpha", "--alpha", "1", "--u0", "sin(2*pi*x)/(2*pi)", "--t-final", "0.3")

    @staticmethod
    def readme_u0():
        grid = PeriodicGrid(256)
        values = evaluate_on_grid("sin(2*pi*x)/(2*pi)", grid)
        return ScalarField(grid, values - values[0])

    @pytest.fixture
    def rk4_steps(self, monkeypatch):
        calls = []
        step = circle.rk4_step
        monkeypatch.setattr(circle, "rk4_step", lambda *args: calls.append(1) or step(*args))
        return calls

    def test_readme_example_meets_the_tolerance_in_few_steps(self, capsys, rk4_steps):
        code, out = run_cli(capsys, *self.README)
        doc = strict_json(out)
        diagnostics = doc["diagnostics"]
        assert code == 0 and len(rk4_steps) == diagnostics["steps_total"] <= 200
        assert doc["meta"]["params"]["dt"] == 0.3 / diagnostics["steps"]
        explicit = circle.alpha_one_explicit(self.readme_u0(), 0.3)[0].values
        true = np.max(np.abs(np.array(doc["results"]["u_final"]) - explicit))
        estimate = diagnostics["time_error_estimate"]
        assert estimate <= circle.TIME_TOL and true / 10 <= estimate <= 10 * true

    def test_near_breaking_runs_the_default_step_after_one_coarse_pair(self, capsys, rk4_steps):
        # the default step took 3,000 steps; the printed run is that run, and its estimate
        # compares it with the first run, of 615 steps, whose companion took 308
        code, out = run_cli(capsys, "alpha", "--alpha", "0", "--u0", "sin(2*pi*x)",
                            "--t-final", "0.3")
        diagnostics = strict_json(out)["diagnostics"]
        assert code == 0 and len(rk4_steps) == diagnostics["steps_total"] <= 1.31 * 3000
        assert diagnostics["steps"] == 3000
        assert diagnostics["time_error_estimate"] <= circle.TIME_TOL

    def test_overflow_ends_at_the_default_step_run(self, capsys, monkeypatch):
        runs = []
        evolve = circle._evolve
        monkeypatch.setattr(circle, "_evolve", lambda *a, **k: runs.append(1) or evolve(*a, **k))
        code, out = run_cli(capsys, "alpha", "--alpha", "1e308", "--u0", "sin(2*pi*x)/(2*pi)",
                            "--t-final", "0.001", "--grid", "64")
        # in each run the first step overflows to NaN, and the next Courant check stops it:
        # 4 steps, then twice that, which passes the default step's 10, so 10, the last
        assert code == 1 and strict_error(out)["type"] == "StepTooLarge"
        assert len(runs) == 2

    def test_given_step_prints_that_run_bit_for_bit(self, capsys):
        code, out = run_cli(capsys, *self.README, "--dt", "1e-4")
        doc = strict_json(out)
        expected = circle.AlphaConnection(1.0).evolve(self.readme_u0(), 0.3, 1e-4).values
        assert code == 0 and np.array_equal(doc["results"]["u_final"], expected)
        assert (doc["diagnostics"]["steps"], doc["diagnostics"]["steps_total"]) == (3000, 4500)

    def test_missing_estimate_prints_null_not_an_error(self, capsys):
        # one step of the default is the longest run, and no coarser one exists
        code, out = run_cli(capsys, "alpha", "--alpha", "1", "--u0", "sin(2*pi*x)/(2*pi)",
                            "--t-final", "1e-4")
        diagnostics = strict_json(out)["diagnostics"]
        assert code == 0 and diagnostics["time_error_estimate"] is None
        assert diagnostics["steps"] == diagnostics["steps_total"] == 1

    @pytest.mark.parametrize("u0, t_final", [("sin(2*pi*x)/(2*pi)", "0"), ("0*x", "0.3")])
    def test_stationary_request_is_one_run(self, capsys, rk4_steps, u0, t_final):
        code, out = run_cli(capsys, "alpha", "--alpha", "1", "--u0", u0, "--t-final", t_final)
        diagnostics = strict_json(out)["diagnostics"]
        assert code == 0 and len(rk4_steps) == 1
        assert diagnostics["time_error_estimate"] == 0 and diagnostics["steps_total"] == 1


class TestSmallGridsAndOverflow:
    @pytest.mark.parametrize("n", [8, 16, 18, 24, 32])
    def test_alpha_duality_check_on_small_grids(self, capsys, n):
        # the duality fields' degree stays below N/3, so their products do
        # not alias; degree 8 needed N >= 18 and aliased up to N = 24
        code = main(["alpha", "--alpha", "0", "--u0", "sin(2*pi*x)", "--grid", str(n),
                     "--t-final", "0.001"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert abs(json.loads(captured.out)["diagnostics"]["duality_residual"]) <= 1e-10

    @pytest.mark.parametrize("command", ["hs", "moser-lift", "invariants"])
    @pytest.mark.parametrize(
        "div_u0, dim",
        [("1e154*sin(2*pi*x)", "1"), ("1e154*sin(2*pi*x)*cos(2*pi*y)", "2")],
        ids=["circle", "torus"],
    )
    def test_overflowing_energy_exits_2(self, capsys, command, div_u0, dim):
        # ∫ρ0² overflows: it gave kappa = inf and a blowup time of 0
        code, out = run_cli(capsys, command, "--div-u0", div_u0, "--grid", "16",
                            "--dim", dim)
        assert code == 2
        assert strict_error(out)["type"] == "NonFiniteInput"


def _old_serialize_scalar(v) -> str:
    """The per-value formatting that dumps applied to every number list."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e-310, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS


class TestPerProcessParser:
    def test_parser_built_once_across_requests(self, capsys, monkeypatch):
        builds, build = [], cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for n in ("8", "16", "32", "8", "16"):
            code, _ = run_cli(capsys, "dist", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)",
                              "--grid", n)
            assert code == 0
        assert len(builds) == 1

    def test_command_looked_up_when_the_request_runs(self, capsys, monkeypatch):
        argv = ("dist", "--a", "uniform", "--b", "uniform", "--grid", "16")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "_cmd_dist", lambda args: {"results": {"patched": True}})
        code, out = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out) == {"results": {"patched": True}}

    def test_mixed_sequence_matches_fresh_parsers(self, capsys, monkeypatch):
        sequence = [
            ("dist", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)", "--grid", "16"),
            ("dist", "--a", "uniform", "--b", "uniform", "--grid", "abc"),
            ("hs", "--help"),
            ("simplex-demo", "--t-range", "0,1,3", "--format", "csv"),
            ("no-such-command",),
            ("hs", "--div-u0", "sin(2*pi*x)", "--grid", "32", "--samples", "3"),
            ("dist", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)", "--grid", "16"),
        ]

        def outputs():
            result = []
            for argv in sequence:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                result.append((code, capsys.readouterr().out))
            return result

        cached = outputs()
        monkeypatch.setattr(cli, "_parser_from", lambda build: build())
        assert cached == outputs()
        assert [code for code, _ in cached] == [0, 2, 0, 0, 2, 0, 0]

    @settings(max_examples=300)
    @given(st.lists(_FLOATS, min_size=1, max_size=20)
           | st.lists(_FLOATS | st.integers(-10**20, 10**20) | st.booleans()
                      | _FLOATS.map(np.float64), min_size=1, max_size=20))
    def test_number_lists_match_per_value_formatting(self, values):
        expected = "[" + ", ".join(map(_old_serialize_scalar, values)) + "]"
        assert dumps(values) == expected
        assert dumps(tuple(values)) == expected
        assert dumps(values[0]) == _old_serialize_scalar(values[0])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_in_a_list_keeps_its_message(self, value):
        for obj in ([1.0, value], value, {"r": [1.0, 2.0, value, 3.0]}):
            with pytest.raises(NonFiniteResult) as exc:
                dumps(obj)
            assert str(exc.value) == f"the result contains the non-finite value {value}"


# flags of every subcommand with small values, for requests in one process
_EXPRS = ["uniform", "0", "sin(2*pi*x)", "1+0.5*cos(2*pi*x)", "sin(2*pi*x)*cos(2*pi*y)",
          "1/(x-x)", "1e200*sin(2*pi*x)", "junk("]
_SMALL = {
    "--grid": ["8", "16", "32"], "--dim": ["1", "2"], "--length": ["1", "2", "1,2"],
    "--mass": ["1", "0.5", "1e-3"], "--seed": ["0", "7"], "--format": ["json", "csv"],
    "--t-final": ["0", "0.001", "0.01"], "--samples": ["1", "3", "5"],
    "--frac-of-tmax": ["0.1", "0.5"], "--dt": ["1e-3", "1e-4"], "--alpha": ["0", "1", "-2"],
    "--truncation": ["2", "5"], "--t": ["0", "1.5"], "--t-range": ["0,1,3", "0,6.283,5"],
    "--a": _EXPRS, "--b": _EXPRS, "--div-u0": _EXPRS, "--u0": _EXPRS, "--rho0": _EXPRS,
}
_OPTIONAL = ("--dim", "--length", "--seed", "--format")
_FLAGS = {  # (flags always given, optional flags); --grid keeps requests small
    "dist": (("--a", "--b", "--grid"), _OPTIONAL + ("--mass",)),
    "geodesic": (("--a", "--b", "--grid"), _OPTIONAL + ("--mass", "--samples")),
    "hs": (("--div-u0", "--grid"), _OPTIONAL + ("--t-final", "--frac-of-tmax", "--samples")),
    "moser-lift": (("--div-u0", "--grid", "--t-final"), _OPTIONAL + ("--samples", "--dt")),
    "alpha": (("--alpha", "--u0", "--grid", "--t-final"), _OPTIONAL + ("--dt",)),
    "invariants": (("--div-u0", "--grid"), _OPTIONAL + ("--samples", "--truncation")),
    "simplex-demo": ((), ("--seed", "--format", "--t", "--t-range")),
    "heat-demo": (("--rho0", "--grid"), _OPTIONAL + ("--mass", "--t-final")),
}
_JUNK = ["--bogus", "junk", "--grid", "-1", "=", "--dim=3", "nan", "--samples", "1e999"]


@st.composite
def _argv(draw, junk=2):
    """A request of small flags, with up to ``junk`` stray tokens inserted."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    flags = list(required) + [f for f in optional if draw(st.booleans())]
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_SMALL[flag]))]
    for _ in range(draw(st.integers(0, junk))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_JUNK)))
    return argv


def _valid_domain(dim, grid):
    """Each flag's values for requests that must exit 0 on ``dim`` axes of
    ``grid`` nodes: densities of mean 1, so any two share their mass;
    non-trivial divergences whose blowup lies past every drawn horizon;
    --truncation <= N/2 - 1."""
    densities = ["uniform", "1+0.5*cos(2*pi*x)",
                 "1+0.5*sin(2*pi*x)" if dim == 1 else "1+0.5*sin(2*pi*x)*cos(2*pi*y)"]
    divergences = ["sin(2*pi*x)", "cos(2*pi*x)+0.5*sin(4*pi*x)"]
    if dim == 2:
        divergences.append("sin(2*pi*x)*cos(2*pi*y)")
    return dict(
        _SMALL, **{"--grid": [str(grid)], "--dim": [str(dim)],
                   "--length": ["1", "2", "1,2"][: dim + 1], "--alpha": ["0", "1", "-2", "0.5"],
                   "--truncation": [str(k) for k in range(2, grid // 2)],
                   "--a": densities, "--b": densities, "--rho0": densities,
                   "--div-u0": divergences, "--u0": divergences})


@st.composite
def _valid_argv(draw):
    """A request inside every flag's domain and every rule across flags
    (``alpha`` is one-dimensional, so it always has --dim 1)."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    dim = 1 if command == "alpha" else draw(st.sampled_from([1, 2]))
    domain = _valid_domain(dim, draw(st.sampled_from([8, 16, 32])))
    required, optional = _FLAGS[command]
    argv = [command]
    for flag in required + optional:
        if flag in required or flag == "--dim" or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(domain[flag]))]
    return argv


class TestRequestSequences:
    @settings(max_examples=100)
    @given(st.lists(_argv(), min_size=1, max_size=4))
    @example([["alpha", "--alpha", "0", "--u0", "sin(2*pi*x)", "--grid", "8",
               "--t-final", "0.001"]])
    @example([["hs", "--div-u0", "1e200*sin(2*pi*x)", "--grid", "16"],
              ["dist", "--a", "uniform", "--b", "uniform", "--grid", "8", "--format", "csv"]])
    @example([["moser-lift", "--div-u0", "sin(2*pi*x)*cos(2*pi*y)", "--dim", "2", "--grid", "8",
               "--t-final", "0"]])  # every interval has zero length
    def test_exit_code_and_strict_output_in_one_process(self, sequence):
        for argv in sequence:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            out = out.getvalue()
            assert code in (0, 1, 2), argv
            assert err.getvalue() == "", argv
            if code == 0 and cli.build_parser().parse_args(argv).format == "csv":
                rows = [line for line in out.splitlines() if not line.startswith("#")]
                assert out.endswith("\n") and rows, argv  # a header at least
                assert len({row.count(",") for row in rows}) == 1, argv
                continue
            doc = strict_json(out)
            if code:
                assert doc["error"]["exit_code"] == code, argv
                assert doc["error"]["type"] != "InternalError", argv
            else:
                assert set(doc) == {"meta", "results", "diagnostics"}, argv


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(node):
    """Every number in a parsed JSON document."""
    if isinstance(node, (dict, list)):
        return [v for item in (node.values() if isinstance(node, dict) else node)
                for v in _numbers(item)]
    return [node] if _is_number(node) else []


def _check_csv_against_json(argv):
    """Run ``argv`` as JSON and as CSV; on success the CSV rows must carry
    exactly the JSON document's numbers.  Returns the exit code."""
    outputs = []
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            outputs.append((main(argv + ["--format", fmt]), out.getvalue()))
    (code, text), (csv_code, csv_text) = outputs
    assert csv_code == code, argv
    if code:
        assert csv_text == text, argv  # error objects stay JSON
        return code
    doc = strict_json(text)
    lines = csv_text.splitlines()
    assert lines[0] == "path,value", argv
    rows = [line.split(",") for line in lines[1:] if not line.startswith("# ")]
    for path, value in rows:
        node = doc
        for key in path.split("."):
            node = node[int(key)] if isinstance(node, list) else node[key]
        assert _is_number(node) and node == json.loads(value), argv
    csv_numbers = [json.loads(value) for _, value in rows]
    assert Counter((type(v), v) for v in csv_numbers) == Counter(
        (type(v), v) for v in _numbers(doc)), argv
    return code


class TestCsvDocument:
    @settings(max_examples=100)
    @given(_argv(junk=0))
    @example(["dist", "--a", "uniform", "--b", "1+0.5*cos(2*pi*x)", "--grid", "8"])
    @example(["hs", "--div-u0", "sin(2*pi*x)", "--grid", "16", "--samples", "3"])
    @example(["moser-lift", "--div-u0", "sin(2*pi*x)", "--grid", "16", "--t-final", "0.01"])
    @example(["simplex-demo", "--t-range", "0,1,3"])
    @example(["heat-demo", "--rho0", "1+0.5*cos(2*pi*x)", "--grid", "8"])
    @example(["alpha", "--alpha", "0", "--u0", "sin(2*pi*x)", "--grid", "16", "--t-final", "0.01"])
    @example(["invariants", "--div-u0", "sin(2*pi*x)", "--grid", "16", "--samples", "3"])
    @example(["geodesic", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)*cos(2*pi*y)", "--grid", "8",
              "--dim", "2", "--samples", "3"])
    def test_csv_rows_are_the_json_numbers(self, argv):
        _check_csv_against_json(argv)

    @settings(max_examples=100)
    @given(_valid_argv())
    @example(["invariants", "--div-u0", "sin(2*pi*x)", "--grid", "8", "--dim", "1",
              "--truncation", "3"])
    @example(["alpha", "--alpha", "-2", "--u0", "cos(2*pi*x)+0.5*sin(4*pi*x)", "--grid", "32",
              "--t-final", "0.01", "--dim", "1", "--length", "2", "--dt", "1e-4"])
    def test_valid_requests_exit_0_with_csv_rows_the_json_numbers(self, argv):
        assert _check_csv_against_json(argv) == 0, argv


_NDIMAGE_PROBE = """
import contextlib, io, json, sys
import densgeo, densgeo.cli
loaded = {"import": "scipy.ndimage" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [densgeo.cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded["requests"] = "scipy.ndimage" in sys.modules
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def _ndimage_probe(*requests):
    """Whether scipy.ndimage is loaded after a fresh interpreter imports
    densgeo and after it then serves ``requests`` through cli.main, with
    their exit codes.  A subprocess, because this test run imports scipy."""
    proc = subprocess.run([sys.executable, "-c", _NDIMAGE_PROBE, json.dumps(requests)],
                          env=child_env(), capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


class TestDeferredImport:
    def test_requests_without_a_spline_never_import_ndimage(self):
        probe = _ndimage_probe(
            ["dist", "--a", "uniform", "--b", "1+0.5*sin(2*pi*x)"],
            ["hs", "--div-u0", "sin(2*pi*x)", "--grid", "256", "--frac-of-tmax", "0.8"],
        )
        assert probe == {"loaded": {"import": False, "requests": False}, "codes": [0, 0]}

    def test_a_spline_evaluation_imports_ndimage(self):
        # above EXACT_EVAL_LIMIT nodes hs evaluates its fields by spline
        probe = _ndimage_probe(
            ["hs", "--div-u0", "sin(2*pi*x)", "--grid", "2048", "--frac-of-tmax", "0.8"],
        )
        assert probe == {"loaded": {"import": False, "requests": True}, "codes": [0]}
