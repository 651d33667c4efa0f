"""Seeded task lists of the benchmark's three workloads, with their checks.

A workload is generated as a pool of cycles; a cycle is a list of tasks.
Each task calls densgeo's public API (or ``densgeo.cli.main``) in-process
and checks what comes back against a closed form.  A task returns the
worst ratio of measured error to acceptance tolerance over its checks, or
None when its checks carry no numeric tolerance (exit codes, JSON shape),
and raises CheckFailed on any miss.

Why these workloads: see README.md next to this file.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from densgeo import circle, cli, hsflow, moser
from densgeo import grid as dgrid
from densgeo import _interp
from densgeo.density import normalize
from densgeo.grid import PeriodicGrid, ScalarField


class CheckFailed(Exception):
    """A result missed its closed form, exit code or output contract."""


@dataclass
class Task:
    kind: str
    run: Callable[[], "float | None"]
    valid: bool = True  # False for requests the CLI contract says must fail
    key: tuple | None = None  # request identity, for the cli-sweep repeat share


def check(err, tol, what) -> float:
    ratio = float(err) / tol
    if not ratio <= 1.0:  # also catches NaN
        raise CheckFailed(f"{what}: error {float(err):.3e} exceeds {tol:.0e}")
    return ratio


def scaled_field(grid, degree, rng, sup):
    """random_band_limited draw rescaled to a fixed sup norm."""
    values = dgrid.random_band_limited(grid, degree, rng).values
    return values * (sup / np.max(np.abs(values)))


def phi_of(geo, t):
    """Jacobian history handed to lift_flow (traced as moser.phi)."""
    return hsflow.jacobian_formula(geo, t)


# ---------------------------------------------------------------------------
# torus-integrators
# ---------------------------------------------------------------------------

TORUS = {
    # horizons chosen so the three kinds' task times stay apart (about 0.3,
    # 0.6 and 0.9 s here) and a run holds a dozen of each, keeping the
    # percentiles of a short run inside one kind and steady
    "full": dict(flow_n=48, flow_t=0.05, flow_dt=5e-3,
                 lift_n=128, lift_times=(0.0, 0.01), lift_dt=1e-3, lift_pad=2,
                 transport_n=64, transport_dt=2e-2),
    "smoke": dict(flow_n=16, flow_t=0.02, flow_dt=5e-3,
                  lift_n=16, lift_times=(0.0, 0.002), lift_dt=1e-3, lift_pad=2,
                  transport_n=64, transport_dt=0.05),
}


def _integrate_flow_task(grid, rho0, t_final, dt):
    geo = hsflow.HsGeodesic.from_divergence(ScalarField(grid, rho0))
    flow = hsflow.integrate_flow(geo, t_final, dt, n_store=1)
    _, target = hsflow.evolve_density_global(geo, flow.times[-1])
    err = np.max(np.abs(hsflow.map_jacobian(grid, flow.positions[-1]) - target.values))
    return check(err, 1e-5, "integrate_flow vs evolve_density_global")


def _lift_task(grid, rho0, times, dt, pad, tol):
    geo = hsflow.HsGeodesic.from_divergence(ScalarField(grid, rho0))
    times = np.asarray(times)
    flow = moser.lift_flow(functools.partial(phi_of, geo), times, grid, dt=dt, pad_factor=pad)
    err = max(
        np.max(np.abs(jac - hsflow.jacobian_formula(geo, float(t)).values))
        for jac, t in zip(flow.jacobians, times)
    )
    mass = max(abs(grid.node_weight * np.sum(jac) - grid.total_volume) for jac in flow.jacobians)
    return max(check(err, tol, "lift_flow vs jacobian_formula"),
               check(mass, 1e-8, "lift_flow mass defect"))


def _transport_task(grid, src, tgt, dt, tol):
    source = normalize(ScalarField(grid, src), 1.0)
    target = normalize(ScalarField(grid, tgt), 1.0)
    flow = moser.transport_map(source, target, dt=dt)
    return check(flow.diagnostics["pushforward_residual"], tol, "transport pushforward_residual")


def torus_cycle(rng, p):
    g_flow = PeriodicGrid((p["flow_n"],) * 2)
    g_lift = PeriodicGrid((p["lift_n"],) * 2)
    g_tr = PeriodicGrid((p["transport_n"],) * 2)
    rho_flow = scaled_field(g_flow, 2, rng, 0.5)
    rho_lift = scaled_field(g_lift, 2, rng, 0.5)
    src = 1.0 + scaled_field(g_tr, 2, rng, 0.2)
    tgt = 1.0 + scaled_field(g_tr, 2, rng, 0.2)
    return [
        Task("integrate_flow", functools.partial(
            _integrate_flow_task, g_flow, rho_flow, p["flow_t"], p["flow_dt"])),
        Task("lift_flow", functools.partial(
            _lift_task, g_lift, rho_lift, p["lift_times"], p["lift_dt"], p["lift_pad"], 1e-6)),
        Task("transport_map", functools.partial(
            _transport_task, g_tr, src, tgt, p["transport_dt"], 1e-8)),
    ]


# ---------------------------------------------------------------------------
# circle-spectral
# ---------------------------------------------------------------------------

CIRCLE = {
    "full": dict(n=512, ch_n=256, t_evolve=0.05, dt=1e-4, t_burgers=0.02,
                 t_ch=0.05, dt_ch=2e-4, t_ode=0.5, t_lift=0.5,
                 alpha_argv=["alpha", "--alpha", "1", "--u0", "sin(2*pi*x)/(2*pi)",
                             "--t-final", "0.3"], alpha_grid=256, alpha_t=0.3),
    "smoke": dict(n=512, ch_n=64, t_evolve=0.002, dt=1e-4, t_burgers=0.002,
                  t_ch=0.002, dt_ch=2e-4, t_ode=0.05, t_lift=0.05,
                  alpha_argv=["alpha", "--alpha", "1", "--u0", "sin(2*pi*x)/(2*pi)",
                              "--t-final", "0.002", "--grid", "64"],
                  alpha_grid=64, alpha_t=0.002),
}


def _alpha_zero_task(rho0, t, dt):
    grid = rho0.grid
    geo = hsflow.HsGeodesic.from_divergence(rho0)
    u0 = ScalarField(grid, moser.moser_primitive_1d(grid, rho0.values))
    u = circle.AlphaConnection(0.0).evolve(u0, t, dt)
    err = np.max(np.abs(dgrid.derivative(u).values - hsflow.eulerian_rho(geo, t).values))
    return check(err, 1e-6, "alpha=0 evolve vs eulerian_rho")


def _alpha_one_task(u0, t, dt):
    u = circle.AlphaConnection(1.0).evolve(u0, t, dt)
    explicit, _ = circle.alpha_one_explicit(u0, t)
    return check(np.max(np.abs(u.values - explicit.values)), 1e-5,
                 "alpha=1 evolve vs alpha_one_explicit")


def _burgers_task(u0, t, dt):
    grid = u0.grid
    u = circle.evolve_classic("burgers", u0, t, dt)
    # pre-shock characteristics: u(t, x + 3 t u0(x)) = u0(x)
    moved = _interp.trig_eval(grid, u.values, grid.coordinate(0) + 3.0 * t * u0.values)
    return check(np.max(np.abs(moved - u0.values)), 1e-6, "burgers vs characteristics")


def _camassa_holm_task(u0, t, dt):
    grid = u0.grid

    def h1(f):
        fx = dgrid.derivative(f).values
        return dgrid.integrate(ScalarField(grid, f.values**2 + fx**2))

    u = circle.evolve_classic("camassa_holm", u0, t, dt)
    drift = max(abs(dgrid.integrate(u) - dgrid.integrate(u0)), abs(h1(u) - h1(u0)))
    return check(drift, 1e-7, "camassa_holm momentum/energy drift")


def _jacobian_ode_task(rho0, t, dt):
    geo = hsflow.HsGeodesic.from_divergence(rho0)
    jac = hsflow.jacobian_by_ode(geo, t, dt)
    err = np.max(np.abs(jac.values - hsflow.jacobian_formula(geo, t).values))
    return check(err, 1e-9, "jacobian_by_ode vs jacobian_formula")


def _residual_task(rho0, t):
    geo = hsflow.HsGeodesic.from_divergence(rho0)
    return check(hsflow.equation_residual(geo, t), 1e-6, "equation_residual")


def _cli_alpha_task(argv, grid_n, t):
    doc = _run_valid(argv)
    grid = PeriodicGrid(grid_n)
    u0 = ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)) / (2 * np.pi))
    explicit, _ = circle.alpha_one_explicit(u0, t)
    err = np.max(np.abs(np.asarray(doc["results"]["u_final"]) - explicit.values))
    return max(check(err, 1e-5, "cli alpha u_final vs alpha_one_explicit"),
               check(abs(doc["diagnostics"]["duality_residual"]), 1e-10,
                     "cli alpha duality_residual"))


def circle_cycle(rng, p):
    g = PeriodicGrid(p["n"])
    rho_a = ScalarField(g, scaled_field(g, 4, rng, 1.0))
    v = scaled_field(g, 4, rng, 0.2)
    u_one = ScalarField(g, v - v[0])
    u_burgers = ScalarField(g, scaled_field(g, 4, rng, 0.5))
    g_ch = PeriodicGrid(p["ch_n"])
    u_ch = ScalarField(g_ch, scaled_field(g_ch, 4, rng, 0.2))
    rho_b = ScalarField(g, scaled_field(g, 4, rng, 1.0))
    src = 1.0 + scaled_field(g, 4, rng, 0.5)
    tgt = 1.0 + scaled_field(g, 4, rng, 0.5)
    lift_times = np.linspace(0.0, p["t_lift"], 5)
    dt = p["dt"]
    return [
        Task("alpha0_evolve", functools.partial(_alpha_zero_task, rho_a, p["t_evolve"], dt)),
        Task("alpha1_evolve", functools.partial(_alpha_one_task, u_one, p["t_evolve"], dt)),
        Task("burgers", functools.partial(_burgers_task, u_burgers, p["t_burgers"], dt)),
        Task("camassa_holm", functools.partial(_camassa_holm_task, u_ch, p["t_ch"], p["dt_ch"])),
        Task("jacobian_by_ode", functools.partial(_jacobian_ode_task, rho_b, p["t_ode"], dt)),
        Task("equation_residual", functools.partial(_residual_task, rho_a, p["t_ode"])),
        Task("lift_flow_1d", functools.partial(
            _lift_task, g, rho_b.values, lift_times, dt, 4, 1e-10)),
        Task("transport_map_1d", functools.partial(_transport_task, g, src, tgt, dt, 1e-10)),
        Task("cli_alpha", functools.partial(
            _cli_alpha_task, p["alpha_argv"], p["alpha_grid"], p["alpha_t"])),
    ]


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------


def _reject_constant(token):
    raise CheckFailed(f"output is not RFC 8259 JSON: bare {token}")


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, out.getvalue()


def _strict_json(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output does not parse as JSON: {exc}") from None


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _run_valid(argv):
    code, text = run_cli(argv)
    if code != 0:
        raise CheckFailed(f"exit code {code}, expected 0")
    doc = _strict_json(text)
    for key in ("meta", "results", "diagnostics"):
        if key not in doc:
            raise CheckFailed(f"document lacks {key!r}")
    if not all(math.isfinite(v) for v in _numbers(doc)):
        raise CheckFailed("non-finite number in a result")
    return doc


def _expect_failure(argv, code_expected):
    code, text = run_cli(argv)
    if code != code_expected:
        raise CheckFailed(f"exit code {code}, expected {code_expected}")
    error = _strict_json(text).get("error")
    if not isinstance(error, dict) or error.get("exit_code") != code_expected \
            or not error.get("type") or not error.get("message"):
        raise CheckFailed("no error object with the documented exit code")
    return None


class Expr:
    """Band-limited trigonometric expression with known coefficients, so the
    benchmark can evaluate it (and its heat flow) without the parser."""

    def __init__(self, rng, degree, amp, const=0.0, dim=1):
        self.const = const
        self.terms = []  # (coefficient, kx, ky, "sin"|"cos")
        for k in range(1, degree + 1):
            for fn in ("sin", "cos"):
                ky = int(rng.integers(0, 2)) * k if dim == 2 else 0
                self.terms.append([rng.standard_normal() / (1.0 + k), k, ky, fn])
        scale = amp / sum(abs(t[0]) for t in self.terms)
        for t in self.terms:
            t[0] = round(t[0] * scale, 4)
        self.text = (f"{const:g}" if const else "") + "".join(
            f"{c:+.4f}*{fn}({2 * kx}*pi*x" + (f"+{2 * ky}*pi*y" if ky else "") + ")"
            for c, kx, ky, fn in self.terms
        )

    def values(self, n, t_heat=0.0):
        """Values at the nodes of the unit circle, after heat flow for t_heat."""
        x = np.arange(n) / n
        out = np.full(n, self.const)
        for c, k, _ky, fn in self.terms:
            decay = math.exp(-((2 * math.pi * k) ** 2) * t_heat)
            out += c * decay * (np.sin if fn == "sin" else np.cos)(2 * math.pi * k * x)
        return out


def _check_dist(argv):
    doc = _run_valid(argv)
    r, mass = doc["results"], doc["meta"]["mass"]
    # chord relation ||sqrt a - sqrt b||^2 = 2 m (1 - BC)
    err = abs(r["hellinger"] ** 2 - 2.0 * mass * (1.0 - r["bhattacharyya"]))
    return check(err, 1e-12 * mass, "dist chord relation")


def _check_geodesic(argv, b_values):
    doc = _run_valid(argv)
    r = doc["results"]
    samples = r["samples"]
    ends = max(float(np.max(np.abs(np.asarray(samples[0]["values"]) - 1.0))),
               float(np.max(np.abs(np.asarray(samples[-1]["values"]) - b_values))))
    length = abs(r["length"] - doc["diagnostics"]["endpoint_distance"])
    return max(check(ends, 1e-12, "geodesic endpoints"),
               check(length, 1e-12, "geodesic length vs endpoint distance"))


def _check_hs(argv):
    doc = _run_valid(argv)
    d = doc["diagnostics"]
    return max(check(d["energy_drift"], 1e-10, "hs energy_drift"),
               check(d["equation_residual"], 1e-6, "hs equation_residual"))


def _check_moser_lift(argv):
    d = _run_valid(argv)["diagnostics"]
    return max(check(d["max_jacobian_error"], 1e-10, "moser-lift jacobian error"),
               check(d["max_mass_drift"], 1e-8, "moser-lift mass drift"))


def _check_invariants(argv):
    r = _run_valid(argv)["results"]
    return max(check(r[k], 1e-8, f"invariants {k}") for k in
               ("angular_momentum_drift", "nested_chain_drift", "projected_chain_drift"))


def _check_simplex(argv):
    r = _run_valid(argv)["results"]
    total = max(abs(row["total"] - 1.0) for row in r["series"])
    bounce = abs(r["bounce_time"] - math.atan(math.sqrt(2.0 / 3.0)))
    return max(check(total, 1e-14, "simplex total probability"),
               check(bounce, 1e-14, "simplex bounce time"))


def _check_heat(argv, exact_final):
    doc = _run_valid(argv)
    err = np.max(np.abs(np.asarray(doc["results"]["final"]) - exact_final))
    return max(check(err, 1e-12, "heat-demo vs exact mode decay"),
               check(doc["diagnostics"]["mass_drift"], 1e-12, "heat-demo mass drift"))


def _check_twice(argv):
    """Run a request twice: both runs must succeed with identical bytes."""
    first, second = run_cli(argv), run_cli(argv)
    if first[0] != 0:
        raise CheckFailed(f"exit code {first[0]}, expected 0")
    if first != second:
        raise CheckFailed("repeated request gave different bytes")
    return None


# requests the contract says must fail: (name, argv, documented exit code)
INVALID = [
    ("beyond_blowup", ["hs", "--div-u0", "sin(2*pi*x)", "--grid", "64",
                       "--frac-of-tmax", "1.5"], 1),
    ("alpha_dim2", ["alpha", "--alpha", "0", "--u0", "sin(2*pi*x)", "--dim", "2",
                    "--grid", "16"], 2),
    ("odd_grid", ["hs", "--div-u0", "sin(2*pi*x)", "--grid", "7"], 2),
    ("truncation_500", ["invariants", "--div-u0", "sin(2*pi*x)", "--grid", "64",
                        "--truncation", "500"], 2),
    ("nan_density", ["dist", "--a", "uniform", "--b", "1/(x-x)", "--grid", "64"], 2),
    ("zero_divergence", ["hs", "--div-u0", "0", "--grid", "64"], 2),
]

CLI = {
    # kind: (requests per cycle, a multiple of the grid menu's length; grid menu)
    "full": dict(dist=(12, (128, 256, 512)), dist2d=(2, (256,)),
                 geodesic=(4, (128, 256)), hs=(6, (128, 256)), hs_large=(1, (4096,)),
                 moser_lift=(4, (64, 128)), invariants=(2, (128, 256)),
                 invariants_large=(1, (1024,)), simplex=(1, (None,)),
                 heat=(9, (128, 256, 512))),
    "smoke": dict(dist=(1, (32,)), dist2d=(1, (16,)), geodesic=(1, (32,)),
                  hs=(1, (128,)), hs_large=(1, (2048,)), moser_lift=(1, (32,)),
                  invariants=(1, (64,)), invariants_large=(1, (128,)),
                  simplex=(1, (None,)), heat=(1, (32,))),
}
_REPEAT_PROBABILITY = 0.3  # chance a request reuses an earlier expression
# the fixed determinism sample: the first request of each kind runs twice
TWICE = ("dist", "hs_large")


class _RequestSource:
    """Seeded request generator.  An expression is reused for the same
    (subcommand, grid) with a fixed probability, so some requests repeat.
    Each kind cycles through its grid menu from a seeded starting point, so
    every cycle holds the same mix of grid sizes."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = {}
        self.turn = {}

    def expr(self, key, make):
        earlier = self.seen.setdefault(key, [])
        if earlier and self.rng.random() < _REPEAT_PROBABILITY:
            return earlier[int(self.rng.integers(len(earlier)))]
        fresh = make()
        earlier.append(fresh)
        return fresh

    def grid(self, kind, menu):
        if kind not in self.turn:
            self.turn[kind] = int(self.rng.integers(len(menu)))
        self.turn[kind] += 1
        return menu[self.turn[kind] % len(menu)]


def _request(kind, source, menu):
    """(argv, check callable) for one valid request of the given kind."""
    rng = source.rng
    n = source.grid(kind, menu)
    density = lambda: Expr(rng, 2, 0.6, const=1.0)  # noqa: E731
    divergence = lambda: Expr(rng, 2, 1.0)  # noqa: E731
    if kind == "dist":
        e = source.expr(("dist", n), density)
        argv = ["dist", "--a", "uniform", f"--b={e.text}", "--grid", str(n)]
        return argv, functools.partial(_check_dist, argv)
    if kind == "dist2d":
        e = source.expr(("dist2d", n), lambda: Expr(rng, 2, 0.6, const=1.0, dim=2))
        argv = ["dist", "--a", "uniform", f"--b={e.text}", "--dim", "2", "--grid", str(n)]
        return argv, functools.partial(_check_dist, argv)
    if kind == "geodesic":
        e = source.expr(("geodesic", n), density)
        argv = ["geodesic", "--a", "uniform", f"--b={e.text}", "--samples", "11",
                "--grid", str(n)]
        return argv, functools.partial(_check_geodesic, argv, e.values(n))
    if kind in ("hs", "hs_large"):
        # one harmonic below N = 1024: the residual check at 0.4 t_max needs
        # the compressed peak resolved on the grid
        e = source.expr(("hs", n), lambda: Expr(rng, 1 if n < 1024 else 2, 1.0))
        samples = "400" if kind == "hs_large" else "9"
        argv = ["hs", f"--div-u0={e.text}", "--grid", str(n), "--frac-of-tmax", "0.8",
                "--samples", samples]
        return argv, functools.partial(_check_hs, argv)
    if kind == "moser_lift":
        e = source.expr(("moser-lift", n), divergence)
        argv = ["moser-lift", f"--div-u0={e.text}", "--grid", str(n), "--samples", "4"]
        return argv, functools.partial(_check_moser_lift, argv)
    if kind in ("invariants", "invariants_large"):
        e = source.expr(("invariants", n), divergence)
        samples = "200" if kind == "invariants_large" else "50"
        argv = ["invariants", f"--div-u0={e.text}", "--grid", str(n), "--samples", samples]
        return argv, functools.partial(_check_invariants, argv)
    if kind == "simplex":
        argv = ["simplex-demo", "--t-range", "0,6.283,100"]
        return argv, functools.partial(_check_simplex, argv)
    if kind == "heat":
        e = source.expr(("heat-demo", n), density)
        argv = ["heat-demo", f"--rho0={e.text}", "--t-final", "0.02", "--grid", str(n)]
        return argv, functools.partial(_check_heat, argv, e.values(n, t_heat=0.02))
    raise ValueError(kind)


def cli_cycle(source, p):
    tasks = []
    for kind, (count, menu) in p.items():
        for _ in range(count):
            argv, run = _request(kind, source, menu)
            tasks.append(Task(kind, run, key=tuple(argv)))
    for kind in TWICE:
        argv = next(t.key for t in tasks if t.kind == kind)
        tasks.append(Task(f"twice.{kind}", functools.partial(_check_twice, argv), key=argv))
    for name, argv, code in INVALID:
        tasks.append(Task(f"invalid.{name}", functools.partial(_expect_failure, argv, code),
                          valid=False, key=tuple(argv)))
    return tasks


# ---------------------------------------------------------------------------


WORKLOADS = {
    "torus-integrators": (TORUS, torus_cycle),
    "circle-spectral": (CIRCLE, circle_cycle),
    "cli-sweep": (CLI, None),
}


def generate(workload, seed, cycles, smoke=False):
    """The seeded pool of cycles for one run."""
    sizes, make = WORKLOADS[workload]
    params = sizes["smoke" if smoke else "full"]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    if make is None:
        source = _RequestSource(rng)
        return [cli_cycle(source, params) for _ in range(cycles)]
    return [make(rng, params) for _ in range(cycles)]
