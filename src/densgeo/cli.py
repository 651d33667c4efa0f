"""Command-line front end.

Every subcommand emits a single machine-readable document (JSON by default,
CSV for flattened time series) with the shape
{meta: {grid, mass, params}, results: {...}, diagnostics: {...}}.
Floating-point values are serialized with 17 significant digits, so
identical inputs and --seed produce byte-identical output.  Validation
failures exit 2 with an error object; numerical failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import circle, hsflow, invariants, moser, simplex, spheregeo
from .density import Density, SpherePoint, normalize, uniform_density
from .errors import BeyondBlowup, DensgeoError, ValidationError
from .exprparse import evaluate_on_grid
from .grid import (
    PeriodicGrid,
    ScalarField,
    derivative,
    integrate,
    mean,
    random_band_limited,
)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (deterministic output)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            return "[" + ", ".join(_serialize_scalar(v) for v in seq) + "]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _serialize_scalar(obj)


def _serialize_scalar(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    return json.dumps(str(v))


def _to_csv(document: dict) -> str:
    lines = []
    for key, value in document.get("meta", {}).items():
        if not isinstance(value, (dict, list, tuple, np.ndarray)):
            lines.append(f"# {key}={_serialize_scalar(value).strip(chr(34))}")
    series = document.get("results", {}).get("series")
    if series:
        columns = list(series[0].keys())
        lines.append(",".join(columns))
        for row in series:
            lines.append(",".join(_serialize_scalar(row[c]).strip('"') for c in columns))
    else:
        lines.append("key,value")
        for key, value in document.get("results", {}).items():
            if not isinstance(value, (dict, list, tuple, np.ndarray)):
                lines.append(f"{key},{_serialize_scalar(value)}")
    return "\n".join(lines) + "\n"


def _emit(document: dict, args) -> None:
    text = (
        _to_csv(document) if args.format == "csv" else dumps(document) + "\n"
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------


def _build_grid(args) -> PeriodicGrid:
    try:
        lengths = tuple(float(v) for v in str(args.length).split(","))
    except ValueError:
        raise ValidationError(f"--length must be numbers, got {args.length!r}") from None
    if len(lengths) == 1:
        lengths = lengths * args.dim
    if len(lengths) != args.dim:
        raise ValidationError("--length must give one value, or one per axis")
    shape = (args.grid,) * args.dim
    return PeriodicGrid(shape, lengths)


def _field_from_spec(spec: str, grid: PeriodicGrid) -> ScalarField:
    """Node values from an expression, or from a JSON file of node values."""
    path = spec[1:] if spec.startswith("@") else spec
    if spec.startswith("@") or path.endswith(".json"):
        try:
            with open(path) as fh:
                values = np.asarray(json.load(fh)["values"], dtype=float)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise ValidationError(f"cannot read node values from {path!r}: {exc!r}") from None
        if values.shape != grid.shape:
            raise ValidationError(
                f"file values shape {values.shape} does not match grid {grid.shape}"
            )
    else:
        values = evaluate_on_grid(spec, grid)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"field {spec!r} has non-finite values on the grid")
    return ScalarField(grid, values)


def _density_from_spec(spec: str, grid: PeriodicGrid, mass) -> Density:
    if spec == "uniform":
        return uniform_density(grid, mass)
    field = _field_from_spec(spec, grid)
    if mass is not None:
        return normalize(field, float(mass))
    return Density(field, integrate(field))


def _mean_zero_field(spec: str, grid: PeriodicGrid) -> ScalarField:
    field = _field_from_spec(spec, grid)
    return ScalarField(grid, field.values - mean(field))


def _grid_meta(grid: PeriodicGrid) -> dict:
    return {
        "dim": grid.dim,
        "points_per_axis": list(grid.shape),
        "lengths": list(grid.lengths),
        "total_volume": grid.total_volume,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dist(args) -> dict:
    grid = _build_grid(args)
    a = _density_from_spec(args.a, grid, args.mass)
    b = _density_from_spec(args.b, grid, args.mass)
    bc = spheregeo.bhattacharyya(a, b)
    return {
        "meta": {"grid": _grid_meta(grid), "mass": a.mass,
                 "params": {"a": args.a, "b": args.b}},
        "results": {
            "bhattacharyya": bc,
            "spherical": spheregeo.spherical_distance(a, b),
            "hellinger": spheregeo.hellinger_distance(a, b),
        },
        "diagnostics": {},
    }


def _cmd_geodesic(args) -> dict:
    grid = _build_grid(args)
    a = _density_from_spec(args.a, grid, args.mass)
    b = _density_from_spec(args.b, grid, args.mass)
    path = spheregeo.geodesic(a, b)
    ts = np.linspace(0.0, 1.0, args.samples)
    samples = [
        {"t": float(t), "values": path.density_at(float(t)).values.tolist()}
        for t in ts
    ]
    return {
        "meta": {"grid": _grid_meta(grid), "mass": a.mass,
                 "params": {"a": args.a, "b": args.b, "samples": args.samples}},
        "results": {"angle": path.angle, "length": path.length, "samples": samples},
        "diagnostics": {
            "endpoint_distance": spheregeo.spherical_distance(a, b),
        },
    }


def _make_hs(args, grid) -> hsflow.HsGeodesic:
    rho0 = _mean_zero_field(args.div_u0, grid)
    return hsflow.HsGeodesic.from_divergence(rho0)


def _require_nontrivial(args, geo: hsflow.HsGeodesic) -> None:
    if geo.kappa == 0.0:
        raise ValidationError(f"{args.command} needs a non-trivial initial divergence")


def _check_ranges(args) -> None:
    """Reject sample counts, horizons and steps outside their domains."""
    if getattr(args, "samples", 1) < 1:
        raise ValidationError("--samples must be at least 1")
    t_final = getattr(args, "t_final", None)
    if t_final is not None and not 0.0 <= t_final < np.inf:
        raise ValidationError("--t-final must be finite and non-negative")
    if not 0.0 < getattr(args, "frac_of_tmax", 1.0) < np.inf:
        raise ValidationError("--frac-of-tmax must be positive and finite")
    if not 0.0 < getattr(args, "dt", 1.0) < np.inf:
        raise ValidationError("--dt must be positive and finite")
    for name in ("alpha", "t"):
        if not np.isfinite(getattr(args, name, 0.0)):
            raise ValidationError(f"--{name} must be finite")
    # the drift table needs at least one chain element, i.e. two modes
    if getattr(args, "truncation", None) is not None and args.truncation < 2:
        raise ValidationError("--truncation must be at least 2")


def _hs_horizon(args, geo) -> float:
    if args.t_final is not None:
        return float(args.t_final)
    if not np.isfinite(geo.t_max):
        return 1.0
    return args.frac_of_tmax * geo.t_max


def _cmd_hs(args) -> dict:
    grid = _build_grid(args)
    geo = _make_hs(args, grid)
    _require_nontrivial(args, geo)
    horizon = _hs_horizon(args, geo)
    if horizon >= geo.t_max:
        raise BeyondBlowup(
            f"requested horizon {horizon} reaches the blowup time {geo.t_max}; "
            "only the squared density continues past it"
        )
    ts = np.linspace(0.0, horizon, args.samples)

    def sample(t):
        jac = hsflow.jacobian_formula(geo, float(t)).values
        rho = hsflow.rho_along_flow(geo, float(t)).values
        return {
            "t": float(t),
            "min_jacobian": float(np.min(jac)),
            "jacobian_mass": float(grid.node_weight * np.sum(jac)),
            "sup_rho": float(np.max(np.abs(rho))),
            "energy": hsflow.flow_energy(geo, float(t)),
        }

    series = [sample(t) for t in ts]
    energies = [row["energy"] for row in series]
    doc = {
        "meta": {"grid": _grid_meta(grid), "mass": geo.mass,
                 "params": {"div_u0": args.div_u0, "t_final": horizon,
                            "samples": args.samples}},
        "results": {
            "kappa": geo.kappa,
            "t_max": geo.t_max,
            "conserved_energy": geo.conserved_energy,
            "series": series,
        },
        "diagnostics": {
            "energy_drift": float(
                np.max(np.abs(np.array(energies) - geo.conserved_energy))
                / geo.conserved_energy
            ),
        },
    }
    if grid.dim == 1 and geo.kappa > 0:
        doc["diagnostics"]["equation_residual"] = hsflow.equation_residual(
            geo, 0.5 * horizon
        )
    return doc


def _cmd_moser_lift(args) -> dict:
    grid = _build_grid(args)
    geo = _make_hs(args, grid)
    horizon = _hs_horizon(args, geo)
    t_grid = np.linspace(0.0, horizon, args.samples)
    flow = moser.lift_flow(
        lambda t: hsflow.jacobian_formula(geo, t), t_grid, grid, dt=args.dt,
        # φ = f² on the great circle f, so ∂ₜφ = 2 f ∂ₜf in closed form
        dphi=lambda t: 2.0 * (hsflow.sphere_path(geo, t).values
                              * hsflow.sphere_velocity(geo, t).values),
    )
    series = []
    for i, t in enumerate(t_grid):
        phi = hsflow.jacobian_formula(geo, float(t)).values
        series.append(
            {
                "t": float(t),
                "jacobian_error": float(np.max(np.abs(flow.jacobians[i] - phi))),
                "jacobian_mass": float(grid.node_weight * np.sum(flow.jacobians[i])),
            }
        )
    return {
        "meta": {"grid": _grid_meta(grid), "mass": geo.mass,
                 "params": {"div_u0": args.div_u0, "t_final": horizon,
                            "samples": args.samples, "dt": args.dt}},
        "results": {"series": series},
        "diagnostics": {
            "max_jacobian_error": max(r["jacobian_error"] for r in series),
            "max_mass_drift": max(
                abs(r["jacobian_mass"] - grid.total_volume) for r in series
            ),
        },
    }


def _cmd_alpha(args) -> dict:
    grid = _build_grid(args)
    if grid.dim != 1:
        raise ValidationError("the alpha family lives on the circle (--dim 1)")
    u0 = _field_from_spec(args.u0, grid)
    u0 = ScalarField(grid, u0.values - u0.values[0])
    conn = circle.AlphaConnection(args.alpha)
    u_final = conn.evolve(u0, args.t_final, args.dt)

    def h1dot_energy(u):
        ux = derivative(u).values
        return float(grid.node_weight * np.sum(ux * ux))

    rng = np.random.default_rng(args.seed)
    du = random_band_limited(grid, 8, rng)
    dv = random_band_limited(grid, 8, rng)
    dw = random_band_limited(grid, 8, rng)
    return {
        "meta": {"grid": _grid_meta(grid), "mass": grid.total_volume,
                 "params": {"alpha": args.alpha, "u0": args.u0,
                            "t_final": args.t_final, "dt": args.dt,
                            "seed": args.seed}},
        "results": {
            "u_final": u_final.values.tolist(),
            "h1dot_energy_initial": h1dot_energy(u0),
            "h1dot_energy_final": h1dot_energy(u_final),
        },
        "diagnostics": {
            "duality_residual": circle.duality_residual(args.alpha, du, dv, dw),
        },
    }


def _cmd_invariants(args) -> dict:
    grid = _build_grid(args)
    geo = _make_hs(args, grid)
    _require_nontrivial(args, geo)
    count = args.truncation
    if count is None:  # an explicit count was range-checked in _check_ranges
        count = invariants.default_truncation(grid)
    period = 2.0 * np.pi / geo.kappa
    ts = np.linspace(0.0, period, args.samples)

    def coords_at(t):
        # project the raw great-circle point: past blowup it changes sign,
        # which is fine on the sphere
        point = SpherePoint(hsflow.sphere_path(geo, float(t)), np.sqrt(geo.mass))
        fdot = hsflow.sphere_velocity(geo, float(t))
        return invariants.project(point, fdot, count)

    coords = [coords_at(t) for t in ts]
    h_series = np.array([invariants.angular_momenta(c) for c in coords])
    hk_series = np.array([invariants.chain_Hk(c) for c in coords])
    hp_series = np.array([invariants.chain_Hproj(c) for c in coords])

    def rel_drift(series):
        ref = np.max(np.abs(series[0])) or 1.0
        return float(np.max(np.abs(series - series[0])) / ref)

    return {
        "meta": {"grid": _grid_meta(grid), "mass": geo.mass,
                 "params": {"div_u0": args.div_u0, "samples": args.samples,
                            "truncation": count}},
        "results": {
            "kappa": geo.kappa,
            "period": period,
            "angular_momentum_drift": rel_drift(h_series),
            "nested_chain_drift": rel_drift(hk_series),
            "projected_chain_drift": rel_drift(hp_series),
            "position_leak": max(c.position_leak for c in coords),
            "momentum_leak": max(c.momentum_leak for c in coords),
        },
        "diagnostics": {"times": ts.tolist()},
    }


def _cmd_simplex_demo(args) -> dict:
    if args.t_range:
        try:
            lo, hi, n = args.t_range.split(",")
            ts = np.linspace(float(lo), float(hi), int(n))
        except ValueError:
            ts = np.array([])
        if ts.size == 0 or not np.all(np.isfinite(ts)):
            raise ValidationError("--t-range must be lo,hi,count: finite bounds, count >= 1")
    else:
        ts = np.array([args.t])
    series = []
    for t in ts:
        point = simplex.geodesic_probs(float(t))
        series.append(
            {
                "t": float(t),
                "p_a": float(point.probs[0]),
                "p_b": float(point.probs[1]),
                "p_c": float(point.probs[2]),
                "total": float(np.sum(point.probs)),
            }
        )
    return {
        "meta": {"params": {"t": args.t, "t_range": args.t_range}},
        "results": {"bounce_time": simplex.BOUNCE_TIME, "series": series},
        "diagnostics": {},
    }


def _cmd_heat_demo(args) -> dict:
    grid = _build_grid(args)
    rho0 = _density_from_spec(args.rho0, grid, args.mass)
    rho_t = spheregeo.heat_flow(rho0, args.t_final)
    return {
        "meta": {"grid": _grid_meta(grid), "mass": rho0.mass,
                 "params": {"rho0": args.rho0, "t_final": args.t_final}},
        "results": {
            "initial": rho0.values.tolist(),
            "final": rho_t.values.tolist(),
        },
        "diagnostics": {
            "mass_drift": abs(integrate(rho_t.field) - rho0.mass) / rho0.mass,
        },
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser, mass=True):
    parser.add_argument("--grid", type=int, default=256, help="nodes per axis")
    parser.add_argument("--dim", type=int, choices=(1, 2), default=1)
    parser.add_argument("--length", default="1", help="period per axis: Lx or Lx,Ly")
    if mass:
        parser.add_argument(
            "--mass", type=float, default=None,
            help="normalize density inputs to this total mass",
        )
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densgeo",
        description="Spherical geometry of densities: distances, explicit "
        "geodesics and blowup, Moser lifts, conserved quantities, and the "
        "alpha-connection family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distances between two densities")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("geodesic", help="great-circle interpolation of densities")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--samples", type=int, default=11)
    _add_common(p)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("hs", help="closed-form flow: kappa, blowup, time series")
    p.add_argument("--div-u0", required=True, dest="div_u0")
    p.add_argument("--t-final", type=float, default=None, dest="t_final")
    p.add_argument("--frac-of-tmax", type=float, default=0.8, dest="frac_of_tmax")
    p.add_argument("--samples", type=int, default=9)
    _add_common(p, mass=False)
    p.set_defaults(func=_cmd_hs)

    p = sub.add_parser("moser-lift", help="lift a Jacobian series to a flow")
    p.add_argument("--div-u0", required=True, dest="div_u0")
    p.add_argument("--t-final", type=float, default=None, dest="t_final")
    p.add_argument("--frac-of-tmax", type=float, default=0.5, dest="frac_of_tmax")
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--dt", type=float, default=1e-3)
    _add_common(p, mass=False)
    p.set_defaults(func=_cmd_moser_lift)

    p = sub.add_parser("alpha", help="alpha-connection geodesic run")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--u0", required=True)
    p.add_argument("--t-final", type=float, default=0.3, dest="t_final")
    p.add_argument("--dt", type=float, default=1e-4)
    _add_common(p, mass=False)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("invariants", help="conserved-quantity drift table")
    p.add_argument("--div-u0", required=True, dest="div_u0")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--truncation", type=int, default=None)
    _add_common(p, mass=False)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("simplex-demo", help="three-outcome bouncing geodesic")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--t-range", default=None, dest="t_range",
                   help="lo,hi,count for a sampled table")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simplex_demo)

    p = sub.add_parser("heat-demo", help="heat flow as a metric gradient flow")
    p.add_argument("--rho0", required=True)
    p.add_argument("--t-final", type=float, default=0.05, dest="t_final")
    _add_common(p)
    p.set_defaults(func=_cmd_heat_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        document = args.func(args)
    except DensgeoError as exc:
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exc.exit_code,
            }
        }
        sys.stdout.write(dumps(error) + "\n")
        return exc.exit_code
    _emit(document, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
