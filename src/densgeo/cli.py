"""Command-line front end.

Every subcommand emits a single machine-readable document, built by
``_document``, with the shape
{meta: {grid, mass, params}, results: {...}, diagnostics: {...}}: JSON by
default, or with --format csv one ``path,value`` row per number (``_to_csv``).
Floating-point values are serialized with 17 significant digits, so
identical inputs and --seed produce byte-identical output.  Validation
failures, argument-parsing rejections included, exit 2 with an error object;
numerical failures exit 1, and so does a NaN or infinite result
(NonFiniteResult), so the output is strict JSON.  Each numeric flag declares
its domain, sizes included, in its parser type (``_in``): a value outside it
exits 2 when parsed.  Rules across two flags are checked before the grid is
built.  Any other exception becomes an InternalError object (exit 1).

The parser is built once per process, on the first request, and ``main``
looks each subcommand up by name (``_cmd_<name>``) when the request runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from itertools import repeat

import numpy as np

from . import circle, hsflow, invariants, moser, simplex, spheregeo
from .density import Density, density_from_values, normalize, uniform_density
from .errors import BeyondBlowup, DensgeoError, InternalError, NonFiniteResult, ValidationError
from .exprparse import evaluate_on_grid
from .grid import (
    PeriodicGrid,
    ScalarField,
    integrate,
    mean,
    random_band_limited,
)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteResult(f"the result contains the non-finite value {x}")
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (deterministic output)."""
    if type(obj) is float:
        return _format_float(obj)
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
        if {*map(type, seq)} == {float}:  # plain floats: checked and formatted in one pass
            if not all(map(math.isfinite, seq)):  # _format_float raises NonFiniteResult
                _format_float(next(v for v in seq if not math.isfinite(v)))
            return "[" + ", ".join(map(format, seq, repeat(".17g"))) + "]"
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


def _leaves(value, path):
    """(dotted path, value) of every scalar in ``value``, in document order."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = enumerate(value)
    else:
        yield path, value
        return
    for key, item in items:
        yield from _leaves(item, f"{path}.{key}" if path else str(key))


def _to_csv(document: dict) -> str:
    """One ``path,value`` row per number of ``document``, formatted as in the
    JSON; strings, booleans and nulls become ``# path=value`` comment lines."""
    lines = ["path,value"]
    for path, value in _leaves(document, ""):
        text = _serialize_scalar(value)
        number = isinstance(value, (int, float, np.number)) and not isinstance(value, bool)
        lines.append(f"{path},{text}" if number else f"# {path}={text}")
    return "\n".join(lines) + "\n"


def _emit(document: dict, args) -> None:
    text = (
        _to_csv(document) if args.format == "csv" else dumps(document) + "\n"
    )
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------


def _build_grid(args) -> PeriodicGrid:
    # the rules that involve two flags; each flag's own domain is its type's
    if args.grid**args.dim > MAX_NODES:
        raise ValidationError(f"--grid {args.grid} on {args.dim} axes exceeds {MAX_NODES} nodes")
    lengths = args.length * args.dim if len(args.length) == 1 else args.length
    if len(lengths) != args.dim:
        raise ValidationError("--length must give one value, or one per axis")
    return PeriodicGrid((args.grid,) * args.dim, lengths)


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
    return density_from_values(grid, field.values)


def _document(grid, mass, params: dict, results: dict, diagnostics: dict) -> dict:
    """A subcommand's document; ``grid=None`` gives a meta of params only."""
    meta = {"params": params} if grid is None else {
        "grid": {"dim": grid.dim, "points_per_axis": list(grid.shape),
                 "lengths": list(grid.lengths), "total_volume": grid.total_volume},
        "mass": mass,
        "params": params,
    }
    return {"meta": meta, "results": results, "diagnostics": diagnostics}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dist(args) -> dict:
    grid = _build_grid(args)
    a = _density_from_spec(args.a, grid, args.mass)
    b = _density_from_spec(args.b, grid, args.mass)
    results = {
        "bhattacharyya": spheregeo.bhattacharyya(a, b),
        "spherical": spheregeo.spherical_distance(a, b),
        "hellinger": spheregeo.hellinger_distance(a, b),
    }
    return _document(grid, a.mass, {"a": args.a, "b": args.b}, results, {})


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
    return _document(
        grid, a.mass, {"a": args.a, "b": args.b, "samples": args.samples},
        {"angle": path.angle, "length": path.length, "samples": samples},
        {"endpoint_distance": spheregeo.spherical_distance(a, b)},
    )


def _make_hs(args, grid) -> hsflow.HsGeodesic:
    field = _field_from_spec(args.div_u0, grid)
    return hsflow.HsGeodesic.from_divergence(ScalarField(grid, field.values - mean(field)))


def _require_nontrivial(args, geo: hsflow.HsGeodesic) -> None:
    if geo.kappa == 0.0:
        raise ValidationError(f"{args.command} needs a non-trivial initial divergence")


def _hs_horizon(args, geo) -> float:
    """--t-final, else --frac-of-tmax of the blowup time (1 if none);
    BeyondBlowup if it reaches the blowup time."""
    if args.t_final is not None:
        horizon = float(args.t_final)
    elif not np.isfinite(geo.t_max):
        horizon = 1.0
    else:
        horizon = args.frac_of_tmax * geo.t_max
    if horizon >= geo.t_max:
        raise BeyondBlowup(
            f"requested horizon {horizon} reaches the blowup time {geo.t_max}; "
            "only the squared density continues past it"
        )
    return horizon


def _cmd_hs(args) -> dict:
    grid = _build_grid(args)
    geo = _make_hs(args, grid)
    _require_nontrivial(args, geo)
    horizon = _hs_horizon(args, geo)
    ts = np.linspace(0.0, horizon, args.samples)

    # a row's sum adds its nodes in the order a lone snapshot's does, and the
    # factors 2 of ρ = 2ḟ/f and 4 of ρ²·Jac = (2ḟ)² scale by powers of two
    # after the reductions, which commutes with rounding, so each row has
    # flow_energy's bits
    series = []
    for times, f, fdot in hsflow.great_circle_chunks(geo, ts, grid.node_count):
        jac = f**2
        series += [
            {"t": t, "min_jacobian": low, "jacobian_mass": mass, "sup_rho": sup, "energy": e}
            for t, low, mass, sup, e in zip(
                times.tolist(),
                np.min(jac, axis=1).tolist(),
                (grid.node_weight * np.sum(jac, axis=1)).tolist(),
                (2.0 * np.max(np.abs(fdot / f), axis=1)).tolist(),
                (4.0 * grid.node_weight * np.sum(fdot**2, axis=1)).tolist(),
            )
        ]
    energies = [row["energy"] for row in series]
    diagnostics = {
        "energy_drift": float(
            np.max(np.abs(np.array(energies) - geo.conserved_energy))
            / geo.conserved_energy
        ),
    }
    if grid.dim == 1 and geo.kappa > 0:
        # a difference step of at most 1e-5 t_max, so t + dt_fd stays short
        # of the blowup and resolves ρ_t however early the blowup comes
        diagnostics["equation_residual"] = hsflow.equation_residual(
            geo, 0.5 * horizon, dt_fd=1e-5 * min(1.0, geo.t_max)
        )
    return _document(
        grid, geo.mass,
        {"div_u0": args.div_u0, "t_final": horizon, "samples": args.samples},
        {"kappa": geo.kappa, "t_max": geo.t_max,
         "conserved_energy": geo.conserved_energy, "series": series},
        diagnostics,
    )


def _cmd_moser_lift(args) -> dict:
    grid = _build_grid(args)
    geo = _make_hs(args, grid)
    horizon = _hs_horizon(args, geo)
    t_grid = np.linspace(0.0, horizon, args.samples)
    flow = moser.lift_flow(
        lambda t: hsflow.jacobian_formula(geo, t), t_grid, grid, dt=args.dt,
        # φ = f² on the great circle f, so ∂ₜφ = 2fḟ in closed form
        dphi=lambda t: 2.0 * math.prod(hsflow.great_circle(geo, t)),
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
    return _document(
        grid, geo.mass,
        {"div_u0": args.div_u0, "t_final": horizon, "samples": args.samples, "dt": args.dt},
        {"series": series},
        {"max_jacobian_error": max(r["jacobian_error"] for r in series),
         "max_mass_drift": max(abs(r["jacobian_mass"] - grid.total_volume) for r in series)},
    )


def _cmd_alpha(args) -> dict:
    grid = _build_grid(args)
    if grid.dim != 1:
        raise ValidationError("the alpha family lives on the circle (--dim 1)")
    u0 = _field_from_spec(args.u0, grid)
    u0 = ScalarField(grid, u0.values - u0.values[0])
    u_final, error, steps, steps_total = circle.evolve_to_tolerance(
        circle.AlphaConnection(args.alpha).evolve, u0, args.t_final, args.dt)

    def h1dot_energy(u):  # ∫ uₓ² dx = fisher_rao_inner(u, u) = 4 h1dot_inner(u, u)
        return spheregeo.fisher_rao_inner(grid, u.values[None], u.values[None])

    # degree below N/3, so the products in the duality check do not alias
    degree = min(8, (args.grid - 1) // 3)
    rng = np.random.default_rng(args.seed)
    du, dv, dw = (random_band_limited(grid, degree, rng) for _ in range(3))
    return _document(
        grid, grid.total_volume,
        {"alpha": args.alpha, "u0": args.u0, "t_final": args.t_final,
         "dt": args.t_final / steps, "seed": args.seed},
        {"u_final": u_final.values.tolist(), "h1dot_energy_initial": h1dot_energy(u0),
         "h1dot_energy_final": h1dot_energy(u_final)},
        {"duality_residual": circle.duality_residual(args.alpha, du, dv, dw),
         "time_error_estimate": error if math.isfinite(error) else None,  # None: no companion finished
         "steps": steps, "steps_total": steps_total},
    )


def _cmd_invariants(args) -> dict:
    grid = _build_grid(args)
    geo = _make_hs(args, grid)
    _require_nontrivial(args, geo)
    count = args.truncation or invariants.default_truncation(grid)
    period = 2.0 * np.pi / geo.kappa
    ts = np.linspace(0.0, period, args.samples)
    weighted_basis = grid.node_weight * invariants.fourier_basis(grid, count).reshape(count, -1)

    # chunks bound the stacked chains' (times, K, K) arrays too, and h feeds
    # the nested chain (chain_Hk would build it again); each drift and leak is
    # a running maximum, the drifts against the first sample's values.  The
    # raw great-circle point is projected: past blowup it changes sign, which
    # is fine on the sphere
    firsts, drifts, leaks = None, [0.0] * 3, [0.0] * 2
    for _, f, fdot in hsflow.great_circle_chunks(geo, ts, max(grid.node_count, count**2)):
        c = invariants.project_rows(grid, f, fdot, float(np.sqrt(geo.mass)), weighted_basis)
        h = invariants.angular_momenta(c)
        chains = (h, invariants._nested_sums(h), invariants.chain_Hproj(c))
        firsts = firsts or [chain[0] for chain in chains]
        drifts = [max(d, float(np.max(np.abs(chain - chain0))))
                  for d, chain, chain0 in zip(drifts, chains, firsts)]
        leaks = [max(leak, float(np.max(row_leaks)))
                 for leak, row_leaks in zip(leaks, (c.position_leak, c.momentum_leak))]

    def rel_drift(drift, first):
        return drift / (float(np.max(np.abs(first))) or 1.0)

    results = {
        "kappa": geo.kappa,
        "period": period,
        "angular_momentum_drift": rel_drift(drifts[0], firsts[0]),
        "nested_chain_drift": rel_drift(drifts[1], firsts[1]),
        "projected_chain_drift": rel_drift(drifts[2], firsts[2]),
        "position_leak": leaks[0],
        "momentum_leak": leaks[1],
    }
    return _document(
        grid, geo.mass,
        {"div_u0": args.div_u0, "samples": args.samples, "truncation": count},
        results, {"times": ts.tolist()},
    )


def _cmd_simplex_demo(args) -> dict:
    if args.t_range:
        lo, hi, count = args.t_range.split(",")
        ts = np.linspace(float(lo), float(hi), int(count))
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
    return _document(None, None, {"t": args.t, "t_range": args.t_range},
                     {"bounce_time": simplex.BOUNCE_TIME, "series": series}, {})


def _cmd_heat_demo(args) -> dict:
    grid = _build_grid(args)
    rho0 = _density_from_spec(args.rho0, grid, args.mass)
    rho_t = spheregeo.heat_flow(rho0, args.t_final)
    return _document(
        grid, rho0.mass, {"rho0": args.rho0, "t_final": args.t_final},
        {"initial": rho0.values.tolist(), "final": rho_t.values.tolist()},
        {"mass_drift": abs(integrate(rho_t.field) - rho0.mass) / rho0.mass},
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# bounds of the flags' domains, so no request can allocate past them
MAX_GRID = 65536  # --grid, nodes per axis
MAX_NODES = 2**18  # --grid, nodes in all (512² on the torus)
MAX_SAMPLES = 1000  # --samples and the --t-range count
MAX_TRUNCATION = 128  # --truncation (at least 2: a chain needs two modes)


def _in(kind, lo=-math.inf, hi=math.inf, lo_open=False):
    """Parser type: a finite ``kind`` (int or float) in [lo, hi], or in
    (lo, hi] when ``lo_open``.  Anything else is rejected (exit 2)."""
    interval = (f"{'(' if lo_open or lo == -math.inf else '['}{lo}, "
                f"{hi}{')' if hi == math.inf else ']'}")

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # fails every comparison below
        if not ((value > lo if lo_open else value >= lo) and value <= hi
                and abs(value) < math.inf):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} in {interval}, got {text!r}")
        return value

    return convert


_FINITE = _in(float)
_POSITIVE = _in(float, 0.0, lo_open=True)
_NON_NEGATIVE = _in(float, 0.0)
_SAMPLES = _in(int, 1, MAX_SAMPLES)


def _lengths(text):
    """--length: one positive period for every axis, or one per axis."""
    return tuple(_POSITIVE(v) for v in text.split(","))


def _t_range(text):
    """--t-range lo,hi,count: a finite span and 1 <= count <= MAX_SAMPLES.
    The text itself is kept, so the document echoes it."""
    parts = text.split(",")
    if len(parts) != 3 or not abs(_FINITE(parts[1]) - _FINITE(parts[0])) < math.inf:
        raise argparse.ArgumentTypeError(f"expected lo,hi,count with a finite span, got {text!r}")
    _SAMPLES(parts[2])
    return text


class _Parser(argparse.ArgumentParser):
    # subparsers share the class: every rejection exits 2 with an error object
    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="densgeo",
        description="Spherical geometry of densities: distances, explicit "
        "geodesics and blowup, Moser lifts, conserved quantities, and the "
        "alpha-connection family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # shared flags, declared once: every subcommand takes the output flags,
    # those on a grid the grid flags, those with density inputs --mass
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to a file")
    output.add_argument("--format", choices=("json", "csv"), default="json")
    output.add_argument("--seed", type=_in(int, 0), default=0)
    gridded = argparse.ArgumentParser(add_help=False, parents=[output])
    gridded.add_argument("--grid", type=_in(int, 8, MAX_GRID), default=256,
                         help="nodes per axis")
    gridded.add_argument("--dim", type=_in(int, 1, 2), default=1, metavar="{1,2}")
    gridded.add_argument("--length", type=_lengths, default="1",
                         help="period per axis: Lx or Lx,Ly")
    densities = argparse.ArgumentParser(add_help=False, parents=[gridded])
    densities.add_argument("--mass", type=_POSITIVE, default=None,
                           help="normalize density inputs to this total mass")

    p = sub.add_parser("dist", parents=[densities], help="distances between two densities")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("geodesic", parents=[densities],
                       help="great-circle interpolation of densities")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--samples", type=_SAMPLES, default=11)

    p = sub.add_parser("hs", parents=[gridded],
                       help="closed-form flow: kappa, blowup, time series")
    p.add_argument("--div-u0", required=True, dest="div_u0")
    p.add_argument("--t-final", type=_NON_NEGATIVE, default=None, dest="t_final")
    p.add_argument("--frac-of-tmax", type=_POSITIVE, default=0.8, dest="frac_of_tmax")
    p.add_argument("--samples", type=_SAMPLES, default=9)

    p = sub.add_parser("moser-lift", parents=[gridded], help="lift a Jacobian series to a flow")
    p.add_argument("--div-u0", required=True, dest="div_u0")
    p.add_argument("--t-final", type=_NON_NEGATIVE, default=None, dest="t_final")
    p.add_argument("--frac-of-tmax", type=_POSITIVE, default=0.5, dest="frac_of_tmax")
    p.add_argument("--samples", type=_SAMPLES, default=4)
    p.add_argument("--dt", type=_POSITIVE, default=1e-3)

    p = sub.add_parser("alpha", parents=[gridded], help="alpha-connection geodesic run")
    p.add_argument("--alpha", type=_FINITE, required=True)
    p.add_argument("--u0", required=True)
    p.add_argument("--t-final", type=_NON_NEGATIVE, default=0.3, dest="t_final")
    p.add_argument("--dt", type=_POSITIVE, default=None, help="fixed RK4 step; omit to choose it")

    p = sub.add_parser("invariants", parents=[gridded], help="conserved-quantity drift table")
    p.add_argument("--div-u0", required=True, dest="div_u0")
    p.add_argument("--samples", type=_SAMPLES, default=50)
    p.add_argument("--truncation", type=_in(int, 2, MAX_TRUNCATION), default=None)

    p = sub.add_parser("simplex-demo", parents=[output], help="three-outcome bouncing geodesic")
    p.add_argument("--t", type=_FINITE, default=0.0)
    p.add_argument("--t-range", type=_t_range, default=None, dest="t_range",
                   help="lo,hi,count for a sampled table")

    p = sub.add_parser("heat-demo", parents=[densities],
                       help="heat flow as a metric gradient flow")
    p.add_argument("--rho0", required=True)
    p.add_argument("--t-final", type=_NON_NEGATIVE, default=0.05, dest="t_final")

    return parser


@functools.lru_cache(maxsize=1)
def _parser_from(build):
    """The parser ``build`` returns, built once and reused by every request.
    Keyed on the builder, so a rebound ``build_parser`` gets its own parser."""
    return build()


def main(argv=None) -> int:
    try:
        args = _parser_from(build_parser).parse_args(argv)
        command = globals()["_cmd_" + args.command.replace("-", "_")]
        # non-finite values end as an error object (NonFiniteResult), so
        # numpy's overflow and invalid-value warnings would only repeat it
        with np.errstate(all="ignore"):
            _emit(command(args), args)
    except Exception as exc:  # the last resort still writes an error object
        if not isinstance(exc, DensgeoError):
            traceback.print_exc(file=sys.stderr)
            exc = InternalError(f"{type(exc).__name__}: {exc}")
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exc.exit_code,
            }
        }
        sys.stdout.write(dumps(error) + "\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
