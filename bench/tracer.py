"""In-memory span tracer for the traced benchmark mode.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of densgeo's modules are wrapped, and every module
attribute (in densgeo and in the benchmark's own modules) that is bound to
one of them is rebound to the wrapper for the traced pass and restored
afterwards.  The package itself is never edited.  A span records its name,
start, end, parent span and task id; counts measured at the boundary
(points evaluated, fine-grid nodes, bytes emitted) ride along on the span.
Private helpers are not wrapped, so their time is charged to the self time
of the public function that called them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

from densgeo import (
    _interp,
    circle,
    cli,
    exprparse,
    grid,
    hsflow,
    invariants,
    moser,
    spheregeo,
)


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, task id, counts]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.task_id = -1  # advanced by the caller as each task starts

    def wrap(self, name, fn, counts=None):
        """Return fn wrapped so that each call records a span ``name``.

        ``counts(*args, **kwargs)`` may return a dict of counts computed
        from the arguments; it runs before the span's clock starts.
        """
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = counts(*args, **kwargs) if counts is not None else None
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.task_id, extra]
            open_.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_.pop()

        return traced

    def note(self, key, value):
        """Add a count to the innermost open span."""
        record = self.spans[self._open[-1]]
        if record[5] is None:
            record[5] = {}
        record[5][key] = record[5].get(key, 0) + value

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, task, extra in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "task": task, "counts": extra}
                ) + "\n")


# (span name, owner, attribute, counts); an owner that is a class has the
# attribute replaced on the class itself
def _boundaries():
    spline = _interp.SplineEvaluator
    conn = circle.AlphaConnection
    return [
        ("interp.SplineEvaluator.build", spline, "__init__",
         lambda self, g, values, factor=4: {"fine_nodes": np.size(values) * factor ** g.dim}),
        ("interp.SplineEvaluator.eval", spline, "__call__",
         lambda self, *points: {"points": np.size(points[0])}),
        ("interp.trig_eval", _interp, "trig_eval",
         lambda g, values, *points: {"points": np.size(points[0])}),
        ("interp.invert_monotone", _interp, "invert_monotone", None),
        ("moser.invert_map", moser, "invert_map", None),
        ("moser.lift_flow", moser, "lift_flow", None),
        ("moser.transport_map", moser, "transport_map", None),
        ("hsflow.integrate_flow", hsflow, "integrate_flow", None),
        ("hsflow.jacobian_by_ode", hsflow, "jacobian_by_ode", None),
        ("hsflow.HsGeodesic.from_divergence", hsflow.HsGeodesic, "from_divergence", None),
        ("hsflow.jacobian_formula", hsflow, "jacobian_formula", None),
        ("hsflow.rho_along_flow", hsflow, "rho_along_flow", None),
        ("hsflow.sphere_path", hsflow, "sphere_path", None),
        ("hsflow.sphere_velocity", hsflow, "sphere_velocity", None),
        ("hsflow.flow_energy", hsflow, "flow_energy", None),
        ("hsflow.eulerian_rho", hsflow, "eulerian_rho", None),
        ("hsflow.equation_residual", hsflow, "equation_residual", None),
        ("grid.derivative", grid, "derivative", None),
        ("grid.gradient", grid, "gradient", None),
        ("grid.laplacian_inverse", grid, "laplacian_inverse", None),
        ("grid.dealiased_product", grid, "dealiased_product", None),
        ("circle.AlphaConnection.evolve", conn, "evolve", None),
        ("circle.AlphaConnection.geodesic_rhs", conn, "geodesic_rhs", None),
        ("circle.a_inverse", circle, "a_inverse", None),
        ("circle.evolve_classic", circle, "evolve_classic", None),
        ("circle.alpha_one_explicit", circle, "alpha_one_explicit", None),
        ("invariants.project", invariants, "project", None),
        ("invariants.fourier_basis", invariants, "fourier_basis", None),
        ("invariants.chains", invariants, "angular_momenta", None),
        ("invariants.chains", invariants, "chain_Hk", None),
        ("invariants.chains", invariants, "chain_Hproj", None),
        ("spheregeo.distances", spheregeo, "bhattacharyya", None),
        ("spheregeo.distances", spheregeo, "spherical_distance", None),
        ("spheregeo.distances", spheregeo, "hellinger_distance", None),
        ("spheregeo.geodesic", spheregeo, "geodesic", None),
        ("spheregeo.geodesic", spheregeo.GeodesicPath, "samples", None),
        ("spheregeo.heat_flow", spheregeo, "heat_flow", None),
        ("exprparse.evaluate_on_grid", exprparse, "evaluate_on_grid", None),
        ("cli.command", cli, "_cmd_dist", None),
        ("cli.command", cli, "_cmd_geodesic", None),
        ("cli.command", cli, "_cmd_hs", None),
        ("cli.command", cli, "_cmd_moser_lift", None),
        ("cli.command", cli, "_cmd_alpha", None),
        ("cli.command", cli, "_cmd_invariants", None),
        ("cli.command", cli, "_cmd_simplex_demo", None),
        ("cli.command", cli, "_cmd_heat_demo", None),
    ]


def _emit_counting_bytes(tracer, emit):
    def emit_and_count(document, args):
        start = sys.stdout.tell()
        emit(document, args)
        tracer.note("bytes", sys.stdout.tell() - start)
    return emit_and_count


def _parser_with_traced_parse(tracer, build):
    def build_parser():
        parser = build()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser
    return build_parser


def install(tracer, task_module):
    """Rebind every traced boundary to its wrapper; return an undo callable.

    ``task_module`` (the benchmark's task code) is scanned for bindings too,
    and its ``phi_of``, the Jacobian history handed to ``lift_flow``, is
    traced as ``moser.phi``.
    """
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "densgeo" or n.startswith("densgeo."))]
    modules.append(task_module)
    for name, owner, attr, counts in _boundaries():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replace(owner, attr, classmethod(tracer.wrap(name, raw.__func__, counts)))
            continue
        wrapped = tracer.wrap(name, raw, counts)
        if isinstance(owner, type):
            replace(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    replace(module, key, wrapped)
    replace(cli, "_emit", tracer.wrap("cli.emit", _emit_counting_bytes(tracer, cli._emit)))
    replace(cli, "build_parser",
            tracer.wrap("cli.parse", _parser_with_traced_parse(tracer, cli.build_parser)))
    replace(task_module, "phi_of", tracer.wrap("moser.phi", task_module.phi_of))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# per-layer metrics: (metric name, span name, statistic)
LAYER_METRICS = [
    ("interp.SplineEvaluator.build.calls", "interp.SplineEvaluator.build", "calls"),
    ("interp.SplineEvaluator.build.self_s", "interp.SplineEvaluator.build", "self_s"),
    ("interp.SplineEvaluator.build.fine_nodes", "interp.SplineEvaluator.build", "fine_nodes"),
    ("interp.SplineEvaluator.eval.calls", "interp.SplineEvaluator.eval", "calls"),
    ("interp.SplineEvaluator.eval.self_s", "interp.SplineEvaluator.eval", "self_s"),
    ("interp.SplineEvaluator.eval.points", "interp.SplineEvaluator.eval", "points"),
    ("interp.trig_eval.calls", "interp.trig_eval", "calls"),
    ("interp.trig_eval.self_s", "interp.trig_eval", "self_s"),
    ("interp.trig_eval.points", "interp.trig_eval", "points"),
    ("interp.invert_monotone.calls", "interp.invert_monotone", "calls"),
    ("interp.invert_monotone.self_s", "interp.invert_monotone", "self_s"),
    ("interp.invert_monotone.newton_iters", "interp.invert_monotone", "evaluator_calls"),
    ("moser.invert_map.calls", "moser.invert_map", "calls"),
    ("moser.invert_map.self_s", "moser.invert_map", "self_s"),
    ("moser.invert_map.iters", "moser.invert_map", "evaluator_calls"),
    ("moser.phi.calls", "moser.phi", "calls"),
    ("moser.lift_flow.self_s", "moser.lift_flow", "self_s"),
    ("moser.transport_map.self_s", "moser.transport_map", "self_s"),
    ("hsflow.integrate_flow.self_s", "hsflow.integrate_flow", "self_s"),
    ("hsflow.jacobian_by_ode.self_s", "hsflow.jacobian_by_ode", "self_s"),
    ("hsflow.HsGeodesic.from_divergence.self_s", "hsflow.HsGeodesic.from_divergence", "self_s"),
]
for _span in ("hsflow.jacobian_formula", "hsflow.rho_along_flow", "hsflow.sphere_path",
              "hsflow.sphere_velocity", "hsflow.flow_energy", "hsflow.eulerian_rho",
              "hsflow.equation_residual", "grid.derivative", "grid.gradient",
              "grid.laplacian_inverse", "grid.dealiased_product"):
    LAYER_METRICS += [(f"{_span}.calls", _span, "calls"), (f"{_span}.self_s", _span, "self_s")]
LAYER_METRICS += [
    ("circle.AlphaConnection.evolve.self_s", "circle.AlphaConnection.evolve", "self_s"),
    ("circle.AlphaConnection.geodesic_rhs.calls", "circle.AlphaConnection.geodesic_rhs", "calls"),
    ("circle.a_inverse.calls", "circle.a_inverse", "calls"),
    ("circle.a_inverse.self_s", "circle.a_inverse", "self_s"),
    ("circle.evolve_classic.self_s", "circle.evolve_classic", "self_s"),
    ("circle.alpha_one_explicit.self_s", "circle.alpha_one_explicit", "self_s"),
    ("invariants.project.calls", "invariants.project", "calls"),
    ("invariants.project.self_s", "invariants.project", "self_s"),
    ("invariants.fourier_basis.calls", "invariants.fourier_basis", "calls"),
    ("invariants.fourier_basis.self_s", "invariants.fourier_basis", "self_s"),
    ("invariants.chains.self_s", "invariants.chains", "self_s"),
    ("spheregeo.distances.self_s", "spheregeo.distances", "self_s"),
    ("spheregeo.geodesic.self_s", "spheregeo.geodesic", "self_s"),
    ("spheregeo.heat_flow.self_s", "spheregeo.heat_flow", "self_s"),
    ("exprparse.evaluate_on_grid.calls", "exprparse.evaluate_on_grid", "calls"),
    ("exprparse.evaluate_on_grid.self_s", "exprparse.evaluate_on_grid", "self_s"),
    ("cli.parse.self_s", "cli.parse", "self_s"),
    ("cli.command.self_s", "cli.command", "self_s"),
    ("cli.emit.self_s", "cli.emit", "self_s"),
    ("cli.emit.bytes", "cli.emit", "bytes"),
]

# evaluator calls made directly inside these spans are their iteration counts
_ITERATING = ("moser.invert_map", "interp.invert_monotone")
_EVALUATORS = ("interp.SplineEvaluator.eval", "interp.trig_eval")


def aggregate(spans):
    """Per-span-name calls, self time and boundary counts."""
    child_time = [0.0] * len(spans)
    stats = defaultdict(lambda: defaultdict(float))
    for name, start, end, parent, _task, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name in _EVALUATORS and spans[parent][0] in _ITERATING:
                stats[spans[parent][0]]["evaluator_calls"] += 1
    for index, (name, start, end, _parent, _task, extra) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        for key, value in (extra or {}).items():
            entry[key] += value
    return stats


def layer_metrics(spans):
    """The per-layer metrics, in LAYER_METRICS order, as name -> (value, unit)."""
    stats = aggregate(spans)
    out = {}
    for metric, span, stat in LAYER_METRICS:
        value = stats[span][stat] if span in stats else 0.0
        unit = "s" if stat == "self_s" else ("bytes" if stat == "bytes" else "count")
        out[metric] = (value if unit == "s" else int(value), unit)
    return out
