"""Moser lifts: diffeomorphism flows realizing a prescribed positive Jacobian,
and transport maps between densities.

On the circle the lift is the exact primitive η(t, x) = ∫₀ˣ φ(t, s) ds.  On
the torus a vector field X = ∇f/φ with Δf = -∂φ/∂t is flowed forward from
the identity and the resulting map is inverted node-wise by a damped fixed
point; the inverse is the lift.
"""

from __future__ import annotations

import numpy as np

from . import _interp
from .density import Density
from .errors import (
    InversionDiverged,
    MassDrift,
    MassMismatch,
    NonPositiveJacobian,
)
from .grid import (
    PeriodicGrid,
    ScalarField,
    fixed_steps,
    gradient,
    laplacian_inverse,
    rk4_step,
)
from .grid import periodic_primitive as moser_primitive_1d
from .hsflow import FlowMap, map_jacobian

_FD_STENCIL = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_FD_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])


def _as_phi_callable(phi, t_grid, grid):
    """Normalize the Jacobian input to callables t -> values, t -> d/dt values."""
    if callable(phi):
        def phi_at(t):
            out = phi(t)
            return out.values if isinstance(out, ScalarField) else np.asarray(out, float)

        def dphi_at(t, h=1e-4):
            samples = np.stack([phi_at(t + off * h) for off in _FD_OFFSETS])
            return np.tensordot(_FD_STENCIL, samples, axes=1) / h

        return phi_at, dphi_at

    from scipy.interpolate import CubicSpline

    series = np.stack(
        [p.values if isinstance(p, ScalarField) else np.asarray(p, float) for p in phi]
    )
    spline = CubicSpline(np.asarray(t_grid, float), series, axis=0)
    deriv = spline.derivative()
    return (lambda t: spline(t)), (lambda t: deriv(t))


def _validate_phi(grid: PeriodicGrid, values: np.ndarray, t: float) -> None:
    if np.min(values) <= 0.0:
        raise NonPositiveJacobian(f"prescribed Jacobian is not positive at t = {t}")
    total = grid.node_weight * np.sum(values)
    if abs(total - grid.total_volume) > 1e-8 * grid.total_volume:
        raise MassDrift(
            f"prescribed Jacobian integrates to {total!r} at t = {t}, "
            f"expected {grid.total_volume!r}"
        )


def invert_map(
    grid: PeriodicGrid,
    positions: np.ndarray,
    initial: np.ndarray | None = None,
    damping: float = 0.8,
    max_iter: int = 50,
    tol: float = 1e-12,
    pad_factor: int = 4,
) -> np.ndarray:
    """Node-wise inverse of a near-identity grid map by damped fixed point.

    Solves map(x) = y for every node y, iterating
    x <- x + damping (y - map(x)) on the trigonometric interpolant of the
    periodic displacement.  Diverges (by design) when the map degenerates.
    """
    disp = _interp.spline_components(grid, positions - grid.identity, pad_factor)
    x = grid.identity if initial is None else initial
    scale = max(grid.lengths)
    for _ in range(max_iter):
        mapped = x + disp(*x)
        update = damping * (grid.identity - mapped)
        x = x + update
        if np.max(np.abs(update)) < tol * scale:
            return x
    raise InversionDiverged(
        f"map inversion did not converge in {max_iter} iterations "
        f"(last update {np.max(np.abs(update)):.3e})"
    )


def lift_flow(
    phi,
    t_grid,
    grid: PeriodicGrid,
    dt: float = 1e-3,
    dphi=None,
    pad_factor: int = 4,
) -> FlowMap:
    """Family of diffeomorphisms η(t) with Jac_μ η(t) = φ(t), φ(0) = 1.

    Parameters
    ----------
    phi : callable or sequence
        Prescribed Jacobian: a callable t -> values, or one field per entry
        of ``t_grid`` (interpolated cubically in time).
    t_grid : array_like
        Increasing times at which the flow is returned; t_grid[0] = 0.
    dt : float
        RK4 step for the torus construction (ignored on the circle, where
        the primitive is exact).
    dphi : callable, optional
        Time derivative of phi; finite differences of phi otherwise.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    phi_at, dphi_default = _as_phi_callable(phi, t_grid, grid)
    dphi_at = dphi if dphi is not None else dphi_default

    phi0 = phi_at(0.0)
    if np.max(np.abs(phi0 - 1.0)) > 1e-10:
        raise NonPositiveJacobian("the lift must start at the identity: φ(0) ≡ 1")
    for t in t_grid:
        _validate_phi(grid, phi_at(t), t)

    if grid.dim == 1:
        positions = [moser_primitive_1d(grid, phi_at(t))[None, :] for t in t_grid]
        jacobians = [map_jacobian(grid, pos) for pos in positions]
        return FlowMap(grid, t_grid, positions, jacobians)

    return _lift_flow_2d(phi_at, dphi_at, t_grid, grid, dt, pad_factor)


def _poisson_velocity(grid, phi_values, dphi_values):
    """Moser vector field X = ∇f/φ with Δf = -∂φ/∂t."""
    rhs = dphi_values - np.mean(dphi_values)  # mean is zero up to FD noise
    f = laplacian_inverse(ScalarField(grid, -rhs))
    grad_f = gradient(f)
    return [c.values / phi_values for c in grad_f.components]


def _lift_flow_2d(phi_at, dphi_at, t_grid, grid, dt, pad_factor):
    xi = grid.identity

    def velocity_at(t, points):
        comps = _poisson_velocity(grid, phi_at(t), dphi_at(t))
        return _interp.spline_components(grid, comps, pad_factor)(*points)

    positions = [grid.identity]
    jacobians = [np.ones(grid.shape)]
    eta_guess = None
    t = float(t_grid[0])
    for t_next in t_grid[1:]:
        n_steps, h = fixed_steps(t_next - t, dt)
        for step in range(n_steps):
            xi = rk4_step(velocity_at, t + step * h, xi, h)
        t = t_next
        eta = invert_map(grid, xi, initial=eta_guess, pad_factor=pad_factor)
        eta_guess = eta
        positions.append(eta)
        jacobians.append(map_jacobian(grid, eta))
    return FlowMap(grid, t_grid, positions, jacobians)


def transport_map(source: Density, target: Density, dt: float = 1e-3) -> FlowMap:
    """Diffeomorphism η with Jac_μ η · (target ∘ η) = source.

    Built along the linear density interpolation: the circle case is the
    exact cumulative-distribution construction, the torus case flows
    X = ∇f / ρ_t with the single Poisson solve Δf = source - target.
    """
    source.grid.check_compatible(target.grid)
    if abs(source.mass - target.mass) > 1e-10 * max(source.mass, target.mass):
        raise MassMismatch(f"masses differ: {source.mass!r} vs {target.mass!r}")
    if np.min(source.values) <= 0.0 or np.min(target.values) <= 0.0:
        raise NonPositiveJacobian("transport requires strictly positive densities")
    grid = source.grid

    if grid.dim == 1:
        # cumulative-distribution construction: F_tgt(η) = F_src, both CDFs
        # rescaled to slope-one circle maps for the monotone inversion
        slope = source.mass / grid.lengths[0]
        f_src = moser_primitive_1d(grid, source.values)
        f_tgt = moser_primitive_1d(grid, target.values)
        eta = _interp.invert_monotone(grid, f_tgt / slope, f_src / slope)
        positions = eta[None, :]
    else:
        positions = _flow_transport(source, target, dt)

    jac = map_jacobian(grid, positions)
    tgt_at = _interp.field_evaluator(grid, target.values)
    residual = float(np.max(np.abs(jac * tgt_at(*positions) - source.values)))
    return FlowMap(
        grid,
        np.array([0.0, 1.0]),
        [grid.identity, positions],
        [np.ones(grid.shape), jac],
        diagnostics={"pushforward_residual": residual},
    )


def _flow_transport(source: Density, target: Density, dt: float) -> np.ndarray:
    """Dynamic Moser construction: flow X = ∇f/ρ_t along the linear density
    interpolation from t = 0 to 1, with the single Poisson solve
    Δf = source - target.  Works in any supported dimension (used for the
    torus; on the circle it produces a rotated representative of the
    cumulative-distribution map)."""
    grid = source.grid
    f = laplacian_inverse(ScalarField(grid, source.values - target.values))
    grad_f = gradient(f)
    grad_at = _interp.spline_components(grid, [c.values for c in grad_f.components])
    src_eval = _interp.SplineEvaluator(grid, source.values)
    tgt_eval = _interp.SplineEvaluator(grid, target.values)

    def velocity(t, points):
        num = grad_at(*points)
        den = (1.0 - t) * src_eval(*points) + t * tgt_eval(*points)
        return num / den

    zeta = grid.identity
    n_steps, h = fixed_steps(1.0, dt)
    for step in range(n_steps):
        zeta = rk4_step(velocity, step * h, zeta, h)
    return zeta


def compose_maps(
    grid: PeriodicGrid, outer: np.ndarray, inner: np.ndarray, pad_factor: int = 4
) -> np.ndarray:
    """Composition (outer ∘ inner) of two grid maps via the periodic
    displacement of the outer map."""
    disp = _interp.spline_components(grid, outer - grid.identity, pad_factor)
    return inner + disp(*inner)
