"""Moser lifts: diffeomorphism flows realizing a prescribed positive Jacobian,
and transport maps between densities.

On the circle the lift is the exact primitive η(t, x) = ∫₀ˣ φ(t, s) ds / ⟨φ(t)⟩,
with ⟨φ⟩ the quadrature mean (1 up to the ``MassDrift`` tolerance).  On
the torus the lift is the inverse of the flow of X = ∇f/φ with
Δf = -∂φ/∂t.  That inverse is never formed by inverting a map: its periodic
displacement d solves ∂ₜd + (X·∇)d + X = 0 and is advected on the grid by
pseudo-spectral RK4, at the rate ``hsflow.inverse_map_rate`` that
``integrate_flow`` advances its back-to-label map by (the product is not
truncated spectrally in either).  The torus transport map advects the same
equation backward in time along the linear density interpolation.
"""

from __future__ import annotations

import numpy as np

from . import _interp
from .density import Density, _check_pair
from .errors import InversionDiverged, MassDrift, NonFiniteInput, NonPositiveJacobian
from .grid import (
    PeriodicGrid,
    ScalarField,
    check_courant,
    fixed_steps,
    laplacian_inverse_gradient,
    per_half_step,
    rk4_step,
)
from .grid import periodic_primitive as moser_primitive_1d
from .hsflow import IDENTITY_TOL, FlowMap, inverse_map_rate, map_jacobian


def _values_at(f):
    """t -> node values of a callable returning an array or a ScalarField."""

    def at(t):
        out = f(t)
        return out.values if isinstance(out, ScalarField) else np.asarray(out, float)

    return at


def _validate_phi(grid: PeriodicGrid, values: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(values)):  # NaN would pass the tests below
        raise NonFiniteInput(f"prescribed Jacobian is not finite at t = {t}")
    if np.min(values) <= 0.0:
        raise NonPositiveJacobian(f"prescribed Jacobian is not positive at t = {t}")
    total = grid.node_weight * np.sum(values)
    if abs(total - grid.total_volume) > 1e-8 * grid.total_volume:
        raise MassDrift(
            f"prescribed Jacobian integrates to {total!r} at t = {t}, "
            f"expected {grid.total_volume!r}"
        )


def invert_map(grid: PeriodicGrid, positions: np.ndarray) -> np.ndarray:
    """Node-wise inverse of a near-identity grid map by damped fixed point.

    Solves map(x) = y for every node y, iterating
    x <- x + damping (y - map(x)) on the trigonometric interpolant of the
    periodic displacement.  Diverges (by design) when the map degenerates.
    """
    damping, max_iter, tol = 0.8, 50, 1e-12
    disp = _interp.SplineEvaluator(grid, positions - grid.identity)
    x = grid.identity
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

    On the circle η(t) is the exact primitive of φ(t)/⟨φ(t)⟩, the
    degree-one circle map (⟨φ⟩ is the quadrature mean).  On the torus η(t)
    is the inverse of the flow of X = ∇f/φ, Δf = -∂φ/∂t, whose displacement
    is advected on the grid by RK4 (see ``_advect_inverse``).

    Parameters
    ----------
    phi : callable
        Prescribed Jacobian: t -> node values (an array or a ScalarField).
    t_grid : array_like
        Increasing times at which the flow is returned; t_grid[0] = 0.
    dt : float
        Largest RK4 step of the torus construction (ignored on the circle,
        where the primitive is exact).  StepTooLarge is raised when X makes
        a step's advective Courant number exceed 0.5, and ValidationError
        when the horizon needs more than ``grid.MAX_STEPS`` steps.
    dphi : callable, optional
        Time derivative of phi, returning an array or a ScalarField like
        phi.  Otherwise the torus construction takes the 2-point central
        difference (φ(t + h) - φ(t - h)) / 2h at h = 1e-4: three φ calls per
        stage time, with an O(h²) error of about 1e-11 for smooth φ.
    pad_factor : int
        Kept for compatibility and ignored: no construction evaluates a
        field off the grid.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    phi_at = _values_at(phi)

    def central_difference(t, h=1e-4):
        return (phi_at(t + h) - phi_at(t - h)) / (2.0 * h)

    dphi_at = central_difference if dphi is None else _values_at(dphi)

    if np.max(np.abs(phi_at(0.0) - 1.0)) > IDENTITY_TOL:
        raise NonPositiveJacobian("the lift must start at the identity: φ(0) ≡ 1")
    for t in t_grid:
        _validate_phi(grid, phi_at(t), t)

    positions = [grid.identity]  # on both grids, as φ(0) ≡ 1 to FlowMap's IDENTITY_TOL
    if grid.dim == 1:
        # φ/⟨φ⟩ integrates to the period, so its primitive is a degree-one circle map
        positions += [moser_primitive_1d(grid, phi / np.mean(phi))[None, :]
                      for phi in map(phi_at, t_grid[1:])]
    else:
        # each interval is bounded by MAX_STEPS, so bound their sum up front too
        fixed_steps(t_grid[-1], dt)

        def velocity(t):  # X = ∇f/φ with Δf = -∂φ/∂t; φ and ∂ₜφ checked at each stage time
            phi_values, dphi_values = phi_at(t), dphi_at(t)
            _validate_phi(grid, phi_values, t)
            if not np.all(np.isfinite(dphi_values)):
                raise NonFiniteInput(f"∂ₜ of the prescribed Jacobian is not finite at t = {t}")
            rhs = dphi_values - np.mean(dphi_values)  # mean is zero up to FD noise
            return laplacian_inverse_gradient(ScalarField(grid, -rhs)) / phi_values

        disp = np.zeros_like(grid.identity)
        for t, t_next in zip(t_grid[:-1], t_grid[1:]):
            disp = _advect_inverse(grid, velocity, t, t_next, dt, disp)
            positions.append(grid.identity + disp)
    return FlowMap(grid, t_grid, positions, [map_jacobian(grid, eta) for eta in positions])


def _advect_inverse(grid, velocity, t0, t1, dt, disp):
    """Advect the displacement d of an inverse map on the grid from t0 to
    t1 (backward when t1 < t0): ∂ₜd + (X·∇)d + X = 0, X = velocity(t).

    With ξ the flow of X from t0, id + d(t) = (id + d(t0)) ∘ ξ(t)⁻¹, so
    from d = 0 the result is the displacement of ξ(t1)⁻¹.  Each stage
    takes ``inverse_map_rate``, with the stacked gradient of d taken
    spectrally; the velocity is evaluated once per half step
    (``per_half_step``), 2n + 1 times in n steps.
    """
    n_steps, h = fixed_steps(abs(t1 - t0), dt)
    h = h if t1 >= t0 else -h
    velocity_at = per_half_step(lambda t: check_courant(grid, velocity(t), abs(h)), t0, h)
    for step in range(n_steps):
        disp = rk4_step(lambda t, d: inverse_map_rate(grid, velocity_at(t), d),
                        t0 + step * h, disp, h)
    return disp


def transport_map(source: Density, target: Density, dt: float = 1e-3) -> FlowMap:
    """Diffeomorphism η with Jac_μ η · (target ∘ η) = source.

    Built along the linear density interpolation: the circle case is the
    exact cumulative-distribution construction, the torus case flows
    X = ∇f / ρ_t with the single Poisson solve Δf = source - target.
    """
    _check_pair(source, target)
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
    """Dynamic Moser construction: the time-1 map ζ₁ of the flow of
    X_s = ∇f/ρ_s along the linear density interpolation ρ_s, with the
    single Poisson solve Δf = source - target.

    Z_s = ζ₁ ∘ ζ_s⁻¹ solves ∂_s Z + (X_s·∇)Z = 0 with Z_1 = id, so ζ₁ = Z_0
    is the displacement advected backward from s = 1 to s = 0.  Works in
    any supported dimension (used for the torus; on the circle it produces
    a rotated representative of the cumulative-distribution map)."""
    grid = source.grid
    # the masses agree (checked by the caller), so the mean of the difference
    # is roundoff, which is large relative to a near-zero difference
    rhs = source.values - target.values
    grad_f = laplacian_inverse_gradient(ScalarField(grid, rhs - np.mean(rhs)))

    def velocity(s):
        return grad_f / ((1.0 - s) * source.values + s * target.values)

    disp = _advect_inverse(grid, velocity, 1.0, 0.0, dt, np.zeros_like(grid.identity))
    return grid.identity + disp
