"""Circle-specific machinery: the α-connection family on densities over S¹
and pseudospectral integrators for the classic 1D Euler-Arnold equations
(Hunter-Saxton, inviscid Burgers, Camassa-Holm, μ-Burgers).

Densities over the circle are modeled as diffeomorphisms fixing x = 0, so
tangent data is gauged by u(0) = 0.  The inverse second-derivative operator
uses the base-point normalization g(0) = 0 (not zero mean); with it the
Christoffel terms vanish at x = 0 and the gauge is preserved exactly by
the geodesic evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _interp
from .errors import ValidationError
from .grid import (
    PeriodicGrid,
    ScalarField,
    check_courant,
    dealiased_product,
    derivative,
    fixed_steps,
    fourier,
    integrate,
    laplacian_inverse,
    periodic_primitive,
    rk4_step,
)


def _require_circle(field: ScalarField) -> None:
    if field.grid.dim != 1:
        raise ValidationError("this operation is defined on the circle only")


def a_inverse(u: ScalarField) -> ScalarField:
    """Solve -g'' = u on the circle with the normalization g(0) = 0.

    Equivalent to the double-integral formula
    -∫₀ˣ∫₀ʸ u + x ∫₀¹∫₀ʸ u; it differs from the zero-mean spectral inverse
    by the constant that moves the base-point value to zero.
    """
    _require_circle(u)
    g = -laplacian_inverse(u).values
    return ScalarField(u.grid, g - g[0])


@dataclass(frozen=True)
class AlphaConnection:
    """One-parameter family of affine connections on circle densities.

    ``alpha = 0`` is the Levi-Civita connection of the divergence metric
    (geodesics are Hunter-Saxton), ``alpha = -1`` is flat (geodesics are
    μ-Burgers), and ``alpha`` / ``-alpha`` are metric-dual.
    """

    alpha: float

    def christoffel(self, v: ScalarField, w: ScalarField) -> ScalarField:
        """Γ(v, w) = ((1+α)/2) A⁻¹ ∂ₓ(vₓ wₓ); symmetric and bilinear."""
        v.grid.check_compatible(w.grid)
        _require_circle(v)
        coeff = 0.5 * (1.0 + self.alpha)
        if coeff == 0.0:
            return ScalarField(v.grid, np.zeros(v.grid.shape))
        product = dealiased_product(derivative(v), derivative(w))
        return ScalarField(
            v.grid, coeff * a_inverse(derivative(product)).values
        )

    def geodesic_rhs(self, u: ScalarField) -> ScalarField:
        """Right side of u_t = -(u uₓ + Γ(u, u)); vanishes at x = 0 when u does."""
        advect = dealiased_product(u, derivative(u))
        gamma = self.christoffel(u, u)
        return ScalarField(u.grid, -advect.values - gamma.values)

    def geodesic_step(self, u: ScalarField, dt: float) -> ScalarField:
        """One RK4 step of the geodesic equation, re-based so u(0) = 0."""
        new = _field_step(self.geodesic_rhs, u, dt)
        return ScalarField(u.grid, new - new[0])

    def evolve(self, u0: ScalarField, t_final: float, dt: float) -> ScalarField:
        """Fixed-step evolution to t_final (last step shortened to land exactly)."""
        n_steps, h = fixed_steps(t_final, dt)
        u = ScalarField(u0.grid, u0.values - u0.values[0])
        for _ in range(n_steps):
            u = self.geodesic_step(u, h)
        return u


def _field_step(rhs, u: ScalarField, dt: float) -> np.ndarray:
    """Values after one Courant-checked RK4 step of u_t = rhs(u)."""
    check_courant(u.grid, [u.values], dt)
    return rk4_step(lambda _, v: rhs(ScalarField(u.grid, v)).values, 0.0, u.values, dt)


def alpha_one_explicit(u0: ScalarField, t: float) -> tuple[ScalarField, np.ndarray]:
    """Closed-form solution of the flat α = 1 geodesic equation.

    Returns the velocity u(t, ·) on the grid and the flow positions
    η_t(x) = L ∫₀ˣ e^{t u0ₓ} / ∫₀^L e^{t u0ₓ}, a strictly increasing circle
    map fixing 0.  The velocity is the flow derivative transported back,
    u(t, ·) = η̇_t ∘ η_t⁻¹.
    """
    _require_circle(u0)
    grid = u0.grid
    sup = float(np.max(np.abs(u0.values)))
    if abs(u0.values[0]) > 1e-10 * max(sup, 1e-300):
        raise ValidationError("alpha-one data must vanish at x = 0")
    length = grid.lengths[0]
    w = derivative(u0).values
    growth = np.exp(t * w)
    g_total = grid.node_weight * np.sum(growth)  # ∫₀^L e^{t u0ₓ}
    big_g = periodic_primitive(grid, growth)  # ∫₀ˣ e^{t u0ₓ}
    big_h = periodic_primitive(grid, w * growth)  # ∫₀ˣ u0ₓ e^{t u0ₓ}
    h_total = grid.node_weight * np.sum(w * growth)

    eta = length * big_g / g_total  # slope-one circle map fixing 0
    labels = _interp.invert_monotone(grid, eta, grid.coordinate(0))
    h_at = _interp.field_evaluator(grid, big_h - (h_total / length) * grid.coordinate(0))
    x = grid.coordinate(0)
    u_values = (length / g_total) * (
        h_at(labels) + (h_total / length) * labels - (x / length) * h_total
    )
    return ScalarField(grid, u_values), eta


def alpha_one_residual(u0: ScalarField, t: float, dt_fd: float = 1e-4) -> float:
    """Sup-norm defect of the flat-connection equation
    u_txx + uₓ u_xx + u u_xxx = 0 on the closed-form solution, with the
    mixed derivative by centered differences of the spectral u_xx.

    The differenced field is truncated to the lowest N/8 modes before the
    second derivative: the roundoff left by the O(dt) cancellation is
    broadband, and the k² amplification of its Nyquist part would otherwise
    swamp the genuinely resolved residual.
    """
    grid = u0.grid
    second = lambda f: derivative(derivative(f))
    u_m, _ = alpha_one_explicit(u0, t - dt_fd)
    u_c, _ = alpha_one_explicit(u0, t)
    u_p, _ = alpha_one_explicit(u0, t + dt_fd)
    u_t = (u_p.values - u_m.values) / (2.0 * dt_fd)
    low_pass = np.arange(grid.shape[0] // 2 + 1) <= grid.shape[0] // 8
    utxx = second(ScalarField(grid, fourier(grid, u_t, low_pass))).values
    residual = (
        utxx
        + derivative(u_c).values * second(u_c).values
        + u_c.values * derivative(second(u_c)).values
    )
    return float(np.max(np.abs(residual)))


def _helmholtz_inverse(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """(1 - ∂ₓ²)⁻¹ for the Camassa-Holm nonlocal form."""
    return fourier(grid, values, 1.0 / (1.0 + grid.k2))


def _burgers_rhs(u: ScalarField) -> ScalarField:
    return ScalarField(u.grid, -3.0 * dealiased_product(u, derivative(u)).values)


def _camassa_holm_rhs(u: ScalarField) -> ScalarField:
    # u_t + u uₓ + ∂ₓ (1-∂ₓ²)⁻¹ (u² + uₓ²/2) = 0
    grid = u.grid
    ux = derivative(u)
    advect = dealiased_product(u, ux).values
    pressure = (
        dealiased_product(u, u).values + 0.5 * dealiased_product(ux, ux).values
    )
    smoothed = ScalarField(grid, _helmholtz_inverse(grid, pressure))
    return ScalarField(grid, -advect - derivative(smoothed).values)


_CLASSIC_EQUATIONS = ("burgers", "camassa_holm", "hunter_saxton", "mu_burgers")


def classic_1d_rhs(equation: str, u: ScalarField) -> ScalarField:
    if equation == "burgers":
        return _burgers_rhs(u)
    if equation == "camassa_holm":
        return _camassa_holm_rhs(u)
    if equation == "hunter_saxton":
        return AlphaConnection(0.0).geodesic_rhs(u)
    if equation == "mu_burgers":
        return AlphaConnection(-1.0).geodesic_rhs(u)
    raise ValidationError(
        f"unknown equation {equation!r}; choose from {_CLASSIC_EQUATIONS}"
    )


def classic_1d_step(equation: str, u: ScalarField, dt: float) -> ScalarField:
    """One RK4 step of the named 1D equation.

    The quotient-space equations (hunter_saxton, mu_burgers) are stepped in
    their first-order geodesic form and re-based to u(0) = 0; burgers and
    camassa_holm act on the velocity directly.
    """
    _require_circle(u)
    if equation in ("hunter_saxton", "mu_burgers"):
        conn = AlphaConnection(0.0 if equation == "hunter_saxton" else -1.0)
        return conn.geodesic_step(u, dt)
    return ScalarField(u.grid, _field_step(lambda v: classic_1d_rhs(equation, v), u, dt))


def evolve_classic(
    equation: str, u0: ScalarField, t_final: float, dt: float
) -> ScalarField:
    n_steps, h = fixed_steps(t_final, dt)
    u = u0
    for _ in range(n_steps):
        u = classic_1d_step(equation, u, h)
    return u


def duality_residual(
    alpha: float, u: ScalarField, v: ScalarField, w: ScalarField
) -> float:
    """Metric-duality defect of the ±α connection pair on right-invariant
    fields; identically zero in exact arithmetic.

    Returns (1/4) ∫ (vₓ u + Γ⁽ᵅ⁾(u,v))ₓ wₓ dx
          + (1/4) ∫ vₓ (wₓ u + Γ⁽⁻ᵅ⁾(u,w))ₓ dx.
    """
    _require_circle(u)
    u.grid.check_compatible(v.grid)
    u.grid.check_compatible(w.grid)
    grid = u.grid
    vx, wx = derivative(v), derivative(w)
    plus = AlphaConnection(alpha).christoffel(u, v)
    minus = AlphaConnection(-alpha).christoffel(u, w)
    term1 = ScalarField(grid, vx.values * u.values + plus.values)
    term2 = ScalarField(grid, wx.values * u.values + minus.values)
    first = integrate(ScalarField(grid, derivative(term1).values * wx.values))
    second = integrate(ScalarField(grid, vx.values * derivative(term2).values))
    return 0.25 * (first + second)
