"""Circle-specific machinery: the α-connection family on densities over S¹
and pseudospectral integrators for the classic 1D Euler-Arnold equations
(Hunter-Saxton, inviscid Burgers, Camassa-Holm, μ-Burgers).

Densities over the circle are modeled as diffeomorphisms fixing x = 0, so
tangent data is gauged by u(0) = 0.  The inverse second-derivative operator
uses the base-point normalization g(0) = 0 (not zero mean); with it the
Christoffel terms vanish at x = 0 and the gauge is preserved exactly by
the geodesic evolution.

Every right-hand side comes from the transform method with the 2/3 rule
(Orszag 1971): an equation is a table of dealiased half-spectrum multipliers,
one per quadratic product it uses from (u uₓ, uₓ², u²).  The steppers keep
the real half spectrum c = rfft(u) as their state, so an RK4 stage is two
FFT calls: an inverse transform of [c, ik c] for u and uₓ, and a forward
transform of the products, weighted by the table, for the rate of c.  The
gauge u(0) = 0 and the base point of Γ are corrections to the zero mode.
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
        grid, n = v.grid, v.grid.shape[0]
        vx, wx = np.fft.irfft(grid.ik[0] * np.fft.rfft([v.values, w.values]), n=n)
        gamma = self._table(grid)[1:] * np.fft.rfft(vx * wx)  # no row where Γ = 0
        gamma[:, 0] -= _at_origin(gamma)
        return ScalarField(grid, np.fft.irfft(gamma.sum(axis=0), n=n))

    def _table(self, grid: PeriodicGrid) -> np.ndarray:
        """Multipliers of (u uₓ, uₓ²); Γ's row is dropped where it is zero (α = -1)."""
        coeff = 0.5 * (1.0 + self.alpha)
        gamma = -coeff * grid.inv_laplacian * grid.ik[0] * grid.dealias_mask  # A⁻¹∂ₓ
        return np.array([grid.dealias_mask, gamma][: 1 if coeff == 0.0 else 2])

    def geodesic_rhs(self, u: ScalarField) -> ScalarField:
        """Right side of u_t = -(u uₓ + Γ(u, u)), Γ re-based to vanish at x = 0."""
        return _transform_rhs(u, self._table(u.grid), gauge=True)

    def evolve(self, u0: ScalarField, t_final: float, dt: float) -> ScalarField:
        """Fixed-step evolution to t_final (last step shortened to land exactly)."""
        return _evolve(u0, self._table(u0.grid), t_final, dt, gauge=True)


def _at_origin(spec: np.ndarray) -> np.ndarray:
    """N u(0) of real fields u with half spectra ``spec``: Σₖ wₖ Re cₖ, w = (1, 2, …, 2, 1)."""
    re = spec.real
    return 2.0 * re.sum(axis=-1) - re[..., 0] - re[..., -1]


def _rate(grid: PeriodicGrid, c, multipliers, gauge: bool, courant_dt=None) -> np.ndarray:
    """Half spectrum of -Σᵣ mᵣ(pᵣ) over the products p = (u uₓ, uₓ², u²) of u = irfft(c),
    in two FFT calls; ``gauge`` re-bases rows r ≥ 1 to vanish at x = 0 (Γ's base point)."""
    u, ux = np.fft.irfft(np.array([c, grid.ik[0] * c]), n=grid.shape[0])
    if courant_dt is not None:
        check_courant(grid, [u], courant_dt)
    terms = multipliers * np.fft.rfft([u * ux, ux * ux, u * u][: len(multipliers)])
    if gauge:
        terms[1:, 0] -= _at_origin(terms[1:])
    return -terms.sum(axis=0)


def _transform_rhs(u: ScalarField, multipliers, gauge=False) -> ScalarField:
    """``_rate`` at one field, from and back to physical space."""
    _require_circle(u)
    rate = _rate(u.grid, np.fft.rfft(u.values), multipliers, gauge)
    return ScalarField(u.grid, np.fft.irfft(rate, n=u.grid.shape[0]))


def _evolve(u0: ScalarField, multipliers, t_final, dt, gauge: bool) -> ScalarField:
    """Fixed-step RK4 of u_t = -Σᵣ mᵣ(pᵣ) on the half spectrum c = rfft(u), with
    the Courant check on the u that each step's first stage (t = 0)
    synthesises; ``gauge`` re-bases u(0) = 0 before every step and at the end."""
    _require_circle(u0)
    grid = u0.grid
    n_steps, h = fixed_steps(t_final, dt)
    rate = lambda t, c: _rate(grid, c, multipliers, gauge, h if t == 0.0 else None)
    c = np.fft.rfft(u0.values)
    for _ in range(n_steps):
        if gauge:
            c[0] -= _at_origin(c)
        c = rk4_step(rate, 0.0, c, h)
    u = np.fft.irfft(c, n=grid.shape[0])
    return ScalarField(grid, u - u[0] if gauge else u)


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


ALPHA_ONE_DT_FD = 1e-4


def alpha_one_residual(u0: ScalarField, t: float) -> float:
    """Sup-norm defect of the flat-connection equation
    u_txx + uₓ u_xx + u u_xxx = 0 on the closed-form solution, with the
    mixed derivative by centered differences (step ``ALPHA_ONE_DT_FD``) of
    the spectral u_xx.

    The differenced field is truncated to the lowest N/8 modes before the
    second derivative: the roundoff left by the O(dt) cancellation is
    broadband, and the k² amplification of its Nyquist part would otherwise
    swamp the genuinely resolved residual.
    """
    grid = u0.grid
    second = lambda f: derivative(derivative(f))
    u_m, _ = alpha_one_explicit(u0, t - ALPHA_ONE_DT_FD)
    u_c, _ = alpha_one_explicit(u0, t)
    u_p, _ = alpha_one_explicit(u0, t + ALPHA_ONE_DT_FD)
    u_t = (u_p.values - u_m.values) / (2.0 * ALPHA_ONE_DT_FD)
    low_pass = np.arange(grid.shape[0] // 2 + 1) <= grid.shape[0] // 8
    utxx = second(ScalarField(grid, fourier(grid, u_t, low_pass))).values
    uxx = second(u_c)
    residual = utxx + derivative(u_c).values * uxx.values + u_c.values * derivative(uxx).values
    return float(np.max(np.abs(residual)))


def _camassa_holm(grid: PeriodicGrid) -> np.ndarray:
    # u_t + u uₓ + ∂ₓ (1-∂ₓ²)⁻¹ (u² + uₓ²/2) = 0
    smooth = grid.ik[0] / (1.0 + grid.k2) * grid.dealias_mask
    return np.array([grid.dealias_mask, 0.5 * smooth, smooth])


# each equation's multiplier table, and whether it is a geodesic one gauged to u(0) = 0
_EQUATIONS = {
    "burgers": (lambda grid: np.array([3.0 * grid.dealias_mask]), False),
    "camassa_holm": (_camassa_holm, False),
    "hunter_saxton": (AlphaConnection(0.0)._table, True),
    "mu_burgers": (AlphaConnection(-1.0)._table, True),
}


def evolve_classic(equation: str, u0: ScalarField, t_final: float, dt: float) -> ScalarField:
    """Fixed-step RK4 evolution of the named 1D equation to t_final; the
    geodesic ones (hunter_saxton, mu_burgers) are re-based to u(0) = 0."""
    if equation not in _EQUATIONS:
        raise ValidationError(f"unknown equation {equation!r}; choose from {tuple(_EQUATIONS)}")
    table, gauge = _EQUATIONS[equation]
    return _evolve(u0, table(u0.grid), t_final, dt, gauge)


def duality_residual(alpha: float, u: ScalarField, v: ScalarField, w: ScalarField) -> float:
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
