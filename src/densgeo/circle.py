"""Circle-specific machinery: the α-connection family on densities over S¹
and pseudospectral integrators for the classic 1D Euler-Arnold equations
(Hunter-Saxton, inviscid Burgers, Camassa-Holm, μ-Burgers).

Densities over the circle are modeled as diffeomorphisms fixing x = 0, so
tangent data is gauged by u(0) = 0.  The inverse second-derivative operator
uses the base-point normalization g(0) = 0 (not zero mean), so Γ vanishes at
x = 0; the dealiased u uₓ does not, so the geodesic steppers re-base their whole
rate to vanish there, and RK4 keeps the linear invariant u(0) to roundoff.

Every right-hand side comes from the transform method with the 2/3 rule
(Orszag 1971): an equation is a table of dealiased half-spectrum multipliers,
one per quadratic product it uses from (u uₓ, uₓ², u²).  The steppers keep
c = rfft(u) and build the lift [1, ik] and the negated table once per run, so
an RK4 stage is two FFT calls and about five array operations (27 µs at
N = 256 on a 2-vCPU host, 17 µs of it in the FFTs).  The re-based rate and
the base point of Γ are corrections to the zero mode.

``evolve_to_tolerance`` runs any of these steppers with a Richardson estimate of
its time error from two runs, and given no step chooses one that meets ``TIME_TOL``.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import _interp
from .errors import NonFiniteInput, StepTooLarge, ValidationError
from .grid import (
    PeriodicGrid,
    ScalarField,
    check_courant,
    derivative,
    fixed_steps,
    fourier,
    l2_inner,
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
        gamma = self._table(grid)[1:].sum(axis=0) * np.fft.rfft(vx * wx)  # no Γ row: 0
        gamma[0] -= _at_origin(gamma)
        return ScalarField(grid, np.fft.irfft(gamma, n=n))

    def _table(self, grid: PeriodicGrid) -> np.ndarray:
        """Multipliers of (u uₓ, uₓ²); Γ's row is dropped where it is zero (α = -1)."""
        coeff = 0.5 * (1.0 + self.alpha)
        gamma = -coeff * grid.inv_laplacian * grid.ik[0] * grid.dealias_mask  # A⁻¹∂ₓ
        return np.array([grid.dealias_mask, gamma][: 1 if coeff == 0.0 else 2])

    def geodesic_rhs(self, u: ScalarField) -> ScalarField:
        """Right side of u_t = -(u uₓ + Γ(u, u)), re-based as a whole to vanish at x = 0."""
        return _transform_rhs(u, self._table(u.grid), gauge=True)

    def evolve(self, u0: ScalarField, t_final: float, dt: float) -> ScalarField:
        """RK4 to t_final in n = ⌈t_final/dt⌉ equal steps of t_final/n (``fixed_steps``)."""
        return _evolve(u0, self._table(u0.grid), t_final, dt, gauge=True)


def _at_origin(row: np.ndarray) -> float:
    """N u(0) of a real field u with half spectrum ``row``: Σₖ wₖ Re cₖ, w = (1, 2, …, 2, 1)."""
    re = row.real
    return 2.0 * re.sum() - re[0] - re[-1]


def _stage(grid: PeriodicGrid, multipliers, gauge: bool, courant_dt=None):
    """The rate (t, c) -> ċ of u_t = -Σᵣ mᵣ(pᵣ) on c = rfft(u), p = (u uₓ, uₓ², u²) of
    u = irfft(c), with the lift [1, ik] and the table -m built once; ``gauge`` re-bases
    the whole rate to vanish at x = 0, so u(0) is a linear invariant that RK4 keeps to
    roundoff, and ``courant_dt`` checks the u of each step's first stage."""
    n, rows = grid.shape[0], len(multipliers)
    lift = np.array([np.ones_like(grid.ik[0]), grid.ik[0]])
    minus = -np.asarray(multipliers, dtype=complex)
    left, right = np.array([1, 1, 0]), np.array([0, 1, 0])  # u uₓ, uₓ², u² from rows u, uₓ

    def rate(t, c):
        u = np.fft.irfft(lift * c, n=n)  # rows u, uₓ
        if courant_dt is not None and t == 0.0:
            check_courant(grid, u[:1], courant_dt)
        products = (u.take(left, axis=0) * u.take(right, axis=0) if rows == 3  # no stacking
                    else u[1] * u[:rows])  # u uₓ, then uₓ² if rows > 1
        terms = minus * np.fft.rfft(products)
        total = sum(terms[1:], terms[0])
        if gauge:
            total[0] -= _at_origin(total)
        return total

    return rate


def _transform_rhs(u: ScalarField, multipliers, gauge=False) -> ScalarField:
    """``_stage``'s rate at one field, from and back to physical space."""
    _require_circle(u)
    rate = _stage(u.grid, multipliers, gauge)(0.0, np.fft.rfft(u.values))
    return ScalarField(u.grid, np.fft.irfft(rate, n=u.grid.shape[0]))


def _evolve(u0: ScalarField, multipliers, t_final, dt, gauge: bool) -> ScalarField:
    """Fixed-step RK4 of u_t = -Σᵣ mᵣ(pᵣ) on the half spectrum c = rfft(u), through one
    ``_stage`` built per run, so a stage does no set-up (see the module docstring);
    ``gauge`` re-bases u0 to u(0) = 0, which the gauged rate keeps, and the final u to
    clear its roundoff.  A non-finite u0 is NonFiniteInput before any step."""
    _require_circle(u0)
    if not np.all(np.isfinite(u0.values)):
        raise NonFiniteInput("the initial velocity u0 is not finite")
    n_steps, h = fixed_steps(t_final, dt)
    rate = _stage(u0.grid, multipliers, gauge, courant_dt=h)
    c = np.fft.rfft(u0.values - u0.values[0] if gauge else u0.values)
    for _ in range(n_steps):
        c = rk4_step(rate, 0.0, c, h)
    u = np.fft.irfft(c, n=u0.grid.shape[0])
    return ScalarField(u0.grid, u - u[0] if gauge else u)


TIME_TOL = 1e-12  # sup-norm time error that evolve_to_tolerance asks for
DEFAULT_DT = 1e-4  # its step count K caps evolve_to_tolerance's runs


def _richardson(u_n: ScalarField, u_m: ScalarField, ratio: float) -> float:
    """sup|u_n - u| = |u_n - u_m| / |1 - (n/m)⁴| for runs of n and m = n/ratio steps, from RK4's
    u_k = u + A k⁻⁴ (Richardson; Hairer, Nørsett & Wanner, Solving ODEs I, §II.4)."""
    return float(np.max(np.abs(u_n.values - u_m.values))) / abs(1.0 - ratio ** 4)


def evolve_to_tolerance(evolve, u0: ScalarField, t_final: float, dt=None):
    """The run ``evolve(u0, t_final, dt)`` of a fixed-step stepper and ``_richardson``'s
    estimate E of its time error, as (u, E, steps of u, steps of every run started), from
    the largest earlier finished run, else the first finite of ⌈n/2⌉ and 2n steps.

    Given ``dt``, u is that run bit for bit.  Otherwise runs start at Courant number 1/8
    of u0 (4 steps at least) and take ⌈1.1 n (E/TIME_TOL)^¼⌉ steps until E ≤ TIME_TOL (2n
    where E is inf or the run StepTooLarge), and where the last run's companion took
    m > n steps, u is the companion's run, with E·(n/m)⁴.  A run that would take the total
    past K, the steps of ``DEFAULT_DT``, is the K-step run, the last; a companion that
    would is not run, unless it is the K-step run's and stays within 2 K, the most all
    runs take.  E = NaN for a non-finite u, and inf where no companion finished;
    t_final = 0 or u0 = 0 take one run, with E = 0."""
    cap = fixed_steps(t_final, dt or DEFAULT_DT)[0]  # rejects too many steps before any run
    counts, runs = [], {}  # steps of every run started; steps -> u of the finite ones

    def run(step):
        counts.append(fixed_steps(t_final, step)[0])
        u = evolve(u0, t_final, step)
        if np.all(np.isfinite(u.values)):
            runs[counts[-1]] = u
        return counts[-1], u

    def estimate(n):  # (E, the companion's steps m, or 0 where none finished)
        if n not in runs:
            return math.nan, 0
        m = max((k for k in runs if k != n), default=0)
        room = math.inf if dt else (1 + (n == cap)) * cap  # the total a companion may reach
        for k in (n + 1) // 2, 2 * n:
            if not m and k not in (n, *counts) and sum(counts) + k <= room:
                with suppress(StepTooLarge):
                    k = run(t_final / k)[0]
                m = k if k in runs else 0
        return (_richardson(runs[n], runs[m], n / m) if m else math.inf), m

    sup = float(np.max(np.abs(u0.values)))
    if t_final == 0.0 or sup == 0.0:  # u0 is the answer, up to the FFT round trip
        n, u = run(dt or t_final or DEFAULT_DT)
        return u, 0.0, n, n
    if dt is not None:
        n, u = run(dt)
        return u, estimate(n)[0], n, sum(counts)
    # Courant number 1/8 of u0, so at most 1/4 for ⌈n/2⌉; a NaN u0 goes on to the K-step run
    count = max(4, math.ceil(min(cap, 8 * t_final * sup * u0.grid.shape[0] / u0.grid.lengths[0])))
    while True:
        count = cap if sum(counts) + count > cap else count
        try:
            n, u = run(DEFAULT_DT if count == cap else t_final / count)
            e, m = estimate(n)
        except StepTooLarge:
            if count == cap:
                raise
            n, e, m = count, math.inf, 0
        if math.isnan(e) or e <= TIME_TOL or count == cap:
            return (runs[m], e * (n / m) ** 4, m, sum(counts)) if m > n else (u, e, n, sum(counts))
        count = 2 * n if e == math.inf else math.ceil(1.1 * n * (e / TIME_TOL) ** 0.25)


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

    x = grid.coordinate(0)
    eta = length * big_g / g_total  # slope-one circle map fixing 0
    labels = _interp.invert_monotone(grid, eta, x)
    h_at = _interp.field_evaluator(grid, big_h - (h_total / length) * x)
    u_values = h_at(labels) + (h_total / length) * labels - (x / length) * h_total
    return ScalarField(grid, (length / g_total) * u_values), eta


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
    u_m, u_c, u_p = (alpha_one_explicit(u0, t + s * ALPHA_ONE_DT_FD)[0] for s in (-1, 0, 1))
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
    return 0.25 * (l2_inner(derivative(term1), wx) + l2_inner(vx, derivative(term2)))
