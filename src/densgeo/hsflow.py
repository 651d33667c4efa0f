"""Closed-form machinery and numerical flows for the generalized
Hunter-Saxton equation

    ρ_t + u·∇ρ + ρ²/2 = -∫ρ² dμ / (2 μ(M)),      div u = ρ.

Everything here is parameterized by the initial divergence ρ0 and the
angular frequency κ² = ∫ ρ0² dμ / (4 μ(M)).  The square root of the flow
Jacobian traces the great circle f = cos κt + (ρ0/2κ) sin κt on the
density sphere, and every closed form is a function of (f, ḟ), which one
kernel, ``great_circle``, evaluates: Jac = f², ρ∘η = 2ḟ/f (an explicit
tangent) and ρ²·Jac = 4ḟ².  It takes sin(κt)/κ as t·sinc(κt), so κ = 0
needs no branch: there the solution is the stationary one, ρ0 = 0, with
f ≡ 1 and ρ ≡ 0 exactly.  Given an array of times it evaluates them all in
one call, time axis first.  ``great_circle_chunks`` cuts a long series of
times into such calls of about ``_CHUNK_VALUES`` values each; it feeds the
Jacobian's RK4 factors (``_rk4_factors``, for ``jacobian_by_ode`` and
``integrate_flow``) and the CLI's ``hs`` and ``invariants`` series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _interp
from .density import Density, SpherePoint, square_map
from .errors import (
    BeyondBlowup,
    InconsistentZeroKappa,
    NonFiniteInput,
    StepTooLarge,
    ValidationError,
)
from .grid import (
    PeriodicGrid,
    ScalarField,
    check_courant,
    check_mean_zero,
    derivative,
    directional_derivative,
    fixed_steps,
    gradient_values,
    l2_inner,
    laplacian_inverse_gradient,
    periodic_primitive,
    rk4_step,
    sinc,
)

KAPPA_EPS = 1e-13
IDENTITY_TOL = 1e-10  # of a flow's start: |J - 1|, and |η - id| over the longest period
# values (times × nodes) per chunk of ``great_circle_chunks``, the one chunk rule of
# ``_rk4_factors`` and the CLI's hs and invariants series: a chunk's arrays of 8·2¹⁴
# bytes stay at glibc's default mmap and trim threshold (128 KiB, mallopt(3)), where
# its heap keeps them.  At 2¹⁵ a process that has not yet freed a block above 256 KiB
# (which raises both thresholds) returns each chunk's arrays to the kernel and faults
# them in afresh: 17,000 minor faults and 80-100 ms per jacobian_by_ode call at N = 512
# on a 2-vCPU Xeon, against 200-350 faults and 50-60 ms at 2¹⁴, fresh or warm
_CHUNK_VALUES = 2**14


@dataclass(frozen=True)
class HsGeodesic:
    """Initial data and derived constants of one explicit solution; ``rho0_min``
    is the infimum over M of ρ0's trigonometric interpolant, not over the nodes."""

    grid: PeriodicGrid
    rho0: ScalarField
    kappa: float
    t_max: float
    mass: float
    rho0_min: float

    @classmethod
    def from_divergence(cls, rho0: ScalarField) -> "HsGeodesic":
        grid = rho0.grid
        if not np.all(np.isfinite(rho0.values)):
            raise NonFiniteInput("the initial divergence is not finite")
        check_mean_zero(rho0, "the initial divergence")
        mass = grid.total_volume
        with np.errstate(over="ignore"):
            kappa_sq = energy(rho0) / (4.0 * mass)
        if not np.isfinite(kappa_sq):
            raise NonFiniteInput("the energy integral of rho0**2 overflows for this divergence")
        kappa = float(np.sqrt(max(kappa_sq, 0.0)))
        if kappa < KAPPA_EPS:
            if np.max(np.abs(rho0.values)) > 1e-10:
                raise InconsistentZeroKappa(
                    "kappa vanished for a non-zero divergence; quadrature is inconsistent"
                )
            # the stationary solution: ρ0 ≡ 0, so f ≡ 1 and ρ ≡ 0 exactly
            return cls(grid, ScalarField.constant(grid, 0.0), 0.0, np.inf, mass, 0.0)
        rho0_min = _infimum(rho0)
        t_max = np.pi / (2.0 * kappa) + np.arctan(rho0_min / (2.0 * kappa)) / kappa
        return cls(grid, rho0, kappa, float(t_max), mass, float(rho0_min))

    def check_before_blowup(self, t: float) -> None:
        """Raise BeyondBlowup unless t is before the blowup time."""
        if t >= self.t_max:
            raise BeyondBlowup(f"t = {t} is at or past the blowup time {self.t_max}")

    @property
    def conserved_energy(self) -> float:
        """∫ ρ² dμ along the solution, equal to 4 κ² μ(M)."""
        return 4.0 * self.kappa**2 * self.mass


def _infimum(rho0: ScalarField) -> float:
    """inf over M of ρ0's trigonometric interpolant: Newton on its exact
    gradient and Hessian (spectra ik·ĉ and ik ik·ĉ) from the argmin of a
    sampling refined by the least power of two giving 32 samples per
    wavelength of the highest mode present (|ĉ| above roundoff), up to 2²⁰
    nodes; the lower of that sample minimum and Newton's end."""
    grid, d = rho0.grid, rho0.grid.dim
    spec = _interp.half_spectrum(grid, rho0.values)
    present = np.nonzero(np.abs(spec) > 1e-13 * np.sum(np.abs(spec)))
    wanted = max(32 * np.max(np.minimum(j, n - j)) / n for n, j in zip(grid.shape, present))
    factor = 1
    while factor < wanted and grid.node_count * (2 * factor) ** d <= 2**20:
        factor *= 2
    fine = _interp.pad_values(grid, rho0.values, factor)
    node = np.unravel_index(np.argmin(fine), fine.shape)
    x = np.array(node) * grid.spacings / factor
    grad = grid.ik * spec
    derivs = np.concatenate([grad, (grid.ik[:, None] * grad).reshape((d * d,) + spec.shape)])
    for _ in range(_interp.NEWTON_MAX_ITER):
        at = _interp.trig_sum(grid, derivs, *x)
        # least squares: a flat direction (a singular Hessian) gets no step
        step = np.linalg.lstsq(at[d:].reshape(d, d), at[:d], rcond=None)[0]
        x = x - step
        if np.all(np.abs(step) < _interp.NEWTON_TOL * np.array(grid.lengths)):
            break
    return min(float(fine[node]), float(_interp.trig_sum(grid, spec, *x)))


def great_circle(g: HsGeodesic, t, rho0_values: np.ndarray | None = None):
    """(f, ḟ) on the great circle at time t, given ρ0 at the labels (by
    default ``g.rho0``'s nodes): f = cos κt + ½ρ0·S and ḟ = ½ρ0·cos κt - κ²·S,
    with S = sin(κt)/κ = t·sinc(κt).  t is a float, or a 1-D array of times
    that becomes the first axis of f and ḟ.  At κ = 0, where ρ0 ≡ 0, f ≡ 1.0
    and ḟ ≡ 0.0 exactly."""
    rho0 = g.rho0.values if rho0_values is None else rho0_values
    if isinstance(t, np.ndarray):
        t = t.reshape(t.shape + (1,) * rho0.ndim)
        cos_kt = np.cos(g.kappa * t)
    else:
        cos_kt = math.cos(g.kappa * t)
    s = t * sinc(g.kappa * t)
    return cos_kt + (0.5 * s) * rho0, (0.5 * cos_kt) * rho0 - g.kappa**2 * s


def great_circle_chunks(g: HsGeodesic, times: np.ndarray, values_per_time: int):
    """(chunk, f, ḟ) per chunk of max(1, ``_CHUNK_VALUES`` // ``values_per_time``) columns
    of the last axis of ``times``, in order, by one ``great_circle`` call on the chunk's
    times flattened; f and ḟ are (*chunk.shape, nodes), and the generator keeps neither."""
    per_chunk = max(1, _CHUNK_VALUES // values_per_time)
    for first in range(0, times.shape[-1], per_chunk):
        chunk = times[..., first : first + per_chunk]
        yield chunk, *(v.reshape(chunk.shape + (-1,)) for v in great_circle(g, chunk.ravel()))


def _rho(g: HsGeodesic, t: float, rho0_values: np.ndarray | None = None) -> np.ndarray:
    """ρ(t, η(t, x)) = 2ḟ/f at the labels x, given ρ0 there (``great_circle``)."""
    f, fdot = great_circle(g, t, rho0_values)
    return 2.0 * fdot / f


def rho_along_flow(g: HsGeodesic, t: float) -> ScalarField:
    """Solution values at Lagrangian labels, 2ḟ/f on the great circle."""
    g.check_before_blowup(t)
    return ScalarField(g.grid, _rho(g, t))


def jacobian_formula(g: HsGeodesic, t: float) -> ScalarField:
    """Flow Jacobian f² = (cos κt + (ρ0/2κ) sin κt)², valid for all real t."""
    return ScalarField(g.grid, great_circle(g, t)[0] ** 2)


def sphere_path(g: HsGeodesic, t: float) -> ScalarField:
    """Great-circle point f = cos κt + (ρ0/2κ) sin κt (the square root of the Jacobian)."""
    return ScalarField(g.grid, great_circle(g, t)[0])


def sphere_velocity(g: HsGeodesic, t: float) -> ScalarField:
    """Time derivative ḟ of the great circle; at t = 0 it equals ρ0/2."""
    return ScalarField(g.grid, great_circle(g, t)[1])


def evolve_density_global(g: HsGeodesic, t: float) -> tuple[SpherePoint, Density]:
    """Sphere point and its ``square_map`` density at any real t (global
    continuation).

    Past the blowup time the sphere point changes sign somewhere and the
    returned density carries the degenerate flag.  Its mass is the
    quadrature of the squared sphere point, μ(M) up to roundoff.
    """
    point = SpherePoint(sphere_path(g, t), float(np.sqrt(g.mass)))
    return point, square_map(point)


def energy(rho: ScalarField) -> float:
    """∫ ρ² dμ for an Eulerian divergence snapshot."""
    return l2_inner(rho, rho)


def flow_energy(g: HsGeodesic, t: float) -> float:
    """Energy of the exact solution at time t, ∫ ρ(t,·)² dμ.

    Evaluated in Lagrangian variables as ∫ ρ(t,η)² Jac dμ = 4∫ ḟ² dμ, which is
    quadrature-exact for band-limited ρ0 at any t < t_max (the direct
    Eulerian quadrature needs ever finer grids as the peak compresses).
    """
    g.check_before_blowup(t)
    return energy(ScalarField(g.grid, 2.0 * great_circle(g, t)[1]))  # ρ²·Jac = (2ḟ)²


# ---------------------------------------------------------------------------
# Anchored Eulerian reconstruction (1D)
# ---------------------------------------------------------------------------


def anchored_flow_1d(g: HsGeodesic, t: float) -> np.ndarray:
    """Flow positions η(t, x) = ∫₀ˣ Jac(t, s) ds of the base-point-fixing gauge.

    This is the unique flow with η(t, 0) = 0 realizing the closed-form
    Jacobian; its velocity vanishes at x = 0 for all time.
    """
    if g.grid.dim != 1:
        raise ValidationError("anchored flow reconstruction is one-dimensional")
    return periodic_primitive(g.grid, jacobian_formula(g, t).values)


def eulerian_rho(g: HsGeodesic, t: float) -> ScalarField:
    """Eulerian solution snapshot ρ(t, ·) in the anchored gauge (1D).

    Obtained by composing the Lagrangian formula with the inverse of the
    anchored flow; the label inversion is a Newton solve on the
    trigonometric interpolant, so the samples are exact up to roundoff.
    """
    return _eulerian_rho(g, t, _interp.field_evaluator(g.grid, g.rho0.values))


def _eulerian_rho(g: HsGeodesic, t: float, rho0_eval) -> ScalarField:
    """``eulerian_rho`` with ρ0's ``field_evaluator`` given, so that several
    snapshots share one."""
    g.check_before_blowup(t)
    grid = g.grid
    eta = anchored_flow_1d(g, t)
    labels = _interp.invert_monotone(grid, eta, grid.coordinate(0))
    return ScalarField(grid, _rho(g, t, rho0_eval(labels)))


def _anchored_velocity(rho: ScalarField) -> ScalarField:
    """Transport velocity of the anchored gauge: the primitive of ρ vanishing
    at x = 0 (it differs from the mean-zero gradient representative by a
    time-dependent rigid rotation)."""
    values = rho.values
    return ScalarField(rho.grid, periodic_primitive(rho.grid, values - np.mean(values)))


def equation_residual(g: HsGeodesic, t: float, dt_fd: float = 1e-5) -> float:
    """Sup-norm residual of the Euler-Arnold equation on the Eulerian
    reconstruction, with ρ_t by centered differences: three snapshots that
    share one evaluator of ρ0."""
    rho0_eval = _interp.field_evaluator(g.grid, g.rho0.values)
    rho_m, rho_0, rho_p = (_eulerian_rho(g, s, rho0_eval) for s in (t - dt_fd, t, t + dt_fd))
    rho_t = (rho_p.values - rho_m.values) / (2.0 * dt_fd)
    u = _anchored_velocity(rho_0)
    rho_x = derivative(rho_0).values
    const = energy(rho_0) / (2.0 * g.mass)
    residual = rho_t + u.values * rho_x + 0.5 * rho_0.values**2 + const
    return float(np.max(np.abs(residual)))


# ---------------------------------------------------------------------------
# Numerical flow integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowMap:
    """Particle positions and Jacobians of a diffeomorphism flow at stored times.

    ``positions[i]`` has shape (dim, *grid.shape) and holds η(t_i, x) at the
    Lagrangian nodes; ``jacobians[i]`` holds Jac_μ η(t_i, x).
    """

    grid: PeriodicGrid
    times: np.ndarray
    positions: list
    jacobians: list
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        off = np.max(np.abs(self.positions[0] - self.grid.identity)) / max(self.grid.lengths)
        if not off <= IDENTITY_TOL:  # NaN fails too
            raise ValueError("flow must start at the identity")
        if not np.max(np.abs(self.jacobians[0] - 1.0)) <= IDENTITY_TOL:
            raise ValueError("initial Jacobian must be 1")


def map_jacobian(grid: PeriodicGrid, positions: np.ndarray) -> np.ndarray:
    """Jacobian determinant of a grid map by spectral differentiation of its
    periodic displacement."""
    grads = gradient_values(grid, positions - grid.identity)  # [i, a] = ∂ₐ dispᵢ
    if grid.dim == 1:
        return 1.0 + grads[0, 0]
    return (1.0 + grads[0, 0]) * (1.0 + grads[1, 1]) - grads[0, 1] * grads[1, 0]


def inverse_map_rate(grid: PeriodicGrid, velocity: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """∂ₜd = -X - (X·∇)d, the rate of the periodic displacement d of the
    inverse of the flow of X, with the product taken at the nodes and not
    truncated.  ``integrate_flow``'s back-to-label map and the Moser flows
    both advance d by it."""
    return -velocity - directional_derivative(grid, velocity, disp)


def _rk4_factors(g: HsGeodesic, n_steps: int, h: float):
    """RK4's factors of J' = a(t)·J, a = ρ(t, η(t, x)), over n steps of h from 0,
    as arrays (steps, *shape), one per chunk of ``great_circle_chunks``.  The rate
    does not depend on J, so a step is J ← J·P with P = 1 + (h/6)(a₁ + 2k₂ + 2k₃ +
    k₄), k₂ = a₂(1 + ½h·a₁), k₃ = a₂(1 + ½h·k₂), k₄ = a₄(1 + h·k₃), and a₁, a₂, a₄
    at t, t + h/2, t + h: the classical method.  The times are rows of whole steps
    and of half steps, so a chunk's call takes its whole steps, then its half
    steps, and each of a₁, a₂ and a₄ is contiguous.  A chunk's first a₁ is the
    last a₄ before it, so n steps evaluate ρ 2n + 1 times."""
    ends = _rho(g, np.zeros(1)).reshape(1, -1)  # ρ at whole steps, from the chunk's start
    times = np.arange(1.0, n_steps + 1) - np.array([[0.0], [0.5]])
    times *= h
    for _, f, fdot in great_circle_chunks(g, times, 2 * g.grid.node_count):
        whole, a2 = 2.0 * fdot / f
        del f, fdot  # fewer live chunk arrays, or glibc trims the heap and re-faults it
        ends = np.concatenate([ends[-1:], whole])
        a1, a4 = ends[:-1], ends[1:]
        k2 = a2 * (1.0 + 0.5 * h * a1)
        k3 = a2 * (1.0 + 0.5 * h * k2)
        k4 = a4 * (1.0 + h * k3)
        yield (1.0 + (h / 6.0) * (a1 + 2.0 * (k2 + k3) + k4)).reshape((-1, *g.grid.shape))


def jacobian_by_ode(g: HsGeodesic, t_final: float, dt: float) -> ScalarField:
    """Integrate the Jacobian transport equation dJ/dt = (ρ∘η) J per node
    with RK4, driving it by the closed-form characteristic values: J is the
    product of the steps' factors, a chunk at a time (``_rk4_factors``)."""
    g.check_before_blowup(t_final)
    jac = np.ones(g.grid.shape)
    for factors in _rk4_factors(g, *fixed_steps(t_final, dt)):
        jac = jac * np.prod(factors, axis=0)
    return ScalarField(g.grid, jac)


def integrate_flow(
    g: HsGeodesic,
    t_final: float,
    dt: float,
    n_store: int = 10,
) -> FlowMap:
    """Fixed-step RK4 on particle positions and Jacobians.

    The Eulerian divergence is recovered each stage by evaluating the
    Lagrangian formula at the back-to-label map (the semi-Lagrangian
    recovery, which in 1D is the composition with η⁻¹); the particle
    velocity is the gradient representative of that field.  The map's
    periodic displacement is advected alongside the particles by
    ``inverse_map_rate``, the rate the Moser flows advance too.  The RK4
    state holds these two; the Jacobian, whose transport rate is the
    closed-form characteristic value ρ(t, η(t, x)) and so well-conditioned
    near blowup, is decoupled from them and steps by ``_rk4_factors``.

    Each spline (ρ0 at the back labels, u at η per stage, the residual's)
    refines by the least of 1, 2, 4 and 8 whose closed-form error bound is at
    most ``_interp.SPLINE_TOL`` = 1e-9 of its sup, or by 8; ``diagnostics`` reports
    the run's largest bound/sup as ``spline_error_bound``.
    """
    g.check_before_blowup(t_final)
    n_steps, h = fixed_steps(t_final, dt)
    grid = g.grid
    d = grid.dim
    bounds = [0.0]  # each spline's error_bound / sup

    def spline(values: np.ndarray) -> _interp.SplineEvaluator:
        evaluator = _interp.SplineEvaluator(grid, values)
        bounds.append(evaluator.error_bound.max() / max(np.abs(values).max(), 1e-300))
        return evaluator

    rho0_eval = spline(g.rho0.values)

    def recovered_rho(t: float, back: np.ndarray) -> np.ndarray:
        rho = _rho(g, t, rho0_eval(*(grid.identity + back)))
        return rho - np.mean(rho)

    # state rows: positions η (d rows), back-to-label map (d rows)
    def rate(t: float, y: np.ndarray) -> np.ndarray:
        eta, back = y[:d], y[d:]
        u = check_courant(grid, laplacian_inverse_gradient(
            ScalarField(grid, recovered_rho(t, back))), h)
        out = np.empty_like(y)
        out[:d] = spline(u)(*eta)
        out[d:] = inverse_map_rate(grid, u, back)
        return out

    store_every = max(1, n_steps // max(1, n_store))
    y = np.concatenate([grid.identity, np.zeros_like(grid.identity)])
    jac = np.ones(grid.shape)
    factors = (factor for chunk in _rk4_factors(g, n_steps, h) for factor in chunk)

    times = [0.0]
    positions = [grid.identity]
    jacobians = [np.ones(grid.shape)]
    residuals = [0.0]
    mass_drifts = [0.0]

    for step in range(1, n_steps + 1):
        y = rk4_step(rate, (step - 1) * h, y, h)
        jac = jac * next(factors)
        t = step * h
        drift = abs(
            grid.node_weight * np.sum(jac) - grid.total_volume
        ) / grid.total_volume
        if drift > 1e-3:
            raise StepTooLarge(
                f"Jacobian mass drift {drift:.3e} at t = {t:.6f}; reduce dt"
            )
        if step % store_every == 0 or step == n_steps:
            rec_eval = spline(recovered_rho(t, y[d:]))
            residuals.append(float(np.max(np.abs(rec_eval(*y[:d]) - _rho(g, t)))))
            times.append(t)
            positions.append(y[:d].copy())
            jacobians.append(jac)
            mass_drifts.append(drift)

    return FlowMap(
        grid,
        np.array(times),
        positions,
        jacobians,
        diagnostics={
            "transport_residual": np.array(residuals),
            "mass_drift": np.array(mass_drifts),
            "spline_error_bound": float(max(bounds)),
        },
    )
