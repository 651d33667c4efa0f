"""Uniform periodic grids on the circle and flat torus with spectral calculus.

Nodes are x_j = j * L / N per axis, so quadrature is the rectangle rule,
which is spectrally exact for periodic integrands.  Every spectral operator
is a Fourier multiplier on the real FFT's half spectrum, built once per
grid.  ``fourier`` applies one over the trailing ``grid.dim`` axes; leading
axes of the values and of the multiplier broadcast, so a stack costs one
call.  A partial derivative ∂ₐ multiplies by ikₐ alone, so the transform
along the other axis cancels: ``derivative``, ``gradient_values`` and
``divergence`` take the real FFT along axis a only (``_partial``), which in
1-D is the same pair of transforms.  The Nyquist mode is zeroed in first
derivatives so derivatives of real fields stay real.

A vector field is a (dim, *shape) array, row a its component along axis a
(like ``PeriodicGrid.identity``), in every function that takes or returns one.

``real_modes`` is the one enumeration of a grid's real Fourier modes, as
integer wave vectors: ``random_band_limited`` draws over it, and
``invariants.fourier_basis`` sorts it by |k|².
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidGrid, NonZeroMean, StepTooLarge, ValidationError

# most RK4 steps one integration may take; documented runs take up to 10⁴
MAX_STEPS = 10**6


def _as_tuple(value, dim: int) -> tuple:
    if np.isscalar(value):
        return (value,) * dim
    value = tuple(value)
    if len(value) != dim:
        raise InvalidGrid(f"expected {dim} per-axis values, got {len(value)}")
    return value


class PeriodicGrid:
    """Uniform discretization of S^1 (dim 1) or a flat torus (dim 2).

    Parameters
    ----------
    points_per_axis : int or tuple of int
        Nodes per axis; each must be even and at least 8.
    lengths : float or tuple of float
        Period per axis (default 1.0).

    The read-only array ``identity`` of shape (dim, *shape) holds the node
    coordinates, i.e. the identity map sampled at the nodes.  The Fourier
    multipliers ``ik`` (dim, *half), ``k2``, ``inv_laplacian`` and
    ``dealias_mask`` live on the real FFT's half spectrum, the only
    spectrum the package uses (``_interp`` evaluates off-grid from it too),
    and are applied with ``fourier``.  ``wavenumbers[a]`` holds axis a's
    angular wavenumbers kₐ on that spectrum, and ``ik_axes[a]`` is ikₐ on
    the half spectrum of axis a alone, for ∂ₐ.
    """

    def __init__(self, points_per_axis, lengths=1.0):
        if np.isscalar(points_per_axis):
            points_per_axis = (int(points_per_axis),)
        self.shape = tuple(int(n) for n in points_per_axis)
        self.dim = len(self.shape)
        if self.dim not in (1, 2):
            raise InvalidGrid("only the circle (dim 1) and torus (dim 2) are supported")
        for n in self.shape:
            if n < 8 or n % 2 != 0:
                raise InvalidGrid("points_per_axis must be even and >= 8")
        self.lengths = tuple(float(L) for L in _as_tuple(lengths, self.dim))
        if not all(0.0 < L < np.inf for L in self.lengths):
            raise InvalidGrid("lengths must be positive and finite")
        # every nonzero |k|² lies in [min (2π/L)², Σ (πN/L)²]; outside the
        # normal floats, Δ⁻¹ would silently vanish or overflow
        k_lo = min(2.0 * np.pi / L for L in self.lengths)
        k_hi = math.hypot(*(np.pi * n / L for n, L in zip(self.shape, self.lengths)))
        if not (k_lo * k_lo >= np.finfo(float).tiny and k_hi * k_hi < np.inf):
            raise InvalidGrid(f"lengths {self.lengths} put |k|² outside the normal floats")
        self.spacings = tuple(L / n for L, n in zip(self.lengths, self.shape))
        self.total_volume = math.prod(self.lengths)
        self.node_weight = math.prod(self.spacings)  # per node (uniform rectangle rule)
        if not (self.node_weight >= np.finfo(float).tiny and self.total_volume < np.inf):
            raise InvalidGrid(f"lengths {self.lengths}: a volume is not a normal float")
        self.node_count = int(np.prod(self.shape))

        axes = [np.arange(n) * h for n, h in zip(self.shape, self.spacings)]
        self.identity = np.array(np.meshgrid(*axes, indexing="ij"))
        self.identity.flags.writeable = False

        # wavenumbers of the real FFT's half spectrum: the last axis keeps
        # the modes 0..N/2, the others all N modes in FFT order
        freqs = [np.fft.fftfreq] * (self.dim - 1) + [np.fft.rfftfreq]
        self.wavenumbers = tuple(2.0 * np.pi * f(n, d=h)
                                 for f, n, h in zip(freqs, self.shape, self.spacings))
        k = np.array(np.meshgrid(*self.wavenumbers, indexing="ij"))
        # half-spectrum multipliers: |k|², Δ⁻¹ (0 on the zero mode), the
        # 2/3-rule dealias mask, and ik with the Nyquist mode of each axis
        # zeroed (odd there for even N)
        self.k2 = np.sum(k**2, axis=0)
        self.inv_laplacian = -1.0 / np.where(self.k2 > 0.0, self.k2, np.inf)
        cut = [(2.0 / 3.0) * np.pi / h + 1e-12 for h in self.spacings]
        self.dealias_mask = np.all([np.abs(ka) <= c for ka, c in zip(k, cut)], axis=0)
        for axis, n in enumerate(self.shape):
            np.moveaxis(k[axis], axis, 0)[n // 2] = 0.0
        self.ik = 1j * k
        self.ik_axes = []  # broadcast along their own axis of a (..., *shape) array
        for axis, (n, ka) in enumerate(zip(self.shape, self.wavenumbers)):
            ika = 1j * ka[: n // 2 + 1]
            ika[-1] = 0.0
            self.ik_axes.append(ika.reshape((-1,) + (1,) * (self.dim - 1 - axis)))

    def coordinate(self, axis: int = 0) -> np.ndarray:
        """Full-shape array of node coordinates along ``axis``."""
        return self.identity[axis]

    def check_compatible(self, other: "PeriodicGrid") -> None:
        if (self.shape, self.lengths) != (other.shape, other.lengths):
            raise GridMismatch(
                f"grids differ: {self.shape}/{self.lengths} vs {other.shape}/{other.lengths}"
            )

    def __repr__(self):
        return f"PeriodicGrid(shape={self.shape}, lengths={self.lengths})"


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled at the grid nodes."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


def integrate(field: ScalarField) -> float:
    """Quadrature of the field against the reference volume form."""
    return float(field.grid.node_weight * np.sum(field.values))


def mean(field: ScalarField) -> float:
    return integrate(field) / field.grid.total_volume


def l2_inner(f: ScalarField, g: ScalarField) -> float:
    """L^2 pairing ∫ f g dμ."""
    f.grid.check_compatible(g.grid)
    return float(f.grid.node_weight * np.sum(f.values * g.values))


def fourier(grid: PeriodicGrid, values: np.ndarray, multiplier) -> np.ndarray:
    """Apply a half-spectrum Fourier multiplier over the trailing ``grid.dim``
    axes of ``values``; leading axes of both arguments broadcast."""
    if grid.dim == 1:  # the n-dimensional wrappers cost a third more at N = 512
        return np.fft.irfft(np.fft.rfft(values) * multiplier, n=grid.shape[0])
    spectrum = np.fft.rfftn(values, axes=(-2, -1))
    return np.fft.irfftn(spectrum * multiplier, s=grid.shape, axes=(-2, -1))


def _partial(grid: PeriodicGrid, values: np.ndarray, axis: int) -> np.ndarray:
    """∂ along grid ``axis`` of a field or stack (..., *shape): the real FFT
    along that axis only, ikₐ, and the inverse real FFT."""
    at = axis - grid.dim
    spectrum = np.fft.rfft(values, axis=at)
    return np.fft.irfft(spectrum * grid.ik_axes[axis], n=grid.shape[axis], axis=at)


def gradient_values(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Spectral gradient of a field (*shape) or a stack (m, *shape), with
    the derivative axis inserted before the grid axes: (..., dim, *shape).
    Each ∂ₐ transforms along axis a only."""
    return np.stack([_partial(grid, values, a) for a in range(grid.dim)], axis=-grid.dim - 1)


def check_mean_zero(field: ScalarField, what: str) -> None:
    """Raise NonZeroMean unless the mean of ``field`` is roundoff relative
    to its sup norm."""
    sup = np.max(np.abs(field.values))
    if abs(mean(field)) > 1e-10 * max(sup, 1e-300):
        raise NonZeroMean(f"{what} requires a mean-zero input")


def derivative(field: ScalarField, axis: int = 0) -> ScalarField:
    """Spectral partial derivative along one axis."""
    return ScalarField(field.grid, _partial(field.grid, field.values, axis))


def gradient(field: ScalarField) -> np.ndarray:
    """Spectral gradient of a field, a vector field of shape (dim, *shape)."""
    return gradient_values(field.grid, field.values)


def divergence(grid: PeriodicGrid, velocity: np.ndarray) -> ScalarField:
    """Spectral divergence Σₐ ∂ₐXₐ of a vector field X; GridMismatch unless
    X has shape (dim, *shape)."""
    if np.shape(velocity) != (grid.dim, *grid.shape):
        raise GridMismatch(f"vector field of shape {np.shape(velocity)} on {grid}")
    parts = [_partial(grid, velocity[axis], axis) for axis in range(grid.dim)]
    return ScalarField(grid, np.sum(parts, axis=0))


def laplacian_inverse(field: ScalarField) -> ScalarField:
    """Zero-mean solution f of Δf = input; the input must have zero mean."""
    check_mean_zero(field, "laplacian_inverse")
    grid = field.grid
    return ScalarField(grid, fourier(grid, field.values, grid.inv_laplacian))


def laplacian_inverse_gradient(field: ScalarField) -> np.ndarray:
    """∇f for the zero-mean solution of Δf = input, shape (dim, *shape): the
    gradient velocity whose divergence is the (mean-zero) input."""
    check_mean_zero(field, "laplacian_inverse")
    grid = field.grid
    return fourier(grid, field.values, grid.ik * grid.inv_laplacian)


def periodic_primitive(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """∫₀ˣ values on the circle: mean·x plus the periodic primitive of
    (values - mean) that vanishes at x = 0.  For positive values this is the
    Moser lift, the increasing circle map η with η' = values, η(0) = 0."""
    w = fourier(grid, values, grid.ik[0] * grid.inv_laplacian)  # 1/(ik)
    return float(np.mean(values)) * grid.coordinate(0) + (w - w[0])


def directional_derivative(
    grid: PeriodicGrid, velocity: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Advection term (X·∇)f = Σₐ Xₐ ∂ₐf for a velocity X of shape
    (dim, *shape) and a field f (*shape) or a stack (m, *shape)."""
    return np.sum(velocity * gradient_values(grid, values), axis=-grid.dim - 1)


def dealias(field: ScalarField) -> ScalarField:
    """Truncate to the 2/3-rule wavenumber ball (for quadratic products)."""
    grid = field.grid
    return ScalarField(grid, fourier(grid, field.values, grid.dealias_mask))


def dealiased_product(f: ScalarField, g: ScalarField) -> ScalarField:
    return dealias(ScalarField(f.grid, f.values * g.values))


def real_modes(grid: PeriodicGrid, bound: int) -> list[tuple[int, ...]]:
    """Integer wave vectors k of the real Fourier modes with every |kₐ| <= bound:
    one per ± pair, the zero vector left out.  The first axis runs from 0 up,
    the other axis from -bound up, and k is kept when it is lexicographically
    above 0; ``random_band_limited`` draws in this order."""
    axes = [range(bound + 1)] + [range(-bound, bound + 1)] * (grid.dim - 1)
    zero = (0,) * grid.dim
    return [k for k in itertools.product(*axes) if k > zero]


def _mode_phase(grid: PeriodicGrid, k: tuple) -> np.ndarray:
    """k·x at the nodes, summed over the axes in order as (2π kₐ / Lₐ) xₐ."""
    phase = 2.0 * np.pi * k[0] / grid.lengths[0] * grid.identity[0]
    for ka, L, x in zip(k[1:], grid.lengths[1:], grid.identity[1:]):
        phase += 2.0 * np.pi * ka / L * x
    return phase


def random_band_limited(
    grid: PeriodicGrid, max_degree: int, rng: np.random.Generator
) -> ScalarField:
    """Random mean-zero real trigonometric polynomial over ``real_modes(grid, max_degree)``.

    Coefficients are drawn standard normal and damped by 1/(1+|k|) so sup
    norms stay O(1) across degrees.
    """
    if max_degree >= min(grid.shape) // 2:
        raise ValueError("max_degree must be below the Nyquist frequency")
    values = np.zeros(grid.shape)
    for k in real_modes(grid, max_degree):
        a, b = rng.standard_normal(2) / (1.0 + np.hypot.reduce(k))
        phase = _mode_phase(grid, k)
        values += a * np.cos(phase) + b * np.sin(phase)
    return ScalarField(grid, values)


def fixed_steps(span: float, dt: float) -> tuple[int, float]:
    """Step count n = max(1, ceil(span/dt)) and step span/n, so the last
    step lands exactly on the horizon (a ratio within roundoff of an
    integer is not rounded up).  ValidationError unless dt > 0, n <= MAX_STEPS."""
    if not (dt > 0.0 and span / dt <= MAX_STEPS):  # an infinite or NaN ratio fails too
        raise ValidationError(f"span {span}, step {dt}: need dt > 0, at most {MAX_STEPS} steps")
    n = max(1, int(np.ceil(span / dt - 1e-12)))
    return n, span / n


def sinc(x):
    """sin(x)/x, 1 at x = 0, of a scalar (by ``math``, which costs far less than
    ``np.sinc``) or elementwise of an array."""
    if isinstance(x, np.ndarray):
        return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    return math.sin(x) / x if x else 1.0


def per_half_step(f, t0: float, h: float):
    """t -> f(t), evaluated once per RK4 half step from t0 with step h, so n
    steps evaluate f 2n + 1 times (the middle stages share t + h/2, a step's
    last stage is the next one's first).  The key is the half-step count,
    not t: t + h may miss t0 + (k + 1)h in its last bits.  Its one caller is
    ``moser._advect_inverse``."""
    last = [None, None]  # the latest half-step count and its value

    def at(t):
        count = round(2.0 * (t - t0) / h) if h else 0
        if last[0] != count:
            last[:] = count, f(t)
        return last[1]

    return at


def rk4_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of y' = f(t, y) on arrays."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def check_courant(grid: PeriodicGrid, velocity, dt: float):
    """``velocity``, a vector field (dim, *shape), once its advective Courant
    number over a step ``dt`` is at most 0.5; StepTooLarge otherwise (NaN too)."""
    sup = float(np.max(np.abs(velocity)))
    courant = sup * dt * max(n / L for n, L in zip(grid.shape, grid.lengths))
    if not courant <= 0.5:  # NaN velocities fail here too
        raise StepTooLarge(f"advective Courant number {courant:.3f} is not at most 0.5")
    return velocity
