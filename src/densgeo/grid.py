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
"""

from __future__ import annotations

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
    and are applied with ``fourier``.  ``ik_axes[a]`` is ikₐ on the half
    spectrum of axis a alone, for ∂ₐ.
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
        waves = [2.0 * np.pi * np.fft.fftfreq(n, d=h)
                 for n, h in zip(self.shape[:-1], self.spacings[:-1])]
        waves.append(2.0 * np.pi * np.fft.rfftfreq(self.shape[-1], d=self.spacings[-1]))
        k = np.array(np.meshgrid(*waves, indexing="ij"))
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
        for axis, (n, h) in enumerate(zip(self.shape, self.spacings)):
            ka = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
            ka[-1] = 0.0
            self.ik_axes.append((1j * ka).reshape((-1,) + (1,) * (self.dim - 1 - axis)))

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


@dataclass(frozen=True)
class VectorField:
    """Vector field with one scalar component per axis."""

    grid: PeriodicGrid
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.grid.dim:
            raise ValueError("one component per axis required")
        for c in comps:
            self.grid.check_compatible(c.grid)
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_arrays(cls, grid: PeriodicGrid, *arrays) -> "VectorField":
        return cls(grid, tuple(ScalarField(grid, a) for a in arrays))


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


def gradient(field: ScalarField) -> VectorField:
    return VectorField.from_arrays(field.grid, *gradient_values(field.grid, field.values))


def divergence(v: VectorField) -> ScalarField:
    parts = [_partial(v.grid, c.values, axis) for axis, c in enumerate(v.components)]
    return ScalarField(v.grid, np.sum(parts, axis=0))


def laplacian(field: ScalarField) -> ScalarField:
    grid = field.grid
    return ScalarField(grid, fourier(grid, field.values, -grid.k2))


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


def directional_derivative(v: VectorField, f: ScalarField) -> ScalarField:
    """Advection term (v · ∇) f."""
    v.grid.check_compatible(f.grid)
    comps = np.array([c.values for c in v.components])
    return ScalarField(f.grid, np.sum(comps * gradient_values(f.grid, f.values), axis=0))


def dealias(field: ScalarField) -> ScalarField:
    """Truncate to the 2/3-rule wavenumber ball (for quadratic products)."""
    grid = field.grid
    return ScalarField(grid, fourier(grid, field.values, grid.dealias_mask))


def dealiased_product(f: ScalarField, g: ScalarField) -> ScalarField:
    return dealias(ScalarField(f.grid, f.values * g.values))


def random_band_limited(
    grid: PeriodicGrid, max_degree: int, rng: np.random.Generator, mean_zero: bool = True
) -> ScalarField:
    """Random real trigonometric polynomial of per-axis degree <= max_degree.

    Coefficients are drawn standard normal and damped by 1/(1+|k|) so sup
    norms stay O(1) across degrees.
    """
    if max_degree >= min(grid.shape) // 2:
        raise ValueError("max_degree must be below the Nyquist frequency")
    values = np.zeros(grid.shape)
    if grid.dim == 1:
        x = grid.coordinate(0)
        for k in range(0 if not mean_zero else 1, max_degree + 1):
            a, b = rng.standard_normal(2) / (1.0 + k)
            w = 2.0 * np.pi * k / grid.lengths[0]
            if k == 0:
                values += a
            else:
                values += a * np.cos(w * x) + b * np.sin(w * x)
    else:
        x, y = grid.coordinate(0), grid.coordinate(1)
        for kx in range(0, max_degree + 1):
            for ky in range(-max_degree, max_degree + 1):
                if kx == 0 and ky < 0:
                    continue  # conjugate pair already counted
                if kx == 0 and ky == 0:
                    if mean_zero:
                        continue
                    values += rng.standard_normal()
                    continue
                a, b = rng.standard_normal(2) / (1.0 + np.hypot(kx, ky))
                phase = (
                    2.0 * np.pi * kx / grid.lengths[0] * x
                    + 2.0 * np.pi * ky / grid.lengths[1] * y
                )
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


def rk4_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of y' = f(t, y) on arrays."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def check_courant(grid: PeriodicGrid, velocity, dt: float) -> None:
    """Raise StepTooLarge when the advective Courant number of ``velocity``
    (one array per component) over a step ``dt`` exceeds 0.5 or is NaN."""
    sup = max(float(np.max(np.abs(c))) for c in velocity)
    courant = sup * dt * max(n / L for n, L in zip(grid.shape, grid.lengths))
    if not courant <= 0.5:  # NaN velocities fail here too
        raise StepTooLarge(f"advective Courant number {courant:.3f} is not at most 0.5")
