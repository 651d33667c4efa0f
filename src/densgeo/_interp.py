"""Off-grid evaluation of periodic fields.

Both routes evaluate the trigonometric interpolant from the real half
spectrum that ``grid.fourier`` uses, with each axis's Nyquist coefficient
split between ±N/2 so the interpolant is real, and both take one field
(*shape) or a stack (m, *shape) sampled at the same points.  ``trig_eval``
sums a ``half_spectrum`` exactly with ``trig_sum``, O(N) per point and field;
a Newton solve keeps the spectrum, so its steps transform nothing.
``SplineEvaluator`` zero-pads the spectrum onto a finer grid and evaluates
a quintic B-spline there (inside time-stepping loops).  On a periodic grid
the spline's prefilter is a Fourier multiplier, applied to the padded
spectrum, so a spline build is one real-FFT pair and scipy only evaluates
the spline (``map_coordinates``), importing ``scipy.ndimage`` at its first
evaluation: that import costs a CLI process more than numpy's.
``invert_monotone`` inverts an increasing circle map by Newton on either
route, from a cubic Hermite inverse on a padded sampling.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .errors import InversionDiverged
from .grid import PeriodicGrid, fourier

# spectral refinement under the quintic spline: inside the integrators, and
# for one-shot evaluation of a field above EXACT_EVAL_LIMIT nodes
PAD_FACTOR = 4
FIELD_PAD_FACTOR = 8
# invert_monotone and hsflow's inf ρ0 stop at a Newton step below NEWTON_TOL periods
NEWTON_TOL = 1e-15
NEWTON_MAX_ITER = 60


def pad_values(grid: PeriodicGrid, values: np.ndarray, factor: int, prefilter=False) -> np.ndarray:
    """Resample a field or a stack onto a ``factor`` times finer grid by
    zero-padding the real half spectrum over the trailing grid axes; with
    ``prefilter``, the quintic B-spline coefficients of the fine samples."""
    spec = np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0))) * factor**grid.dim
    for axis, n in zip(range(-grid.dim, 0), grid.shape):
        spec = _pad_axis(spec, axis, n, n * factor, prefilter)
        # invert each axis before padding the next: the leading axis then
        # transforms a coarse-by-fine array
        spec = np.fft.irfft(spec, n=n * factor) if axis == -1 else np.fft.ifft(spec, axis=axis)
    return spec


@lru_cache(maxsize=16)
def _quintic_prefilter(n: int) -> np.ndarray:
    """Prefilter of the periodic quintic B-spline on n nodes at the FFT modes
    0..n-1: the reciprocal symbol of its samples (1, 26, 66, 26, 1)/120
    (Unser, Aldroubi & Eden 1993)."""
    omega = 2.0 * np.pi * np.arange(n) / n
    inverse = 120.0 / (66.0 + 52.0 * np.cos(omega) + 2.0 * np.cos(2.0 * omega))
    inverse.flags.writeable = False
    return inverse


def _pad_axis(spec: np.ndarray, axis: int, n: int, n_fine: int, prefilter: bool) -> np.ndarray:
    """Zero-pad one spectral axis from n to n_fine modes, splitting the
    Nyquist coefficient between ±n/2 so the fine signal stays real (at
    n_fine = n it stays whole), and optionally apply the spline prefilter.
    The half-spectrum axis (length n/2 + 1) keeps only its modes 0..n_fine/2."""
    spec = spec.swapaxes(axis, -1)
    half = n // 2
    full = spec.shape[-1] == n
    out = np.zeros(spec.shape[:-1] + (n_fine if full else n_fine // 2 + 1,), dtype=complex)
    out[..., :half] = spec[..., :half]
    out[..., half] = nyquist = (0.5 if n_fine > n else 1.0) * spec[..., half]
    if full:
        out[..., n_fine - half + 1 :] = spec[..., half + 1 :]
        out[..., n_fine - half] = nyquist
    if prefilter:
        out *= _quintic_prefilter(n_fine)[: out.shape[-1]]
    return out.swapaxes(-1, axis)


class SplineEvaluator:
    """Quintic spline on a spectrally padded grid, periodic wrap-around, of
    one field (*shape) or a stack (m, *shape).  The coefficients come from
    ``pad_values`` with the prefilter, and ``map_coordinates`` evaluates them."""

    def __init__(self, grid: PeriodicGrid, values: np.ndarray, factor: int = PAD_FACTOR):
        self.grid = grid
        self.factor = factor
        self._coeffs = pad_values(grid, values, factor, prefilter=True)
        self._spacings = tuple(h / factor for h in grid.spacings)

    def __call__(self, *points: np.ndarray) -> np.ndarray:
        """Evaluate at physical coordinates (one array per axis); a stack
        gives the fields along a new leading axis."""
        from scipy import ndimage

        coords = [np.asarray(p) / h for p, h in zip(points, self._spacings)]
        stack = self._coeffs.reshape((-1,) + self._coeffs.shape[-self.grid.dim :])
        values = [ndimage.map_coordinates(c, coords, order=5, mode="grid-wrap", prefilter=False)
                  for c in stack]
        return values[0] if self._coeffs.ndim == self.grid.dim else np.array(values)


def half_spectrum(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """``trig_sum``'s coefficients of a field (*shape) or a stack (m, *shape): the
    real FFT over the node count, interior modes twice, for their conjugates."""
    spec = (np.fft.rfft(values) if grid.dim == 1 else np.fft.rfft2(values)) / grid.node_count
    spec[..., 1 : grid.shape[-1] // 2] *= 2.0
    return spec


def trig_sum(grid: PeriodicGrid, spec: np.ndarray, *points: np.ndarray) -> np.ndarray:
    """The interpolant of a ``half_spectrum`` (a stack, or Fourier multiples, too) exactly
    at points (one array per axis), giving the points' shape after the stack axis."""
    pts = [np.asarray(p, dtype=float) for p in points]
    out_shape = np.broadcast(*pts).shape
    phases = []  # e^{ikx}, (points, modes) per axis; the last axis keeps 0..N/2
    for p, n, k in zip(pts, grid.shape, grid.wavenumbers):
        # cos θ and sin θ written into one complex array: a complex exp of
        # 1j·θ would allocate the product and then cost about twice as much
        theta = np.outer(np.broadcast_to(p, out_shape), k)
        e = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=e.real)
        np.sin(theta, out=e.imag)
        e.imag[:, n // 2] = 0.0  # cos(πNx/L): the Nyquist split between ±N/2
        phases.append(e)
    # einsum calls no BLAS, whose threads can stall this product for ~40 ms
    if grid.dim == 1:
        result = np.einsum("pi,...i->...p", phases[0], spec)
    else:
        result = np.einsum("pi,...ij,pj->...p", phases[0], spec, phases[1])
    return result.real.reshape(spec.shape[: -grid.dim] + out_shape)


def trig_eval(grid: PeriodicGrid, values: np.ndarray, *points: np.ndarray) -> np.ndarray:
    """The interpolant of a field or a stack at the points: ``trig_sum`` of its spectrum."""
    return trig_sum(grid, half_spectrum(grid, values), *points)


# below this node count exact trig evaluation is cheap; above it, a padded
# spline matches the interpolant to roundoff at a fraction of the cost
EXACT_EVAL_LIMIT = 1024


def field_evaluator(grid: PeriodicGrid, values: np.ndarray):
    """Callable evaluating the trigonometric interpolant of a field or a
    stack (m, *shape) at scattered points, shaped as ``trig_eval``'s."""
    if grid.node_count <= EXACT_EVAL_LIMIT:
        return partial(trig_sum, grid, half_spectrum(grid, values))
    return SplineEvaluator(grid, values, factor=FIELD_PAD_FACTOR)


def _hermite_inverse(grid: PeriodicGrid, w_stack: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First guess of invert_monotone: the cubic Hermite inverse through the
    points (eta, x) of an 8x refined sampling with slopes 1/eta', kept inside
    its bracketing fine cell.  ``w_stack`` holds the displacement w and w'."""
    length = grid.lengths[0]
    refine = 8
    n_fine = grid.shape[0] * refine
    dx = length / n_fine
    eta_fine, wprime_fine = pad_values(grid, w_stack, refine)
    eta_fine += np.arange(n_fine) * dx
    # shift targets into the range [eta(0), eta(0) + L) covered by one period
    wrap = np.floor((y - eta_fine[0]) / length)
    y_wrapped = y - wrap * length
    lo = np.clip(np.searchsorted(eta_fine, y_wrapped, side="right") - 1, 0, n_fine - 1)
    hi = (lo + 1) % n_fine  # the last cell ends at eta(0) + L
    h = eta_fine[hi] + length * (hi == 0) - eta_fine[lo]
    s = (y_wrapped - eta_fine[lo]) / h
    slope_lo, slope_hi = 1.0 / (1.0 + wprime_fine[lo]), 1.0 / (1.0 + wprime_fine[hi])
    offset = dx * s * s * (3.0 - 2.0 * s) + h * s * (1.0 - s) * (
        (1.0 - s) * slope_lo - s * slope_hi)
    return (lo + np.clip(offset / dx, 0.0, 1.0)) * dx + wrap * length


def invert_monotone(grid: PeriodicGrid, eta_values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve eta(x) = y for an increasing circle map eta(x) = x + w(x).

    Safeguarded Newton on the trigonometric interpolant of the periodic
    displacement w, from a cubic Hermite inverse on an 8x refined sampling.
    The guess's error falls as the fourth power of the fine spacing: for the
    Hunter-Saxton flow of ρ0 = sin 2πx on 256 nodes at 0.8 of its blowup
    time it is 3e-12 of the period, where a linear inverse is off by 4e-7,
    so one Newton step reaches the roundoff plateau.  Newton steps are clamped to one coarse cell so
    near-flat stretches of eta (small eta') cannot throw the iteration out
    of its basin.
    """
    length = grid.lengths[0]
    n = grid.shape[0]
    w = eta_values - grid.coordinate(0)
    w_stack = np.array([w, fourier(grid, w, grid.ik[0])])
    y = np.asarray(targets, dtype=float)
    x = _hermite_inverse(grid, w_stack, y)
    w_and_slope = field_evaluator(grid, w_stack)

    max_step = length / n
    prev = np.inf
    for _ in range(NEWTON_MAX_ITER):
        w_x, wprime_x = w_and_slope(x)
        residual = x + w_x - y
        slope = 1.0 + wprime_x
        step = np.clip(residual / slope, -max_step, max_step)
        x = x - step
        worst = np.max(np.abs(step))
        if worst < NEWTON_TOL * length or (worst < 1e-10 * length and worst >= 0.5 * prev):
            break  # converged, or stalled on the roundoff plateau
        prev = worst
    else:
        final = np.max(np.abs(x + w_and_slope(x)[0] - y))
        if final > 1e-9 * length:
            raise InversionDiverged(
                f"monotone inversion stalled with residual {final:.3e}"
            )
    return x
