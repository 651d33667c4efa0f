"""Off-grid evaluation of periodic fields.

Both routes evaluate the trigonometric interpolant from the real half
spectrum that ``grid.fourier`` uses, with each axis's Nyquist coefficient
split between ±N/2 so the interpolant is real, and both take one field
(*shape) or a stack (m, *shape) sampled at the same points.  ``trig_eval``
sums the spectrum exactly, O(N) per point and field (one-shot oracles and
Newton solves).  ``SplineEvaluator`` zero-pads the spectrum onto a finer
grid and evaluates a quintic B-spline there (inside time-stepping loops).
On a periodic grid the spline's prefilter is a Fourier multiplier, applied
to the padded spectrum, so a spline build is one real-FFT pair and scipy
only evaluates the spline (``map_coordinates``), importing ``scipy.ndimage``
at its first evaluation: that import costs a CLI process more than numpy's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InversionDiverged
from .grid import PeriodicGrid, fourier

# spectral refinement under the quintic spline: inside the integrators, and
# for one-shot evaluation of a field above EXACT_EVAL_LIMIT nodes
PAD_FACTOR = 4
FIELD_PAD_FACTOR = 8
# invert_monotone stops when a Newton step is below NEWTON_TOL periods
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
    Nyquist coefficient between ±n/2 so the fine signal stays real, and
    optionally apply the spline prefilter.  The half-spectrum axis (length
    n/2 + 1) keeps only its modes 0..n_fine/2."""
    spec = spec.swapaxes(axis, -1)
    half = n // 2
    full = spec.shape[-1] == n
    out = np.zeros(spec.shape[:-1] + (n_fine if full else n_fine // 2 + 1,), dtype=complex)
    out[..., :half] = spec[..., :half]
    out[..., half] = 0.5 * spec[..., half]
    if full:
        out[..., n_fine - half + 1 :] = spec[..., half + 1 :]
        out[..., n_fine - half] = 0.5 * spec[..., half]
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


def trig_eval(grid: PeriodicGrid, values: np.ndarray, *points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a field (*shape) or a stack
    (m, *shape) exactly at arbitrary points (one array per axis), giving the
    points' shape after the stack axis.  The half spectrum counts its
    interior modes twice, for their conjugates, so the sum's real part is
    the interpolant."""
    spec = (np.fft.rfft(values) if grid.dim == 1 else np.fft.rfft2(values)) / grid.node_count
    spec[..., 1 : grid.shape[-1] // 2] *= 2.0
    pts = [np.asarray(p, dtype=float) for p in points]
    out_shape = np.broadcast(*pts).shape
    phases = []  # e^{ikx}, (points, modes) per axis; the last axis keeps 0..N/2
    for axis, (p, n, h) in enumerate(zip(pts, grid.shape, grid.spacings)):
        k = np.fft.rfftfreq(n, d=h) if axis == grid.dim - 1 else np.fft.fftfreq(n, d=h)
        e = np.exp(1j * np.outer(np.broadcast_to(p, out_shape), 2.0 * np.pi * k))
        e[:, n // 2] = e[:, n // 2].real  # cos(πNx/L): the Nyquist split between ±N/2
        phases.append(e)
    # einsum calls no BLAS, whose threads can stall this product for ~40 ms
    if grid.dim == 1:
        result = np.einsum("pi,...i->...p", phases[0], spec)
    else:
        result = np.einsum("pi,...ij,pj->...p", phases[0], spec, phases[1])
    return result.real.reshape(spec.shape[: -grid.dim] + out_shape)


# below this node count exact trig evaluation is cheap; above it, a padded
# spline matches the interpolant to roundoff at a fraction of the cost
EXACT_EVAL_LIMIT = 1024


def field_evaluator(grid: PeriodicGrid, values: np.ndarray):
    """Callable evaluating the trigonometric interpolant of a field or a
    stack (m, *shape) at scattered points, shaped as ``trig_eval``'s."""
    if grid.node_count <= EXACT_EVAL_LIMIT:
        return lambda *pts: trig_eval(grid, values, *pts)
    return SplineEvaluator(grid, values, factor=FIELD_PAD_FACTOR)


def invert_monotone(grid: PeriodicGrid, eta_values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve eta(x) = y for an increasing circle map eta(x) = x + w(x).

    Safeguarded Newton on the trigonometric interpolant of the periodic
    displacement w.  The initial guess comes from a piecewise-linear inverse
    on an 8x refined sampling, and Newton steps are clamped to one coarse
    cell so near-flat stretches of eta (small eta') cannot throw the
    iteration out of its basin.
    """
    length = grid.lengths[0]
    n = grid.shape[0]
    x_nodes = grid.coordinate(0)
    w = eta_values - x_nodes
    w_and_slope = field_evaluator(grid, np.array([w, fourier(grid, w, grid.ik[0])]))

    # monotone piecewise-linear inverse on a refined grid for the first guess
    refine = 8
    x_fine = np.arange(n * refine) * (length / (n * refine))
    eta_fine = x_fine + pad_values(grid, w, refine)
    y = np.asarray(targets, dtype=float)
    # shift targets into the range [eta(0), eta(0) + L) covered by one period
    wrap = np.floor((y - eta_fine[0]) / length)
    y_wrapped = y - wrap * length
    x = np.interp(y_wrapped, np.append(eta_fine, eta_fine[0] + length),
                  np.append(x_fine, length)) + wrap * length

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
