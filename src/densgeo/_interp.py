"""Off-grid evaluation of periodic fields.

Both routes evaluate the trigonometric interpolant from the real half
spectrum that ``grid.fourier`` uses, with each axis's Nyquist coefficient
split between ±N/2 so the interpolant is real, and both take one field
(*shape) or a stack (m, *shape) sampled at the same points.  ``trig_eval``
sums a ``half_spectrum`` exactly with ``trig_sum``, O(N) multiply-adds per
point and field; in 1-D its phases come from two tables of about √(N/2)
entries per point, so a point costs O(√N) cos and sin calls, not O(N);
a Newton solve keeps the spectrum, so its steps transform nothing.
``SplineEvaluator`` zero-pads the spectrum onto a grid finer by the least
of 1, 2, 4 and 8 whose closed-form error bound is within a tolerance of
the field's sup, and evaluates a quintic B-spline there: ``SPLINE_TOL``
inside time-stepping loops, ``FIELD_TOL`` (roundoff) for
``field_evaluator``'s splines above ``EXACT_EVAL_LIMIT`` nodes.  On a
periodic grid the spline's prefilter is a Fourier multiplier, applied to the
spectrum, so a spline build is one real-FFT pair and scipy only evaluates
the spline (``map_coordinates``), importing ``scipy.ndimage`` at its first
evaluation: that import costs a CLI process more than numpy's.
``invert_monotone`` inverts an increasing circle map by Newton on either
route, from a cubic Hermite inverse on a sampling padded by 8 on the exact
route and taken on the grid itself on the spline's.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .errors import InversionDiverged
from .grid import PeriodicGrid, fourier, transform

# bounds on a spline's error relative to the field's sup, met by the least pad
# factor of PAD_FACTORS (the largest where none meets it).  SPLINE_TOL, the
# default, is the integrators' tightest checked figure (1e-8) over 10.
# field_evaluator's splines take FIELD_TOL, the roundoff that exact evaluation
# itself reaches (its tests allow 1e-14 of the sup), because they stand in for
# it above EXACT_EVAL_LIMIT nodes and equation_residual divides differences of
# their values by 2 dt_fd (2e-5 by default)
SPLINE_TOL = 1e-9
FIELD_TOL = 1e-14
PAD_FACTORS = (1, 2, 4, 8)
# invert_monotone and hsflow's inf ρ0 stop at a Newton step below NEWTON_TOL periods
NEWTON_TOL = 1e-15
NEWTON_MAX_ITER = 60


def pad_values(grid: PeriodicGrid, values: np.ndarray, factor: int) -> np.ndarray:
    """Resample a field or a stack onto a ``factor`` times finer grid by
    zero-padding the real half spectrum over the trailing grid axes."""
    return _pad_spectrum(grid, transform(grid, values), factor)


def _pad_spectrum(grid: PeriodicGrid, spec: np.ndarray, factor: int) -> np.ndarray:
    """``pad_values`` from the values' half spectrum ``transform``."""
    spec = spec * factor**grid.dim
    for axis, n in zip(range(-grid.dim, 0), grid.shape):
        spec = _pad_axis(spec, axis, n, n * factor)
        # invert each axis before padding the next: the leading axis then
        # transforms a coarse-by-fine array
        spec = np.fft.irfft(spec, n=n * factor) if axis == -1 else np.fft.ifft(spec, axis=axis)
    return spec


def _pad_axis(spec: np.ndarray, axis: int, n: int, n_fine: int) -> np.ndarray:
    """Zero-pad one spectral axis from n to n_fine modes, splitting the
    Nyquist coefficient between ±n/2 so the fine signal stays real (at
    n_fine = n it stays whole).  The half-spectrum axis (length n/2 + 1)
    keeps only its modes 0..n_fine/2."""
    spec = spec.swapaxes(axis, -1)
    half = n // 2
    full = spec.shape[-1] == n
    out = np.zeros(spec.shape[:-1] + (n_fine if full else n_fine // 2 + 1,), dtype=complex)
    out[..., :half] = spec[..., :half]
    out[..., half] = nyquist = (0.5 if n_fine > n else 1.0) * spec[..., half]
    if full:
        out[..., n_fine - half + 1 :] = spec[..., half + 1 :]
        out[..., n_fine - half] = nyquist
    return out.swapaxes(-1, axis)


@lru_cache(maxsize=16)
def _spline_symbols(shape: tuple, factor: int) -> tuple[np.ndarray, np.ndarray]:
    """The quintic spline's prefilter and error weights, refined by ``factor``,
    at each entry of an ``rfftn`` over ``shape``.  At a mode's angle ω per fine
    cell the prefilter 120/(66 + 52 cos ω + 2 cos 2ω) inverts the symbol of the
    spline's samples (1, 26, 66, 26, 1)/120 (Unser, Aldroubi & Eden 1993), and
    r(ω) = (sin(ω/2)/(ω/2))⁶ times it is the spline's symbol (Blu & Unser 1999):
    the spline of e^{iωx} is r(ω)e^{iωx} plus aliases of total weight 1 - r(ω),
    so it errs by at most 2(1 - r(ω)).  The weights are 2(1 - Πₐ r(ωₐ)), scaled
    as ``half_spectrum`` scales the coefficients."""
    modes = [(np.arange(n) + n // 2) % n - n // 2 for n in shape[:-1]]  # signed
    modes.append(np.arange(shape[-1] // 2 + 1))
    prefilter = ratio = 1.0
    for n, j in zip(shape, np.ix_(*modes)):
        omega = 2.0 * np.pi * j / (n * factor)
        inverse = 120.0 / (66.0 + 52.0 * np.cos(omega) + 2.0 * np.cos(2.0 * omega))
        prefilter = prefilter * inverse
        ratio = ratio * np.sinc(j / (n * factor)) ** 6 * inverse
    weights = 2.0 * (1.0 - ratio) / math.prod(shape)
    weights[..., 1 : shape[-1] // 2] *= 2.0
    prefilter.flags.writeable = weights.flags.writeable = False
    return prefilter, weights


def _certify(grid: PeriodicGrid, spec: np.ndarray, sup: float, tol: float,
             factors: tuple = PAD_FACTORS) -> tuple[np.ndarray, int]:
    """The least of ``factors`` whose spline error bounds (per field, from the
    values' half spectrum ``spec``) are at most ``tol`` times ``sup``, or the last
    where none is, with those bounds."""
    axes = tuple(range(-grid.dim, 0))
    magnitudes = np.abs(spec)
    for factor in factors:
        bound = (magnitudes * _spline_symbols(grid.shape, factor)[1]).sum(axis=axes)
        if bound.max() <= tol * sup:
            break
    return bound, factor


class SplineEvaluator:
    """Quintic spline on a spectrally padded grid, periodic wrap-around, of
    one field (*shape) or a stack (m, *shape).  The prefiltered spectrum is
    padded as ``pad_values`` pads, and ``map_coordinates`` evaluates the
    coefficients.  ``error_bound`` (per field) bounds |spline - interpolant|
    everywhere (``_spline_symbols``).  Without a ``factor`` the grid is refined
    by the least of ``PAD_FACTORS`` (1, 2, 4, 8) whose bound is at most
    ``SPLINE_TOL`` times the sup of the values (of the whole stack), and by 8
    where none is."""

    def __init__(self, grid: PeriodicGrid, values: np.ndarray, factor: int | None = None):
        spec = transform(grid, values)
        self.error_bound, factor = _certify(grid, spec, np.abs(values).max(), SPLINE_TOL,
                                            PAD_FACTORS if factor is None else (factor,))
        self.grid = grid
        self.factor = factor
        self._coeffs = _pad_spectrum(grid, spec * _spline_symbols(grid.shape, factor)[0], factor)
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
    spec = transform(grid, values) / grid.node_count
    spec[..., 1 : grid.shape[-1] // 2] *= 2.0
    return spec


def _phases(angles: np.ndarray) -> np.ndarray:
    """e^{iθ}, with cos θ and sin θ written into one complex array: a complex
    exp of 1j·θ would allocate the product and then cost about twice as much."""
    e = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=e.real)
    np.sin(angles, out=e.imag)
    return e


@lru_cache(maxsize=16)
def _mode_blocks(n: int) -> tuple[int, int, np.ndarray]:
    """``_sum_1d``'s split of the modes j = 0..N/2 as j = qB + r: the block
    B = ⌈√(N/2 + 1)⌉, the number of rows q, and the multiples of one phase
    table, r = 0..B-1 and then qB."""
    modes = n // 2 + 1
    block = math.isqrt(modes - 1) + 1
    rows = -(-modes // block)
    multiples = np.append(np.arange(block), block * np.arange(rows)).astype(float)
    multiples.flags.writeable = False
    return block, rows, multiples


def _sum_1d(grid: PeriodicGrid, spec: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Σ_k c_k e^{ikx} at the points x (flat), (stack, points), from √N-size phase
    tables: e^{ikx} for mode j = qB + r is the coarse e^{2πi·qB·x/L} times the
    fine e^{2πi·r·x/L}, so the sum is Σ_q coarse[p, q] Σ_r fine[p, r] c[q, r],
    and no (points × modes) array is formed.  The angles are taken in periods,
    with whole turns removed exactly from x/L and then from each multiple of
    it, so each is within π of 0 and rounds no worse than the points do."""
    n = grid.shape[0]
    block, rows, multiples = _mode_blocks(n)
    coeffs = np.zeros(spec.shape[:-1] + (rows * block,), dtype=complex)
    coeffs[..., : n // 2 + 1] = spec
    coeffs[..., n // 2] = spec[..., n // 2].real  # cos(πNx/L): the Nyquist split between ±N/2
    periods = x / grid.lengths[0]
    periods -= np.rint(periods)
    turns = periods[:, None] * multiples
    turns -= np.rint(turns)
    table = _phases(2.0 * np.pi * turns)  # fine, then coarse
    inner = np.einsum("pr,jr->pj", table[:, :block], coeffs.reshape(-1, block))
    return np.einsum("pq,psq->sp", table[:, block:], inner.reshape(len(x), -1, rows))


def trig_sum(grid: PeriodicGrid, spec: np.ndarray, *points: np.ndarray) -> np.ndarray:
    """The interpolant of a ``half_spectrum`` (a stack, or Fourier multiples, too) exactly
    at points (one array per axis), giving the points' shape after the stack axis."""
    pts = [np.asarray(p, dtype=float) for p in points]
    out_shape = np.broadcast(*pts).shape
    # einsum calls no BLAS, whose threads can stall a product for ~40 ms
    if grid.dim == 1:
        result = _sum_1d(grid, spec, pts[0].ravel())
    else:
        phases = []  # e^{ikx}, (points, modes) per axis; the last axis keeps 0..N/2
        for p, n, k in zip(pts, grid.shape, grid.wavenumbers):
            e = _phases(np.outer(np.broadcast_to(p, out_shape), k))
            e.imag[:, n // 2] = 0.0  # cos(πNx/L): the Nyquist split between ±N/2
            phases.append(e)
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
    stack (m, *shape) at scattered points, shaped as ``trig_eval``'s: exactly
    up to ``EXACT_EVAL_LIMIT`` nodes, and above it by a spline refined by the
    least of ``PAD_FACTORS`` whose error bound is at most ``FIELD_TOL`` of the
    sup (by 8 where none is)."""
    if grid.node_count <= EXACT_EVAL_LIMIT:
        return partial(trig_sum, grid, half_spectrum(grid, values))
    spec = transform(grid, values)
    return SplineEvaluator(grid, values, _certify(grid, spec, np.abs(values).max(), FIELD_TOL)[1])


def _hermite_inverse(grid: PeriodicGrid, w_stack: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First guess of invert_monotone: the cubic Hermite inverse through the
    points (eta, x) of a sampling with slopes 1/eta', kept inside its
    bracketing fine cell: refined by 8 up to ``EXACT_EVAL_LIMIT`` nodes, where
    each Newton step is an exact phase sum that costs more than the padding,
    and the grid's own above it, where Newton steps on the spline are cheap
    and an 8x padding is not.  ``w_stack`` holds the displacement w and w'."""
    length = grid.lengths[0]
    refine = 8 if grid.node_count <= EXACT_EVAL_LIMIT else 1
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
    displacement w (``field_evaluator``'s), from a cubic Hermite inverse on a
    sampling refined by 8, or on the grid itself above ``EXACT_EVAL_LIMIT``
    nodes (``_hermite_inverse``).  The guess's error falls as the fourth power
    of the fine spacing: for the Hunter-Saxton flow of ρ0 = sin 2πx on 256
    nodes at 0.8 of its blowup time it is 3e-12 of the period, where a linear
    inverse is off by 4e-7, so one Newton step reaches the roundoff plateau.
    Newton steps are clamped to one coarse cell so near-flat stretches of eta
    (small eta') cannot throw the iteration out of its basin.
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
        if not final <= 1e-9 * length:  # a NaN residual fails too
            raise InversionDiverged(
                f"monotone inversion stalled with residual {final:.3e}"
            )
    return x
