"""Exact off-grid evaluation on the real half spectrum."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densgeo import _interp, hsflow
from densgeo.errors import InversionDiverged
from densgeo.grid import PeriodicGrid, ScalarField, random_band_limited

# lengths whose factor-4 fine nodes are exact floats, so the comparison with
# pad_values measures the evaluator and not the rounding of the points
CASES = [((8,), 2.5), ((64,), 2.5), ((512,), 2.5),
         ((16, 24), (1.5, 0.75)), ((24, 16), (1.5, 0.75)), ((32, 32), (2.0, 3.0))]


def fine_nodes(grid, factor):
    axes = [np.arange(n * factor) * (h / factor) for n, h in zip(grid.shape, grid.spacings)]
    return np.meshgrid(*axes, indexing="ij")


@pytest.mark.parametrize("shape, lengths", CASES)
@pytest.mark.parametrize("stack", [None, 3])
def test_matches_padding_at_fine_nodes(shape, lengths, stack):
    grid = PeriodicGrid(shape, lengths)
    # white noise: every mode, the Nyquist modes included, carries content
    values = np.random.default_rng(7).standard_normal(
        grid.shape if stack is None else (stack,) + grid.shape
    )
    padded = _interp.pad_values(grid, values, 4)
    exact = _interp.trig_eval(grid, values, *fine_nodes(grid, 4))
    assert exact.shape == padded.shape
    assert np.max(np.abs(exact - padded)) <= 1e-13 * np.max(np.abs(padded))


@pytest.mark.parametrize("shape, lengths", CASES)
def test_padding_by_one_keeps_the_values(shape, lengths):
    # the Nyquist modes stay whole when the grid is not refined
    grid = PeriodicGrid(shape, lengths)
    values = np.random.default_rng(3).standard_normal(grid.shape)
    assert np.max(np.abs(_interp.pad_values(grid, values, 1) - values)) <= 1e-14


@pytest.mark.parametrize("shape, lengths", CASES)
def test_stack_rows_equal_single_fields(shape, lengths):
    grid = PeriodicGrid(shape, lengths)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((3,) + grid.shape)
    points = [rng.uniform(-L, 2.0 * L, (5, 7)) for L in grid.lengths]
    stacked = _interp.trig_eval(grid, values, *points)
    assert stacked.shape == (3, 5, 7)
    for row, field in zip(stacked, values):
        single = _interp.trig_eval(grid, field, *points)
        assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))


def longdouble_sum(grid, spec, x):
    """The 1-D interpolant of a ``half_spectrum`` stack at the points x, in
    long double, with whole turns taken out of each mode's angle j·x/L."""
    n, length = grid.shape[0], grid.lengths[0]
    coeffs = spec.astype(np.clongdouble)
    coeffs[..., n // 2] = coeffs[..., n // 2].real
    turns = np.outer(x.ravel().astype(np.longdouble) / length, np.arange(n // 2 + 1))
    angles = 8.0 * np.arctan(np.longdouble(1.0)) * (turns - np.rint(turns))
    return (np.cos(angles) @ coeffs.real.T - np.sin(angles) @ coeffs.imag.T).T


def rounding_bound(grid, spec, x):
    """2ε·Σₖ|cₖ|(1 + |k·x|) per field and point: the roundoff of the phase sum
    with k·x rounded once."""
    k_x = np.abs(np.outer(x.ravel(), grid.wavenumbers[0]))
    return 2.0 * np.finfo(float).eps * (np.abs(spec) @ (1.0 + k_x).T)


def assert_within_rounding_bound(grid, values, x):
    spec = _interp.half_spectrum(grid, values)
    got = _interp.trig_eval(grid, values, x).reshape(spec.shape[:-1] + (-1,))
    ratio = np.abs(got - longdouble_sum(grid, spec, x).astype(float)) / rounding_bound(grid, spec, x)
    assert np.max(ratio) <= 1.0


@pytest.mark.parametrize("n", [8, 64, 512])
def test_one_dimensional_within_rounding_bound_of_longdouble(n):
    grid = PeriodicGrid(n, 2.5)
    rng = np.random.default_rng(n)
    assert_within_rounding_bound(grid, rng.standard_normal((3, n)), rng.uniform(-5.0, 7.5, (4, 25)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 512).map(lambda half: 2 * half),
    length=st.floats(0.25, 8.0),
    stack=st.sampled_from([(), (1,), (3,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_dimensional_rounding_bound_property(n, length, stack, seed):
    """White noise, every mode carrying content, at points over five periods."""
    grid = PeriodicGrid(n, length)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0 * length, 3.0 * length, 40)
    assert_within_rounding_bound(grid, rng.standard_normal(stack + (n,)), x)


def test_one_dimensional_sum_forms_no_points_by_modes_array():
    """At N = 1024 and 1,024 points, the 1-D phase sum's peak allocation stays
    below a quarter of one complex (points × modes) array, 2.1 MB."""
    grid = PeriodicGrid(1024)
    rng = np.random.default_rng(2)
    values, x = rng.standard_normal(1024), rng.uniform(0.0, 1.0, 1024)
    _interp.trig_eval(grid, values, x)  # caches and first-call allocations
    tracemalloc.start()
    try:
        _interp.trig_eval(grid, values, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * x.size * (1024 // 2 + 1) * np.dtype(complex).itemsize


def matmul_eval_2d(grid, values, x, y):
    """trig_eval's 2-D branch as it was before: a stacked complex matmul."""
    spec = np.fft.rfft2(values) / grid.node_count
    spec[..., 1 : grid.shape[-1] // 2] *= 2.0
    phases = []
    for axis, p in enumerate((x, y)):
        n, h = grid.shape[axis], grid.spacings[axis]
        k = np.fft.rfftfreq(n, d=h) if axis == 1 else np.fft.fftfreq(n, d=h)
        e = np.exp(1j * np.outer(p.ravel(), 2.0 * np.pi * k))
        e[:, n // 2] = e[:, n // 2].real
        phases.append(e)
    result = np.sum((phases[0] @ spec) * phases[1], axis=-1)
    return result.real.reshape(spec.shape[:-2] + x.shape)


@pytest.mark.parametrize("shape, lengths", [((16, 24), (1.5, 0.75)), ((32, 32), (2.0, 3.0))])
@pytest.mark.parametrize("stack", [None, 3])
def test_two_dimensional_matches_matmul_formula(shape, lengths, stack):
    grid = PeriodicGrid(shape, lengths)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(grid.shape if stack is None else (stack,) + grid.shape)
    x, y = (rng.uniform(-L, 2.0 * L, (4, 9)) for L in grid.lengths)
    reference = matmul_eval_2d(grid, values, x, y)
    got = _interp.trig_eval(grid, values, x, y)
    assert got.shape == reference.shape
    assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_invert_monotone_builds_one_evaluator(monkeypatch):
    grid = PeriodicGrid(64)
    w = 0.02 * random_band_limited(grid, 3, np.random.default_rng(3)).values
    built = []
    original = _interp.field_evaluator

    def counting(g, values):
        built.append(values.shape)
        return original(g, values)

    monkeypatch.setattr(_interp, "field_evaluator", counting)
    x = _interp.invert_monotone(grid, grid.coordinate(0) + w, grid.coordinate(0))
    assert built == [(2, 64)]
    assert np.max(np.abs(x + _interp.trig_eval(grid, w, x) - grid.coordinate(0))) < 1e-14


@settings(max_examples=60)
@given(
    n=st.sampled_from([16, 32, 64, 128, 256, 512, 1024]),
    length=st.floats(0.25, 8.0),
    frac=st.floats(0.0, 0.995),
    seed=st.integers(0, 2**32 - 1),
)
def test_invert_monotone_solves_to_roundoff_and_keeps_order(n, length, frac, seed):
    """Circle maps x + w(x) from the closed-form Hunter-Saxton flow up to
    0.995 of its blowup time, where min eta' is near 3e-5, inverted at
    sorted targets spread over five periods."""
    grid = PeriodicGrid(n, length)
    rng = np.random.default_rng(seed)
    rho0 = random_band_limited(grid, max(1, n // 16), rng)
    g = hsflow.HsGeodesic.from_divergence(rho0)
    eta = hsflow.anchored_flow_1d(g, frac * g.t_max)
    y = np.sort(rng.uniform(-2.0 * length, 3.0 * length, 64))
    x = _interp.invert_monotone(grid, eta, y)
    w_at_x = _interp.trig_eval(grid, eta - grid.coordinate(0), x)
    assert np.max(np.abs(x + w_at_x - y)) <= 1e-14 * length
    assert np.all(np.diff(x) > 0.0)


@pytest.mark.parametrize("n", [64, 2048], ids=["exact", "spline"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invert_monotone_rejects_a_non_finite_node(n, bad):
    # a NaN residual compared False with the bound, so 60 Newton steps ran
    # and all-NaN labels came back
    grid = PeriodicGrid(n)
    x = grid.coordinate(0)
    eta = x + 0.02 * np.sin(2 * np.pi * x)
    eta[3] = bad
    with np.errstate(all="ignore"), pytest.raises(InversionDiverged):
        _interp.invert_monotone(grid, eta, x)


def test_eulerian_rho_at_readme_data_makes_three_exact_evaluations(monkeypatch):
    """The README hs request's residual time, 0.4 t_max on 256 nodes: two
    Newton evaluations from the Hermite first guess, then rho0 at the labels,
    each one phase sum."""
    grid = PeriodicGrid(256)
    rho0 = ScalarField(grid, np.sin(2.0 * np.pi * grid.coordinate(0)))
    geo = hsflow.HsGeodesic.from_divergence(rho0)
    calls = []
    original = _interp.trig_sum

    def counting(g, spec, *points):
        calls.append(spec.shape)
        return original(g, spec, *points)

    monkeypatch.setattr(_interp, "trig_sum", counting)
    hsflow.eulerian_rho(geo, 0.4 * geo.t_max)
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("shape", [(64,), (16, 24)])
def test_infimum_transforms_rho0_before_newton_only(monkeypatch, fft_calls, shape):
    """from_divergence transforms ρ0 forward twice, for the spectrum that
    Newton sums and in pad_values's fine sampling; each Newton step is one
    phase sum of the gradient and Hessian spectra, with no transform, and
    the end point's value is one more sum of ρ0's spectrum."""
    grid = PeriodicGrid(shape)
    rho0 = random_band_limited(grid, 3, np.random.default_rng(5))
    sums = []
    original = _interp.trig_sum

    def counting(g, spec, *points):
        sums.append(spec.shape)
        return original(g, spec, *points)

    monkeypatch.setattr(_interp, "trig_sum", counting)
    hsflow.HsGeodesic.from_divergence(rho0)
    d = grid.dim
    half = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
    if d == 1:
        assert fft_calls == ["rfft", "rfft", "irfft"]
    else:
        assert fft_calls == ["rfftn", "rfftn", "ifft", "irfft"]
    assert len(sums) >= 3  # the minimum is off the nodes: Newton takes steps
    assert sums == [(d + d * d,) + half] * (len(sums) - 1) + [half]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([((16,), 1.0), ((64,), 2.5), ((512,), 1.0),
                          ((16, 24), (1.5, 0.75)), ((32, 16), (2.0, 3.0))]),
    factor=st.sampled_from([1, 2, 4, 8]),  # 8: where every uncertified build ends
    stack=st.sampled_from([(), (2,)]),
    data=st.data(),
)
def test_spline_within_its_error_bound(case, factor, stack, data):
    """|spline - interpolant| <= error_bound + 1e-14 sup at random points, for
    band-limited fields of any degree below the Nyquist modes."""
    grid = PeriodicGrid(*case)
    degree = data.draw(st.integers(1, min(grid.shape) // 2 - 1), label="degree")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = np.array([random_band_limited(grid, degree, rng).values
                       for _ in range(stack[0] if stack else 1)]).reshape(stack + grid.shape)
    spline = _interp.SplineEvaluator(grid, values, factor=factor)
    points = [rng.uniform(-L, 2.0 * L, 200) for L in grid.lengths]
    error = np.abs(spline(*points) - _interp.trig_eval(grid, values, *points))
    assert spline.error_bound.shape == stack
    sup = np.max(np.abs(values))
    assert np.all(error <= np.asarray(spline.error_bound)[..., None] + 1e-14 * sup)


@pytest.mark.parametrize("shape", [(64,), (64, 32)])
@pytest.mark.parametrize("mode, expected", [(1, 1), (2, 2), (3, 2), (4, 4), (12, 8)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_default_factor_is_the_least_certified(shape, mode, expected, scale):
    """The default refinement is the least of 1, 2, 4 and 8 whose bound is
    within SPLINE_TOL of the sup, and 8 where none is, whatever the field's
    scale."""
    grid = PeriodicGrid(shape)
    values = scale * np.cos(2 * np.pi * mode * grid.coordinate(0))
    bounds = {f: _interp.SplineEvaluator(grid, values, factor=f).error_bound for f in (1, 2, 4, 8)}
    certified = [f for f in (1, 2, 4, 8) if bounds[f] <= _interp.SPLINE_TOL * scale]
    spline = _interp.SplineEvaluator(grid, values)
    assert spline.factor == (certified[0] if certified else 8) == expected
    assert spline.error_bound == bounds[spline.factor]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([((2048,), None), ((4096,), None), ((48, 48), (1.5, 0.75)),
                          ((64, 32), (2.0, 3.0))]),
    length=st.floats(0.5, 4.0),
    stack=st.sampled_from([(), (2,)]),
    data=st.data(),
)
def test_field_evaluator_spline_is_certified_to_roundoff(case, length, stack, data):
    """Above EXACT_EVAL_LIMIT nodes field_evaluator's spline pads by the least
    of 1, 2, 4 and 8 whose bound is within FIELD_TOL of the sup (8 where none
    is), and stays within that bound of the interpolant at random points.
    Degrees up to 128 reach each of the four factors on 2,048 and 4,096 nodes."""
    shape, lengths = case
    grid = PeriodicGrid(shape, length if lengths is None else lengths)
    assert grid.node_count > _interp.EXACT_EVAL_LIMIT
    degree = data.draw(st.integers(1, min(128, min(shape) // 2 - 1)), label="degree")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = np.array([random_band_limited(grid, degree, rng).values
                       for _ in range(stack[0] if stack else 1)]).reshape(stack + grid.shape)
    sup = np.max(np.abs(values))
    evaluator = _interp.field_evaluator(grid, values)
    bounds = {f: _interp.SplineEvaluator(grid, values, factor=f).error_bound for f in (1, 2, 4, 8)}
    certified = [f for f in (1, 2, 4, 8) if np.max(bounds[f]) <= _interp.FIELD_TOL * sup]
    assert evaluator.factor == (certified[0] if certified else 8)
    assert np.array_equal(evaluator.error_bound, bounds[evaluator.factor])
    points = [rng.uniform(-L, 2.0 * L, 200) for L in grid.lengths]
    error = np.abs(evaluator(*points) - _interp.trig_eval(grid, values, *points))
    assert np.all(error <= np.asarray(evaluator.error_bound)[..., None] + 1e-14 * sup)
