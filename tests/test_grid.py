import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from densgeo import _interp
from densgeo.errors import InvalidGrid, NonZeroMean, StepTooLarge, ValidationError
from densgeo.grid import (
    MAX_STEPS,
    PeriodicGrid,
    ScalarField,
    VectorField,
    check_courant,
    dealias,
    derivative,
    divergence,
    gradient,
    gradient_values,
    integrate,
    l2_inner,
    laplacian,
    laplacian_inverse,
    periodic_primitive,
    random_band_limited,
    fixed_steps,
    fourier,
    rk4_step,
)
from helpers import divergence_free_field, lie_bracket


class TestQuadrature:
    def test_constant_on_unit_circle(self):
        grid = PeriodicGrid(64)
        assert integrate(ScalarField.constant(grid, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_sin_squared(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        # analytic oracle: ∫₀¹ sin²(2πx) dx = 1/2
        assert integrate(ScalarField(grid, np.sin(2 * np.pi * x) ** 2)) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_constant_on_torus(self):
        grid = PeriodicGrid((32, 32), (2.0, 3.0))
        assert integrate(ScalarField.constant(grid, 1.0)) == pytest.approx(6.0, abs=1e-12)

    def test_weights_sum_to_volume(self):
        for grid in (PeriodicGrid(64), PeriodicGrid((16, 48), (2.0, 0.5))):
            total = grid.node_weight * grid.node_count
            assert total == pytest.approx(grid.total_volume, rel=1e-15)

    def test_trig_polynomial_exactness(self):
        # rectangle rule is exact below the Nyquist frequency
        grid = PeriodicGrid(32)
        rng = np.random.default_rng(3)
        for _ in range(10):
            field = random_band_limited(grid, 15, rng, mean_zero=False)
            spectrum = np.fft.fft(field.values) / grid.shape[0]
            analytic = spectrum[0].real * grid.total_volume
            assert integrate(field) == pytest.approx(analytic, abs=1e-12)


class TestSpectralCalculus:
    def test_gradient_single_mode(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        grad = gradient(ScalarField(grid, np.sin(2 * np.pi * x)))
        assert np.allclose(
            grad.components[0].values, 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-12
        )

    def test_laplacian_eigenfunction(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        f = ScalarField(grid, np.sin(2 * np.pi * x))
        lap = divergence(gradient(f))
        assert np.allclose(lap.values, -4 * np.pi**2 * f.values, atol=1e-10)

    def test_laplacian_inverse_eigenvalue(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        out = laplacian_inverse(ScalarField(grid, np.sin(2 * np.pi * x)))
        # eigenvalue oracle: Δ sin(2πx) = -4π² sin(2πx)
        assert np.allclose(out.values, -np.sin(2 * np.pi * x) / (4 * np.pi**2), atol=1e-14)

    def test_laplacian_inverse_requires_mean_zero(self):
        grid = PeriodicGrid(64)
        with pytest.raises(NonZeroMean):
            laplacian_inverse(ScalarField.constant(grid, 1.0))

    @pytest.mark.parametrize("shape,lengths", [(64, 1.0), ((32, 32), (2.0, 3.0))])
    def test_divergence_integrates_to_zero(self, shape, lengths):
        grid = PeriodicGrid(shape, lengths)
        rng = np.random.default_rng(11)
        comps = tuple(random_band_limited(grid, 6, rng, mean_zero=False)
                      for _ in range(grid.dim))
        v = VectorField(grid, comps)
        sup = max(np.max(np.abs(c.values)) for c in comps)
        assert abs(integrate(divergence(v))) <= 1e-12 * sup

    @pytest.mark.parametrize("shape,lengths", [(64, 1.0), ((32, 32), (1.0, 2.0))])
    def test_poisson_roundtrip(self, shape, lengths):
        grid = PeriodicGrid(shape, lengths)
        rng = np.random.default_rng(5)
        f = random_band_limited(grid, 6, rng)
        back = divergence(gradient(laplacian_inverse(f)))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-10 * scale


class TestValidation:
    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError):
            PeriodicGrid(33)

    def test_tiny_resolution_rejected(self):
        with pytest.raises(ValueError):
            PeriodicGrid(4)

    def test_shape_mismatch_rejected(self):
        grid = PeriodicGrid(16)
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros(8))

    @pytest.mark.parametrize("shape", [16, (16, 16)])
    @pytest.mark.parametrize("length", [1e-200, 1e200])
    def test_lengths_past_normal_wavenumbers_rejected(self, shape, length):
        # 1e-200 overflows |k|², 1e200 underflows it to 0 (Δ⁻¹ would vanish)
        with pytest.raises(InvalidGrid):
            PeriodicGrid(shape, length)

    def test_volume_past_normal_floats_rejected(self):
        # each |k|² is normal at 2e154, but the torus volume 4e308 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid):
                PeriodicGrid((16, 16), 2e154)

    @pytest.mark.parametrize("length", [1e-150, 1e150])
    def test_extreme_lengths_keep_laplacian_inverse(self, length):
        grid = PeriodicGrid((16, 16), length)
        wave = np.sin(2 * np.pi * grid.coordinate(0) / length)
        expected = -((length / (2 * np.pi)) ** 2) * wave
        got = laplacian_inverse(ScalarField(grid, wave)).values
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_identity_is_read_only_node_coordinates(self):
        grid = PeriodicGrid((8, 16), (1.0, 2.0))
        assert grid.identity.shape == (2, 8, 16)
        assert np.array_equal(grid.identity[1], grid.coordinate(1))
        with pytest.raises(ValueError):
            grid.identity[0, 0, 0] = 1.0


class TestPeriodicPrimitive:
    @settings(max_examples=60)
    @given(
        values=hnp.arrays(
            float, st.sampled_from([8, 16, 64]), elements=st.floats(-1.0, 1.0)
        ),
        length=st.floats(0.5, 4.0),
    )
    def test_vanishes_at_zero_and_differentiates_back(self, values, length):
        grid = PeriodicGrid(values.size, length)
        spec = np.fft.fft(values)
        spec[values.size // 2] = 0.0  # the Nyquist mode has no real primitive
        values = np.fft.ifft(spec).real
        prim = periodic_primitive(grid, values)
        assert prim[0] == 0.0
        periodic = ScalarField(grid, prim - np.mean(values) * grid.coordinate(0))
        err = np.max(np.abs(derivative(periodic).values - (values - np.mean(values))))
        assert err <= 1e-11


def _reference_k(grid, zero_nyquist):
    """Full complex-FFT wavenumbers broadcast over the grid, one per axis."""
    ks = []
    for n, length in zip(grid.shape, grid.lengths):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        if zero_nyquist:
            k[n // 2] = 0.0
        ks.append(k)
    return np.meshgrid(*ks, indexing="ij")


def _reference_multiply(values, multiplier):
    return np.fft.ifftn(np.fft.fftn(values) * multiplier).real


def _reference_pad(grid, values, factor):
    """Zero-padding of the full complex spectrum, Nyquist split in two."""
    spec = np.fft.fftn(values)
    for axis, n in enumerate(grid.shape):
        spec = np.moveaxis(spec, axis, -1)
        n_fine, half = n * factor, n // 2
        out = np.zeros(spec.shape[:-1] + (n_fine,), dtype=complex)
        out[..., :half] = spec[..., :half]
        out[..., n_fine - half + 1 :] = spec[..., half + 1 :]
        out[..., half] = 0.5 * spec[..., half]
        out[..., n_fine - half] += 0.5 * spec[..., half]
        spec = np.moveaxis(out, -1, axis)
    return np.fft.ifftn(spec).real * factor**grid.dim


def _assert_close(actual, reference):
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= 1e-12 * np.max(np.abs(reference))


class TestRealFFTLayer:
    """The half-spectrum multipliers against complex-FFT references."""

    @settings(max_examples=40)
    @given(
        shape=st.sampled_from([(8,), (16,), (64,), (16, 24), (24, 16), (8, 32)]),
        lengths=st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_operators_match_complex_reference(self, shape, lengths, seed):
        grid = PeriodicGrid(shape, lengths[: len(shape)])
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(shape)
        field = ScalarField(grid, values)
        kd = _reference_k(grid, zero_nyquist=True)
        k2 = sum(k**2 for k in _reference_k(grid, zero_nyquist=False))

        ref_grad = np.array([_reference_multiply(values, 1j * k) for k in kd])
        for axis in range(grid.dim):
            _assert_close(derivative(field, axis).values, ref_grad[axis])
        _assert_close(np.array([c.values for c in gradient(field).components]), ref_grad)

        comps = rng.standard_normal((grid.dim,) + shape)
        ref_div = sum(_reference_multiply(c, 1j * k) for c, k in zip(comps, kd))
        _assert_close(divergence(VectorField.from_arrays(grid, *comps)).values, ref_div)

        _assert_close(laplacian(field).values, _reference_multiply(values, -k2))
        zero_mean = values - np.mean(values)
        inverse = np.where(k2 > 0, -1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        _assert_close(
            laplacian_inverse(ScalarField(grid, zero_mean)).values,
            _reference_multiply(zero_mean, inverse),
        )

        cut = [np.abs(k) <= (2.0 / 3.0) * np.pi / h + 1e-12
               for k, h in zip(_reference_k(grid, False), grid.spacings)]
        ref_dealias = _reference_multiply(values, np.all(cut, axis=0))
        _assert_close(dealias(field).values, ref_dealias)

        stack = rng.standard_normal((3,) + shape)
        ref_stack = np.array(
            [[_reference_multiply(v, 1j * k) for k in kd] for v in stack]
        )
        _assert_close(gradient_values(grid, stack), ref_stack)
        for factor in (2, 4):
            _assert_close(_interp.pad_values(grid, values, factor),
                          _reference_pad(grid, values, factor))
            _assert_close(_interp.pad_values(grid, stack, factor),
                          np.array([_reference_pad(grid, v, factor) for v in stack]))

        if grid.dim == 1:
            k = kd[0]
            primitive = np.where(k != 0.0, 1.0 / np.where(k != 0.0, 1j * k, 1.0), 0.0)
            w = _reference_multiply(values, primitive)
            reference = np.mean(values) * grid.coordinate(0) + (w - w[0])
            _assert_close(periodic_primitive(grid, values), reference)


_EVEN_SIZES = st.integers(4, 32).map(lambda half: 2 * half)


class TestOneAxisDerivatives:
    """∂ₐ transforms along axis a alone; the full-grid ``fourier`` with
    ``grid.ik[a]`` is the reference."""

    @settings(max_examples=80)
    @given(
        shape=st.one_of(st.tuples(_EVEN_SIZES), st.tuples(_EVEN_SIZES, _EVEN_SIZES)),
        lengths=st.tuples(st.floats(0.25, 8.0), st.floats(0.25, 8.0)),
        stack=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_full_grid_multiplier(self, shape, lengths, stack, seed):
        grid = PeriodicGrid(shape, lengths[: len(shape)])
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(shape)
        fields = rng.standard_normal((stack,) + shape)
        comps = rng.standard_normal((grid.dim,) + shape)

        def reference(v):
            return np.stack([fourier(grid, v, grid.ik[a]) for a in range(grid.dim)],
                            axis=-grid.dim - 1)

        pairs = [(gradient_values(grid, values), reference(values)),
                 (gradient_values(grid, fields), reference(fields)),
                 (divergence(VectorField.from_arrays(grid, *comps)).values,
                  np.sum([fourier(grid, c, k) for c, k in zip(comps, grid.ik)], axis=0))]
        pairs += [(derivative(ScalarField(grid, values), a).values, reference(values)[a])
                  for a in range(grid.dim)]
        for actual, expected in pairs:
            assert actual.shape == expected.shape
            if grid.dim == 1:
                assert np.array_equal(actual, expected)
            elif expected.size:
                assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_two_dimensional_gradient_makes_no_full_grid_transform(self, fft_calls):
        grid = PeriodicGrid((16, 24), (1.5, 0.75))
        gradient_values(grid, np.ones((2,) + grid.shape))
        assert fft_calls == ["rfft", "irfft", "rfft", "irfft"]

    def test_one_dimensional_gradient_is_one_transform_pair(self, fft_calls):
        grid = PeriodicGrid(32)
        gradient_values(grid, np.ones((3, 32)))
        assert fft_calls == ["rfft", "irfft"]


@pytest.mark.parametrize("shape", [(64,), (16, 24)])
def test_stacked_spline_evaluator_equals_per_field(shape):
    grid = PeriodicGrid(shape, (1.5, 0.75)[: len(shape)])
    rng = np.random.default_rng(5)
    stack = np.array([random_band_limited(grid, 5, rng).values for _ in range(3)])
    points = [rng.uniform(-1.0, 2.0, 50) for _ in shape]
    stacked = _interp.SplineEvaluator(grid, stack, factor=4)(*points)
    per_field = np.array(
        [_interp.SplineEvaluator(grid, v, factor=4)(*points) for v in stack]
    )
    assert stacked.shape == (3, 50)
    np.testing.assert_array_equal(stacked, per_field)


def _reference_coefficients(grid, values, factor):
    """Quintic B-spline coefficients of the padded samples by scipy's
    recursive prefilter, one grid axis at a time."""
    coeffs = _interp.pad_values(grid, values, factor)
    for axis in range(-grid.dim, 0):
        coeffs = ndimage.spline_filter1d(coeffs, order=5, axis=axis, mode="grid-wrap")
    return coeffs


@pytest.mark.parametrize("factor", [2, 4, 8])
@pytest.mark.parametrize(
    "shape, lengths",
    [((8,), (1.0,)), ((64,), (2.5,)), ((512,), (0.7,)),
     ((16, 24), (1.5, 0.75)), ((24, 16), (3.0, 0.6))],
)
def test_spline_prefilter_matches_scipy(shape, lengths, factor):
    grid = PeriodicGrid(shape, lengths)
    rng = np.random.default_rng(factor)
    fine_nodes = np.meshgrid(
        *[np.arange(n * factor) * (h / factor) for n, h in zip(shape, grid.spacings)],
        indexing="ij",
    )
    for values in (rng.standard_normal(shape), rng.standard_normal((3,) + shape)):
        spline = _interp.SplineEvaluator(grid, values, factor=factor)
        reference = _reference_coefficients(grid, values, factor)
        assert spline._coeffs.shape == reference.shape
        error = np.max(np.abs(spline._coeffs - reference))
        assert error <= 1e-13 * np.max(np.abs(reference))
        # the spline interpolates the padded samples at the fine nodes
        _assert_close(spline(*fine_nodes), _interp.pad_values(grid, values, factor))


def test_check_courant_rejects_nan_velocity():
    grid = PeriodicGrid(16)
    check_courant(grid, [np.full(16, 1.0)], 1e-3)
    with pytest.raises(StepTooLarge):
        check_courant(grid, [np.full(16, np.nan)], 1e-3)


def test_fixed_steps_bounded_by_max_steps():
    assert fixed_steps(float(MAX_STEPS), 1.0) == (MAX_STEPS, 1.0)
    for span, dt in [(MAX_STEPS + 1.0, 1.0), (1e300, 1e-300), (np.nan, 1.0), (1.0, 0.0),
                     (1.0, -1e-3)]:
        with pytest.raises(ValidationError):
            fixed_steps(span, dt)


def test_rk4_step_is_fourth_order():
    rates = np.array([-2.0, -0.5, 1.0])

    def error(n_steps):
        y, h = np.ones(3), 1.0 / n_steps
        for step in range(n_steps):
            y = rk4_step(lambda t, v: rates * v, step * h, y, h)
        return np.abs(y - np.exp(rates))

    orders = np.log2(error(16) / error(32))
    assert np.all((3.9 < orders) & (orders < 4.1))


class TestMetricDescent:
    """The divergence pairing is insensitive to volume-preserving stirring:
    <ad_w u, v> + <u, ad_w v> = 0 whenever div w = 0."""

    @pytest.mark.parametrize("shape", [256, (32, 32)])
    def test_descent_identity(self, shape):
        grid = PeriodicGrid(shape)
        rng = np.random.default_rng(17)
        w = divergence_free_field(grid, rng)
        for _ in range(5):
            comps_u = tuple(random_band_limited(grid, 4, rng, mean_zero=False)
                            for _ in range(grid.dim))
            comps_v = tuple(random_band_limited(grid, 4, rng, mean_zero=False)
                            for _ in range(grid.dim))
            u = VectorField(grid, comps_u)
            v = VectorField(grid, comps_v)
            ad_w_u = lie_bracket(w, u)  # ad_w = -[w, ·]; the sign cancels in the sum
            ad_w_v = lie_bracket(w, v)
            total = 0.25 * (
                l2_inner(divergence(ad_w_u), divergence(v))
                + l2_inner(divergence(u), divergence(ad_w_v))
            )
            scale = max(
                abs(l2_inner(divergence(u), divergence(v))), 1.0
            )
            assert abs(total) <= 1e-10 * scale
