import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from densgeo import _interp
from densgeo.errors import GridMismatch, InvalidGrid, NonZeroMean, StepTooLarge, ValidationError
from densgeo.grid import (
    MAX_STEPS,
    PeriodicGrid,
    ScalarField,
    check_courant,
    dealiased_product,
    derivative,
    directional_derivative,
    divergence,
    gradient,
    gradient_values,
    integrate,
    l2_inner,
    laplacian_inverse,
    periodic_primitive,
    random_band_limited,
    real_modes,
    fixed_steps,
    fourier,
    rk4_step,
    steps_to_tolerance,
    transform,
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
            wave = random_band_limited(grid, 15, rng).values
            field = ScalarField(grid, wave + rng.standard_normal())
            spectrum = np.fft.fft(field.values) / grid.shape[0]
            analytic = spectrum[0].real * grid.total_volume
            assert integrate(field) == pytest.approx(analytic, abs=1e-12)


class TestSpectralCalculus:
    def test_gradient_single_mode(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        grad = gradient(ScalarField(grid, np.sin(2 * np.pi * x)))
        assert grad.shape == (1, 64)
        assert np.allclose(grad[0], 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-12)

    def test_laplacian_eigenfunction(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        f = ScalarField(grid, np.sin(2 * np.pi * x))
        lap = divergence(grid, gradient(f))
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
        v = np.array([random_band_limited(grid, 6, rng).values + rng.standard_normal()
                      for _ in range(grid.dim)])
        assert abs(integrate(divergence(grid, v))) <= 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("shape", [(16,), (2, 16), (1, 8), (1, 16, 16)])
    def test_divergence_rejects_misshaped_vector_field(self, shape):
        # a vector field on the 16-node circle has shape (1, 16)
        with pytest.raises(GridMismatch):
            divergence(PeriodicGrid(16), np.ones(shape))

    @pytest.mark.parametrize("shape,lengths", [(64, 1.0), ((32, 32), (1.0, 2.0))])
    def test_poisson_roundtrip(self, shape, lengths):
        grid = PeriodicGrid(shape, lengths)
        rng = np.random.default_rng(5)
        f = random_band_limited(grid, 6, rng)
        back = divergence(grid, gradient(laplacian_inverse(f)))
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

        def tables(grid):
            return [grid.identity, *grid.wavenumbers, grid.k2, grid.inv_laplacian,
                    grid.dealias_mask, grid.ik, *grid.ik_axes]

        # every table is read-only and shared by the grids of one (shape, lengths)
        for points, lengths, other in [(16, 2.0, 3.0), ((8, 16), (1.0, 2.0), (2.0, 1.0))]:
            grid = PeriodicGrid(points, lengths)
            assert isinstance(grid.wavenumbers, tuple) and isinstance(grid.ik_axes, tuple)
            for table in tables(grid):
                with pytest.raises(ValueError):
                    table[...] = 0
            twin = PeriodicGrid(points, lengths)
            assert all(a is b for a, b in zip(tables(twin), tables(grid), strict=True))
            assert not any(a is b for a, b in zip(tables(PeriodicGrid(points, other)), tables(grid)))

    @pytest.mark.parametrize("points", [8.5, (16.9, 16), (16, 16.5), "16", ("16", 16), np.nan,
                                        np.array(16.5), np.array("16"), (np.array(8.5), 16)],
                             ids=["8.5", "16.9x16", "16x16.5", "str", "str-pair", "nan",
                                  "0d-16.5", "0d-str", "0d-8.5-pair"])
    def test_non_integral_node_count_rejected(self, points):
        with pytest.raises(InvalidGrid):
            PeriodicGrid(points)

    @pytest.mark.parametrize("points", [16, np.int64(16), 16.0, np.float64(16.0), np.array(16)],
                             ids=["int", "int64", "float", "float64", "0d-int"])
    def test_integral_node_count_stored_as_int(self, points):
        grid = PeriodicGrid((points, 8))
        assert grid.shape == (16, 8) and all(type(n) is int for n in grid.shape)
        assert grid.k2 is PeriodicGrid((16, 8)).k2

    @pytest.mark.parametrize("points, lengths", [(16, "2"), (16, np.array("2")), (16, 2 + 0j),
                                                 ((16, 8), (1.0, "2")), (16, np.array(np.nan))],
                             ids=["str", "0d-str", "complex", "str-pair", "0d-nan"])
    def test_non_real_length_rejected(self, points, lengths):
        with pytest.raises(InvalidGrid):
            PeriodicGrid(points, lengths)

    def test_zero_dimensional_arrays_read_as_their_scalars(self):
        # a 0-d array is numpy's scalar; tuple() of it raised a raw TypeError
        grid = PeriodicGrid(np.array(16), np.array(2.0))
        assert (grid.shape, grid.lengths) == ((16,), (2.0,)) and type(grid.shape[0]) is int
        assert grid.k2 is PeriodicGrid(16, 2.0).k2
        torus = PeriodicGrid((np.array(16), 8), (np.array(1.0), 2))
        assert (torus.shape, torus.lengths) == ((16, 8), (1.0, 2.0))


# argument kinds for the per-axis rule: half of them a number or a flat list or
# tuple of numbers, half any kind (mostly malformed); node counts stay small,
# so a grid that builds costs little
def _argument(numbers):
    real = numbers | numbers.map(np.array)
    numeric = real | st.lists(real, min_size=1, max_size=2) | st.tuples(real, real)
    junk = (st.none() | st.booleans() | st.text(max_size=2) | st.complex_numbers(max_magnitude=64)
            | st.builds(range, st.integers(0, 20)))
    flat = st.lists(real | junk, max_size=3)
    other = (junk | flat | flat.map(tuple) | st.lists(flat, max_size=2)
             | st.dictionaries(st.integers(8, 32), numbers, max_size=2)
             | st.sets(st.integers(8, 32), max_size=2)
             | st.builds(np.ndarray.astype,
                         hnp.arrays(int, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3),
                                    elements=st.integers(0, 64)),
                         st.sampled_from([int, float, bool, complex])))
    return st.booleans().flatmap(lambda plain: numeric if plain else other)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_COUNTS = (st.integers(4, 32).map(lambda n: 2 * n) | st.sampled_from([16.0, np.int64(24)])
           | st.integers(-8, 64) | st.floats(-64.0, 64.0) | _NON_FINITE)
_LENGTHS = st.integers(-8, 64) | st.floats(allow_nan=True, allow_infinity=True)


class TestPerAxisArguments:
    @pytest.mark.parametrize("points, lengths", [(None, 1.0), (16, None), ({16: 1}, 1.0),
                                                 (16, {2.0}), (16, True)],
                             ids=["none-points", "none-lengths", "dict", "set", "bool"])
    def test_malformed_argument_rejected(self, points, lengths):
        # None raised a raw TypeError; a dict, a set and True built a grid
        with pytest.raises(InvalidGrid):
            PeriodicGrid(points, lengths)

    @settings(max_examples=400, deadline=None)
    @given(points=_argument(_COUNTS),
           lengths=st.booleans().flatmap(lambda plain: st.just(1.0) if plain
                                         else _argument(_LENGTHS)))
    def test_builds_from_real_numbers_or_is_invalid(self, points, lengths):
        """A grid builds, with int counts and float lengths equal to the numbers
        given, only where each per-axis value is a real number; any other
        argument raises InvalidGrid and nothing else."""
        try:
            grid = PeriodicGrid(points, lengths)
        except InvalidGrid:
            return
        for arg, got, kind in ((points, grid.shape, int), (lengths, grid.lengths, float)):
            per_axis = isinstance(arg, (tuple, list)) or getattr(arg, "ndim", 0) >= 1
            values = list(arg) if per_axis else [arg] * grid.dim
            assert all(np.ndim(v) == 0 and np.asarray(v).dtype.kind in "iuf" for v in values)
            assert all(type(g) is kind for g in got)
            assert [float(v) for v in values] == [float(g) for g in got]

    @pytest.mark.parametrize("points, lengths", [(8, 1.0), (256, 1.0), (4096, 1.0),
                                                 ((16, 16), 1.0), ((48, 48), 1.0),
                                                 ((64, 32), 1.0), ((128, 128), 1.0),
                                                 ((8, 18), (1e-3, 7.0))])
    def test_ik_axes_are_views_of_ik(self, points, lengths):
        grid = PeriodicGrid(points, lengths)
        for a, (n, ka) in enumerate(zip(grid.shape, grid.wavenumbers, strict=True)):
            expected = 1j * ka[: n // 2 + 1]
            expected[-1] = 0.0  # the Nyquist mode
            expected = expected.reshape((-1,) + (1,) * (grid.dim - 1 - a))
            got = grid.ik_axes[a]
            assert np.shares_memory(got, grid.ik)
            assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
            assert got.tobytes() == expected.tobytes()

    def test_field_of_another_shape_is_grid_mismatch(self):
        grid = PeriodicGrid((16, 8))
        for values in (np.zeros((8, 16)), np.zeros(128), np.zeros((1, 16, 8)), 0.0):
            with pytest.raises(GridMismatch, match="does not match grid"):
                ScalarField(grid, values)


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
        _assert_close(gradient(field), ref_grad)

        comps = rng.standard_normal((grid.dim,) + shape)
        ref_div = sum(_reference_multiply(c, 1j * k) for c, k in zip(comps, kd))
        _assert_close(divergence(grid, comps).values, ref_div)

        zero_mean = values - np.mean(values)
        inverse = np.where(k2 > 0, -1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        _assert_close(
            laplacian_inverse(ScalarField(grid, zero_mean)).values,
            _reference_multiply(zero_mean, inverse),
        )

        cut = [np.abs(k) <= (2.0 / 3.0) * np.pi / h + 1e-12
               for k, h in zip(_reference_k(grid, False), grid.spacings)]
        ref_dealias = _reference_multiply(values, np.all(cut, axis=0))
        _assert_close(dealiased_product(field, ScalarField.constant(grid, 1.0)).values, ref_dealias)

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

    @settings(max_examples=30)
    @given(
        shape=st.sampled_from([(8,), (64,), (512,), (16, 24), (24, 16)]),
        stack=st.sampled_from([(), (2,), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transform_is_the_real_fft_over_the_grid_axes(self, shape, stack, seed):
        """``transform`` is ``rfftn`` over the trailing grid axes bit for bit,
        for a field and a stack, so the 1-D branch and ``rfft2`` callers that
        route through it keep their spectra."""
        grid = PeriodicGrid(shape)
        values = np.random.default_rng(seed).standard_normal(stack + shape)
        expected = np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)))
        actual = transform(grid, values)
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
        if grid.dim == 2:
            assert actual.tobytes() == np.fft.rfft2(values).tobytes()


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
                 (divergence(grid, comps).values,
                  np.sum([fourier(grid, c, k) for c, k in zip(comps, grid.ik)], axis=0))]
        pairs += [(derivative(ScalarField(grid, values), a).values, reference(values)[a])
                  for a in range(grid.dim)]
        for actual, expected in pairs:
            assert actual.shape == expected.shape
            if grid.dim == 1:
                assert np.array_equal(actual, expected)
            elif expected.size:
                assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))

    @settings(max_examples=60)
    @given(
        shape=st.one_of(st.tuples(_EVEN_SIZES), st.tuples(_EVEN_SIZES, _EVEN_SIZES)),
        lengths=st.tuples(st.floats(0.25, 8.0), st.floats(0.25, 8.0)),
        stack=st.sampled_from([None, 1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_directional_derivative_sums_the_partials(self, shape, lengths, stack, seed):
        grid = PeriodicGrid(shape, lengths[: len(shape)])
        rng = np.random.default_rng(seed)
        velocity = rng.standard_normal((grid.dim,) + shape)
        values = rng.standard_normal(shape if stack is None else (stack,) + shape)

        def along(f):  # X₀ ∂₀f + X₁ ∂₁f, one derivative call per axis
            out = velocity[0] * derivative(ScalarField(grid, f), 0).values
            for a in range(1, grid.dim):
                out = out + velocity[a] * derivative(ScalarField(grid, f), a).values
            return out

        expected = along(values) if stack is None else np.array([along(f) for f in values])
        actual = directional_derivative(grid, velocity, values)
        assert actual.shape == expected.shape
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))
        # adding Xₐ ∂ₐf one partial at a time is np.sum over the stacked
        # gradient's products, to the last bit
        stacked = np.sum(velocity * gradient_values(grid, values), axis=-grid.dim - 1)
        assert actual.tobytes() == stacked.tobytes()

    def test_two_dimensional_gradient_makes_no_full_grid_transform(self, fft_calls):
        grid = PeriodicGrid((16, 24), (1.5, 0.75))
        gradient_values(grid, np.ones((2,) + grid.shape))
        assert fft_calls == ["rfft", "irfft", "rfft", "irfft"]

    def test_one_dimensional_gradient_is_one_transform_pair(self, fft_calls):
        grid = PeriodicGrid(32)
        gradient_values(grid, np.ones((3, 32)))
        assert fft_calls == ["rfft", "irfft"]


def _band_limited_loops(grid, max_degree, rng):
    """``random_band_limited`` as per-dimension loops over the modes: the
    oracle of the stream of fields the benchmark and the tests draw."""
    values = np.zeros(grid.shape)
    if grid.dim == 1:
        x = grid.coordinate(0)
        for k in range(1, max_degree + 1):
            a, b = rng.standard_normal(2) / (1.0 + k)
            w = 2.0 * np.pi * k / grid.lengths[0]
            values += a * np.cos(w * x) + b * np.sin(w * x)
        return values
    x, y = grid.coordinate(0), grid.coordinate(1)
    for kx in range(0, max_degree + 1):
        for ky in range(-max_degree, max_degree + 1):
            if kx == 0 and ky <= 0:
                continue  # the zero mode, and conjugate pairs already drawn
            a, b = rng.standard_normal(2) / (1.0 + np.hypot(kx, ky))
            phase = (2.0 * np.pi * kx / grid.lengths[0] * x
                     + 2.0 * np.pi * ky / grid.lengths[1] * y)
            values += a * np.cos(phase) + b * np.sin(phase)
    return values


class TestBandLimited:
    @pytest.mark.parametrize("shape,lengths,degree", [
        (256, 1.0, 4), (256, 0.7, 4), (512, 1.0, 4), (512, 3.1, 4),
        ((48, 48), 1.0, 2), ((48, 48), (0.7, 3.1), 2), ((64, 64), 1.0, 2),
        ((64, 64), (0.7, 3.1), 2), ((128, 128), 1.0, 2), ((128, 128), (0.7, 3.1), 2),
        ((16, 24), (2.0, 1.0), 7),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2024])
    def test_matches_per_dimension_loops(self, shape, lengths, degree, seed):
        # bit for bit, for three draws from one generator: the benchmark's
        # inputs stay the same fields
        grid = PeriodicGrid(shape, lengths)
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            drawn = random_band_limited(grid, degree, ours).values
            assert np.array_equal(drawn, _band_limited_loops(grid, degree, oracle))
        assert ours.standard_normal() == oracle.standard_normal()

    def test_damping_rounds_as_hypot(self):
        # from |k| = 45 on, 1 + np.hypot(k) and 1 + a rounded sqrt(k·k) differ
        grid = PeriodicGrid((96, 96))
        drawn = random_band_limited(grid, 45, np.random.default_rng(0)).values
        assert np.array_equal(drawn, _band_limited_loops(grid, 45, np.random.default_rng(0)))

    @pytest.mark.parametrize("shape", [64, (16, 24)])
    def test_mean_zero(self, shape):
        grid = PeriodicGrid(shape, 2.5)
        field = random_band_limited(grid, 5, np.random.default_rng(3))
        assert abs(integrate(field)) <= 1e-13 * np.max(np.abs(field.values))

    def test_real_modes_one_per_pair(self):
        assert real_modes(PeriodicGrid(16), 3) == [(1,), (2,), (3,)]
        assert real_modes(PeriodicGrid((8, 16)), 1) == [(0, 1), (1, -1), (1, 0), (1, 1)]
        modes = real_modes(PeriodicGrid((32, 32)), 5)
        pairs = set(modes) | {(-kx, -ky) for kx, ky in modes}
        assert len(modes) == (11 * 11 - 1) // 2 and len(pairs) == 2 * len(modes)
        assert (0, 0) not in pairs

    def test_degree_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            random_band_limited(PeriodicGrid((16, 32)), 8, np.random.default_rng(0))


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


@settings(max_examples=60)
@given(
    n=_EVEN_SIZES,
    spectral=st.booleans(),
    h=st.floats(1e-6, 0.1),
    t=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rk4_step_is_the_textbook_formula_and_writes_no_argument(n, spectral, h, t, seed):
    """rk4_step is y + (h/6)(k1 + 2k2 + 2k3 + k4), with stage arguments
    y + 0.5h·k and y + h·k3, bit for bit, for a real (2, N, N) state and for a
    complex (N/2 + 1,) one, like the torus flows' and the circle steppers';
    and it leaves y and every array the rate returned as they were."""
    rng = np.random.default_rng(seed)
    shape = (n // 2 + 1,) if spectral else (2, n, n)
    y = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if spectral else 0.0)
    coupling = rng.standard_normal(shape)

    def rate(s, v):  # nonlinear, so each stage sees its own argument
        return coupling * v + s * v * v

    returned = []

    def recording_rate(s, v):
        k = rate(s, v)
        returned.append((k, k.copy()))
        return k

    y_before = y.copy()
    actual = rk4_step(recording_rate, t, y, h)
    k1 = rate(t, y)
    k2 = rate(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rate(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rate(t + h, y + h * k3)
    expected = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()
    assert y.tobytes() == y_before.tobytes()
    assert len(returned) == 4
    assert all(k.tobytes() == copy.tobytes() for k, copy in returned)


@pytest.mark.parametrize("y, rate", [
    (np.array([1.0 + 2.0j, -0.5j]), lambda t, v: np.array([0.25, -1.5]) + t),  # real k, complex y
    (np.ones((2, 3)), lambda t, v: np.array([1.0, -2.0, 0.5]) * t),  # k broadcasts over y
    (np.arange(3), lambda t, v: 0.5 * v),  # integer y
])
def test_rk4_step_promotes_as_the_textbook_formula(y, rate):
    """Where a rate's array has another dtype or shape than y, rk4_step still
    gives the textbook formula's result, by numpy's promotion and broadcasting."""
    h = 0.1
    k1 = rate(0.0, y)
    k2 = rate(0.5 * h, y + 0.5 * h * k1)
    k3 = rate(0.5 * h, y + 0.5 * h * k2)
    k4 = rate(h, y + h * k3)
    expected = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    actual = rk4_step(rate, 0.0, y, h)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


@settings(max_examples=300)
@given(
    cap=st.integers(1, 3000),
    log_tol=st.floats(-13.0, -6.0),
    amp=st.floats(-1e3, 1e3),
    given_step=st.booleans(),
    data=st.data(),
)
def test_steps_to_tolerance_follows_its_step_rule(cap, log_tol, amp, given_step, data):
    """Synthetic runs r_n = r + A n⁻⁴, which the Richardson estimate fits exactly; some
    draws raise StepTooLarge below a threshold, or turn non-finite over a band of counts."""
    first = None if given_step else data.draw(st.integers(1, cap), label="first")
    # runs below ``threshold`` steps raise StepTooLarge, and runs of low to high - 1 are NaN
    threshold = data.draw(st.just(0) | st.integers(1, cap + 1), label="threshold")
    low = data.draw(st.integers(1, 2 * cap), label="nan_low")
    high = data.draw(st.just(low) | st.integers(low, 2 * cap + 1), label="nan_high")
    r, shape, tol = np.array([0.3, -1.2, 2.0]), np.array([1.0, -0.5, 0.25]), 10.0**log_tol
    calls = []

    def model(n):
        return np.full(3, np.nan) if low <= n < high else r + amp * shape * float(n) ** -4

    def run(n):
        calls.append(n)
        if n < threshold:
            raise StepTooLarge("coarse")
        return model(n)

    try:
        result, error, n, total = steps_to_tolerance(run, cap, tol, first)
    except StepTooLarge:  # only the cap-step run's propagates
        assert calls[-1] == cap < threshold
        return
    assert n in calls and total == sum(calls)
    assert np.array_equal(result, model(n), equal_nan=True)
    assert math.isnan(error) == (not np.all(np.isfinite(result)))
    if first is None:
        assert n == cap and total <= cap + (cap + 1) // 2 + 2 * cap
    else:
        assert total <= 2 * cap
        assert math.isnan(error) or error <= tol or cap in calls
    if not math.isnan(error):
        assert np.max(np.abs(result - r)) <= 10.0 * max(error, tol)


class TestMetricDescent:
    """The divergence pairing is insensitive to volume-preserving stirring:
    <ad_w u, v> + <u, ad_w v> = 0 whenever div w = 0."""

    @pytest.mark.parametrize("shape", [256, (32, 32)])
    def test_descent_identity(self, shape):
        grid = PeriodicGrid(shape)
        rng = np.random.default_rng(17)
        w = divergence_free_field(grid, rng)
        for _ in range(5):
            u, v = (np.array([random_band_limited(grid, 4, rng).values + rng.standard_normal()
                              for _ in range(grid.dim)])
                    for _ in range(2))
            ad_w_u = lie_bracket(grid, w, u)  # ad_w = -[w, ·]; the sign cancels in the sum
            ad_w_v = lie_bracket(grid, w, v)
            total = 0.25 * (
                l2_inner(divergence(grid, ad_w_u), divergence(grid, v))
                + l2_inner(divergence(grid, u), divergence(grid, ad_w_v))
            )
            scale = max(
                abs(l2_inner(divergence(grid, u), divergence(grid, v))), 1.0
            )
            assert abs(total) <= 1e-10 * scale
