import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import i0

from densgeo.density import (
    MASS_TOL,
    POSITIVITY_TOL,
    Density,
    SpherePoint,
    density_from_values,
    normalize,
    sqrt_map,
    square_map,
    uniform_density,
)
from densgeo.errors import (
    MassMismatch,
    NegativeDensity,
    NonFiniteInput,
    NonPositiveInput,
    OffSphere,
    ValidationError,
)
from densgeo.grid import (
    PeriodicGrid,
    ScalarField,
    integrate,
    l2_inner,
    laplacian_inverse_gradient,
    random_band_limited,
)
from densgeo.spheregeo import h1dot_inner


class TestSqrtMap:
    def test_uniform(self):
        grid = PeriodicGrid(64)
        point = sqrt_map(uniform_density(grid))
        assert np.allclose(point.values, 1.0)
        assert point.radius == pytest.approx(1.0)

    def test_wavy_density_lands_on_sphere(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        d = Density(ScalarField(grid, 1 + 0.5 * np.sin(2 * np.pi * x)), 1.0)
        point = sqrt_map(d)
        norm_sq = integrate(ScalarField(grid, point.values**2))
        assert norm_sq == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200)
    @given(
        shape=st.sampled_from([(8,), (64,), (256,), (8, 8), (16, 24)]),
        log_length=st.floats(-3.0, 3.0),
        log_scale=st.floats(-100.0, 100.0),
        edge=st.sampled_from([-1.0, 1.0]),
        shave=st.floats(0.0, 4.0),
        negatives=st.sampled_from([0.0, 0.5, 1.0 - 1e-9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_densities_at_the_mass_edge_have_a_square_root(
        self, shape, log_length, log_scale, edge, shave, negatives, seed
    ):
        # the mass sits MASS_TOL off the quadrature, within a few ulps, and
        # three nodes carry up to the admitted negative share
        grid = PeriodicGrid(shape, 10.0**log_length)
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.01, 3.0, grid.shape) * 10.0**log_scale
        nodes = rng.choice(values.size, 3, replace=False)
        values.flat[nodes] = 0.0
        values.flat[nodes] = -negatives * POSITIVITY_TOL * np.sum(values) / 3.0
        field = ScalarField(grid, values)
        mass = integrate(field) / (1.0 - edge * MASS_TOL) * (1.0 - shave * 1e-16)
        try:
            d = Density(field, mass)
        except (MassMismatch, NegativeDensity):
            assume(False)  # past an edge by roundoff
        point = sqrt_map(d)
        assert point.radius == np.sqrt(d.mass)
        assert np.array_equal(point.values, np.sqrt(np.clip(values, 0.0, None)))

    def test_off_sphere_point_is_a_validation_error(self):
        grid = PeriodicGrid(64)
        with pytest.raises(OffSphere) as caught:
            SpherePoint(ScalarField.constant(grid, 1.0), 1.0 + 1e-9)
        assert isinstance(caught.value, ValidationError) and caught.value.exit_code == 2

    def test_torus_mass_four(self):
        grid = PeriodicGrid((16, 16), (2.0, 2.0))
        point = sqrt_map(uniform_density(grid, mass=4.0))
        assert np.allclose(point.values, 1.0)
        assert point.radius == pytest.approx(2.0)

    def test_negative_rejected(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        with pytest.raises(NegativeDensity):
            density_from_values(grid, 0.1 + np.sin(2 * np.pi * x))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_values_rejected(bad):
    grid = PeriodicGrid(64)
    values = np.ones(64)
    values[3] = bad
    with pytest.raises(NonFiniteInput):
        Density(ScalarField(grid, values), 1.0)
    with pytest.raises(NonFiniteInput):
        SpherePoint(ScalarField(grid, values), 1.0)


class TestSquareMap:
    def test_inverse_of_sqrt(self):
        grid = PeriodicGrid(64)
        from densgeo.density import SpherePoint

        point = SpherePoint(ScalarField.constant(grid, 1.0), 1.0)
        d = square_map(point)
        assert np.allclose(d.values, 1.0)
        assert not d.degenerate

    def test_great_circle_norm(self):
        # f = cos(kt)·1 + sin(kt)·g with unit g ⟂ 1 stays unit mass for all t
        grid = PeriodicGrid(64)
        from densgeo.density import SpherePoint

        g_dir = np.sqrt(2.0) * np.sin(2 * np.pi * grid.coordinate(0))
        for t in (0.3, 1.2, 2.5, 4.0):
            values = np.cos(t) + np.sin(t) * g_dir
            d = square_map(SpherePoint(ScalarField(grid, values), 1.0))
            assert d.mass == pytest.approx(1.0)
            assert integrate(d.field) == pytest.approx(1.0, abs=1e-12)

    def test_sign_change_flag(self):
        grid = PeriodicGrid(64)
        from densgeo.density import SpherePoint

        values = np.cos(2 * np.pi * grid.coordinate(0)) + 0.2
        values /= np.sqrt(integrate(ScalarField(grid, values**2)))
        d = square_map(SpherePoint(ScalarField(grid, values), 1.0))
        assert d.degenerate

    def test_roundtrip_pointwise(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(1)
        bump = random_band_limited(grid, 5, rng)
        values = 1.2 + bump.values / (2 * np.max(np.abs(bump.values)))
        d = density_from_values(grid, values)
        back = square_map(sqrt_map(d))
        assert np.max(np.abs(back.values - d.values)) <= 1e-14 * np.max(d.values)


class TestNormalize:
    def test_constant_rescale(self):
        grid = PeriodicGrid(64)
        d = normalize(ScalarField.constant(grid, 2.0), 1.0)
        assert np.allclose(d.values, 1.0)

    def test_already_normalized(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        values = 1 + 0.5 * np.sin(2 * np.pi * x)  # ∫ sin = 0
        d = normalize(ScalarField(grid, values), 1.0)
        assert np.allclose(d.values, values, atol=1e-14)

    def test_exponential_density(self):
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        d = normalize(ScalarField(grid, np.exp(np.sin(2 * np.pi * x))), 1.0)
        # Bessel oracle: ∫₀¹ e^{sin 2πx} dx = I₀(1)
        expected = np.exp(np.sin(2 * np.pi * x)) / i0(1.0)
        assert np.max(np.abs(d.values - expected)) <= 1e-12

    def test_nonpositive_rejected(self):
        grid = PeriodicGrid(64)
        with pytest.raises(NonPositiveInput):
            normalize(ScalarField.constant(grid, 0.0), 1.0)

    def test_mass_mismatch_rejected(self):
        grid = PeriodicGrid(64)
        with pytest.raises(MassMismatch):
            Density(ScalarField.constant(grid, 1.0), 2.0)

    def test_subnormal_node_values_rejected(self):
        # below the normal floats a node value has lost digits, so BC and the
        # distances would come out wrong with exit 0
        grid = PeriodicGrid(16)
        with pytest.raises(ValidationError):
            uniform_density(grid, 1e-320)
        with pytest.raises(ValidationError):
            normalize(ScalarField.constant(grid, 1.0), 1e-320)
        values = np.ones(16)
        values[3] = 1e-10  # only this node leaves the normal floats
        with pytest.raises(ValidationError):
            normalize(ScalarField(grid, values), 1e-300)
        assert normalize(ScalarField(grid, values), 1e-290).mass == 1e-290

    def test_density_keeps_genuine_near_zeros(self):
        # squares of sphere points past blowup vanish to roundoff at nodes
        grid = PeriodicGrid(16)
        values = np.ones(16)
        values[3] = 1e-320
        field = ScalarField(grid, values)
        assert Density(field, integrate(field)).values[3] > 0.0


class TestIsometryPullback:
    """Finite-difference pullback of the sphere metric through the square
    root matches the quarter-normalized divergence pairing."""

    def _fd_tangent(self, grid, direction, eps):
        plus = np.sqrt(1.0 + eps * direction)
        minus = np.sqrt(1.0 - eps * direction)
        return (plus - minus) / (2.0 * eps)

    def test_pullback_matches_divergence_pairing(self):
        grid = PeriodicGrid(256)
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = random_band_limited(grid, 8, rng)
            b = random_band_limited(grid, 8, rng)
            u = laplacian_inverse_gradient(a)
            v = laplacian_inverse_gradient(b)
            expected = h1dot_inner(grid, u, v)

            def pullback(eps):
                ta = self._fd_tangent(grid, a.values, eps)
                tb = self._fd_tangent(grid, b.values, eps)
                return l2_inner(ScalarField(grid, ta), ScalarField(grid, tb))

            coarse, fine = pullback(1e-4), pullback(1e-5)
            richardson = (100.0 * fine - coarse) / 99.0
            assert richardson == pytest.approx(expected, abs=1e-8)
