import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densgeo.density import (
    MASS_TOL,
    POSITIVITY_TOL,
    SPHERE_TOL,
    Density,
    normalize,
    sqrt_map,
    square_map,
    uniform_density,
)
from densgeo.errors import GridMismatch, MassMismatch, NegativeDensity
from densgeo.grid import (
    PeriodicGrid,
    ScalarField,
    integrate,
    laplacian_inverse_gradient,
)
from densgeo.hsflow import HsGeodesic, evolve_density_global
from densgeo.spheregeo import (
    bhattacharyya,
    fisher_rao_inner,
    geodesic,
    h1dot_inner,
    heat_flow,
    hellinger_distance,
    spherical_distance,
)
from helpers import peaked_density, random_positive_density

# high-resolution quadrature oracle for ∫₀¹ √(1 + 0.5 sin 2πx) dx, confirmed
# against adaptive quadrature to 1e-14
BC_WAVY = 0.9833426507751652
DIST_WAVY = 0.18277746193028777  # arccos(BC_WAVY)


def wavy_density(grid):
    x = grid.coordinate(0)
    return Density(ScalarField(grid, 1 + 0.5 * np.sin(2 * np.pi * x)), 1.0)


class TestBhattacharyya:
    def test_identical(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(0)
        d = random_positive_density(grid, rng)
        assert bhattacharyya(d, d) == pytest.approx(1.0, abs=1e-14)

    def test_wavy_against_uniform(self):
        grid = PeriodicGrid(256)
        assert bhattacharyya(uniform_density(grid), wavy_density(grid)) == pytest.approx(
            BC_WAVY, abs=1e-12
        )

    def test_peaked_overlap_is_small(self):
        grid = PeriodicGrid(65536)
        peak = peaked_density(grid, 1e4)
        assert bhattacharyya(uniform_density(grid), peak) < 0.02

    def test_mass_mismatch(self):
        grid = PeriodicGrid(64)
        with pytest.raises(MassMismatch):
            bhattacharyya(uniform_density(grid), uniform_density(grid, mass=2.0))

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            bhattacharyya(
                uniform_density(PeriodicGrid(64)), uniform_density(PeriodicGrid(128))
            )


class TestMassScaling:
    # a·b under- or overflows at these masses unless the pair is scaled first
    @settings(max_examples=40)
    @given(
        log_mass=st.floats(-300.0, 300.0),
        n=st.sampled_from([16, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scale_free(self, log_mass, n, seed):
        grid = PeriodicGrid(n)
        rng = np.random.default_rng(seed)
        shapes = [random_positive_density(grid, rng).field for _ in range(2)]
        mass = 10.0**log_mass
        a, b = (normalize(f, mass) for f in shapes)
        unit_a, unit_b = (normalize(f, 1.0) for f in shapes)
        root = np.sqrt(mass)
        assert bhattacharyya(a, b) == pytest.approx(bhattacharyya(unit_a, unit_b), abs=1e-14)
        assert spherical_distance(a, b) / root == pytest.approx(
            spherical_distance(unit_a, unit_b), abs=1e-12
        )
        assert hellinger_distance(a, b) / root == pytest.approx(
            hellinger_distance(unit_a, unit_b), abs=1e-12
        )


    # a/m and b/m are ~ 1/volume, so their product under- or overflows at
    # these volumes unless each root is taken first
    @settings(max_examples=60)
    @given(
        log_length=st.floats(-150.0, 150.0),
        log_scale=st.floats(-100.0, 100.0),
        shape=st.sampled_from([(16,), (16, 16)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_volume_free(self, log_length, log_scale, shape, seed):
        assume(abs(log_scale + len(shape) * log_length) < 300.0)  # a normal mass
        rng = np.random.default_rng(seed)
        values = [1.0 + rng.random(shape) for _ in range(2)]

        def bc(length, scale):
            grid = PeriodicGrid(shape, length)
            a, b = (normalize(ScalarField(grid, v), scale * grid.total_volume) for v in values)
            return bhattacharyya(a, b)

        assert bc(10.0**log_length, 10.0**log_scale) == pytest.approx(bc(1.0, 1.0), rel=1e-13)


class TestDistances:
    def test_zero_at_coincidence(self):
        grid = PeriodicGrid(64)
        d = uniform_density(grid)
        assert spherical_distance(d, d) == 0.0
        assert hellinger_distance(d, d) == 0.0

    def test_wavy_distance(self):
        grid = PeriodicGrid(256)
        assert spherical_distance(
            uniform_density(grid), wavy_density(grid)
        ) == pytest.approx(DIST_WAVY, abs=1e-12)

    def test_hellinger_chord_relation(self):
        grid = PeriodicGrid(256)
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_positive_density(grid, rng)
            b = random_positive_density(grid, rng)
            angle = spherical_distance(a, b)
            assert hellinger_distance(a, b) == pytest.approx(
                2.0 * np.sin(angle / 2.0), abs=1e-12
            )

    def test_hellinger_approaches_sqrt2_for_separated_peaks(self):
        grid = PeriodicGrid(65536)
        a = peaked_density(grid, 1e4, center=0.25)
        b = peaked_density(grid, 1e4, center=0.75)
        assert hellinger_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-3)
        assert hellinger_distance(a, b) <= np.sqrt(2.0) + 1e-12

    def test_symmetry_exact(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(9)
        a = random_positive_density(grid, rng)
        b = random_positive_density(grid, rng)
        assert spherical_distance(a, b) == spherical_distance(b, a)

    def test_triangle_inequality(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = random_positive_density(grid, rng)
            b = random_positive_density(grid, rng)
            c = random_positive_density(grid, rng)
            assert spherical_distance(a, c) <= (
                spherical_distance(a, b) + spherical_distance(b, c) + 1e-10
            )

    def test_diameter_bound_and_peaked_approach(self):
        grid = PeriodicGrid(65536)
        uniform = uniform_density(grid)
        bound = np.pi * np.sqrt(grid.total_volume) / 2.0
        previous = 0.0
        for k in (1, 2, 3, 4):
            dist = spherical_distance(uniform, peaked_density(grid, 10.0**k))
            assert previous < dist < bound
            previous = dist


def spread_density(grid, rng, mass, power, zeros):
    """Random density of the given mass, concentrated by ``power`` and with
    genuine zeros at a fraction ``zeros`` of the nodes."""
    values = rng.random(grid.shape) ** power
    values[rng.random(grid.shape) < zeros] = 0.0
    values.flat[0] = 1.0  # some mass survives
    scale = mass / integrate(ScalarField(grid, values))
    return Density(ScalarField(grid, values * scale), mass)


def admitted_density(grid, rng, mass, power, share, negatives):
    """Random density of about the given mass whose nodes at a fraction
    ``negatives`` are negative and carry ``share`` (< 1) of the negative
    mass that Density admits, POSITIVITY_TOL of the mass."""
    values = rng.random(grid.shape) ** power
    values.flat[0] = 1.0  # some mass survives
    mask = rng.random(grid.shape) < negatives
    mask.flat[0] = False
    positive = np.sum(values[~mask])
    weights = rng.random(np.count_nonzero(mask))
    values[mask] = -share * POSITIVITY_TOL * positive * weights / np.sum(weights)
    values *= mass / (grid.node_weight * np.sum(values))
    return Density(ScalarField(grid, values), integrate(ScalarField(grid, values)))


class TestMetricProperties:
    SETTINGS = dict(
        shape=st.sampled_from([(16,), (64,), (8, 8)]),
        log_mass=st.floats(-100.0, 100.0),
        power=st.floats(1.0, 8.0),
        zeros=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )

    @settings(max_examples=60)
    @given(**SETTINGS)
    def test_metric_axioms_and_diameter(self, shape, log_mass, power, zeros, seed):
        grid = PeriodicGrid(shape)
        rng = np.random.default_rng(seed)
        mass = 10.0**log_mass
        a, b, c = (spread_density(grid, rng, mass, power, zeros) for _ in range(3))
        root = np.sqrt(mass)
        # arccos near 1 turns a roundoff of BC into ~sqrt(2 eps) of angle
        for dist, tol in ((spherical_distance, 1e-7), (hellinger_distance, 1e-12)):
            assert dist(a, b) == dist(b, a)
            assert dist(a, c) <= dist(a, b) + dist(b, c) + tol * root
        for x, y in ((a, b), (b, c), (a, c)):
            assert 0.0 <= spherical_distance(x, y) <= (1.0 + 1e-15) * np.pi * root / 2.0

    @settings(max_examples=60)
    @given(**SETTINGS)
    def test_sqrt_square_round_trip(self, shape, log_mass, power, zeros, seed):
        grid = PeriodicGrid(shape)
        d = spread_density(grid, np.random.default_rng(seed), 10.0**log_mass, power, zeros)
        point = sqrt_map(d)
        back = square_map(point)
        assert back.mass == pytest.approx(d.mass, rel=1e-15)
        assert np.max(np.abs(back.values - d.values)) <= 1e-15 * np.max(d.values)
        again = sqrt_map(back)
        assert np.max(np.abs(again.values - point.values)) <= 1e-15 * np.max(point.values)


class TestGeodesic:
    @settings(max_examples=60)
    @given(
        shape=st.sampled_from([(16,), (64,), (8, 8)]),
        log_mass=st.floats(-100.0, 100.0),
        power=st.floats(1.0, 8.0),
        share=st.floats(0.0, 0.99),
        negatives=st.sampled_from([0.02, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_admitted_negatives_have_a_square_root(
        self, shape, log_mass, power, share, negatives, seed
    ):
        # whatever Density admits, sqrt_map and geodesic accept
        grid = PeriodicGrid(shape)
        rng = np.random.default_rng(seed)
        a, b = (admitted_density(grid, rng, 10.0**log_mass, power, share, negatives)
                for _ in range(2))
        b = Density(ScalarField(grid, b.values * (a.mass / b.mass)), a.mass)
        root = sqrt_map(a)
        assert np.array_equal(root.values, np.sqrt(np.clip(a.values, 0.0, None)))
        for other in (a, b):
            path = geodesic(a, other)
            assert path.length == spherical_distance(a, other)

    @settings(max_examples=100)
    @given(**TestMetricProperties.SETTINGS)
    def test_length_is_the_spherical_distance(self, shape, log_mass, power, zeros, seed):
        grid = PeriodicGrid(shape)
        rng = np.random.default_rng(seed)
        a, b = (spread_density(grid, rng, 10.0**log_mass, power, zeros) for _ in range(2))
        assert geodesic(a, b).length == spherical_distance(a, b)

    def test_degenerate_angle_branch(self):
        grid = PeriodicGrid(64)
        d = uniform_density(grid)
        path = geodesic(d, d)
        assert path.angle <= 1e-12
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(path.samples(t).values, 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 128])
    def test_equal_endpoints_give_the_start_point(self, n):
        # θ = 0: the slerp weights' limits 1 - t and t, with no separate blend
        grid = PeriodicGrid(n)
        d = random_positive_density(grid, np.random.default_rng(n))
        path = geodesic(d, d)
        assert path.angle == 0.0
        root = sqrt_map(d).values
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert np.max(np.abs(path.samples(t).values - root)) <= 1e-15 * np.max(root)

    def test_endpoints_reproduced(self):
        grid = PeriodicGrid(128)
        a, b = uniform_density(grid), wavy_density(grid)
        path = geodesic(a, b)
        assert np.max(np.abs(path.samples(0.0).values - sqrt_map(a).values)) <= 1e-12
        assert np.max(np.abs(path.samples(1.0).values - sqrt_map(b).values)) <= 1e-12

    def test_sphere_constraint_along_path(self):
        grid = PeriodicGrid(128)
        path = geodesic(uniform_density(grid), wavy_density(grid))
        for t in np.linspace(0, 1, 7):
            norm_sq = integrate(ScalarField(grid, path.samples(float(t)).values ** 2))
            assert norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_midpoint_equidistant(self):
        grid = PeriodicGrid(256)
        a, b = uniform_density(grid), wavy_density(grid)
        mid = geodesic(a, b).density_at(0.5)
        assert abs(
            spherical_distance(a, mid) - spherical_distance(mid, b)
        ) <= 1e-10

    def test_polyline_length(self):
        grid = PeriodicGrid(256)
        a, b = uniform_density(grid), wavy_density(grid)
        path = geodesic(a, b)
        ts = np.linspace(0.0, 1.0, 101)
        points = [path.samples(float(t)).values for t in ts]
        length = sum(
            np.sqrt(integrate(ScalarField(grid, (q - p) ** 2)))
            for p, q in zip(points, points[1:])
        )
        assert length == pytest.approx(spherical_distance(a, b), abs=1e-6)

    def test_matches_explicit_flow_path(self):
        # constant-curvature coherence: the closed-form density path is the
        # great-circle interpolation between its endpoints
        grid = PeriodicGrid(256)
        geo = HsGeodesic.from_divergence(
            ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)))
        )
        t1 = 0.8 * geo.t_max
        _, d0 = evolve_density_global(geo, 0.0)
        _, d1 = evolve_density_global(geo, t1)
        path = geodesic(d0, d1)
        for s in np.linspace(0.05, 0.95, 10):
            expected = evolve_density_global(geo, float(s) * t1)[1]
            got = path.density_at(float(s))
            assert np.max(np.abs(got.values - expected.values)) <= 1e-8


class TestSphereClosure:
    @settings(max_examples=100)
    @given(
        shape=st.sampled_from([(16,), (64,), (8, 8), (16, 24)]),
        log_length=st.floats(-3.0, 3.0),
        log_mass=st.floats(-100.0, 100.0),
        power=st.sampled_from([0.0, 1.0, 4.0]),
        share=st.floats(0.0, 0.99),
        negatives=st.sampled_from([0.0, 0.02, 0.5]),
        edge=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_square_of_the_square_root_and_geodesic_ends_return_the_density(
        self, shape, log_length, log_mass, power, share, negatives, edge, seed
    ):
        # the mass sits up to MASS_TOL off the quadrature and the negatives
        # carry up to the admitted share, so |√ρ|² may sit SPHERE_TOL off r²
        grid = PeriodicGrid(shape, 10.0**log_length)
        rng = np.random.default_rng(seed)
        d = admitted_density(grid, rng, 10.0**log_mass, power, share, negatives)
        try:
            d = Density(d.field, d.mass / (1.0 - edge * MASS_TOL))
        except (MassMismatch, NegativeDensity):
            assume(False)  # past an edge by roundoff

        def gap(got, want):  # the share of the mass by which two densities differ
            return grid.node_weight * np.sum(np.abs(got.values - want.values)) / want.mass

        uniform = uniform_density(grid, d.mass)
        back = square_map(sqrt_map(d))
        path = geodesic(d, uniform)
        for got, want in ((back, d), (path.density_at(0.0), d), (path.density_at(1.0), uniform)):
            assert not got.degenerate
            assert gap(got, want) <= SPHERE_TOL


class TestInnerProducts:
    def test_factor_four(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        u = laplacian_inverse_gradient(ScalarField(grid, np.sin(2 * np.pi * x)))
        assert fisher_rao_inner(grid, u, u) == pytest.approx(0.5, abs=1e-12)
        assert h1dot_inner(grid, u, u) == pytest.approx(0.125, abs=1e-12)

    def test_divergence_free_degeneracy(self):
        grid = PeriodicGrid(64)
        u = laplacian_inverse_gradient(
            ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)))
        )
        assert abs(fisher_rao_inner(grid, u, np.full((1, 64), 3.0))) <= 1e-12

    def test_mode_orthogonality(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        u = laplacian_inverse_gradient(ScalarField(grid, np.sin(2 * np.pi * x)))
        v = laplacian_inverse_gradient(ScalarField(grid, np.cos(2 * np.pi * x)))
        assert abs(fisher_rao_inner(grid, u, v)) <= 1e-12

    @pytest.mark.parametrize("shape", [(64,), (2, 64), (1, 32), (2, 16, 16)])
    def test_misshaped_vector_field_rejected(self, shape):
        # a vector field on the 64-node circle has shape (1, 64)
        grid = PeriodicGrid(64)
        u = np.ones((1, 64))
        for inner in (h1dot_inner, fisher_rao_inner):
            with pytest.raises(GridMismatch):
                inner(grid, u, np.ones(shape))
            with pytest.raises(GridMismatch):
                inner(grid, np.ones(shape), u)


class TestHeatFlow:
    def test_uniform_fixed_point(self):
        grid = PeriodicGrid(64)
        out = heat_flow(uniform_density(grid), 0.3)
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_mode_decay(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        eps, t = 0.2, 0.01
        d0 = Density(ScalarField(grid, 1 + eps * np.sin(2 * np.pi * x)), 1.0)
        out = heat_flow(d0, t)
        expected = 1 + eps * np.exp(-4 * np.pi**2 * t) * np.sin(2 * np.pi * x)
        assert np.max(np.abs(out.values - expected)) <= 1e-13

    def test_mass_conserved(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(2)
        d0 = random_positive_density(grid, rng)
        out = heat_flow(d0, 0.05)
        assert abs(integrate(out.field) - d0.mass) <= 1e-12
