import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densgeo import _interp, circle
from densgeo.circle import (
    AlphaConnection,
    a_inverse,
    alpha_one_explicit,
    alpha_one_residual,
    duality_residual,
    evolve_classic,
)
from densgeo.errors import NonZeroMean, StepTooLarge, ValidationError
from densgeo.grid import (
    PeriodicGrid,
    ScalarField,
    dealiased_product,
    derivative,
    fixed_steps,
    fourier,
    integrate,
    random_band_limited,
    rk4_step,
)
from densgeo.hsflow import HsGeodesic, eulerian_rho


class TestAInverse:
    def test_sine_eigenvalue(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        out = a_inverse(ScalarField(grid, np.sin(2 * np.pi * x)))
        assert np.allclose(out.values, np.sin(2 * np.pi * x) / (4 * np.pi**2), atol=1e-14)
        assert out.values[0] == pytest.approx(0.0, abs=1e-16)

    def test_cosine_base_point_shift(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        out = a_inverse(ScalarField(grid, np.cos(2 * np.pi * x)))
        expected = (np.cos(2 * np.pi * x) - 1.0) / (4 * np.pi**2)
        assert np.allclose(out.values, expected, atol=1e-14)

    def test_zero(self):
        grid = PeriodicGrid(64)
        out = a_inverse(ScalarField.constant(grid, 0.0))
        assert np.allclose(out.values, 0.0)

    def test_left_inverse_of_negative_second_derivative(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(6)
        for _ in range(5):
            u = random_band_limited(grid, 10, rng)
            back = -derivative(derivative(a_inverse(u))).values
            assert np.max(np.abs(back - u.values)) <= 1e-10 * np.max(np.abs(u.values))

    def test_mean_zero_required(self):
        grid = PeriodicGrid(64)
        with pytest.raises(NonZeroMean):
            a_inverse(ScalarField.constant(grid, 1.0))


class TestChristoffel:
    def test_flat_connection_vanishes(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(3)
        conn = AlphaConnection(-1.0)
        v = random_band_limited(grid, 8, rng)
        w = random_band_limited(grid, 8, rng)
        assert np.allclose(conn.christoffel(v, w).values, 0.0)

    def test_levi_civita_single_mode(self):
        # Γ⁰(v, v) for v = sin(2πx): vₓ² = 4π²cos², ∂ₓ(vₓ²) = -8π³ sin(4πx),
        # and the base-pointed inverse gives -(π/4) sin(4πx)
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        conn = AlphaConnection(0.0)
        v = ScalarField(grid, np.sin(2 * np.pi * x))
        gamma = conn.christoffel(v, v)
        assert np.allclose(gamma.values, -(np.pi / 4.0) * np.sin(4 * np.pi * x), atol=1e-12)

    def test_bilinearity(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(8)
        conn = AlphaConnection(0.7)
        v = random_band_limited(grid, 6, rng)
        w = random_band_limited(grid, 6, rng)
        doubled = ScalarField(grid, 2.0 * w.values)
        assert np.allclose(
            conn.christoffel(v, doubled).values,
            2.0 * conn.christoffel(v, w).values,
            atol=1e-13,
        )

    def test_symmetry_exact(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(9)
        conn = AlphaConnection(0.3)
        v = random_band_limited(grid, 6, rng)
        w = random_band_limited(grid, 6, rng)
        assert np.array_equal(
            conn.christoffel(v, w).values, conn.christoffel(w, v).values
        )


class TestGeodesicIntegrator:
    def test_zero_fixed_point(self):
        grid = PeriodicGrid(64)
        out = AlphaConnection(0.5).evolve(ScalarField.constant(grid, 0.0), 1e-3, 1e-3)
        assert np.allclose(out.values, 0.0)

    def test_alpha_zero_matches_explicit_flow(self):
        # quick version of the acceptance run: N = 256, shorter horizon
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        geo = HsGeodesic.from_divergence(ScalarField(grid, np.sin(2 * np.pi * x)))
        u0 = ScalarField(grid, (1 - np.cos(2 * np.pi * x)) / (2 * np.pi))
        t = 0.3 * geo.t_max
        u = AlphaConnection(0.0).evolve(u0, t, 2e-4)
        rho = derivative(u)
        expected = eulerian_rho(geo, t)
        assert np.max(np.abs(rho.values - expected.values)) <= 1e-7

    def test_alpha_zero_energy_drift(self):
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, (1 - np.cos(2 * np.pi * x)) / (2 * np.pi))
        u = AlphaConnection(0.0).evolve(u0, 0.4, 2e-4)

        def h1dot(f):
            ux = derivative(f).values
            return integrate(ScalarField(grid, ux * ux))

        assert abs(h1dot(u) - h1dot(u0)) / h1dot(u0) <= 1e-8

    def test_gauge_preserved(self):
        grid = PeriodicGrid(128)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, (1 - np.cos(2 * np.pi * x)) / (2 * np.pi))
        u = AlphaConnection(0.4).evolve(u0, 0.2, 1e-3)
        assert u.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_cfl_guard(self):
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, np.sin(2 * np.pi * x) - np.sin(0.0))
        with pytest.raises(StepTooLarge):
            AlphaConnection(0.0).evolve(u0, 0.1, 0.1)


class TestAlphaOneExplicit:
    def test_initial_time(self):
        grid = PeriodicGrid(128)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, np.sin(2 * np.pi * x) / (2 * np.pi))
        u, eta = alpha_one_explicit(u0, 0.0)
        assert np.max(np.abs(u.values - u0.values)) <= 1e-12
        assert np.max(np.abs(eta - x)) <= 1e-12

    def test_flow_is_increasing_circle_map(self):
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, np.sin(2 * np.pi * x) / (2 * np.pi))
        _, eta = alpha_one_explicit(u0, 0.4)
        assert eta[0] == pytest.approx(0.0, abs=1e-14)
        assert np.all(np.diff(eta) > 0)
        # η(1⁻) → 1: check through the slope-one displacement
        assert np.max(np.abs((eta - x))) < 0.5

    def test_pde_residual(self):
        grid = PeriodicGrid(512)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, np.sin(2 * np.pi * x) / (2 * np.pi))
        assert alpha_one_residual(u0, 0.3) <= 1e-6

    def test_matches_spectral_integrator(self):
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, np.sin(2 * np.pi * x) / (2 * np.pi))
        explicit, _ = alpha_one_explicit(u0, 0.3)
        numeric = AlphaConnection(1.0).evolve(u0, 0.3, 5e-4)
        assert np.max(np.abs(numeric.values - explicit.values)) <= 1e-8
        assert np.max(np.abs(explicit.values - u0.values)) > 1e-3  # not stationary

    def test_gauge_required(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        with pytest.raises(ValidationError):
            alpha_one_explicit(ScalarField(grid, np.cos(2 * np.pi * x)), 0.1)


class TestClassicEquations:
    def test_burgers_zero(self):
        grid = PeriodicGrid(64)
        out = evolve_classic("burgers", ScalarField.constant(grid, 0.0), 1e-3, 1e-3)
        assert np.allclose(out.values, 0.0)

    def test_burgers_characteristics(self):
        # pre-shock solution satisfies u(t, x + 3 t u0(x)) = u0(x)
        grid = PeriodicGrid(1024)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, np.sin(2 * np.pi * x))
        t = 0.02
        u = evolve_classic("burgers", u0, t, 1e-5)
        probe = _interp.SplineEvaluator(grid, u.values, factor=4)
        moved = probe(x + 3 * t * u0.values)
        assert np.max(np.abs(moved - u0.values)) <= 1e-6

    def test_camassa_holm_invariants(self):
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, 0.2 * np.sin(2 * np.pi * x))

        def momentum(f):
            return integrate(f)

        def h1_energy(f):
            ux = derivative(f).values
            return integrate(ScalarField(grid, f.values**2 + ux**2))

        u = u0
        worst_m, worst_e = 0.0, 0.0
        for _ in range(10):
            u = evolve_classic("camassa_holm", u, 0.05, 2e-4)
            worst_m = max(worst_m, abs(momentum(u) - momentum(u0)))
            worst_e = max(worst_e, abs(h1_energy(u) - h1_energy(u0)))
        assert worst_m <= 1e-7
        assert worst_e <= 1e-7

    def test_mu_burgers_is_flat_geodesic(self):
        grid = PeriodicGrid(128)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, (1 - np.cos(2 * np.pi * x)) / (2 * np.pi))
        direct = evolve_classic("mu_burgers", u0, 1e-3, 1e-3)
        via_alpha = AlphaConnection(-1.0).evolve(u0, 1e-3, 1e-3)
        assert np.array_equal(direct.values, via_alpha.values)

    def test_hunter_saxton_is_levi_civita_geodesic(self):
        grid = PeriodicGrid(128)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, (1 - np.cos(2 * np.pi * x)) / (2 * np.pi))
        direct = evolve_classic("hunter_saxton", u0, 1e-3, 1e-3)
        via_alpha = AlphaConnection(0.0).evolve(u0, 1e-3, 1e-3)
        assert np.array_equal(direct.values, via_alpha.values)

    def test_unknown_equation(self):
        grid = PeriodicGrid(64)
        with pytest.raises(ValidationError):
            evolve_classic("kdv", ScalarField.constant(grid, 0.0), 1e-3, 1e-3)


def _reference_terms(equation, u):
    """Each term of the right-hand side written from the grid operations,
    one dealiased product at a time."""
    grid = u.grid
    ux = derivative(u)
    advect = dealiased_product(u, ux).values
    if equation == "burgers":
        return [-3.0 * advect]
    if equation == "camassa_holm":  # ∂ₓ(1-∂ₓ²)⁻¹ as one multiplier
        pressure = dealiased_product(u, u).values + 0.5 * dealiased_product(ux, ux).values
        return [-advect, -fourier(grid, pressure, grid.ik[0] / (1.0 + grid.k2))]
    return [-advect, -AlphaConnection(equation).christoffel(u, u).values]


def _rhs(equation, u):
    if isinstance(equation, str):
        multipliers = circle._EQUATIONS[equation][0](u.grid)
        return circle._transform_rhs(u, multipliers).values
    return AlphaConnection(equation).geodesic_rhs(u).values


class TestTransformRhs:
    @settings(max_examples=60)
    @given(
        n=st.sampled_from([16, 64, 512]),
        equation=st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([-1.0, 0.0, 1.0, "burgers", "camassa_holm"])
        ),
        degree=st.integers(1, 5),
        amp=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_grid_reference(self, n, equation, degree, amp, seed):
        grid = PeriodicGrid(n)
        wave = random_band_limited(grid, degree, np.random.default_rng(seed)).values
        u = ScalarField(grid, amp * (wave - wave[0]))
        terms = _reference_terms(equation, u)
        scale = max(float(np.max(np.abs(t))) for t in terms)
        assert np.max(np.abs(_rhs(equation, u) - sum(terms))) <= 1e-12 * scale

    @pytest.mark.parametrize("equation", [0.0, 1.0, -1.0, "burgers", "camassa_holm"])
    def test_four_fft_calls(self, fft_calls, equation):
        grid = PeriodicGrid(64)
        u = ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)))
        _rhs(equation, u)
        assert fft_calls == ["rfft", "irfft", "rfft", "irfft"]


def _evolve(equation, u0, t_final, dt):
    if isinstance(equation, str):
        return evolve_classic(equation, u0, t_final, dt)
    return AlphaConnection(equation).evolve(u0, t_final, dt)


def _physical_evolve(equation, u0, t_final, dt):
    """The stepper that kept u in physical space: every RK4 stage transforms u
    to the spectrum and back twice, and u(0) = 0 is re-based on the grid."""
    grid = u0.grid
    if isinstance(equation, str):
        multipliers, gauge = circle._EQUATIONS[equation][0](grid), False
    else:
        multipliers, gauge = AlphaConnection(equation)._table(grid), True

    def rhs(_, u):
        ux = fourier(grid, u, grid.ik[0])
        products = [u * ux, ux * ux, u * u][: len(multipliers)]
        terms = fourier(grid, np.array(products), multipliers)
        if gauge:
            terms[1:] -= terms[1:, :1]
        return -np.sum(terms, axis=0)

    n_steps, h = fixed_steps(t_final, dt)
    u = u0.values - u0.values[0] if gauge else u0.values
    for _ in range(n_steps):
        u = rk4_step(rhs, 0.0, u, h)
        u = u - u[0] if gauge else u
    return u


class TestSpectralStepper:
    @pytest.mark.parametrize("n", [16, 64, 512])
    @pytest.mark.parametrize(
        "equation", [0.0, 0.5, 1.0, -1.0, -2.0, "burgers", "camassa_holm"]
    )
    def test_ten_steps_match_physical_stepper(self, n, equation):
        grid = PeriodicGrid(n)
        wave = random_band_limited(grid, 5, np.random.default_rng(n)).values
        wave += 0.1 * (-1.0) ** np.arange(n)  # the Nyquist mode, which only the gauge sees
        u0 = ScalarField(grid, (wave - wave[0]) / np.max(np.abs(wave - wave[0])))
        dt = 0.2 / n  # Courant number 0.2 at unit sup
        expected = _physical_evolve(equation, u0, 10 * dt, dt)
        got = _evolve(equation, u0, 10 * dt, dt).values
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("equation", [0.0, 1.0, -1.0, "camassa_holm"])
    def test_two_fft_calls_per_stage(self, fft_calls, equation, steps):
        grid = PeriodicGrid(64)
        u0 = ScalarField(grid, 1.0 - np.cos(2 * np.pi * grid.coordinate(0)))
        _evolve(equation, u0, steps * 1e-3, 1e-3)
        assert len(fft_calls) == 8 * steps + 2


class TestDuality:
    def test_zero_direction(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(5)
        v = random_band_limited(grid, 8, rng)
        w = random_band_limited(grid, 8, rng)
        zero = ScalarField.constant(grid, 0.0)
        assert duality_residual(0.9, zero, v, w) == pytest.approx(0.0, abs=1e-15)

    def test_randomized_suite(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            alpha = rng.uniform(-2.0, 2.0)
            u = random_band_limited(grid, 8, rng)
            v = random_band_limited(grid, 8, rng)
            w = random_band_limited(grid, 8, rng)
            worst = max(worst, abs(duality_residual(alpha, u, v, w)))
        assert worst <= 1e-10

    def test_sign_swap(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(21)
        u = random_band_limited(grid, 8, rng)
        v = random_band_limited(grid, 8, rng)
        w = random_band_limited(grid, 8, rng)
        assert abs(duality_residual(0.7, u, v, w)) <= 1e-10
        assert abs(duality_residual(-0.7, u, v, w)) <= 1e-10
