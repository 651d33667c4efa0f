import collections
import functools
import math

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
    evolve_to_tolerance,
)
from densgeo.errors import NonFiniteInput, NonZeroMean, StepTooLarge, ValidationError
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("evolve", [
        AlphaConnection(0.0).evolve,
        functools.partial(evolve_classic, "burgers"),
        lambda u0, t, dt: evolve_to_tolerance(AlphaConnection(1.0).evolve, u0, t, dt),
        lambda u0, t, dt: evolve_to_tolerance(AlphaConnection(1.0).evolve, u0, t),
    ], ids=["evolve", "evolve_classic", "to_tolerance_given_dt", "to_tolerance"])
    def test_non_finite_u0_rejected_before_any_step(self, evolve, bad, monkeypatch):
        # it used to end as StepTooLarge, a NaN Courant number at the first stage
        grid = PeriodicGrid(64)
        values = np.sin(2 * np.pi * grid.coordinate(0)) / (2 * np.pi)
        values[5] = bad
        steps = []
        monkeypatch.setattr(circle, "rk4_step", lambda *args: steps.append(args) or rk4_step(*args))
        with pytest.raises(NonFiniteInput):
            evolve(ScalarField(grid, values), 0.1, 1e-3)
        assert steps == []


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 5])
    def test_non_finite_u0_rejected(self, bad, at):
        # it returned an all-NaN velocity; a non-finite u0[0] passed the gauge check
        grid = PeriodicGrid(64)
        values = np.sin(2 * np.pi * grid.coordinate(0))
        values[at] = bad
        with pytest.raises(NonFiniteInput, match="u0 is not finite"):
            alpha_one_explicit(ScalarField(grid, values), 0.1)


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
        expected = sum(terms)
        if not isinstance(equation, str):  # the gauged rate is re-based to vanish at x = 0
            expected = expected - expected[0]
        assert np.max(np.abs(_rhs(equation, u) - expected)) <= 1e-12 * scale

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
    to the spectrum and back twice, and a gauged rate is re-based on the grid to
    vanish at x = 0, so u(0) = 0 holds from u0 on."""
    grid = u0.grid
    if isinstance(equation, str):
        multipliers, gauge = circle._EQUATIONS[equation][0](grid), False
    else:
        multipliers, gauge = AlphaConnection(equation)._table(grid), True

    def rhs(_, u):
        ux = fourier(grid, u, grid.ik[0])
        products = [u * ux, ux * ux, u * u][: len(multipliers)]
        rate = -np.sum(fourier(grid, np.array(products), multipliers), axis=0)
        return rate - rate[0] if gauge else rate

    n_steps, h = fixed_steps(t_final, dt)
    u = u0.values - u0.values[0] if gauge else u0.values
    for _ in range(n_steps):
        u = rk4_step(rhs, 0.0, u, h)
    return u - u[0] if gauge else u


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

    # the stage's table shapes: one row (Burgers, α = -1), two (α ≠ -1), three (Camassa-Holm)
    @pytest.mark.parametrize("equation", ["burgers", -1.0, 0.5, "camassa_holm"])
    def test_courant_guard_on_first_stage(self, fft_calls, equation):
        grid = PeriodicGrid(64)
        u0 = ScalarField(grid, 1.0 - np.cos(2 * np.pi * grid.coordinate(0)))
        with pytest.raises(StepTooLarge):  # Courant number 2 · 0.1 · 64
            _evolve(equation, u0, 1.0, 0.1)
        assert fft_calls == ["rfft", "irfft"]  # u0's spectrum, then the first stage's u

    # the stage's arrays are built once per run; the rate it returns must still be fresh,
    # because rk4_step holds k1…k4 at once (a one-row table's rate copies its one term)
    @pytest.mark.parametrize("gauge", [False, True], ids=["plain", "gauged"])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_rate_is_not_overwritten_by_the_next_call(self, rows, gauge):
        grid = PeriodicGrid(32)
        rate = circle._stage(grid, circle._camassa_holm(grid)[:rows], gauge)
        c1, c2 = (np.fft.rfft(random_band_limited(grid, 8, np.random.default_rng(s)).values)
                  for s in (1, 2))
        first = rate(0.0, c1)
        kept = first.copy()
        second = rate(0.0, c2)
        assert np.array_equal(first, kept) and not np.shares_memory(first, second)
        assert not np.array_equal(second, kept)
        assert np.array_equal(rate(0.0, c1), kept)

    def test_gauge_preserved_without_gamma_row(self):
        # α = -1 has no Γ row, so only the re-based rate keeps u(0) (test_gauge_preserved: α = 0.4)
        grid = PeriodicGrid(128)
        x = grid.coordinate(0)
        u0 = (1 - np.cos(2 * np.pi * x)) / (2 * np.pi) + 0.01 * (-1.0) ** np.arange(128)
        u = AlphaConnection(-1.0).evolve(ScalarField(grid, u0 - u0[0]), 0.2, 1e-3)
        assert u.values[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.isfinite(u.values))

    # content up to N/3, which the dealiased products cut: with the whole rate re-based to
    # vanish at x = 0, each halving of dt cuts the error by about 16 (15.2 at the least in
    # 100 sampled pairs)
    @settings(max_examples=20)
    @given(
        alpha=st.sampled_from([1.0, 0.0, -1.0]),
        n=st.sampled_from([64, 128]),
        degree_frac=st.floats(0.0, 1.0 / 3.0),
        amp=st.floats(0.01, 0.5),
        slope_time=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gauged_steppers_converge_at_order_four(
        self, alpha, n, degree_frac, amp, slope_time, seed
    ):
        u0 = _scaled_wave(n, max(1, int(degree_frac * n)), amp, seed)
        t_final = min(0.05, slope_time / np.max(np.abs(derivative(u0).values)))
        evolve = AlphaConnection(alpha).evolve
        steps = max(4, math.ceil(8 * t_final * amp * n))  # Courant number 1/8
        reference = evolve(u0, t_final, t_final / (64 * steps)).values
        errors = [np.max(np.abs(evolve(u0, t_final, t_final / (k * steps)).values - reference))
                  for k in (1, 2, 4)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 1e-12 or coarse / fine >= 12


_STEPPERS = {
    "alpha_one": AlphaConnection(1.0).evolve,
    "alpha_zero": AlphaConnection(0.0).evolve,
    "burgers": functools.partial(evolve_classic, "burgers"),
}


def _scaled_wave(n, degree, amp, seed):
    grid = PeriodicGrid(n)
    wave = random_band_limited(grid, degree, np.random.default_rng(seed)).values
    wave -= wave[0]
    return ScalarField(grid, amp * wave / np.max(np.abs(wave)))


def _tracks(error, true, u):
    """E within 10x of the true error, unless that is at roundoff level."""
    floor = 100 * np.finfo(float).eps * np.max(np.abs(u.values))
    return true <= floor or true / 10 <= error <= 10 * true


class TestEvolveToTolerance:
    # resolved data: degree 1 on 64 nodes, 2 on 256, and sup <= 0.1 keep the spectra well
    # inside N/3 up to t = 0.3, so alpha_one_explicit's error is the time error alone
    @settings(max_examples=40)
    @given(
        equation=st.sampled_from(sorted(_STEPPERS)),
        n_degree=st.sampled_from([(64, 1), (256, 2)]),
        amp=st.floats(0.01, 0.1),
        t_final=st.floats(0.01, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimate_tracks_the_true_time_error(self, equation, n_degree, amp, t_final, seed):
        u0 = _scaled_wave(*n_degree, amp, seed)
        evolve = _STEPPERS[equation]
        u, error, steps, _ = evolve_to_tolerance(evolve, u0, t_final)
        if equation == "alpha_one":
            reference = alpha_one_explicit(u0, t_final)[0]
        else:  # 8⁴ times less time error
            reference = evolve(u0, t_final, t_final / (8 * steps))
        true = float(np.max(np.abs(u.values - reference.values)))
        assert true <= 10 * circle.TIME_TOL and _tracks(error, true, u)

    # content up to N/3, which the dealiased products cut as it steepens, and a loop that
    # meets no TIME_TOL runs the DEFAULT_DT count; t_final is at most half the time
    # 1/max|u0ₓ| in which slopes blow up
    @settings(max_examples=20)
    @given(
        equation=st.sampled_from(sorted(_STEPPERS)),
        n=st.sampled_from([64, 128]),
        degree_frac=st.floats(0.0, 1.0 / 3.0),
        amp=st.floats(0.01, 0.5),
        slope_time=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimate_tracks_the_time_error_of_under_resolved_data(
        self, equation, n, degree_frac, amp, slope_time, seed
    ):
        u0 = _scaled_wave(n, max(1, int(degree_frac * n)), amp, seed)
        t_final = min(0.05, slope_time / np.max(np.abs(derivative(u0).values)))
        evolve = _STEPPERS[equation]
        u, error, steps, total = evolve_to_tolerance(evolve, u0, t_final)
        reference = evolve(u0, t_final, t_final / (8 * steps))  # 8⁴ times less time error
        true = float(np.max(np.abs(u.values - reference.values)))
        assert _tracks(error, true, u)
        assert total <= 2 * fixed_steps(t_final, circle.DEFAULT_DT)[0]

    def test_content_the_dealiasing_cuts_meets_the_tolerance(self):
        # u uₓ does not vanish at x = 0 and has content the 2/3 rule cuts; at order 4,
        # 58 + 29 + 593 steps meet TIME_TOL, under a quarter of K = 2,870
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        u0 = ScalarField(grid, 0.19 * np.sin(2 * np.pi * x) + 0.1 * np.cos(4 * np.pi * x) - 0.1)
        evolve = AlphaConnection(0.0).evolve
        u, error, steps, total = evolve_to_tolerance(evolve, u0, 0.287)
        assert error <= circle.TIME_TOL and total <= fixed_steps(0.287, circle.DEFAULT_DT)[0] / 4
        true = np.max(np.abs(u.values - evolve(u0, 0.287, 0.287 / (4 * steps)).values))
        assert _tracks(error, true, u)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_coarse_first_run_refines_short_of_the_default_step(self, seed):
        # Burgers of degree 10 starts at 8 steps, far from its asymptotic error, and still
        # meets TIME_TOL in a fraction of K = 1,850 steps
        u0 = _scaled_wave(64, 10, 0.084, seed)
        evolve = _STEPPERS["burgers"]
        u, error, steps, total = evolve_to_tolerance(evolve, u0, 0.185)
        true = np.max(np.abs(u.values - evolve(u0, 0.185, 0.185 / (8 * steps)).values))
        assert error <= circle.TIME_TOL and total <= 600 and _tracks(error, true, u)

    def _data(self, n=64):
        grid = PeriodicGrid(n)
        return ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)) / (2 * np.pi))

    def test_given_step_is_that_run_with_a_half_step_companion(self):
        u0 = self._data()
        evolve = AlphaConnection(1.0).evolve
        u, error, steps, total = evolve_to_tolerance(evolve, u0, 0.1, 1e-3)
        assert np.array_equal(u.values, evolve(u0, 0.1, 1e-3).values)
        assert (steps, total) == (100, 150)
        true = np.max(np.abs(u.values - alpha_one_explicit(u0, 0.1)[0].values))
        assert _tracks(error, true, u)

    def test_one_step_gets_a_two_step_companion(self):
        u0 = self._data()
        u, error, steps, total = evolve_to_tolerance(AlphaConnection(1.0).evolve, u0, 1e-3, 1.0)
        true = np.max(np.abs(u.values - alpha_one_explicit(u0, 1e-3)[0].values))
        assert (steps, total) == (1, 3) and _tracks(error, true, u)

    def test_companions_refine_where_fewer_steps_are_too_large(self):
        # 3 steps of 1/30 are Courant number 0.34; 2 steps would be 0.51, so 6 is the companion
        u0 = self._data()
        u, error, steps, total = evolve_to_tolerance(AlphaConnection(1.0).evolve, u0, 0.1, 0.039)
        true = np.max(np.abs(u.values - alpha_one_explicit(u0, 0.1)[0].values))
        assert (steps, total) == (3, 11)  # the StepTooLarge run of 2 steps counts too
        assert _tracks(error, true, u)

    def test_non_finite_companions_are_skipped(self):
        evolve = AlphaConnection(1.0).evolve
        starts = []

        def stepper(finite, v, t, dt):
            starts.append(fixed_steps(t, dt)[0])
            u = evolve(v, t, dt)
            return u if finite(starts[-1]) else ScalarField(v.grid, np.full(v.grid.shape, np.nan))

        u0 = self._data()
        run = functools.partial(stepper, lambda n: n >= 100)
        u, error, steps, total = evolve_to_tolerance(run, u0, 0.1, 1e-3)
        assert starts == [100, 50, 200] and total == sum(starts)
        true = np.max(np.abs(u.values - alpha_one_explicit(u0, 0.1)[0].values))
        assert _tracks(error, true, u)
        starts.clear()  # no finite companion: no estimate, and no error either
        u, error, steps, total = evolve_to_tolerance(
            functools.partial(stepper, lambda n: n == 100), u0, 0.1, 1e-3)
        assert starts == [100, 50, 200] and error == math.inf
        assert np.array_equal(u.values, evolve(u0, 0.1, 1e-3).values)

    @pytest.mark.parametrize("t_final, scale", [(0.0, 1.0), (0.3, 0.0)])
    @pytest.mark.parametrize("dt", [None, 1e-2])
    def test_stationary_request_is_one_exact_run(self, t_final, scale, dt):
        u0 = ScalarField(self._data().grid, scale * self._data().values)
        u, error, steps, total = evolve_to_tolerance(AlphaConnection(0.0).evolve, u0, t_final, dt)
        assert error == 0.0 and steps == total
        assert steps == (1 if dt is None or t_final == 0.0 else 30)
        assert np.max(np.abs(u.values - u0.values)) <= 1e-16  # the FFT round trip only

    def test_runs_stop_at_the_default_step_count(self):
        # a stepper whose runs differ by 1e-9 never meets TIME_TOL
        u0 = self._data()
        rng = np.random.default_rng(0)
        evolve = AlphaConnection(1.0).evolve
        dts = []

        def noisy(v, t, dt):
            dts.append(dt)
            return ScalarField(v.grid, evolve(v, t, dt).values + 1e-9 * rng.standard_normal(64))

        cap = fixed_steps(0.3, circle.DEFAULT_DT)[0]
        _, error, steps, total = evolve_to_tolerance(noisy, u0, 0.3)
        assert steps == cap and cap in [fixed_steps(0.3, dt)[0] for dt in dts] and len(dts) > 3
        assert error > circle.TIME_TOL and total <= 2 * cap

    def test_fast_data_runs_the_default_step_at_once(self):
        # 13 steps at Courant number 1/8 and their 7-step companion leave no room below
        # K = 20 for a finer run, so the next is the K-step run, with the 13 as companion
        grid = PeriodicGrid(64)
        u0 = ScalarField(grid, 12.0 * np.sin(2 * np.pi * grid.coordinate(0)))
        evolve = AlphaConnection(1.0).evolve
        u, _, steps, total = evolve_to_tolerance(evolve, u0, 0.002)
        assert (steps, total) == (20, 40)
        assert np.array_equal(u.values, evolve(u0, 0.002, circle.DEFAULT_DT).values)

    def test_a_companion_that_would_pass_k_is_not_run(self):
        # 82 steps at Courant number 1/8 with their 41-step companion would pass K = 100,
        # so the companion is left out and the K-step run takes the 82 as its companion
        grid = PeriodicGrid(256)
        u0 = ScalarField(grid, 4.0 * np.sin(2 * np.pi * grid.coordinate(0)))
        evolve = AlphaConnection(1.0).evolve
        starts = []

        def stepper(v, t, dt):
            starts.append(fixed_steps(t, dt)[0])
            return evolve(v, t, dt)

        u, error, steps, total = evolve_to_tolerance(stepper, u0, 0.01)
        assert starts == [82, 100] and (steps, total) == (100, 182)
        true = np.max(np.abs(u.values - evolve(u0, 0.01, 0.01 / 800).values))
        assert _tracks(error, true, u)

    def test_step_too_large_below_the_cap_refines(self):
        u0 = self._data()
        evolve = AlphaConnection(1.0).evolve
        starts = []

        def stepper(v, t, dt):
            starts.append(fixed_steps(t, dt)[0])
            if starts[-1] < 100:
                raise StepTooLarge("coarse")
            return evolve(v, t, dt)

        # 100 steps have no finished earlier run and 50 are too few, so 200 is the companion,
        # and the finer of the pair is returned
        u, error, steps, total = evolve_to_tolerance(stepper, u0, 0.3)
        assert starts == [25, 50, 100, 200] and total == sum(starts)
        assert error <= circle.TIME_TOL and steps == 200
        with pytest.raises(StepTooLarge):  # at the cap it propagates
            evolve_to_tolerance(stepper, u0, 0.3, 0.3 / 50)

    def test_the_finer_run_of_the_pair_is_returned(self):
        # runs below 100 steps are too large, so the 100-step run's companion is the 2n run:
        # that run is returned, with the pair's estimate scaled to it by (100/200)⁴
        u0 = self._data()
        evolve = AlphaConnection(1.0).evolve

        def stepper(v, t, dt):
            if fixed_steps(t, dt)[0] < 100:
                raise StepTooLarge("coarse")
            return evolve(v, t, dt)

        u, error, steps, total = evolve_to_tolerance(stepper, u0, 0.3)
        fine, coarse = (evolve(u0, 0.3, 0.3 / n).values for n in (200, 100))
        assert np.array_equal(u.values, fine) and steps == 200
        assert error == float(np.max(np.abs(coarse - fine))) / (1 - 2.0**-4) * 2.0**-4
        true = np.max(np.abs(u.values - alpha_one_explicit(u0, 0.3)[0].values))
        assert _tracks(error, true, u)

    def test_reported_steps_are_the_rk4_steps_taken(self, monkeypatch):
        # the 36,785-step run's companion takes ⌈n/2⌉ = 18,393 steps, though fixed_steps
        # turns a step of 2.5/18,393 into 18,394; the patched rk4_step only counts steps
        taken = []
        monkeypatch.setattr(circle, "rk4_step", lambda rate, t, c, h: taken.append(h) or c)
        u0 = self._data(8)
        _, _, steps, total = evolve_to_tolerance(AlphaConnection(1.0).evolve, u0, 2.5, 2.5 / 36_785)
        assert (steps, total) == (36_785, 36_785 + 18_393)
        assert sorted(collections.Counter(taken).values()) == [18_393, 36_785]

    def test_non_finite_run_ends_the_loop(self):
        starts = []

        def stepper(v, t, dt):
            starts.append(dt)
            return ScalarField(v.grid, np.full(v.grid.shape, np.nan))

        u, error, _, _ = evolve_to_tolerance(stepper, self._data(), 0.3)
        assert math.isnan(error) and len(starts) == 1


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
