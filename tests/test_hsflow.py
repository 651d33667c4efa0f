import numpy as np
import pytest

from densgeo.density import sqrt_map
from densgeo.errors import (
    BeyondBlowup,
    NonFiniteInput,
    NonZeroMean,
    StepTooLarge,
    ValidationError,
)
from densgeo.grid import (
    PeriodicGrid,
    ScalarField,
    VectorField,
    derivative,
    divergence,
    integrate,
)
from densgeo.hsflow import (
    HsGeodesic,
    anchored_flow_1d,
    energy,
    equation_residual,
    eulerian_rho,
    evolve_density_global,
    flow_energy,
    integrate_flow,
    jacobian_by_ode,
    jacobian_formula,
    make_geodesic,
    map_jacobian,
    rho_along_flow,
    velocity_from_rho,
)
from densgeo.hsflow import _characteristic_rho, _rho_lagrangian

KAPPA_SIN = 1.0 / (2.0 * np.sqrt(2.0))
TMAX_SIN = 2.0 * np.sqrt(2.0) * (np.pi / 2.0 - np.arctan(np.sqrt(2.0)))


def sin_geodesic(n=256):
    grid = PeriodicGrid(n)
    x = grid.coordinate(0)
    return HsGeodesic.from_divergence(ScalarField(grid, np.sin(2 * np.pi * x)))


def torus_geodesic(n=32, amplitude=0.5):
    grid = PeriodicGrid((n, n))
    x, y = grid.coordinate(0), grid.coordinate(1)
    rho0 = ScalarField(grid, amplitude * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    return HsGeodesic.from_divergence(rho0)


class TestGeodesicRecord:
    def test_kappa_value(self):
        geo = sin_geodesic()
        assert geo.kappa == pytest.approx(KAPPA_SIN, abs=1e-14)

    def test_blowup_time_value(self):
        geo = sin_geodesic()
        assert geo.t_max == pytest.approx(TMAX_SIN, abs=1e-12)

    def test_kappa_invariant(self):
        geo = sin_geodesic()
        lhs = geo.kappa**2
        rhs = integrate(ScalarField(geo.grid, geo.rho0.values**2)) / (4 * geo.mass)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_divergence_free_gives_stationary(self):
        grid = PeriodicGrid(64)
        u0 = VectorField(grid, (ScalarField.constant(grid, 1.0),))
        geo = make_geodesic(u0)
        assert geo.kappa == 0.0
        assert geo.t_max == np.inf

    def test_from_velocity_matches_divergence(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        u0 = velocity_from_rho(ScalarField(grid, np.sin(2 * np.pi * x)))
        geo = make_geodesic(u0)
        assert np.allclose(geo.rho0.values, divergence(u0).values, atol=1e-12)
        assert geo.kappa == pytest.approx(KAPPA_SIN, abs=1e-12)

    def test_off_grid_minimum_refined(self):
        # shifted profile puts the minimum between nodes; one Newton step on
        # the interpolant recovers it to near machine precision
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        shift = 0.37 * grid.spacings[0]
        geo = HsGeodesic.from_divergence(
            ScalarField(grid, np.sin(2 * np.pi * (x - shift)))
        )
        assert geo.rho0_min == pytest.approx(-1.0, abs=1e-9)
        assert geo.rho0_min >= -1.0 - 1e-12

    def test_nonzero_mean_rejected(self):
        grid = PeriodicGrid(64)
        with pytest.raises(NonZeroMean):
            HsGeodesic.from_divergence(ScalarField.constant(grid, 0.5))

    @pytest.mark.parametrize("shape", [16, (16, 16)])
    def test_overflowing_energy_rejected(self, shape):
        # ∫ρ0² overflows (κ = inf, t_max = 0 before); no overflow warning escapes
        grid = PeriodicGrid(shape)
        rho0 = ScalarField(grid, 1e154 * np.sin(2 * np.pi * grid.coordinate(0)))
        with pytest.raises(NonFiniteInput):
            HsGeodesic.from_divergence(rho0)


class TestLagrangianFormulas:
    def test_initial_value(self):
        geo = sin_geodesic()
        assert np.allclose(rho_along_flow(geo, 0.0).values, geo.rho0.values, atol=1e-14)

    def test_zero_label_value(self):
        # where ρ0 vanishes the solution is -2κ tan(κt)
        geo = sin_geodesic()
        t = 0.4 * geo.t_max
        rho = rho_along_flow(geo, t)
        expected = -2 * geo.kappa * np.tan(geo.kappa * t)
        assert rho.values[0] == pytest.approx(expected, abs=1e-12)

    def test_beyond_blowup_rejected(self):
        geo = sin_geodesic()
        with pytest.raises(BeyondBlowup):
            rho_along_flow(geo, geo.t_max)

    def test_blowup_certificate(self):
        # sup|ρ| crosses 10³ within 1% of the predicted breakdown time
        geo = sin_geodesic()
        lo, hi = 0.9 * geo.t_max, geo.t_max * (1 - 1e-12)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.max(np.abs(rho_along_flow(geo, mid).values)) >= 1e3:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert geo.t_max - crossing > 0
        assert (geo.t_max - crossing) / geo.t_max <= 0.01

    def test_jacobian_initial(self):
        geo = sin_geodesic()
        assert np.allclose(jacobian_formula(geo, 0.0).values, 1.0)

    @pytest.mark.parametrize("frac", [0.3, 0.9, 1.5])
    def test_jacobian_mass(self, frac):
        geo = sin_geodesic()
        jac = jacobian_formula(geo, frac * geo.t_max)
        assert integrate(jac) == pytest.approx(geo.mass, abs=1e-12)

    def test_jacobian_vanishes_at_blowup(self):
        geo = sin_geodesic()
        assert np.min(jacobian_formula(geo, geo.t_max).values) <= 1e-12


class TestVelocityReconstruction:
    def test_single_mode(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        u = velocity_from_rho(ScalarField(grid, np.sin(2 * np.pi * x)))
        expected = -np.cos(2 * np.pi * x) / (2 * np.pi)
        assert np.allclose(u.components[0].values, expected, atol=1e-12)

    def test_zero(self):
        grid = PeriodicGrid(64)
        u = velocity_from_rho(ScalarField.constant(grid, 0.0))
        assert np.allclose(u.components[0].values, 0.0)

    def test_torus_divergence_roundtrip(self):
        grid = PeriodicGrid((32, 32))
        x, y = grid.coordinate(0), grid.coordinate(1)
        rho = ScalarField(grid, np.sin(2 * np.pi * x) + np.sin(2 * np.pi * y))
        u = velocity_from_rho(rho)
        back = divergence(u)
        assert np.max(np.abs(back.values - rho.values)) <= 1e-10


class TestEnergy:
    def test_initial_energy(self):
        geo = sin_geodesic()
        assert energy(geo.rho0) == pytest.approx(0.5, abs=1e-14)
        assert geo.conserved_energy == pytest.approx(0.5, abs=1e-14)

    def test_zero(self):
        grid = PeriodicGrid(64)
        assert energy(ScalarField.constant(grid, 0.0)) == 0.0

    def test_conservation_along_exact_solution(self):
        geo = sin_geodesic()
        assert flow_energy(geo, 0.7 * geo.t_max) == pytest.approx(0.5, abs=1e-10)


class TestGlobalContinuation:
    def test_initial_point(self):
        geo = sin_geodesic()
        point, dens = evolve_density_global(geo, 0.0)
        assert np.allclose(point.values, 1.0)
        assert np.allclose(dens.values, 1.0)

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_mass_at_all_times(self, t):
        geo = sin_geodesic()
        _, dens = evolve_density_global(geo, t)
        assert integrate(dens.field) == pytest.approx(geo.mass, abs=1e-12)

    def test_density_period(self):
        geo = sin_geodesic()
        period = np.pi / geo.kappa
        for t in (0.4, 1.9):
            _, d1 = evolve_density_global(geo, t)
            _, d2 = evolve_density_global(geo, t + period)
            assert np.max(np.abs(d1.values - d2.values)) <= 1e-11

    def test_degenerate_flag_past_blowup(self):
        geo = sin_geodesic()
        assert not evolve_density_global(geo, 0.5 * geo.t_max)[1].degenerate
        assert evolve_density_global(geo, 1.2 * geo.t_max)[1].degenerate

    def test_isometry_coherence(self):
        # sqrt of the Jacobian-as-density is the great-circle point
        geo = sin_geodesic()
        for t in (0.2, 0.6, 0.9):
            jac = jacobian_formula(geo, t * geo.t_max)
            from densgeo.density import Density

            point = sqrt_map(Density(jac, geo.mass))
            expected = evolve_density_global(geo, t * geo.t_max)[0]
            assert np.max(np.abs(point.values - expected.values)) <= 1e-12


class TestEulerianReconstruction:
    def test_anchored_flow_base_point(self):
        geo = sin_geodesic()
        eta = anchored_flow_1d(geo, 0.5 * geo.t_max)
        assert eta[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_lagrangian_at_flow_points(self):
        from densgeo import _interp

        geo = sin_geodesic()
        t = 0.5 * geo.t_max
        rho_eul = eulerian_rho(geo, t)
        eta = anchored_flow_1d(geo, t)
        at_flow = _interp.trig_eval(geo.grid, rho_eul.values, eta)
        lag = rho_along_flow(geo, t).values
        assert np.max(np.abs(at_flow - lag)) <= 1e-7  # interpolant of tan composition

    def test_equation_residual_resolved(self):
        geo = sin_geodesic(256)
        assert equation_residual(geo, 0.5 * geo.t_max) <= 1e-6

    def test_equation_residual_inverts_once_per_time(self, monkeypatch):
        from densgeo import _interp, hsflow

        geo = sin_geodesic(64)
        t = 0.5 * geo.t_max
        # the residual as defined: the anchored velocity from its own ρ(t)
        rho_m, rho_0, rho_p = (eulerian_rho(geo, s).values for s in (t - 1e-5, t, t + 1e-5))
        u = hsflow.eulerian_velocity(geo, t).values
        rho_x = derivative(ScalarField(geo.grid, rho_0)).values
        const = energy(ScalarField(geo.grid, rho_0)) / (2.0 * geo.mass)
        expected = np.max(np.abs((rho_p - rho_m) / 2e-5 + u * rho_x + 0.5 * rho_0**2 + const))

        calls = []
        original = _interp.invert_monotone

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(_interp, "invert_monotone", counting)
        assert equation_residual(geo, t) == expected
        assert len(calls) == 3

    def test_equation_residual_near_blowup(self):
        # at 0.8·t_max the Eulerian profile compresses to a few cells of a
        # coarse grid and the peak moves fast, so the sup-norm residual needs
        # both a fine grid and a small differencing step to resolve
        geo = sin_geodesic(4096)
        assert equation_residual(geo, 0.8 * geo.t_max, dt_fd=1e-6) <= 1e-6


class TestJacobianTransport:
    def test_ode_matches_formula(self):
        geo = sin_geodesic()
        t = 0.9 * geo.t_max
        jac = jacobian_by_ode(geo, t, 1e-4)
        expected = jacobian_formula(geo, t)
        assert np.max(np.abs(jac.values - expected.values)) <= 1e-9

    def test_energy_conserved_along_ode(self):
        geo = sin_geodesic()
        t = 0.9 * geo.t_max
        jac = jacobian_by_ode(geo, t, 1e-4)
        rho = rho_along_flow(geo, t)
        total = integrate(ScalarField(geo.grid, rho.values**2 * jac.values))
        assert abs(total - geo.conserved_energy) / geo.conserved_energy <= 1e-8


class TestIntegrateFlow:
    def test_zero_kappa_identity(self):
        grid = PeriodicGrid(64)
        geo = HsGeodesic.from_divergence(ScalarField.constant(grid, 0.0))
        flow = integrate_flow(geo, 0.5, 1e-2, n_store=2)
        assert np.allclose(flow.positions[-1][0], grid.coordinate(0), atol=1e-12)
        assert np.allclose(flow.jacobians[-1], 1.0, atol=1e-12)

    def test_blowup_guard(self):
        geo = sin_geodesic(64)
        with pytest.raises(BeyondBlowup):
            integrate_flow(geo, geo.t_max, 1e-3)

    def test_sin_flow_at_half_blowup(self):
        # N = 512, dt = 1e-4: the closed-form Jacobian is the oracle
        geo = sin_geodesic(512)
        t = 0.5 * geo.t_max
        flow = integrate_flow(geo, t, 1e-4, n_store=4)
        expected = jacobian_formula(geo, flow.times[-1]).values
        assert np.max(np.abs(flow.jacobians[-1] - expected)) <= 1e-6
        # the particle map itself is certified through its spectral Jacobian
        assert np.max(np.abs(map_jacobian(geo.grid, flow.positions[-1]) - expected)) <= 1e-6
        # gauge: the numeric flow is the anchored flow plus a rigid rotation
        eta = flow.positions[-1][0]
        shift = np.mean(eta - anchored_flow_1d(geo, flow.times[-1]))
        assert np.max(np.abs(eta - anchored_flow_1d(geo, flow.times[-1]) - shift)) <= 1e-8
        for i, t_i in enumerate(flow.times):
            mass = geo.grid.node_weight * np.sum(flow.jacobians[i])
            assert mass == pytest.approx(geo.mass, abs=1e-8)
        assert np.max(flow.diagnostics["transport_residual"]) <= 1e-8

    def test_step_too_large(self):
        geo = sin_geodesic(64)
        with pytest.raises(StepTooLarge):
            integrate_flow(geo, 0.8 * geo.t_max, 0.3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_step_rejected(self, dt):
        geo = sin_geodesic(64)
        with pytest.raises(ValidationError):
            integrate_flow(geo, 0.1 * geo.t_max, dt)

    @pytest.mark.parametrize("amp", [0.0, 1.0])
    def test_characteristic_rho_is_the_lagrangian_formula(self, amp):
        # the stepping loops hoist θ0 = arctan(ρ0/2κ); the values stay the same bits
        grid = PeriodicGrid((16, 16))
        x, y = grid.coordinate(0), grid.coordinate(1)
        geo = HsGeodesic.from_divergence(
            ScalarField(grid, amp * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)))
        rho = _characteristic_rho(geo)
        for t in (0.0, 0.3 * min(geo.t_max, 1.0), 0.9 * min(geo.t_max, 1.0)):
            assert np.array_equal(rho(t), _rho_lagrangian(geo, t, geo.rho0.values))
