import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densgeo import _interp, hsflow

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
    derivative,
    divergence,
    fixed_steps,
    integrate,
    laplacian_inverse_gradient,
    random_band_limited,
    rk4_step,
    sinc,
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
    map_jacobian,
    rho_along_flow,
    sphere_path,
    sphere_velocity,
)
from helpers import sin_geodesic

# the great-circle kernel against its other forms, each bound about 10x the
# worst of 3,000 draws of the property's strategies (1-D 64 nodes and 32²,
# degree up to N/4, t up to 0.99 t_max): ρ = 2ḟ/f against the tangent
# 5.5e-14 of sup|ρ|, 4∫ḟ² against 4κ²μ(M) 5.7e-16, and ḟ against a central
# difference of f (step 1e-5/κ) 3.2e-11 of sup|ḟ|
KERNEL_RHO_TOL = 5e-13
KERNEL_ENERGY_TOL = 5e-15
KERNEL_VELOCITY_TOL = 3e-10

KAPPA_SIN = 1.0 / (2.0 * np.sqrt(2.0))
TMAX_SIN = 2.0 * np.sqrt(2.0) * (np.pi / 2.0 - np.arctan(np.sqrt(2.0)))


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
        geo = HsGeodesic.from_divergence(divergence(grid, np.ones((1, 64))))
        assert geo.kappa == 0.0
        assert geo.t_max == np.inf

    def test_gradient_velocity_gives_its_divergence(self):
        grid = PeriodicGrid(64)
        rho0 = ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)))
        geo = HsGeodesic.from_divergence(divergence(grid, laplacian_inverse_gradient(rho0)))
        assert np.allclose(geo.rho0.values, rho0.values, atol=1e-12)
        assert geo.kappa == pytest.approx(KAPPA_SIN, abs=1e-12)

    def test_off_grid_minimum_refined(self):
        # shifted profile puts the minimum between nodes; Newton on the
        # interpolant recovers it to roundoff
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        shift = 0.37 * grid.spacings[0]
        geo = HsGeodesic.from_divergence(
            ScalarField(grid, np.sin(2 * np.pi * (x - shift)))
        )
        assert geo.rho0_min == pytest.approx(-1.0, abs=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("n", [16, 24, 32, 64])
    def test_off_grid_minimum_refined_2d(self, n):
        # degree-3 data whose minimum lies off the nodes of every grid; the
        # reference is the root of its analytic gradient, solved to 30 digits
        grid = PeriodicGrid((n, n))
        x, y = grid.identity
        rho0 = (np.sin(2 * np.pi * x + 0.3) + np.sin(6 * np.pi * y + 0.2)
                + 0.9 * np.cos(2 * np.pi * (2 * x + y) + 0.4))
        geo = HsGeodesic.from_divergence(ScalarField(grid, rho0))
        assert geo.rho0_min == pytest.approx(-2.8405856537979728, abs=4e-15)

    def test_nonzero_mean_rejected(self):
        grid = PeriodicGrid(64)
        with pytest.raises(NonZeroMean):
            HsGeodesic.from_divergence(ScalarField.constant(grid, 0.5))

    @pytest.mark.parametrize("shape", [16, (16, 16)])
    def test_overflowing_energy_rejected(self, shape):
        # ∫ρ0² overflows (κ = inf, t_max = 0 before); no overflow warning escapes
        grid = PeriodicGrid(shape)
        rho0 = ScalarField(grid, 1e154 * np.sin(2 * np.pi * grid.coordinate(0)))
        with pytest.raises(NonFiniteInput, match="energy integral of rho0"):
            HsGeodesic.from_divergence(rho0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_divergence_named(self, bad):
        grid = PeriodicGrid(8)
        values = np.sin(2 * np.pi * grid.coordinate(0))
        values[3] = bad
        with pytest.raises(NonFiniteInput, match="initial divergence is not finite"):
            HsGeodesic.from_divergence(ScalarField(grid, values))


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

    @pytest.mark.parametrize("call", [
        rho_along_flow, flow_energy, eulerian_rho,
        lambda g, t: jacobian_by_ode(g, t, 1e-3),
        lambda g, t: integrate_flow(g, t, 1e-3),
    ], ids=["rho_along_flow", "flow_energy", "eulerian_rho", "jacobian_by_ode", "integrate_flow"])
    def test_every_guard_raises_one_message(self, call):
        geo = sin_geodesic(64)
        with pytest.raises(BeyondBlowup) as caught:
            call(geo, geo.t_max)
        assert str(caught.value) == f"t = {geo.t_max} is at or past the blowup time {geo.t_max}"

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


class TestGreatCircleKernel:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(64,), (32, 32)]), seed=st.integers(0, 2**32 - 1),
           frac=st.floats(0.0, 0.99), data=st.data())
    def test_closed_forms_agree_with_their_other_forms(self, shape, seed, frac, data):
        grid = PeriodicGrid(shape)
        degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
        geo = HsGeodesic.from_divergence(
            random_band_limited(grid, degree, np.random.default_rng(seed)))
        kappa, t = geo.kappa, frac * geo.t_max
        rho = rho_along_flow(geo, t).values
        tangent = 2.0 * kappa * np.tan(np.arctan(geo.rho0.values / (2.0 * kappa)) - kappa * t)
        assert np.max(np.abs(rho - tangent)) <= KERNEL_RHO_TOL * np.max(np.abs(rho))
        drift = abs(flow_energy(geo, t) - geo.conserved_energy)
        assert drift <= KERNEL_ENERGY_TOL * geo.conserved_energy
        h = 1e-5 / kappa
        difference = (sphere_path(geo, t + h).values - sphere_path(geo, t - h).values) / (2 * h)
        velocity = sphere_velocity(geo, t).values
        assert np.max(np.abs(difference - velocity)) <= KERNEL_VELOCITY_TOL * np.max(
            np.abs(velocity))

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(64,), (32, 32)]), seed=st.integers(0, 2**32 - 1),
           fracs=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=6), data=st.data())
    def test_time_array_is_the_stacked_scalar_calls(self, shape, seed, fracs, data):
        grid = PeriodicGrid(shape)
        degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
        geo = HsGeodesic.from_divergence(
            random_band_limited(grid, degree, np.random.default_rng(seed)))
        times = np.array([0.0] + fracs) * geo.t_max
        for got, want in zip(hsflow.great_circle(geo, times),
                             zip(*(hsflow.great_circle(geo, float(t)) for t in times))):
            want = np.stack(want)
            assert got.shape == (len(times),) + shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(16,), (8, 8)]), seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["series", "whole and half steps"]),
           count=st.integers(1, 40), chunk_values=st.integers(1, 2**9),
           values_per_time=st.integers(1, 2**10), data=st.data())
    def test_chunks_cover_the_times_in_order_with_the_kernel_bits(
        self, shape, seed, layout, count, chunk_values, values_per_time, data
    ):
        grid = PeriodicGrid(shape)
        degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
        geo = HsGeodesic.from_divergence(
            random_band_limited(grid, degree, np.random.default_rng(seed)))
        if layout == "series":
            fracs = data.draw(st.lists(st.floats(0.0, 0.99), min_size=count, max_size=count))
            times = np.array(fracs) * geo.t_max
        else:  # _rk4_factors' rows of whole steps and half steps of h
            steps, h = np.arange(1.0, count + 1), 0.99 * geo.t_max / count
            times = h * np.array([steps, steps - 0.5])
        with mock.patch.object(hsflow, "_CHUNK_VALUES", chunk_values):
            chunks = list(hsflow.great_circle_chunks(geo, times, values_per_time))
        assert np.array_equal(np.concatenate([c for c, _, _ in chunks], axis=-1), times)
        assert all(0 < c.shape[-1] <= max(1, chunk_values // values_per_time)
                   for c, _, _ in chunks)
        for chunk, f, fdot in chunks:
            assert f.shape == fdot.shape == chunk.shape + (grid.node_count,)
            for index, t in np.ndenumerate(chunk):
                want = hsflow.great_circle(geo, np.array([t]))
                assert np.array_equal(f[index], want[0].ravel())
                assert np.array_equal(fdot[index], want[1].ravel())

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(16,), (8, 8)]), seed=st.integers(0, 2**32 - 1),
           stationary=st.booleans(), fracs=st.lists(st.floats(-1.0, 0.99), min_size=1,
                                                     max_size=5),
           n_steps=st.integers(1, 30), chunk_values=st.integers(1, 2**9), data=st.data())
    def test_kernels_are_the_textbook_expressions_bit_for_bit(
        self, shape, seed, stationary, fracs, n_steps, chunk_values, data
    ):
        # great_circle and _rk4_factors compute in place; their bits must stay those of
        # the expressions, evaluated here with fresh arrays as written
        grid = PeriodicGrid(shape)
        degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
        rho0 = (ScalarField.constant(grid, 0.0) if stationary
                else random_band_limited(grid, degree, np.random.default_rng(seed)))
        geo = HsGeodesic.from_divergence(rho0)
        kappa, rho0, span = geo.kappa, geo.rho0.values, min(geo.t_max, 2.0)

        def textbook(t):  # (f, ḟ) at a float t, or at an array of times on the first axis
            if isinstance(t, np.ndarray):
                t = t.reshape(t.shape + (1,) * grid.dim)
                cos_kt = np.cos(kappa * t)
            else:
                cos_kt = math.cos(kappa * t)
            s = t * sinc(kappa * t)
            return cos_kt + (0.5 * s) * rho0, (0.5 * cos_kt) * rho0 - kappa**2 * s

        times = np.array(fracs) * span
        for t in [float(t) for t in times] + [times]:
            f, fdot = hsflow.great_circle(geo, t)
            want_f, want_fdot = textbook(t)
            assert np.array_equal(f, want_f) and np.array_equal(fdot, want_fdot)
            if not isinstance(t, np.ndarray):
                assert np.array_equal(jacobian_formula(geo, t).values, f**2)
                assert np.array_equal(sphere_path(geo, t).values, f)

        h = 0.99 * span / n_steps
        with mock.patch.object(hsflow, "_CHUNK_VALUES", chunk_values):
            got = np.concatenate(list(hsflow._rk4_factors(geo, n_steps, h)))
        (f, fdot), (f_half, fdot_half) = (
            textbook(times) for times in (np.arange(0.0, n_steps + 1) * h,
                                          (np.arange(1.0, n_steps + 1) - 0.5) * h))
        ends, a2 = 2.0 * fdot / f, 2.0 * fdot_half / f_half
        a1, a4 = ends[:-1], ends[1:]
        k2 = a2 * (1.0 + 0.5 * h * a1)
        k3 = a2 * (1.0 + 0.5 * h * k2)
        k4 = a4 * (1.0 + h * k3)
        assert np.array_equal(got, 1.0 + (h / 6.0) * (a1 + 2.0 * (k2 + k3) + k4))


class TestGreatCircleSeries:
    """``great_circle_series`` from ρ0's sums and extremes against the rows formed
    node by node from ``great_circle``'s f and ḟ.  Over 3,000 seeded draws of the
    property's strategies sup ρ matched bit for bit, and ∫Jac and ∫ρ²Jac came within
    4.4e-16 and 5.9e-16 relative; the bounds are 4 ulp and 1e-14."""

    @settings(max_examples=80, deadline=None)
    @given(shape=st.sampled_from([(8,), (64,), (512,), (8, 8), (32, 32), (16, 48)]),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           fracs=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=8), data=st.data())
    def test_rows_are_the_node_wise_rows(self, shape, seed, scale, fracs, data):
        grid = PeriodicGrid(shape)
        degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
        rho0 = random_band_limited(grid, degree, np.random.default_rng(seed))
        geo = HsGeodesic.from_divergence(ScalarField(grid, scale * rho0.values))
        times = np.sort(fracs) * geo.t_max
        got = hsflow.great_circle_series(geo, times)
        f, fdot = (v.reshape(len(times), -1) for v in hsflow.great_circle(geo, times))
        assert np.array_equal(got["min_jacobian"], np.min(f**2, axis=1))
        sup = 2.0 * np.max(np.abs(fdot / f), axis=1)
        assert np.all(np.abs(got["sup_rho"] - sup) <= 4 * np.spacing(sup))
        for key, integrand in (("jacobian_mass", f**2), ("energy", 4.0 * fdot**2)):
            want = grid.node_weight * np.sum(integrand, axis=1)
            assert np.all(np.abs(got[key] - want) <= 1e-14 * want)
        for t, e in zip(times, got["energy"]):  # a row's energy is flow_energy's
            assert e == flow_energy(geo, t)

    @pytest.mark.parametrize("shape", [(64,), (16, 16)], ids=["circle", "torus"])
    def test_stationary_series_is_exact(self, shape):
        grid = PeriodicGrid(shape)
        geo = HsGeodesic.from_divergence(ScalarField.constant(grid, 0.0))
        got = hsflow.great_circle_series(geo, np.array([0.0, 0.5, 3.0, 1e6]))
        assert np.all(got["energy"] == 0.0) and np.all(got["sup_rho"] == 0.0)
        assert np.all(got["min_jacobian"] == 1.0)

    def test_rejects_a_time_at_the_blowup(self):
        geo = sin_geodesic()
        with pytest.raises(BeyondBlowup):
            hsflow.great_circle_series(geo, np.array([0.0, geo.t_max]))


class TestStationaryLimit:
    """κ below KAPPA_EPS: the stationary solution ρ0 ≡ 0, exactly."""

    @pytest.fixture(params=[(64,), (16, 16)], ids=["circle", "torus"])
    def geo(self, request):
        grid = PeriodicGrid(request.param)
        return HsGeodesic.from_divergence(
            ScalarField(grid, 1e-14 * np.sin(2 * np.pi * grid.coordinate(0))))

    def test_stores_zero_divergence(self, geo):
        assert (geo.kappa, geo.t_max, geo.rho0_min) == (0.0, np.inf, 0.0)
        assert np.all(geo.rho0.values == 0.0)

    def test_closed_forms_are_exact(self, geo):
        for t in (0.0, 0.5, 3.0, 1e6):
            f, fdot = hsflow.great_circle(geo, t)
            assert np.all(f == 1.0) and np.all(fdot == 0.0)
            assert np.all(sphere_path(geo, t).values == 1.0)
            assert np.all(sphere_velocity(geo, t).values == 0.0)
            assert np.all(jacobian_formula(geo, t).values == 1.0)
            assert np.all(rho_along_flow(geo, t).values == 0.0)
            assert flow_energy(geo, t) == 0.0
        f, fdot = hsflow.great_circle(geo, np.array([0.0, 0.5, 3.0, 1e6]))
        assert np.all(f == 1.0) and np.all(fdot == 0.0)
        if geo.grid.dim == 1:
            assert np.all(eulerian_rho(geo, 0.5).values == 0.0)

    def test_flows_are_the_identity(self, geo):
        assert np.all(jacobian_by_ode(geo, 0.5, 1e-2).values == 1.0)
        flow = integrate_flow(geo, 0.5, 1e-2, n_store=2)
        for positions, jacobian in zip(flow.positions, flow.jacobians):
            assert np.array_equal(positions, geo.grid.identity)
            assert np.all(jacobian == 1.0)


class TestVelocityReconstruction:
    def test_single_mode(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        u = laplacian_inverse_gradient(ScalarField(grid, np.sin(2 * np.pi * x)))
        expected = -np.cos(2 * np.pi * x) / (2 * np.pi)
        assert u.shape == (1, 64)
        assert np.allclose(u[0], expected, atol=1e-12)

    def test_zero(self):
        grid = PeriodicGrid(64)
        u = laplacian_inverse_gradient(ScalarField.constant(grid, 0.0))
        assert np.allclose(u, 0.0)

    def test_torus_divergence_roundtrip(self):
        grid = PeriodicGrid((32, 32))
        x, y = grid.coordinate(0), grid.coordinate(1)
        rho = ScalarField(grid, np.sin(2 * np.pi * x) + np.sin(2 * np.pi * y))
        back = divergence(grid, laplacian_inverse_gradient(rho))
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

    def test_two_dimensional_grid_rejected(self):
        # the anchored gauge is one-dimensional: ValidationError (exit 2), as
        # for the other circle-only operations
        grid = PeriodicGrid((16, 16))
        geo = HsGeodesic.from_divergence(ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0))))
        for reconstruct in (anchored_flow_1d, eulerian_rho, equation_residual):
            with pytest.raises(ValidationError):
                reconstruct(geo, 0.1)

    def test_equation_residual_resolved(self):
        geo = sin_geodesic(256)
        assert equation_residual(geo, 0.5 * geo.t_max) <= 1e-6

    def test_equation_residual_inverts_once_per_time(self, monkeypatch):
        from densgeo import _interp, hsflow

        geo = sin_geodesic(64)
        t = 0.5 * geo.t_max
        # the residual as defined: the anchored velocity from its own ρ(t)
        rho_m, rho_0, rho_p = (eulerian_rho(geo, s).values for s in (t - 1e-5, t, t + 1e-5))
        u = hsflow._anchored_velocity(ScalarField(geo.grid, rho_0)).values
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

    def test_one_kernel_evaluation_per_half_step(self, monkeypatch):
        # criterion 4's input: n = 15,668 RK4 steps over many chunks take the
        # kernel at each of their 2n + 1 half steps once, however the calls
        # batch the times
        calls = []
        kernel = hsflow.great_circle
        monkeypatch.setattr(hsflow, "great_circle",
                            lambda *args: calls.append(args[1]) or kernel(*args))
        geo = sin_geodesic()
        jacobian_by_ode(geo, 0.9 * geo.t_max, 1e-4)
        times = np.concatenate(calls)
        assert len(calls) > 2 and len(times) == 2 * 15668 + 1
        assert len(np.unique(times)) == len(times)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from([(64,), (512,), (32, 32)]), seed=st.integers(0, 2**32 - 1),
           frac=st.floats(0.01, 0.9), chunks=st.sampled_from(["one step", "partial", "several"]),
           data=st.data())
    def test_factor_product_is_per_step_rk4(self, shape, seed, frac, chunks, data):
        # the reference steps J' = ρ(t, η(t, x))·J with rk4_step, one step at a time
        grid = PeriodicGrid(shape)
        degree = data.draw(st.integers(1, min(shape) // 4), label="degree")
        geo = HsGeodesic.from_divergence(
            random_band_limited(grid, degree, np.random.default_rng(seed)))
        per_chunk = max(1, hsflow._CHUNK_VALUES // (2 * grid.node_count))
        low, high = {"one step": (1, 1), "partial": (per_chunk + 1, 2 * per_chunk - 1),
                     "several": (2 * per_chunk + 1, 4 * per_chunk)}[chunks]
        n = data.draw(st.integers(low, high), label="steps")
        t = frac * geo.t_max
        n_steps, h = fixed_steps(t, t / n)
        assert n_steps == n
        reference = np.ones(shape)
        for step in range(n):
            reference = rk4_step(lambda s, j: rho_along_flow(geo, s).values * j,
                                 step * h, reference, h)
        jac = jacobian_by_ode(geo, t, t / n).values
        assert np.max(np.abs(jac - reference)) <= 1e-12 * np.max(np.abs(reference))

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

    def test_spline_error_bound_reported(self):
        # the torus benchmark's integrate_flow data: degree 2 of sup 0.5 on 48²
        grid = PeriodicGrid((48, 48))
        values = random_band_limited(grid, 2, np.random.default_rng(1)).values
        geo = HsGeodesic.from_divergence(ScalarField(grid, 0.5 * values / np.max(np.abs(values))))
        flow = integrate_flow(geo, 0.05, 5e-3, n_store=1)
        assert 0.0 < flow.diagnostics["spline_error_bound"] <= _interp.SPLINE_TOL

    def test_spline_error_bound_certified_near_criterion_2_end(self):
        # criterion 2's 2-D flow: its last builds need refining by 8
        grid = PeriodicGrid((48, 48))
        x, y = grid.coordinate(0), grid.coordinate(1)
        geo = HsGeodesic.from_divergence(
            ScalarField(grid, 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)))
        flow = integrate_flow(geo, 0.5 * geo.t_max, 5e-3, n_store=2)
        assert 0.0 < flow.diagnostics["spline_error_bound"] <= _interp.SPLINE_TOL

    def test_step_too_large(self):
        geo = sin_geodesic(64)
        with pytest.raises(StepTooLarge):
            integrate_flow(geo, 0.8 * geo.t_max, 0.3)

    def test_courant_number_checked_at_the_step_taken(self):
        # t_final 0.5 at dt 0.3 takes two steps of 0.25: Courant 0.535 at
        # 0.3, within bounds at the step taken, so it is the dt = 0.25 flow
        grid = PeriodicGrid(16)
        geo = HsGeodesic.from_divergence(
            ScalarField(grid, 0.7 * np.sin(2 * np.pi * grid.coordinate(0))))
        coarse, exact = integrate_flow(geo, 0.5, 0.3), integrate_flow(geo, 0.5, 0.25)
        assert np.array_equal(coarse.times, exact.times)
        for got, want in zip(coarse.positions + coarse.jacobians,
                             exact.positions + exact.jacobians):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_step_rejected(self, dt):
        geo = sin_geodesic(64)
        with pytest.raises(ValidationError):
            integrate_flow(geo, 0.1 * geo.t_max, dt)
