import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densgeo import _interp, moser
from densgeo.density import Density, uniform_density
from densgeo.errors import (
    InversionDiverged,
    MassDrift,
    MassMismatch,
    NonFiniteInput,
    NonPositiveJacobian,
    StepTooLarge,
    ValidationError,
)
from densgeo.grid import (
    MAX_STEPS,
    PeriodicGrid,
    ScalarField,
    fourier,
    laplacian_inverse,
    random_band_limited,
)
from densgeo.hsflow import (
    FlowMap,
    HsGeodesic,
    jacobian_formula,
    map_jacobian,
    sphere_path,
    sphere_velocity,
)
from densgeo.moser import (
    invert_map,
    lift_flow,
    moser_primitive_1d,
    transport_map,
)
from densgeo.moser import _flow_transport


def sin_geodesic(n=256):
    grid = PeriodicGrid(n)
    return HsGeodesic.from_divergence(
        ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)))
    )


def torus_geodesic(n=48):
    grid = PeriodicGrid((n, n))
    x, y = grid.coordinate(0), grid.coordinate(1)
    return HsGeodesic.from_divergence(
        ScalarField(grid, 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    )


class TestLift1D:
    def test_identity_jacobian(self):
        grid = PeriodicGrid(64)
        flow = lift_flow(lambda t: np.ones(grid.shape), [0.0, 0.5, 1.0], grid)
        for pos in flow.positions:
            assert np.allclose(pos[0], grid.coordinate(0), atol=1e-14)

    def test_primitive_realizes_jacobian(self):
        geo = sin_geodesic()
        t_grid = np.linspace(0.0, 0.5 * geo.t_max, 4)
        flow = lift_flow(lambda t: jacobian_formula(geo, t), t_grid, geo.grid)
        for i, t in enumerate(t_grid):
            phi = jacobian_formula(geo, float(t)).values
            assert np.max(np.abs(flow.jacobians[i] - phi)) <= 1e-10
            mass = geo.grid.node_weight * np.sum(flow.jacobians[i])
            assert mass == pytest.approx(geo.mass, abs=1e-8)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_mean_off_one_lifts_a_circle_map(self, n):
        # φ's mean is 1 + 1e-9, within the MassDrift tolerance: the primitive
        # of φ/⟨φ⟩ is a degree-one circle map, whose Jacobian is φ/⟨φ⟩ ≡ 1
        grid = PeriodicGrid(n)
        flow = lift_flow(lambda t: np.full(grid.shape, 1.0 + 1e-9 * t), [0.0, 1.0], grid)
        assert np.max(np.abs(flow.jacobians[1] - (1.0 + 1e-9))) <= 1.1e-9

    def test_base_point_fixed(self):
        geo = sin_geodesic()
        eta = moser_primitive_1d(geo.grid, jacobian_formula(geo, 0.7).values)
        assert eta[0] == pytest.approx(0.0, abs=1e-14)

    def test_nonpositive_rejected(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        bad = 1.0 + 1.5 * np.sin(2 * np.pi * x)

        def phi(t):
            return np.ones(grid.shape) if t == 0 else bad

        with pytest.raises(NonPositiveJacobian):
            lift_flow(phi, [0.0, 1.0], grid)

    def test_mass_drift_rejected(self):
        grid = PeriodicGrid(64)

        def phi(t):
            return np.full(grid.shape, 1.0 + 0.1 * t)

        with pytest.raises(MassDrift):
            lift_flow(phi, [0.0, 1.0], grid)

    def test_must_start_at_identity(self):
        grid = PeriodicGrid(64)
        x = grid.coordinate(0)
        with pytest.raises(NonPositiveJacobian):
            lift_flow(lambda t: 1.0 + 0.1 * np.sin(2 * np.pi * x), [0.0, 1.0], grid)


class TestFlowStart:
    """``lift_flow`` rejects a non-finite φ, and every flow starts at the
    identity to ``IDENTITY_TOL``, with no relative slack."""

    @pytest.mark.parametrize("shape", [16, (16, 16)])
    def test_nonfinite_jacobian_rejected(self, shape):
        # NaN passes every comparison-based test, so it is rejected first
        grid = PeriodicGrid(shape)
        wave = np.sin(2 * np.pi * grid.coordinate(0))

        def phi(t):
            values = 1.0 + 0.1 * t * wave
            if t == 0.1:
                values.flat[5] = np.nan
            return values

        with pytest.raises(NonFiniteInput):
            lift_flow(phi, [0.0, 0.1], grid, dt=1e-2)

    def test_nonfinite_jacobian_between_output_times_rejected(self):
        # finite at both t_grid points, NaN at the stage times in (0.04, 0.06):
        # an input error (exit 2), not a step too large for a NaN Courant number
        grid = PeriodicGrid((16, 16))

        def phi(t):
            values = np.ones(grid.shape)
            if 0.04 < t < 0.06:
                values.flat[5] = np.nan
            return values

        with pytest.raises(NonFiniteInput) as raised:
            lift_flow(phi, [0.0, 0.1], grid, dt=1e-2)
        assert raised.value.exit_code == 2

    @pytest.mark.parametrize("shape", [16, (16, 16)])
    def test_start_within_identity_tolerance_lifts(self, shape):
        grid = PeriodicGrid(shape)
        flow = lift_flow(lambda t: np.full(grid.shape, 1.0 + 5e-11), [0.0, 0.5], grid,
                         dt=0.1, dphi=lambda t: np.zeros(grid.shape))
        assert np.array_equal(flow.positions[0], grid.identity)
        assert np.all(flow.jacobians[0] == 1.0)

    @pytest.mark.parametrize("lengths", [1.0, 8.0])
    def test_start_one_part_in_a_million_off_rejected(self, lengths):
        grid = PeriodicGrid((16, 16), lengths)
        one, times = np.ones(grid.shape), np.array([0.0])
        with pytest.raises(ValueError, match="identity"):
            FlowMap(grid, times, [grid.identity * (1.0 + 1e-6)], [one])
        with pytest.raises(ValueError, match="Jacobian"):
            FlowMap(grid, times, [grid.identity], [one * (1.0 + 1e-6)])
        FlowMap(grid, times, [grid.identity * (1.0 + 1e-11)], [one * (1.0 + 1e-11)])


class TestPoissonStep:
    def test_two_mode_time_structure(self):
        # for great-circle Jacobians the Poisson solve has the closed form
        # f(t) = f1 cos(2κt) + f2 sin(2κt); recover f1, f2 from two samples
        # and check the rest of the trajectory
        geo = sin_geodesic()
        grid = geo.grid
        kappa = geo.kappa

        def f_of(t, h=1e-5):
            dphi = (
                jacobian_formula(geo, t + h).values
                - jacobian_formula(geo, t - h).values
            ) / (2 * h)
            return laplacian_inverse(ScalarField(grid, -dphi)).values

        t1, t2 = 0.15, 0.45
        a1, b1 = np.cos(2 * kappa * t1), np.sin(2 * kappa * t1)
        a2, b2 = np.cos(2 * kappa * t2), np.sin(2 * kappa * t2)
        det = a1 * b2 - a2 * b1
        f1 = (b2 * f_of(t1) - b1 * f_of(t2)) / det
        f2 = (-a2 * f_of(t1) + a1 * f_of(t2)) / det
        for t in (0.05, 0.3, 0.6, 0.9):
            predicted = f1 * np.cos(2 * kappa * t) + f2 * np.sin(2 * kappa * t)
            assert np.max(np.abs(f_of(t) - predicted)) <= 1e-9


@pytest.fixture(scope="module")
def lifted():
    geo = torus_geodesic()
    t_grid = np.array([0.0, 0.2, 0.4])
    flow = lift_flow(lambda t: jacobian_formula(geo, t), t_grid, geo.grid, dt=2e-3)
    return geo, t_grid, flow


class TestLift2D:
    def test_jacobian_matches_prescription(self, lifted):
        geo, t_grid, flow = lifted
        for i, t in enumerate(t_grid):
            phi = jacobian_formula(geo, float(t)).values
            assert np.max(np.abs(flow.jacobians[i] - phi)) <= 1e-6

    def test_forward_difference_jacobian_oracle(self, lifted):
        # second-order one-sided differences of the positions themselves
        geo, t_grid, flow = lifted
        grid = geo.grid
        eta = flow.positions[-1]
        identity = np.array([grid.coordinate(a) for a in range(2)])
        disp = eta - identity
        jac_fd = None
        grads = []
        for comp in range(2):
            row = []
            for axis in range(2):
                h = grid.spacings[axis]
                shifted_p = np.roll(disp[comp], -1, axis=axis)
                shifted_m = np.roll(disp[comp], 1, axis=axis)
                d = (shifted_p - shifted_m) / (2 * h)
                if comp == axis:
                    d = d + 1.0
                row.append(d)
            grads.append(row)
        jac_fd = grads[0][0] * grads[1][1] - grads[0][1] * grads[1][0]
        phi = jacobian_formula(geo, float(t_grid[-1])).values
        h = max(grid.spacings)
        assert np.max(np.abs(jac_fd - phi)) <= 2.0 * h**2  # centered-difference floor

    def test_mass_identity(self, lifted):
        geo, t_grid, flow = lifted
        for jac in flow.jacobians:
            mass = geo.grid.node_weight * np.sum(jac)
            assert mass == pytest.approx(geo.mass, abs=1e-8)

    def test_bijection_residual(self, lifted):
        geo, _, flow = lifted
        grid = geo.grid
        eta = flow.positions[-1]
        inverse = invert_map(grid, eta)
        roundtrip = inverse + _interp.SplineEvaluator(grid, eta - grid.identity)(*inverse)
        identity = np.array([grid.coordinate(a) for a in range(2)])
        assert np.max(np.abs(roundtrip - identity)) <= 1e-8

    def test_composition_law(self, lifted):
        geo, _, flow = lifted
        grid = geo.grid
        inner, outer = flow.positions[1], flow.positions[2]
        composite = inner + _interp.SplineEvaluator(grid, outer - grid.identity)(*inner)
        jac_comp = map_jacobian(grid, composite)
        outer_jac_eval = _interp.SplineEvaluator(
            grid, map_jacobian(grid, outer), factor=4
        )
        expected = outer_jac_eval(*inner) * map_jacobian(grid, inner)
        assert np.max(np.abs(jac_comp - expected)) <= 1e-8


class TestInversion:
    def test_divergence_detected(self):
        grid = PeriodicGrid((32, 32))
        x = grid.coordinate(0)
        # displacement of amplitude ~L makes the map non-injective
        positions = np.array(
            [x + 0.9 * np.sin(2 * np.pi * x), grid.coordinate(1).copy()]
        )
        with pytest.raises(InversionDiverged):
            invert_map(grid, positions)

    # near identity: a displacement of degree k with sup at most
    # 0.05 min(L) / k, so each entry of its gradient stays below about 0.45
    # and the damped fixed point contracts
    @settings(max_examples=25)
    @given(
        shape=st.sampled_from([(32, 32), (24, 16), (16, 24)]),
        lengths=st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
        degree=st.integers(1, 3),
        amp=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invert_map_round_trip(self, shape, lengths, degree, amp, seed):
        grid = PeriodicGrid(shape, lengths)
        rng = np.random.default_rng(seed)
        scale = amp * min(lengths) / degree
        waves = [random_band_limited(grid, degree, rng).values for _ in range(2)]
        eta = grid.identity + np.array([scale * w / np.max(np.abs(w)) for w in waves])
        inverse = invert_map(grid, eta)
        round_trip = inverse + _interp.SplineEvaluator(grid, eta - grid.identity)(*inverse)
        assert np.max(np.abs(round_trip - grid.identity)) <= 1e-10

    @settings(max_examples=20)
    @given(
        n=st.sampled_from([2048, 4096]),
        length=st.floats(0.5, 4.0),
        degree=st.integers(1, 16),
        slope=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invert_monotone_round_trip(self, n, length, degree, slope, seed):
        # at 4096 nodes the Hermite first guess samples the grid itself
        grid = PeriodicGrid(n, length)
        assert grid.node_count > _interp.EXACT_EVAL_LIMIT  # Newton on the spline
        rng = np.random.default_rng(seed)
        w = random_band_limited(grid, degree, rng).values
        # |w'| <= slope < 1 at the nodes, so x + w(x) is increasing
        w *= slope / np.max(np.abs(fourier(grid, w, grid.ik[0])))
        targets = rng.uniform(-length, 2.0 * length, 200)
        x = _interp.invert_monotone(grid, grid.coordinate(0) + w, targets)
        residual = x + _interp.trig_eval(grid, w, x) - targets
        assert np.max(np.abs(residual)) <= 1e-12 * length


class TestTransport:
    def test_identity_transport(self):
        grid = PeriodicGrid(128)
        d = uniform_density(grid)
        flow = transport_map(d, d)
        assert np.allclose(flow.positions[-1][0], grid.coordinate(0), atol=1e-12)

    def test_uniform_to_wavy(self):
        grid = PeriodicGrid(256)
        x = grid.coordinate(0)
        target = Density(ScalarField(grid, 1 + 0.5 * np.sin(2 * np.pi * x)), 1.0)
        flow = transport_map(uniform_density(grid), target)
        assert flow.diagnostics["pushforward_residual"] <= 1e-10

    def test_mass_mismatch(self):
        grid = PeriodicGrid(64)
        with pytest.raises(MassMismatch):
            transport_map(uniform_density(grid), uniform_density(grid, 2.0))

    def test_mass_mismatch_message(self):
        grid = PeriodicGrid(64)
        with pytest.raises(MassMismatch, match=r"^masses differ: 1\.0 vs 2\.0$"):
            transport_map(uniform_density(grid), uniform_density(grid, 2.0))

    def test_torus_pushforward(self):
        grid = PeriodicGrid((48, 48))
        x, y = grid.coordinate(0), grid.coordinate(1)
        target = Density(
            ScalarField(
                grid, 1 + 0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
            ),
            1.0,
        )
        flow = transport_map(uniform_density(grid), target, dt=2e-3)
        assert flow.diagnostics["pushforward_residual"] <= 1e-8

    def test_torus_axis_density_reduces_to_1d(self):
        # a target varying along one axis only: the torus construction
        # degenerates to the circle one, up to the rotation freedom of
        # circle transports (matched through the target's distribution map)
        grid2 = PeriodicGrid((48, 48))
        grid1 = PeriodicGrid(48)
        x2 = grid2.coordinate(0)
        x1 = grid1.coordinate(0)
        profile = lambda x: 1 + 0.3 * np.sin(2 * np.pi * x)
        target2 = Density(ScalarField(grid2, profile(x2)), 1.0)
        target1 = Density(ScalarField(grid1, profile(x1)), 1.0)

        flow2 = _flow_transport(uniform_density(grid2), target2, dt=1e-3)
        # the y component is untouched
        assert np.max(np.abs(flow2[1] - grid2.coordinate(1))) <= 1e-12
        eta_x = flow2[0][:, 0]

        # circle oracle: F_tgt(η(x)) = F_src(x) + c with the base shift c
        # read off from the torus map at x = 0
        f_tgt = moser_primitive_1d(grid1, target1.values)
        c = _interp.trig_eval(
            grid1, f_tgt - x1, np.array([eta_x[0]])
        )[0] + eta_x[0]  # F_tgt(η(0)) since F_src(0) = 0
        expected = _interp.invert_monotone(grid1, f_tgt, x1 + c)
        assert np.max(np.abs(eta_x - expected)) <= 1e-8


def wavy_target(grid, amp=0.2):
    x, y = grid.coordinate(0), grid.coordinate(1)
    values = 1 + amp * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    return Density(ScalarField(grid, values), 1.0)


@pytest.fixture
def counted(monkeypatch):
    """Counts of SplineEvaluator builds and invert_map calls."""
    counts = {"spline": 0, "invert": 0}

    class CountingEvaluator(_interp.SplineEvaluator):
        def __init__(self, *args, **kwargs):
            counts["spline"] += 1
            super().__init__(*args, **kwargs)

    def counting_invert(*args, **kwargs):
        counts["invert"] += 1
        return invert_map(*args, **kwargs)

    monkeypatch.setattr(_interp, "SplineEvaluator", CountingEvaluator)
    monkeypatch.setattr(moser, "invert_map", counting_invert)
    return counts


class TestGridAdvection:
    def test_lift_builds_no_spline_and_inverts_nothing(self, counted):
        geo = torus_geodesic(32)
        lift_flow(lambda t: jacobian_formula(geo, t), [0.0, 0.05, 0.1], geo.grid,
                  dt=1e-2)
        assert counted == {"spline": 0, "invert": 0}

    def test_transport_builds_only_the_residual_evaluator(self, counted):
        grid = PeriodicGrid((48, 48))
        transport_map(uniform_density(grid), wavy_target(grid), dt=2e-2)
        assert counted == {"spline": 1, "invert": 0}

    def test_lift_rejects_too_large_step(self):
        geo = torus_geodesic(32)
        with pytest.raises(StepTooLarge):
            lift_flow(lambda t: jacobian_formula(geo, t), [0.0, 0.4], geo.grid,
                      dt=0.4)

    def test_lift_bounds_its_whole_horizon_before_the_first_interval(self, monkeypatch):
        # each interval takes 0.6 MAX_STEPS steps, the two together more
        grid = PeriodicGrid((16, 16))
        wave = np.sin(2 * np.pi * grid.coordinate(0))
        calls = []
        monkeypatch.setattr(moser, "_advect_inverse", lambda *args: calls.append(args))
        with pytest.raises(ValidationError):
            lift_flow(lambda t: 1.0 + 0.1 * t * wave, [0.0, 0.6, 1.2], grid,
                      dt=1.0 / MAX_STEPS, dphi=lambda t: 0.1 * wave)
        assert calls == []

    def test_scalar_field_dphi_gives_the_array_flow(self):
        geo = torus_geodesic(16)

        def dphi(t):
            return 2.0 * sphere_path(geo, t).values * sphere_velocity(geo, t).values

        phi = lambda t: jacobian_formula(geo, t)
        by_array = lift_flow(phi, [0.0, 0.1], geo.grid, dt=1e-2, dphi=dphi)
        by_field = lift_flow(phi, [0.0, 0.1], geo.grid, dt=1e-2,
                             dphi=lambda t: ScalarField(geo.grid, dphi(t)))
        for a, b in zip(by_array.positions, by_field.positions):
            assert np.array_equal(a, b)

    def test_default_dphi_is_the_central_difference(self):
        # φ(t) and φ(t ± h) per distinct stage time: one step has three
        geo = torus_geodesic(16)
        calls = []

        def phi(t):
            calls.append(t)
            return jacobian_formula(geo, t)

        h = 1e-4
        flow = lift_flow(phi, [0.0, 0.01], geo.grid, dt=0.01)
        assert len(calls) == 1 + 2 + 3 * 3  # φ(0), validation, three stage times
        central = lift_flow(phi, [0.0, 0.01], geo.grid, dt=0.01, dphi=lambda t: (
            jacobian_formula(geo, t + h).values - jacobian_formula(geo, t - h).values
        ) / (2.0 * h))
        assert np.array_equal(flow.positions[-1], central.positions[-1])

    # (0, 0) is one zero step, all of whose stages share t0
    @pytest.mark.parametrize("t0, t1, dt, calls", [
        (1.0, 0.0, 2e-2, 2 * 50 + 1), (0.0, 0.2, 1e-3, 2 * 200 + 1),
        (1.0, 0.0, 1e-3, 2 * 1000 + 1), (0.0, 0.0, 1e-3, 1),
    ])
    def test_advection_evaluates_the_velocity_once_per_half_step(self, t0, t1, dt, calls):
        # RK4's middle stages share a time, and each step's last stage is the
        # next step's first, even where t + h and t0 + (step + 1) h round apart
        grid = PeriodicGrid((8, 8))
        times = []

        def velocity(t):
            times.append(t)
            return np.full((2, 8, 8), 0.1)

        moser._advect_inverse(grid, velocity, t0, t1, dt, np.zeros_like(grid.identity))
        assert len(times) == calls
        assert times[0] == t0
        assert abs(times[-1] - t1) <= 4 * np.spacing(max(abs(t0), abs(t1)))

    def test_transport_rejects_too_large_step(self):
        grid = PeriodicGrid((48, 48))
        with pytest.raises(StepTooLarge):
            transport_map(uniform_density(grid), wavy_target(grid, 0.5), dt=1.0)

    # degree 2 keeps the transport map resolved to 1e-8 on 48²; from degree
    # 3 at amplitude 0.2 the residual floor is set by the grid, not by dt
    @settings(max_examples=15)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(1, 2),
        amps=st.tuples(st.floats(0.0, 0.2), st.floats(0.0, 0.2)),
    )
    @example(seed=0, degree=1, amps=(0.0, 1e-13))  # difference's mean is roundoff
    def test_random_pushforward_residual(self, seed, degree, amps):
        grid = PeriodicGrid((48, 48))
        rng = np.random.default_rng(seed)

        def density(amp):
            wave = random_band_limited(grid, degree, rng).values
            return Density(ScalarField(grid, 1 + amp * wave / np.max(np.abs(wave))), 1.0)

        flow = transport_map(density(amps[0]), density(amps[1]), dt=2e-2)
        assert flow.diagnostics["pushforward_residual"] <= 1e-8
