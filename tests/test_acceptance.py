"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; every tolerance is fixed here, none are calibrated at runtime.
"""

import time

import numpy as np

from densgeo.circle import (
    AlphaConnection,
    alpha_one_explicit,
    alpha_one_residual,
    duality_residual,
)
from densgeo.density import SpherePoint, uniform_density
from densgeo.grid import (
    PeriodicGrid,
    ScalarField,
    derivative,
    integrate,
    l2_inner,
    laplacian_inverse_gradient,
    random_band_limited,
)
from densgeo.hsflow import (
    HsGeodesic,
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
from densgeo.invariants import (
    angular_momenta,
    chain_Hk,
    chain_Hproj,
    fourier_basis,
    poisson_bracket_check,
    project,
)
from densgeo.moser import lift_flow, moser_primitive_1d
from densgeo.simplex import BOUNCE_TIME, geodesic_probs
from densgeo.spheregeo import (
    fisher_rao_inner,
    geodesic,
    h1dot_inner,
    spherical_distance,
)
from helpers import peaked_density, sin_geodesic

TMAX_SIN = 2.0 * np.sqrt(2.0) * (np.pi / 2.0 - np.arctan(np.sqrt(2.0)))


def _report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:2d}] {status} - {description} ({detail})")
    assert ok, f"criterion {number} failed: {description} ({detail})"


def test_01_isometry_pullback():
    started = time.time()
    grid = PeriodicGrid(256)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        a = random_band_limited(grid, 8, rng)
        b = random_band_limited(grid, 8, rng)
        u, v = laplacian_inverse_gradient(a), laplacian_inverse_gradient(b)
        expected = h1dot_inner(grid, u, v)

        def pullback(eps):
            ta = (np.sqrt(1 + eps * a.values) - np.sqrt(1 - eps * a.values)) / (2 * eps)
            tb = (np.sqrt(1 + eps * b.values) - np.sqrt(1 - eps * b.values)) / (2 * eps)
            return l2_inner(ScalarField(grid, ta), ScalarField(grid, tb))

        richardson = (100.0 * pullback(1e-5) - pullback(1e-4)) / 99.0
        worst = max(worst, abs(richardson - expected))
    elapsed = time.time() - started
    _report(
        1,
        "square-root map pulls the sphere metric back to the divergence pairing",
        worst <= 1e-8 and elapsed < 10.0,
        f"max |fd - inner| = {worst:.2e} over 50 pairs, {elapsed:.1f}s",
    )


def test_02_integrators_match_closed_form():
    started = time.time()
    # 1D: alpha = 0 pseudospectral geodesic vs the explicit solution
    geo1 = sin_geodesic(512)
    grid1 = geo1.grid
    x = grid1.coordinate(0)
    u0 = ScalarField(grid1, (1 - np.cos(2 * np.pi * x)) / (2 * np.pi))
    t_half = 0.5 * geo1.t_max
    u_num = AlphaConnection(0.0).evolve(u0, t_half, 1e-4)
    err_1d = float(
        np.max(np.abs(derivative(u_num).values - eulerian_rho(geo1, t_half).values))
    )

    # 2D: particle flow vs the global density evolution
    grid2 = PeriodicGrid((48, 48))
    x2, y2 = grid2.coordinate(0), grid2.coordinate(1)
    geo2 = HsGeodesic.from_divergence(
        ScalarField(grid2, 0.5 * np.sin(2 * np.pi * x2) * np.sin(2 * np.pi * y2))
    )
    t2 = 0.5 * geo2.t_max
    flow = integrate_flow(geo2, t2, 5e-3, n_store=2)
    density_of_map = map_jacobian(grid2, flow.positions[-1])
    _, target = evolve_density_global(geo2, flow.times[-1])
    err_2d = float(np.max(np.abs(density_of_map - target.values)))
    elapsed = time.time() - started
    _report(
        2,
        "numerical integrators reproduce the explicit geodesic",
        err_1d <= 1e-6 and err_2d <= 1e-5 and elapsed < 60.0,
        f"1D sup = {err_1d:.2e}, 2D sup = {err_2d:.2e}, {elapsed:.1f}s",
    )


def test_03_blowup_certificate():
    geo = sin_geodesic(256)
    formula_err = abs(geo.t_max - TMAX_SIN)
    lo, hi = 0.9 * geo.t_max, geo.t_max * (1 - 1e-12)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.max(np.abs(rho_along_flow(geo, mid).values)) >= 1e3:
            hi = mid
        else:
            lo = mid
    crossing_gap = (geo.t_max - 0.5 * (lo + hi)) / geo.t_max
    jac_min = float(np.min(jacobian_formula(geo, geo.t_max).values))
    ok = formula_err <= 1e-12 and 0.0 < crossing_gap <= 0.01 and jac_min <= 1e-6
    _report(
        3,
        "breakdown at the predicted time with the Jacobian pinching to zero",
        ok,
        f"|t_max - formula| = {formula_err:.1e}, sup|rho| crosses 1e3 at "
        f"{crossing_gap:.2%} before t_max, min Jac = {jac_min:.1e}",
    )


def test_04_energy_conservation():
    geo = sin_geodesic(256)
    drift_exact = max(
        abs(flow_energy(geo, float(t)) - geo.conserved_energy)
        for t in np.linspace(0.0, 0.95 * geo.t_max, 40)
    ) / geo.conserved_energy
    t_end = 0.9 * geo.t_max
    jac = jacobian_by_ode(geo, t_end, 1e-4)
    rho = rho_along_flow(geo, t_end)
    numeric = integrate(ScalarField(geo.grid, rho.values**2 * jac.values))
    drift_numeric = abs(numeric - geo.conserved_energy) / geo.conserved_energy
    _report(
        4,
        "energy is conserved along exact and numerically transported solutions",
        drift_exact <= 1e-10 and drift_numeric <= 1e-8,
        f"closed-form drift = {drift_exact:.2e}, numeric drift to 0.9 t_max = "
        f"{drift_numeric:.2e}",
    )


def test_05_integrability_chains():
    grid = PeriodicGrid(256)
    x = grid.coordinate(0)
    geo = HsGeodesic.from_divergence(
        ScalarField(grid, np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x))
    )
    count = 12
    times = np.linspace(0.0, 2 * np.pi / geo.kappa, 50)
    basis = fourier_basis(grid, count)
    coords = [
        project(
            SpherePoint(sphere_path(geo, float(t)), np.sqrt(geo.mass)),
            sphere_velocity(geo, float(t)),
            basis,
        )
        for t in times
    ]
    h_all = np.array([angular_momenta(c) for c in coords])
    hk_all = np.array([chain_Hk(c)[:8] for c in coords])
    hp_all = np.array([chain_Hproj(c)[:7] for c in coords])

    def drift(series):
        return float(np.max(np.abs(series - series[0])) / (np.max(np.abs(series[0])) or 1.0))

    worst = max(drift(h_all), drift(hk_all), drift(hp_all))
    brackets = poisson_bracket_check(seed=2024, count=8, n_points=100)
    ok = (
        worst <= 1e-8
        and brackets["so_residual"] <= 1e-10
        and brackets["chain_residual"] <= 1e-10
    )
    _report(
        5,
        "momenta and both commuting chains are constant; brackets close",
        ok,
        f"max drift = {worst:.2e}, so3 residual = {brackets['so_residual']:.1e}, "
        f"chain residual = {brackets['chain_residual']:.1e}",
    )


def test_06_moser_lift():
    started = time.time()
    geo1 = sin_geodesic(256)
    phi_half = jacobian_formula(geo1, 0.5 * geo1.t_max).values
    eta = moser_primitive_1d(geo1.grid, phi_half)
    jac_1d = map_jacobian(geo1.grid, eta[None, :])
    err_1d = float(np.max(np.abs(jac_1d - phi_half)))

    grid2 = PeriodicGrid((128, 128))
    x2, y2 = grid2.coordinate(0), grid2.coordinate(1)
    geo2 = HsGeodesic.from_divergence(
        ScalarField(grid2, 0.5 * np.sin(2 * np.pi * x2) * np.sin(2 * np.pi * y2))
    )
    t_grid = np.array([0.0, 0.2, 0.4])
    flow = lift_flow(
        lambda t: jacobian_formula(geo2, t), t_grid, grid2, dt=1e-3, pad_factor=2
    )
    err_2d = max(
        float(np.max(np.abs(flow.jacobians[i] - jacobian_formula(geo2, float(t)).values)))
        for i, t in enumerate(t_grid)
    )
    mass_err = max(
        abs(grid2.node_weight * np.sum(jac) - grid2.total_volume)
        for jac in flow.jacobians
    )
    mass_err = max(
        mass_err, abs(geo1.grid.node_weight * np.sum(jac_1d) - geo1.grid.total_volume)
    )
    elapsed = time.time() - started
    _report(
        6,
        "lifted flows realize the prescribed Jacobian and conserve mass",
        err_1d <= 1e-10 and err_2d <= 1e-6 and mass_err <= 1e-8,
        f"1D sup = {err_1d:.2e}, 2D sup = {err_2d:.2e}, mass defect = "
        f"{mass_err:.2e}, {elapsed:.1f}s",
    )


def test_07_connection_duality():
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(-2.0, 2.0)
        u = random_band_limited(grid, 8, rng)
        v = random_band_limited(grid, 8, rng)
        w = random_band_limited(grid, 8, rng)
        worst = max(worst, abs(duality_residual(alpha, u, v, w)))
    _report(
        7,
        "plus/minus alpha connections are metric-dual",
        worst <= 1e-10,
        f"max residual = {worst:.2e} over 100 random triples",
    )


def test_08_alpha_one_explicit_solution():
    grid = PeriodicGrid(512)
    x = grid.coordinate(0)
    u0 = ScalarField(grid, np.sin(2 * np.pi * x) / (2 * np.pi))
    explicit, _ = alpha_one_explicit(u0, 0.3)
    numeric = AlphaConnection(1.0).evolve(u0, 0.3, 1e-4)
    sup_err = float(np.max(np.abs(numeric.values - explicit.values)))
    residual = alpha_one_residual(u0, 0.3)
    _report(
        8,
        "flat-connection solution: closed form vs spectral integrator",
        sup_err <= 1e-5 and residual <= 1e-6,
        f"sup error = {sup_err:.2e}, equation residual = {residual:.2e}",
    )


def test_09_information_metric_factor():
    grid = PeriodicGrid(128)
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    for _ in range(50):
        u = laplacian_inverse_gradient(random_band_limited(grid, 8, rng))
        v = laplacian_inverse_gradient(random_band_limited(grid, 8, rng))
        fr = fisher_rao_inner(grid, u, v)
        quarter = h1dot_inner(grid, u, v)
        worst_rel = max(worst_rel, abs(fr - 4.0 * quarter) / max(abs(fr), 1e-30))
    const = np.full((1,) + grid.shape, 2.0)
    u = laplacian_inverse_gradient(
        ScalarField(grid, np.sin(2 * np.pi * grid.coordinate(0)))
    )
    degenerate = abs(fisher_rao_inner(grid, u, const))
    _report(
        9,
        "information metric is exactly four times the quarter-normalized one",
        worst_rel <= 1e-14 and degenerate <= 1e-12,
        f"max relative defect = {worst_rel:.1e}, divergence-free pairing = "
        f"{degenerate:.1e}",
    )


def test_10_diameter_approach():
    grid = PeriodicGrid(65536)
    uniform = uniform_density(grid)
    bound = np.pi / 2.0
    distances = [
        spherical_distance(uniform, peaked_density(grid, 10.0**k)) for k in (1, 2, 3, 4)
    ]
    increasing = all(a < b for a, b in zip(distances, distances[1:]))
    ok = (
        increasing
        and distances[-1] >= bound - 0.05
        and all(d < bound for d in distances)
    )
    _report(
        10,
        "concentrating densities approach the diameter bound from below",
        ok,
        "distances = " + ", ".join(f"{d:.4f}" for d in distances)
        + f", bound = {bound:.4f}",
    )


def test_11_simplex_demo():
    start = geodesic_probs(0.0).probs
    exact_start = float(np.max(np.abs(start - 1.0 / 3.0)))
    sums = [
        abs(np.sum(geodesic_probs(float(t)).probs) - 1.0)
        for t in np.linspace(-5.0, 5.0, 1000)
    ]
    touch = float(geodesic_probs(BOUNCE_TIME).probs[1])
    nonneg = min(
        float(np.min(geodesic_probs(float(t)).probs))
        for t in np.linspace(0.0, 2 * np.pi, 2000)
    )
    ok = (
        exact_start <= 1e-15
        and max(sums) <= 1e-14
        and abs(BOUNCE_TIME - 0.68472) <= 1e-5
        and touch <= 1e-12
        and nonneg >= 0.0
    )
    _report(
        11,
        "three-outcome geodesic stays normalized and bounces off the wall",
        ok,
        f"start defect = {exact_start:.1e}, max sum defect = {max(sums):.1e}, "
        f"wall value = {touch:.1e} at t = {BOUNCE_TIME:.5f}, min coord = {nonneg:.1e}",
    )


def test_12_constant_curvature_coherence():
    geo = sin_geodesic(256)
    t1 = 0.8 * geo.t_max
    _, d0 = evolve_density_global(geo, 0.0)
    _, d1 = evolve_density_global(geo, t1)
    path = geodesic(d0, d1)
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 22)[1:-1]:
        expected = evolve_density_global(geo, float(s) * t1)[1].values
        got = path.density_at(float(s)).values
        worst = max(worst, float(np.max(np.abs(got - expected))))
    _report(
        12,
        "explicit flow path coincides with the great-circle interpolation",
        worst <= 1e-8,
        f"max pointwise gap over 20 interior times = {worst:.2e}",
    )
